"""Bucket, record and file-state recovery for LH*RS.

All recovery is coordinated from the coordinator's node (the paper's
design: unavailability reports converge there, spares are allocated
there).  Every step that would be a network interaction *is* one — dumps
and loads travel as counted messages — so the experiments read recovery
costs straight off the accounting windows.

* **Group recovery** (`recover_group`): any ≤ k lost buckets of one
  bucket group, data and/or parity, rebuilt in one pass: dump the
  survivors, decode each record group (rank) with the RS codec — the
  single-data-loss case rides the XOR fast path — and bulk-load fresh
  servers registered under the lost buckets' logical addresses.
* **Record recovery** (`recover_record`): the degraded-mode fast path
  serving one key search while bucket recovery would still be running;
  also delivers *certain* unsuccessful searches (the parity directory is
  authoritative about which keys exist).
* **File-state reconstruction** (`reconstruct_state`): the A6-style
  procedure computing (n, i) from surviving buckets' levels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.check import mutants
from repro.core.group import data_node, group_buckets, group_of, parity_node, position_of
from repro.rs.codec import RSCodec
from repro.sim.network import NodeUnavailable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.coordinator import RSCoordinator


class RecoveryError(RuntimeError):
    """Recovery impossible (too many failures) or inconsistent state.

    The algorithms are designed to fail loudly: multiple failures beyond
    the availability level block the operation rather than silently
    losing data.
    """


class RecoveryPacer:
    """Token bucket throttling rebuild transfers against foreground load.

    An unpaced rebuild fires its survivor dumps and spare loads
    back-to-back, parking a burst of work on every survivor's service
    queue — foreground reads then wait behind the rebuild, exactly the
    recovery-starves-clients failure mode.  With pacing, ``rate``
    tokens accrue per clock unit (up to ``burst``); each transfer costs
    its weight in records moved, and on a deficit the recovery *waits*
    — advancing the simulated clock, which drains survivor queues —
    before continuing.
    """

    def __init__(self, network, rate: float, burst: float):
        if rate <= 0:
            raise ValueError("pace rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one transfer")
        self.network = network
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = network.now
        self.waits = 0
        self.waited = 0.0

    def _refill(self) -> None:
        now = self.network.now
        self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now

    def pace(self, cost: float = 1.0) -> None:
        """Take ``cost`` tokens, waiting out any deficit first."""
        net = self.network
        self._refill()
        if self.tokens < cost:
            wait = (cost - self.tokens) / self.rate
            self.waits += 1
            self.waited += wait
            if net.tracer is not None:
                net.tracer.emit("recovery.paced", wait=round(wait, 3))
            if net.metrics is not None:
                net.metrics.counter(
                    "recovery.pace.waits", "rebuild transfers throttled"
                ).inc()
                net.metrics.gauge(
                    "recovery.pace.waited", "total clock units recovery yielded"
                ).inc(wait)
            net.advance(wait)
            self._refill()
        self.tokens -= cost


def parse_node_id(file_id: str, node_id: str):
    """Classify a node id: ("data", bucket), ("parity", group, index),
    or None for foreign/client/coordinator nodes."""
    prefix = f"{file_id}."
    if not node_id.startswith(prefix):
        return None
    rest = node_id[len(prefix):]
    if rest.startswith("d") and rest[1:].isdigit():
        return ("data", int(rest[1:]))
    if rest.startswith("p"):
        parts = rest[1:].split(".")
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            return ("parity", int(parts[0]), int(parts[1]))
    return None


def reconstruct_state(levels: dict[int, int], n0: int) -> tuple[int, int]:
    """A6-style file-state reconstruction from bucket levels.

    ``levels`` maps surviving bucket numbers to their levels j_m.  The
    split boundary (j_{m-1} = j_m + 1) pins (n, i) exactly; if it is not
    visible (all equal levels, or the boundary bucket among the lost),
    the identity M = n + 2^i N over the largest observed bucket is used.
    """
    if not levels:
        raise RecoveryError("no surviving buckets to reconstruct the state from")
    i = min(levels.values())
    for m in sorted(levels):
        if m - 1 in levels and levels[m - 1] == levels[m] + 1:
            return m, levels[m]
    if max(levels.values()) == i:
        # All levels equal: either n = 0, or the boundary is hidden by a
        # loss; fall back to the extent identity.
        total = max(levels) + 1
        n = total - (1 << i) * n0
        return max(n, 0), i
    # Mixed levels but no adjacent boundary visible: the pointer bucket
    # itself is lost; the first bucket still at level i bounds it.
    return min(m for m, j in levels.items() if j == i), i


class RecoveryManager:
    """Executes recovery on behalf of an :class:`RSCoordinator`."""

    def __init__(self, coordinator: "RSCoordinator"):
        self.coordinator = coordinator
        #: counters for the experiments
        self.groups_recovered = 0
        self.records_reconstructed = 0
        self.degraded_reads_served = 0
        #: groups with a recovery in progress (reentrancy guard: dumping
        #: a survivor can flush Δs to a dead parity bucket, whose
        #: unavailability report must not start a nested recovery of the
        #: very group being rebuilt)
        self._recovering_groups: set[int] = set()

    # ------------------------------------------------------------------
    # shortcuts into the coordinator's world
    # ------------------------------------------------------------------
    @property
    def _file_id(self) -> str:
        return self.coordinator.file_id

    @property
    def _net(self):
        return self.coordinator._net()

    def _codec(self, group: int) -> RSCodec:
        cfg = self.coordinator.config
        return RSCodec(
            m=cfg.group_size,
            k=self.coordinator.group_level(group),
            field=self.coordinator.field,
            kind=cfg.generator,
        )

    def _make_pacer(self) -> RecoveryPacer | None:
        """A fresh token bucket per rebuild (None = pacing off)."""
        cfg = self.coordinator.config
        if cfg.recovery_pace_rate is None:
            return None
        return RecoveryPacer(
            self._net, cfg.recovery_pace_rate, cfg.recovery_pace_burst
        )

    def _account_transfer(self, pacer, node_id: str, payload) -> None:
        """Account one rebuild transfer's weight.

        A dump/load moves a whole bucket in one RPC, not one request's
        worth of work: the service plane (when installed) parks one unit
        of serialization backlog per record moved on the node, and the
        pacer is charged the same cost — so ``recovery_pace_rate`` reads
        as records per clock unit.  Pacing *after* the transfer lets the
        just-charged queue drain before the next one fires.
        """
        if isinstance(payload, dict):
            records = payload.get("records")
        else:
            records = payload
        try:
            units = float(max(1, len(records)))
        except TypeError:
            units = 1.0
        net = self._net
        if net.service is not None:
            net.service.charge_bulk(node_id, units, net.now)
        if pacer is not None:
            pacer.pace(units)

    # ------------------------------------------------------------------
    # entry point: a set of failed nodes
    # ------------------------------------------------------------------
    def recover_nodes(self, node_ids: list[str], best_effort: bool = False) -> dict:
        """Recover every listed failed node, grouping work per bucket group.

        With ``best_effort=True`` (the self-healing probe loop) a group
        whose recovery fails — more than k members down, or the spare
        pool exhausted — is *recorded* under ``errors`` instead of
        aborting the sweep, so one doomed group never blocks the repair
        of the others.
        """
        per_group: dict[int, dict[str, list[int]]] = {}
        for node_id in node_ids:
            parsed = parse_node_id(self._file_id, node_id)
            if parsed is None:
                raise RecoveryError(f"cannot recover foreign node {node_id!r}")
            if parsed[0] == "data":
                bucket = parsed[1]
                g = group_of(bucket, self.coordinator.config.group_size)
                per_group.setdefault(g, {"data": [], "parity": []})["data"].append(bucket)
            else:
                _, g, index = parsed
                per_group.setdefault(g, {"data": [], "parity": []})["parity"].append(index)
        summary = {"groups": 0, "data_buckets": 0, "parity_buckets": 0, "records": 0}
        errors: list[dict] = []
        for g, lost in sorted(per_group.items()):
            if g in self._recovering_groups:
                continue  # already being rebuilt higher up the stack
            try:
                stats = self.recover_group(g, lost["data"], lost["parity"])
            except RecoveryError as err:
                if not best_effort:
                    raise
                errors.append({"group": g, "error": str(err)})
                continue
            summary["groups"] += 1
            summary["data_buckets"] += len(lost["data"])
            summary["parity_buckets"] += len(lost["parity"])
            summary["records"] += stats["records"]
        if best_effort:
            summary["errors"] = errors
        return summary

    # ------------------------------------------------------------------
    # group recovery
    # ------------------------------------------------------------------
    def recover_group(
        self, group: int, lost_data: list[int], lost_parity: list[int]
    ) -> dict:
        """Rebuild the given lost buckets of one group onto spares."""
        if group in self._recovering_groups:
            return {
                "group": group,
                "data_buckets": [],
                "parity_buckets": [],
                "records": 0,
                "skipped": True,
            }
        self._recovering_groups.add(group)
        tracer = self._net.tracer
        # Recovery intent: a coordinator crash mid-rebuild leaves this
        # begin record open, and the takeover re-probes the group (the
        # rebuild itself is idempotent roll-forward — spares are fresh).
        begin = self.coordinator._journal(
            "intent.begin",
            op="recover",
            group=group,
            lost_data=sorted(set(lost_data)),
            lost_parity=sorted(set(lost_parity)),
        )
        try:
            try:
                if tracer is None:
                    stats = self._recover_group_locked(
                        group, lost_data, lost_parity
                    )
                else:
                    with tracer.span(
                        "recovery",
                        group=group,
                        lost_data=sorted(set(lost_data)),
                        lost_parity=sorted(set(lost_parity)),
                    ):
                        tracer.emit("recovery.start", group=group)
                        stats = self._recover_group_locked(
                            group, lost_data, lost_parity
                        )
                        tracer.emit(
                            "recovery.end",
                            group=group,
                            records=stats["records"],
                            data_buckets=len(stats["data_buckets"]),
                            parity_buckets=len(stats["parity_buckets"]),
                        )
            except RecoveryError:
                self.coordinator._journal(
                    "intent.end", begin=begin.lsn, outcome="abort"
                )
                raise
            self.coordinator._journal("intent.end", begin=begin.lsn)
            return stats
        finally:
            self._recovering_groups.discard(group)

    def _recover_group_locked(
        self, group: int, lost_data: list[int], lost_parity: list[int]
    ) -> dict:
        coordinator = self.coordinator
        cfg = coordinator.config
        m = cfg.group_size
        k = coordinator.group_level(group)
        codec = self._codec(group)

        data_buckets = group_buckets(group, m, coordinator.state.bucket_count)
        lost_data = sorted(set(lost_data))
        lost_parity = sorted(set(lost_parity))
        for bucket in lost_data:
            if bucket not in data_buckets:
                raise RecoveryError(
                    f"bucket {bucket} is not an existing member of group {group}"
                )
        for index in lost_parity:
            if index >= k:
                raise RecoveryError(
                    f"parity index {index} beyond group {group}'s level {k}"
                )

        # Widen to any additional members found unavailable right now.
        for bucket in data_buckets:
            if bucket not in lost_data and not self._net.is_available(
                data_node(self._file_id, bucket)
            ):
                lost_data.append(bucket)
        for index in range(k):
            if index not in lost_parity and not self._net.is_available(
                parity_node(self._file_id, group, index)
            ):
                lost_parity.append(index)
        lost_data.sort()
        lost_parity.sort()

        # ---- collect survivor state (counted messages) ----------------
        # Every dump is a top-level call, so the clock ticks between
        # them and a scheduled failure can take a survivor down *mid-
        # recovery*.  Fold the casualty into the lost set and restart
        # the collection rather than decoding from a torn survivor set.
        coord_id = coordinator.node_id
        while True:
            if len(lost_data) + len(lost_parity) > k:
                raise RecoveryError(
                    f"group {group}: {len(lost_data)} data + "
                    f"{len(lost_parity)} parity buckets lost exceeds "
                    f"availability level k={k}"
                )
            survivors_data = [b for b in data_buckets if b not in lost_data]
            survivors_parity = [i for i in range(k) if i not in lost_parity]
            pacer = self._make_pacer()
            try:
                data_dumps = {}
                for b in survivors_data:
                    data_dumps[b] = self._net.call(
                        coord_id, data_node(self._file_id, b), "bucket.dump"
                    )
                    self._account_transfer(
                        pacer, data_node(self._file_id, b), data_dumps[b]
                    )
                parity_dumps = {}
                for i in survivors_parity:
                    parity_dumps[i] = self._net.call(
                        coord_id,
                        parity_node(self._file_id, group, i),
                        "parity.dump",
                    )
                    self._account_transfer(
                        pacer,
                        parity_node(self._file_id, group, i),
                        parity_dumps[i],
                    )
            except NodeUnavailable as failure:
                parsed = parse_node_id(self._file_id, failure.node_id)
                if parsed is None:  # pragma: no cover - own group members only
                    raise
                if parsed[0] == "data":
                    lost_data = sorted({*lost_data, parsed[1]})
                else:
                    lost_parity = sorted({*lost_parity, parsed[2]})
                continue
            break

        # Crash point: survivors dumped, nothing claimed or installed
        # yet — the window a takeover must re-probe (see recover_group's
        # intent record).
        coordinator._crash_hook("recover.mid")

        # ---- stale-survivor promotion ---------------------------------
        # A surviving parity bucket whose Δ channel lags a surviving data
        # bucket's sequence counter missed traffic (fire-and-forget mode,
        # or a crash report racing the Δ fan-out).  Folding a decode
        # through its payloads would resurrect deleted records, so it is
        # promoted into the lost set and re-encoded from current data.
        survivor_seqs = {
            position_of(b, m): dump.get("parity_seq", 0)
            for b, dump in data_dumps.items()
        }
        stale = sorted(
            index for index, dump in parity_dumps.items()
            if any(
                dump.get("expected_seqs", {}).get(pos, 1) < seq + 1
                for pos, seq in survivor_seqs.items()
            )
        )
        if stale:
            if len(lost_data) + len(lost_parity) + len(stale) > k:
                raise RecoveryError(
                    f"group {group}: surviving parity {stale} lag the data "
                    f"buckets; rebuilding them too exceeds availability "
                    f"level k={k}"
                )
            for index in stale:
                del parity_dumps[index]
            lost_parity = sorted({*lost_parity, *stale})
            survivors_parity = [i for i in range(k) if i not in lost_parity]

        # Claim every needed spare before the rebuild: pool exhaustion
        # must abort before any server is torn down, never mid-install.
        for _ in range(len(lost_data) + len(lost_parity)):
            coordinator.take_spare()

        # ---- rebuild lost content -------------------------------------
        if lost_data:
            if not survivors_parity:
                raise RecoveryError(
                    f"group {group}: data lost but no parity bucket survives"
                )
            directory = self._merge_directory(parity_dumps)
        else:
            directory = self._directory_from_data(data_dumps)

        new_data, new_parity, decoded = self._rebuild(
            codec, m, directory, data_dumps, parity_dumps,
            lost_data, lost_parity, group,
        )

        # ---- Δ-channel bookkeeping ------------------------------------
        # A rebuilt data bucket resumes its sequence counter from the
        # most advanced surviving parity channel (that channel saw every
        # Δ the lost bucket issued); a rebuilt parity bucket expects the
        # next Δ after each data counter, so in-flight retransmissions
        # arrive as duplicates, never as double-applied folds.
        data_seqs = {
            position_of(b, m): dump.get("parity_seq", 0)
            for b, dump in data_dumps.items()
        }
        for bucket in lost_data:
            pos = position_of(bucket, m)
            data_seqs[pos] = max(
                (
                    dump.get("expected_seqs", {}).get(pos, 1) - 1
                    for dump in parity_dumps.values()
                ),
                default=0,
            )

        # ---- install spares under the lost logical addresses ----------
        for bucket in lost_data:
            self._install_data_spare(
                bucket, new_data[bucket], data_seqs[position_of(bucket, m)]
            )
            self._account_transfer(
                pacer, data_node(self._file_id, bucket), new_data[bucket]
            )
        expected_seqs = {pos: seq + 1 for pos, seq in data_seqs.items()}
        for index in lost_parity:
            self._install_parity_spare(
                group, index, new_parity[index], expected_seqs
            )
            self._account_transfer(
                pacer,
                parity_node(self._file_id, group, index),
                new_parity[index],
            )

        self.groups_recovered += 1
        self.records_reconstructed += decoded
        return {
            "group": group,
            "data_buckets": lost_data,
            "parity_buckets": lost_parity,
            "records": decoded,
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _merge_directory(parity_dumps: dict[int, dict]) -> dict[int, dict]:
        """rank -> {keys, lengths, parity-by-index} from parity dumps.

        Every surviving parity bucket carries the same key/length
        directory; their parity payloads differ by generator row.
        """
        directory: dict[int, dict] = {}
        for index, dump in parity_dumps.items():
            for snap in dump["records"]:
                entry = directory.setdefault(
                    snap["rank"],
                    {"keys": snap["keys"], "lengths": snap["lengths"], "parity": {}},
                )
                if entry["keys"] != snap["keys"]:  # pragma: no cover
                    raise RecoveryError(
                        f"parity directories disagree for rank {snap['rank']}"
                    )
                entry["parity"][index] = snap["parity"]
        return directory

    def _directory_from_data(self, data_dumps: dict[int, dict]) -> dict[int, dict]:
        """rank -> {keys, lengths, parity:{}} rebuilt from data dumps
        (used when only parity buckets were lost)."""
        m = self.coordinator.config.group_size
        directory: dict[int, dict] = {}
        for bucket, dump in data_dumps.items():
            pos = position_of(bucket, m)
            for key, rank, payload in dump["records"]:
                entry = directory.setdefault(
                    rank, {"keys": {}, "lengths": {}, "parity": {}}
                )
                entry["keys"][pos] = key
                entry["lengths"][pos] = len(payload)
        return directory

    def _rebuild(
        self,
        codec: RSCodec,
        m: int,
        directory: dict[int, dict],
        data_dumps: dict[int, dict],
        parity_dumps: dict[int, dict],
        lost_data: list[int],
        lost_parity: list[int],
        group: int,
    ) -> tuple[dict[int, dict], dict[int, list], int]:
        """Decode every affected record group; assemble spare contents.

        Ranks sharing a loss pattern — the same set of surviving
        codeword positions and the same set wanted back — share a decode
        matrix, so they are decoded together: each position's payloads
        stack into one ``(nranks, L)`` matrix and one
        :meth:`RSCodec.recover_stripes` kernel call rebuilds every rank
        of the batch at once.  Results are trimmed per rank back to the
        lengths the record-at-a-time path produces (bit-exact: zero
        padding to the batch stripe length is semantically free).
        """
        field = codec.field
        # Index survivor data records by rank and position.
        by_rank: dict[int, dict[int, bytes]] = {}
        for bucket, dump in data_dumps.items():
            pos = position_of(bucket, m)
            for key, rank, payload in dump["records"]:
                by_rank.setdefault(rank, {})[pos] = payload

        lost_positions_data = {position_of(b, m): b for b in lost_data}
        new_data: dict[int, dict] = {
            b: {"records": [], "max_rank": 0} for b in lost_data
        }
        new_parity: dict[int, list] = {i: [] for i in lost_parity}
        decoded = 0

        # ---- pass 1: assemble shares, batch ranks by loss pattern -----
        batches: dict[tuple, list[tuple[int, dict[int, bytes]]]] = {}
        for rank, entry in sorted(directory.items()):
            keys = entry["keys"]
            # Which codeword positions need rebuilding for this rank?
            lost_here = [
                pos for pos in lost_positions_data if pos in keys
            ]
            want = [*lost_here, *(m + i for i in lost_parity)]
            # Track the lost bucket's counter even when nothing decodes.
            for pos in lost_positions_data:
                if pos in keys:
                    bucket = lost_positions_data[pos]
                    new_data[bucket]["max_rank"] = max(
                        new_data[bucket]["max_rank"], rank
                    )
            if not want:
                continue

            shares: dict[int, bytes] = {}
            for pos in range(m):
                if pos in lost_positions_data:
                    continue
                if pos in keys:
                    payload = by_rank.get(rank, {}).get(pos)
                    if payload is None:  # pragma: no cover
                        raise RecoveryError(
                            f"survivor bucket at position {pos} lacks rank {rank}"
                        )
                    shares[pos] = payload
                else:
                    shares[pos] = b""  # known-empty slot: zero payload
            for index, parity in entry["parity"].items():
                shares[m + index] = parity

            signature = (tuple(sorted(shares)), tuple(want))
            batches.setdefault(signature, []).append((rank, shares))

        # ---- pass 2: one stacked decode per loss pattern --------------
        stats = getattr(self._net, "stats", None)
        tracer = self._net.tracer
        for (positions, want), members in batches.items():
            want = list(want)
            lost_here = [pos for pos in want if pos < m]
            ranks = [rank for rank, _ in members]
            # Logical stripe length of each rank (what the scalar path
            # would size its output to) and the common batch length.
            stripe_lengths = [
                field.symbol_length_for_bytes(
                    max(len(p) for p in shares.values())
                )
                for _, shares in members
            ]
            batch_length = max(stripe_lengths)
            stacked = {
                pos: field.stack_payloads(
                    [shares[pos] for _, shares in members], batch_length
                )
                for pos in positions
            }
            recovered = codec.recover_stripes(stacked, want)
            if stats is not None:
                # CPU model: rebuilding one position of one rank costs m
                # multiply-accumulates per stripe symbol, regardless of
                # how the work was dispatched.
                stats.record_symbols(
                    len(want) * m * sum(stripe_lengths)
                )

            for i, rank in enumerate(ranks):
                entry = directory[rank]
                keys, lengths = entry["keys"], entry["lengths"]
                if tracer is not None:
                    tracer.emit(
                        "recovery.rank",
                        group=group,
                        rank=rank,
                        rebuilt=list(want),
                        stripe_symbols=stripe_lengths[i],
                    )
                for pos in lost_here:
                    bucket = lost_positions_data[pos]
                    new_data[bucket]["records"].append(
                        (keys[pos], rank,
                         field.bytes_from_symbols(
                             recovered[pos][i], lengths[pos]
                         ))
                    )
                    decoded += 1
                for index in lost_parity:
                    new_parity[index].append(
                        {
                            "rank": rank,
                            "keys": dict(keys),
                            "lengths": dict(lengths),
                            "parity": field.bytes_from_symbols(
                                recovered[m + index][i][: stripe_lengths[i]]
                            ),
                        }
                    )
        for index in lost_parity:
            new_parity[index].sort(key=lambda snap: snap["rank"])
        for bucket in lost_data:
            new_data[bucket]["records"].sort(key=lambda rec: rec[1])
        return new_data, new_parity, decoded

    # ------------------------------------------------------------------
    def _install_data_spare(
        self, bucket: int, content: dict, parity_seq: int = 0
    ) -> None:
        coordinator = self.coordinator
        node_id = data_node(self._file_id, bucket)
        if coordinator.config.durability:
            coordinator.bump_epoch(node_id)
        self._net.unregister(node_id)
        level = coordinator.state.level_of(bucket)
        server = coordinator.make_server(bucket, level)
        self._net.register(server)
        used = sorted(rank for _, rank, _ in content["records"])
        counter = content["max_rank"]
        free = sorted(set(range(1, counter + 1)) - set(used))
        try:
            self._net.send(
                coordinator.node_id,
                node_id,
                "bucket.load",
                {
                    "records": content["records"],
                    "counter": counter,
                    "free_ranks": free,
                    "level": level,
                    "parity_seq": parity_seq,
                },
            )
        except NodeUnavailable:
            # A scheduled failure hit the spare on this very tick: it is
            # now just another unavailable bucket for the next sweep.
            pass

    def _install_parity_spare(
        self,
        group: int,
        index: int,
        records: list,
        expected_seqs: dict[int, int] | None = None,
    ) -> None:
        coordinator = self.coordinator
        node_id = parity_node(self._file_id, group, index)
        if coordinator.config.durability:
            coordinator.bump_epoch(node_id)
        self._net.unregister(node_id)
        server = coordinator.make_parity_server(group, index)
        self._net.register(server)
        try:
            self._net.send(
                coordinator.node_id,
                node_id,
                "parity.load",
                {"records": records, "expected_seqs": expected_seqs or {}},
            )
        except NodeUnavailable:
            # The spare crashed the instant it was installed; the next
            # probe round rebuilds it like any other loss.
            pass

    # ------------------------------------------------------------------
    # delta catch-up (durable restart rejoin)
    # ------------------------------------------------------------------
    def catch_up_data(self, bucket: int, payload: dict) -> bool:
        """Catch a cleanly-restarted data bucket up from its Δ tail.

        The bucket replayed its WAL to ``payload["seq"]`` and is fenced.
        The live parity buckets' per-position rings hold the Δs it
        issued past that prefix; the coordinator resolves them to final
        record states (payloads via record recovery — the parity symbols
        alone cannot be unfolded) and ships a ``catchup.load``.  Returns
        False when the evidence is insufficient — no reachable parity,
        tail evicted from every ring — and the caller must fall back to
        a full RS rebuild.  Repair traffic scales with the missed tail,
        not with the bucket (experiment E21's headline).
        """
        coordinator = self.coordinator
        m = coordinator.config.group_size
        group = group_of(bucket, m)
        if group in self._recovering_groups:
            return False  # the group is mid-rebuild higher up the stack
        pos = position_of(bucket, m)
        k = coordinator.group_level(group)
        node_id = data_node(self._file_id, bucket)
        disk_seq = payload["seq"]
        coord_id = coordinator.node_id
        net = self._net

        tails: dict[int, dict] = {}
        for index in range(k):
            pnode = parity_node(self._file_id, group, index)
            if not net.is_available(pnode):
                continue
            try:
                tails[index] = net.call(
                    coord_id, pnode, "delta.tail",
                    {"pos": pos, "after": disk_seq},
                )
            except NodeUnavailable:
                continue
        if k > 0 and not tails:
            # Without parity evidence the durable prefix cannot be
            # proven complete against what was acknowledged.
            return False

        live_max = max((t["live"] for t in tails.values()), default=disk_seq)
        ops: list[dict] = []
        if live_max > disk_seq:
            source = next(
                (t for t in tails.values()
                 if t["live"] == live_max and t["covered"]),
                None,
            )
            if source is None:
                return False  # too stale: every ring evicted the tail
            ops = source["ops"]

        # Per-key winners, in sequence order (a later Δ supersedes).
        final = {key: (action, rank) for _, action, key, rank in ops}
        deletes = sorted(
            key for key, (action, _) in final.items() if action == "delete"
        )
        items: list[tuple[int, int, bytes]] = []
        for key in sorted(final):
            action, rank = final[key]
            if action == "delete":
                continue
            found, value = self.recover_record(key)
            if not found:  # pragma: no cover - directory is authoritative
                return False
            items.append((key, rank, value))

        min_live = min((t["live"] for t in tails.values()), default=disk_seq)
        net.call(
            coord_id, node_id, "catchup.load",
            {
                "set": items,
                "delete": deletes,
                "parity_seq": max(live_max, disk_seq),
                "resend_after": min_live if min_live < disk_seq else None,
            },
        )

        # Post-verify every live parity channel against the final
        # sequence: the resend above closes lags it can reach back to
        # (``floor``); anything still gapped would otherwise stay
        # silently behind until the next Δ arrives — or forever, under
        # quiescence — so it is rebuilt now.
        target = max(live_max, disk_seq)
        lagging = []
        for index in range(k):
            pnode = parity_node(self._file_id, group, index)
            if not net.is_available(pnode):
                continue  # down: the self-healing probe loop owns it
            try:
                check = net.call(
                    coord_id, pnode, "delta.tail",
                    {"pos": pos, "after": target},
                )
            except NodeUnavailable:
                continue
            if check["live"] < target:
                lagging.append(index)
        if lagging:
            self.recover_nodes(
                [parity_node(self._file_id, group, i) for i in lagging],
                best_effort=True,
            )
        return True

    def catch_up_parity(self, group: int, index: int, payload: dict) -> bool:
        """Catch a cleanly-restarted parity bucket up from member WALs.

        Each group member returns its WAL tail past the parity's
        restored channel expectation; the ops (original Δ payloads, in
        per-channel sequence order) are replayed through the normal
        channel check.  Returns False — full-rebuild fallback — when a
        member is unreachable, a tail is no longer covered by the
        member's history ring, or a member's live sequence is *behind*
        the parity's expectation (the member lost a WAL tail this
        parity had applied: the channel's numbering diverged and
        re-encoding from current data is the only safe repair).
        """
        coordinator = self.coordinator
        if group in self._recovering_groups:
            return False
        m = coordinator.config.group_size
        node_id = parity_node(self._file_id, group, index)
        expected = {
            int(p): s for p, s in payload.get("expected_seqs", {}).items()
        }
        coord_id = coordinator.node_id
        net = self._net

        ops: list[dict] = []
        for bucket in group_buckets(
            group, m, coordinator.state.bucket_count
        ):
            pos = position_of(bucket, m)
            member = data_node(self._file_id, bucket)
            after = expected.get(pos, 1) - 1
            try:
                tail = net.call(
                    coord_id, member, "wal.tail", {"after": after}
                )
            except NodeUnavailable:
                return False  # a member is down: its tail is unknowable
            if tail["live"] < after:
                return False  # sequence divergence (see docstring)
            if not tail["covered"]:
                return False
            ops.extend(tail["ops"])

        reply = net.call(coord_id, node_id, "catchup.parity", {"ops": ops})
        return bool(reply["ok"])

    # ------------------------------------------------------------------
    # record recovery (degraded reads)
    # ------------------------------------------------------------------
    def recover_record(self, key: int) -> tuple[bool, bytes | None]:
        """Serve one key whose data bucket is unavailable.

        Returns ``(found, payload)``; ``(False, None)`` is *certain* —
        the parity directory proves the key was never stored.
        """
        mutant_cache = None
        if "stale_degraded_read" in mutants.ACTIVE:
            # Validation mutant: memoize the first reconstruction per
            # key and serve it forever — stale once the record changes
            # between two degraded reads.  The linearizability harness
            # must catch this (tests/check/test_mutants.py).
            mutant_cache = getattr(self, "_stale_read_cache", None)
            if mutant_cache is None:
                mutant_cache = self._stale_read_cache = {}
            if key in mutant_cache:
                self.degraded_reads_served += 1
                return mutant_cache[key]
        coordinator = self.coordinator
        cfg = coordinator.config
        m = cfg.group_size
        bucket = coordinator.state.address(key)
        group = group_of(bucket, m)
        pos = position_of(bucket, m)
        k = coordinator.group_level(group)
        if k == 0:
            raise RecoveryError(
                f"bucket {bucket} is unavailable and group {group} has no parity"
            )
        codec = self._codec(group)
        coord_id = coordinator.node_id
        if cfg.parity_batch_size > 1:
            # Lazy parity: a survivor's queued Δs are in its payloads
            # but not yet in the parity record read below — flush them
            # first, or the decode mixes two states of the record group.
            members = group_buckets(group, m, coordinator.state.bucket_count)
            for member in members:
                if member == bucket:
                    continue
                try:
                    self._net.call(
                        coord_id, data_node(self._file_id, member),
                        "parity.flush",
                    )
                except NodeUnavailable:
                    pass  # lost too: record.fetch below finds it out

        alive_parity = [
            i for i in range(k)
            if self._net.is_available(parity_node(self._file_id, group, i))
        ]
        if not alive_parity:
            raise RecoveryError(f"group {group}: no parity bucket available")

        first = alive_parity[0]
        located = self._net.call(
            coord_id, parity_node(self._file_id, group, first),
            "parity.locate", {"key": key},
        )
        if located is None:
            if mutant_cache is not None:
                mutant_cache[key] = (False, None)
            return False, None
        rank = located["rank"]
        keys, lengths = located["keys"], located["lengths"]

        shares: dict[int, bytes] = {m + first: located["parity"]}
        lost = {pos}
        for p in range(m):
            if p == pos:
                continue
            if p not in keys:
                shares[p] = b""
                continue
            member = data_node(self._file_id, group * m + p)
            try:
                reply = self._net.call(
                    coord_id, member, "record.fetch", {"key": keys[p]}
                )
            except NodeUnavailable:
                lost.add(p)
                continue
            if not reply["found"]:  # pragma: no cover - directory is authoritative
                raise RecoveryError(
                    f"directory lists key {keys[p]} at bucket {group * m + p} "
                    "but the bucket denies it"
                )
            shares[p] = reply["payload"]

        for index in alive_parity[1:]:
            if len(shares) >= m:
                break
            snap = self._net.call(
                coord_id, parity_node(self._file_id, group, index),
                "parity.rank", {"rank": rank},
            )
            if snap is not None:
                shares[m + index] = snap["parity"]

        if len(shares) < m:
            raise RecoveryError(
                f"record group ({group}, {rank}): only {len(shares)} shares "
                f"survive, {m} needed"
            )
        recovered = codec.recover(
            shares, sorted(lost), payload_lengths={pos: lengths[pos]}
        )
        self.records_reconstructed += 1
        self.degraded_reads_served += 1
        if mutant_cache is not None:
            mutant_cache[key] = (True, recovered[pos])
        return True, recovered[pos]

    # ------------------------------------------------------------------
    # integrity auditing via algebraic signatures
    # ------------------------------------------------------------------
    def audit_group(self, group: int, signature_count: int = 2) -> dict:
        """Scrub one bucket group for silent corruption.

        Collects algebraic signatures — constant bytes per record — from
        every member, then checks the GF-linear relation
        ``sig(parity_i) = XOR_j λ_ij sig(data_j)`` per record group.
        With k >= 2 parity rows the mismatch syndromes identify *which*
        column is corrupt (the error signature e must satisfy
        ``s_i = λ_ij · e`` for every row i); with k = 1 only the fact of
        corruption per rank is known.

        Returns ``{"clean", "mismatched_ranks", "suspects"}`` where
        suspects maps rank -> codeword position (data pos, or m+i for
        parity) when identified.
        """
        coordinator = self.coordinator
        m = coordinator.config.group_size
        k = coordinator.group_level(group)
        field = coordinator.field
        coord_id = coordinator.node_id
        from repro.gf.signatures import combine

        buckets = group_buckets(group, m, coordinator.state.bucket_count)
        data_sigs: dict[int, dict[int, tuple]] = {}
        for bucket in buckets:
            dump = self._net.call(
                coord_id, data_node(self._file_id, bucket),
                "signature.dump", {"count": signature_count},
            )
            data_sigs[dump["position"]] = dump["ranks"]
        parity_sigs: dict[int, dict[int, tuple]] = {}
        for index in range(k):
            dump = self._net.call(
                coord_id, parity_node(self._file_id, group, index),
                "signature.dump", {"count": signature_count},
            )
            parity_sigs[index] = dump["ranks"]

        rows = {i: coordinator.parity_row(i) for i in range(k)}
        all_ranks = set()
        for sigs in parity_sigs.values():
            all_ranks |= set(sigs)
        for sigs in data_sigs.values():
            all_ranks |= set(sigs)

        mismatched: list[int] = []
        suspects: dict[int, int | None] = {}
        for rank in sorted(all_ranks):
            members = {
                pos: sigs[rank]
                for pos, sigs in data_sigs.items() if rank in sigs
            }
            # Syndromes per parity row and signature symbol.
            syndromes: dict[int, list[int]] = {}
            for index in range(k):
                expected = [
                    combine(
                        field,
                        [rows[index][pos] for pos in members],
                        [sig[s] for sig in members.values()],
                    )
                    for s in range(signature_count)
                ]
                actual = list(
                    parity_sigs[index].get(rank, (0,) * signature_count)
                )
                syndromes[index] = [e ^ a for e, a in zip(expected, actual)]
            if all(all(s == 0 for s in v) for v in syndromes.values()):
                continue
            mismatched.append(rank)
            suspects[rank] = self._identify_corruption(
                field, rows, syndromes, members, m, k
            )
        return {
            "group": group,
            "clean": not mismatched,
            "mismatched_ranks": mismatched,
            "suspects": suspects,
        }

    @staticmethod
    def _identify_corruption(field, rows, syndromes, members, m, k):
        """Single-column corruption localization from syndromes.

        A corrupted data column j gives s_i = λ_ij · e for every parity
        row i; a corrupted parity row i0 gives s_i = 0 for i != i0.
        Needs k >= 2 to discriminate; returns the codeword position or
        None when ambiguous.
        """
        candidates = []
        if k >= 2:
            # Parity-column candidates.
            dirty_rows = [i for i, v in syndromes.items() if any(v)]
            if len(dirty_rows) == 1:
                candidates.append(m + dirty_rows[0])
            else:
                # Data-column candidates: consistent error signature.
                for pos in members:
                    errors = set()
                    ok = True
                    for i, vector in syndromes.items():
                        coefficient = rows[i][pos]
                        err = tuple(
                            field.div(s, coefficient) for s in vector
                        )
                        errors.add(err)
                    if len(errors) == 1 and any(next(iter(errors))):
                        candidates.append(pos)
        return candidates[0] if len(candidates) == 1 else None

    def audit_file(self, signature_count: int = 2) -> dict:
        """Scrub every group; returns {"clean", "reports"}."""
        reports = [
            self.audit_group(group, signature_count)
            for group in sorted(self.coordinator.group_levels)
        ]
        return {
            "clean": all(r["clean"] for r in reports),
            "reports": [r for r in reports if not r["clean"]],
        }

    def repair_corruption(self, group: int, suspect_position: int) -> dict:
        """Rebuild a corrupted column from the clean remainder.

        The suspect is treated as a loss: its current (corrupt) content
        is excluded and re-decoded from the other members — the scrub-
        and-repair loop of the signature literature.
        """
        m = self.coordinator.config.group_size
        if suspect_position < m:
            bucket = group * m + suspect_position
            return self.recover_group(group, [bucket], [])
        return self.recover_group(group, [], [suspect_position - m])

    # ------------------------------------------------------------------
    # file-state recovery (A6)
    # ------------------------------------------------------------------
    def recover_file_state(self) -> tuple[int, int]:
        """Reconstruct (n, i) from the surviving data buckets' levels.

        Best-effort by design: buckets that do not answer the status
        probe are tolerated — their levels are filled in from the newest
        coordinator checkpoint held in the parity buckets' headers (the
        "parity directory dump" of the SDDS line).  Only when the
        survivors plus the parity evidence are below what A6 needs does
        this raise a :class:`RecoveryError` naming the missing evidence.
        """
        coordinator = self.coordinator
        targets = {
            b: data_node(self._file_id, b)
            for b in coordinator.state.buckets()
        }
        replies, unavailable = self._net.multicast(
            coordinator.node_id, list(targets.values()), "status"
        )
        levels = {r["bucket"]: r["level"] for r in replies.values()}
        missing = sorted(b for b in targets if b not in levels)
        if missing:
            checkpoint = self._best_parity_checkpoint()
            if checkpoint is not None:
                from repro.lh.state import FileState

                ghost = FileState(
                    n0=coordinator.state.n0,
                    n=checkpoint["n"],
                    i=checkpoint["i"],
                )
                for bucket in missing:
                    if bucket < ghost.bucket_count:
                        levels.setdefault(bucket, ghost.level_of(bucket))
        if not levels:
            raise RecoveryError(
                "cannot reconstruct (n, i): no data bucket answered the "
                "status probe and no parity checkpoint is available; "
                f"missing evidence: data buckets {sorted(targets)} "
                f"(unavailable: {sorted(unavailable)})"
            )
        return reconstruct_state(levels, coordinator.state.n0)

    def _best_parity_checkpoint(self) -> dict | None:
        """Newest coordinator checkpoint any reachable parity bucket
        holds (None when nothing is reachable or nothing was stored)."""
        coordinator = self.coordinator
        best: dict | None = None
        for group, level in sorted(coordinator.group_levels.items()):
            for index in range(level):
                node_id = parity_node(self._file_id, group, index)
                try:
                    reply = self._net.call(
                        coordinator.node_id, node_id, "coord.checkpoint.fetch"
                    )
                except NodeUnavailable:
                    continue
                if reply is not None and (
                    best is None or reply["lsn"] > best["lsn"]
                ):
                    best = dict(reply)
        return best
