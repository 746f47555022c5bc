"""The LH*RS parity bucket server.

Parity bucket i of bucket group g holds one :class:`ParityRecord` per
record group (rank) of g: the fold of every member's payload scaled by
this bucket's generator-row coefficient for the member's position.

The coefficients are handed in by the coordinator at creation.  With the
normalized Cauchy generator the rows are *nested*: row i is the same for
every availability level k > i, so raising a group's k never touches
existing parity buckets — the property scalable availability leans on.
Row 0 is all ones, making parity bucket 0 a pure XOR site.

Δs travel as columnar *Δ-blocks* — ``{block: insert|update|delete,
pos, seq0, keys, ranks, deltas, lengths}``, one group position, distinct
ranks — and every path that changes parity (``parity.update``,
``parity.batch``, ``catchup.parity``, WAL replay) goes through one fold
(:meth:`ParityServer._fold`): scale the stacked Δs once, scatter them
into the bucket's :class:`~repro.core.stripe_store.StripeStore` matrix
in one pass, update the directories.

Idempotence: a sequenced block carries the sending data bucket's
monotonic operation sequence numbers ``seq0`` .. ``seq0`` + n - 1, and
this bucket tracks the next expected number per group position.  Δs
below the expectation are retransmissions and are *skipped* — folding
them again would silently corrupt the parity, since the fold is its own
inverse in GF(2^w).  A block starting above it proves this bucket missed
traffic (a dropped message): it reports itself stale to the coordinator,
which rebuilds it from the group's data.  Unsequenced blocks
(``seq0`` None, coordinator encode batches) apply unconditionally.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.check import mutants
from repro.core.durable import DurableBucket
from repro.core.records import ParityRecord
from repro.core.stripe_store import StripeStore
from repro.gf.field import GF
from repro.sim.messages import Message
from repro.sim.network import NodeUnavailable, UnknownNode

#: the actions a Δ-block may carry
BLOCK_ACTIONS = ("insert", "update", "delete")


class StoredParityRecord(ParityRecord):
    """A :class:`ParityRecord` whose symbols live in a StripeStore row.

    ``symbols`` is rendered from the store on demand: folds write
    through the store directly, so a record never holds a view that a
    store reallocation could invalidate.
    """

    def __init__(self, rank: int, store: StripeStore):
        self._store = store
        self.rank = rank
        self.keys = {}
        self.lengths = {}

    @property
    def symbols(self) -> np.ndarray:
        store = self._store
        row = store._row_of.get(self.rank)
        if row is None:
            return np.zeros(0, dtype=store.field.symbol_dtype)
        return store.matrix[row, : store._length[self.rank]]


class ParityServer(DurableBucket):
    """One parity bucket of one bucket group."""

    KIND = "parity"
    #: everything that folds Δs or serves content; catch-up traffic
    #: (catchup.parity, delta.tail), channel resets and status probes
    #: stay answerable
    FENCED_KINDS = frozenset(
        {
            "parity.update",
            "parity.batch",
            "parity.locate",
            "parity.rank",
            "parity.dump",
            "signature.dump",
        }
    )

    def __init__(
        self,
        node_id: str,
        file_id: str,
        group: int,
        index: int,
        row: list[int],
        field: GF,
    ):
        super().__init__(node_id)
        self.file_id = file_id
        self.group = group
        self.index = index
        self.row = list(row)
        self.field = field
        self.records: dict[int, ParityRecord] = {}
        #: every record's parity symbols, one row per rank
        self._store = StripeStore(field)
        #: next expected Δ sequence number per group position (default 1)
        self._expected_seq: dict[int, int] = {}
        #: retransmissions skipped / gaps detected (observability)
        self.duplicates_skipped = 0
        self.gaps_detected = 0
        #: sticky gap marker: this bucket's content is behind its data.
        #: Surfaced in status replies so the probe loop rebuilds the
        #: bucket even when the report.stale was lost (coordinator down).
        self.stale = False
        #: newest coordinator state checkpoint (HA header; see
        #: RSCoordinator.checkpoint_to_parity)
        self.coord_checkpoint: dict | None = None
        #: §4.1's in-bucket secondary index: member key -> (rank, pos).
        #: Makes record recovery's locate step an O(1) lookup instead of
        #: a scan over every parity record ("shortens the bucket search
        #: time drastically" at negligible storage, as the paper notes);
        #: carrying the position too removes the per-locate scan over
        #: the record's key directory.
        self._key_index: dict[int, tuple[int, int]] = {}
        #: GF multiply-accumulate symbol operations performed (CPU model)
        self.symbol_ops = 0
        #: how many of those folds were coefficient-1 (pure XOR)
        self.xor_folds = 0
        self.general_folds = 0
        #: per-position ring of (seq, action, key, rank) descriptors of
        #: applied Δs — serves a restarted data bucket's catch-up ask
        #: (durability on only)
        self._delta_log: dict[int, deque] | None = None
        self._delta_log_cap = 0

    # ------------------------------------------------------------------
    # the Δ-block protocol
    # ------------------------------------------------------------------
    def _validate(self, block: dict) -> None:
        """Reject a malformed Δ-block before it touches any state.

        Raising after a partial fold would leave corrupted parity behind
        an exception the sender may retry past.  Ranks must be distinct:
        the store's fancy-index scatter would silently drop all but one
        fold of a repeated rank.
        """
        action = block["block"]
        if action not in BLOCK_ACTIONS:
            raise ValueError(f"unknown parity op {action!r}")
        pos = block["pos"]
        if not 0 <= pos < len(self.row):
            raise ValueError(
                f"group position {pos} outside 0..{len(self.row) - 1}"
            )
        n = len(block["ranks"])
        if not len(block["keys"]) == len(block["deltas"]) == len(
            block["lengths"]
        ) == n:
            raise ValueError("Δ-block columns differ in length")
        if n > 1 and len(set(block["ranks"])) != n:
            raise ValueError("Δ-block repeats a rank")

    def _channel_check(self, block: dict) -> int | None:
        """Validate one Δ-block and classify it against its channel.

        A sequenced block covers ``seq0`` .. ``seq0`` + n - 1.  Returns
        how many leading Δs are retransmissions (below the expectation)
        to skip — all n for a pure duplicate — and advances the channel
        past the rest, which the caller must then fold.  ``None`` means
        the block starts above the expectation: a prior Δ never arrived,
        this bucket's content is behind its data and must be rebuilt, so
        nothing is applied.  Unsequenced blocks (``seq0`` None, the
        coordinator's encode batches) always apply and leave the channel
        untouched.  One ``parity.delta`` trace event per sequenced Δ.
        """
        self._validate(block)
        seq0 = block["seq0"]
        if seq0 is None:
            return 0
        pos = block["pos"]
        n = len(block["ranks"])
        expected = self._expected_seq.get(pos, 1)
        if seq0 > expected:
            self.gaps_detected += 1
            self.stale = True
            skip = None
        else:
            skip = min(expected - seq0, n)
            self.duplicates_skipped += skip
            if skip < n:
                self._expected_seq[pos] = seq0 + n
        tracer = self.network.tracer if self.network is not None else None
        if tracer is not None:
            if skip is None:
                verdicts = [(seq0, expected, "stale")]
            else:
                verdicts = [
                    (seq0 + i, expected, "duplicate") for i in range(skip)
                ] + [(seq, seq, "apply") for seq in range(seq0 + skip, seq0 + n)]
            for seq, expect, verdict in verdicts:
                tracer.emit(
                    "parity.delta", node=self.node_id, pos=pos, seq=seq,
                    expected=expect, verdict=verdict, op=block["block"],
                )
        return skip

    def _fold(self, block: dict, skip: int = 0, log: bool = True) -> int:
        """Fold a channel-checked Δ-block past its first ``skip`` Δs.

        The one parity fold: scale the stacked Δs by this bucket's
        coefficient for the block's position (the all-ones first row
        folds by plain XOR), scatter them into the store in one pass,
        then update the directories.  A delete that empties a record
        group drops it — the accumulated Δs cancel exactly.  With
        durability on, sequenced Δs join the catch-up ring and (``log``)
        the applied part of the block is written to the WAL.  Returns
        how many Δs were folded.
        """
        action = block["block"]
        pos = block["pos"]
        keys = block["keys"]
        ranks = block["ranks"]
        deltas = block["deltas"]
        lengths = block["lengths"]
        if skip:
            keys, ranks = keys[skip:], ranks[skip:]
            deltas, lengths = deltas[skip:], lengths[skip:]
        n = len(ranks)
        if not n:
            return 0
        field = self.field
        if field.width == 8:
            needs = [len(d) for d in deltas]
        else:
            needs = [field.symbol_length_for_bytes(len(d)) for d in deltas]
        stacked = field.stack_payloads(deltas, max(needs))
        coefficient = self.row[pos]
        if coefficient == 1:
            scaled = stacked  # rows are only read below; alias is safe
        else:
            scaled = field.mul_matrix(stacked, coefficient)
        store, records = self._store, self.records
        try:
            store.scatter_xor(ranks, needs, scaled)
        except BaseException:
            # Crash between row allocation and the directory update:
            # roll fresh rows back so parity.locate / parity.dump never
            # see a half-born record.
            for rank in ranks:
                if rank not in records and rank in store:
                    store.release(rank)
            raise
        self.symbol_ops += sum(needs)
        if coefficient == 1:
            self.xor_folds += n
        else:
            self.general_folds += n
        key_index = self._key_index
        for i, rank in enumerate(ranks):
            record = records.get(rank)
            if record is None:
                record = records[rank] = StoredParityRecord(rank, store)
            if action == "insert":
                record.keys[pos] = keys[i]
                record.lengths[pos] = lengths[i]
                key_index[keys[i]] = (rank, pos)
            elif action == "update":
                record.lengths[pos] = lengths[i]
            else:  # delete
                record.keys.pop(pos, None)
                record.lengths.pop(pos, None)
                key_index.pop(keys[i], None)
                if "double_apply_delete" in mutants.ACTIVE and record.keys:
                    # Validation mutant: fold the delete Δ a second time.
                    # GF(2) folding is self-inverse, so the second fold
                    # re-adds the deleted payload into the parity symbols,
                    # corrupting every later reconstruction of the rank's
                    # surviving members (tests/check/test_mutants.py).
                    store.scatter_xor([rank], [needs[i]], scaled[i:i + 1])
                if not record.keys:
                    del records[rank]
                    store.release(rank)
        if self._wal is not None:
            seq0 = block["seq0"]
            if seq0 is not None:
                seq0 += skip
                self._delta_log.setdefault(
                    pos, deque(maxlen=self._delta_log_cap)
                ).extend(zip(range(seq0, seq0 + n), [action] * n, keys, ranks))
            if log:
                self._log_entry(block if not skip else {
                    "block": action, "pos": pos, "seq0": seq0, "keys": keys,
                    "ranks": ranks, "deltas": deltas, "lengths": lengths,
                })
        return n

    def _report_stale(self) -> None:
        """Tell the coordinator this bucket missed Δ traffic (rebuild me).

        A down coordinator is tolerated: the staleness stays in
        :attr:`stale` and the next probe round (post-takeover) sweeps
        it up from the status reply instead.
        """
        try:
            self.send(
                f"{self.file_id}.coord", "report.stale", {"node": self.node_id}
            )
        except (NodeUnavailable, UnknownNode):
            pass

    # ------------------------------------------------------------------
    # coordinator-state checkpoints (HA headers)
    # ------------------------------------------------------------------
    def handle_coord_checkpoint(self, message: Message) -> None:
        """Store the coordinator's state snapshot (newest LSN wins)."""
        checkpoint = message.payload
        if (
            self.coord_checkpoint is None
            or checkpoint["lsn"] >= self.coord_checkpoint["lsn"]
        ):
            self.coord_checkpoint = dict(checkpoint)

    def handle_coord_checkpoint_fetch(self, message: Message) -> dict | None:
        """Return the stored coordinator checkpoint (None = never saw one)."""
        if self.coord_checkpoint is None:
            return None
        return dict(self.coord_checkpoint)

    def handle_parity_update(self, message: Message) -> dict:
        """One Δ-block from a data bucket (a scalar op's block of one).

        The return value is the ack in ``parity_ack`` mode; plain sends
        discard it.
        """
        block = message.payload
        skip = self._channel_check(block)
        if skip is None:
            self._report_stale()
            verdict = "stale"
        elif self._fold(block, skip):
            return {"status": "applied"}
        else:
            verdict = "duplicate"
        return {
            "status": verdict,
            "expected": self._expected_seq.get(block["pos"], 1),
        }

    def handle_parity_batch(self, message: Message) -> dict:
        """A list of Δ-blocks (client batches, splits, merges, encodes).

        Blocks in one batch share a channel and are contiguous, so the
        first stale block means every later one is too — stop and
        report once.  A trailing ``expected_seqs`` map (coordinator
        encode paths) re-bases the channels afterwards; that is a
        full-state event, so it is checkpointed rather than logged.
        """
        blocks = message.payload["ops"]
        tracer = self.network.tracer if self.network is not None else None
        if tracer is not None:
            tracer.emit(
                "parity.batch", node=self.node_id, ops=len(blocks)
            )
        expected = message.payload.get("expected_seqs")
        applied = 0
        for block in blocks:
            skip = self._channel_check(block)
            if skip is None:
                self._report_stale()
                return {"status": "stale", "applied": applied}
            applied += self._fold(block, skip, log=expected is None)
        if expected is not None:
            self._expected_seq.update(
                {int(pos): seq for pos, seq in expected.items()}
            )
            if self._wal is not None:
                self._checkpoint_due = True
        return {"status": "applied", "applied": applied}

    def handle_parity_reset(self, message: Message) -> None:
        """Close the Δ-channels of retired group positions.

        Sent by the coordinator when a data bucket dissolves in a merge
        while its group lives on.  A later split may re-create the
        bucket as a *fresh* server whose sequence counter restarts at
        zero; without the reset its Δs would arrive below the old
        channel expectation and be skipped as retransmissions.
        """
        positions = message.payload["positions"]
        tracer = self.network.tracer if self.network is not None else None
        if tracer is not None:
            tracer.emit(
                "parity.reset", node=self.node_id, positions=list(positions)
            )
        for pos in positions:
            self._expected_seq.pop(pos, None)
        if self._wal is not None:
            for pos in positions:
                self._delta_log.pop(pos, None)
            self._log_entry({"ctl": "reset", "positions": list(positions)})

    # ------------------------------------------------------------------
    # queries used by recovery
    # ------------------------------------------------------------------
    def image(self) -> dict:
        """The bucket's content — what a dump ships, a load installs, a
        checkpoint stores and a snapshot keeps: every record (rendered
        in one contiguous bytes pass) and the Δ-channel expectations."""
        payloads = self._store.row_bytes()
        return {
            "records": [
                {
                    "rank": rank,
                    "keys": dict(record.keys),
                    "lengths": dict(record.lengths),
                    "parity": payloads.get(rank, b""),
                }
                for rank, record in self.records.items()
            ],
            "expected_seqs": dict(self._expected_seq),
        }

    def handle_parity_dump(self, message: Message) -> dict:
        """Everything this bucket knows (bucket recovery reads this)."""
        return {"group": self.group, "index": self.index, **self.image()}

    def handle_parity_locate(self, message: Message) -> dict | None:
        """The record group containing ``key``, or None (record recovery).

        A None answer from a parity bucket is authoritative: every stored
        record of the group has an entry in every parity bucket, so the
        searched key does not exist and the key search can terminate
        *unsuccessfully with certainty* even while data buckets are down.
        """
        key = message.payload["key"]
        entry = self._key_index.get(key)
        if entry is None:
            return None
        rank, pos = entry
        record = self.records[rank]
        snap = record.snapshot(self.field)
        snap["pos"] = pos
        return snap

    def handle_parity_rank(self, message: Message) -> dict | None:
        """Snapshot of one rank's parity record (or None)."""
        record = self.records.get(message.payload["rank"])
        return record.snapshot(self.field) if record else None

    def load_image(self, image: dict) -> None:
        """Replace this bucket's content with ``image``."""
        snaps = image["records"]
        self.records = {}
        self._store = StripeStore(self.field)
        for snap in snaps:
            record = StoredParityRecord(snap["rank"], self._store)
            record.keys = dict(snap["keys"])
            record.lengths = dict(snap["lengths"])
            self.records[snap["rank"]] = record
        self._store.bulk_load(
            [(snap["rank"], snap["parity"]) for snap in snaps]
        )
        self._key_index = {
            key: (rank, pos)
            for rank, record in self.records.items()
            for pos, key in record.keys.items()
        }
        self._expected_seq = {
            int(pos): seq
            for pos, seq in image.get("expected_seqs", {}).items()
        }

    def handle_parity_load(self, message: Message) -> None:
        """Bulk-load recovered content into a fresh (spare) parity bucket.

        A rebuilt spare is encoded from the group's *current* data, so
        every Δ the senders have issued is already reflected; adopting
        their counters makes any in-flight retransmission a duplicate.
        """
        self.load_image(message.payload)
        self.stale = False
        if self._wal is not None:
            # A rebuilt image is the new durable baseline; whatever the
            # disk held belonged to another life.
            self._delta_log.clear()
            self.checkpoint_now()

    def handle_signature_dump(self, message: Message) -> dict:
        """Algebraic signatures of every parity record, keyed by rank.

        The whole bucket is one stacked matrix, so the signatures come
        out of one vectorized pass per signature symbol (zero padding
        contributes nothing to a signature).
        """
        from repro.gf.signatures import signature_matrix

        count = message.payload.get("count", 2)
        ranks, matrix = self._store.stacked()
        vectors = signature_matrix(self.field, matrix, count)
        return {
            "index": self.index,
            "ranks": dict(zip(ranks, vectors)),
        }

    def handle_status(self, message: Message) -> dict:
        status = {
            "group": self.group,
            "index": self.index,
            "records": len(self.records),
            "parity_bytes": self._store.nbytes(),
            "stale": self.stale,
        }
        if self._wal is not None:
            status.update(fenced=self.fenced, epoch=self.epoch)
        return status

    # ------------------------------------------------------------------
    # durable-plane hooks (core/durable.py)
    # ------------------------------------------------------------------
    def _init_history(self, capacity: int) -> None:
        self._delta_log = {}
        self._delta_log_cap = capacity

    def _checkpoint_extras(self) -> dict:
        return {
            "stale": self.stale,
            "coord": self.coord_checkpoint,
            "delta_log": {
                pos: list(ring) for pos, ring in self._delta_log.items()
            },
        }

    def _lose_volatile(self) -> None:
        self.load_image({"records": [], "expected_seqs": {}})
        self.stale = False
        self.coord_checkpoint = None
        self._delta_log = {}

    def _load_extras(self, state: dict) -> None:
        self.stale = bool(state["stale"])
        self.coord_checkpoint = state["coord"]
        self._delta_log = {
            int(pos): deque(
                (tuple(item) for item in ring), maxlen=self._delta_log_cap
            )
            for pos, ring in state["delta_log"].items()
        }

    def _restart_fields(self) -> dict:
        return {"bucket": self.index}

    def _rejoin_fields(self, clean: bool) -> dict:
        return {"group": self.group, "index": self.index,
                "expected_seqs": dict(self._expected_seq),
                "clean": clean and not self.stale}

    # -- WAL replay ----------------------------------------------------
    def _replay_entry(self, frame: dict) -> None:
        """Re-fold one logged block without a channel check (the live
        path already classified it as applied) but with the same channel
        advancement, so replayed state matches pre-crash state."""
        if "ctl" in frame:
            if frame["ctl"] == "reset":
                for pos in frame["positions"]:
                    self._expected_seq.pop(pos, None)
                    self._delta_log.pop(pos, None)
            return
        if frame["seq0"] is not None:
            self._expected_seq[frame["pos"]] = (
                frame["seq0"] + len(frame["ranks"])
            )
        self._fold(frame, log=False)

    # -- serving catch-up ----------------------------------------------
    def handle_delta_tail(self, message: Message) -> dict:
        """A restarted data bucket asks which Δs it issued past its
        durable prefix: ``(seq, action, key, rank)`` descriptors from
        the per-position ring.  The coordinator resolves these to final
        record states (payloads come from record recovery, not from
        parity symbols).  ``covered`` is False when the ring no longer
        reaches back to ``after`` + 1.
        """
        pos = message.payload["pos"]
        after = message.payload["after"]
        live = self._expected_seq.get(pos, 1) - 1
        ops: list[tuple] = []
        covered = True
        if after < live:
            ring = (self._delta_log or {}).get(pos)
            next_needed = after + 1
            if ring is None:
                covered = False
            else:
                for seq, action, key, rank in ring:
                    if seq < next_needed:
                        continue
                    if seq > next_needed:
                        covered = False
                        break
                    ops.append((seq, action, key, rank))
                    next_needed += 1
                covered = covered and next_needed > live
        return {"covered": covered, "live": live, "ops": ops}

    # -- receiving catch-up --------------------------------------------
    def handle_catchup_parity(self, message: Message) -> dict:
        """Apply the Δs this bucket missed while down, then unfence.

        ``ops`` is each group member's WAL tail past our channel
        expectation (Δ-blocks, in sequence order).  Everything runs
        through the normal channel check, so overlap with what we
        already hold dedups per Δ; a gap (``stale`` verdict) means the
        coordinator's coverage check was defeated by a concurrent
        channel advance — report failure so it falls back to a full
        rebuild.  The checkpoint below makes the result durable.
        """
        applied = 0
        for block in message.payload["ops"]:
            skip = self._channel_check(block)
            if skip is None:
                return {"ok": False, "applied": applied}
            applied += self._fold(block, skip, log=False)
        self.stale = False
        self._finish_catchup(
            "catchup.parity", applied, group=self.group, index=self.index,
            applied=applied,
        )
        return {"ok": True, "applied": applied}
