"""The LH*RS data bucket server.

Extends the LH* data server with the paper's high-availability duties:

* every accepted record gets a **rank** from the bucket's insert counter
  (freed ranks are reused, keeping record groups dense — the §4.3-style
  enhancement, done locally);
* every mutation ships a **Δ-record** to each parity bucket of the
  bucket group (1 + k messages per insert/update/delete);
* every Δ travels in a columnar **Δ-block** (:meth:`RSDataServer.
  _parity_block`): a scalar op sends a block of one, a vectorized batch
  run or a structural change (split, merge, bulk load, compaction) one
  block per action — on the wire, in the WAL, in the catch-up history
  ring and in the lazy/coalesced parity queue alike;
* a **split** removes the movers from this group's record groups and the
  target re-inserts them into its own — record group membership always
  follows the record's *current* bucket, so any two members of a record
  group are in distinct buckets of one group by construction.  The
  split's parity traffic is batched: one message per affected parity
  bucket instead of one per record (the paper's bulk-transfer note).
"""

from __future__ import annotations

import heapq
import zlib
from collections import deque
from contextlib import contextmanager
from typing import Any

import numpy as np

from repro.check import mutants
from repro.core.durable import DurableBucket
from repro.core.group import data_node, group_of, position_of
from repro.lh import addressing
from repro.sdds.server import DataServer
from repro.sim.messages import HEADER_BYTES, Message
from repro.sim.network import DeliveryFault, NodeUnavailable, UnknownNode
from repro.rs.encoder import delta_payload


def block_size(block: dict) -> int:
    """Wire size of one Δ-block, arithmetically.

    34 bytes of column names, the action, the position, ``seq0`` (8
    bytes, or nothing when unsequenced), three 8-byte ints per Δ and the
    Δ bytes — exactly what :func:`~repro.sim.messages.estimate_size`
    would walk to, without the walk.  ``tests/core/test_batch_ops.py``
    pins the equality.
    """
    return (
        42 + len(block["block"]) + (0 if block["seq0"] is None else 8)
        + 24 * len(block["keys"]) + sum(map(len, block["deltas"]))
    )


class RSDataServer(DataServer, DurableBucket):
    """One LH*RS data bucket: LH* behaviour plus parity maintenance."""

    KIND = "data"
    #: everything that serves or mutates record state; catch-up traffic
    #: (catchup.load, wal.tail), structural commands and status probes
    #: stay answerable
    FENCED_KINDS = frozenset(
        {
            "insert",
            "update",
            "delete",
            "search",
            "scan",
            "ops.batch",
            "record.fetch",
            "bucket.dump",
            "signature.dump",
        }
    )

    def __init__(
        self,
        node_id: str,
        file_id: str,
        number: int,
        level: int,
        capacity: int,
        n0: int,
        group_size: int,
        parity_targets: list[str] | None = None,
        compact_ranks: bool = False,
        parity_batch_size: int = 1,
        field_width: int = 8,
        parity_ack: bool = False,
    ):
        super().__init__(node_id, file_id, number, level, capacity, n0)
        from repro.gf.field import GF

        self.group_size = group_size
        self.compact_ranks = compact_ranks
        self.parity_batch_size = parity_batch_size
        self.field = GF(field_width)
        #: Δ-blocks held back (lazy mode, client batches), FIFO
        self._parity_queue: list[dict] = []
        self.group = group_of(number, group_size)
        self.position = position_of(number, group_size)
        #: parity bucket node ids of this group, index order
        self.parity_targets = list(parity_targets or [])
        self._rank_counter = 0
        self._free_ranks: list[int] = []
        #: key -> rank for every stored record
        self.ranks: dict[int, int] = {}
        #: rank -> key reverse index (kept in lockstep with ``ranks``)
        #: so compaction finds the highest occupied rank in O(1) amortized
        self._rank_to_key: dict[int, int] = {}
        #: >0 while a client batch is applying: Δ-records coalesce into
        #: the queue and ship as one parity.batch per target at depth 0
        self._coalesce_depth = 0
        self.parity_ack = parity_ack
        #: monotonic Δ sequence number; the *same* stream goes to every
        #: parity bucket, so one counter serves all channels from here
        self._parity_seq = 0
        #: logged Δ-blocks serving a restarted parity bucket's catch-up
        #: ask (durability on only)
        self._delta_history: deque | None = None

    # ------------------------------------------------------------------
    # rank management
    # ------------------------------------------------------------------
    def _take_ranks(self, count: int) -> list[int]:
        """The ``count`` smallest free ranks, then fresh ones.

        Taking the *lowest* free ranks keeps each bucket's occupied rank
        set dense ({1..size} under pure growth), which maximizes record
        group occupancy across the bucket group — the storage-overhead
        figure of experiment E1 rides on this (§4.3's counter-reuse
        enhancement, applied locally at allocation time).
        """
        out: list[int] = []
        while self._free_ranks and len(out) < count:
            out.append(heapq.heappop(self._free_ranks))
        while len(out) < count:
            self._rank_counter += 1
            out.append(self._rank_counter)
        return out

    def _release_rank(self, rank: int) -> None:
        heapq.heappush(self._free_ranks, rank)

    def _assign_rank(self, key: int, rank: int) -> None:
        self.ranks[key] = rank
        self._rank_to_key[rank] = key

    def _unassign_rank(self, key: int) -> int:
        rank = self.ranks.pop(key)
        del self._rank_to_key[rank]
        return rank

    def _wipe(self) -> None:
        """Drop every record and the whole rank space."""
        self.bucket.records = {}
        self.ranks = {}
        self._rank_to_key = {}
        self._free_ranks = []
        self._rank_counter = 0

    def _compact(self) -> list[dict]:
        """§4.3-style rank compaction; returns the Δ-blocks it implies.

        Drains the free list: freed ranks inside the dense range
        {1..size} absorb the highest-ranked records; freed ranks above
        it are simply retired by shrinking the counter.  Afterwards the
        bucket's ranks are exactly {1..size} again.  The moves ship as
        one delete block (old ranks) and then one insert block (new
        ranks): sources all lie above ``target`` and destinations at or
        below it, so each block's ranks are distinct.

        The highest occupied rank comes from the ``_rank_to_key``
        reverse index via a pointer walking down from the counter — the
        maximum only decreases across the drain (each move fills a rank
        below ``target`` < the vacated maximum), so the whole drain is
        O(moves + ranks scanned once), not O(moves × bucket size).
        """
        if not self.compact_ranks:
            return []
        target = len(self.ranks)
        high = self._rank_counter
        moved: list[tuple[int, bytes]] = []
        sources: list[int] = []
        destinations: list[int] = []
        while self._free_ranks:
            free = heapq.heappop(self._free_ranks)
            if free > target:
                continue  # beyond the dense range: retire silently
            while high not in self._rank_to_key:
                high -= 1
            key = self._rank_to_key.pop(high)
            self._assign_rank(key, free)
            moved.append((key, self.bucket.get(key)))
            sources.append(high)
            destinations.append(free)
        self._rank_counter = target
        blocks = self._records_block("delete", moved, sources)
        blocks += self._records_block("insert", moved, destinations)
        if self._wal is not None:
            # the move blocks logged above; the counter shrink (and
            # drained free list) is the one effect they do not imply
            self._log_entry({"ctl": "counter", "counter": target})
        return blocks

    # ------------------------------------------------------------------
    # parity messaging
    # ------------------------------------------------------------------
    def _parity_block(
        self,
        action: str,
        keys: list[int],
        ranks: list[int],
        deltas: list[bytes],
        lengths: list[int],
    ) -> dict:
        """One columnar Δ-block: a same-position ``action`` run over
        parallel columns with distinct ranks, carrying the next
        ``len(keys)`` consecutive sequence numbers from ``seq0``.

        The numbers are taken at *creation* time, after the local
        mutation: "everything through seq S is reflected in my store"
        then holds by construction, which is what lets a parity spare
        rebuilt from dumps treat any in-flight retransmission of
        seq <= S as a duplicate.
        """
        seq0 = self._parity_seq + 1
        self._parity_seq += len(keys)
        block = {
            "block": action,
            "pos": self.position,
            "seq0": seq0,
            "keys": keys,
            "ranks": ranks,
            "deltas": deltas,
            "lengths": lengths,
        }
        if self._wal is not None:
            # WAL-before-send: the mutation already applied locally, and
            # it hits disk before the Δ leaves (or the op is acked), so
            # every acked operation is in the durable prefix + fsync
            # staleness window by construction.
            self._log_entry(block)
            self._delta_history.append(block)
        return block

    def _records_block(
        self, action: str, records: list[tuple[int, bytes]], ranks: list[int]
    ) -> list[dict]:
        """The Δ-block inserting ``records`` ((key, payload) pairs) into
        ``ranks`` or deleting them from there — a list of one, or empty
        when there are no records."""
        if not records:
            return []
        payloads = [payload for _, payload in records]
        lengths = (
            [len(payload) for payload in payloads] if action == "insert"
            else [0] * len(records)
        )
        return [self._parity_block(
            action, [key for key, _ in records], ranks, payloads, lengths
        )]

    def _send_parity(self, block: dict) -> None:
        """Ship one record-level Δ-block (scalar op or vectorized run)."""
        if "drop_parity_seq" in mutants.ACTIVE and block["block"] == "update":
            # Validation mutant: silently drop every second update Δ
            # *and roll the sequence counter back*, so the channel sees
            # no gap — the self-reporting report.stale machinery stays
            # blind and parity silently decodes stale after the next
            # bucket loss (tests/check/test_mutants.py).
            self._mutant_update_deltas = (
                getattr(self, "_mutant_update_deltas", 0) + 1
            )
            if self._mutant_update_deltas % 2 == 0:
                self._parity_seq -= len(block["keys"])
                return
        if self._coalesce_depth or self.parity_batch_size > 1:
            # Client-batch coalescing holds every Δ (no size-triggered
            # flush) and ships one parity.batch per target at batch end.
            # Lazy mode flushes when the batch fills; the queue is the
            # vulnerability window — a crash loses it.
            self._parity_queue.append(block)
            if (
                not self._coalesce_depth
                and len(self._parity_queue) >= self.parity_batch_size
            ):
                self.flush_parity()
            return
        self._fanout("parity.update", block,
                     size=HEADER_BYTES + block_size(block))

    def flush_parity(self) -> int:
        """Ship every queued Δ-block now; returns how many flushed."""
        if not self._parity_queue:
            return 0
        blocks, self._parity_queue = self._parity_queue, []
        self._send_blocks(blocks)
        return len(blocks)

    def _send_blocks(self, blocks: list[dict]) -> None:
        """One ``parity.batch`` per target, sized arithmetically once."""
        size = HEADER_BYTES + 3 + sum(map(block_size, blocks))
        self._fanout("parity.batch", {"ops": blocks}, size=size)

    def _send_parity_batch(self, blocks: list[dict]) -> None:
        if self._coalesce_depth:
            # Mid-client-batch structural work (split deletes, merges,
            # compaction) joins the coalesced queue; seqs were taken at
            # creation, so queue order stays the Δ-stream order.
            self._parity_queue.extend(blocks)
            return
        # Structural batches (splits, merges, compaction) must apply
        # after any queued per-record Δs — flush preserves FIFO order.
        self.flush_parity()
        if blocks:
            self._send_blocks(blocks)

    def _fanout(self, kind: str, payload: Any, size: int = 0) -> None:
        """One Δ (or batch) to every parity target, then escalations.

        Escalation reports are *deferred* until every reachable target
        received the Δ.  Reporting mid-loop would trigger a group
        recovery that reads this bucket (already mutated, Δ counted)
        together with a surviving parity bucket later in the loop
        (Δ not yet delivered) — survivors misaligned by one in-flight
        operation, which a decode would turn into resurrected or
        vanished records.  After the loop, every live parity bucket has
        the Δ and every reported one gets rebuilt from current data.
        """
        reports = []
        for target in self.parity_targets:
            report = self._send_parity_to(target, kind, payload, size)
            if report is not None:
                reports.append(report)
        for report_kind, report_payload in reports:
            try:
                self.send(self._coordinator(), report_kind, report_payload)
            except (NodeUnavailable, UnknownNode):
                # Coordinator dark (pre-takeover window): the casualty
                # stays visible — a down parity target to the probe
                # sweep, a stale one through its sticky status flag.
                pass

    def _send_parity_to(
        self, target: str, kind: str, payload: Any, size: int = 0
    ) -> tuple[str, dict] | None:
        """Ship one Δ (or batch) to one parity bucket, surviving faults.

        Returns ``None`` on success, or a deferred ``(kind, payload)``
        escalation report for :meth:`_fanout` to send once the whole
        fan-out completed (see there for why it must not go out early).

        A failed parity site is reported to the coordinator, which
        rebuilds it onto a spare under the same logical address.  The
        rebuild encodes from the group's *current* data — every data
        server mutates its store before shipping the Δ-record — so the
        recovered parity already reflects this mutation and the Δ must
        NOT be re-sent (the sequence numbers would skip it anyway).

        Transient delivery faults are retried under the retry policy;
        the sequence numbers make a resend after a lost *reply* (where
        the Δ did apply) a harmless duplicate.  In ``parity_ack`` mode
        the Δ travels as a call, so even silent drops become visible
        faults; with plain sends only ``fail`` outcomes are retryable —
        a silent drop surfaces later as a gap at the parity bucket.
        Exhausted retries are escalated like a crash: the coordinator
        rebuilds the parity bucket from data, which is always safe.
        """
        policy = self.retry_policy
        for attempt in range(policy.attempts):
            try:
                if self.parity_ack:
                    self.call(target, kind, payload, size=size)
                else:
                    self.send(target, kind, payload, size=size)
                return None
            except DeliveryFault as fault:
                if fault.stage == "reply":
                    return None  # the Δ was applied; only the ack was lost
                if attempt + 1 < policy.attempts:
                    net = self._net()
                    if net.tracer is not None:
                        net.tracer.emit(
                            "op.retry", op=kind, node=target,
                            attempt=attempt + 1,
                        )
                    if net.metrics is not None:
                        net.metrics.counter(
                            "retry.attempts",
                            "client+parity retransmissions",
                        ).inc()
                    # Salt per channel: under jitter, group members that
                    # got shed by the same parity bucket back off apart
                    # instead of re-converging on it in lockstep.
                    net.advance(policy.delay(
                        attempt,
                        zlib.crc32(f"{self.node_id}->{target}".encode()),
                    ))
            except NodeUnavailable as failure:
                return (
                    "report.unavailable",
                    {"node": failure.node_id, "kind": None, "op": None},
                )
        # Budget exhausted against a node that still answers pings: its
        # content can no longer be trusted to include this Δ.  Report it
        # stale — the coordinator rebuilds it from the group's data,
        # which (local mutation preceding the send) includes this op.
        return ("report.stale", {"node": target})

    # ------------------------------------------------------------------
    # record mutations: one Δ-producing run per kind
    # ------------------------------------------------------------------
    def _insert_run(self, keys: list[int], values: list[bytes]) -> dict:
        """Store absent records under fresh ranks (taken together, one
        store write each); returns their insert Δ-block."""
        ranks = self._take_ranks(len(keys))
        put = self.bucket.put
        assign = self._assign_rank
        for key, value, rank in zip(keys, values, ranks):
            assign(key, rank)
            put(key, value)
        return self._parity_block(
            "insert", keys, ranks, values, list(map(len, values))
        )

    def _update_run(self, keys: list[int], values: list[bytes]) -> dict:
        """Overwrite present records; returns their update Δ-block.

        A run of one takes the int-XOR :func:`delta_payload`.  A longer
        run stacks old and new payloads into two (run × symbols)
        matrices, XORs them in one pass and converts back to bytes in
        one call; each op's Δ is its row trimmed to max(len(old),
        len(new)) — byte-identical to ``delta_payload``, which
        zero-extends the shorter operand to exactly that length.
        """
        olds = list(map(self.bucket.get, keys))
        if len(keys) == 1:
            deltas = [delta_payload(olds[0], values[0])]
        else:
            deltas = self._stacked_deltas(olds, values)
        put = self.bucket.put
        for key, value in zip(keys, values):
            put(key, value)
        return self._parity_block(
            "update", keys, list(map(self.ranks.__getitem__, keys)), deltas,
            list(map(len, values)),
        )

    def _stacked_deltas(
        self, olds: list[bytes], news: list[bytes]
    ) -> list[bytes]:
        """The stacked-XOR kernel behind :meth:`_update_run`."""
        lengths = [max(len(o), len(n)) for o, n in zip(olds, news)]
        longest = max(lengths)
        if not longest:
            return [b""] * len(olds)
        sym_len = self.field.symbol_length_for_bytes(longest)
        delta = np.bitwise_xor(
            self.field.stack_payloads(olds, sym_len),
            self.field.stack_payloads(news, sym_len),
        )
        blob = self.field.bytes_from_symbols(delta.reshape(-1))
        row_bytes = len(blob) // len(olds)
        return [
            blob[idx * row_bytes:idx * row_bytes + length]
            for idx, length in enumerate(lengths)
        ]

    def apply_insert(self, key: int, value: bytes) -> None:
        if key in self.bucket:
            self.apply_update(key, value)
            return
        self._send_parity(self._insert_run([key], [value]))

    def apply_update(self, key: int, value: bytes) -> None:
        if key not in self.bucket:
            self.apply_insert(key, value)
            return
        self._send_parity(self._update_run([key], [value]))

    def apply_delete(self, key: int) -> None:
        """Remove a record and free its rank; the one producer of a
        delete Δ outside structural changes.  Batched deletes run op by
        op: with ``compact_ranks`` each one's compaction decides the
        ranks the next one frees."""
        if key not in self.bucket:
            return
        payload = self.bucket.delete(key)
        rank = self._unassign_rank(key)
        self._release_rank(rank)
        self._send_parity(
            self._parity_block("delete", [key], [rank], [payload], [0])
        )
        self._send_parity_batch(self._compact())

    # ------------------------------------------------------------------
    # batched key operations: Δ-coalescing and vectorized runs
    # ------------------------------------------------------------------
    def _batch_context(self, ops: list[dict]):
        return self._coalesce()

    @contextmanager
    def _coalesce(self):
        """Hold Δ-records for the duration of one client sub-batch.

        Re-entrant: a split triggered mid-batch re-enters through its
        own structural parity batch, which simply joins the queue.  At
        depth 0 the whole queue ships as ONE ``parity.batch`` per parity
        target — the coalesced-Δ message the 2D bulk fold feeds on.
        """
        self._coalesce_depth += 1
        try:
            yield
        finally:
            self._coalesce_depth -= 1
            if self._coalesce_depth == 0:
                self.flush_parity()

    def _apply_batch_ops(self, ops: list[dict]) -> list[dict]:
        """Vectorize maximal eligible runs of same-kind mutations;
        everything else takes the one key-op apply, op by op."""
        results: list[dict] = []
        i = 0
        while i < len(ops):
            run = self._bulk_run(ops, i)
            if run > 1:
                chunk = ops[i:i + run]
                keys = [op["key"] for op in chunk]
                values = [op["value"] for op in chunk]
                if chunk[0]["op"] == "insert":
                    block = self._insert_run(keys, values)
                else:
                    block = self._update_run(keys, values)
                self._send_parity(block)
                # Inserts fit under capacity and updates owe no report
                # (run preconditions): this is only the scalar
                # sequence's not-overflowing marker bookkeeping.
                self._report_overflow_if_needed()
                results.extend(["applied"] * run)
                i += run
            else:
                results.append(self.apply_key_op(ops[i]["op"], ops[i]))
                i += 1
        return results

    def _bulk_run(self, ops: list[dict], start: int) -> int:
        """Length of the vectorizable run at ``start`` (1 = scalar).

        A run must be same-kind insert-or-update, bytes payloads,
        pairwise-distinct keys, every key accepted by A2, inserts all
        absent (and fitting under capacity, so no overflow report can
        fire mid-run) and updates all present (with no overflow report
        pending, which only a size change or growth could owe) — the
        conditions under which the vectorized apply is step-for-step
        equivalent to the scalar sequence.
        """
        kind = ops[start]["op"]
        if kind not in ("insert", "update"):
            return 1
        seen: set[int] = set()
        run = start
        while run < len(ops):
            op = ops[run]
            key = op["key"]
            if (
                op["op"] != kind
                or key in seen
                or not isinstance(op.get("value"), (bytes, bytearray))
                or self._verify(key) is not None
                or (key in self.bucket) != (kind == "update")
            ):
                break
            seen.add(key)
            run += 1
        count = run - start
        if kind == "insert":
            # Stop the run at capacity: the tail goes per-op, where the
            # overflow reports (and any split they trigger) fire exactly
            # when the scalar sequence would fire them.
            count = min(count, self.bucket.capacity - len(self.bucket))
        elif self.bucket.overflowing and len(self.bucket) > self._last_reported_size:
            return 1  # an overflow report is due; per-op path sends it
        return count if count >= 2 else 1

    # ------------------------------------------------------------------
    # splits: group membership follows the record
    # ------------------------------------------------------------------
    def handle_split(self, message: Message) -> Any:
        target = message.payload["target"]
        stay, move = addressing.split_records(
            list(self.bucket.records.items()),
            lambda item: item[0],
            self.number,
            self.level,
            self.n0,
        )
        # Remove the movers from this group's record groups: one delete
        # block, then the compaction blocks (which may reuse the freed
        # ranks, so they follow it in the Δ stream).  Local state
        # mutates *before* the parity send: a parity spare rebuilt
        # mid-send encodes from current data, so the in-flight batch
        # must already be reflected locally (see _send_parity_to).
        ranks = [self._unassign_rank(key) for key, _ in move]
        for rank in ranks:
            self._release_rank(rank)
        self.bucket.records = dict(stay)
        blocks = self._records_block("delete", move, ranks) + self._compact()
        self.bucket.level += 1
        self._last_reported_size = -1
        if self._wal is not None:
            self._log_entry({"ctl": "level", "level": self.bucket.level})
        self._send_parity_batch(blocks)
        self.send(
            data_node(self.file_id, target),
            "records.bulk",
            {"records": move, "source": self.number},
        )
        self._report_overflow_if_needed()
        return {"moved": len(move), "kept": len(stay)}

    def handle_records_bulk(self, message: Message) -> None:
        records = message.payload["records"]
        self._send_parity_batch([self._insert_run(
            [key for key, _ in records], [value for _, value in records]
        )] if records else [])
        self._report_overflow_if_needed()

    def handle_merge(self, message: Message) -> Any:
        """This (last) bucket dissolves: remove every record from this
        group's record groups (batched parity deletes), then ship the
        records to the absorbing bucket, which re-groups them there.

        If this bucket was its group's only member, the coordinator
        retires the group's parity buckets afterwards — the batch then
        merely zeroes records that are about to be discarded, so it is
        skipped (the coordinator tells us via ``retiring``).
        """
        into = message.payload["into"]
        records = list(self.bucket.records.items())
        ranks = [self.ranks[key] for key, _ in records]
        self._wipe()
        if not message.payload.get("retiring"):
            self._send_parity_batch(
                self._records_block("delete", records, ranks)
            )
        if self._wal is not None:
            self._log_entry({"ctl": "wipe"})
        self.send(
            data_node(self.file_id, into),
            "records.bulk",
            {"records": records, "source": self.number},
        )
        return {"moved": len(records)}

    # ------------------------------------------------------------------
    # configuration & recovery support
    # ------------------------------------------------------------------
    def handle_config_parity(self, message: Message) -> None:
        """Coordinator raised this group's availability level."""
        self.parity_targets = list(message.payload["targets"])

    def handle_parity_flush(self, message: Message) -> dict:
        """Explicit flush command (coordinator probe / recovery prep)."""
        return {"flushed": self.flush_parity()}

    def handle_signature_dump(self, message: Message) -> dict:
        """Algebraic signatures of every record, keyed by rank.

        Constant bytes per record regardless of payload size — the
        audit's whole advantage over shipping payloads.  Flushes lazy
        Δs first so parity and data describe the same state.
        """
        from repro.gf.signatures import signature_vector

        self.flush_parity()
        count = message.payload.get("count", 2)
        return {
            "position": self.position,
            "ranks": {
                self.ranks[key]: signature_vector(self.field, payload, count)
                for key, payload in self.bucket.records.items()
            },
        }

    def handle_record_fetch(self, message: Message) -> dict:
        """Direct fetch by key (record recovery addresses buckets
        explicitly from the parity directory — no A2 involved).

        Flushes first: the decode combining this payload with parity
        records needs the parity to be current with it.
        """
        self.flush_parity()
        key = message.payload["key"]
        if key in self.bucket:
            return {"found": True, "payload": self.bucket.get(key)}
        return {"found": False, "payload": None}

    def handle_bucket_dump(self, message: Message) -> dict:
        """Everything recovery needs to treat this bucket as a survivor.

        Flushes queued Δs first so the dump and the group's parity
        describe the same state (lazy mode would otherwise feed the
        decoder a survivor ahead of its parity).
        """
        self.flush_parity()
        return {"bucket": self.number, "position": self.position,
                **self.image()}

    def handle_bucket_load(self, message: Message) -> None:
        """Bulk-load recovered content into a fresh (spare) data bucket."""
        self.load_image(message.payload)
        if self._wal is not None:
            # A rebuilt (or snapshot-restored) image is the new durable
            # baseline; whatever the disk held belonged to another life.
            self.checkpoint_now()

    def handle_status(self, message: Message) -> dict:
        status = super().handle_status(message)
        status.update(group=self.group, position=self.position,
                      counter=self._rank_counter)
        if self._wal is not None:
            status.update(fenced=self.fenced, epoch=self.epoch)
        return status

    def handle_level_set(self, message: Message) -> Any:
        result = super().handle_level_set(message)
        if self._wal is not None:
            self._log_entry({"ctl": "level", "level": self.bucket.level})
        return result

    # ------------------------------------------------------------------
    # the bucket image and the durable-plane hooks (core/durable.py)
    # ------------------------------------------------------------------
    def image(self) -> dict:
        """The bucket's content — what a dump ships, a load installs, a
        checkpoint stores and a snapshot keeps.

        ``parity_seq`` is the Δ-stream high-water: a bucket loaded from
        this image resumes the stream where this one left it, so the
        parity buckets' channel expectations stay aligned.
        """
        return {
            "level": self.level,
            "counter": self._rank_counter,
            "free_ranks": sorted(self._free_ranks),
            "parity_seq": self._parity_seq,
            "records": [
                (key, self.ranks[key], payload)
                for key, payload in self.bucket.records.items()
            ],
        }

    def load_image(self, image: dict) -> None:
        """Replace this bucket's content with ``image``."""
        self._wipe()
        for key, rank, value in image["records"]:
            self.bucket.put(key, value)
            self._assign_rank(key, rank)
        self._rank_counter = image["counter"]
        self._free_ranks = list(image["free_ranks"])
        heapq.heapify(self._free_ranks)
        self.bucket.level = image["level"]
        self._parity_seq = image.get("parity_seq", 0)

    def _init_history(self, capacity: int) -> None:
        self._delta_history = deque(maxlen=capacity)

    def _checkpoint_extras(self) -> dict:
        # The lazy parity queue: those Δs were acked locally but may
        # never have left, and the restart resend path
        # (handle_catchup_load) needs them back.
        return {"queue": list(self._parity_queue)}

    def _lose_volatile(self) -> None:
        self._parity_queue = []
        self._coalesce_depth = 0
        self._wipe()
        self._parity_seq = 0
        self._delta_history.clear()

    def _load_extras(self, state: dict) -> None:
        self._parity_queue = [dict(block) for block in state["queue"]]

    def _restart_fields(self) -> dict:
        return {"bucket": self.number, "seq": self._parity_seq}

    def _rejoin_fields(self, clean: bool) -> dict:
        return {"bucket": self.number, "group": self.group,
                "seq": self._parity_seq, "clean": clean}

    # -- WAL replay ----------------------------------------------------
    def _replay_entry(self, entry: dict) -> None:
        if "ctl" in entry:
            ctl = entry["ctl"]
            if ctl == "level":
                self.bucket.level = entry["level"]
            elif ctl == "counter":
                # compaction epilogue: free list drained, counter shrunk
                self._free_ranks = []
                self._rank_counter = entry["counter"]
            elif ctl == "wipe":
                self._wipe()
            return
        for key, rank, delta, length in zip(
            entry["keys"], entry["ranks"], entry["deltas"], entry["lengths"]
        ):
            self._replay_one(entry["block"], key, rank, delta, length)
        # The replayed Δs are part of the durable prefix: the restart
        # reports them, and resend_after re-ships any that never left.
        self._parity_seq = max(self._parity_seq, self._entry_seq_range(entry)[1])
        self._delta_history.append(entry)

    def _replay_one(
        self, action: str, key: int, rank: int, delta: bytes, length: int
    ) -> None:
        """Apply one logged mutation to the store.

        Inserts log the payload verbatim; updates log the XOR Δ, so the
        new value is ``old ⊕ Δ`` trimmed to the logged length (exactly
        how the parity channel reconstructs it).
        """
        if action == "insert":
            self._adopt_rank(rank)
            self._assign_rank(key, rank)
            self.bucket.put(key, delta)
        elif action == "update":
            old = self.bucket.get(key)
            self.bucket.put(key, delta_payload(old, delta)[:length])
        elif key in self.bucket:  # delete
            self.bucket.delete(key)
            self._release_rank(self._unassign_rank(key))

    def _adopt_rank(self, rank: int) -> None:
        """Claim a *specific* rank during replay or catch-up: pull it
        from the free heap if present, else extend the counter to cover
        it (ranks skipped on the way up become free, exactly as the
        live allocation path left them)."""
        if rank <= self._rank_counter:
            if rank in self._free_ranks:
                self._free_ranks.remove(rank)
                heapq.heapify(self._free_ranks)
        else:
            while self._rank_counter < rank:
                self._rank_counter += 1
                if self._rank_counter < rank:
                    heapq.heappush(self._free_ranks, self._rank_counter)

    @staticmethod
    def _entry_seq_range(block: dict) -> tuple[int, int]:
        """Inclusive Δ-sequence span of one logged Δ-block."""
        return block["seq0"], block["seq0"] + len(block["keys"]) - 1

    # -- serving catch-up ----------------------------------------------
    def handle_wal_tail(self, message: Message) -> dict:
        """A restarted parity bucket asks for the Δs it missed.

        Returns every entry with a sequence number above ``after`` from
        the in-RAM history ring; ``covered`` is False when the ring no
        longer reaches back that far (checkpoints retire old WAL frames)
        — the asker must then fall back to a full rebuild.
        """
        after = message.payload["after"]
        live = self._parity_seq
        ops: list[dict] = []
        next_needed = after + 1
        covered = True
        for entry in self._delta_history or ():
            lo, hi = self._entry_seq_range(entry)
            if hi < next_needed:
                continue
            if lo > next_needed:
                covered = False
                break
            ops.append(entry)
            next_needed = hi + 1
        covered = covered and next_needed > live
        return {"covered": covered, "live": live, "ops": ops}

    # -- receiving catch-up --------------------------------------------
    def handle_catchup_load(self, message: Message) -> dict:
        """Apply the coordinator's delta catch-up verdict and unfence.

        ``set`` holds the *final* state of every key that changed while
        we were down (the coordinator already resolved per-key winners);
        ``delete`` lists keys whose final state is absence.  Neither
        fans out Δs — the live parity buckets already reflect them.

        ``resend_after`` (when present) means some parity bucket lags
        our own durable prefix (Δs we logged but never shipped — the
        lazy-queue vulnerability window the WAL exists to close): we
        re-fan-out our tail above it, in sequence order, merged from the
        restored queue and the history ring.  Per-channel sequence
        numbers make the copies other parities already hold harmless
        duplicates.  The reply's ``floor`` is the highest sequence the
        resend could *not* reach back past; the coordinator rebuilds any
        parity bucket still gapped below it.
        """
        payload = message.payload
        disk_seq = self._parity_seq
        deletes = payload.get("delete", [])
        items = payload.get("set", [])
        for key in deletes:
            if key in self.bucket:
                self.bucket.delete(key)
                self._release_rank(self._unassign_rank(key))
        # Two passes: release every stale rank first, then adopt the
        # final ones — a catch-up that swaps two keys' ranks would
        # otherwise collide mid-loop.
        for key, rank, value in items:
            if key in self.ranks:
                self._release_rank(self._unassign_rank(key))
        for key, rank, value in items:
            self._adopt_rank(rank)
            self._assign_rank(key, rank)
            self.bucket.put(key, value)
        self._parity_seq = payload["parity_seq"]
        # Unfence before the resend: a parity bucket rebuilt mid-resend
        # reads this bucket's dump.
        self.fenced = False
        # Resend our unshipped tail to lagging parity channels.
        floor = disk_seq
        resend_after = payload.get("resend_after")
        if resend_after is not None and resend_after < disk_seq:
            pool: dict[int, tuple[int, dict]] = {}
            for entry in list(self._parity_queue) + list(self._delta_history):
                lo, hi = self._entry_seq_range(entry)
                if hi > resend_after and lo <= disk_seq:
                    pool[lo] = (hi, entry)
            resend: list[dict] = []
            for lo in sorted(pool, reverse=True):
                hi, entry = pool[lo]
                if hi != floor:
                    break  # gap: entries below were retired by checkpoints
                resend.append(entry)
                floor = lo - 1
            floor = max(floor, resend_after)
            resend.reverse()
            self._parity_queue = []
            if resend:
                self._send_blocks(resend)
        else:
            # Every parity channel is at (or past) our durable prefix:
            # the restored queue is all duplicates.
            self._parity_queue = []
        self._finish_catchup(
            "catchup.data", len(items) + len(deletes), bucket=self.number,
            set=len(items), deleted=len(deletes), seq=self._parity_seq,
        )
        return {"floor": floor}
