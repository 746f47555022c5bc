"""Reference model of a parity bucket: the scalar per-Δ fold.

One array per parity record, one Δ at a time, channel-checked Δ by Δ —
the simplest correct fold, kept as an oracle.  ``fold_block`` expands a
Δ-block into its Δs and runs them through that path, so tests can
compare the server's block fold against it on every observable: parity
bytes, directories, the key index, channel expectations, verdicts and
counters.
"""

from __future__ import annotations

from repro.core.records import ParityRecord
from repro.gf.field import GF
from repro.rs.encoder import fold_delta


class ParityOracle:
    """Per-record, per-Δ parity state for one generator row."""

    def __init__(self, row: list[int], field: GF):
        self.row = list(row)
        self.field = field
        self.records: dict[int, ParityRecord] = {}
        self._key_index: dict[int, tuple[int, int]] = {}
        self._expected_seq: dict[int, int] = {}
        self.symbol_ops = 0
        self.xor_folds = 0
        self.general_folds = 0
        self.duplicates_skipped = 0
        self.gaps_detected = 0
        self.stale = False

    def _apply(self, op: dict) -> None:
        rank = op["rank"]
        pos = op["pos"]
        if not 0 <= pos < len(self.row):
            raise ValueError(
                f"group position {pos} outside 0..{len(self.row) - 1}"
            )
        action = op["op"]
        if action not in ("insert", "update", "delete"):
            raise ValueError(f"unknown parity op {action!r}")
        record = self.records.get(rank)
        if record is None:
            record = self.records[rank] = ParityRecord(rank=rank)
        coefficient = self.row[pos]
        record.symbols = fold_delta(
            self.field, record.symbols, coefficient, op["delta"]
        )
        self.symbol_ops += self.field.symbol_length_for_bytes(len(op["delta"]))
        if coefficient == 1:
            self.xor_folds += 1
        else:
            self.general_folds += 1
        if action == "insert":
            record.keys[pos] = op["key"]
            record.lengths[pos] = op["length"]
            self._key_index[op["key"]] = (rank, pos)
        elif action == "update":
            record.lengths[pos] = op["length"]
        else:
            record.keys.pop(pos, None)
            record.lengths.pop(pos, None)
            self._key_index.pop(op["key"], None)
            if not record.keys:
                del self.records[rank]

    def _channel_check(self, op: dict) -> str:
        seq = op["seq"]
        if seq is None:
            return "apply"
        expected = self._expected_seq.get(op["pos"], 1)
        if seq < expected:
            self.duplicates_skipped += 1
            return "duplicate"
        if seq > expected:
            self.gaps_detected += 1
            self.stale = True
            return "stale"
        self._expected_seq[op["pos"]] = expected + 1
        return "apply"

    def fold_block(self, block: dict) -> tuple[str, int]:
        """``(verdict, applied)`` for one block, Δ by Δ: ``stale`` at
        the first gap, else ``applied`` when any Δ folded, else
        ``duplicate``."""
        seq0 = block["seq0"]
        applied = 0
        for i, (key, rank, delta, length) in enumerate(zip(
            block["keys"], block["ranks"], block["deltas"], block["lengths"]
        )):
            op = {
                "op": block["block"], "key": key, "rank": rank,
                "pos": block["pos"], "delta": delta, "length": length,
                "seq": None if seq0 is None else seq0 + i,
            }
            verdict = self._channel_check(op)
            if verdict == "stale":
                return "stale", applied
            if verdict == "apply":
                self._apply(op)
                applied += 1
        return ("applied" if applied else "duplicate"), applied
