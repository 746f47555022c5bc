"""Contiguous stripe storage for parity buckets.

A parity bucket holds one parity symbol array per record group (rank).
:class:`StripeStore` packs them all into one ``(rows x width)`` symbol
matrix with a rank→row map: each rank's parity lives in a row slice,
zero-padded to the store width (the paper's padding rule makes the
padding semantically free).  Δ folds land as one scatter over the
matrix, and dumps and signature scans read the whole bucket in one pass
instead of walking one array per record.

The matrix grows geometrically in both dimensions.  A reallocation
replaces :attr:`StripeStore.matrix`, so callers re-read rows from it
rather than holding on to row views.
"""

from __future__ import annotations

import numpy as np

from repro.gf.field import GF


class StripeStore:
    """One contiguous (rows x width) symbol matrix, addressed by rank."""

    __slots__ = ("field", "matrix", "_row_of", "_length", "_free")

    def __init__(self, field: GF, rows: int = 0, width: int = 0):
        if field.width < 8:
            # Sub-byte symbols would make row slices non-byte-aligned in
            # row_bytes; the file configs only use GF(2^8)/GF(2^16).
            raise ValueError("StripeStore requires a whole-byte symbol field")
        self.field = field
        self.matrix = np.zeros((rows, width), dtype=field.symbol_dtype)
        self._row_of: dict[int, int] = {}
        self._length: dict[int, int] = {}
        self._free: list[int] = list(range(rows - 1, -1, -1))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, rank: int) -> bool:
        return rank in self._row_of

    def ranks(self) -> list[int]:
        """Stored ranks in insertion-independent sorted order."""
        return sorted(self._row_of)

    def length_of(self, rank: int) -> int:
        """Logical symbol length of one rank's stripe."""
        return self._length[rank]

    @property
    def width(self) -> int:
        return int(self.matrix.shape[1])

    # ------------------------------------------------------------------
    def _reallocate(self, rows: int, width: int) -> None:
        fresh = np.zeros((rows, width), dtype=self.field.symbol_dtype)
        old_rows, old_width = self.matrix.shape
        fresh[:old_rows, :old_width] = self.matrix
        self.matrix = fresh

    def _reserve(self, width: int, ranks: list[int]) -> None:
        """Widen the matrix to ``width`` symbols and give every rank in
        ``ranks`` a row (fresh ranks start at logical length 0) — at
        most one reallocation per dimension."""
        rows, old_width = self.matrix.shape
        if width > old_width:
            new_width = max(8, old_width)
            while new_width < width:
                new_width *= 2
            self._reallocate(rows, new_width)
        row_of = self._row_of
        fresh = [rank for rank in ranks if rank not in row_of]
        if not fresh:
            return
        if len(fresh) > len(self._free):
            old_rows = self.matrix.shape[0]
            new_rows = max(8, 2 * old_rows)
            while new_rows - old_rows + len(self._free) < len(fresh):
                new_rows *= 2
            self._reallocate(new_rows, self.width)
            self._free.extend(range(new_rows - 1, old_rows - 1, -1))
        for rank in fresh:
            row_of[rank] = self._free.pop()
            self._length[rank] = 0

    def scatter_xor(
        self, ranks: list[int], lengths: list[int], rows: np.ndarray
    ) -> None:
        """Fold one pre-scaled Δ row per rank in a single scatter.

        ``rows`` is a ``(len(ranks) x W)`` matrix whose row *i* is
        XOR-folded into ``ranks[i]``'s stripe; ``lengths[i]`` is that
        row's logical symbol length (rows are zero-padded beyond it, so
        folding the full width is semantically the same as folding the
        logical prefix).  Ranks must be distinct — duplicate ranks in a
        fancy-index scatter would silently drop all but one fold.
        Logical lengths grow only once the fold has landed.
        """
        width = rows.shape[1]
        self._reserve(width, ranks)
        row_of, length_of = self._row_of, self._length
        if len(ranks) == 1:
            # One row (every scalar Δ): a basic slice XORs in place,
            # skipping the fancy-index gather/scatter round trip.
            rank = ranks[0]
            self.matrix[row_of[rank], :width] ^= rows[0]
            if lengths[0] > length_of[rank]:
                length_of[rank] = lengths[0]
            return
        self.matrix[[row_of[rank] for rank in ranks], :width] ^= rows
        for rank, length in zip(ranks, lengths):
            if length > length_of[rank]:
                length_of[rank] = length

    def release(self, rank: int) -> None:
        """Drop a rank; its row is zeroed and recycled."""
        row = self._row_of.pop(rank)
        self._length.pop(rank)
        self.matrix[row] = 0
        self._free.append(row)

    # ------------------------------------------------------------------
    # bulk views (what dumps and signature scans ride on)
    # ------------------------------------------------------------------
    def stacked(self) -> tuple[list[int], np.ndarray]:
        """``(ranks, matrix)`` with one full-width row per stored rank.

        The matrix is a single fancy-index gather — one allocation for
        the whole bucket, in rank order.
        """
        ranks = self.ranks()
        rows = [self._row_of[rank] for rank in ranks]
        return ranks, self.matrix[rows, :]

    def row_bytes(self) -> dict[int, bytes]:
        """Per-rank parity payloads rendered from one contiguous pass.

        The whole store is converted to bytes once; each rank's payload
        is then a cheap slice of that blob, trimmed to its logical
        (symbol-aligned) length.
        """
        ranks, matrix = self.stacked()
        if not ranks:
            return {}
        blob = self.field.bytes_from_symbols(matrix.reshape(-1))
        stride = self.width * matrix.dtype.itemsize
        out: dict[int, bytes] = {}
        for i, rank in enumerate(ranks):
            nbytes = self._length[rank] * matrix.dtype.itemsize
            out[rank] = blob[i * stride : i * stride + nbytes]
        return out

    def bulk_load(self, items: list[tuple[int, bytes]]) -> None:
        """Replace the store content with ``(rank, payload)`` pairs.

        Packs every payload in one :meth:`GF.stack_payloads` pass —
        the fast path for ``parity.load`` (spare installation, snapshot
        restore).
        """
        lengths = [self.field.symbol_length_for_bytes(len(p)) for _, p in items]
        width = max(lengths, default=0)
        packed = self.field.stack_payloads([p for _, p in items], width)
        if not packed.flags.writeable:
            # stack_payloads may alias the (immutable) joined input
            # bytes; the store matrix is written in place by later folds.
            packed = packed.copy()
        self.matrix = packed
        self._row_of = {rank: i for i, (rank, _) in enumerate(items)}
        self._length = {
            rank: length for (rank, _), length in zip(items, lengths)
        }
        self._free = []

    def nbytes(self) -> int:
        """Logical payload bytes held (excludes padding and free rows)."""
        itemsize = self.matrix.dtype.itemsize
        return sum(self._length.values()) * itemsize

    def __repr__(self) -> str:
        return (
            f"StripeStore({len(self)} ranks, "
            f"{self.matrix.shape[0]}x{self.width} {self.matrix.dtype})"
        )
