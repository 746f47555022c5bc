"""Unit tests for the contiguous parity stripe store."""

import numpy as np
import pytest

from repro.core.stripe_store import StripeStore
from repro.gf import GF


@pytest.fixture(params=[8, 16], ids=["gf8", "gf16"])
def field(request):
    return GF(request.param)


def fold(store, rank, values):
    """XOR one logical-length row of symbols into ``rank``'s stripe."""
    values = np.asarray(values, dtype=store.field.symbol_dtype)
    store.scatter_xor([rank], [len(values)], values.reshape(1, -1))


def row(store, rank):
    """``rank``'s logical-length row, read from the current matrix."""
    return store.matrix[store._row_of[rank], : store.length_of(rank)]


class TestLifecycle:
    def test_rejects_sub_byte_fields(self):
        with pytest.raises(ValueError):
            StripeStore(GF(4))

    def test_ensure_view_roundtrip(self, field):
        """A fold into a fresh rank allocates its row and lands as-is."""
        store = StripeStore(field)
        fold(store, 3, [1, 2, 3, 4])
        assert (row(store, 3) == [1, 2, 3, 4]).all()
        assert 3 in store and len(store) == 1
        assert store.length_of(3) == 4
        fold(store, 3, [1, 2, 3, 4])  # XOR is its own inverse
        assert (row(store, 3) == 0).all()

    def test_views_write_through_to_matrix(self, field):
        """A multi-rank fold writes each row into the one matrix."""
        store = StripeStore(field)
        rows = np.array([[7, 7, 0], [1, 2, 3]], dtype=field.symbol_dtype)
        store.scatter_xor([4, 0], [2, 3], rows)
        ranks, matrix = store.stacked()
        assert ranks == [0, 4]
        assert (matrix[0, :3] == [1, 2, 3]).all()
        assert (matrix[1, :2] == 7).all()
        assert store.length_of(4) == 2 and store.length_of(0) == 3

    def test_release_zeroes_and_recycles(self, field):
        store = StripeStore(field)
        fold(store, 1, [9, 9, 9])
        row_index = store._row_of[1]
        store.release(1)
        assert 1 not in store
        assert (store.matrix[row_index] == 0).all()
        fold(store, 2, [0, 0, 0])
        assert store._row_of[2] == row_index  # recycled

    def test_length_grows_monotonically(self, field):
        store = StripeStore(field)
        fold(store, 0, [5, 5, 5, 5])
        fold(store, 0, [0, 0])  # a shorter fold never shrinks
        assert store.length_of(0) == 4
        fold(store, 0, [0] * 6)
        assert store.length_of(0) == 6
        assert (row(store, 0)[:4] == 5).all()
        assert (row(store, 0)[4:] == 0).all()


class TestGrowth:
    def test_width_growth_invalidates_views(self, field):
        """Widening reallocates: content moves over, old row views no
        longer alias the store (so nothing may hold on to them)."""
        store = StripeStore(field)
        fold(store, 0, [3, 3, 3, 3])
        stale = row(store, 0)
        fold(store, 0, [0] * 100)
        assert store.width >= 100
        assert (row(store, 0)[:4] == 3).all()  # content preserved
        stale[:] = 99
        assert (store.matrix != 99).all()  # old view is detached

    def test_row_growth_preserves_content(self, field):
        store = StripeStore(field)
        reallocations = 0
        for rank in range(40):
            before = store.matrix
            fold(store, rank, [rank % 250 + 1] * 8)
            if store.matrix is not before:
                reallocations += 1
        assert 2 <= reallocations <= 6  # grew geometrically, not per insert
        for rank in range(40):
            assert (row(store, rank) == rank % 250 + 1).all()

    def test_no_growth_returns_false(self, field):
        """Folds that fit the current shape keep the same matrix."""
        store = StripeStore(field)
        fold(store, 0, [1, 2, 3, 4])
        matrix = store.matrix
        fold(store, 0, [1, 1, 1, 1])
        fold(store, 0, [2, 2])
        assert store.matrix is matrix
        assert (row(store, 0) == [2, 1, 2, 5]).all()


class TestGenerationRegressions:
    """Stale handles must fail loudly, never read recycled memory.

    Dropped ranks disappear from the map — so a caller holding a stale
    rank (after a release, a merge's ``parity.load`` replacement, or a
    reset) gets a ``KeyError``, and a reallocation or reload replaces
    :attr:`StripeStore.matrix` so stale row views never reach it.
    """

    def test_view_of_unknown_rank_raises(self, field):
        store = StripeStore(field)
        with pytest.raises(KeyError):
            store.length_of(3)
        with pytest.raises(KeyError):
            store.release(3)

    def test_view_after_release_raises(self, field):
        store = StripeStore(field)
        fold(store, 3, [1, 2, 3, 4])
        store.release(3)
        with pytest.raises(KeyError):
            store.length_of(3)
        with pytest.raises(KeyError):
            store.release(3)  # double release is a bug, not a no-op
        assert 3 not in store.row_bytes()

    def test_view_of_rank_dropped_by_bulk_load_raises(self, field):
        """bulk_load models merge/recovery replacement: every rank not in
        the new content must be gone, and the matrix must be a fresh one
        so rows viewed before the reload are recognisably stale."""
        store = StripeStore(field)
        fold(store, 9, [7, 7, 7, 7])
        stale = row(store, 9)
        store.bulk_load([(1, b"\x01\x02\x03\x04"), (2, b"\x05\x06")])
        with pytest.raises(KeyError):
            store.length_of(9)
        assert sorted(store.row_bytes()) == [1, 2]
        # Writes through the stale view never reach the new matrix.
        stale[:] = 123
        assert (store.matrix != 123).all()

    def test_generation_bumps_on_every_reallocation(self, field):
        """Each growth step installs a new matrix and carries every
        stored row over unchanged."""
        store = StripeStore(field)
        expected: dict[int, list[int]] = {}
        matrices = [store.matrix]

        def check():
            if store.matrix is not matrices[-1]:
                matrices.append(store.matrix)
            for rank, values in expected.items():
                assert (row(store, rank) == values).all()

        fold(store, 0, [1, 2, 3, 4])          # first allocation
        expected[0] = [1, 2, 3, 4]
        check()
        fold(store, 0, [0] * 1000)            # width growth
        expected[0] = [1, 2, 3, 4] + [0] * 996
        check()
        for rank in range(1, 50):
            fold(store, rank, [rank] * 4)     # row growth, eventually
            expected[rank] = [rank] * 4
            check()
        store.bulk_load([(0, b"ab")])
        expected = {}
        check()
        assert len(matrices) >= 5

    def test_ensure_true_means_cached_views_went_stale(self, field):
        """A row view taken before a fold still aliases the store exactly
        when the fold did not reallocate the matrix."""
        store = StripeStore(field)
        fold(store, 0, [0] * 4)
        for rank, length in [(0, 4), (0, 900), (1, 8), (2, 8),
                             (3, 8), (50, 8), (50, 2000)]:
            before = store.matrix
            view = row(store, 0)
            fold(store, rank, [1] * length)
            aliased = np.shares_memory(view, store.matrix)
            assert aliased == (store.matrix is before)


class TestBulkViews:
    def test_stacked_orders_by_rank(self, field):
        store = StripeStore(field)
        for rank in (5, 1, 3):
            fold(store, rank, [rank, rank])
        ranks, matrix = store.stacked()
        assert ranks == [1, 3, 5]
        for i, rank in enumerate(ranks):
            assert (matrix[i, :2] == rank).all()

    def test_row_bytes_matches_per_record_rendering(self, field):
        store = StripeStore(field)
        payloads = {
            2: bytes(range(10)),
            7: bytes(range(100, 116)),
            4: b"\x00\xff" * 3,
        }
        for rank, payload in payloads.items():
            length = field.symbol_length_for_bytes(len(payload))
            fold(store, rank, field.symbols_from_bytes(payload, length))
        rendered = store.row_bytes()
        for rank, payload in payloads.items():
            expected = field.bytes_from_symbols(row(store, rank))
            assert rendered[rank] == expected
            assert rendered[rank][: len(payload)] == payload

    def test_bulk_load_replaces_content(self, field):
        store = StripeStore(field)
        fold(store, 9, [1, 2, 3, 4])
        store.bulk_load([(1, b"abcd"), (2, b"xy")])
        assert sorted(store.ranks()) == [1, 2]
        assert store.row_bytes()[1] == b"abcd"
        assert store.length_of(2) == field.symbol_length_for_bytes(2)
        # The loaded matrix is writable: later folds land in place.
        fold(store, 1, field.symbols_from_bytes(b"abcd"))
        assert store.row_bytes()[1] == bytes(4)

    def test_nbytes_counts_logical_payload_only(self, field):
        store = StripeStore(field)
        fold(store, 0, [0] * 3)
        fold(store, 1, [0] * 5)
        itemsize = np.dtype(field.symbol_dtype).itemsize
        assert store.nbytes() == 8 * itemsize
        assert "StripeStore" in repr(store)
