"""Unit tests of the parity bucket server in isolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parity_bucket import ParityServer
from repro.core.stripe_store import StripeStore
from repro.gf import GF
from repro.rs.generator import parity_matrix
from repro.sim import Network, Node
from tests.core.parity_oracle import ParityOracle


class Probe(Node):
    """A bare sender node for driving the parity server."""


@pytest.fixture
def setup():
    net = Network()
    field = GF(8)
    row0 = parity_matrix(field, 4, 1).row(0)  # all ones (XOR bucket)
    row1 = parity_matrix(field, 4, 2).row(1)
    p0 = ParityServer("f.p0.0", "f", group=0, index=0, row=row0, field=field)
    p1 = ParityServer("f.p0.1", "f", group=0, index=1, row=row1, field=field)
    probe = Probe("probe")
    for node in (p0, p1, probe):
        net.register(node)
    return net, p0, p1, probe


def op(action, key, rank, pos, delta, length=None, seq0=None):
    """An (unsequenced by default) Δ-block of one."""
    return {
        "block": action,
        "pos": pos,
        "seq0": seq0,
        "keys": [key],
        "ranks": [rank],
        "deltas": [delta],
        "lengths": [len(delta) if length is None else length],
    }


class TestApply:
    def test_insert_creates_record(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"abcd"))
        record = p0.records[1]
        assert record.keys == {0: 9}
        assert record.lengths == {0: 4}
        assert record.parity_bytes(p0.field) == b"abcd"

    def test_xor_bucket_accumulates_xor(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        probe.send("f.p0.0", "parity.update", op("insert", 8, 1, 1, b"cd"))
        expected = bytes(x ^ y for x, y in zip(b"ab", b"cd"))
        assert p0.records[1].parity_bytes(p0.field) == expected
        assert p0.xor_folds == 2 and p0.general_folds == 0

    def test_second_parity_uses_general_gf(self, setup):
        _, _, p1, probe = setup
        probe.send("f.p0.1", "parity.update", op("insert", 9, 1, 1, b"zz"))
        assert p1.general_folds == 1  # row 1, position 1: coefficient != 1

    def test_first_column_is_xor_on_any_parity(self, setup):
        """All-ones first column: position 0 folds by XOR everywhere."""
        _, _, p1, probe = setup
        probe.send("f.p0.1", "parity.update", op("insert", 9, 1, 0, b"zz"))
        assert p1.xor_folds == 1
        assert p1.records[1].parity_bytes(p1.field) == b"zz"

    def test_update_changes_parity_and_length(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"aaaa"))
        delta = bytes(x ^ y for x, y in zip(b"aaaa", b"bb\0\0"))
        probe.send("f.p0.0", "parity.update", op("update", 9, 1, 0, delta, 2))
        record = p0.records[1]
        assert record.lengths == {0: 2}
        assert record.parity_bytes(p0.field)[:2] == b"bb"

    def test_delete_last_member_removes_record(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"abcd"))
        probe.send("f.p0.0", "parity.update", op("delete", 9, 1, 0, b"abcd", 0))
        assert 1 not in p0.records

    def test_delete_keeps_record_with_other_members(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        probe.send("f.p0.0", "parity.update", op("insert", 8, 1, 2, b"cd"))
        probe.send("f.p0.0", "parity.update", op("delete", 9, 1, 0, b"ab", 0))
        assert p0.records[1].keys == {2: 8}
        assert p0.records[1].parity_bytes(p0.field) == b"cd"

    def test_batch(self, setup):
        _, p0, _, probe = setup
        probe.send(
            "f.p0.0", "parity.batch",
            {"ops": [op("insert", 9, 1, 0, b"ab"), op("insert", 8, 2, 1, b"cd")]},
        )
        assert set(p0.records) == {1, 2}

    def test_multi_delta_block(self, setup):
        _, p0, _, probe = setup
        block = {
            "block": "insert", "pos": 2, "seq0": 1, "keys": [9, 8, 7],
            "ranks": [3, 1, 2], "deltas": [b"ab", b"", b"cdef"],
            "lengths": [2, 0, 4],
        }
        reply = probe.call("f.p0.0", "parity.update", block)
        assert reply == {"status": "applied"}
        assert p0._expected_seq == {2: 4}
        assert p0._key_index == {9: (3, 2), 8: (1, 2), 7: (2, 2)}
        assert p0.records[2].parity_bytes(p0.field) == b"cdef"
        assert p0.symbol_ops == 6 and p0.xor_folds == 3

    def test_bad_position_rejected(self, setup):
        _, _, _, probe = setup
        with pytest.raises(ValueError):
            probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 7, b"ab"))

    def test_bad_action_rejected(self, setup):
        _, _, _, probe = setup
        with pytest.raises(ValueError, match="unknown parity op"):
            probe.send("f.p0.0", "parity.update", op("frobnicate", 9, 1, 0, b"ab"))

    def test_symbol_ops_counted(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"abcdef"))
        assert p0.symbol_ops == 6


class TestQueries:
    def test_locate_found_and_absent(self, setup):
        _, _, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 42, 3, 1, b"xy"))
        hit = probe.call("f.p0.0", "parity.locate", {"key": 42})
        assert hit["rank"] == 3 and hit["pos"] == 1
        assert probe.call("f.p0.0", "parity.locate", {"key": 99}) is None

    def test_rank_query(self, setup):
        _, _, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 42, 3, 1, b"xy"))
        snap = probe.call("f.p0.0", "parity.rank", {"rank": 3})
        assert snap["keys"] == {1: 42}
        assert probe.call("f.p0.0", "parity.rank", {"rank": 4}) is None

    def test_dump_and_load_roundtrip(self, setup):
        net, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 42, 3, 1, b"xy"))
        probe.send("f.p0.0", "parity.update", op("insert", 41, 2, 0, b"zw"))
        dump = probe.call("f.p0.0", "parity.dump")
        fresh = ParityServer("f.p0.9", "f", 0, 0, p0.row, p0.field)
        net.register(fresh)
        probe.send("f.p0.9", "parity.load", {"records": dump["records"]})
        assert set(fresh.records) == {2, 3}
        assert fresh.records[3].keys == {1: 42}

    def test_status(self, setup):
        _, _, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 42, 3, 1, b"xyz"))
        status = probe.call("f.p0.0", "status")
        assert status["records"] == 1
        assert status["parity_bytes"] == 3


class TestKeyIndex:
    """§4.1's in-bucket secondary index (key -> (rank, pos))."""

    def test_index_tracks_membership(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        probe.send("f.p0.0", "parity.update", op("insert", 8, 2, 1, b"cd"))
        assert p0._key_index == {9: (1, 0), 8: (2, 1)}
        probe.send("f.p0.0", "parity.update", op("delete", 9, 1, 0, b"ab", 0))
        assert p0._key_index == {8: (2, 1)}

    def test_index_rebuilt_on_load(self, setup):
        net, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 42, 3, 1, b"xy"))
        dump = probe.call("f.p0.0", "parity.dump")
        fresh = ParityServer("f.p0.7", "f", 0, 0, p0.row, p0.field)
        net.register(fresh)
        probe.send("f.p0.7", "parity.load", {"records": dump["records"]})
        assert fresh._key_index == {42: (3, 1)}
        assert probe.call("f.p0.7", "parity.locate", {"key": 42})["rank"] == 3
        assert probe.call("f.p0.7", "parity.locate", {"key": 42})["pos"] == 1

    def test_locate_uses_index_consistently(self, setup):
        """Index answers must match a full scan of the records."""
        _, p0, _, probe = setup
        for i, key in enumerate((10, 11, 12, 13)):
            probe.send("f.p0.0", "parity.update",
                       op("insert", key, i + 1, i % 4, b"zz"))
        for key in (10, 11, 12, 13):
            hit = probe.call("f.p0.0", "parity.locate", {"key": key})
            scan_hit = next(
                (rank for rank, rec in p0.records.items()
                 if key in rec.keys.values()),
                None,
            )
            assert hit["rank"] == scan_hit


class TestCrashConsistency:
    """A Δ-fold that dies mid-apply must leave no half-born state.

    The fold's scatter allocates store rows for fresh ranks *before*
    XOR-ing into them, and the directories and ``_key_index`` are only
    updated after.  A crash in between used to strand an allocated
    record that ``parity.locate`` and ``parity.dump`` could see with no
    keys — these tests inject the crash inside the scatter kernel,
    right after its row allocation, and pin the rollback.
    """

    def make_server(self):
        net = Network()
        field = GF(8)
        row = parity_matrix(field, 4, 1).row(0)
        server = ParityServer("f.p0.0", "f", group=0, index=0, row=row,
                              field=field)
        probe = Probe("probe")
        net.register(server)
        net.register(probe)
        return server, probe

    @pytest.fixture
    def layout(self, monkeypatch):
        server, probe = self.make_server()
        armed = {"on": False}
        real = StripeStore._reserve

        def explode(store, *args, **kwargs):
            real(store, *args, **kwargs)
            if armed["on"]:
                raise RuntimeError("simulated crash during fold")

        monkeypatch.setattr(StripeStore, "_reserve", explode)
        return server, probe, armed

    def test_crash_on_fresh_rank_leaves_locate_consistent(self, layout):
        server, probe, armed = layout
        armed["on"] = True
        with pytest.raises(RuntimeError, match="simulated crash"):
            probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        # No half-born record anywhere recovery looks.
        assert 1 not in server.records
        assert 9 not in server._key_index
        assert probe.call("f.p0.0", "parity.locate", {"key": 9}) is None
        assert probe.call("f.p0.0", "parity.dump")["records"] == []
        assert 1 not in server._store
        # The bucket still works: a clean retry of the same op succeeds.
        armed["on"] = False
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        assert probe.call("f.p0.0", "parity.locate", {"key": 9})["rank"] == 1
        assert server.records[1].parity_bytes(server.field) == b"ab"

    def test_crash_on_existing_rank_keeps_old_record_intact(self, layout):
        server, probe, armed = layout
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        before = server.records[1].parity_bytes(server.field)
        armed["on"] = True
        with pytest.raises(RuntimeError):
            probe.send("f.p0.0", "parity.update", op("insert", 8, 1, 1, b"cd"))
        armed["on"] = False
        record = server.records[1]
        assert record.keys == {0: 9}
        assert 8 not in server._key_index
        assert record.parity_bytes(server.field) == before

    def test_unknown_action_rejected_before_any_fold(self):
        """Validation precedes mutation: a bad action folds nothing."""
        server, probe = self.make_server()
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        before = server.records[1].parity_bytes(server.field)
        ops_before = server.symbol_ops
        with pytest.raises(ValueError, match="unknown parity op"):
            probe.send("f.p0.0", "parity.update",
                       op("frobnicate", 8, 1, 1, b"cd"))
        assert server.records[1].parity_bytes(server.field) == before
        assert server.symbol_ops == ops_before
        assert 2 not in server.records
        with pytest.raises(ValueError):
            probe.send("f.p0.0", "parity.update",
                       op("frobnicate", 7, 2, 0, b"zz"))
        assert 2 not in server.records  # fresh rank not allocated either


class TestMalformedBlocks:
    """Every malformed block raises ValueError before any state moves:
    no fold, no channel advance, no counter, no store row."""

    def make_server(self):
        net = Network()
        field = GF(8)
        row = parity_matrix(field, 4, 2).row(1)
        server = ParityServer("f.p0.1", "f", group=0, index=1, row=row,
                              field=field)
        probe = Probe("probe")
        net.register(server)
        net.register(probe)
        probe.send("f.p0.1", "parity.update",
                   op("insert", 9, 1, 0, b"ab", seq0=1))
        return server, probe

    @staticmethod
    def state(server):
        return (
            {r: (dict(rec.keys), dict(rec.lengths),
                 rec.parity_bytes(server.field))
             for r, rec in server.records.items()},
            dict(server._key_index), dict(server._expected_seq),
            server.symbol_ops, server.xor_folds, server.general_folds,
            server.duplicates_skipped, server.gaps_detected, server.stale,
            server._store.ranks(),
        )

    @pytest.mark.parametrize("kind", ["parity.update", "parity.batch"])
    @pytest.mark.parametrize("defect, match", [
        ({"block": "upsert"}, "unknown parity op"),
        ({"pos": 4}, "outside"),
        ({"pos": -1}, "outside"),
        ({"lengths": [2]}, "columns"),
        ({"deltas": [b"cd", b"ef", b"gh"]}, "columns"),
        ({"ranks": [2, 2]}, "repeats a rank"),
    ], ids=["action", "pos-high", "pos-low", "ragged-lengths",
            "ragged-deltas", "duplicate-ranks"])
    def test_rejected_before_mutation(self, kind, defect, match):
        server, probe = self.make_server()
        block = {
            "block": "insert", "pos": 1, "seq0": 1, "keys": [7, 8],
            "ranks": [2, 3], "deltas": [b"cd", b"ef"], "lengths": [2, 2],
        }
        block.update(defect)
        before = self.state(server)
        payload = block if kind == "parity.update" else {"ops": [block]}
        with pytest.raises(ValueError, match=match):
            probe.call("f.p0.1", kind, payload)
        assert self.state(server) == before


def _block_streams():
    """Random Δ-block streams over a 3-position group: fresh blocks,
    exact retransmissions, partly overlapping resends, gaps and
    unsequenced blocks, with ranks reused across blocks."""
    block = st.fixed_dictionaries({
        "pos": st.integers(0, 2),
        "action": st.sampled_from(["insert", "insert", "update", "delete"]),
        "ranks": st.lists(st.integers(1, 6), min_size=1, max_size=4,
                          unique=True),
        "keys": st.lists(st.integers(0, 9), min_size=4, max_size=4),
        "deltas": st.lists(st.binary(max_size=7), min_size=4, max_size=4),
        "lengths": st.lists(st.integers(0, 7), min_size=4, max_size=4),
        "seq": st.sampled_from(
            ["next", "next", "next", "resend", "overlap", "gap", "none"]
        ),
        "back": st.integers(1, 3),
        "kind": st.sampled_from(["parity.update", "parity.batch"]),
    })
    return st.lists(block, min_size=1, max_size=25)


class TestFoldMatchesOracle:
    """The block fold against the scalar per-Δ oracle
    (:mod:`tests.core.parity_oracle`), block by block."""

    @settings(max_examples=60, deadline=None)
    @given(width=st.sampled_from([8, 16]), index=st.sampled_from([0, 1]),
           stream=_block_streams())
    def test_block_fold_equals_scalar_fold(self, width, index, stream):
        field = GF(width)
        row = parity_matrix(field, 3, index + 1).row(index)
        net = Network()
        server = ParityServer("f.p0.0", "f", group=0, index=index, row=row,
                              field=field)
        probe = Probe("probe")
        net.register(server)
        net.register(probe)
        oracle = ParityOracle(row, field)
        next_seq = {pos: 1 for pos in range(3)}
        for draw in stream:
            n = len(draw["ranks"])
            pos = draw["pos"]
            mode = draw["seq"]
            if mode == "none":
                seq0 = None
            elif mode == "gap":
                seq0 = next_seq[pos] + draw["back"]
            elif mode in ("resend", "overlap") and next_seq[pos] > 1:
                seq0 = max(1, next_seq[pos] - draw["back"])
                if mode == "overlap":
                    next_seq[pos] = max(next_seq[pos], seq0 + n)
            else:
                seq0 = next_seq[pos]
                next_seq[pos] += n
            block = {
                "block": draw["action"], "pos": pos, "seq0": seq0,
                "keys": draw["keys"][:n], "ranks": draw["ranks"],
                "deltas": draw["deltas"][:n],
                "lengths": draw["lengths"][:n],
            }
            verdict, applied = oracle.fold_block(block)
            if draw["kind"] == "parity.update":
                reply = probe.call("f.p0.0", "parity.update", block)
                assert reply["status"] == verdict
            else:
                reply = probe.call("f.p0.0", "parity.batch",
                                   {"ops": [block]})
                assert reply["applied"] == applied
                assert reply["status"] == (
                    "stale" if verdict == "stale" else "applied"
                )
            if verdict == "stale":
                # the oracle's channel stays put; so does the server's,
                # and the sender's counter resumes at the expectation
                next_seq[pos] = oracle._expected_seq.get(pos, 1)
            assert {
                rank: (rec.keys, rec.lengths, rec.parity_bytes(field))
                for rank, rec in server.records.items()
            } == {
                rank: (rec.keys, rec.lengths, rec.parity_bytes(field))
                for rank, rec in oracle.records.items()
            }
            assert server._store.ranks() == sorted(oracle.records)
            for name in ("_key_index", "_expected_seq", "symbol_ops",
                         "xor_folds", "general_folds", "duplicates_skipped",
                         "gaps_detected", "stale"):
                assert getattr(server, name) == getattr(oracle, name), name


class TestStoreViewLifecycle:
    """Stripe-store rows across record churn and reloads."""

    def make_server(self):
        net = Network()
        field = GF(8)
        row = parity_matrix(field, 4, 1).row(0)
        server = ParityServer("f.p0.0", "f", group=0, index=0, row=row,
                              field=field)
        probe = Probe("probe")
        net.register(server)
        net.register(probe)
        return server, probe

    def test_deleted_rank_view_raises(self):
        server, probe = self.make_server()
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        probe.send("f.p0.0", "parity.update", op("delete", 9, 1, 0, b"ab", 0))
        assert 1 not in server._store
        with pytest.raises(KeyError):
            server._store.length_of(1)
        assert server._store.row_bytes() == {}

    def test_load_refreshes_views_and_drops_old_ranks(self):
        server, probe = self.make_server()
        probe.send("f.p0.0", "parity.update", op("insert", 9, 5, 0, b"old!"))
        dump = probe.call("f.p0.0", "parity.dump")
        assert [r["rank"] for r in dump["records"]] == [5]

        # Replace the content wholesale (the merge/recovery reload path).
        probe.send("f.p0.0", "parity.load", {
            "records": [{"rank": 2, "keys": {1: 42}, "lengths": {1: 4},
                         "parity": b"newp"}],
        })
        assert set(server.records) == {2}
        with pytest.raises(KeyError):
            server._store.length_of(5)
        assert probe.call("f.p0.0", "parity.locate", {"key": 9}) is None
        # The surviving record reads its symbols from the new store, and
        # later folds land in it.
        record = server.records[2]
        assert record.parity_bytes(server.field) == b"newp"
        assert np.shares_memory(record.symbols, server._store.matrix)
        probe.send("f.p0.0", "parity.update", op("insert", 7, 2, 0, b"ab"))
        assert server._store.row_bytes()[2] == record.parity_bytes(server.field)
        assert record.parity_bytes(server.field) != b"newp"


class TestNestedRows:
    def test_rows_nested_across_k(self):
        """Row i of the (m, k) Cauchy parity matrix is independent of k —
        raising availability never re-keys existing parity buckets."""
        field = GF(8)
        for m in (2, 4, 8):
            for i in range(3):
                rows = [
                    parity_matrix(field, m, k).row(i) for k in range(i + 1, 5)
                ]
                assert all(r == rows[0] for r in rows)
