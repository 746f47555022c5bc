"""Bulk scatter-gather data plane: batched ops ≡ scalar ops.

The batch plane's contract is *not* "same result as looping in
submission order" — re-binning refused sub-batches changes the order
in which ops reach their buckets, which legitimately shifts split
timing.  The contract is stronger where it matters and precise where
it must be:

* **Replay equivalence** — applying the ops of every batch in the
  batch's actual confirmation order (``BatchOutcome.applied_order``)
  through a scalar-only file produces a byte-identical file: same
  bucket layout, same records, same ranks, same parity symbols.  The
  vectorized bulk-apply runs, the coalesced ``parity.batch`` folds and
  the O(moves) ``_compact`` are all invisible.
* **A batch of one is the scalar op** — a one-op ``*_many`` call
  sends the scalar message, so E3's 1 + k holds for it.
* **Exactly-once under faults** — dropped/duplicated ``ops.batch`` and
  ``parity.batch`` messages leave the file logically correct and
  parity-consistent (per-(data, position) sequence numbers).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LHRSConfig, LHRSFile
from repro.sdds.client import OperationFailed
from repro.sim import FaultPlane

KEYS = st.integers(min_value=0, max_value=300)
PAYLOADS = st.binary(min_size=0, max_size=24)


def _cfg(m=2, k=2, capacity=8, compact=True, **kw) -> LHRSConfig:
    return LHRSConfig(
        group_size=m,
        availability=k,
        bucket_capacity=capacity,
        compact_ranks=compact,
        **kw,
    )


def _parity_snapshot(file: LHRSFile) -> dict:
    """{parity node -> {rank -> (keys, lengths, normalized symbols)}}.

    Parity byte strings are right-stripped of zero padding: a record
    that grew through a longer intermediate value keeps trailing zero
    symbols a never-grown twin lacks, and zero symbols carry no data.
    """
    snap = {}
    for node_id in sorted(file.network.nodes):
        if ".p" not in node_id:
            continue
        node = file.network.nodes[node_id]
        if not hasattr(node, "records"):
            continue
        snap[node_id] = {
            rank: (
                dict(record.keys),
                dict(record.lengths),
                record.parity_bytes(node.field).rstrip(b"\0"),
            )
            for rank, record in node.records.items()
        }
    return snap


def _apply_batches(file: LHRSFile, batches) -> list[list[int]]:
    """Run each batch through the ``*_many`` plane; return apply orders."""
    orders = []
    for kind, items in batches:
        if kind == "insert":
            out = file.insert_many(items)
        elif kind == "update":
            out = file.update_many(items)
        elif kind == "delete":
            out = file.delete_many(items)
        else:
            out = file.search_many(items)
        assert out.ok, f"{kind} batch failed for keys {out.failed_keys}"
        assert sorted(out.applied_order) == list(range(len(items)))
        orders.append(out.applied_order)
    return orders


def _replay_scalar(file: LHRSFile, batches, orders) -> None:
    """Apply the same ops scalar-style, in the batches' apply order."""
    for (kind, items), order in zip(batches, orders):
        for idx in order:
            item = items[idx]
            try:
                if kind == "insert":
                    file.insert(*item)
                elif kind == "update":
                    file.update(*item)
                elif kind == "delete":
                    file.delete(item)
                else:
                    file.search(item)
            except OperationFailed:
                pass  # upsert-of-absent surfaces as an error; op applied


def _batches_strategy():
    pairs = st.lists(st.tuples(KEYS, PAYLOADS), min_size=1, max_size=40)
    keys = st.lists(KEYS, min_size=1, max_size=40)
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), pairs),
            st.tuples(st.just("update"), pairs),
            st.tuples(st.just("delete"), keys),
            st.tuples(st.just("search"), keys),
        ),
        min_size=1,
        max_size=5,
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    batches=_batches_strategy(),
    m=st.sampled_from([2, 4]),
    k=st.sampled_from([1, 2]),
    compact=st.booleans(),
)
def test_batched_ops_equal_scalar_replay(batches, m, k, compact):
    """Byte-equality oracle, including mid-batch splits (capacity 8
    with up to 200 inserts forces splits *inside* ``insert_many``)."""
    batched = LHRSFile(_cfg(m=m, k=k, compact=compact))
    orders = _apply_batches(batched, batches)
    batched.flush_all_parity()

    scalar = LHRSFile(_cfg(m=m, k=k, compact=compact))
    _replay_scalar(scalar, batches, orders)
    scalar.flush_all_parity()

    assert batched.census_with_ranks() == scalar.census_with_ranks()
    assert _parity_snapshot(batched) == _parity_snapshot(scalar)
    assert batched.verify_parity_consistency() == []
    assert scalar.verify_parity_consistency() == []


def test_batched_growth_scenario_equals_scalar_replay():
    """A deterministic end-to-end pass (the hypothesis test shrunk):
    bulk load → bulk upsert → bulk delete across many splits."""
    items = [(k, bytes([k % 251]) * (4 + k % 7)) for k in range(150)]
    batches = [
        ("insert", items),
        ("update", [(k, b"u" * (3 + k % 5)) for k, _ in items[::3]]),
        ("search", [k for k, _ in items[::4]]),
        ("delete", [k for k, _ in items[::5]]),
    ]
    batched = LHRSFile(_cfg(m=4, k=2, capacity=8))
    orders = _apply_batches(batched, batches)
    batched.flush_all_parity()

    scalar = LHRSFile(_cfg(m=4, k=2, capacity=8))
    _replay_scalar(scalar, batches, orders)
    scalar.flush_all_parity()

    assert batched.bucket_count > 4  # splits actually happened mid-batch
    assert batched.census_with_ranks() == scalar.census_with_ranks()
    assert _parity_snapshot(batched) == _parity_snapshot(scalar)


def test_batch_plane_uses_fewer_messages():
    """The point of the PR: one ``ops.batch`` per bucket replaces one
    round trip per record."""
    items = [(k, b"payload-%d" % k) for k in range(128)]

    batched = LHRSFile(_cfg(m=4, k=2, capacity=512))
    out = batched.insert_many(items)
    assert out.ok and out.batched_ops == len(items) and out.scalar_ops == 0
    batched_msgs = batched.stats.total.by_kind.get("ops.batch", 0)

    scalar = LHRSFile(_cfg(m=4, k=2, capacity=512))
    for k, v in items:
        scalar.insert(k, v)

    assert batched_msgs <= 4  # one call per addressed bucket
    assert out.messages <= 2 * batched_msgs
    assert scalar.stats.total.by_kind.get("insert", 0) == len(items)


def test_dropped_and_duplicated_batches_apply_exactly_once():
    """Per-(data, position) sequence numbers + retry ladder: the batch
    plane survives the chaos rules mutations get in the soak tests."""
    config = _cfg(
        m=4, k=2, capacity=8,
        parity_ack=True, retry_attempts=8, retry_backoff_base=0.25,
    )
    file = LHRSFile(config)
    plane = FaultPlane(rng=np.random.default_rng(11))
    plane.add_rule(
        kinds={"ops.batch", "parity.batch"},
        drop=0.05, fail=0.05, duplicate=0.15,
    )
    file.network.install_fault_plane(plane)

    oracle: dict[int, bytes] = {}
    items = [(k, b"v-%d" % k) for k in range(120)]
    out = file.insert_many(items)
    assert out.ok
    oracle.update(items)
    updates = [(k, b"u-%d" % k) for k, _ in items[::2]]
    out = file.update_many(updates)
    assert out.ok
    oracle.update(updates)
    deletes = [k for k, _ in items[::3]]
    out = file.delete_many(deletes)
    assert out.ok
    for key in deletes:
        oracle.pop(key, None)

    file.flush_all_parity()
    assert plane.counters["duplicated"] > 0
    assert plane.counters["dropped"] + plane.counters["failed"] > 0

    logical = {
        key: value
        for bucket in file.census_with_ranks().values()
        for key, (_, value) in bucket.items()
    }
    assert logical == oracle
    assert file.verify_parity_consistency() == []


class TestRankIndex:
    """The rank→key reverse index behind the O(moves) ``_compact``."""

    @staticmethod
    def _servers(file):
        return [
            file.network.nodes[f"f.d{m}"]
            for m in range(file.bucket_count)
        ]

    def _assert_index_consistent(self, file):
        for server in self._servers(file):
            assert server._rank_to_key == {
                rank: key for key, rank in server.ranks.items()
            }

    def test_index_mirrors_ranks_through_restructuring(self):
        file = LHRSFile(_cfg(m=4, k=2, capacity=8))
        file.insert_many([(k, b"x%d" % k) for k in range(200)])
        self._assert_index_consistent(file)
        file.delete_many(list(range(0, 200, 2)))
        self._assert_index_consistent(file)
        while file.bucket_count > 8:
            file.rs_coordinator.merge_once()
        self._assert_index_consistent(file)
        file.insert_many([(k, b"y%d" % k) for k in range(200, 320)])
        self._assert_index_consistent(file)
        assert file.verify_parity_consistency() == []

    def test_compact_keeps_ranks_dense(self):
        file = LHRSFile(_cfg(m=2, k=1, capacity=32))
        for key in range(24):
            file.insert(key, b"r%d" % key)
        for key in range(0, 24, 3):
            file.delete(key)
        for server in self._servers(file):
            ranks = sorted(server.ranks.values())
            # dense {1..size} again after every delete's compaction
            assert ranks == list(range(1, len(ranks) + 1))
        self._assert_index_consistent(file)


class TestArithmeticSizes:
    """The batch plane pre-computes message sizes arithmetically
    (``size=`` on send/call) instead of letting the envelope walk the
    payload.  Every pre-computed size must equal what
    :func:`~repro.sim.messages.estimate_size` would have produced —
    otherwise the latency/stats model silently drifts between the batch
    and scalar arms."""

    def test_precomputed_sizes_match_estimator(self, monkeypatch):
        from repro.sim import messages as msgs

        checked = {"count": 0, "kinds": set(), "actions": set(),
                   "singles": 0, "mixed": 0}
        orig = msgs.Message.__post_init__

        def checking(self):
            if self.size:
                expected = msgs.HEADER_BYTES + msgs.estimate_size(
                    self.payload
                )
                assert self.size == expected, (
                    f"{self.kind}: precomputed {self.size} != "
                    f"estimated {expected}"
                )
                checked["count"] += 1
                checked["kinds"].add(self.kind)
                if self.kind.startswith("parity."):
                    blocks = self.payload.get("ops", [self.payload])
                    actions = {block["block"] for block in blocks}
                    checked["actions"] |= actions
                    checked["mixed"] += len(actions) > 1
                    checked["singles"] += sum(
                        len(block["keys"]) == 1 for block in blocks
                    )
            orig(self)

        monkeypatch.setattr(msgs.Message, "__post_init__", checking)

        # Small capacity: splits land mid-batch, so structural delete
        # and insert blocks ride alongside the vectorized insert/update
        # blocks and the batch's per-op delete blocks (mixed batches);
        # the scalar ops at the end send blocks of one as parity.update.
        file = LHRSFile(_cfg(m=4, k=2, capacity=8))
        items = [(k, bytes([k % 251]) * (k % 17)) for k in range(120)]
        assert file.insert_many(items).ok
        assert file.update_many(
            [(k, b"x" * (k % 11)) for k, _ in items[:60]]
        ).ok
        assert file.delete_many([k for k, _ in items[::3]]).ok
        assert file.search_many([k for k, _ in items[:40]]).ok
        file.insert(500, b"scalar")
        file.update(500, b"scalar, longer")
        file.delete(500)

        assert checked["count"] > 0
        assert "ops.batch" in checked["kinds"]
        assert "parity.batch" in checked["kinds"]
        assert "parity.update" in checked["kinds"]
        assert checked["actions"] == {"insert", "update", "delete"}
        assert checked["singles"] > 0 and checked["mixed"] > 0
