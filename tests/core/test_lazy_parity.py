"""Tests of the batched (lazy) parity mode and its vulnerability window."""

import pytest

from repro.core import LHRSConfig, LHRSFile
from repro.sim.rng import make_rng


def build(batch=4, k=1, capacity=8, count=200, seed=12):
    file = LHRSFile(
        LHRSConfig(
            group_size=4, availability=k, bucket_capacity=capacity,
            parity_batch_size=batch,
        )
    )
    rng = make_rng(seed)
    keys = [int(x) for x in rng.choice(10**9, size=count, replace=False)]
    for key in keys:
        file.insert(key, key.to_bytes(8, "big"))
    return file, keys


class TestLazyMode:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            LHRSConfig(parity_batch_size=0)

    def test_flush_restores_consistency(self):
        file, _ = build(batch=8)
        # Mid-stream, some queues are non-empty -> oracle sees staleness.
        queued = sum(len(s._parity_queue) for s in file.data_servers())
        if queued == 0:
            file.insert(10**9 + 1, b"force-a-queue-entry")
        file.flush_all_parity()
        assert file.verify_parity_consistency() == []
        assert all(not s._parity_queue for s in file.data_servers())

    def test_amortized_mutation_cost(self):
        """B-batching takes the steady-state cost from 1+k toward 1+k/B."""
        costs = {}
        for batch in (1, 4):
            file, keys = build(batch=batch, k=2, capacity=16, count=400)
            for key in keys:
                file.search(key)  # converge
            state = file.coordinator.state
            safe = [
                key for key in keys
                if file.client.image.address(key) == state.address(key)
            ][:120]
            with file.stats.measure("w") as window:
                for key in safe:
                    file.update(key, b"u" * 8)
            costs[batch] = window.messages / len(safe)
        assert costs[1] == pytest.approx(3.0, abs=0.3)
        assert costs[4] < costs[1] - 0.8  # ~1 + 2/4 = 1.5 plus noise

    def test_crash_loses_at_most_queue(self):
        """The vulnerability window: unflushed mutations on the crashed
        bucket revert; everything flushed survives."""
        file, keys = build(batch=64, k=1, capacity=32, count=120)
        file.flush_all_parity()
        victim_bucket = 0
        victims = [k for k in keys if file.find_bucket_of(k) == victim_bucket]
        flushed_value = victims[0].to_bytes(8, "big")
        # Mutate after the flush: this update sits in the queue only.
        file.update(victims[0], b"unflushed-update!")
        server = file.data_servers()[victim_bucket]
        assert server._parity_queue  # still queued
        node = file.fail_data_bucket(victim_bucket)
        file.recover([node])
        # The record reverted to its last-flushed state...
        outcome = file.search(victims[0])
        assert outcome.found
        assert outcome.value == flushed_value
        # ...and the file is self-consistent again.
        assert file.verify_parity_consistency() == []

    def test_survivors_flushed_before_decode(self):
        """Queued Δs on *surviving* group members must not corrupt the
        decode of a lost sibling."""
        file, keys = build(batch=64, k=1, capacity=32, count=120)
        file.flush_all_parity()
        # Queue fresh mutations on the survivors (buckets 1..3).
        for bucket in (1, 2, 3):
            sample = [k for k in keys if file.find_bucket_of(k) == bucket][:3]
            for key in sample:
                file.update(key, b"queued-on-survivor")
        victims = {
            k: file.search(k).value
            for k in keys if file.find_bucket_of(k) == 0
        }
        node = file.fail_data_bucket(0)
        file.recover([node])
        for key, value in victims.items():
            assert file.search(key).value == value
        assert file.verify_parity_consistency() == []

    def test_degraded_read_sees_flushed_state(self):
        file, keys = build(batch=16, k=1, capacity=32, count=120)
        file.flush_all_parity()
        target = next(k for k in keys if file.find_bucket_of(k) == 2)
        file.fail_data_bucket(2)
        found, payload = file.recover_record(target)
        assert found and payload == target.to_bytes(8, "big")

    def test_degraded_read_flushes_rank_mates_first(self):
        """A survivor's queued Δ at the lost record's rank must reach
        the parity before the degraded read decodes against it."""
        file = LHRSFile(LHRSConfig(
            group_size=4, availability=1, bucket_capacity=64,
            parity_batch_size=4,
        ))
        for key in range(8):
            file.insert(key, b"v%d" % key)
        file.flush_all_parity()
        # keys 0 and 1 share rank 1 in buckets 0 and 1
        file.update(0, b"changed")
        assert file.network.nodes["f.d0"]._parity_queue
        file.failures.crash(["f.d1"])
        outcome = file.search(1)
        assert outcome.found and outcome.value == b"v1"

    def test_structural_ops_flush_first(self):
        """Splits flush the queue so ordering stays FIFO at parity."""
        file, _ = build(batch=64, k=1, capacity=8, count=60)
        # Some queue entries exist; force a split.
        file.coordinator.split_once()
        file.flush_all_parity()
        assert file.verify_parity_consistency() == []

    def test_explicit_flush_handler(self):
        file, _ = build(batch=64, k=1, capacity=32, count=30)
        server = next(s for s in file.data_servers() if s._parity_queue)
        reply = file.client.call(server.node_id, "parity.flush")
        assert reply["flushed"] > 0
        assert not server._parity_queue
