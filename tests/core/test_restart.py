"""Restart-with-catch-up: durable buckets rejoin from their own disk.

The tentpole's service-level contract, pinned end to end:

* a crashed bucket replays checkpoint + WAL to its durable prefix,
  reports per-channel sequence high-water to the coordinator, and
  fetches only the missed tail (delta catch-up) — no acked op is lost
  even when the WAL's unsynced tail died with the crash;
* a WAL that is torn, bit-rotted, or behind what the survivors demand
  falls back to the full RS rebuild, loudly (`catchup.fallback`);
* epoch fencing: a restarted bucket whose incarnation does not match
  the coordinator's fence can never serve reads or accept Δs — clients
  route around it through the degraded path until catch-up completes;
* `heal()` routes restored nodes through the rejoin handshake;
  `force=True` keeps the legacy silent-restore semantics;
* in-flight payload corruption (the `corrupt` fault mode) is caught by
  the algebraic-signature audit and healed by `repair_corruption`;
* with every durability knob off, traces stay byte-identical run to
  run and contain no durable-plane event types at all.
"""

import numpy as np
import pytest

from repro.core import LHRSConfig, LHRSFile
from repro.sdds.client import OperationFailed
from repro.sim import FaultPlane


def build(durability=True, count=40, k=2, capacity=16, observe=True, **kw):
    config = LHRSConfig(
        group_size=4,
        availability=k,
        bucket_capacity=capacity,
        parity_ack=True,
        client_acks=True,
        durability=durability,
        **kw,
    )
    file = LHRSFile(config)
    tracer = None
    if observe:
        tracer, _, _ = file.enable_observability()
    for key in range(count):
        file.insert(key, b"v%d" % key)
    return file, tracer


def assert_all_readable(file, count=40):
    for key in range(count):
        outcome = file.search(key)
        assert outcome.found and outcome.value == b"v%d" % key, key


class TestDataRestartCatchUp:
    def test_clean_restart_catches_up_without_rebuild(self):
        file, tracer = build()
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        server = file.network.nodes["f.d1"]
        assert not server.fenced
        assert tracer.counts.get("bucket.restart") == 1
        assert tracer.counts.get("catchup.data") == 1
        assert tracer.counts.get("catchup.fallback") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []

    def test_unsynced_wal_tail_refetched_from_parity(self):
        """fsync_interval > 1: the crash eats acked appends beyond the
        last barrier; the restarted bucket must pull exactly that missed
        tail back from the parity Δ-history — zero acked ops lost."""
        file, tracer = build(wal_fsync_interval=8)
        file.failures.crash(["f.d2"])
        file.failures.heal(["f.d2"])
        assert tracer.counts.get("catchup.data") == 1
        assert tracer.counts.get("catchup.fallback") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []

    def test_delta_channel_numbering_survives_restart(self):
        """After catch-up the bucket resumes its Δ-sequence past the
        high-water the parities saw — fresh mutations must not reuse or
        skip sequence numbers (either would wedge the channel)."""
        file, tracer = build(wal_fsync_interval=8)
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        for key in range(100, 115):
            file.insert(key, b"w%d" % key)
        for key in range(100, 115):
            outcome = file.search(key)
            assert outcome.found and outcome.value == b"w%d" % key
        assert file.verify_parity_consistency() == []
        # the fresh traffic went through the Δ channel, not a rebuild
        assert tracer.counts.get("catchup.fallback") is None

    def test_repeated_restarts_of_same_bucket(self):
        file, tracer = build(wal_fsync_interval=4)
        for round_ in range(3):
            file.failures.crash(["f.d0"])
            file.failures.heal(["f.d0"])
            file.insert(1000 + round_, b"r%d" % round_)
        assert tracer.counts.get("bucket.restart") == 3
        assert tracer.counts.get("catchup.fallback") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []


class TestParityRestartCatchUp:
    def test_parity_refetches_lost_wal_tail_from_data(self):
        """A parity that loses its unsynced Δ-fold tail pulls the
        original Δ ops back from the data buckets' histories."""
        file, tracer = build(wal_fsync_interval=16)
        before = dict(file.network.nodes["f.p0.0"]._expected_seq)
        file.failures.crash(["f.p0.0"])
        file.failures.heal(["f.p0.0"])
        server = file.network.nodes["f.p0.0"]
        assert not server.fenced and not server.stale
        assert dict(server._expected_seq) == before
        assert tracer.counts.get("catchup.parity") == 1
        assert tracer.counts.get("catchup.fallback") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []

    def test_parity_crashed_under_traffic_is_rebuilt_before_heal(self):
        """Mutations while a parity is down trip unavailability reports:
        the coordinator rebuilds it onto a spare long before the heal
        window closes, and the scheduled restore is then a no-op (the
        replacement must never be clobbered by a zombie rejoin)."""
        file, tracer = build()
        file.failures.crash(["f.p0.0"])
        for key in range(100, 120):
            file.insert(key, b"w%d" % key)
        file.failures.heal(["f.p0.0"])
        assert not file.network.nodes["f.p0.0"].stale
        assert file.verify_parity_consistency() == []
        assert_all_readable(file)


@pytest.mark.parametrize("node", ["f.d1", "f.p0.1"])
class TestFallbackToFullRebuild:
    """Both bucket kinds restart through the same durable plane, so each
    fallback is driven on a data and on a parity bucket."""

    def test_garbage_wal_tail_falls_back(self, node):
        """A WAL whose replay stops unclean (torn frame) cannot prove
        its durable prefix — the rejoin must take the full rebuild."""
        file, tracer = build()
        server = file.network.nodes[node]
        server._disk.append(server._wal.LOG, b"\x99\x07torn-frame-junk")
        server._disk.fsync(server._wal.LOG)
        file.failures.crash([node])
        file.failures.heal([node])
        assert tracer.counts.get("catchup.fallback") == 1
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []

    def test_bitrot_falls_back(self, node):
        # f.p0.1 exists only from k = 2 on
        file, tracer = build(k=1 if node == "f.d1" else 2, count=30)
        plane = FaultPlane(rng=np.random.default_rng(7))
        plane.add_disk_rule(node=node, bitrot=1.0, bitrot_flips=4)
        file.network.install_fault_plane(plane)
        file.failures.crash([node])
        file.failures.heal([node])
        assert tracer.counts.get("catchup.fallback") == 1
        assert tracer.counts.get("bucket.restart") == 1
        for key in range(30):
            outcome = file.search(key)
            assert outcome.found and outcome.value == b"v%d" % key
        assert file.verify_parity_consistency() == []

    def test_epoch_mismatch_forces_rebuild(self, node):
        """The incarnation fence: when the coordinator's epoch moved past
        what the restarted bucket persisted, its disk state is from a
        dead incarnation and must not be trusted — full rebuild."""
        file, tracer = build()
        catchup = "catchup.data" if node == "f.d1" else "catchup.parity"
        file.rs_coordinator._bucket_epochs[node] = 7
        file.failures.crash([node])
        file.failures.heal([node])
        assert tracer.counts.get("catchup.fallback") == 1
        assert tracer.counts.get(catchup) is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []


@pytest.mark.parametrize("node", ["f.d1", "f.p0.1"])
@pytest.mark.parametrize("write", ["checkpoint", "log"])
def test_disk_error_is_fail_stop(node, write):
    """A bucket that cannot write its disk crashes instead of running
    past the lost write; once the disk works again, the ordinary
    rebuild restores it."""
    from repro.sim.network import NodeUnavailable

    file, _ = build(observe=False)
    server = file.network.nodes[node]
    plane = FaultPlane(rng=np.random.default_rng(5))
    plane.add_disk_rule(node=node, io_error=1.0)
    file.network.install_fault_plane(plane)
    with pytest.raises(NodeUnavailable):
        if write == "checkpoint":
            server.checkpoint_now()
        else:
            server._log_entry({"ctl": "noop"})
    assert node in file.network.failed
    plane.clear_rules()
    file.recover([node])
    assert file.network.nodes[node] is not server
    assert_all_readable(file)
    assert file.verify_parity_consistency() == []


class TestReplayAdvancesDeltaSequence:
    """WAL replay restores the Δ sequence along with the records, so a
    restarted bucket reports its whole durable prefix."""

    def test_unshipped_lazy_deltas_survive_restart(self):
        """Lazy parity: Δs logged but still queued at the crash must be
        re-shipped after the restart, not dropped with the sequence
        rewound (which left the parity silently wrong)."""
        config = LHRSConfig(
            group_size=4, availability=1, bucket_capacity=64,
            durability=True, parity_batch_size=4,
        )
        file = LHRSFile(config)
        tracer, _, _ = file.enable_observability()
        for key in range(6):
            file.insert(key, b"v%d" % key)
        server = file.network.nodes["f.d1"]
        assert server._parity_queue  # logged, not shipped yet
        seq = server._parity_seq
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        (restart,) = [e for e in tracer.events if e.type == "bucket.restart"]
        assert restart.attrs["seq"] == seq
        file.flush_all_parity()
        assert file.verify_parity_consistency() == []
        for key in range(6):
            outcome = file.search(key)
            assert outcome.found and outcome.value == b"v%d" % key

    def test_clean_restart_rederives_no_record(self):
        """Eager parity, every append synced: replay already restored
        every key, so catch-up needs no record recovery at all."""
        file, tracer = build()
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        delivered = [
            e.attrs["kind"] for e in tracer.events if e.type == "msg.deliver"
        ]
        assert tracer.counts.get("catchup.data") == 1
        assert "parity.locate" not in delivered
        assert "record.fetch" not in delivered
        assert file.verify_parity_consistency() == []


@pytest.mark.parametrize("node", ["f.d1", "f.p0.0"])
@pytest.mark.parametrize("attempts", [1, 2, 6])
def test_rejoin_follows_the_retry_policy(node, attempts):
    """With the coordinator down, a restarted bucket of either kind
    tries the rejoin exactly ``retry_attempts`` times, then stays down
    for the probe sweep."""
    file, tracer = build(retry_attempts=attempts)
    file.failures.crash([node])
    file.fail_coordinator()
    file.failures.heal([node])
    sends = [
        e for e in tracer.events
        if e.type == "msg.send" and e.attrs["kind"] == "rejoin"
    ]
    assert len(sends) == attempts
    assert node in file.network.failed


class TestFencing:
    def test_fenced_bucket_refuses_reads_and_client_degrades(self):
        """An epoch-fenced bucket must never serve a read; the client
        forwards the fenced refusal and the coordinator answers through
        parity reconstruction — without rebuilding the live node."""
        file, tracer = build()
        server = file.network.nodes["f.d1"]
        victim = next(
            key for key in range(40)
            if file.find_bucket_of(key) == server.number
        )
        server.fenced = True
        try:
            outcome = file.search(victim)
        finally:
            server.fenced = False
        assert outcome.found and outcome.value == b"v%d" % victim
        # the node was fenced, not dead: no rebuild happened
        assert file.network.nodes["f.d1"] is server
        assert tracer.counts.get("client.unavailable") == 1

    def test_fenced_parity_refuses_deltas(self):
        from repro.sim.network import NodeUnavailable

        file, _ = build()
        server = file.network.nodes["f.p0.1"]
        server.fenced = True
        with pytest.raises(NodeUnavailable) as exc:
            file.network.call(
                "f.coord", "f.p0.1", "parity.dump", {}
            )
        assert getattr(exc.value, "fenced", False)
        # the status probe must keep working on a fenced node
        reply = file.network.call("f.coord", "f.p0.1", "status")
        assert reply["fenced"] and reply["group"] == 0
        server.fenced = False


class TestHealRestoreRouting:
    def test_heal_refuses_nodes_it_did_not_fail(self):
        file, _ = build()
        node = file.fail_data_bucket(1)
        with pytest.raises(ValueError):
            file.failures.heal([node])
        file.failures.heal([node], force=True)
        assert_all_readable(file)

    def test_force_heal_is_silent_legacy_restore(self):
        """force=True must bypass the rejoin handshake entirely: the
        node resurrects with its RAM state intact, exactly the
        pre-durability restore semantics."""
        file, tracer = build()
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"], force=True)
        assert tracer.counts.get("bucket.restart") is None
        assert tracer.counts.get("catchup.data") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []

    def test_nondurable_heal_keeps_legacy_silence(self):
        """With durability off there is no disk to replay: a normal
        heal behaves exactly like the legacy silent restore."""
        file, tracer = build(durability=False)
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        assert tracer.counts.get("bucket.restart") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []


class TestCorruptDeliveryAuditRepair:
    def test_inflight_corruption_detected_localized_repaired(self):
        """`corrupt` fault mode end to end: a Δ arrives with flipped
        bytes, the signature audit localizes the poisoned parity
        column, and repair_corruption rebuilds it from the clean
        remainder."""
        file, _ = build(durability=False, count=30, observe=False)
        plane = FaultPlane(rng=np.random.default_rng(13))
        plane.add_rule(
            kinds={"parity.update"}, recipient="f.p0.0", corrupt=1.0
        )
        file.network.install_fault_plane(plane)
        victim = next(
            key for key in range(30) if file.find_bucket_of(key) < 4
        )
        file.update(victim, b"poisoned-delta-payload")
        plane.clear_rules()
        assert plane.counters["corrupted"] >= 1

        report = file.audit_group(0)
        assert not report["clean"]
        m = file.config.group_size
        positions = {
            pos for pos in report["suspects"].values() if pos is not None
        }
        assert positions == {m + 0}  # parity column 0, localized
        file.repair_corruption(0, m + 0)
        assert file.audit_group(0)["clean"]
        assert file.verify_parity_consistency() == []
        outcome = file.search(victim)
        assert outcome.found and outcome.value == b"poisoned-delta-payload"


class TestKnobsOffTraces:
    @staticmethod
    def _run_workload(durability):
        config = LHRSConfig(
            group_size=4, availability=2, bucket_capacity=8,
            parity_ack=True, client_acks=True, durability=durability,
        )
        file = LHRSFile(config)
        tracer, _, _ = file.enable_observability()
        rng = np.random.default_rng(3)
        for i in range(300):
            key = int(rng.integers(0, 120))
            roll = rng.random()
            if roll < 0.5:
                file.insert(key, b"x%d" % i)
            elif roll < 0.7:
                file.delete(key)
            else:
                file.search(key)
        return tracer.to_jsonl()

    def test_durability_off_is_byte_identical_run_to_run(self):
        first = self._run_workload(False)
        assert first == self._run_workload(False)
        for event in ("disk.checkpoint", "bucket.restart", "catchup."):
            assert event not in first

    def test_durability_on_stays_deterministic(self):
        assert self._run_workload(True) == self._run_workload(True)


class TestRestartSoak:
    def test_soak_with_crash_restart_windows(self):
        """Crash windows close through the rejoin handshake while the
        workload runs: every acked write must survive the restarts."""
        file, tracer = build(count=0, wal_fsync_interval=4)
        injector = file.failures
        victims = ["f.d0", "f.d1", "f.d2", "f.p0.0", "f.p0.1"]
        for w, at in enumerate(range(80, 500, 60)):
            injector.schedule_crash(
                victims[w % len(victims)], at=float(at), duration=40.0
            )

        rng = np.random.default_rng(17)
        oracle: dict[int, bytes] = {}
        ambiguous: set[int] = set()
        for t in range(400):
            key = int(rng.integers(0, 150))
            roll = float(rng.random())
            try:
                if roll < 0.55:
                    value = b"s%d-%d" % (t, key)
                    file.insert(key, value)
                    oracle[key] = value
                    ambiguous.discard(key)
                elif roll < 0.75:
                    file.delete(key)
                    oracle.pop(key, None)
                    ambiguous.discard(key)
                else:
                    file.search(key)
            except OperationFailed:
                if roll < 0.75:
                    ambiguous.add(key)

        net = file.network
        while injector.pending_events:
            net.advance(60.0)
        net.advance(60.0)
        entries = file.rs_coordinator.run_probe_cycle(rounds=3)
        assert entries[-1]["unavailable"] == []

        assert file.verify_parity_consistency() == []
        for key, value in oracle.items():
            if key in ambiguous:
                continue
            outcome = file.search(key)
            assert outcome.found and outcome.value == value, key
        # restarts really happened (windows closed through the
        # handshake, not through report-driven rebuilds alone)
        assert tracer.counts.get("bucket.restart", 0) >= 1


class TestDurableGrowth:
    """Durable files keep working as they grow through many splits.

    Regression: a checkpoint falling due inside a split — the movers'
    ranks already released, the movers still in the bucket — raised
    ``KeyError`` in ``RSDataServer.checkpoint_now`` (after ~1,000
    sequential inserts at the default interval, ~128 at intervals 4
    and 16).  Checkpoints now wait for the outermost handler boundary.
    """

    @staticmethod
    def grown_file(interval, **kw):
        if interval is not None:
            kw["durability_checkpoint_interval"] = interval
        return LHRSFile(LHRSConfig(
            group_size=4, availability=2, bucket_capacity=32,
            durability=True, **kw,
        ))

    @pytest.mark.parametrize("interval", [None, 4, 16],
                             ids=["default", "every4", "every16"])
    def test_growth_restarts_and_more_growth(self, interval):
        file = self.grown_file(interval)
        values = {key: bytes([key % 251]) * 50 for key in range(4000)}
        for key in range(3000):
            file.insert(key, values[key])
        assert file.bucket_count > 64  # many splits, many checkpoints
        assert file.verify_parity_consistency() == []

        for bucket in (1, 21, 42):
            node_id = f"f.d{bucket}"
            server = file.network.nodes[node_id]
            before = dict(server.bucket.records), dict(server.ranks)
            file.failures.crash([node_id])
            file.failures.heal([node_id])
            # restarted from its own disk (a rebuild would install a
            # spare under the same id), caught up and unfenced
            assert file.network.nodes[node_id] is server
            assert not server.fenced
            assert (dict(server.bucket.records), dict(server.ranks)) == before

        for key in range(3000, 4000):
            file.insert(key, values[key])
        assert file.verify_parity_consistency() == []
        for key in range(0, 4000, 7):
            outcome = file.search(key)
            assert outcome.found and outcome.value == values[key], key

    def test_batched_growth_with_rank_compaction(self):
        file = self.grown_file(16, batch_ops=True, compact_ranks=True)
        items = [(key, b"b%d" % key) for key in range(2000)]
        for start in range(0, len(items), 64):
            assert file.insert_many(items[start:start + 64]).ok
        assert file.delete_many(list(range(0, 2000, 3))).ok
        assert file.insert_many([(key, b"c%d" % key)
                                 for key in range(2000, 2400)]).ok
        assert file.verify_parity_consistency() == []
        for server in file.data_servers():
            ranks = sorted(server.ranks.values())
            assert ranks == list(range(1, len(ranks) + 1))
        file.failures.crash(["f.d3"])
        file.failures.heal(["f.d3"])
        assert not file.network.nodes["f.d3"].fenced
        assert file.verify_parity_consistency() == []
        for key in range(1, 2400, 11):
            outcome = file.search(key)
            assert outcome.found == (key >= 2000 or key % 3 != 0), key

    def test_interval_checkpoints_wait_for_the_handler_boundary(
        self, monkeypatch
    ):
        """A due checkpoint is written only once the bucket's outermost
        handler returned — never mid-split, mid-batch or mid-fold."""
        from repro.core.data_bucket import RSDataServer
        from repro.core.parity_bucket import ParityServer

        depths = {RSDataServer: [], ParityServer: []}
        for cls in depths:
            def spy(self, real=cls.checkpoint_now, seen=depths[cls]):
                if self._checkpoint_due:
                    seen.append(self._depth)
                real(self)

            monkeypatch.setattr(cls, "checkpoint_now", spy)
        file = self.grown_file(4, batch_ops=True, compact_ranks=True)
        for key in range(300):
            file.insert(key, b"s%d" % key)
        assert file.insert_many([(key, b"m%d" % key)
                                 for key in range(300, 600)]).ok
        assert file.delete_many(list(range(0, 600, 4))).ok
        assert file.verify_parity_consistency() == []
        for seen in depths.values():
            assert len(seen) > 20 and set(seen) == {0}
