"""The durable storage plane shared by data and parity buckets.

With ``config.durability`` on, every bucket owns a simulated disk
holding a checksummed WAL and a checkpoint.  :class:`DurableBucket`
holds the whole plane once:

* **logging** — :meth:`~DurableBucket._log_entry` writes one WAL frame;
  a full interval marks a checkpoint due, which :meth:`receive` writes
  when the outermost handler returns (mid-handler, a split between
  unassigning its movers and dropping them, the state is not an image);
* **fail-stop** — a disk write error crashes the node rather than let
  it run past a write it lost;
* **checkpoints** — the bucket's :meth:`image` plus its kind, epoch and
  the checkpoint-only extras;
* **restart** — when the network restores the node, replay checkpoint
  + WAL tail to the durable prefix, fence the node, and rejoin the file
  through the coordinator, which catches it up or rebuilds it.

A bucket kind supplies hooks only: :attr:`KIND`, :attr:`FENCED_KINDS`,
``image`` / ``load_image`` (its content), ``_init_history`` (its
catch-up Δ ring), ``_checkpoint_extras`` / ``_load_extras``,
``_lose_volatile``, ``_replay_entry`` (one WAL frame), and
``_restart_fields`` / ``_rejoin_fields`` (what the restart trace and
the ``rejoin`` call carry).
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.sim.faults import RetryPolicy
from repro.sim.messages import Message
from repro.sim.network import DeliveryFault, NodeUnavailable, UnknownNode
from repro.sim.node import Node
from repro.store.simdisk import DiskError, SimDisk, disk_rng
from repro.store.wal import BucketLog


class DurableBucket(Node):
    """A bucket server that can log, checkpoint, restart and rejoin."""

    #: bucket kind, stamped into checkpoints and the rejoin handshake
    KIND = ""
    #: message kinds a fenced (restarted, not yet caught-up) bucket
    #: refuses with NodeUnavailable — to the data plane it is dead
    FENCED_KINDS: frozenset = frozenset()

    def __init__(self, node_id: str):
        super().__init__(node_id)
        #: sender-side retry discipline (the coordinator installs the
        #: file's policy when it commissions the server)
        self.retry_policy = RetryPolicy()
        # durable storage plane (None = the RAM-only server;
        # enable_durability wires it when config.durability is on)
        self._disk = None
        self._wal = None
        self._ckpt_interval = 0
        self._appends_since_ckpt = 0
        self._checkpoint_due = False
        self._depth = 0
        #: incarnation stamped by the coordinator; a rebuilt spare under
        #: the same node id gets a higher epoch, fencing stale disks
        self.epoch = 0
        #: True between restart-replay and catch-up completion: the
        #: bucket answers catch-up traffic but refuses the data plane
        self.fenced = False
        self._restarting = False

    # ------------------------------------------------------------------
    # fencing and the checkpoint boundary
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> Any:
        if self.fenced and message.kind in self.FENCED_KINDS:
            failure = NodeUnavailable(self.node_id)
            failure.fenced = True
            raise failure
        self._depth += 1
        try:
            result = super().receive(message)
        finally:
            self._depth -= 1
        if self._checkpoint_due and not self._depth:
            self.checkpoint_now()
        return result

    # ------------------------------------------------------------------
    # WAL and checkpoints
    # ------------------------------------------------------------------
    def enable_durability(self, config) -> None:
        """Attach the simulated disk and WAL (``config.durability``).

        Ends with a baseline checkpoint: recovery then always finds a
        durable image of the bucket's *birth* state, so a crash before
        the first periodic checkpoint still replays cleanly.
        """
        from repro.sim.rng import DEFAULT_SEED

        self._disk = SimDisk(
            self.node_id,
            rng=disk_rng(DEFAULT_SEED, self.node_id),
            profile=self._disk_profile,
        )
        self._wal = BucketLog(self._disk, fsync_interval=config.wal_fsync_interval)
        self._ckpt_interval = config.durability_checkpoint_interval
        self._init_history(config.delta_log_capacity)
        self.checkpoint_now()

    def _disk_profile(self) -> dict:
        """Current disk fault profile from the network's fault plane."""
        net = self.network
        if net is None or net.fault_plane is None:
            return {}
        return net.fault_plane.disk_profile(self.node_id, net.now)

    def _log_entry(self, entry: dict) -> None:
        """One WAL frame (a Δ-block or a ``ctl`` record).

        Disk errors are fail-stop (:meth:`_fail_stop`): a bucket that
        cannot log must not keep mutating, or its disk diverges from its
        acked state.  A full interval marks a checkpoint due;
        :meth:`receive` writes it at the outermost handler boundary.
        """
        try:
            self._wal.append(entry)
        except DiskError:
            self._fail_stop()
        self._appends_since_ckpt += 1
        if self._appends_since_ckpt >= self._ckpt_interval:
            self._checkpoint_due = True

    def _fail_stop(self) -> None:
        """Crash the node rather than run past a disk write it lost."""
        net = self.network
        if net is not None and net.is_available(self.node_id):
            net.fail(self.node_id)
        raise NodeUnavailable(self.node_id)

    def checkpoint_now(self) -> None:
        """Write a full-state checkpoint and truncate the WAL."""
        state = {
            "kind": self.KIND,
            "epoch": self.epoch,
            **self.image(),
            **self._checkpoint_extras(),
        }
        try:
            self._wal.checkpoint(state)
        except DiskError:
            self._fail_stop()
        self._appends_since_ckpt = 0
        self._checkpoint_due = False
        net = self.network
        if net is not None and net.tracer is not None:
            net.tracer.emit(
                "disk.checkpoint", node=self.node_id, lsn=self._wal.lsn,
                records=len(state["records"]),
            )
        if net is not None and net.metrics is not None:
            net.metrics.counter(
                "disk.checkpoints", "bucket checkpoints written"
            ).inc()

    # ------------------------------------------------------------------
    # restart with delta catch-up
    # ------------------------------------------------------------------
    def on_restored(self) -> None:
        """Network hook: this node just came back from a crash.

        RAM-only servers (durability off) keep the legacy silent-rebirth
        semantics — state intact, nobody told — which the pre-durability
        chaos suites pin byte-for-byte: the hook returns immediately.
        """
        if self._wal is None or self._restarting:
            return
        self._restarting = True
        try:
            self._restart()
        except NodeUnavailable:
            # A disk fail-stop (or a coordinator verdict) put the node
            # back down mid-restart; the probe sweep will rebuild it.
            pass
        finally:
            self._restarting = False

    def _restart(self) -> None:
        """Replay the durable prefix, fence, and rejoin the file.

        The crash is applied to the disk *here*: a failed node runs no
        code in the simulation, so dropping the unsynced tail (and any
        torn-write / bit-rot rule) at restore time is equivalent to
        dropping it at crash time.
        """
        net = self._net()
        self._disk.crash()
        state, tail, clean = self._wal.recover()
        self._lose_volatile()
        self._appends_since_ckpt = 0
        self._checkpoint_due = False
        if state is None or state.get("kind") != self.KIND:
            # No readable checkpoint (torn or rotted): the tail has no
            # base to replay onto — everything on disk is suspect.
            clean, tail = False, []
            self.epoch = 0
        else:
            self.epoch = state["epoch"]
            self.load_image(state)
            self._load_extras(state)
            for entry in tail:
                self._replay_entry(entry)
        self.fenced = True
        if net.tracer is not None:
            net.tracer.emit(
                "bucket.restart", node=self.node_id, kind=self.KIND,
                **self._restart_fields(), clean=clean, replayed=len(tail),
            )
        if net.metrics is not None:
            net.metrics.counter("disk.restarts", "bucket restart replays").inc()
        self._rejoin_file(clean)

    def _rejoin_file(self, clean: bool) -> None:
        """Report the restart; the coordinator catches us up or rebuilds.

        The verdict itself travels out-of-band: a catch-up message
        arriving mid-call unfences us, a rebuild replaces us under our
        own node id.  The reply is informational, so a lost reply after
        the coordinator acted changes nothing.
        """
        net = self._net()
        payload = {
            "node": self.node_id,
            "kind": self.KIND,
            "epoch": self.epoch,
            **self._rejoin_fields(clean),
        }
        policy = self.retry_policy
        for attempt in range(policy.attempts):
            try:
                self.call(f"{self.file_id}.coord", "rejoin", payload)
                return
            except DeliveryFault as fault:
                if fault.stage == "reply":
                    return  # the coordinator acted; only the ack was lost
            except (NodeUnavailable, UnknownNode):
                pass  # coordinator dark (pre-takeover window)
            if attempt + 1 < policy.attempts:
                net.advance(policy.delay(
                    attempt, zlib.crc32(f"{self.node_id}->rejoin".encode()),
                ))
        # Could not reach the coordinator: stay down — a fenced bucket
        # nobody knows about is indistinguishable from a dead one, and
        # the probe sweep will find and rebuild it.  Guard on identity:
        # if a rebuild already replaced us under this id, failing the id
        # would kill the healthy replacement.
        if net.nodes.get(self.node_id) is self:
            net.fail(self.node_id)
        raise NodeUnavailable(self.node_id)

    def _finish_catchup(self, event: str, records: int, **fields) -> None:
        """Unfence after catch-up, account for it, and checkpoint the
        result so it is durable."""
        self.fenced = False
        net = self._net()
        if net.tracer is not None:
            net.tracer.emit(event, node=self.node_id, **fields)
        if net.metrics is not None:
            net.metrics.counter(
                "catchup.records", "records shipped by delta catch-up"
            ).inc(records)
        self.checkpoint_now()
