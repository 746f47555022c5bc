"""The benchmark's three workloads: seeded inputs, one repetition, checks.

Every workload runs in one process and one thread as a closed loop
through the public ``LHRSFile`` API: the next call is issued only after
the previous one returns.  A *repetition* builds a fresh file (timed as
set-up) and plays the workload's whole seeded script on it, so every
repetition of one seed does identical work: message, byte, symbol and
disk counts repeat exactly, and only wall times vary.  The runner
repeats until its time budget is spent and reports medians.

Each repetition checks the program's outputs against the benchmark's own
model and raises :class:`Mismatch` on the first disagreement.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core import LHRSConfig, LHRSFile

KEY_SPACE = 10 ** 9
SEARCH, UPDATE, INSERT, DELETE = range(4)
#: LHRSConfig fields a later design may retire; passed only while present.
BATCH_KNOBS = ("batch_ops",)


class Mismatch(Exception):
    """An output of the program disagrees with the benchmark's model."""


def make_config(**fields) -> LHRSConfig:
    """An ``LHRSConfig``; batch-plane knobs are dropped once the field is
    gone (the ``*_many`` calls then batch on their own)."""
    known = {f.name for f in dataclasses.fields(LHRSConfig)}
    for name in BATCH_KNOBS:
        if name not in known:
            fields.pop(name, None)
    return LHRSConfig(**fields)


def distinct_keys(rng: np.random.Generator, count: int,
                  taken: set[int]) -> list[int]:
    """``count`` fresh keys in [0, 10^9), none of them in ``taken``
    (which grows to include them)."""
    out: list[int] = []
    while len(out) < count:
        for key in rng.integers(0, KEY_SPACE, count - len(out)).tolist():
            if key not in taken:
                taken.add(key)
                out.append(key)
    return out


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailurePlan:
    """One failure cycle, drawn as fractions so it resolves against the
    file's bucket count when it runs.  Cycle j of n draws its buckets
    from the j-th n-th of the file: LH* buckets past the split pointer
    are half as full as the others, and a seed must not pick only one
    kind."""

    restart_at: float
    lose_at: float
    degraded_at: tuple[float, ...]

    def bucket(self, fraction: float, buckets: int) -> int:
        return min(int(fraction * buckets), buckets - 1)


def failure_plans(rng: np.random.Generator, count: int,
                  degraded: int) -> list[FailurePlan]:
    return [
        FailurePlan(
            restart_at=(j + float(rng.random())) / count,
            lose_at=(j + float(rng.random())) / count,
            degraded_at=tuple(rng.random(degraded).tolist()),
        )
        for j in range(count)
    ]


def mixed_script(rng: np.random.Generator, live: list[int], taken: set[int],
                 count: int, shares: tuple[float, float, float, float],
                 payload: int) -> list[tuple[int, int, bytes | None]]:
    """``count`` scalar ops ``(op, key, value)`` in a seeded order, with
    exactly the given search/update/insert/delete shares (the median
    latency of a mix sits between the op kinds' modes, so the shares
    must not vary by seed).  Searches, updates and deletes address live
    keys; inserts use fresh ones.  ``live`` is updated."""
    index = {key: i for i, key in enumerate(live)}
    script = []
    sizes = [round(share * count) for share in shares[1:]]
    mix = np.repeat(np.arange(4), [count - sum(sizes), *sizes])
    for op in rng.permutation(mix).tolist():
        if op == INSERT or not live:
            op = INSERT
            key = distinct_keys(rng, 1, taken)[0]
            index[key] = len(live)
            live.append(key)
        else:
            key = live[int(rng.integers(0, len(live)))]
        if op == DELETE:
            last = live.pop()
            slot = index.pop(key)
            if last != key:
                live[slot] = last
                index[last] = slot
        value = rng.bytes(payload) if op in (UPDATE, INSERT) else None
        script.append((op, key, value))
    return script


# ----------------------------------------------------------------------
# one repetition's measurements
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """Wall times, per-call latencies and counter deltas of one
    repetition.  Sections named in ``traced`` run under the recorder."""

    recorder: object = None
    traced: frozenset = frozenset()
    walls: dict = field(default_factory=lambda: defaultdict(list))
    #: per section: messages, bytes, symbol_ops and ``kind:<k>`` counts
    counts: dict = field(default_factory=lambda: defaultdict(Counter))
    latencies: list = field(default_factory=list)
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    batched_ops: int = 0
    user_bytes: int = 0
    restarts_traced: int = 0
    rebuild_rates: list = field(default_factory=list)
    records_rebuilt_traced: int = 0
    degraded_rates: list = field(default_factory=list)
    storage_overhead: float = 0.0
    uncertain: set = field(default_factory=set)

    @contextmanager
    def section(self, file: LHRSFile, name: str):
        total = file.stats.total
        before = (total.messages, total.bytes, total.symbol_ops,
                  Counter(total.by_kind))
        with ExitStack() as stack:
            if self.recorder is not None and name in self.traced:
                stack.enter_context(self.recorder.recording())
            start = perf_counter()
            try:
                yield
            finally:
                self.walls[name].append(perf_counter() - start)
        total = file.stats.total
        counts = self.counts[name]
        counts["messages"] += total.messages - before[0]
        counts["bytes"] += total.bytes - before[1]
        counts["symbol_ops"] += total.symbol_ops - before[2]
        for kind, n in (Counter(total.by_kind) - before[3]).items():
            counts["kind:" + kind] += n

    def traced_counts(self) -> Counter:
        out: Counter = Counter()
        for name in self.traced:
            out.update(self.counts.get(name, {}))
        return out


# ----------------------------------------------------------------------
# shared phases
# ----------------------------------------------------------------------
def scalar_ops(rep: Rep, file: LHRSFile, clients, script, model) -> None:
    """Play a scalar script, round-robin over ``clients``; every search
    is checked against ``model``, which mutations keep current."""
    latencies = rep.latencies
    uncertain = rep.uncertain
    with rep.section(file, "ops"):
        for i, (op, key, value) in enumerate(script):
            client = clients[i % len(clients)]
            start = perf_counter()
            try:
                if op == SEARCH:
                    result = client.search(key)
                elif op == UPDATE:
                    client.update(key, value)
                elif op == INSERT:
                    client.insert(key, value)
                else:
                    client.delete(key)
            except RuntimeError:  # typed op failures all derive from it
                latencies.append(perf_counter() - start)
                rep.failed += 1
                uncertain.add(key)
                continue
            latencies.append(perf_counter() - start)
            if op == SEARCH:
                if key not in uncertain and (
                    result.found != (key in model)
                    or result.value != model.get(key)
                ):
                    raise Mismatch(f"search({key}) returned a stale value")
            elif op == DELETE:
                model.pop(key, None)
            else:
                model[key] = value
                rep.user_bytes += len(value)
    rep.ops += len(script)
    rep.attempted += len(script)


def batch_ops(rep: Rep, file: LHRSFile, call, batches, model, kind) -> None:
    """Play ``*_many`` calls (``call``) over ``batches`` of one kind."""
    latencies = rep.latencies
    with rep.section(file, "ops"):
        for batch in batches:
            start = perf_counter()
            out = call(batch)
            latencies.append(perf_counter() - start)
            rep.batched_ops += out.batched_ops
            for item, outcome in zip(batch, out.outcomes):
                key = item if kind == SEARCH else item[0]
                if outcome is None or outcome.status == "failed":
                    rep.failed += 1
                    rep.uncertain.add(key)
                elif kind == SEARCH:
                    if key not in rep.uncertain and (
                        outcome.status != "found"
                        or outcome.value != model[key]
                    ):
                        raise Mismatch(f"search_many: key {key} is wrong")
                else:
                    model[key] = item[1]
                    rep.user_bytes += len(item[1])
            rep.ops += len(batch)
            rep.attempted += len(batch)


def check_census(file: LHRSFile, model: dict, uncertain: set) -> None:
    """The data buckets hold exactly the model's records."""
    held = {}
    for records in file.census().values():
        held.update(records)
    for key in uncertain:
        held.pop(key, None)
    expected = {k: v for k, v in model.items() if k not in uncertain}
    if held != expected:
        raise Mismatch(
            f"census differs from the model on "
            f"{len(set(held.items()) ^ set(expected.items()))} records"
        )


def check_parity(file: LHRSFile) -> None:
    problems = file.verify_parity_consistency()
    if problems:
        raise Mismatch(f"parity inconsistent: {problems[:3]}")


def failure_cycle(rep: Rep, file: LHRSFile, plan: FailurePlan, model,
                  durable: bool) -> None:
    """Restart one data bucket, then lose one data bucket and one parity
    bucket of its group, read the lost bucket degraded, and rebuild.

    A durable bucket restarts from its own disk (local replay + Δ
    catch-up); a non-durable one has nothing to restart from, so it comes
    back through the RS rebuild.  Each repaired bucket must hold its
    pre-failure census, and every record of a restarted bucket must be
    readable through the API."""
    m = file.config.group_size
    buckets = file.bucket_count

    victim = plan.bucket(plan.restart_at, buckets)
    before = file.census_with_ranks()[victim]
    with rep.section(file, "restart"):
        node = file.fail_data_bucket(victim)
        if durable:
            file.network.restore(node)
        else:
            file.recover([node])
    if "restart" in rep.traced:
        rep.restarts_traced += 1
    if file.census_with_ranks()[victim] != before:
        raise Mismatch(f"bucket {victim} came back with other records")
    for key, (_, value) in before.items():
        result = file.search(key)
        if not result.found or result.value != value:
            raise Mismatch(f"acknowledged write to {key} lost by a restart")

    lost = plan.bucket(plan.lose_at, buckets)
    before = file.census_with_ranks()[lost]
    keys = sorted(before)
    reads = [keys[int(f * len(keys))] for f in plan.degraded_at]
    data_node = file.fail_data_bucket(lost)
    # Parity 0 is the XOR row of the generator.  Losing it sends every
    # degraded read and rebuild through the GF decode, so all cycles time
    # one code path instead of a seed-dependent mix of two.
    parity_node = file.fail_parity_bucket(lost // m, 0)
    results = []
    with rep.section(file, "degraded"):
        for key in reads:
            results.append(file.search(key))
    rep.degraded_rates.append(len(reads) / rep.walls["degraded"][-1])
    rep.attempted += len(reads)
    for key, result in zip(reads, results):
        if not result.found or result.value != model[key]:
            raise Mismatch(f"degraded search({key}) returned a wrong value")

    with rep.section(file, "rebuild"):
        summary = file.recover([data_node, parity_node])
    rep.rebuild_rates.append(summary["records"] / rep.walls["rebuild"][-1])
    if "rebuild" in rep.traced:
        rep.records_rebuilt_traced += summary["records"]
    if file.census_with_ranks()[lost] != before:
        raise Mismatch(f"rebuilt bucket {lost} differs from its census")


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
class PointMixed:
    """Scalar key ops round-robined over 4 clients on a ~4k-record file:
    50% search, 25% update, 17% insert, 8% delete."""

    name = "point-mixed"
    config = dict(group_size=4, availability=2, bucket_capacity=64,
                  auto_recover=False)
    #: sections the traced run records (the failure cycles only feed the
    #: recovery end-to-end metrics)
    traced = frozenset({"ops"})
    preload = 4000
    ops = 8000
    clients = 4
    payload = 100
    failures = 16
    degraded = 50

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        taken: set[int] = set()
        keys = distinct_keys(rng, self.preload, taken)
        self.preload_items = [(k, rng.bytes(self.payload)) for k in keys]
        self.script = mixed_script(rng, list(keys), taken, self.ops,
                                   (0.50, 0.25, 0.17, 0.08), self.payload)
        self.plans = failure_plans(rng, self.failures, self.degraded)

    def key_set(self) -> set[int]:
        return {k for k, _ in self.preload_items} | {
            k for _, k, _ in self.script}

    def build(self) -> LHRSFile:
        file = LHRSFile(make_config(**self.config))
        for key, value in self.preload_items:
            file.insert(key, value)
        return file

    def play(self, rep: Rep, file: LHRSFile) -> None:
        model = dict(self.preload_items)
        clients = [file.new_client() for _ in range(self.clients)]
        scalar_ops(rep, file, clients, self.script, model)
        check_census(file, model, rep.uncertain)
        for plan in self.plans:
            failure_cycle(rep, file, plan, model, durable=False)
        check_parity(file)
        rep.storage_overhead = file.storage_overhead()


class BulkGrow:
    """The batch plane on a growing file: ``insert_many`` from 4 buckets
    to 16k records (~360 buckets), then ``search_many`` over every key
    and ``update_many`` over half, all in 64-op calls."""

    name = "bulk-grow"
    config = dict(group_size=4, availability=2, bucket_capacity=64,
                  auto_recover=False, batch_ops=True)
    traced = frozenset({"ops"})
    records = 16000
    batch = 64
    payload = 100
    failures = 16
    degraded = 50

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        keys = distinct_keys(rng, self.records, set())
        items = [(k, rng.bytes(self.payload)) for k in keys]
        order = rng.permutation(self.records).tolist()
        updates = [(keys[i], rng.bytes(self.payload))
                   for i in order[: self.records // 2]]
        self.inserts = self._chunks(items)
        self.searches = self._chunks([keys[i] for i in order])
        self.updates = self._chunks(updates)
        self.plans = failure_plans(rng, self.failures, self.degraded)

    def _chunks(self, seq: list) -> list[list]:
        return [seq[i:i + self.batch] for i in range(0, len(seq), self.batch)]

    def key_set(self) -> set[int]:
        return {k for batch in self.inserts for k, _ in batch}

    def build(self) -> LHRSFile:
        return LHRSFile(make_config(**self.config))

    def play(self, rep: Rep, file: LHRSFile) -> None:
        model: dict[int, bytes] = {}
        batch_ops(rep, file, file.insert_many, self.inserts, model, INSERT)
        batch_ops(rep, file, file.search_many, self.searches, model, SEARCH)
        batch_ops(rep, file, file.update_many, self.updates, model, UPDATE)
        check_census(file, model, rep.uncertain)
        for plan in self.plans:
            failure_cycle(rep, file, plan, model, durable=False)
        check_parity(file)
        rep.storage_overhead = file.storage_overhead()


class DurableRecover:
    """A durable one-group file of 2k 1-KB records in cycles of 300
    scalar ops (half search, half update), a bucket restart, a
    data+parity loss with degraded reads, and a full RS rebuild.

    The file never grows: a durable file that splits crashes today
    (ROADMAP item 1), so this workload isolates storage and recovery
    cost and claims no durable-growth coverage."""

    name = "durable-recover"
    config = dict(group_size=4, availability=2, bucket_capacity=1024,
                  durability=True, auto_recover=False)
    traced = frozenset({"ops", "restart", "degraded", "rebuild"})
    records = 2000
    payload = 1024
    cycles = 8
    cycle_ops = 300
    degraded = 50

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        taken: set[int] = set()
        keys = distinct_keys(rng, self.records, taken)
        self.preload_items = [(k, rng.bytes(self.payload)) for k in keys]
        live = list(keys)
        self.blocks = [
            mixed_script(rng, live, taken, self.cycle_ops,
                         (0.5, 0.5, 0.0, 0.0), self.payload)
            for _ in range(self.cycles)
        ]
        self.plans = failure_plans(rng, self.cycles, self.degraded)

    def key_set(self) -> set[int]:
        return {k for k, _ in self.preload_items}

    def build(self) -> LHRSFile:
        file = LHRSFile(make_config(**self.config))
        for key, value in self.preload_items:
            file.insert(key, value)
        return file

    def play(self, rep: Rep, file: LHRSFile) -> None:
        model = dict(self.preload_items)
        for block, plan in zip(self.blocks, self.plans):
            scalar_ops(rep, file, [file], block, model)
            check_census(file, model, rep.uncertain)
            failure_cycle(rep, file, plan, model, durable=True)
        check_parity(file)
        rep.storage_overhead = file.storage_overhead()


WORKLOADS = {w.name: w for w in (PointMixed, BulkGrow, DurableRecover)}


def run_rep(workload, rep: Rep) -> Rep:
    """Build the file (timed as set-up), then play the whole script."""
    start = perf_counter()
    file = workload.build()
    rep.walls["setup"].append(perf_counter() - start)
    workload.play(rep, file)
    return rep
