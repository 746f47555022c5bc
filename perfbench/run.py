"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload point-mixed --seed 1 --seconds 20 --trace 0

Repeats the workload's seeded script until ``--seconds`` are spent and
prints a table, then one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  Any disagreement between the
program's outputs and the benchmark's model exits with code 1 and no
result; a checkout without the program's sources exits with code 2.
Run from the root of the repository; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("point-mixed", "bulk-grow", "durable-recover")


def end_to_end(reps, peak_rss_mb: float) -> dict:
    first = reps[0]
    latencies = np.concatenate([np.asarray(r.latencies) for r in reps]) * 1e6
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    def pooled(attribute):
        return statistics.median(v for r in reps for v in getattr(r, attribute))

    return {
        "ops_per_s": (statistics.median(
            r.ops / sum(r.walls["ops"]) for r in reps), "1/s"),
        "latency_p50_us": (float(np.percentile(latencies, 50)), "us"),
        "latency_p99.5_us": (float(np.percentile(latencies, 99.5)), "us"),
        "msgs_per_op": (first.counts["ops"]["messages"] / first.ops, "msgs/op"),
        "bytes_per_op": (first.counts["ops"]["bytes"] / first.ops, "B/op"),
        "storage_overhead": (first.storage_overhead, "B/B"),
        "op_success_ratio": ((attempted - failed) / attempted, "ratio"),
        "rebuild_records_per_s": (pooled("rebuild_rates"), "records/s"),
        "restart_p50_ms": (statistics.median(
            w for r in reps for w in r.walls["restart"]) * 1e3, "ms"),
        "degraded_reads_per_s": (pooled("degraded_rates"), "reads/s"),
        "setup_s": (statistics.median(
            r.walls["setup"][0] for r in reps), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, len(latencies)


def per_layer(rep, recorder, layers) -> dict:
    """The per-layer figures of one traced repetition."""
    analysis = recorder.analyze()
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for label, seconds in analysis.self_s.items():
        self_s[recorder.label_layer(label)] += seconds
        calls[recorder.label_layer(label)] += analysis.calls[label]
    counts = rep.traced_counts()
    ops = rep.ops
    traced_wall = sum(sum(rep.walls[name]) for name in rep.traced)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in layers:
        if layer == "sim.messages":
            out["sim.messages.estimate_size_s"] = (self_s[layer], "s")
            out["sim.messages.estimate_size_calls"] = (calls[layer], "count")
            continue
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.calls"] = (calls[layer], "count")
    out.update({
        "sdds.client.ops_per_batch_msg": (ratio(
            rep.batched_ops, counts["kind:ops.batch"]), "ops/msg"),
        "sdds.client.iam_per_op": (ratio(
            counts["kind:iam"] + counts["kind:iam.state"], ops), "iams/op"),
        "sim.network.msgs": (counts["messages"], "count"),
        "sim.network.bytes": (counts["bytes"], "B"),
        "core.data_bucket.split_s": (sum(
            seconds for label, seconds in analysis.self_s.items()
            if label in ("RSDataServer.receive:split",
                         "RSDataServer.receive:records.bulk")), "s"),
        "core.data_bucket.deltas_out_per_op": (ratio(
            recorder.parity_deltas, ops), "deltas/op"),
        "core.parity_bucket.deltas_per_msg": (ratio(
            recorder.parity_deltas, recorder.parity_delta_msgs),
            "deltas/msg"),
        "core.coordinator.splits": (counts["kind:split"], "count"),
        "gf.symbol_ops": (counts["symbol_ops"], "count"),
        "core.recovery.records_moved": (rep.records_rebuilt_traced, "count"),
        "core.recovery.bytes_moved": (sum(
            rep.counts[name]["bytes"] for name in ("restart", "degraded",
                                                   "rebuild")
            if name in rep.traced), "B"),
        "core.recovery.catchup_success_ratio": (ratio(
            recorder.catchups_ok, rep.restarts_traced), "ratio"),
        "store.wal.encode_s": (
            analysis.self_s.get("wal.encode_frame", 0.0)
            + analysis.self_s.get("wal.encode_blob", 0.0), "s"),
        "store.wal.checkpoint_s": (
            analysis.total_s.get("BucketLog.checkpoint", 0.0), "s"),
        "store.wal.checkpoints": (
            analysis.calls.get("BucketLog.checkpoint", 0), "count"),
        "store.simdisk.fsyncs_per_op": (ratio(
            analysis.calls.get("SimDisk.fsync", 0), ops), "fsyncs/op"),
        "store.simdisk.bytes_written_per_user_byte": (ratio(
            recorder.disk_bytes_written, rep.user_bytes), "B/B"),
        "trace.unattributed_s": (traced_wall - analysis.top_level_s, "s"),
    })
    return out, analysis


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import LAYERS, SpanRecorder
    from workloads import WORKLOADS, Rep, run_rep

    workload = WORKLOADS[name](seed)
    gc.collect()
    gc.freeze()  # the inputs stay alive all run: keep them out of GC passes
    recorder = SpanRecorder() if trace else None
    # the first repetition warms caches and lazy set-up; it is checked
    # like every other but measured by none
    began = perf_counter()
    warm_up = run_rep(workload, Rep(traced=workload.traced))
    plain, traced = [], []
    while True:
        start = perf_counter()
        gc.collect()
        plain.append(run_rep(workload, Rep(traced=workload.traced)))
        if trace:
            recorder.reset()
            gc.collect()
            rep = run_rep(workload, Rep(recorder=recorder,
                                        traced=workload.traced))
            traced.append((rep, *per_layer(rep, recorder, LAYERS)))
        # start another repetition only if it fits in the budget
        now = perf_counter()
        if now - began + (now - start) > seconds:
            break

    every = [warm_up, *plain, *(t[0] for t in traced)]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    if not trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, samples = end_to_end(plain, rss)
        notes = [f"{len(plain)} repetitions, {samples} latency samples, "
                 f"{sum(len(r.walls['restart']) for r in plain)} restarts "
                 f"and rebuilds"]
    else:
        def ops_per_s(reps):
            return statistics.median(r.ops / sum(r.walls["ops"]) for r in reps)

        metrics = {
            key: (statistics.median(t[1][key][0] for t in traced),
                  traced[0][1][key][1])
            for key in traced[0][1]
        }
        metrics["trace.overhead"] = (
            ops_per_s([t[0] for t in traced]) / ops_per_s(plain), "ratio")
        path = OUT / f"spans-{name}-seed{seed}.npz"
        recorder.write(path, traced[-1][2].parents)
        notes = [f"{len(traced)} traced repetitions; spans of the last in "
                 f"{path.relative_to(ROOT)}"]
        if recorder.absent_layers:
            notes.append(f"absent layers: {', '.join(recorder.absent_layers)}")
        if recorder.missing:
            notes.append(f"missing entry points: {', '.join(recorder.missing)}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Mismatch

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Mismatch as err:
        print(f"INCORRECT: {err}", file=sys.stderr)
        return 1

    for note in result["notes"]:
        print(f"# {args.workload} seed {args.seed}: {note}")
    for key, (value, unit) in result["metrics"].items():
        print(f"{key:45s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
