"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

Same seed, same deterministic counts, also across interpreter hash
seeds; another seed, another key set; a wrong answer from the program
fails the run; a checkout without the program's sources fails fast;
every run reports exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS, Mismatch, PointMixed, Rep, run_rep  # noqa: E402

#: counts the program makes that must repeat exactly for one seed
DETERMINISTIC = {
    0: ("msgs_per_op", "bytes_per_op", "storage_overhead"),
    1: ("gf.symbol_ops", "core.coordinator.splits",
        "store.simdisk.fsyncs_per_op"),
}


def run(workload: str, seed: int, trace: int, hash_seed: int,
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
        capture_output=True, text=True, timeout=600,
    )


def result(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_repeats_the_counts(workload, trace):
    first = result(run(workload, 7, trace, hash_seed=1))
    second = result(run(workload, 7, trace, hash_seed=2))
    assert first["correct"] and second["correct"]
    for name in DETERMINISTIC[trace]:
        assert first["metrics"][name] == second["metrics"][name], name
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: metric["unit"] for name, metric in first["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_changes_the_keys(workload):
    assert WORKLOADS[workload](1).key_set() != WORKLOADS[workload](2).key_set()


def test_wrong_search_result_is_a_mismatch(monkeypatch):
    from repro.sdds.client import Client

    search = Client.search

    def stale(self, key):
        outcome = search(self, key)
        outcome.value = b"stale"
        return outcome

    monkeypatch.setattr(Client, "search", stale)
    with pytest.raises(Mismatch):
        run_rep(PointMixed(1), Rep())


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = run("point-mixed", 1, 0, hash_seed=0, cwd=tmp_path)
    assert process.returncode != 0
    assert process.stdout == ""
