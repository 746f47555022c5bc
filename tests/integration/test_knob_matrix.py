"""The knob matrix: every combination of six feature knobs, end to end.

Each of the 64 combinations of ``compact_ranks``, lazy parity
(``parity_batch_size`` 1 or 8), ``client_acks``, ``parity_ack``, a
standby coordinator and ``durability`` grows a file through 1,500
inserts and 500 deletes — half through scalar calls, half through the
``*_many`` batch plane — then loses two buckets of one group and checks
every read and every parity record.  A last step reads a key from a
lost bucket while a rank-mate in its group has a Δ queued, the case
where a decode against stale parity returns wrong bytes.

Marked ``matrix`` and kept out of tier-1 (``pytest.ini`` deselects it);
run it with ``python -m pytest -m matrix``.
"""

import itertools

import numpy as np
import pytest

from repro.core import LHRSConfig, LHRSFile

KNOBS = ("compact", "lazy", "acks", "parity_ack", "standby", "durable")
COMBOS = list(itertools.product((False, True), repeat=len(KNOBS)))
CHUNK = 50


def _combo_id(combo) -> str:
    return "-".join(name for name, on in zip(KNOBS, combo) if on) or "plain"


def _config(combo) -> LHRSConfig:
    compact, lazy, acks, parity_ack, standby, durable = combo
    return LHRSConfig(
        group_size=4,
        availability=2,
        bucket_capacity=32,
        compact_ranks=compact,
        parity_batch_size=8 if lazy else 1,
        client_acks=acks,
        parity_ack=parity_ack,
        coordinator_replicas=1 if standby else 0,
        durability=durable,
    )


def _grow(file: LHRSFile, model: dict[int, bytes]) -> None:
    """1,500 inserts then 500 deletes, alternating 50-op chunks between
    scalar calls and one ``*_many`` call."""
    rng = np.random.default_rng(5)
    keys = [int(k) for k in rng.permutation(1500)]
    for n, start in enumerate(range(0, len(keys), CHUNK)):
        items = [(key, b"v%d" % key * (1 + key % 4))
                 for key in keys[start:start + CHUNK]]
        if n % 2:
            for key, value in items:
                file.insert(key, value)
        else:
            assert file.insert_many(items).ok
        model.update(items)
    doomed = [int(k) for k in rng.choice(1500, size=500, replace=False)]
    for n, start in enumerate(range(0, len(doomed), CHUNK)):
        chunk = doomed[start:start + CHUNK]
        if n % 2:
            for key in chunk:
                file.delete(key)
        else:
            assert file.delete_many(chunk).ok
        for key in chunk:
            model.pop(key)


def _check_reads(file: LHRSFile, model: dict[int, bytes]) -> None:
    out = file.search_many(range(1500))
    assert out.ok
    for outcome in out.outcomes:
        assert outcome.value == model.get(outcome.key), outcome.key
        assert (outcome.status == "found") == (outcome.key in model)


def _rank_mates(file: LHRSFile) -> tuple[int, int]:
    """Two stored keys of one bucket group at the same rank."""
    servers = file.data_servers()
    for lost in servers:
        for mate in servers:
            if mate.group != lost.group or mate is lost:
                continue
            by_rank = {rank: key for key, rank in mate.ranks.items()}
            for key, rank in lost.ranks.items():
                if rank in by_rank:
                    return key, by_rank[rank]
    raise AssertionError("no two buckets of one group share a rank")


@pytest.mark.matrix
@pytest.mark.parametrize("combo", COMBOS, ids=[_combo_id(c) for c in COMBOS])
def test_knob_combination(combo):
    file = LHRSFile(_config(combo))
    model: dict[int, bytes] = {}
    _grow(file, model)
    assert file.bucket_count > 32

    # Lazy parity loses a crashed bucket's queued Δs by design (its
    # vulnerability window); close the window before the failure.
    file.flush_all_parity()
    file.failures.crash(["f.d5", "f.d6"])
    lost = next(iter(file.network.nodes["f.d5"].bucket.records))
    assert file.search(lost).value == model[lost]  # degraded, then rebuilt
    _check_reads(file, model)
    file.flush_all_parity()
    assert file.verify_parity_consistency() == []

    key, mate = _rank_mates(file)
    model[mate] = b"queued update of a rank-mate"
    file.update(mate, model[mate])
    file.fail_data_bucket(file.find_bucket_of(key))
    assert file.search(key).value == model[key]
    _check_reads(file, model)
    file.flush_all_parity()
    assert file.verify_parity_consistency() == []
