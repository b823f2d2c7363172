"""Tests for the benchmark's own code: corpus generation and the tail helper."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gltc import parse_instance, random_instance, serialize_instance

import workloads
from endtoend import tail_percentile

HERE = Path(__file__).resolve().parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(workload, tmp_path):
    # Two fresh interpreters with different hash seeds must write the same bytes.
    outs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(HERE.parent / "src"))
        subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                        "--seed", "7", "--out", str(out)], env=env, check=True, timeout=120)
        outs.append(_files(out))
    assert outs[0] == outs[1]
    assert len(outs[0]) == len(workloads.WORKLOADS[workload](7)) + 1  # + manifest


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_corpus_round_trips_and_moves_with_the_seed(workload, tmp_path):
    items = workloads.WORKLOADS[workload](7)
    workloads.write(items, tmp_path)
    assert workloads.read(tmp_path) == items
    for item in items:
        assert serialize_instance(parse_instance(item.text)) == item.text
    assert [i.text for i in workloads.WORKLOADS[workload](8)] != [i.text for i in items]


def test_default_large_corpus_contains_criterion_7():
    criterion_7 = serialize_instance(random_instance(16, 0.3, 1, 20, 2024))
    corpus = workloads.WORKLOADS["large_tau1"](workloads.DEFAULT_SEED)
    assert criterion_7 in [item.text for item in corpus]
    assert all(item.partition == "star" and item.witness and item.cli for item in corpus)


@pytest.mark.parametrize("count, expected", [
    (1000, (99, 990, 10)),   # p99 with exactly ten samples beyond
    (192, (94, 181, 11)),    # p95 would leave only nine beyond
    (60, (83, 50, 10)),
    (20, (50, 10, 10)),
])
def test_tail_percentile_picks_highest_with_ten_beyond(count, expected):
    values = [float(v) for v in range(count, 0, -1)]  # order must not matter
    pct, value, beyond = tail_percentile(values)
    assert (pct, value, beyond) == expected
    assert sum(v > value for v in values) == beyond >= 10
    if pct < 99:  # one percentile higher leaves fewer than ten beyond
        assert count - math.ceil((pct + 1) / 100 * count) < 10


def test_tail_percentile_gives_up_on_small_corpora():
    assert tail_percentile([1.0] * 19) is None
