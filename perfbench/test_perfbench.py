"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import gate
import layers
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    b = run.Bench(ROOT)
    b.check_sources()
    return b


def _first_rounds(workload, seed, n=3):
    deck = workloads.rounds(workload, seed)
    return [[op.key for op in next(deck)] for _ in range(n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert _first_rounds(workload, 7) == _first_rounds(workload, 7)
    assert _first_rounds(workload, 7) != _first_rounds(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_a_seed_can_deal_has_a_digest(workload):
    digests = gate.load_digests()
    keys = {op.key for op in workloads.universe(workload)}
    assert keys <= set(digests)
    for seed in range(20):
        for batch in _first_rounds(workload, seed):
            assert set(batch) <= keys


def test_sweep_grid_runs_half_of_each_round_on_the_pool():
    for batch in [next(workloads.rounds("sweep-grid", seed)) for seed in range(5)]:
        pooled = [op for op in batch if op.env]
        assert len(pooled) == len(batch) // 2


def test_rounds_replay_one_deal_of_the_deck():
    for workload in workloads.WORKLOADS:
        deck = workloads.rounds(workload, 3)
        first, second = next(deck), next(deck)
        assert len(first) == len(workloads.DECKS[workload])
        assert sorted(op.key for op in first) == sorted(op.key for op in second)


def test_twist_families_hit_the_rank_drop_lines_and_generic_rationals():
    a, b = 16, 16
    on_alpha_line = {-j for j in range(b)} | {-j - 1 for j in range(b)}
    on_beta_line = {i for i in range(a)} | {i + 1 for i in range(a)}
    lines = workloads.twist_family(a, b, "lines")
    assert all(al in on_alpha_line and be in on_beta_line for al, be in lines)
    rational = workloads.twist_family(a, b, "rational")
    assert all(al.denominator > 1 and be.denominator > 1 for al, be in rational)


def test_deck_times_average_each_op_and_keep_any_failure():
    op1, op2 = SMALL_OPS[0], SMALL_OPS[1]
    deck = run.deck_times([(op1, 2.0, True), (op2, 1.0, True), (op1, 1.0, False), (op1, 3.0, True)])
    assert deck == {op1: (2.0, False), op2: (1.0, True)}


SMALL_OPS = [
    workloads.instance_op("homology", 3, 4, "nakayama", "json"),
    workloads.instance_op("ring", 3, 3, None, "markdown"),
    workloads.sweep_op("homology", (2, 3), (2, 4), "trivial", "csv", pooled=True),
]


@pytest.mark.parametrize("op", SMALL_OPS, ids=lambda op: op.key)
def test_traced_stdout_is_byte_identical_and_self_times_fit_the_wall(bench, op, tmp_path):
    plain = bench.run_op(op)
    spans = tmp_path / "spans.json"
    traced = bench.run_op(op, spans, op_id=1)
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    assert gate.invariant_problems(op, plain.stdout.decode()) == []

    doc = json.loads(spans.read_text())
    assert doc["op_id"] == 1
    own, wall = layers.span_times(doc)
    assert sum(own) <= traced.wall_s
    assert min(own) > -1e-6
    totals = layers.LayerTotals()
    totals.add(doc)
    metrics = totals.metrics(0.0)
    assert sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS) <= traced.wall_s
    assert metrics["cli.main_s"] <= traced.wall_s
    assert set(metrics) == set(layers.metric_units())


def test_corrupted_digest_counts_as_failed_op(bench):
    digests = {key: "0" * 64 for key in gate.load_digests()}
    result, extra = run.measure(bench, "instance-large", 1, 0.01, digests)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert extra["ops_failed_ratio"] == 1.0
    assert "digest" in extra["failures"][0]["problems"][0]


def test_gate_rejects_a_broken_invariant():
    op = workloads.instance_op("cohomology", 3, 4, None, "csv")
    good = "degree,dimension,cocycle_dim,coboundary_rank,representatives\n" \
           "0,2,2,0,1\n1,2,12,10,d\n2,1,6,5,f\n3,0,0,0,\n"
    assert gate.invariant_problems(op, good) == []
    assert gate.invariant_problems(op, good.replace("2,1,6,5", "2,2,6,4"))
    assert gate.op_problems(op, 1, good.encode(), {}) == ["exit code 1"]


def test_tail_keeps_ten_samples_beyond():
    xs = [float(n) for n in range(1, 41)]
    value, pct = run.tail(xs)
    assert sum(1 for x in xs if x > value) == run.TAIL_BEYOND
    assert pct == 75.0


def test_nominal_speed_scales_times_and_rates_but_not_memory(bench):
    measured = {"latency_p50_s": 1.0, "latency_tail_s": 2.0, "setup_s": 0.1,
                "instances_per_s": 10.0, "ab_per_s": 100.0, "peak_rss_mb": 30.0}
    scaled = run.at_nominal_speed(measured, 0.5)
    assert scaled == {"latency_p50_s": 0.5, "latency_tail_s": 1.0, "setup_s": 0.05,
                      "instances_per_s": 20.0, "ab_per_s": 200.0, "peak_rss_mb": 30.0}
    assert bench.reference_once() > 0
