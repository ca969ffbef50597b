"""The benchmark's own checks, at a tiny size.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os

import pytest

import common
import select_join
import service_mixed

ROWS = 300
SEED = 7

WORKLOADS = {
    "fig30-select": select_join,
    "join-chain": select_join,
    "service-mixed": service_mixed,
}

with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


def _corrupt_next_answer(monkeypatch):
    """Make the next confidence computation return one extra, bogus tuple."""
    original = common.confidence_module.uwsdt_possible_with_confidence
    calls = []

    def corrupted(uwsdt, relation):
        ranked = original(uwsdt, relation)
        calls.append(relation)
        return ranked + [((-1,), 1.0)] if len(calls) == 1 else ranked

    monkeypatch.setattr(common.confidence_module, "uwsdt_possible_with_confidence", corrupted)


@pytest.mark.parametrize("workload", ["fig30-select", "join-chain"])
def test_corrupted_request_answer_is_counted_failed(workload, monkeypatch):
    episode = select_join.Episode(select_join.SPECS[workload], SEED, rows=ROWS)
    _corrupt_next_answer(monkeypatch)
    episode.serve_rounds(2)
    monkeypatch.undo()
    assert episode.errors == 0
    assert episode.wrong_answers() == 1


def test_corrupted_service_read_is_counted_failed(monkeypatch):
    episode = service_mixed.Episode(SEED, requests=40, rows=ROWS)
    _corrupt_next_answer(monkeypatch)
    episode.serve()
    monkeypatch.undo()
    assert episode.writes_done == 2
    assert episode.errors == 0
    assert episode.wrong_answers() == 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_timed_run_reports_every_end_to_end_metric(workload):
    result = WORKLOADS[workload].run_timed(workload, SEED, seconds=1, setups=1, rows=ROWS)
    assert result.failed == 0
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in result.metrics.items()} == expected
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_counts_repeat(workload):
    first = WORKLOADS[workload].run_traced(workload, SEED, seconds=2, rows=ROWS)
    second = WORKLOADS[workload].run_traced(workload, SEED, seconds=2, rows=ROWS)
    assert first.failed == second.failed == 0
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in first.metrics.items()} == expected
    counts = {name for name, (_, unit) in first.metrics.items() if unit == "count"}
    assert counts >= {"planner.sampling_calls", "exec.operator_rows", "confidence.answers",
                      "service.invalidations", "service.replans", "uwsdt.template_rows_written"}
    for name in counts:
        assert first.metrics[name] == second.metrics[name], name


def test_percentile_is_nearest_rank():
    values = [float(index) for index in range(1, 101)]
    assert common.percentile(values, 0.50) == 50.0
    assert common.percentile(values, 0.99) == 99.0
    assert common.percentile([3.0], 0.99) == 3.0


def test_drift_is_relative_to_the_one_world_time():
    start = [("cheap", 2.0, 1.0), ("dear", 30.0, 10.0)] * 3
    # The machine halves its speed; only "dear" also grows relative to one world.
    end = [("cheap", 4.0, 2.0), ("dear", 240.0, 20.0)] * 3
    assert common.drift(start + end, share=0.5) == pytest.approx(2.0)


def test_request_factor_is_the_median_of_the_probes_around_it():
    probe = common.SpeedProbe()
    probe.seconds = [0.0018] * 6 + [0.0009] + [0.0036] * 6
    # The fast probe right before request 6 alone would give a factor of 2.
    assert probe.factor_at(6) == pytest.approx(0.0018 / 0.0027)
    assert probe.factor_at(2) == pytest.approx(1.0)
    assert probe.factor_at(len(probe.seconds) - 1) == pytest.approx(0.5)
