"""Tests for the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from perfbench import http_mixed  # noqa: E402
from perfbench.common import BenchmarkError, reconcile, summarize, tail_percentile  # noqa: E402
from perfbench.loadgen import (  # noqa: E402
    READ, WRITE, Arrival, Outcome, make_schedule, zipf_probabilities,
)
from perfbench.trace import Tracer  # noqa: E402


class TestSchedule:
    def test_same_seed_same_arrivals_and_users(self):
        kwargs = dict(rate=200.0, count=500, n_users=300, n_items=500)
        assert make_schedule(7, **kwargs) == make_schedule(7, **kwargs)
        assert make_schedule(7, **kwargs) != make_schedule(8, **kwargs)

    def test_zipf_draws_deterministic(self):
        first = zipf_probabilities(1000, 1.1, np.random.default_rng(3))
        second = zipf_probabilities(1000, 1.1, np.random.default_rng(3))
        assert np.array_equal(first, second)
        assert first.sum() == pytest.approx(1.0)
        assert sorted(first)[-1] / sorted(first)[-2] == pytest.approx(2 ** 1.1)

    def test_mix_and_unique_write_keys(self):
        schedule = make_schedule(1, rate=100.0, count=4000, n_users=50, n_items=20)
        writes = [a for a in schedule if a.kind == WRITE]
        assert len(writes) == 400
        assert len({a.key for a in writes}) == len(writes)
        assert all(b.due_s > a.due_s for a, b in zip(schedule, schedule[1:]))


class TestTailPercentile:
    @pytest.mark.parametrize("n, expected", [
        (10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
        (100, 90.0), (40, 75.0), (20, 50.0),
    ])
    def test_highest_with_ten_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_too_few_samples(self):
        with pytest.raises(BenchmarkError):
            tail_percentile(19)

    def test_summary_reports_count_and_percentile(self):
        summary = summarize(range(1, 1001))
        assert summary["n"] == 1000 and summary["tail_q"] == 99.0
        assert summary["p50"] == pytest.approx(500.5)


def _outcome(kind: str, due: float, latency_ms: float, status: int = 200) -> Outcome:
    body = b'{"duplicate": false}' if kind == WRITE else b""
    return Outcome(Arrival(due, kind, 0, 0, f"k{due}"), due, due, due + latency_ms / 1000.0,
                   status, body)


class _FakeTraffic:
    """Stands in for the HTTP traffic: every rate at or above
    ``fail_from`` sees exactly one failed request."""

    def __init__(self, fail_from: float):
        self.fail_from = fail_from
        self.rates: list[float] = []

    def run(self, rate: float, count: int):
        self.rates.append(rate)
        outcomes = [_outcome(READ, i / rate, 3.0) for i in range(count)]
        return outcomes, int(rate >= self.fail_from)


class TestMaxRate:
    def test_single_failure_fails_the_rate(self):
        outcomes = [_outcome(READ, i / 100.0, 3.0) for i in range(1200)]
        assert http_mixed._sustained(outcomes, 0, 50.0)[0]
        assert not http_mixed._sustained(outcomes, 1, 50.0)[0]

    def test_shed_reply_is_a_failure(self):
        traffic = http_mixed._Traffic(0, server=None, train=None)
        shed = _outcome(READ, 0.0, 1.0, status=429)
        assert traffic._validate(shed) is False
        assert traffic.errors

    def test_ladder_stops_below_first_failing_rate(self):
        traffic = _FakeTraffic(fail_from=500.0)
        rungs: list[dict] = []
        reference = traffic.run(150.0, 1200)[0]
        best = http_mixed._max_rate(traffic, 50.0, rungs, reference)
        # 400 met; 550 missed twice; bisection tries 475 (met).
        assert traffic.rates == [150.0, 400.0, 550.0, 550.0, 475.0]
        assert [r["met"] for r in rungs] == [True, False, False, True]
        # The delivered rate of the 475 rung: 1200 requests over 1199/475 s + 3 ms.
        assert best == pytest.approx(1200 / (1199 / 475.0 + 0.003))

    def test_a_miss_then_a_pass_counts_as_sustained(self):
        traffic = _FakeTraffic(fail_from=10_000.0)
        runs = iter([1, 0])
        original = traffic.run
        traffic.run = lambda rate, count: (original(rate, count)[0],
                                           next(runs) if rate == 400.0 else 0)
        rungs: list[dict] = []
        http_mixed._max_rate(traffic, 50.0, rungs, original(150.0, 1200)[0])
        assert [(r["rate"], r["met"]) for r in rungs[:2]] == [(400.0, False), (400.0, True)]

    def test_slow_tail_fails_the_rate(self):
        outcomes = [_outcome(READ, i / 100.0, 3.0) for i in range(1190)]
        outcomes += [_outcome(READ, 12.0 + i / 100.0, 80.0) for i in range(20)]
        assert not http_mixed._sustained(outcomes, 0, 50.0)[0]


class TestReconcile:
    def test_matching_layers_pass(self):
        result = reconcile(1.0, {"a": 0.6, "b": 0.35}, ["a", "b"])
        assert result["ok"]
        assert result["unaccounted_s"] == pytest.approx(0.05)

    def test_missing_layer_fails(self):
        result = reconcile(1.0, {"a": 0.6, "b": 0.4}, ["a", "b", "c"])
        assert not result["ok"]
        assert result["missing"] == ["c"]

    def test_unattributed_time_beyond_tolerance_fails(self):
        assert not reconcile(1.0, {"a": 0.5}, ["a"])["ok"]
        assert not reconcile(1.0, {"a": 1.5}, ["a"])["ok"]


class _Target:
    def outer(self):
        self.inner()
        return "done"

    def inner(self):
        return None


class TestTracer:
    def test_self_time_excludes_children_and_uninstall_restores(self):
        original_outer = _Target.__dict__["outer"]
        tracer = Tracer()
        tracer.wrap(_Target, "outer", "outer")
        tracer.wrap(_Target, "inner", "inner")
        tracer.enabled = True
        assert _Target().outer() == "done"
        snap = tracer.snapshot()
        assert snap["calls"] == {"outer": 1, "inner": 1}
        assert snap["total_s"]["outer"] == pytest.approx(
            snap["self_s"]["outer"] + snap["total_s"]["inner"])
        tracer.uninstall()
        assert _Target.__dict__["outer"] is original_outer

    def test_disabled_wrappers_record_nothing(self):
        tracer = Tracer()
        tracer.wrap(_Target, "outer", "outer")
        try:
            _Target().outer()
            assert tracer.snapshot()["calls"] == {}
        finally:
            tracer.uninstall()
