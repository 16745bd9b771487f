"""Pure-unit tests of the circuit-breaker state machine.

Everything runs on a :class:`FakeClock` — no ``sleep`` anywhere, so the
full closed → open → half-open → closed lifecycle is exercised as a
deterministic pure function of recorded events and advanced time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    FakeClock,
)
from repro.utils.exceptions import ConfigError


def make_breaker(clock=None, **overrides) -> CircuitBreaker:
    defaults = dict(
        window_seconds=10.0,
        min_calls=4,
        failure_rate_threshold=0.5,
        cooldown_seconds=5.0,
        half_open_max_probes=2,
        half_open_successes=2,
    )
    defaults.update(overrides)
    return CircuitBreaker(BreakerConfig(**defaults), clock=clock or FakeClock())


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_seconds": 0.0},
            {"min_calls": 0},
            {"failure_rate_threshold": 0.0},
            {"failure_rate_threshold": 1.5},
            {"latency_threshold_ms": -1.0},
            {"cooldown_seconds": 0.0},
            {"half_open_max_probes": 0},
            {"half_open_successes": 0},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            make_breaker(**kwargs)


class TestClosedState:
    def test_starts_closed_and_allows(self):
        breaker = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failures_below_min_calls_do_not_trip(self):
        breaker = make_breaker(min_calls=4)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED  # 3/3 failed but below min_calls

    def test_trips_at_failure_rate_threshold(self):
        breaker = make_breaker(min_calls=4, failure_rate_threshold=0.5)
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # 1/3, below min_calls anyway
        breaker.record_failure()  # 2/4 = 0.5 >= threshold
        assert breaker.state == OPEN
        assert breaker.opened_count_ == 1

    def test_stays_closed_below_threshold(self):
        breaker = make_breaker(min_calls=4, failure_rate_threshold=0.5)
        for _ in range(6):
            breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()  # 2/8 = 0.25 < 0.5
        assert breaker.state == CLOSED

    def test_slow_success_counts_as_failure(self):
        breaker = make_breaker(min_calls=2, latency_threshold_ms=50.0)
        breaker.record_success(latency_ms=200.0)
        breaker.record_success(latency_ms=200.0)
        assert breaker.state == OPEN

    def test_fast_success_does_not_count_as_failure(self):
        breaker = make_breaker(min_calls=2, latency_threshold_ms=50.0)
        for _ in range(10):
            breaker.record_success(latency_ms=5.0)
        assert breaker.state == CLOSED
        assert breaker.failure_rate() == 0.0

    def test_window_expiry_forgets_old_failures(self):
        clock = FakeClock()
        breaker = make_breaker(clock, window_seconds=10.0, min_calls=4)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(11.0)  # the two failures age out of the window
        breaker.record_failure()
        breaker.record_success()
        breaker.record_success()
        breaker.record_success()  # 1/4 = 0.25 < 0.5
        assert breaker.state == CLOSED
        assert breaker.failure_rate() == pytest.approx(0.25)


class TestOpenState:
    def trip(self, clock):
        breaker = make_breaker(clock, min_calls=2, cooldown_seconds=5.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        return breaker

    def test_open_rejects(self):
        breaker = self.trip(FakeClock())
        assert not breaker.allow()
        assert not breaker.allow()

    def test_straggler_results_ignored_while_open(self):
        breaker = self.trip(FakeClock())
        breaker.record_success()  # a call from before the trip finishing late
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opened_count_ == 1

    def test_cooldown_transitions_to_half_open(self):
        clock = FakeClock()
        breaker = self.trip(clock)
        clock.advance(4.9)
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN


class TestHalfOpenState:
    def make_half_open(self, clock, **overrides):
        breaker = make_breaker(clock, min_calls=2, cooldown_seconds=5.0, **overrides)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        return breaker

    def test_admits_limited_probes(self):
        breaker = self.make_half_open(FakeClock(), half_open_max_probes=2)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # both probe slots in flight

    def test_probe_completion_frees_a_slot(self):
        breaker = self.make_half_open(
            FakeClock(), half_open_max_probes=1, half_open_successes=3
        )
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN  # needs 3 successes
        assert breaker.allow()

    def test_enough_successes_close(self):
        breaker = self.make_half_open(FakeClock(), half_open_successes=2)
        for _ in range(2):
            assert breaker.allow()
            breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = self.make_half_open(clock)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opened_count_ == 2
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN

    def test_close_clears_window(self):
        breaker = self.make_half_open(FakeClock(), half_open_successes=1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failure_rate() == 0.0
        # One new failure must not instantly re-trip off stale history.
        breaker.record_failure()
        assert breaker.state == CLOSED


class TestFullLifecycle:
    def test_closed_open_half_open_closed(self):
        clock = FakeClock()
        breaker = make_breaker(
            clock, min_calls=3, cooldown_seconds=5.0, half_open_successes=2
        )
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(5.0)
        for _ in range(2):
            assert breaker.allow()
            breaker.record_success()
        assert breaker.state == CLOSED
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["times_opened"] == 1

    def test_snapshot_reports_window(self):
        breaker = make_breaker(min_calls=10)
        breaker.record_success(latency_ms=1.0)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["window_calls"] == 2
        assert snap["window_failures"] == 1
        assert snap["failure_rate"] == pytest.approx(0.5)


class TestRunningFailureCount:
    """The breaker counts window failures as calls enter and leave.

    Random mixes of successes (some slow), failures, admissions and
    clock advances drive the breaker through prune, open, half-open and
    close.  After every step the running count must equal a naive
    recount of the same window, and every closed-state record must
    open the breaker exactly when the recount says it should.
    """

    CONFIG = dict(
        window_seconds=3.0,
        min_calls=4,
        failure_rate_threshold=0.5,
        latency_threshold_ms=50.0,
        cooldown_seconds=2.0,
        half_open_max_probes=2,
        half_open_successes=2,
    )

    @staticmethod
    def recount(breaker, now):
        horizon = now - breaker.config.window_seconds
        return [failed for t, failed in breaker._events if t >= horizon]

    @pytest.mark.parametrize("seed", range(6))
    def test_count_matches_naive_recount(self, seed):
        rng = np.random.default_rng(seed)
        clock = FakeClock()
        breaker = make_breaker(clock, **self.CONFIG)
        states = [breaker.state]
        for _ in range(600):
            op = rng.choice(4, p=[0.3, 0.4, 0.15, 0.15])
            if op == 0:
                clock.advance(float(rng.exponential(0.4)))
            elif op == 3:
                breaker.allow()
            else:
                latency = float(rng.uniform(0.0, 70.0))
                failed = op == 2 or latency > self.CONFIG["latency_threshold_ms"]
                closed = breaker.state == CLOSED
                window = self.recount(breaker, clock.now) + [failed]
                if op == 1:
                    breaker.record_success(latency_ms=latency)
                else:
                    breaker.record_failure(latency_ms=latency)
                if closed:
                    should_open = (
                        len(window) >= self.CONFIG["min_calls"]
                        and sum(window) / len(window)
                        >= self.CONFIG["failure_rate_threshold"]
                    )
                    assert (breaker.state == OPEN) == should_open
            rate = breaker.failure_rate()
            window = self.recount(breaker, clock.now)
            assert len(window) == len(breaker._events)
            assert rate == (sum(window) / len(window) if window else 0.0)
            snap = breaker.snapshot()
            assert snap["window_calls"] == len(window)
            assert snap["window_failures"] == sum(window)
            states.append(breaker.state)
        # The walk crossed every transition, so the count was checked
        # across prune, open, half-open and close.
        pairs = set(zip(states, states[1:]))
        assert {(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)} <= pairs
