"""Unit tests for the WAL circuit breaker and the chaos injector."""

import pytest

from repro.errors import TransientFault
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.chaos import ChaosInjector


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=threshold, cooldown=cooldown, clock=clock
        )
        return breaker, clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert breaker.transitions == 1

    def test_success_resets_failure_streak(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_rejects_until_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_single_probe(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        assert not breaker.allow()  # second caller waits for the probe

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(1.1)
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.recoveries == 1
        assert breaker.stats()["breaker_transitions"] == 3

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(10.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        assert not breaker.allow()
        clock.advance(10.1)
        assert breaker.allow()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)

    def test_stats(self):
        breaker, _ = self.make(threshold=1)
        breaker.record_failure()
        stats = breaker.stats()
        assert stats["breaker_state"] == OPEN
        assert stats["breaker_trips"] == 1


class TestChaosInjector:
    def test_unarmed_points_are_free(self):
        chaos = ChaosInjector(seed=1)
        chaos.fire("gateway.dequeue")  # no spec, no effect
        assert chaos.stats() == {}

    def test_transient_fault_raised(self):
        chaos = ChaosInjector(seed=1)
        chaos.inject("gateway.before_check", "transient", probability=1.0)
        with pytest.raises(TransientFault):
            chaos.fire("gateway.before_check")
        assert chaos.stats() == {"gateway.before_check:transient": 1}

    def test_io_error_raised(self):
        chaos = ChaosInjector(seed=1)
        chaos.inject("gateway.before_commit", "io-error")
        with pytest.raises(OSError):
            chaos.fire("gateway.before_commit")

    def test_worker_crash_raised(self):
        chaos = ChaosInjector(seed=1)
        chaos.inject("gateway.dequeue", "worker-crash")
        with pytest.raises(RuntimeError):
            chaos.fire("gateway.dequeue")

    def test_times_bounds_firings(self):
        chaos = ChaosInjector(seed=1)
        chaos.inject("gateway.before_check", "transient", times=2)
        for _ in range(2):
            with pytest.raises(TransientFault):
                chaos.fire("gateway.before_check")
        chaos.fire("gateway.before_check")  # exhausted: no raise
        assert chaos.stats()["gateway.before_check:transient"] == 2

    def test_probability_zero_never_fires(self):
        chaos = ChaosInjector(seed=1)
        chaos.inject("gateway.before_check", "transient", probability=0.0)
        for _ in range(50):
            chaos.fire("gateway.before_check")
        assert chaos.stats() == {}

    def test_probability_is_seeded(self):
        def run(seed):
            chaos = ChaosInjector(seed=seed)
            chaos.inject("p", "delay", probability=0.5)
            for _ in range(100):
                chaos.fire("p")
            return chaos.stats().get("p:delay", 0)

        assert run(7) == run(7)

    def test_unknown_kind_rejected(self):
        chaos = ChaosInjector()
        with pytest.raises(ValueError):
            chaos.inject("p", "meteor-strike")

    def test_clear_disarms(self):
        chaos = ChaosInjector(seed=1)
        chaos.inject("p", "transient")
        chaos.clear("p")
        chaos.fire("p")  # no raise
        chaos.inject("p", "transient")
        chaos.clear()
        chaos.fire("p")  # no raise

