"""Circuit breaker for the gateway's WAL commit path.

When durable commits start failing (disk error, injected chaos), the
gateway must not fail the process or let every write queue up behind a
broken fsync.  The breaker implements the classic three-state machine:

* **closed** — commits flow; ``failure_threshold`` consecutive failures
  trip the breaker;
* **open** — writes are rejected *up front* with a typed
  :class:`~repro.errors.ServiceDegraded` error (no statement executes,
  so no partial in-memory state), while reads — which never touch the
  WAL — keep serving.  After ``cooldown`` seconds the breaker moves to
  half-open;
* **half-open** — exactly one probe write is allowed through; success
  closes the breaker, failure re-opens it and restarts the cooldown.

Thread-safe; the breaker counts its own state changes
(``breaker_transitions`` in :meth:`CircuitBreaker.stats`).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        #: lifetime counters (read by gateway stats)
        self.trips = 0
        self.recoveries = 0
        self.transitions = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, new_state: str) -> None:
        """Caller holds the lock; ``new_state`` differs from the current."""
        self._state = new_state
        self.transitions += 1

    def allow(self) -> bool:
        """May a governed call proceed right now?

        In half-open state only a single in-flight probe is admitted;
        the caller must resolve it via :meth:`record_success` /
        :meth:`record_failure`.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.cooldown:
                    return False
                self._transition(HALF_OPEN)
                self._probe_inflight = True
                return True
            # half-open: one probe at a time
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probe_inflight = False
            if self._state != CLOSED:
                self.recoveries += 1
                self._transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._probe_inflight = False
            if self._state == HALF_OPEN:
                self._opened_at = self._clock()
                self.trips += 1
                self._transition(OPEN)
                return
            self._failures += 1
            if self._state == CLOSED and self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self.trips += 1
                self._transition(OPEN)

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "breaker_state": self._state,
                "breaker_consecutive_failures": self._failures,
                "breaker_trips": self.trips,
                "breaker_recoveries": self.recoveries,
                "breaker_transitions": self.transitions,
            }
