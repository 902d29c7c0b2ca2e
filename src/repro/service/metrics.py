"""Thread-safe metrics for the enforcement gateway.

A tiny in-process metrics registry in the Prometheus style: named
:class:`Counter`, :class:`Gauge`, and :class:`Histogram` instruments,
created on first use and shared by name.  The registry backs the
``\\stats`` CLI meta-command and the E13 service benchmark, which
report queue depth, accept/reject/timeout counts, cache hit rate, and
latency percentiles.
"""

from __future__ import annotations

import math
import threading
from collections import deque


class Counter:
    """Monotonically increasing count."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depth, busy workers)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class State:
    """A named textual state (e.g. ``breaker_state`` = "closed" /
    "open" / "half-open") with a transition counter."""

    def __init__(self, name: str, initial: str = ""):
        self.name = name
        self._value = initial
        self._transitions = 0
        self._lock = threading.Lock()

    def set(self, value: str) -> None:
        with self._lock:
            if value != self._value:
                self._transitions += 1
            self._value = value

    @property
    def value(self) -> str:
        with self._lock:
            return self._value

    @property
    def transitions(self) -> int:
        with self._lock:
            return self._transitions


class Histogram:
    """Sampled distribution with percentile queries.

    Keeps a bounded reservoir of the most recent ``maxlen`` samples —
    enough for the latency percentiles the gateway reports without
    unbounded growth under sustained traffic.
    """

    def __init__(self, name: str, maxlen: int = 4096):
        self.name = name
        self._samples: deque[float] = deque(maxlen=maxlen)
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """The p-th percentile (0 < p <= 100) of the sample reservoir."""
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._states: dict[str, State] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(self, name: str, maxlen: int = 4096) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, maxlen=maxlen)
            return self._histograms[name]

    def state(self, name: str, initial: str = "") -> State:
        with self._lock:
            if name not in self._states:
                self._states[name] = State(name, initial)
            return self._states[name]

    def snapshot(self) -> dict[str, object]:
        """All instrument values as one flat dict."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            states = dict(self._states)
        out: dict[str, object] = {}
        for name, counter in sorted(counters.items()):
            out[name] = counter.value
        for name, gauge in sorted(gauges.items()):
            out[name] = gauge.value
        for name, state in sorted(states.items()):
            out[name] = state.value
            out[f"{name}_transitions"] = state.transitions
        for name, histogram in sorted(histograms.items()):
            out[f"{name}_count"] = histogram.count
            out[f"{name}_mean"] = histogram.mean
            out[f"{name}_p50"] = histogram.percentile(50)
            out[f"{name}_p95"] = histogram.percentile(95)
            out[f"{name}_p99"] = histogram.percentile(99)
        return out
