"""The process's one metrics store.

:class:`Metrics` keeps named counts and sampled distributions behind one
lock.  Two kinds of caller share it:

* **pipeline stages** bump the process-global :data:`COUNTERS`.  The
  prepared-statement cache (:mod:`repro.prepared`) claims that a hot
  template hit performs **zero** parse / validity-check / plan work.
  That claim is enforced by tests, not by inspection: the expensive
  stages each bump a named counter here, and the tests (and the E22
  tracer) assert the :meth:`Metrics.delta_since` of a
  :meth:`Metrics.snapshot` across a cache hit is exactly zero.  Nothing
  in the engine reads these counts back.
* **the enforcement gateway** owns one ``Metrics`` per gateway
  (``EnforcementGateway.metrics``), shared with the network server that
  fronts it: request outcomes, retries, worker and connection gauges
  (negative bumps), wire frames, and the latency distributions that
  :meth:`Metrics.report` summarises for ``\\stats``.

Stages
======

``sql.parse``        a statement was parsed from text
``validity.check``   the Non-Truman checker ran an inference
``validity.probe``   a C3 probe was executed (per-check memo misses only)
``validity.view_compile``  an authorization view was compiled (once per
                     view and catalog version, :mod:`repro.nontruman.compiled`)
``plan.build``       a query was translated to algebra
``plan.push``        the selection-pushdown optimizer ran over a plan
``engine.compile``   a scalar expression was compiled to a vector kernel
``prepared.bind``    a template was bound with fresh literals
``cluster.scatter``  a coordinator scattered a plan over its shards
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, Tuple

#: samples each distribution keeps (the most recent ones): enough for
#: the latency percentiles the gateway reports without unbounded growth
#: under sustained traffic
RESERVOIR = 4096

#: the percentiles :meth:`Metrics.report` gives for each distribution
PERCENTILES = (50, 95, 99)


class Metrics:
    """Named counts and sampled distributions, thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        #: distribution name -> (observations, sum of values)
        self._totals: Dict[str, Tuple[int, float]] = {}
        self._samples: Dict[str, Deque[float]] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` (may be negative, for gauges) to a count; a
        bump of 0 makes the count show in :meth:`snapshot` at zero."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def observe(self, name: str, value: float) -> None:
        """Record one sample of a distribution."""
        with self._lock:
            samples = self._samples.get(name)
            if samples is None:
                samples = self._samples[name] = deque(maxlen=RESERVOIR)
            samples.append(value)
            count, total = self._totals.get(name, (0, 0.0))
            self._totals[name] = (count + 1, total + value)

    def snapshot(self) -> Dict[str, int]:
        """The counts (not the distributions), as a plain dict."""
        with self._lock:
            return dict(self._counts)

    def delta_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Count deltas relative to an earlier :meth:`snapshot`."""
        with self._lock:
            out = {}
            for name, value in self._counts.items():
                diff = value - snapshot.get(name, 0)
                if diff:
                    out[name] = diff
            return out

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._totals.clear()
            self._samples.clear()

    def report(self) -> Dict[str, object]:
        """The counts, then ``<name>_count/_mean/_p50/_p95/_p99`` of
        each distribution (percentiles over the sample reservoir)."""
        with self._lock:
            out: Dict[str, object] = dict(sorted(self._counts.items()))
            distributions = [
                (name, self._totals[name], list(samples))
                for name, samples in sorted(self._samples.items())
            ]
        for name, (count, total), samples in distributions:
            ordered = sorted(samples)
            out[f"{name}_count"] = count
            out[f"{name}_mean"] = total / count
            for p in PERCENTILES:
                rank = max(1, math.ceil(p / 100.0 * len(ordered)))
                out[f"{name}_p{p}"] = ordered[rank - 1]
        return out


#: the process-global store the pipeline stages bump
COUNTERS = Metrics()
