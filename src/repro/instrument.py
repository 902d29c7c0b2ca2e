"""Pipeline stage counters (prepared-statement instrumentation).

The prepared-statement cache (:mod:`repro.prepared`) claims that a hot
template hit performs **zero** parse / validity-check / plan work.  That
claim is enforced by tests, not by inspection: the expensive stages each
bump a named global counter here, and the tests assert the counter
deltas are exactly zero across a cache hit.

Counters are process-global and thread-safe.  They are instrumentation
only — nothing in the engine reads them back.

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
"""

from __future__ import annotations

import threading
from typing import Dict


class StageCounters:
    """Named, thread-safe monotonic counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()

    def delta_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        with self._lock:
            out = {}
            for name, value in self._counts.items():
                diff = value - snapshot.get(name, 0)
                if diff:
                    out[name] = diff
            return out


#: the process-global counter set
COUNTERS = StageCounters()
