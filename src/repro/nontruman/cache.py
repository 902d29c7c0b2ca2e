"""The validity-decision cache (paper Section 5.6, "Optimizations of
Validity Checking").

Each :class:`~repro.db.Database` owns exactly one :class:`ValidityCache`
(``db.validity_cache``); every serving path reaches it through
:func:`repro.prepared.decide`.  Two mechanisms from the paper:

* **Session caching** — "if the same query is reissued multiple times in
  a session, we can cache the results of the validity check".
* **Prepared statements** — "for ODBC/JDBC prepared statements, we can
  analyze the query without the actual parameters ... and come up with a
  cheap test that is used each time the query is executed".  Entries are
  keyed on a *parameter-stripped signature*: literals in the query are
  replaced by placeholders, and the entry records which placeholder
  positions must equal ``$user_id`` for the decision to carry over.

**Key**: ``(user, context, skeleton)`` — the instantiated authorization
views depend on every session parameter (§3.1), so the parameters other
than ``$user_id`` (``$time``, ``$location``, extras) are part of the
key.  **Stamp**: ``(data_version, db.prepared.stamp(user))`` observed
before the check ran — the same per-user stamp that retires prepared
templates (the user's and PUBLIC's grant counters, the schema version,
the VPD version).  Its second part must match exactly, or the lookup
misses; nothing is cleared eagerly, so a policy change for one user
never retires another user's decisions.

**Guard** — §5.6's "cheap test": the ``(probe plan, non-empty)`` pairs
the check read (:attr:`ValidityDecision.guard`).  The checker reads
table data only through those probes, so a decision whose data version
is stale still holds if every probe answers as it did: ``lookup`` hands
such an entry to the caller's ``replay``, *outside* the lock, and
re-stamps it when the replay agrees (``cache_revalidations``) or misses
when it does not (``cache_revalidation_failures``).  An empty guard —
every UNCONDITIONAL decision, and a rejection that never probed — is
data-independent and is served across writes.  An entry looked up with
literals other than the ones its probes hold misses once its data
version is stale.  A write moves ``data_version`` once its change is
applied (:meth:`invalidate_data`), so a check that read the state while
the change was under way carries the version from before it and is
stale once the change lands.

Every structural operation happens under one re-entrant lock, so the
enforcement gateway's workers share the instance; no probe runs under
it.  Each lookup is exactly one hit or one miss.  The entry map is an
LRU: lookups refresh recency, stores evict the least-recently-used
entry on overflow.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sql import ast
from repro.algebra import expr as exprs
from repro.nontruman.decision import Validity


#: decisions one database remembers before LRU eviction
DECISION_CACHE_CAPACITY = 4096


def query_signature(query: ast.QueryExpr) -> tuple:
    """Structural signature of a query with literals abstracted out.

    Returns ``(skeleton, literals)`` where ``skeleton`` is the query
    with every literal replaced by an indexed placeholder and
    ``literals`` is the tuple of extracted values.
    """
    literals: list[object] = []

    def strip(expr: ast.Expr) -> ast.Expr:
        def visit(node: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(node, ast.Literal) and node.value is not None:
                literals.append(node.value)
                return ast.AccessParam(f"_lit{len(literals)}")
            return None

        return exprs.transform(expr, visit)

    from repro.algebra.translate import _map_query_exprs

    skeleton = _map_query_exprs(query, strip)
    return skeleton, tuple(literals)


@dataclass(slots=True)
class _Entry:
    validity: Validity
    reason: str
    literals: tuple
    #: indices (into the literal tuple) that must match the session user
    user_positions: frozenset[int]
    #: ``(data_version, prepared stamp)`` observed before the check ran
    stamp: tuple
    #: ``(probe plan, non-empty)`` pairs that re-validate the decision
    #: after a write; ``()`` = data-independent
    guard: tuple


def entry_matches(
    entry: _Entry, literals: tuple, user_value: object
) -> bool:
    """Does a stored entry's decision carry over to these literals?

    Exact literal match always carries over.  Otherwise apply the
    prepared-statement rule: positions that previously held the session
    parameter must hold the *current* session parameter, and every
    other literal must be unchanged.
    """
    if entry.literals == literals:
        return True
    if len(entry.literals) != len(literals):
        return False
    for index, (old, new) in enumerate(zip(entry.literals, literals)):
        if index in entry.user_positions:
            if new != user_value:
                return False
        elif old != new:
            return False
    return True


class ValidityCache:
    """The LRU-bounded, thread-safe decision cache of one database."""

    def __init__(self, max_entries: int = DECISION_CACHE_CAPACITY):
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._lock = threading.RLock()
        self._data_version = 0
        self.max_entries = max_entries
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.revalidations = 0
        self.revalidation_failures = 0

    @property
    def data_version(self) -> int:
        with self._lock:
            return self._data_version

    def invalidate_data(self) -> None:
        """Call once a data change is applied (or undone); a decision
        with a non-empty guard is re-validated at its next lookup."""
        with self._lock:
            self._data_version += 1

    def restore_data_version(self, version: int) -> None:
        """Advance the counter after crash recovery so decisions stamped
        before the crash can never validate against the recovered state."""
        with self._lock:
            self._data_version = max(self._data_version, version)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------

    def lookup(
        self,
        key: tuple,
        literals: tuple,
        user_value: object,
        stamp: tuple,
        replay: Callable[[tuple], bool],
    ) -> Optional[tuple[Validity, str]]:
        """The decision stored under ``key`` if it carries over to
        ``literals`` and is still valid at ``stamp`` — the database's
        current ``(data_version, db.prepared.stamp(user))``.

        An entry whose data version alone is stale is served if
        ``replay(guard)`` — called without the lock held — reports that
        every probe still answers the same; it is then re-stamped with
        ``stamp``.  An exception from ``replay`` counts as a miss and
        propagates."""
        with self._lock:
            self.lookups += 1
            entry = self._entries.get(key)
            if (
                entry is None
                or entry.stamp[1] != stamp[1]
                or not entry_matches(entry, literals, user_value)
            ):
                self.misses += 1
                return None
            # Conditional validity depends on the database state, and so
            # may a rejection (a query invalid today may become
            # conditionally valid after an insert — Example 4.2's
            # enrollment threshold); the guard says how.
            if entry.guard == () or entry.stamp[0] == stamp[0]:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry.validity, entry.reason
            if entry.literals != literals:
                self.misses += 1
                return None
        try:
            holds = replay(entry.guard)
        except BaseException:
            with self._lock:
                self.misses += 1
            raise
        with self._lock:
            if not holds:
                self.misses += 1
                self.revalidation_failures += 1
                return None
            self.hits += 1
            self.revalidations += 1
            # a concurrent store may have replaced the entry, a later
            # replay re-stamped it already
            if self._entries.get(key) is entry and entry.stamp[0] < stamp[0]:
                entry.stamp = stamp
                self._entries.move_to_end(key)
            return entry.validity, entry.reason

    def store(
        self,
        key: tuple,
        literals: tuple,
        user_value: object,
        validity: Validity,
        reason: str,
        stamp: tuple,
        guard: tuple,
    ) -> None:
        """Remember a decision with the ``guard`` its check returned.
        ``stamp`` is the one observed *before* the validity check ran:
        if a concurrent data or policy change moved it mid-check, the
        entry is stored already-stale and re-validated (or missed)
        later."""
        if not isinstance(guard, tuple):
            raise TypeError(f"a stored decision needs its guard, not {guard!r}")
        user_positions = frozenset(
            index for index, value in enumerate(literals) if value == user_value
        )
        with self._lock:
            self._entries[key] = _Entry(
                validity, reason, literals, user_positions, stamp, guard
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    @property
    def size(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, object]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "cache_entries": len(self._entries),
                "cache_hits": self.hits,
                "cache_misses": self.misses,
                "cache_hit_rate": round(self.hits / total, 4) if total else 0.0,
                "cache_evictions": self.evictions,
                "cache_revalidations": self.revalidations,
                "cache_revalidation_failures": self.revalidation_failures,
            }
