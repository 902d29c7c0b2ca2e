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
the VPD version).  Its second part must match exactly; the data version
must match unless the decision is UNCONDITIONAL (conditional acceptances
*and* rejections depend on the database state).  A mismatch is a miss
at that lookup; nothing is cleared eagerly, so a policy change for one
user never retires another user's decisions.

Every structural operation happens under one re-entrant lock, so the
enforcement gateway's workers share the instance.  The entry map is an
LRU: lookups refresh recency, stores evict the least-recently-used
entry on overflow.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

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


@dataclass
class _Entry:
    validity: Validity
    reason: str
    literals: tuple
    #: indices (into the literal tuple) that must match the session user
    user_positions: frozenset[int]
    #: ``(data_version, prepared stamp)`` observed before the check ran
    stamp: tuple


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
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def data_version(self) -> int:
        with self._lock:
            return self._data_version

    def invalidate_data(self) -> None:
        """Call on any data change; retires conditional decisions and
        rejections."""
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
        self, key: tuple, literals: tuple, user_value: object, stamp: tuple
    ) -> Optional[tuple[Validity, str]]:
        """The decision stored under ``key`` if it carries over to
        ``literals`` and is still valid at ``stamp`` — the database's
        current ``(data_version, db.prepared.stamp(user))``."""
        with self._lock:
            entry = self._entries.get(key)
            # Conditional validity depends on the database state, and so do
            # rejections (a query invalid today may become conditionally
            # valid after an insert — Example 4.2's enrollment threshold).
            # Only UNCONDITIONAL acceptances are state-independent.
            if (
                entry is None
                or entry.stamp[1] != stamp[1]
                or (
                    entry.validity is not Validity.UNCONDITIONAL
                    and entry.stamp[0] != stamp[0]
                )
                or not entry_matches(entry, literals, user_value)
            ):
                self.misses += 1
                return None
            self.hits += 1
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
    ) -> None:
        """Remember a decision.  ``stamp`` is the one observed *before*
        the validity check ran: if a concurrent data or policy change
        moved it mid-check, the entry is stored already-stale and
        treated as a miss later."""
        user_positions = frozenset(
            index for index, value in enumerate(literals) if value == user_value
        )
        with self._lock:
            self._entries[key] = _Entry(
                validity, reason, literals, user_positions, stamp
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
            }
