"""The prepared-statement template cache (paper §5.6).

Two LRU tiers:

* a **text tier** mapping raw SQL text to its parsed signature
  ``(skeleton, literals, signature_text)``.  This is pure parse
  memoization — user-independent and state-independent (stripping
  literals commutes with everything) — so it never needs invalidation.
  It is what makes *transparent* server-side templating possible: a
  plain repeated query string skips the parser entirely.
* a **template tier** mapping ``(skeleton, user, mode, params_key)`` to
  a :class:`~repro.prepared.template.PreparedTemplate`.

Invalidation is **exact**, not epoch-global.  Each template is stamped
with the version counters of precisely the state it was compiled from:

* ``grants.user_version(user)`` — the per-user (+PUBLIC) grant-change
  counters.  A grant to user A never evicts user B's templates.
* ``catalog.relation_version(name)`` for every relation the skeleton
  transitively references (through view definitions and Truman view
  substitutions).  DDL on relation X never evicts templates over Y.
* the VPD policy-set version (policy attachment is rare and global).

A template is validated against the live counters on every lookup, so
even without the proactive ``invalidate_*`` hooks a stale template can
never be served; the hooks merely evict eagerly so the stats stay
honest.  A template holds no validity decisions: those live in the
database's decision cache (:mod:`repro.nontruman.cache`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.prepared.template import PreparedFallback, PreparedTemplate

#: templates per (user, mode, params) slot before LRU eviction
DEFAULT_MAX_TEMPLATES = 256
DEFAULT_MAX_TEXTS = 1024
_MAX_NEGATIVE = 512


class PreparedStatementCache:
    """Thread-safe two-tier cache of prepared artifacts for one
    :class:`~repro.db.Database`."""

    def __init__(
        self,
        db,
        max_templates: int = DEFAULT_MAX_TEMPLATES,
        max_texts: int = DEFAULT_MAX_TEXTS,
    ):
        self._db = db
        self._lock = threading.RLock()
        self._templates: "OrderedDict[tuple, PreparedTemplate]" = OrderedDict()
        self._texts: "OrderedDict[str, tuple]" = OrderedDict()
        #: keys that recently failed to build, stamped with the version
        #: snapshot at failure time (a policy/DDL change may make them
        #: preparable, so stale stamps drop the negative entry)
        self._negative: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.max_templates = max_templates
        self.max_texts = max_texts
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: calls to invalidate_user / invalidate_relation (counted even
        #: when nothing matched — replication idempotence tests assert a
        #: re-applied policy record triggers no second call)
        self.user_invalidations = 0
        self.relation_invalidations = 0
        self.evictions = 0
        self.builds = 0
        self.text_hits = 0
        self.text_misses = 0

    # -- version stamps ---------------------------------------------------

    def _stamp(self, user) -> tuple:
        db = self._db
        return (
            db.grants.user_version(user),
            db.catalog.schema_version,
            db.vpd_policies.version,
        )

    def _is_stale(self, template: PreparedTemplate) -> bool:
        db = self._db
        if db.grants.user_version(template.user) != template.grant_version:
            return True
        if db.vpd_policies.version != template.vpd_version:
            return True
        for name, version in template.relation_versions:
            if db.catalog.relation_version(name) != version:
                return True
        return False

    # -- text tier --------------------------------------------------------

    def lookup_text(self, sql: str) -> Optional[tuple]:
        """Memoized ``(skeleton, literals, signature_text)`` for raw SQL."""
        with self._lock:
            entry = self._texts.get(sql)
            if entry is None:
                self.text_misses += 1
                return None
            self.text_hits += 1
            self._texts.move_to_end(sql)
            return entry

    def remember_text(
        self, sql: str, skeleton, literals: tuple, signature_text: str
    ) -> None:
        with self._lock:
            self._texts[sql] = (skeleton, literals, signature_text)
            self._texts.move_to_end(sql)
            while len(self._texts) > self.max_texts:
                self._texts.popitem(last=False)

    # -- template tier ----------------------------------------------------

    def lookup(self, key: tuple) -> Optional[PreparedTemplate]:
        with self._lock:
            template = self._templates.get(key)
            if template is None:
                self.misses += 1
                return None
            if self._is_stale(template):
                del self._templates[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self.hits += 1
            self._templates.move_to_end(key)
            return template

    def store(self, key: tuple, template: PreparedTemplate) -> None:
        with self._lock:
            self.builds += 1
            self._templates[key] = template
            self._templates.move_to_end(key)
            self._negative.pop(key, None)
            while len(self._templates) > self.max_templates:
                self._templates.popitem(last=False)
                self.evictions += 1

    # -- negative cache ---------------------------------------------------

    def note_unpreparable(self, key: tuple, user) -> None:
        with self._lock:
            self._negative[key] = self._stamp(user)
            self._negative.move_to_end(key)
            while len(self._negative) > _MAX_NEGATIVE:
                self._negative.popitem(last=False)

    def check_unpreparable(self, key: tuple, user) -> None:
        """Raise :class:`PreparedFallback` if ``key`` recently failed to
        build and nothing relevant changed since."""
        with self._lock:
            stamp = self._negative.get(key)
            if stamp is None:
                return
            if stamp != self._stamp(user):
                del self._negative[key]
                return
        raise PreparedFallback("query is known to be unpreparable")

    # -- eager invalidation ----------------------------------------------

    def invalidate_user(self, user) -> None:
        """Drop templates belonging to ``user`` (PUBLIC drops all —
        a PUBLIC grant changes every user's available views)."""
        from repro.authviews.registry import PUBLIC

        key_user = None if user is None else str(user).lower()
        with self._lock:
            self.user_invalidations += 1
            doomed = [
                key
                for key, template in self._templates.items()
                if key_user == PUBLIC
                or (template.user is None and key_user is None)
                or (
                    template.user is not None
                    and str(template.user).lower() == key_user
                )
            ]
            for key in doomed:
                del self._templates[key]
            self.invalidations += len(doomed)
            self._negative.clear()

    def invalidate_relation(self, name: str) -> None:
        """Drop templates that (transitively) reference ``name``."""
        with self._lock:
            self.relation_invalidations += 1
            doomed = [
                key
                for key, template in self._templates.items()
                if template.references(name)
            ]
            for key in doomed:
                del self._templates[key]
            self.invalidations += len(doomed)
            self._negative.clear()

    def invalidate_all(self) -> None:
        with self._lock:
            self.invalidations += len(self._templates)
            self._templates.clear()
            self._negative.clear()

    # -- introspection ----------------------------------------------------

    @property
    def size(self) -> int:
        with self._lock:
            return len(self._templates)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "prepared_templates": len(self._templates),
                "prepared_texts": len(self._texts),
                "prepared_hits": self.hits,
                "prepared_misses": self.misses,
                "prepared_hit_rate": (self.hits / total) if total else 0.0,
                "prepared_builds": self.builds,
                "prepared_invalidations": self.invalidations,
                "prepared_user_invalidations": self.user_invalidations,
                "prepared_relation_invalidations": self.relation_invalidations,
                "prepared_evictions": self.evictions,
                "prepared_text_hits": self.text_hits,
                "prepared_text_misses": self.text_misses,
            }
