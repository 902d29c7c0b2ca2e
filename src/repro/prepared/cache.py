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

One stamp decides staleness, for templates, the negative cache and
the database's Non-Truman decisions (:func:`repro.prepared.decide`
pairs it with the data version): :meth:`PreparedStatementCache.stamp`
is the triple

* ``grants.user_version(user)`` — the per-user (+PUBLIC) grant-change
  counters.  A grant to user A never retires user B's entries.
* ``catalog.schema_version`` — every table/view DDL, declared
  participation constraint and Truman remap.
* the VPD policy-set version (policy attachment is rare and global).

A template is stamped when its build starts, a negative entry when its
build fails; both are compared with the live stamp on every lookup, and
a mismatch retires the entry there.  Nothing is evicted eagerly.  A
template holds no validity decisions: those live in the database's
decision cache (:mod:`repro.nontruman.cache`).
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
        self.evictions = 0
        self.builds = 0
        self.text_hits = 0
        self.text_misses = 0

    # -- the stamp --------------------------------------------------------

    def stamp(self, user) -> tuple:
        """Everything a prepared entry or a decision for ``user`` is
        derived from besides its key and the data; an entry whose stamp
        differs is stale."""
        db = self._db
        return (
            db.grants.user_version(user),
            db.catalog.schema_version,
            db.vpd_policies.version,
        )

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
            if template.stamp != self.stamp(template.user):
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
            self._negative[key] = self.stamp(user)
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
            if stamp != self.stamp(user):
                del self._negative[key]
                return
        raise PreparedFallback("query is known to be unpreparable")

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
                "prepared_evictions": self.evictions,
                "prepared_text_hits": self.text_hits,
                "prepared_text_misses": self.text_misses,
            }
