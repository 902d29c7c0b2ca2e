"""Grant registry with delegation (paper Sections 4.1 and 6).

Authorization views are granted to users like ordinary privileges; the
*available authorization views* of a user are those granted to her
directly or to ``PUBLIC``.  Section 6: "Delegation can be done outside
of our inferencing system: we can use any delegation specification
technique to collect all available authorization views, whether
directly granted or delegated, and then run our inferencing techniques
on the resulting set."

This registry implements the standard SQL-style technique: grants carry
an optional **grant option**; a holder with the grant option may
delegate the view onward; revoking a grant cascades through the
delegation chains rooted at it.

The registry is safe for concurrent readers and writers: mutations and
reads take one re-entrant lock.  Every successful mutation bumps a
monotonic ``version`` counter (snapshotted and logged for durability)
and the per-grantee counters of :meth:`user_version`, which the
prepared and decision caches stamp their entries with (a query invalid
before a ``\\grant`` may be valid after it, and vice versa after a
revoke).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.errors import GrantError

PUBLIC = "public"
_DBA = "_dba"  # implicit grantor for administrator-issued grants


@dataclass(frozen=True)
class GrantRecord:
    view: str  # lower-cased view name
    grantee: str  # lower-cased principal
    grantor: str  # lower-cased principal (or _DBA)
    grant_option: bool = False


class GrantRegistry:
    """Tracks SELECT grants on authorization views, with delegation."""

    def __init__(self):
        self._records: list[GrantRecord] = []
        self._lock = threading.RLock()
        self._version = 0
        #: per-grantee mutation counters (PreparedStatementCache.stamp)
        self._user_versions: dict[str, int] = {}
        #: durability hook (repro.durability): called as
        #: ``on_change("grant"|"revoke", info_dict)`` after every
        #: successful state change, so registry mutations reach the WAL
        #: no matter which API performed them
        self.on_change: Optional[Callable[[str, dict], None]] = None

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every grant/revoke."""
        with self._lock:
            return self._version

    def _bump_user(self, grantee: str) -> None:
        key = grantee.lower()
        self._user_versions[key] = self._user_versions.get(key, 0) + 1

    def user_version(self, user: Optional[str]) -> tuple[int, int]:
        """Grant-change counters affecting ``user``: (direct, PUBLIC).

        Any grant or revoke whose grantee is ``user`` bumps the first
        component; any whose grantee is ``PUBLIC`` bumps the second.
        A cached artifact stamped with this pair is stale iff a policy
        change could have altered this user's available views."""
        key = PUBLIC if user is None else user.lower()
        with self._lock:
            return (
                self._user_versions.get(key, 0),
                self._user_versions.get(PUBLIC, 0),
            )

    def restore(self, records: Iterable[GrantRecord], version: int) -> None:
        """Replace the full state (snapshot load; no validation)."""
        with self._lock:
            affected = {r.grantee for r in self._records}
            self._records = list(records)
            affected.update(r.grantee for r in self._records)
            affected.add(PUBLIC)
            for grantee in affected:
                self._bump_user(grantee)
            self._version = version

    def restore_version(self, version: int) -> None:
        """Advance the version counter to the one the snapshot or WAL
        recorded (replay continues its numbering)."""
        with self._lock:
            self._version = max(self._version, version)

    # -- granting ---------------------------------------------------------

    def grant(
        self,
        view_name: str,
        grantee: str,
        grantor: Optional[str] = None,
        grant_option: bool = False,
    ) -> None:
        """Record a grant.  With ``grantor=None`` this is an
        administrator action; otherwise the grantor must hold the view
        WITH GRANT OPTION (delegation, §6)."""
        view = view_name.lower()
        who = grantee.lower()
        giver = (grantor or _DBA).lower()
        with self._lock:
            if giver != _DBA and not self.has_grant_option(view_name, giver):
                raise GrantError(
                    f"{grantor!r} cannot delegate {view_name!r}: no grant option"
                )
            record = GrantRecord(view, who, giver, grant_option)
            if record not in self._records:
                self._records.append(record)
                self._version += 1
                self._bump_user(who)
                if self.on_change is not None:
                    self.on_change(
                        "grant",
                        {
                            "view": view,
                            "grantee": who,
                            "grantor": giver,
                            "option": grant_option,
                            "gv": self._version,
                        },
                    )

    def delegate(
        self,
        view_name: str,
        from_user: str,
        to_user: str,
        grant_option: bool = False,
    ) -> None:
        """Delegation: ``from_user`` passes the view to ``to_user``."""
        self.grant(view_name, to_user, grantor=from_user, grant_option=grant_option)

    # -- revocation (cascading) ----------------------------------------------

    def revoke(self, view_name: str, grantee: str,
               grantor: Optional[str] = None) -> None:
        """Revoke ``grantee``'s grant(s) on the view; delegations made
        by the grantee that depended on them are revoked transitively."""
        view = view_name.lower()
        who = grantee.lower()
        giver = None if grantor is None else grantor.lower()
        with self._lock:
            doomed = [
                r
                for r in self._records
                if r.view == view
                and r.grantee == who
                and (giver is None or r.grantor == giver)
            ]
            if not doomed:
                raise GrantError(f"{grantee!r} holds no grant on {view_name!r}")
            for record in doomed:
                self._records.remove(record)
                self._bump_user(record.grantee)
            self._cascade(view)
            self._version += 1
            if self.on_change is not None:
                # the cascade is deterministic from the registry state,
                # so logging the originating revoke is enough to replay it
                self.on_change(
                    "revoke",
                    {
                        "view": view,
                        "grantee": who,
                        "grantor": giver,
                        "gv": self._version,
                    },
                )

    def _cascade(self, view: str) -> None:
        """Drop delegated grants whose grantor no longer has the option."""
        changed = True
        while changed:
            changed = False
            for record in list(self._records):
                if record.view != view or record.grantor == _DBA:
                    continue
                if not self.has_grant_option(view, record.grantor):
                    self._records.remove(record)
                    self._bump_user(record.grantee)
                    changed = True

    # -- queries -----------------------------------------------------------------

    def _grants_for(self, view: str) -> list[GrantRecord]:
        with self._lock:
            return [r for r in self._records if r.view == view]

    def is_granted(self, view_name: str, user: Optional[str]) -> bool:
        view = view_name.lower()
        for record in self._grants_for(view):
            if record.grantee == PUBLIC:
                return True
            if user is not None and record.grantee == user.lower():
                return True
        return False

    def granted_views(self, user: Optional[str]) -> set[str]:
        """Lower-cased names of every view granted to ``user`` (directly
        or via PUBLIC): one pass, the rules of :meth:`is_granted`."""
        who = None if user is None else user.lower()
        with self._lock:
            return {
                r.view
                for r in self._records
                if r.grantee == PUBLIC or r.grantee == who
            }

    def has_grant_option(self, view_name: str, user: Optional[str]) -> bool:
        if user is None:
            return False
        view = view_name.lower()
        lowered = user.lower()
        return any(
            r.grant_option
            and (r.grantee == lowered or r.grantee == PUBLIC)
            for r in self._grants_for(view)
        )

    def views_for(self, user: Optional[str], all_views: Iterable[str]) -> list[str]:
        """Names from ``all_views`` available to ``user``."""
        return [name for name in all_views if self.is_granted(name, user)]

    def grantor_of(self, view_name: str, grantee: str) -> Optional[str]:
        """The grantor of the first grant held by ``grantee`` (None for
        administrator grants)."""
        view = view_name.lower()
        who = grantee.lower()
        for record in self._grants_for(view):
            if record.grantee == who:
                return None if record.grantor == _DBA else record.grantor
        return None

    def grants(self, view_name: Optional[str] = None) -> list[GrantRecord]:
        with self._lock:
            if view_name is None:
                return list(self._records)
            return self._grants_for(view_name.lower())
