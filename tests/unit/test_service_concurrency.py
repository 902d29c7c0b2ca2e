"""Race-regression tests: hammer the shared structures from N threads.

These guard the locking added for the enforcement gateway: the
decision cache and the grant registry must tolerate concurrent readers
and writers without raising, corrupting counters, or violating their
bounds.  Failures here historically show
up as ``RuntimeError: dictionary changed size during iteration``,
silently lost grants, or caches growing past their LRU limit.
"""

import sys
import threading

import pytest

from repro.sql import parse_query
from repro.authviews.registry import GrantRegistry
from repro.nontruman.cache import ValidityCache, query_signature
from repro.nontruman.decision import Validity
from repro.instrument import Metrics

THREADS = 8
OPS = 150


def hammer(worker, threads=THREADS):
    """Run ``worker(index)`` on N threads; re-raise any failure."""
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    pool = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        raise errors[0]


#: a fixed ``db.prepared.stamp(user)`` value for the cache-level races
POLICY = ((0, 0), 0, 0)
#: a CONDITIONAL decision's guard: one probe, which found a row
GUARD = (("probe", True),)


def flipped(guard):
    """A replay after a write that flipped the probe."""
    return False


class TestValidityCacheRaces:
    def test_concurrent_store_lookup_invalidate(self):
        cache = ValidityCache(max_entries=64)
        signed = [
            query_signature(parse_query(f"select x from T where y = {i} and u = 'me'"))
            for i in range(20)
        ]

        def worker(index):
            for i in range(OPS):
                skeleton, literals = signed[(index + i) % len(signed)]
                key = (f"u{index % 3}", (), skeleton)
                stamp = (cache.data_version, POLICY)
                cache.store(
                    key, literals, "me", Validity.CONDITIONAL, "probe", stamp, GUARD
                )
                cache.lookup(
                    key, literals, "me", (cache.data_version, POLICY), flipped
                )
                if i % 25 == 0:
                    cache.invalidate_data()
                if i % 40 == 0:
                    cache.clear()

        hammer(worker)
        assert cache.size <= 64
        # every lookup was accounted exactly once
        assert cache.hits + cache.misses == THREADS * OPS

    def test_concurrent_guard_replays_account_every_lookup(self):
        """Replays run outside the lock while other threads store,
        write and replay the same entries; each lookup still counts one
        hit or one miss, and a restamp never moves an entry backwards."""
        cache = ValidityCache(max_entries=16)
        signed = [
            query_signature(parse_query(f"select x{i} from T where y = 1"))
            for i in range(6)
        ]

        def replay(guard):
            (_, holds), = guard
            if not holds:
                raise RuntimeError("replay aborted")
            return True

        def worker(index):
            for i in range(OPS):
                skeleton, literals = signed[(index + i) % len(signed)]
                key = ("u", (), skeleton)
                stamp = (cache.data_version, POLICY)
                if i % 3 == 0:
                    holds = i % 7 != 0
                    cache.store(
                        key, literals, "u", Validity.CONDITIONAL, "probe",
                        stamp, (("probe", holds),),
                    )
                try:
                    cache.lookup(key, literals, "u", stamp, replay=replay)
                except RuntimeError:
                    pass
                if i % 5 == 0:
                    cache.invalidate_data()

        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        assert cache.lookups == THREADS * OPS
        assert cache.hits + cache.misses == cache.lookups
        assert cache.revalidations > 0
        current = cache.data_version
        assert all(entry.stamp[0] <= current for entry in cache._entries.values())

    def test_lru_bound_holds_under_concurrency(self):
        cache = ValidityCache(max_entries=8)
        # structurally distinct queries: literal-stripping must not
        # collapse them onto one signature
        signed = [
            query_signature(parse_query(f"select a, col{i} from T"))
            for i in range(32)
        ]

        def worker(index):
            for i in range(OPS):
                skeleton, literals = signed[(index * 7 + i) % 32]
                cache.store(
                    ("u", (), skeleton), literals, "u",
                    Validity.UNCONDITIONAL, "ok", (0, POLICY), (),
                )

        hammer(worker)
        assert cache.size <= 8
        assert cache.evictions > 0


class TestGrantRegistryRaces:
    def test_concurrent_grant_revoke_read(self):
        registry = GrantRegistry()
        views = [f"v{i}" for i in range(6)]

        def worker(index):
            me = f"user{index}"
            for i in range(OPS):
                view = views[i % len(views)]
                registry.grant(view, me)
                assert registry.is_granted(view, me)
                registry.views_for(me, views)
                registry.grants()
                if i % 3 == 0:
                    registry.revoke(view, me)

        hammer(worker)
        # a mutation happened on every grant and revoke
        assert registry.version > 0
        # remaining records are exactly the non-revoked grants
        for record in registry.grants():
            assert registry.is_granted(record.view, record.grantee)

    def test_version_monotonic_under_concurrency(self):
        registry = GrantRegistry()
        versions = []

        def worker(index):
            for i in range(OPS):
                registry.grant(f"v{index}_{i}", f"u{index}")
                versions.append(registry.version)

        hammer(worker)
        assert registry.version == THREADS * OPS  # every grant counted once


class TestSharedCacheRaces:
    def test_concurrent_access_with_moving_versions(self):
        state = {"data": 0, "policy": 0}
        cache = ValidityCache(max_entries=4 * 16)
        signed = [
            query_signature(parse_query(f"select x from T where y = {i}"))
            for i in range(24)
        ]

        def worker(index):
            for i in range(OPS):
                skeleton, literals = signed[(index + 3 * i) % len(signed)]
                user = f"u{index % 4}"
                key = (user, (), skeleton)
                stamp = (state["data"], state["policy"])
                cache.store(
                    key, literals, user, Validity.CONDITIONAL, "probe", stamp, GUARD
                )
                stamp = (state["data"], state["policy"])
                found = cache.lookup(key, literals, user, stamp, flipped)
                assert found in (None, (Validity.CONDITIONAL, "probe"))
                if index == 0 and i % 20 == 0:
                    state["data"] += 1
                if index == 1 and i % 50 == 0:
                    state["policy"] += 1

        hammer(worker)
        assert cache.size <= 4 * 16
        assert cache.hits + cache.misses == THREADS * OPS
        # quiescent: a hot entry misses at its first lookup after a
        # policy move, and the move cleared nobody else's entries
        skeleton, literals = signed[0]
        key = ("u0", (), skeleton)
        stamp = (state["data"], state["policy"])
        cache.store(key, literals, "u0", Validity.CONDITIONAL, "probe", stamp, GUARD)
        assert cache.lookup(key, literals, "u0", stamp, flipped) is not None
        size, misses = cache.size, cache.misses
        state["policy"] += 1
        stamp = (state["data"], state["policy"])
        assert cache.lookup(key, literals, "u0", stamp, flipped) is None
        assert cache.misses == misses + 1
        assert cache.size == size


class TestPreparedCacheRaces:
    """Concurrent bind/execute against grant/revoke + DDL churn.

    The hazard: a template is looked up, a revoke lands, and the
    already-checked-out artifact is executed anyway — a stale-plan
    answer.  Every observed outcome must be a legitimate policy state
    (the correct rows, or the exact fresh rejection message); the
    quiescent final answer must reflect the final policy.
    """

    SQL = "select grade from Grades where student_id = '7'"
    REJECTION = (
        "query rejected by Non-Truman model: no rewriting in terms of "
        "the available authorization views was found (rules U1-U3, C1-C3)"
    )

    def _db(self):
        from repro.db import Database

        db = Database()
        db.execute("create table Grades(student_id varchar(8), grade float)")
        db.execute("insert into Grades values ('7', 3.0)")
        db.execute(
            "create authorization view MyGrades as "
            "select * from Grades where student_id = $user_id"
        )
        return db

    def test_bind_vs_grant_revoke_churn(self):
        from repro.db import Database  # noqa: F401  (fixture import parity)
        from repro.errors import QueryRejectedError

        db = self._db()
        db.grant("MyGrades", "7")
        session = db.connect(user_id="7", mode="non-truman").session

        def churn(index):
            for _ in range(OPS // 3):
                db.grants.revoke("MyGrades", "7")
                db.grant("MyGrades", "7")

        def reader(index):
            for _ in range(OPS):
                try:
                    result = db.execute_query(
                        self.SQL, session=session, mode="non-truman",
                        prepared=True,
                    )
                except QueryRejectedError as exc:
                    # legal only with the fresh rejection text — a
                    # garbled or stale message means a torn decision
                    assert str(exc) == self.REJECTION, str(exc)
                else:
                    assert result.rows == [(3.0,)], result.rows

        def worker(index):
            (churn if index == 0 else reader)(index)

        hammer(worker)
        # quiescent: the grant is held, so the answer must come back
        result = db.execute_query(
            self.SQL, session=session, mode="non-truman", prepared=True
        )
        assert result.rows == [(3.0,)]

    def test_bind_vs_view_redefinition_churn(self):
        from repro.errors import QueryRejectedError

        db = self._db()
        db.grant("MyGrades", "7")
        session = db.connect(user_id="7", mode="non-truman").session
        closed = (
            "create authorization view MyGrades as "
            "select * from Grades where student_id = 'nobody'"
        )
        opened = (
            "create authorization view MyGrades as "
            "select * from Grades where student_id = $user_id"
        )

        def churn(index):
            for _ in range(OPS // 5):
                db.execute("drop view MyGrades")
                db.execute(closed)
                db.execute("drop view MyGrades")
                db.execute(opened)

        def reader(index):
            for _ in range(OPS):
                try:
                    result = db.execute_query(
                        self.SQL, session=session, mode="non-truman",
                        prepared=True,
                    )
                except QueryRejectedError as exc:
                    assert str(exc) == self.REJECTION, str(exc)
                else:
                    assert result.rows == [(3.0,)], result.rows

        def worker(index):
            (churn if index == 0 else reader)(index)

        hammer(worker)
        result = db.execute_query(
            self.SQL, session=session, mode="non-truman", prepared=True
        )
        assert result.rows == [(3.0,)]


class TestMetricsRaces:
    def test_counts_and_distributions_exact_under_concurrency(self):
        metrics = Metrics()

        def worker(index):
            for i in range(OPS):
                metrics.bump("requests")
                metrics.bump("busy")
                metrics.observe("latency_ms", float(i))
                metrics.bump("busy", -1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid read-modify-write
        try:
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        report = metrics.report()
        assert report["requests"] == THREADS * OPS
        assert report["busy"] == 0
        assert report["latency_ms_count"] == THREADS * OPS
        assert report["latency_ms_mean"] == (OPS - 1) / 2
