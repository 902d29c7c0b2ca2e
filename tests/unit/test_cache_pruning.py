"""Unit tests for the validity cache and view pruning (§5.6 optimizations)."""

from repro.db import Database
from repro.sql import parse_query
from repro.nontruman.cache import (
    DECISION_CACHE_CAPACITY,
    ValidityCache,
    query_signature,
)
from repro.nontruman.decision import Validity
from repro.nontruman.pruning import is_relevant, prune_views, relation_names
from repro.prepared import context_key, decide
from repro.catalog.catalog import Catalog, ViewDef
from repro.nontruman.compiled import compile_view


class TestQuerySignature:
    def test_literals_abstracted(self):
        a, lits_a = query_signature(parse_query("select x from T where y = 'p'"))
        b, lits_b = query_signature(parse_query("select x from T where y = 'q'"))
        assert a == b
        assert lits_a == ("p",) and lits_b == ("q",)

    def test_different_structure_different_signature(self):
        a, _ = query_signature(parse_query("select x from T where y = 1"))
        b, _ = query_signature(parse_query("select x from T where z = 1"))
        assert a != b


#: a fixed ``(data_version, db.prepared.stamp(user))`` for the
#: cache-level units
STAMP = (0, ((0, 0), 0, 0))
#: the same after a grant to the user
MOVED = (0, ((1, 0), 0, 0))


def key_of(sql, user="u", context=()):
    """``(key, literals)`` the way :func:`repro.prepared.decide` forms them."""
    skeleton, literals = query_signature(parse_query(sql))
    return (user, context, skeleton), literals


#: the guard a CONDITIONAL or INVALID decision carries here: one probe,
#: which found a row
GUARD = (("probe", True),)


def put(cache, sql, user_value, validity, reason, user="u", stamp=STAMP):
    """Store the way the checker guards: UNCONDITIONAL holds on every
    state, anything else on :data:`GUARD`."""
    key, literals = key_of(sql, user)
    guard = () if validity is Validity.UNCONDITIONAL else GUARD
    cache.store(key, literals, user_value, validity, reason, stamp, guard)


def changed(guard):
    """A replay after a write that flipped the probe."""
    return False


def get(cache, sql, user_value, user="u", stamp=STAMP):
    key, literals = key_of(sql, user)
    return cache.lookup(key, literals, user_value, stamp, changed)


class TestValidityCache:
    def test_exact_hit(self):
        cache = ValidityCache()
        q = "select x from T where y = '11'"
        put(cache, q, "11", Validity.UNCONDITIONAL, "ok", user="11")
        assert get(cache, q, "11", user="11") == (Validity.UNCONDITIONAL, "ok")
        assert cache.hits == 1

    def test_miss_for_other_user(self):
        cache = ValidityCache()
        q = "select x from T where y = '11'"
        put(cache, q, "11", Validity.UNCONDITIONAL, "ok", user="11")
        assert get(cache, q, "12", user="12") is None

    def test_miss_for_other_context(self):
        """The instantiated views depend on every session parameter."""
        cache = ValidityCache()
        skeleton, literals = query_signature(parse_query("select x from T"))
        early, late = (("time", 499),), (("time", 501),)
        cache.store(
            ("u", early, skeleton), literals, "u", Validity.UNCONDITIONAL, "ok",
            STAMP, (),
        )
        assert cache.lookup(("u", early, skeleton), literals, "u", STAMP, changed)
        assert cache.lookup(("u", late, skeleton), literals, "u", STAMP, changed) is None

    def test_prepared_statement_reuse(self):
        """Same skeleton, the user-id literal position re-bound (§5.6)."""
        cache = ValidityCache()
        put(
            cache, "select x from T where owner = '11' and k = 5", "11",
            Validity.UNCONDITIONAL, "ok",
        )
        # same user value moved: accepted
        assert get(cache, "select x from T where owner = '11' and k = 5", "11")
        # different constant in a non-user position: reject
        assert get(cache, "select x from T where owner = '11' and k = 6", "11") is None
        # user position follows the session's current user value
        assert get(cache, "select x from T where owner = '12' and k = 5", "12")

    def test_conditional_invalidated_by_data_change(self):
        cache = ValidityCache()
        q = "select x from T where y = 1"
        put(cache, q, "u", Validity.CONDITIONAL, "probe ok")
        assert get(cache, q, "u") is not None
        assert get(cache, q, "u", stamp=(1, STAMP[1])) is None

    def test_unconditional_survives_data_change(self):
        cache = ValidityCache()
        q = "select x from T where y = 1"
        put(cache, q, "u", Validity.UNCONDITIONAL, "ok")
        assert get(cache, q, "u", stamp=(1, STAMP[1])) is not None

    def test_invalid_decisions_cacheable(self):
        cache = ValidityCache()
        put(cache, "select x from T", "u", Validity.INVALID, "no rewrite")
        assert get(cache, "select x from T", "u") == (Validity.INVALID, "no rewrite")

    def test_invalid_decisions_invalidated_by_data_change(self):
        """A rejection can become a (conditional) acceptance after DML
        — e.g. Example 4.2's enrollment threshold being crossed — so
        INVALID entries must not outlive the data version either."""
        cache = ValidityCache()
        put(cache, "select x from T", "u", Validity.INVALID, "no rewrite")
        assert get(cache, "select x from T", "u", stamp=(1, STAMP[1])) is None

    def test_nothing_survives_a_moved_policy_stamp(self):
        """GRANT / REVOKE / DDL / a declared constraint / a VPD policy:
        even UNCONDITIONAL decisions are retired, at the next lookup."""
        cache = ValidityCache()
        put(cache, "select x from T", "u", Validity.UNCONDITIONAL, "ok")
        assert get(cache, "select x from T", "u") is not None
        misses = cache.misses
        assert get(cache, "select x from T", "u", stamp=MOVED) is None
        assert cache.misses == misses + 1

    def test_store_with_a_stale_policy_stamp_is_never_served(self):
        """A check racing a policy change stores with the stamp it
        observed before the change; no later lookup serves it."""
        cache = ValidityCache()
        assert get(cache, "select x from T", "u", stamp=MOVED) is None
        put(cache, "select x from T", "u", Validity.UNCONDITIONAL, "ok", stamp=STAMP)
        misses = cache.misses
        assert get(cache, "select x from T", "u", stamp=MOVED) is None
        assert get(cache, "select x from T", "u", stamp=MOVED) is None
        assert cache.misses == misses + 2


class TestLruBound:
    def test_eviction_order_is_least_recently_used(self):
        cache = ValidityCache(max_entries=2)
        put(cache, "select a from T", "u", Validity.UNCONDITIONAL, "a")
        put(cache, "select b from T", "u", Validity.UNCONDITIONAL, "b")
        assert get(cache, "select a from T", "u") is not None  # refresh a
        put(cache, "select c from T", "u", Validity.UNCONDITIONAL, "c")  # evicts b
        assert cache.size == 2
        assert cache.evictions == 1
        assert get(cache, "select b from T", "u") is None
        assert get(cache, "select a from T", "u") is not None
        assert get(cache, "select c from T", "u") is not None

    def test_bounded_by_default(self):
        """One database remembers at most DECISION_CACHE_CAPACITY
        decisions — the total the gateway's cache used to hold."""
        assert Database().validity_cache.max_entries == DECISION_CACHE_CAPACITY == 4096

    def test_explicit_data_version_override(self):
        """Entries are validated against the stamp the caller observed
        on the database, passed explicitly."""
        cache = ValidityCache()
        q = "select x from T where y = 1"
        put(cache, q, "u", Validity.CONDITIONAL, "probe", stamp=(7, STAMP[1]))
        assert get(cache, q, "u", stamp=(7, STAMP[1])) is not None
        assert get(cache, q, "u", stamp=(8, STAMP[1])) is None


class TestCacheInvalidationOnDml:
    """Satellite of the E13 gateway work: cached *conditional* decisions
    must be re-derived after INSERT/DELETE moves the data version."""

    @staticmethod
    def _db():
        db = Database()
        db.execute_script(
            "create table Grades(student_id varchar(10), course_id varchar(10),"
            " grade float, primary key (student_id, course_id));"
            "create table Registered(student_id varchar(10),"
            " course_id varchar(10), primary key (student_id, course_id));"
        )
        db.execute("insert into Registered values ('u1', 'CS1')")
        db.execute("insert into Grades values ('u1', 'CS1', 3.5)")
        db.execute("insert into Grades values ('u2', 'CS1', 2.0)")
        db.execute_script(
            "create authorization view CoGrades as"
            " select Grades.student_id, Grades.course_id, Grades.grade"
            " from Grades, Registered"
            " where Registered.student_id = $user_id"
            "   and Grades.course_id = Registered.course_id;"
            "create authorization view MyRegs as"
            " select * from Registered where student_id = $user_id;"
        )
        db.grant_public("CoGrades")
        db.grant_public("MyRegs")
        return db

    def test_insert_then_delete_recheck_conditional_decision(self):
        db = self._db()
        session = db.connect(user_id="u1").session
        query = parse_query("select * from Grades where course_id = 'CS1'")

        def check():
            return decide(db, session, query, context=context_key(session))

        first = check()
        assert first.conditional and not first.from_cache
        cached = check()
        assert cached.from_cache

        # DELETE moves the data version: the registration probe that
        # justified the decision no longer holds
        db.execute("delete from Registered where student_id = 'u1'")
        after_delete = check()
        assert not after_delete.from_cache
        assert not after_delete.valid

        # INSERT moves it again: validity is re-derived, not replayed
        db.execute("insert into Registered values ('u1', 'CS1')")
        after_insert = check()
        assert not after_insert.from_cache
        assert after_insert.conditional


def iv(name, sql):
    """A compiled view: pruning reads the relation set cached on it."""
    return compile_view(
        Catalog(), ViewDef(name, parse_query(sql), authorization=True), 0
    )


class TestPruning:
    def test_relation_names(self):
        names = relation_names(
            parse_query(
                "select a from T, (select b from U) s "
                "join V on s.b = V.x"
            )
        )
        assert names == {"t", "u", "v"}

    def test_is_relevant(self):
        assert is_relevant(parse_query("select * from Grades"), {"grades"})
        assert not is_relevant(parse_query("select * from Accounts"), {"grades"})

    def test_prune_keeps_direct_overlap(self):
        views = [iv("A", "select * from T"), iv("B", "select * from Other")]
        kept = prune_views(views, parse_query("select x from T"))
        assert [v.name for v in kept] == ["A"]

    def test_prune_fixpoint_keeps_probe_support(self):
        """A view over a relevant view's *other* relation survives
        (needed by C3 probe validation, Example 4.4)."""
        views = [
            iv("CoGrades", "select Grades.grade from Grades, Registered "
                           "where Registered.student_id = 'u' "
                           "and Grades.course_id = Registered.course_id"),
            iv("MyRegs", "select * from Registered where student_id = 'u'"),
            iv("Bank", "select * from Accounts"),
        ]
        kept = prune_views(views, parse_query("select * from Grades"))
        assert {v.name for v in kept} == {"CoGrades", "MyRegs"}

    def test_prune_by_view_name_reference(self):
        views = [iv("VT", "select * from T")]
        kept = prune_views(views, parse_query("select * from VT"))
        assert [v.name for v in kept] == ["VT"]
