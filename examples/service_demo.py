"""Enforcement gateway demo: three concurrent student portals.

Spins up the service layer (:mod:`repro.service`) over the university
workload and drives three users from three client threads — the
multi-session regime the paper's in-server enforcement architecture
(§2) implies.  Shows:

* concurrent Non-Truman enforcement — valid queries answered exactly,
  invalid ones rejected with the rule trace, in parallel;
* the shared validity-decision cache warming across sessions (§5.6);
* a deadline-expired request returning a structured timeout;
* backpressure when the admission queue is full;
* the audit log and the ``\\stats``-style metrics snapshot.

Run:  python examples/service_demo.py
"""

import threading

from repro import ServiceOverloaded
from repro.service import EnforcementGateway, QueryRequest
from repro.workloads.university import UniversityConfig, build_university

db = build_university(UniversityConfig(students=30, courses=6, seed=7))
gateway = EnforcementGateway(db, workers=4, queue_size=16, name="portal")

USERS = ("11", "12", "13")
print_lock = threading.Lock()


def portal_session(user: str) -> None:
    """One student's portal session: her grades (twice — the second
    one should hit the cache), a co-student listing, and a forbidden
    full-table scan."""
    scripts = [
        f"select grade from Grades where student_id = '{user}'",
        f"select grade from Grades where student_id = '{user}'",
        f"select course_id from Registered where student_id = '{user}'",
        "select * from Grades",  # not derivable from her views
    ]
    for sql in scripts:
        response = gateway.execute(QueryRequest(user=user, sql=sql))
        with print_lock:
            status = response.status.value
            hit = " [cache hit]" if response.cache_hit else ""
            print(f"  user {user}: {status:>8}{hit}  {sql}")
            if response.ok:
                print(f"    {len(response.rows)} row(s)")
            else:
                print(f"    {response.error}")


print("=" * 70)
print("THREE CONCURRENT PORTAL SESSIONS (non-truman enforcement)")
print("=" * 70)
clients = [threading.Thread(target=portal_session, args=(u,)) for u in USERS]
for client in clients:
    client.start()
for client in clients:
    client.join()

print()
print("=" * 70)
print("DEADLINES AND BACKPRESSURE")
print("=" * 70)
expired = gateway.execute(
    QueryRequest(user="11", sql="select * from Courses", mode="open",
                 deadline=0.0)
)
print(f"  deadline=0 request -> {expired.status.value}: {expired.error}")

flood = [
    gateway.submit(
        QueryRequest(user=u, sql="select count(*) from Courses", mode="open")
    )
    for u in USERS
]
try:
    tiny = EnforcementGateway(db, workers=1, queue_size=1, name="tiny")
    tiny._rwlock.acquire_read()  # pin the worker mid-write for the demo
    pinned = tiny.submit(
        QueryRequest(user=None, mode="open",
                     sql="insert into Courses values ('CS900', 'Demo')")
    )
    while tiny.metrics.get("workers_busy") < 1:
        pass  # wait until the worker has dequeued the pinned DML
    queued = tiny.submit(
        QueryRequest(user="11", sql="select 1 from Courses", mode="open")
    )
    try:
        tiny.submit(
            QueryRequest(user="12", sql="select 1 from Courses", mode="open")
        )
    except ServiceOverloaded as exc:
        print(f"  queue full -> ServiceOverloaded: {exc}")
    tiny._rwlock.release_read()
    pinned.result(timeout=10)
    queued.result(timeout=10)
    tiny.shutdown(drain=True)
    db.execute("delete from Courses where course_id = 'CS900'")
finally:
    for pending in flood:
        pending.result(timeout=10)

print()
print("=" * 70)
print("AUDIT TRAIL (last 6 records, literal-stripped signatures)")
print("=" * 70)
for record in gateway.audit.tail(6):
    rules = ",".join(record.rules) or "-"
    print(
        f"  #{record.seq} user={record.user} status={record.status:>8} "
        f"rules={rules:<8} {record.latency_ms:6.2f}ms  {record.signature}"
    )

print()
print(gateway.render_stats())
gateway.shutdown(drain=True)
