"""repro.service — the concurrent policy-enforcement gateway.

A thread-safe, multi-session front door over one
:class:`~repro.db.Database`: worker pool, bounded admission queue with
backpressure, per-request deadlines, and an observability layer
(structured audit log + one :class:`~repro.instrument.Metrics` store).
Validity decisions are remembered by the database's own decision cache
(:mod:`repro.nontruman.cache`).

Quickstart::

    from repro.service import EnforcementGateway, QueryRequest

    gateway = EnforcementGateway(db, workers=4)
    response = gateway.execute(
        QueryRequest(user="11", sql="select * from MyGrades")
    )
    assert response.ok
    gateway.shutdown()
"""

from repro.service.audit import AuditLog, AuditRecord
from repro.service.breaker import CircuitBreaker
from repro.service.chaos import (
    ChaosInjector,
    FaultSpec,
    GATEWAY_FAULT_POINTS,
    NET_FAULT_POINTS,
)
from repro.service.clock import Clock, ManualClock, SYSTEM_CLOCK
from repro.service.context import QueryContext
from repro.service.gateway import EnforcementGateway, PendingQuery
from repro.service.request import QueryRequest, QueryResponse, RequestStatus, Timing

__all__ = [
    "AuditLog",
    "AuditRecord",
    "ChaosInjector",
    "CircuitBreaker",
    "Clock",
    "ManualClock",
    "SYSTEM_CLOCK",
    "EnforcementGateway",
    "FaultSpec",
    "GATEWAY_FAULT_POINTS",
    "NET_FAULT_POINTS",
    "PendingQuery",
    "QueryContext",
    "QueryRequest",
    "QueryResponse",
    "RequestStatus",
    "Timing",
]
