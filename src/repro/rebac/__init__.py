"""repro.rebac — relationship-tuple policies compiled to authorization views.

A Zanzibar-style relationship model lowered onto the paper's machinery:

* :mod:`repro.rebac.tuples` — the ``(object, relation, subject)`` tuple
  store with userset subjects (``team:eng#member``), optional grant
  expiry, and deterministic cycle detection on the group graph;
* :mod:`repro.rebac.namespace` — the namespace configuration language
  (object types, relations, ``computed``/``via`` inheritance rules);
* :mod:`repro.rebac.compiler` — the policy compiler: a deterministic
  grant-closure fixpoint materialized as the ``RebacGrants`` relation
  plus parameterized authorization views whose bodies stay inside the
  paper's conjunctive-query fragment (``$user_id``/``$time``);
* :mod:`repro.rebac.manager` — the live subsystem on a Database: tuple
  writes flow through the WAL as policy-bearing records (bumping the
  cluster policy epoch *before* any state changes, so a revoked tuple
  is never served stale), closure deltas are applied in a deterministic
  order shared by coordinator, replicas, and crash recovery;
* :mod:`repro.rebac.trace` — the decision tracer behind the
  ``\\explain`` meta-command and the ``explain`` wire message: which
  authorization view / inference rule / tuple chain justified an
  acceptance, or which missing coverage caused a rejection.
"""

from repro.rebac.tuples import (
    NEVER_EXPIRES,
    RebacCycleError,
    RebacError,
    RelationTuple,
    TupleStore,
    detect_cycle,
    parse_object,
    parse_subject,
)
from repro.rebac.namespace import (
    Computed,
    Direct,
    NamespaceConfig,
    ObjectTypeDef,
    RelationDef,
    TableBinding,
    Via,
)
from repro.rebac.compiler import (
    Grant,
    closure_rows,
    compile_views,
    compute_closure,
    view_sql,
)
from repro.rebac.manager import RebacManager, attach_rebac
from repro.rebac.trace import ExplainReport, explain_query, render_report

__all__ = [
    "NEVER_EXPIRES",
    "Computed",
    "Direct",
    "ExplainReport",
    "Grant",
    "NamespaceConfig",
    "ObjectTypeDef",
    "RebacCycleError",
    "RebacError",
    "RebacManager",
    "RelationDef",
    "RelationTuple",
    "TableBinding",
    "TupleStore",
    "Via",
    "attach_rebac",
    "closure_rows",
    "compile_views",
    "compute_closure",
    "detect_cycle",
    "explain_query",
    "parse_object",
    "parse_subject",
    "render_report",
    "view_sql",
]
