"""Prepared statements (paper §5.6): compile once, bind per request.

``repro.prepared`` caches the full compiled artifact of a query —
literal-stripped skeleton AST, translated algebra plan, and vectorized
kernels — keyed on ``(signature, user, mode, session params)`` and
stamped with one policy/DDL version stamp; :func:`decide` serves
the Non-Truman decision from the database's decision cache.  A hot
repeated query skips parse → check → plan entirely while remaining
observationally identical to fresh execution.  See
:mod:`repro.prepared.cache` for the staleness rule.
"""

from repro.prepared.cache import PreparedStatementCache
from repro.prepared.pipeline import (
    PREPARABLE_MODES,
    context_key,
    decide,
    get_or_build_template,
    resolve_signature,
    run_template,
)
from repro.prepared.template import (
    PlanBinder,
    PlanCompileCache,
    PreparedFallback,
    PreparedTemplate,
    bind_skeleton,
    placeholder_names,
)

__all__ = [
    "PREPARABLE_MODES",
    "PlanBinder",
    "PlanCompileCache",
    "PreparedFallback",
    "PreparedStatementCache",
    "PreparedTemplate",
    "bind_skeleton",
    "context_key",
    "decide",
    "get_or_build_template",
    "placeholder_names",
    "resolve_signature",
    "run_template",
]
