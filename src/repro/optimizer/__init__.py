"""Volcano-style optimizer with AND-OR DAG validity marking (paper §5.6).

The paper describes validity testing inside a Volcano [13] optimizer
extended with the multi-query-optimization unification of [25]:

* queries and views are inserted into one **AND-OR DAG** — rectangular
  *equivalence nodes* (OR: any child computes the result) over circular
  *operation nodes* (AND: all children needed);
* transformation rules (join commutativity/associativity, selection
  push/pull, subsumption derivations) expand the DAG to a fixpoint;
* hash-consing of operation signatures *unifies* common subexpressions,
  so a view equivalent to a query subexpression lands in the same
  equivalence node;
* the basic inference rules U1/U2 become a bottom-up **marking**: an
  equivalence node is valid if any child operation is valid; an
  operation node is valid if all its child equivalence nodes are valid
  (§5.6.2).

This package is the second, independent implementation of the basic
rules (the block matcher in :mod:`repro.nontruman.matching` is the
first); tests cross-check the two, and experiments E1/E2 measure DAG
growth (Figure 1) and marking overhead.
"""

from repro.optimizer.dag import Memo, EqNode, OpNode
from repro.optimizer.expand import expand_memo
from repro.optimizer.marking import mark_validity
from repro.optimizer.cost import best_plan, CostModel
from repro.optimizer.planner import VolcanoOptimizer, DagStatistics
from repro.optimizer.pushdown import (
    PushableEquality,
    ScanAnnotation,
    annotate_scan,
    probe_row_ids,
    split_pushable_equalities,
)

__all__ = [
    "Memo",
    "EqNode",
    "OpNode",
    "expand_memo",
    "mark_validity",
    "best_plan",
    "CostModel",
    "VolcanoOptimizer",
    "DagStatistics",
    "PushableEquality",
    "ScanAnnotation",
    "annotate_scan",
    "probe_row_ids",
    "split_pushable_equalities",
]
