"""Validity decisions and derivation traces."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.algebra import ops


class Validity(enum.Enum):
    """Outcome of the Non-Truman validity test (paper Definitions 4.1/4.3)."""

    UNCONDITIONAL = "unconditional"
    CONDITIONAL = "conditional"
    INVALID = "invalid"


@dataclass
class RuleApplication:
    """One step in the derivation trace: which inference rule fired."""

    rule: str  # "U1", "U2", "U3a", "U3b", "U3c", "C1", "C2", "C3a", "C3b"
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}" if self.detail else self.rule


@dataclass
class ValidityDecision:
    """Result of checking one query.

    ``witness`` is a logical plan over authorization-view scans
    (:class:`~repro.algebra.ops.ViewRel` leaves) that is equivalent to
    the checked query — on all database states for UNCONDITIONAL, on all
    PA-equivalent states for CONDITIONAL.  Soundness tests execute the
    witness and compare with the original query's result.
    """

    validity: Validity
    reason: str = ""
    witness: Optional[ops.Operator] = None
    trace: list[RuleApplication] = field(default_factory=list)
    #: names of authorization views the witness depends on
    views_used: tuple[str, ...] = ()
    #: number of database-state probes executed (C3 rules)
    probes_executed: int = 0
    #: True when the decision was served from the validity cache
    from_cache: bool = False
    #: the ``(probe plan, non-empty)`` pairs the check read, in the
    #: order it first consulted them: the decision holds while every
    #: probe still answers the same, and ``()`` means it holds on every
    #: state (every UNCONDITIONAL decision).  None on a decision served
    #: from the cache, which the cache refuses to store.
    guard: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def valid(self) -> bool:
        return self.validity is not Validity.INVALID

    @property
    def unconditional(self) -> bool:
        return self.validity is Validity.UNCONDITIONAL

    @property
    def conditional(self) -> bool:
        return self.validity is Validity.CONDITIONAL

    def describe(self) -> str:
        lines = [f"validity: {self.validity.value}"]
        if self.reason:
            lines.append(f"reason: {self.reason}")
        if self.views_used:
            lines.append("views used: " + ", ".join(self.views_used))
        for step in self.trace:
            lines.append(f"  - {step}")
        return "\n".join(lines)
