"""Shared result type and helpers for the fixpoint engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.engine.database import Database
from repro.errors import PlanError
from repro.ndlog.ast import Program
from repro.ndlog.terms import evaluate


@dataclass
class EvalResult:
    """Outcome of running a program to fixpoint.

    ``inferences`` counts rule firings (joint derivations); Theorem 2's
    "no repeated inferences" is checked by comparing this across engines.

    When the run captured provenance (``compile(..., provenance=True)``)
    ``provenance`` holds the populated
    :class:`~repro.provenance.store.ProvenanceStore` and :meth:`why` /
    :meth:`why_not` query it; ``program`` is the (rewritten) program the
    engine evaluated, kept for the failed-body analysis.
    """

    db: Database
    iterations: int = 0
    inferences: int = 0
    steps: int = 0
    provenance: Optional[object] = None
    program: Optional[Program] = None

    def table(self, pred: str):
        return self.db.table(pred)

    def rows(self, pred: str) -> FrozenSet:
        return frozenset(self.db.table(pred).rows())

    def answers(self, program: Program) -> FrozenSet:
        """Rows of the program's query predicate (all rows if no query)."""
        if program.query is None:
            raise PlanError("program has no query")
        return self.rows(program.query.pred)

    # -- provenance queries ---------------------------------------------
    def why(self, pred: str, args, max_depth: int = 128):
        """Derivation tree for ``pred(args)`` (see
        :func:`repro.provenance.why`); requires the run to have captured
        provenance."""
        if self.provenance is None:
            raise PlanError(
                "run was not executed with provenance capture; "
                "compile(..., provenance=True) or run(provenance=True)"
            )
        from repro.provenance import why as _why

        return _why(self.provenance, pred, tuple(args), max_depth=max_depth)

    def why_not(self, pred: str, args, depth: int = 2):
        """Failed-body analysis for the absent ``pred(args)`` (``None``
        entries are wildcards); works with or without capture."""
        if self.program is None:
            raise PlanError(
                "result carries no program; why_not needs the rule set"
            )
        from repro.provenance import why_not as _why_not

        return _why_not(
            self.program,
            lambda p: (self.db.tables[p].rows()
                       if p in self.db.tables else ()),
            pred,
            tuple(args),
            functions=self.db.functions,
            depth=depth,
        )


def load_program_facts(program: Program, db: Database) -> None:
    """Install the program's ground facts as base tuples."""
    for fact in program.facts:
        values = tuple(
            evaluate(arg, {}, db.functions) for arg in fact.args
        )
        db.table(fact.pred).insert(values)
