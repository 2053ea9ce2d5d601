"""ndlint: multi-pass static analysis for NDlog programs.

Five analyses over :class:`~repro.ndlog.ast.Program` (or a compiled
artifact), each returning structured
:class:`~repro.analysis.diagnostics.Diagnostic` records:

======================  ==========  =====================================
analysis                codes       what it checks
======================  ==========  =====================================
``types``               ND101-103   column type inference & consistency
                                    by unification across rule
                                    occurrences (addresses vs values);
                                    builtin call arity
``termination``         ND201-202   count-to-infinity divergence:
                                    recursive growth through function
                                    symbols with / without a bound
``monotonicity``        ND301-302   per-stratum monotonicity, engine
                                    restrictions, deletion soundness
``communication``       ND401-403   post-localization shipment
                                    profiles and fan-out classes
``deadcode``            ND501-504   underivable relations, dead rules,
                                    false conditions, unused relations
======================  ==========  =====================================

Entry points: :func:`analyze` (the driver), ``python -m repro.lint``
(the CLI), and ``repro.compile(..., lint="warn"|"error"|"off")``.
"""

from repro.analysis.diagnostics import (
    SEVERITIES,
    AnalysisReport,
    Diagnostic,
    severity_rank,
)
from repro.analysis.runner import ANALYSES, analyze

__all__ = [
    "ANALYSES",
    "AnalysisReport",
    "Diagnostic",
    "SEVERITIES",
    "analyze",
    "severity_rank",
]
