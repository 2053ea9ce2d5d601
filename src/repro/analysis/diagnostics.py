"""Structured diagnostics emitted by the ndlint static analyses.

A :class:`Diagnostic` is one finding: a stable code (``ND…``), a
severity, the analysis that produced it, the rule it anchors to (by
label, with the rule's source text as the span), a human message, and
an optional fix hint.  An :class:`AnalysisReport` is the ordered
collection the analyzer returns, with severity filters and the
summaries each analysis computed along the way (type assignments,
strata, shipment profiles).

Severities
----------

* ``error`` -- the program is almost certainly wrong (e.g. a column
  used as an address in one rule and as a number in another);
* ``warning`` -- a correctness or cost hazard worth blocking a deploy
  on (divergent recursion, dead rules, broadcast storms);
* ``info`` -- classification facts that carry no judgement (engine
  restrictions, fan-out profiles).

``compile(..., lint="error")`` raises on anything at ``warning`` or
above; ``lint="warn"`` records the report on the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: Severity names in ascending order of gravity.
SEVERITIES: Tuple[str, ...] = ("info", "warning", "error")

_RANK: Dict[str, int] = {name: rank for rank, name in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity name (unknown names rank highest so a
    malformed diagnostic is never silently filtered out)."""
    return _RANK.get(severity, len(SEVERITIES))


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    code: str                  # stable identifier, e.g. "ND201"
    severity: str              # "error" | "warning" | "info"
    analysis: str              # producing analysis, e.g. "termination"
    message: str               # one-line human description
    rule: str = ""             # rule label ("" for program-level findings)
    pred: str = ""             # relation the finding is about, if any
    span: str = ""             # the rule's source text (pretty-printed)
    hint: str = ""             # optional fix suggestion

    def sort_key(self) -> Tuple:
        return (-severity_rank(self.severity), self.code, self.rule,
                self.pred, self.message)

    def __repr__(self) -> str:
        anchor = f" rule {self.rule}" if self.rule else ""
        return f"Diagnostic({self.code} {self.severity}{anchor}: {self.message})"


@dataclass
class AnalysisReport:
    """Everything one analyzer run produced.

    ``diagnostics`` is sorted most-severe-first (then by code / rule)
    so renderings are deterministic; ``summaries`` maps analysis names
    to whatever structured by-product they computed (the type table,
    the strata, the per-rule shipment profiles) for programmatic
    consumers.
    """

    program_name: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    summaries: Dict[str, object] = field(default_factory=dict)
    #: Analyses that ran (in order), for report headers.
    analyses: List[str] = field(default_factory=list)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def finish(self) -> "AnalysisReport":
        """Sort diagnostics into the canonical rendering order."""
        self.diagnostics.sort(key=Diagnostic.sort_key)
        return self

    # -- filters --------------------------------------------------------
    def at_least(self, severity: str) -> List[Diagnostic]:
        """Diagnostics at or above ``severity``."""
        floor = severity_rank(severity)
        return [d for d in self.diagnostics
                if severity_rank(d.severity) >= floor]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.at_least("error")

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """No findings at warning severity or above."""
        return not self.at_least("warning")

    @property
    def max_severity(self) -> Optional[str]:
        if not self.diagnostics:
            return None
        return max(self.diagnostics,
                   key=lambda d: severity_rank(d.severity)).severity

    def counts(self) -> Dict[str, int]:
        out = {name: 0 for name in SEVERITIES}
        for diag in self.diagnostics:
            out[diag.severity] = out.get(diag.severity, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __repr__(self) -> str:
        counts = self.counts()
        parts = ", ".join(
            f"{counts[name]} {name}" for name in reversed(SEVERITIES)
            if counts.get(name)
        ) or "clean"
        return f"AnalysisReport({self.program_name!r}: {parts})"
