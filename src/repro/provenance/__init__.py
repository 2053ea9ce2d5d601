"""Network provenance: derivation capture, why/why-not queries, and the
count/graph auditor.

Enable capture at compile time and query it on any execution target::

    compiled = repro.compile(SOURCE, provenance=True)

    result = compiled.run(engine="psn", facts={"link": LINKS})
    tree = result.why("shortestPath", row)          # DerivationTree
    print(repro.ndlog.pretty.format_derivation(tree))

    deployment = compiled.deploy(topology=overlay)
    deployment.advance()
    tree = deployment.why("shortestPath", row)       # distributed lineage
    report = deployment.why_not("shortestPath", (src, dst, None, None))
    audit = deployment.audit()                       # counts vs graph

Capture is off by default and every engine hook is a single ``None``
check, so disabled runs pay nothing.  See the submodules for the data
model (:mod:`~repro.provenance.store`), the query algorithms
(:mod:`~repro.provenance.query`), and the consistency oracle
(:mod:`~repro.provenance.audit`).
"""

from repro.provenance.audit import (
    AuditMismatch,
    AuditReport,
    audit_cluster,
    audit_engine,
)
from repro.provenance.query import (
    DerivationTree,
    RuleFailure,
    WhyNotReport,
    why,
    why_not,
)
from repro.provenance.store import (
    Derivation,
    ProvenanceRecorder,
    ProvenanceStore,
)

__all__ = [
    "AuditMismatch",
    "AuditReport",
    "Derivation",
    "DerivationTree",
    "ProvenanceRecorder",
    "ProvenanceStore",
    "RuleFailure",
    "WhyNotReport",
    "audit_cluster",
    "audit_engine",
    "why",
    "why_not",
]
