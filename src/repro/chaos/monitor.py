"""Invariant checking for chaos runs: fixpoint comparison + audit.

A chaos run is only interesting against ground truth.  The monitor
computes it the cheap, deterministic way -- a fault-free virtual-time
run of the same compiled program on the same overlay -- and then checks
a finished (quiescent) chaotic deployment on *any* target against it:

* **fixpoint**: the union of query-predicate rows must match the
  reference exactly (missing rows = lost facts, extra rows = stale
  state that never retracted);
* **provenance**: when the deployment captures provenance, the PR 5
  auditor must report zero mismatches (every surviving tuple has live
  support; counts match where the delivery mode allows exact counting).

``exclude_nodes`` removes crashed-for-good nodes from the comparison:
their frozen tables are expected to disagree.  For scenarios whose
*correct* outcome differs from the fault-free one (e.g. a node that
crashed for good takes its links with it), pass the post-fault ``topology``
the reference should converge on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

__all__ = ["ChaosMonitor", "ChaosVerdict"]


@dataclass
class ChaosVerdict:
    """Outcome of one :meth:`ChaosMonitor.check`."""

    ok: bool
    fixpoint_match: bool
    missing: frozenset = frozenset()   # in reference, not in deployment
    extra: frozenset = frozenset()     # in deployment, not in reference
    audit_ok: Optional[bool] = None    # None: no provenance captured
    audit_issues: Tuple[str, ...] = ()
    excluded: Tuple[str, ...] = ()
    stats: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        parts = [
            "fixpoint match" if self.fixpoint_match else
            f"fixpoint MISMATCH ({len(self.missing)} missing, "
            f"{len(self.extra)} extra)",
        ]
        if self.audit_ok is not None:
            parts.append("audit clean" if self.audit_ok
                         else f"audit FAILED ({len(self.audit_issues)})")
        if self.excluded:
            parts.append(f"excluding {', '.join(self.excluded)}")
        return "; ".join(parts)


class ChaosMonitor:
    """Fault-free reference oracle for one (program, topology) pair."""

    def __init__(self, compiled, topology, config=None, link_loads=None):
        self.compiled = compiled
        self.topology = topology
        self.config = config
        self.link_loads = link_loads
        #: Cached reference rows (see :meth:`expected`).
        self._reference: Optional[frozenset] = None
        #: Pre-start workload to replay in the reference run, mirroring
        #: what the checked deployment was given (e.g. magic facts).
        self._injects: list = []

    def inject(self, node: str, pred: str, args: Tuple) -> None:
        self._injects.append((node, pred, tuple(args)))

    def expected(self) -> frozenset:
        """Query rows of the fault-free virtual-time run (cached)."""
        if self._reference is None:
            import dataclasses

            from repro.runtime.cluster import Cluster
            from repro.runtime.config import RuntimeConfig

            config = self.config if self.config is not None \
                else RuntimeConfig()
            config = dataclasses.replace(config, chaos=None, reliable=False)
            cluster = Cluster(self.topology, self.compiled, config,
                              link_loads=self.link_loads)
            for node, pred, args in self._injects:
                cluster.inject(node, pred, args)
            cluster.run()
            self._reference = cluster.query_rows()
        return self._reference

    def check(self, deployment,
              exclude_nodes: Iterable[str] = ()) -> ChaosVerdict:
        """Compare a quiescent deployment (sim or live) against the
        reference.  Rows homed at ``exclude_nodes`` (first argument
        = the node, per the localized head convention) are ignored on
        both sides."""
        excluded = tuple(exclude_nodes)
        query_pred = deployment.source_program.query.pred
        actual = set()
        nodes = deployment.nodes
        for name, runtime in nodes.items():
            if name in excluded:
                continue
            actual.update(runtime.db.table(query_pred).rows())
        expected = {
            row for row in self.expected()
            if not row or row[0] not in excluded
        }
        missing = frozenset(expected - actual)
        extra = frozenset(actual - expected)
        fixpoint_match = not missing and not extra

        audit_ok: Optional[bool] = None
        audit_issues: Tuple[str, ...] = ()
        if deployment.provenance is not None:
            report = deployment.audit(exclude_nodes=excluded)
            audit_ok = report.ok
            audit_issues = tuple(repr(m) for m in report.mismatches)

        stats = deployment.stats
        return ChaosVerdict(
            ok=fixpoint_match and audit_ok is not False,
            fixpoint_match=fixpoint_match,
            missing=missing,
            extra=extra,
            audit_ok=audit_ok,
            audit_issues=audit_issues,
            excluded=excluded,
            stats={
                "retransmits": stats.retransmits,
                "dup_dropped": stats.dup_dropped,
                "reorders_healed": stats.reorders_healed,
                "links_torn_down": stats.links_torn_down,
                "malformed_dropped": stats.malformed_dropped,
                "faults": sum(stats.faults_injected.values()),
            },
        )
