"""The provenance auditor: cross-check table derivation counts against
the derivation graph.

The PSN commit discipline keeps a Gupta-style derivation count per
stored tuple; the provenance store keeps an independent ledger of the
same events (rule firings, base inserts/deletes, wholesale
retractions).  At quiescence the two must agree -- which turns
provenance capture into a regression oracle for exactly the machinery
we keep optimizing: queue-level cancellation, run-batched strand
firing, netted aggregate views, primary-key replacement.

Checks, per stored tuple:

* **count** (strict mode) -- for plain derived/base relations, the
  table's derivation count must equal the store's live support
  (base events + live derivation records);
* **support** -- aggregate / arg-extreme view heads only need at least
  one live supporting record (several equal-valued contributions merge
  into one visible row, so exact equality is not defined for them);
* **orphans** (strict mode) -- a fact with live support in the store
  must be visible in its table ("the graph says it exists, the table
  disagrees").

Strict mode is automatically dropped to support-only when the transport
is allowed to elide or lose deltas (periodic buffering dedupes
re-advertisements; lossy links drop firings that were recorded at the
sender), and soft-state tables are always exempt (a TTL renewal is
injected as base support but adds no derivation to the stored row).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.engine.facts import Fact
from repro.engine.table import INFINITY
from repro.provenance.store import ProvenanceStore


@dataclass(frozen=True)
class AuditMismatch:
    node: Optional[str]
    fact: Fact
    kind: str            # "count" | "support" | "orphan"
    table_count: int
    store_support: int

    def __repr__(self) -> str:
        where = f" @ {self.node}" if self.node else ""
        return (
            f"{self.kind}{where}: {self.fact!r} "
            f"(table={self.table_count}, store={self.store_support})"
        )


@dataclass
class AuditReport:
    mismatches: List[AuditMismatch] = field(default_factory=list)
    checked: int = 0
    strict: bool = True
    floored: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        mode = "strict" if self.strict else "support-only"
        return f"AuditReport({status}, {self.checked} facts, {mode})"


def _audit_tables(
    report: AuditReport,
    store: ProvenanceStore,
    db,
    node: Optional[str],
    strict: bool,
) -> None:
    for table in db.tables.values():
        if table.lifetime != INFINITY:
            continue  # soft state: renewals add support, not derivations
        is_view = table.name in store.view_preds
        for args in table.rows():
            fact = Fact(table.name, args)
            support = store.live_support(fact)
            report.checked += 1
            if is_view or not strict:
                if support <= 0:
                    report.mismatches.append(AuditMismatch(
                        node, fact, "support", table.count(args), support
                    ))
            elif support != table.count(args):
                report.mismatches.append(AuditMismatch(
                    node, fact, "count", table.count(args), support
                ))


def audit_engine(engine, strict: bool = True) -> AuditReport:
    """Audit one centralized engine (PSN/BSN) against its recorder's
    store.  Call at quiescence."""
    recorder = getattr(engine, "provenance", None)
    if recorder is None:
        raise ValueError("engine was built without provenance capture")
    store = recorder.store
    report = AuditReport(strict=strict, floored=store.floored)
    _audit_tables(report, store, engine.db, None, strict)
    if strict:
        for fact, support in store.known_facts():
            if support <= 0 or fact.pred in store.view_preds:
                continue
            table = engine.db.tables.get(fact.pred)
            if table is None or table.lifetime != INFINITY:
                continue
            if fact.args not in table:
                report.mismatches.append(AuditMismatch(
                    None, fact, "orphan", 0, support
                ))
    return report


def audit_cluster(cluster, strict: Optional[bool] = None,
                  exclude_nodes: Iterable[str] = ()) -> AuditReport:
    """Audit a deployed cluster (simulated or live) against its shared
    store.  Call at quiescence.

    ``strict=None`` auto-selects: exact count equality when the
    transport delivers every delta eagerly, support-only when periodic
    buffering or lossy links may legitimately elide recorded firings.

    ``exclude_nodes`` skips those nodes' tables (and orphan checks homed
    there).  Nodes a chaos schedule crashed for good are always skipped:
    their tables froze mid-churn while the shared store kept moving, so
    disagreement is the *expected* outcome, not a maintenance bug.
    """
    store = getattr(cluster, "provenance", None)
    if store is None:
        raise ValueError(
            "cluster was deployed without provenance capture "
            "(compile(..., provenance=True))"
        )
    skipped = set(exclude_nodes)
    chaos = getattr(cluster, "chaos", None)
    if chaos is not None:
        skipped.update(chaos.dead_nodes(float("inf")))
    if strict is None:
        config = cluster.config
        # Exact counting needs every recorded firing delivered exactly
        # once: no periodic elision, no unreliable loss (the reliable
        # transport restores delivery under loss), and no chaos faults
        # (a crashed-for-good node legitimately never materializes
        # firings recorded at its peers).
        strict = (
            not config.buffer_interval
            and (not config.loss_rate or config.reliable)
            and config.chaos is None
        )
    report = AuditReport(strict=strict, floored=store.floored)
    for name, runtime in cluster.nodes.items():
        if name in skipped:
            continue
        _audit_tables(report, store, runtime.db, name, strict)
    if strict:
        for fact, support in store.known_facts():
            if support <= 0 or fact.pred in store.view_preds:
                continue
            if fact.args and fact.args[0] in skipped:
                continue
            home = cluster.nodes.get(fact.args[0]) if fact.args else None
            if home is None:
                continue
            table = home.db.tables.get(fact.pred)
            if table is None or table.lifetime != INFINITY:
                continue
            if fact.args not in table:
                report.mismatches.append(AuditMismatch(
                    home.address, fact, "orphan", 0, support
                ))
    return report
