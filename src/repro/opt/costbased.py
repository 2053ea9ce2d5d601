"""Cost-based rewrites and statistics (Section 5.3).

Two kinds of optimizer statistics live here:

* :class:`StatsCatalog` -- per-relation cardinality estimates used by
  the compiled join plans (:mod:`repro.engine.rules`) to order body
  literals by selectivity, in the spirit of the section's "the
  optimizations of Section 5 can be recast as cost-based decisions".
* the neighborhood function N(X, r) (below), the paper's own statistic
  for hybrid search-strategy selection.

The optimizer statistic is the neighborhood function N(X, r) (see
:mod:`repro.topology.neighborhood`).  For a single (src, dst) path
query, the three strategies cost approximately:

* top-down   N(src, dist)      -- flood from the source;
* bottom-up  N(dst, dist)      -- flood from the destination;
* hybrid     N(src, rs) + N(dst, rd) with rs + rd = dist, minimized.

"The optimal strategy is actually a hybrid scheme that 'splits' the
search radius dist(s,d) between s and d ... at the end of this process,
both the TD and the BU search have intersected in at least one network
node, which can easily assemble the shortest (s,d) path."

The paper does not evaluate this section ("we do not evaluate the above
concepts in our experiments below"); we provide the statistic, the
optimizer, and an ablation benchmark quantifying the hybrid advantage
on our overlays -- marked as an extension in EXPERIMENTS.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.topology.neighborhood import (
    neighborhood_function,
    optimal_split,
    search_costs,
)
from repro.topology.overlay import Overlay


class StatsCatalog:
    """Relation-cardinality statistics for join ordering.

    The catalog answers one question for the plan compiler: *given an
    indexed lookup that pins ``bound_count`` of a literal's ``arity``
    positions, roughly how many candidate tuples come back?*  The
    estimate assumes attribute values are uniformly distributed, so
    each additional bound position shaves an equal factor off the
    relation's row count (``rows ** ((arity - bound) / arity)``).

    Unknown relations fall back to ``default_rows`` -- plans are
    typically compiled at engine construction, before derived tables
    have any rows, so the default keeps base-table sizes (loaded ahead
    of time) comparable with not-yet-materialized derived tables.
    """

    DEFAULT_ROWS = 1000.0

    def __init__(self, sizes: Optional[Dict[str, float]] = None,
                 default_rows: float = DEFAULT_ROWS):
        self.sizes: Dict[str, float] = dict(sizes or {})
        self.default_rows = default_rows

    @classmethod
    def from_database(cls, db, default_rows: float = DEFAULT_ROWS) -> "StatsCatalog":
        """Snapshot current table sizes from a ``Database``-like object
        (anything with a ``tables`` mapping of sized values).  Empty
        tables keep the default estimate: at plan-compile time an empty
        derived table says nothing about its eventual size."""
        sizes = {}
        for name, table in db.tables.items():
            if len(table):
                sizes[name] = float(len(table))
        return cls(sizes, default_rows=default_rows)

    def table_rows(self, pred: str) -> float:
        return self.sizes.get(pred, self.default_rows)

    def estimated_candidates(self, pred: str, arity: int, bound_count: int) -> float:
        rows = self.table_rows(pred)
        if arity <= 0 or bound_count >= arity:
            return 1.0
        if bound_count <= 0:
            return rows
        return rows ** ((arity - bound_count) / arity)


@dataclass
class HybridStudy:
    """Aggregate TD/BU/hybrid message-cost comparison over random pairs."""

    pairs: int
    td_total: int = 0
    bu_total: int = 0
    hybrid_total: int = 0
    samples: List[Dict[str, int]] = field(default_factory=list)

    @property
    def hybrid_vs_best_pure(self) -> float:
        best_pure = min(self.td_total, self.bu_total)
        return self.hybrid_total / best_pure if best_pure else 1.0

    def report(self) -> str:
        return (
            f"hybrid search ablation over {self.pairs} (src,dst) pairs: "
            f"TD={self.td_total}  BU={self.bu_total}  "
            f"hybrid={self.hybrid_total}  "
            f"(hybrid / best-pure = {self.hybrid_vs_best_pure:.2f})"
        )


def hybrid_study(
    overlay: Overlay, pairs: int = 50, seed: int = 11
) -> HybridStudy:
    """Estimate message costs for TD / BU / hybrid over random pairs."""
    rng = random.Random(seed)
    study = HybridStudy(pairs=pairs)
    nodes = list(overlay.nodes)
    for _ in range(pairs):
        src, dst = rng.sample(nodes, 2)
        costs = search_costs(overlay, src, dst)
        study.td_total += costs["td"]
        study.bu_total += costs["bu"]
        study.hybrid_total += costs["hybrid"]
        study.samples.append(costs)
    return study


def recommend_strategy(overlay: Overlay, src: str, dst: str) -> str:
    """The optimizer's pick for one query: 'td', 'bu' or 'hybrid'."""
    costs = search_costs(overlay, src, dst)
    rs, rd, _cost = optimal_split(overlay, src, dst)
    if rd == 0:
        return "td"
    if rs == 0:
        return "bu"
    best = min(("td", "bu", "hybrid"), key=lambda k: costs[k])
    return best


def zone_radius(overlay: Overlay, node: str, budget: int) -> int:
    """A ZRP-style zone radius: the largest r whose zone (N(node, r))
    stays within the given node budget (Section 5.3's discussion of
    Zone Routing Protocols adapting k from the neighborhood
    statistic)."""
    nf = neighborhood_function(overlay, node)
    radius = 0
    for r, count in enumerate(nf):
        if count <= budget:
            radius = r
        else:
            break
    return radius
