"""Cost-based statistics (Section 5.3).

:class:`StatsCatalog` holds per-relation cardinality estimates that the
compiled join plans (:mod:`repro.engine.rules`) use to order body
literals by selectivity, in the spirit of the section's "the
optimizations of Section 5 can be recast as cost-based decisions".

The section's own statistic for hybrid search-strategy selection, the
neighborhood function N(X, r), lives in
:mod:`repro.topology.neighborhood` with the top-down / bottom-up /
hybrid cost estimates it drives.  The paper does not evaluate this
section ("we do not evaluate the above concepts in our experiments
below").
"""

from __future__ import annotations

from typing import Dict, Optional


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
