"""Planner rewrites: aggregate selections."""

import pytest

from repro.engine import Database, psn
from repro.errors import PlanError
from repro.ndlog.programs import (
    multi_query_magic,
    shortest_path,
    shortest_path_safe,
)
from repro.opt import aggsel

FIGURE2_LINKS = [
    ("a", "b", 5), ("b", "a", 5),
    ("a", "c", 1), ("c", "a", 1),
    ("c", "b", 1), ("b", "c", 1),
    ("b", "d", 1), ("d", "b", 1),
    ("e", "a", 1), ("a", "e", 1),
]


class TestAggregateSelections:
    def test_detects_spcost_over_path(self):
        specs = aggsel.detect(shortest_path())
        assert len(specs) == 1
        spec = specs[0]
        assert spec.pred == "path"
        assert spec.func == "min"
        # Group = (location, destination); value = the cost field.
        assert spec.group_positions == (0, 1)
        assert spec.value_position == 4

    def test_detects_pathq_group_with_location_first(self):
        """For the multi-query program the group must be (location,
        query-id) even though MQ3 only aggregates at the destination --
        first-occurrence mapping puts the tuple's own location in the
        group, enabling per-node pruning."""
        specs = aggsel.detect(multi_query_magic())
        by_pred = {s.pred: s for s in specs}
        assert "pathQ" in by_pred
        assert by_pred["pathQ"].group_positions == (0, 1)

    def test_rewrite_redirects_recursion_only(self):
        rewritten = aggsel.rewrite(shortest_path())
        by_label = {r.label: r for r in rewritten.rules}
        # SP2 (defines path) now reads the pruned view...
        assert any(lit.pred == "path__best"
                   for lit in by_label["SP2"].body_literals)
        # ...but SP3/SP4 still read the raw relation.
        assert all(lit.pred != "path__best"
                   for lit in by_label["SP3"].body_literals)
        assert all(lit.pred != "path__best"
                   for lit in by_label["SP4"].body_literals)

    def test_best_view_is_keyed_on_group(self):
        rewritten = aggsel.rewrite(shortest_path())
        mat = rewritten.materializations["path__best"]
        assert mat.key_indexes() == (0, 1)

    def test_terminates_on_cycles_and_costs_match(self):
        """Section 5.1.1: aggregate selections make the Figure 1 program
        terminate even with cyclic paths."""
        rewritten = aggsel.rewrite(shortest_path())
        db = Database.for_program(rewritten)
        db.load_facts("link", FIGURE2_LINKS)
        result = psn.evaluate(rewritten, db)
        got = {(s, d): c for s, d, _p, c in result.rows("shortestPath")
               if s != d}

        reference = shortest_path_safe()
        db2 = Database.for_program(reference)
        db2.load_facts("link", FIGURE2_LINKS)
        ref = psn.evaluate(reference, db2)
        want = {(s, d): c for s, d, _p, c in ref.rows("shortestPath")}
        assert got == want

    def test_rewrite_reduces_derivations(self):
        """The pruned program does far less work than the guarded
        original on a denser graph, where the full program enumerates
        every simple path."""
        import random

        rng = random.Random(6)
        names = [f"v{i}" for i in range(10)]
        pairs = {(names[i], names[(i + 1) % 10]) for i in range(10)}
        while len(pairs) < 16:
            pairs.add(tuple(rng.sample(names, 2)))
        links = []
        for a, b in sorted(pairs):
            cost = rng.randint(1, 9)
            links += [(a, b, cost), (b, a, cost)]

        rewritten = aggsel.rewrite(shortest_path())
        db = Database.for_program(rewritten)
        db.load_facts("link", links)
        pruned = psn.evaluate(rewritten, db)

        reference = shortest_path_safe()
        db2 = Database.for_program(reference)
        db2.load_facts("link", links)
        full = psn.evaluate(reference, db2)
        assert pruned.inferences < full.inferences / 2
        assert len(pruned.db.table("path").rows()) < len(
            full.db.table("path").rows()
        ) / 2

    def test_unknown_relation_rejected(self):
        from repro.opt.aggsel import PruneSpec

        with pytest.raises(PlanError):
            aggsel.rewrite(
                shortest_path(),
                [PruneSpec("nosuch", "min", (0,), 1)],
            )
