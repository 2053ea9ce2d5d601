"""Tests over the canonical program library and paper traces:
Figure 2's iteration narrative and Figure 6's derivation/deletion trees
reproduced as engine behaviour."""

import pytest

from repro.engine import Database, psn, seminaive
from repro.engine.psn import PSNEngine
from repro.ndlog import programs, validate

FIGURE2_LINKS = [
    ("a", "b", 5), ("b", "a", 5),
    ("a", "c", 1), ("c", "a", 1),
    ("c", "b", 1), ("b", "c", 1),
    ("b", "d", 1), ("d", "b", 1),
    ("e", "a", 1), ("a", "e", 1),
]

ALL_BUILDERS = [
    programs.shortest_path,
    programs.shortest_path_safe,
    programs.shortest_path_dynamic,
    programs.magic_dst,
    programs.magic_src_dst,
    programs.multi_query_magic,
    programs.reachability,
    programs.distance_vector,
    programs.transitive_closure,
    programs.transitive_closure_nonlinear,
    programs.same_generation,
]


@pytest.mark.parametrize("builder", ALL_BUILDERS,
                         ids=lambda b: b.__name__)
def test_program_parses_fresh_each_call(builder):
    one, two = builder(), builder()
    assert one is not two
    assert one.rules == two.rules


@pytest.mark.parametrize(
    "builder",
    [programs.shortest_path, programs.shortest_path_safe,
     programs.shortest_path_dynamic, programs.magic_dst,
     programs.magic_src_dst, programs.multi_query_magic,
     programs.reachability, programs.distance_vector],
    ids=lambda b: b.__name__,
)
def test_network_programs_are_valid_ndlog(builder):
    report = validate(builder())
    assert report.ok, report.errors


class TestFigure2Trace:
    """Section 2.2's narrated execution."""

    def run(self):
        program = programs.shortest_path_safe()
        db = Database.for_program(program)
        db.load_facts("link", FIGURE2_LINKS)
        return psn.evaluate(program, db)

    def test_one_hop_paths_of_iteration_1(self):
        paths = self.run().rows("path")
        assert ("a", "b", "b", ("a", "b"), 5) in paths
        assert ("a", "c", "c", ("a", "c"), 1) in paths
        assert ("c", "b", "b", ("c", "b"), 1) in paths
        assert ("b", "d", "d", ("b", "d"), 1) in paths
        assert ("e", "a", "a", ("e", "a"), 1) in paths

    def test_two_hop_paths_of_iteration_2(self):
        paths = self.run().rows("path")
        # "path(a,d,b,[a,b,d],6) is generated at node b ... and
        # propagated to node a."
        assert ("a", "d", "b", ("a", "b", "d"), 6) in paths
        assert ("a", "b", "c", ("a", "c", "b"), 2) in paths
        assert ("c", "d", "b", ("c", "b", "d"), 2) in paths
        assert ("e", "b", "a", ("e", "a", "b"), 6) in paths
        assert ("e", "c", "a", ("e", "a", "c"), 2) in paths

    def test_shortest_path_replaces_initial_guess(self):
        # "a new shortestPath(a,b,[a,c,b],2) replaces the previous value"
        sp = self.run().rows("shortestPath")
        assert ("a", "b", ("a", "c", "b"), 2) in sp
        assert ("a", "b", ("a", "b"), 5) not in sp


class TestFigure6Trees:
    """Section 4.1's derivation-tree examples: link(a,b) cost update and
    link(b,e) deletion, on the network fragment of Figure 6."""

    LINKS = [("e", "a", 1), ("a", "e", 1),
             ("a", "b", 5), ("b", "a", 5),
             ("b", "e", 1), ("e", "b", 1)]

    def engine(self):
        program = programs.shortest_path_safe()
        db = Database.for_program(program)
        db.load_facts("link", self.LINKS)
        engine = PSNEngine(program, db=db)
        engine.fixpoint()
        return engine

    def test_update_rederives_up_the_tree(self):
        engine = self.engine()
        paths = frozenset(engine.db.table("path").rows())
        assert ("a", "e", "b", ("a", "b", "e"), 6) in paths
        # "when the cost of #link(a,b,5) is updated from 5 to 1,
        # path(a,e,b,[a,b,e],2) ... [is] re-derived"
        engine.update("link", ("a", "b", 1))
        engine.update("link", ("b", "a", 1))
        engine.run()
        paths = frozenset(engine.db.table("path").rows())
        assert ("a", "e", "b", ("a", "b", "e"), 2) in paths
        assert ("a", "e", "b", ("a", "b", "e"), 6) not in paths

    def test_deletion_cascades_up_the_tree(self):
        engine = self.engine()
        # "the deletion of link(b,e,1) leads to the deletion of
        # path(b,e,e,[b,e],1) [and] path(a,e,b,[a,b,e],6)"
        engine.delete("link", ("b", "e", 1))
        engine.delete("link", ("e", "b", 1))
        engine.run()
        paths = frozenset(engine.db.table("path").rows())
        assert ("b", "e", "e", ("b", "e"), 1) not in paths
        assert ("a", "e", "b", ("a", "b", "e"), 6) not in paths
        # e remains reachable directly from a.
        assert ("a", "e", "e", ("a", "e"), 1) in paths


class TestDistanceVector:
    def test_hop_bound_16(self):
        """DV2's ``C < 16`` bound: nodes further than 15 hops are
        unreachable, RIP-style."""
        program = programs.distance_vector()
        db = Database.for_program(program)
        chain = []
        for i in range(20):
            chain += [(f"h{i}", f"h{i+1}", 1), (f"h{i+1}", f"h{i}", 1)]
        db.load_facts("link", chain)
        result = psn.evaluate(program, db)
        costs = {(s, d): c for s, d, _z, c in result.rows("bestRoute")}
        assert costs[("h0", "h15")] == 15
        assert ("h0", "h16") not in costs

    def test_next_hops_consistent(self):
        program = programs.distance_vector()
        db = Database.for_program(program)
        db.load_facts("link", FIGURE2_LINKS)
        result = psn.evaluate(program, db)
        routes = {(s, d): z for s, d, z, _c in result.rows("bestRoute")}
        # a reaches d through its next hop's own route.
        nxt = routes[("a", "d")]
        assert nxt in ("b", "c", "e", "d")
        if nxt != "d":
            assert (nxt, "d") in routes


class TestMagicVariantsCentralized:
    def test_magic_dst_limits_destinations(self):
        program = programs.magic_dst()
        db = Database.for_program(program)
        db.load_facts("link", FIGURE2_LINKS)
        db.load_facts("magicDst", [("d",)])
        result = seminaive.evaluate(program, db)
        destinations = {d for _s, d, _p, _c in result.rows("shortestPath")}
        assert destinations == {"d"}

    def test_magic_src_dst_filters_both(self):
        program = programs.magic_src_dst()
        db = Database.for_program(program)
        db.load_facts("link", FIGURE2_LINKS)
        db.load_facts("magicSrc", [("e",)])
        db.load_facts("magicDst", [("d",)])
        result = seminaive.evaluate(program, db)
        rows = result.rows("shortestPath")
        # shortestPath(@D,@S,...) is stored at the destination.
        assert {(d, s) for d, s, _p, _c in rows} == {("d", "e")}
        ((_d, _s, path, cost),) = rows
        assert cost == 4  # e->a->c->b->d
        assert path[0] == "e" and path[-1] == "d"
