"""Incremental view maintenance under dynamics (Section 4).

Theorem 3: under the bursty update model, the set of tuples derived by
PSN equals what PSN would compute from scratch on the quiesced state.
"""

import random

from repro.engine import Database
from repro.engine.psn import PSNEngine
from repro.ndlog import parse
from repro.ndlog.programs import (
    shortest_path_safe,
    transitive_closure,
    transitive_closure_nonlinear,
)

CHECK_PREDS = ("path", "spCost", "shortestPath")


def fresh_fixpoint(program_builder, link_rows, on_commit=None):
    program = program_builder()
    db = Database.for_program(program)
    db.load_facts("link", link_rows)
    engine = PSNEngine(program, db=db, on_commit=on_commit)
    engine.fixpoint()
    return engine


def link_rows(state):
    rows = []
    for (a, b), c in state.items():
        rows += [(a, b, c), (b, a, c)]
    return rows


def assert_matches_scratch(engine, program_builder, state, preds=CHECK_PREDS):
    scratch = fresh_fixpoint(program_builder, link_rows(state))
    for pred in preds:
        got = frozenset(engine.db.table(pred).rows())
        want = frozenset(scratch.db.table(pred).rows())
        assert got == want, (pred, got ^ want)


class TestBaseTableChanges:
    def test_insertion_extends_paths(self):
        engine = fresh_fixpoint(shortest_path_safe,
                                [("a", "b", 1), ("b", "a", 1)])
        engine.insert("link", ("b", "c", 1))
        engine.insert("link", ("c", "b", 1))
        engine.run()
        sp = frozenset(engine.db.table("shortestPath").rows())
        assert ("a", "c", ("a", "b", "c"), 2) in sp

    def test_deletion_cascades(self):
        """Figure 6 right: deleting a link deletes every path derived
        from it."""
        state = {("a", "b"): 5, ("b", "e"): 1, ("e", "a"): 1}
        engine = fresh_fixpoint(shortest_path_safe, link_rows(state))
        engine.delete("link", ("b", "e", 1))
        engine.delete("link", ("e", "b", 1))
        engine.run()
        state.pop(("b", "e"))
        assert_matches_scratch(engine, shortest_path_safe, state)
        paths = frozenset(engine.db.table("path").rows())
        assert not any("e" in (s, d) and ("b", "e") in zip(p, p[1:])
                       for s, d, _z, p, _c in paths)

    def test_cost_update_rederives(self):
        """Figure 6 left: updating link(a,b) from 5 to 1 re-derives the
        dependent paths with the new cost."""
        state = {("a", "b"): 5, ("b", "e"): 1, ("e", "a"): 1}
        engine = fresh_fixpoint(shortest_path_safe, link_rows(state))
        engine.update("link", ("a", "b", 1))
        engine.update("link", ("b", "a", 1))
        engine.run()
        state[("a", "b")] = 1
        assert_matches_scratch(engine, shortest_path_safe, state)
        sp = frozenset(engine.db.table("shortestPath").rows())
        assert ("a", "b", ("a", "b"), 1) in sp

    def test_update_is_delete_plus_insert(self):
        commits = []
        engine = fresh_fixpoint(
            shortest_path_safe, [("a", "b", 5), ("b", "a", 5)],
            on_commit=lambda fact, sign: commits.append((sign, fact)))
        commits.clear()  # observe the update only, not the fixpoint
        engine.update("link", ("a", "b", 2))
        engine.run()
        link_commits = [(s, f) for s, f in commits if f.pred == "link"]
        assert link_commits[0][0] == -1
        assert link_commits[0][1].args == ("a", "b", 5)
        assert link_commits[1][0] == 1
        assert link_commits[1][1].args == ("a", "b", 2)


class TestDerivationCounts:
    def test_multiple_derivations_protect_tuple(self):
        """The count algorithm [15]: a tuple with two derivations
        survives the loss of one."""
        program = transitive_closure()
        engine = PSNEngine(program)
        # Diamond: two routes a->d.
        for edge in [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]:
            engine.insert("edge", edge)
        engine.run()
        assert ("a", "d") in engine.db.table("tc")
        engine.delete("edge", ("b", "d"))
        engine.run()
        assert ("a", "d") in engine.db.table("tc")  # still via c
        engine.delete("edge", ("c", "d"))
        engine.run()
        assert ("a", "d") not in engine.db.table("tc")

    def test_nonlinear_selfjoin_deletion(self):
        """Self-join deletion must decrement each derivation exactly once
        (the subtle case the commit discipline exists for).

        Edges are drawn as a DAG: the count algorithm [15] used by the
        paper (and by us) requires well-founded derivations, which the
        paper's path-vector programs guarantee via their path vectors.
        Cyclic transitive closure would need delete-and-rederive (DRed);
        see test_counting_limitation_on_cycles.
        """
        rng = random.Random(31)
        for _trial in range(15):
            edges = {tuple(sorted((f"n{rng.randrange(6)}",
                                   f"n{rng.randrange(6)}")))
                     for _ in range(10)}
            edges = {(a, b) for a, b in edges if a != b}
            program = transitive_closure_nonlinear()
            engine = PSNEngine(program)
            for edge in edges:
                engine.insert("edge", edge)
            engine.run()
            victims = [e for e in sorted(edges) if rng.random() < 0.4]
            for edge in victims:
                engine.delete("edge", edge)
                edges.discard(edge)
            engine.run()
            scratch = PSNEngine(transitive_closure_nonlinear())
            for edge in edges:
                scratch.insert("edge", edge)
            scratch.run()
            got = frozenset(engine.db.table("tc").rows())
            want = frozenset(scratch.db.table("tc").rows())
            assert got == want, (got ^ want)

    def test_counting_limitation_on_cycles(self):
        """Documented limitation, faithful to the paper: pure derivation
        counting cannot retract facts whose derivations are cyclic (a
        derivation cycle keeps every count positive).  The paper's
        network programs avoid this because path vectors make every
        derivation well-founded."""
        program = transitive_closure_nonlinear()
        engine = PSNEngine(program)
        for edge in [("a", "b"), ("b", "a")]:
            engine.insert("edge", edge)
        engine.run()
        assert ("a", "a") in engine.db.table("tc")
        engine.delete("edge", ("b", "a"))
        engine.run()
        # tc(a,b) survives via its base derivation... and so, wrongly but
        # knowingly, do the cycle-supported facts.  This pins the known
        # behaviour so a future DRed extension shows up as a test change.
        assert ("a", "b") in engine.db.table("tc")
        assert ("a", "a") in engine.db.table("tc")  # ghost (limitation)

    def test_delete_then_reinsert_same_fact(self):
        engine = fresh_fixpoint(shortest_path_safe, [("a", "b", 1), ("b", "a", 1)])
        engine.delete("link", ("a", "b", 1))
        engine.insert("link", ("a", "b", 1))
        engine.run()
        assert ("a", "b", ("a", "b"), 1) in frozenset(
            engine.db.table("shortestPath").rows()
        )

    def test_update_then_delete_before_processing(self):
        engine = fresh_fixpoint(shortest_path_safe, [("a", "b", 1), ("b", "a", 1)])
        engine.update("link", ("a", "b", 2))
        engine.delete("link", ("a", "b", 2))
        engine.run()
        rows = engine.db.table("link").rows()
        assert ("a", "b", 2) not in rows and ("a", "b", 1) not in rows


class TestAggregateMaintenance:
    def test_min_recovers_after_best_path_deleted(self):
        state = {("a", "b"): 5, ("a", "c"): 1, ("c", "b"): 1}
        engine = fresh_fixpoint(shortest_path_safe, link_rows(state))
        sp = frozenset(engine.db.table("shortestPath").rows())
        assert ("a", "b", ("a", "c", "b"), 2) in sp
        # Remove the good detour; the direct 5-cost link is best again.
        engine.delete("link", ("a", "c", 1))
        engine.delete("link", ("c", "a", 1))
        engine.run()
        sp = frozenset(engine.db.table("shortestPath").rows())
        assert ("a", "b", ("a", "b"), 5) in sp
        state.pop(("a", "c"))
        assert_matches_scratch(engine, shortest_path_safe, state)

    def test_count_aggregate_program(self):
        program = parse(
            """
            D1: degree(@S, count<D>) :- link(@S, @D, C).
            """
        )
        engine = PSNEngine(program)
        engine.insert("link", ("a", "b", 1))
        engine.insert("link", ("a", "c", 1))
        engine.run()
        assert ("a", 2) in engine.db.table("degree")
        engine.delete("link", ("a", "c", 1))
        engine.run()
        assert ("a", 1) in engine.db.table("degree")
