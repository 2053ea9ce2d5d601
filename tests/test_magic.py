"""Magic-sets rewriting tests (Section 5.1.2)."""

import random

import pytest

import repro
from repro.engine import Database, psn, seminaive
from repro.errors import PlanError
from repro.ndlog import make_literal, parse
from repro.ndlog.ast import Literal
from repro.ndlog.programs import same_generation, transitive_closure
from repro.ndlog.terms import Constant, Variable
from repro.planner.magic import adornment_of, magic_rewrite


def bound_query(pred, *args):
    return make_literal(pred, *args)


def run_program(program, loads, query_pred):
    db = Database.for_program(program)
    for pred, rows in loads.items():
        db.load_facts(pred, rows)
    return seminaive.evaluate(program, db).rows(query_pred)


def test_adornment_patterns():
    lit = Literal("p", (Constant("a"), Variable("X"), Variable("Y")))
    assert adornment_of(lit, set()) == "bff"
    assert adornment_of(lit, {"X"}) == "bbf"


def test_tc_bound_source():
    """tc(a, Y)?: only facts reachable from 'a' should be computed."""
    edges = [("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")]
    program = transitive_closure()
    query = bound_query("tc", "a", "Y")
    rewritten = magic_rewrite(program, query)

    full = run_program(program, {"edge": edges}, "tc")
    magic = run_program(rewritten, {"edge": edges}, "tc")

    expected = {t for t in full if t[0] == "a"}
    assert magic == frozenset(expected)


def test_tc_magic_avoids_irrelevant_work():
    """The whole point: the rewritten program derives fewer tuples."""
    random.seed(4)
    edges = [(f"n{random.randrange(20)}", f"n{random.randrange(20)}")
             for _ in range(40)]
    program = transitive_closure()
    query = bound_query("tc", "n0", "Y")
    rewritten = magic_rewrite(program, query)

    db_full = Database.for_program(program)
    db_full.load_facts("edge", edges)
    full = seminaive.evaluate(program, db_full)

    db_magic = Database.for_program(rewritten)
    db_magic.load_facts("edge", edges)
    magic = seminaive.evaluate(rewritten, db_magic)

    assert magic.inferences <= full.inferences
    expected = {t for t in full.rows("tc") if t[0] == "n0"}
    assert magic.rows("tc") == frozenset(expected)


def test_same_generation_bound_first():
    """The classic magic-sets example program."""
    parents = [("b1", "p1"), ("b2", "p1"), ("c1", "b1"), ("c2", "b2"),
               ("d1", "c1"), ("other", "elsewhere")]
    people = [(x,) for x in
              {a for a, b in parents} | {b for a, b in parents}]
    program = same_generation()
    query = bound_query("sg", "c1", "Y")
    rewritten = magic_rewrite(program, query)

    loads = {"parent": parents, "person": people}
    full = run_program(program, loads, "sg")
    magic = run_program(rewritten, loads, "sg")
    expected = {t for t in full if t[0] == "c1"}
    assert magic == frozenset(expected)
    assert ("c1", "c2") in magic  # same generation via p1


def test_fully_free_query_returns_original():
    program = transitive_closure()
    query = Literal("tc", (Variable("X"), Variable("Y")))
    assert magic_rewrite(program, query) is program


def test_query_must_be_idb():
    program = transitive_closure()
    with pytest.raises(PlanError):
        magic_rewrite(program, bound_query("edge", "a", "Y"))


def test_both_bound_query():
    edges = [("a", "b"), ("b", "c"), ("c", "d")]
    program = transitive_closure()
    query = bound_query("tc", "a", "d")
    rewritten = magic_rewrite(program, query)
    magic = run_program(rewritten, {"edge": edges}, "tc")
    # Left-to-right SIP binds only the first argument through the
    # recursion, so answers are reachable-from-a facts filtered... the
    # bridging rule restores only matching tuples is NOT applied here:
    # the adorned program computes tc_bb; we check the query answer
    # itself is derivable.
    assert ("a", "d") in magic


def test_nonlinear_tc_magic():
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("p", "q")]
    program = parse(
        """
        T1: tc(X, Y) :- edge(X, Y).
        T2: tc(X, Z) :- tc(X, Y), tc(Y, Z).
        Query: tc(X, Y).
        """
    )
    query = bound_query("tc", "a", "Y")
    rewritten = magic_rewrite(program, query)
    magic = run_program(rewritten, {"edge": edges}, "tc")
    assert {t for t in magic if t[0] == "a"} == {
        ("a", "b"), ("a", "c"), ("a", "d")
    }


def test_psn_agrees_with_seminaive_on_magic_program():
    edges = [("a", "b"), ("b", "c"), ("x", "y")]
    program = transitive_closure()
    rewritten = magic_rewrite(program, bound_query("tc", "a", "Y"))
    db1 = Database.for_program(rewritten)
    db1.load_facts("edge", edges)
    db2 = Database.for_program(rewritten)
    db2.load_facts("edge", edges)
    assert (seminaive.evaluate(rewritten, db1).rows("tc")
            == psn.evaluate(rewritten, db2).rows("tc"))


def test_magic_seed_fact_present():
    program = transitive_closure()
    rewritten = magic_rewrite(program, bound_query("tc", "a", "Y"))
    seeds = [f for f in rewritten.facts if f.pred.startswith("magic_")]
    assert len(seeds) == 1
    assert seeds[0].args == (Constant("a"),)


# ----------------------------------------------------------------------
# Through the compile table: magic answers the query as the original
# program does, for every adornment the query can carry.
# ----------------------------------------------------------------------
TC_PROGRAMS = {
    "left": "T2: tc(X, Z) :- tc(X, Y), edge(Y, Z).",
    "right": "T2: tc(X, Z) :- edge(X, Y), tc(Y, Z).",
    "nonlinear": "T2: tc(X, Z) :- tc(X, Y), tc(Y, Z).",
}
TC_QUERIES = {
    "bf": ("n0", "Y"),
    "fb": ("X", "n1"),
    "bb": ("n0", "n1"),
    "ff": ("X", "Y"),
}


def random_edges(seed):
    rng = random.Random(seed)
    return {(f"n{rng.randrange(7)}", f"n{rng.randrange(7)}")
            for _ in range(10)} | {("n0", "n2"), ("n2", "n1")}


@pytest.mark.parametrize("engine", ["psn", "seminaive"])
@pytest.mark.parametrize("adornment", list(TC_QUERIES))
@pytest.mark.parametrize("shape", list(TC_PROGRAMS))
def test_magic_pass_answers_the_query(shape, adornment, engine):
    """An all-free adornment reached inside the recursion (``tc(X, n1)``
    over left-recursive ``tc`` needs ``tc_ff``) takes no magic guard,
    since no rule could seed a 0-ary one."""
    args = TC_QUERIES[adornment]
    source = (f"T1: tc(X, Y) :- edge(X, Y).\n{TC_PROGRAMS[shape]}\n"
              f"Query: tc({args[0]}, {args[1]}).")

    def answers(passes, edges):
        rows = repro.compile(source, passes=passes).run(
            engine=engine, facts={"edge": edges}).rows("tc")
        return {row for row in rows
                if all(arg == value for arg, value in zip(args, row)
                       if arg.islower())}

    for seed in range(3):
        edges = random_edges(seed)
        expected = answers([], edges)
        assert expected, seed
        assert answers(["magic"], edges) == expected, seed


def test_guardless_rule_seeds_its_bound_literal_as_a_fact():
    """In an all-free rule, an IDB literal bound by constants alone has
    nothing before it to forward: its magic relation is a seed fact."""
    source = """
    T1: tc(X, Y) :- edge(X, Y).
    T2: tc(X, Z) :- tc(X, Y), edge(Y, Z).
    R1: r(X, Y) :- edge(X, Y).
    R2: r(X, Z) :- tc(n0, Z), r(X, Y).
    Query: r(X, n1).
    """
    compiled = repro.compile(source, passes=["magic"])
    assert all(rule.body for rule in compiled.program.rules)
    assert make_literal("magic_tc_bf", "n0") in compiled.program.facts
    for seed in range(3):
        edges = random_edges(seed)
        expected = {row for row in repro.compile(source, passes=[]).run(
            facts={"edge": edges}).rows("r") if row[1] == "n1"}
        assert compiled.run(facts={"edge": edges}).rows("r") == expected


@pytest.mark.parametrize("source", [
    # One rule rewritten under two adornments (``fb`` from the query,
    # ``ff`` from its own recursive literal), each emitting a magic rule
    # for ``q`` at the same body position.
    pytest.param("""
    P1: p(X, Y) :- e(X, Y).
    P2: p(X, Z) :- p(X, Y), W := 3, q(W, Z).
    Q1: q(X, Y) :- e(X, Y).
    Query: p(X, n1).
    """, id="two-adornments"),
    *(pytest.param(f"T1: tc(X, Y) :- edge(X, Y).\n{TC_PROGRAMS[shape]}\n"
                   f"Query: tc({args[0]}, {args[1]}).",
                   id=f"{shape}-{adornment}")
      for shape in TC_PROGRAMS for adornment, args in TC_QUERIES.items()),
])
def test_every_rewritten_rule_has_its_own_label(source):
    program = magic_rewrite(parse(source))
    labels = [rule.label for rule in program.rules]
    assert len(labels) == len(set(labels)), sorted(labels)
