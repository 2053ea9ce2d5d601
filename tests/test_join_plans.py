"""The compiled join-plan layer (``repro.engine.rules``): plan compiler
unit tests (a plan is metadata; what the kernels generated from it
derive is held to the interpreter, rule by rule, in
``tests/test_kernels.py``), and the engine-level properties: every
engine reaches the naive fixpoint, and PSN/BSN compute identical
fixpoints with identical inference counts whether their strands run
generated kernels or the interpreter (``tests/interpreter.py``) --
planning must not change *what* fires, only how fast.

``tests/data/join_plans.txt`` holds the plan of every strand (every
driving literal) of every builtin program, raw and after ``aggsel`` +
``localize``, from an empty :class:`StatsCatalog` -- the catalog every
node of a deployment plans from.  A change to the join-order policy
fails here.  When a builtin program or the policy changes on purpose,
regenerate it:

    PYTHONPATH=src python tests/test_join_plans.py > tests/data/join_plans.txt
"""

import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.api import _describe_plan
from repro.engine import Database, bsn, naive, psn, seminaive
from repro.engine.bsn import BSNEngine
from repro.engine.kernels import strand_kernel
from repro.engine.psn import PSNEngine
from repro.engine.rules import (
    DEFAULT_ROWS,
    CompiledRule,
    LiteralStep,
    StatsCatalog,
    bound_positions,
    compile_plan,
    shared_compiled_rules,
)
from repro.engine.table import Table
from repro.errors import ReproError
from repro.lint import BUILTINS
from repro.ndlog import parse, programs
from repro.ndlog.terms import Constant

from interpreter import interpret, solve

ENGINES = (naive, seminaive, bsn, psn)
GOLDEN = pathlib.Path(__file__).parent / "data" / "join_plans.txt"


def render() -> str:
    out = []
    for name, builder in BUILTINS.items():
        for label, passes in (("raw", None),
                              ("aggsel+localize", ["aggsel", "localize"])):
            out.append(f"== {name} ({label}) ==")
            try:
                if passes is None:
                    program = builder()
                else:
                    program = repro.compile(builder(), passes=passes,
                                            lint="off").program
                crules = shared_compiled_rules(program)
            except ReproError as exc:
                out.append(f"error: {type(exc).__name__}")
                out.append("")
                continue
            for crule in crules:
                for index in crule.literal_indexes:
                    plan = compile_plan(crule, index, StatsCatalog())
                    out.append(f"{crule.label} @{index}: "
                               f"{_describe_plan(plan)}")
            out.append("")
    return "\n".join(out)


def test_builtin_join_plans_match_the_golden():
    assert render() == GOLDEN.read_text()


def rule_of(text):
    return parse(text).rules[0]


# ----------------------------------------------------------------------
# Plan compiler units
# ----------------------------------------------------------------------
def test_literal_step_classification():
    crule = CompiledRule(rule_of(
        "R: out(@A, B) :- p(@A, B, c1, A, B + 1)."
    ))
    # No prefix bound: A and B bind, the constant is a lookup, the
    # repeated A is a positional check, B + 1 is a residual expression.
    step = LiteralStep(crule.body[0], 0, frozenset())
    assert step.positions == (2,)            # the constant c1
    assert step.getters == (Constant("c1"),)
    assert [name for _pos, name in step.bind_specs] == ["A", "B"]
    assert step.dup_checks == ((3, 0),)      # position 3 must equal 0
    assert [pos for pos, _fn in step.residual_exprs] == [4]

    # With A and B prefix-bound everything becomes an index lookup.
    step = LiteralStep(crule.body[0], 0, frozenset({"A", "B"}))
    assert step.positions == (0, 1, 2, 3, 4)
    assert step.bind_specs == ()
    assert step.dup_checks == ()
    assert step.residual_exprs == ()


def test_kernel_driver_match_and_mismatch():
    """The driving tuple is matched inside the generated kernel:
    variables bind positionally, constants and repeated variables are
    checked, and a literal whose arity differs from its table's never
    matches."""
    def fire(text, args, arity=None):
        program = parse(text)
        db = Database.for_program(program)
        if arity is not None:
            db.tables["p"] = Table("p", arity)
        (strand,) = PSNEngine(program, db=db).strands["p"]
        out = []
        strand.kernel([args], db.functions, out)
        return out

    plain = "R: out(@A, B, C) :- p(@A, B, C)."
    assert fire(plain, ("x", "y", 3)) == [("x", "y", 3)]
    assert fire(plain, ("x", "y"), arity=2) == []   # arity mismatch

    checked = "R: out(@A) :- p(@A, A, c7)."
    assert fire(checked, ("x", "x", "c7")) == [("x",)]
    assert fire(checked, ("x", "y", "c7")) == []    # dup check
    assert fire(checked, ("x", "x", "c8")) == []    # constant


def test_strand_plan_orders_bound_literal_first():
    # Driven by q (binding B), the r literal shares B while s shares
    # nothing -- the plan must join r before s regardless of body order.
    crule = CompiledRule(rule_of(
        "R: out(@A, D) :- q(@A, B), s(@C, D), r(@B, C)."
    ))
    plan = compile_plan(crule, driver_index=0)
    assert plan.order == (2, 1)  # r (body index 2) before s (body index 1)


def test_plan_respects_selectivity_stats():
    crule = CompiledRule(rule_of(
        "R: out(@A) :- big(@A, B), small(@A, C)."
    ))
    stats = StatsCatalog({"big": 10_000.0, "small": 10.0})
    plan = compile_plan(crule, stats=stats)
    assert plan.order[0] == 1  # small first


def test_conditions_and_assignments_run_at_earliest_bound_point():
    crule = CompiledRule(rule_of(
        "R: out(@A, C) :- p(@A, B), q(@B, C), C := B + 1, B != z9."
    ))
    plan = compile_plan(crule)
    kinds = [type(step).__name__ for step in plan.steps]
    # The guard and the assignment depend only on B, so both run right
    # after p binds B -- before the q join.
    assert kinds == ["LiteralStep", "AssignStep", "CondStep", "LiteralStep"]


def test_planned_bodies_have_declarative_order_semantics():
    """An assignment written before the literal that binds its input is
    legal under plans (conjuncts commute; the assignment waits for the
    literal), while the strictly left-to-right interpreter rejects it.
    An assignment whose inputs never bind still raises on both paths."""
    program = parse("Q: q(A, B) :- B := A + 1, p(A).")
    db = Database.for_program(program)
    db.load_facts("p", [(3,)])
    result = naive.evaluate(program, db)
    assert result.rows("q") == frozenset({(3, 4)})
    from repro.errors import EvaluationError
    sources = {1: db.table("p")}
    with pytest.raises(EvaluationError):
        list(solve(CompiledRule(program.rules[0]), sources, db.functions))

    never_bound = parse("Q: q(A, B) :- B := Z + 1, p(A).")
    db3 = Database.for_program(never_bound)
    db3.load_facts("p", [(3,)])
    with pytest.raises(EvaluationError):
        naive.evaluate(never_bound, db3)
    with pytest.raises(EvaluationError):
        list(solve(CompiledRule(never_bound.rules[0]),
                   {1: db3.table("p")}, db3.functions))


def test_bound_kernel_registers_the_indexes_it_probes():
    program = parse("T2: tc(X, Z) :- edge(X, Y), tc(Y, Z).")
    db = Database.for_program(program)
    kernel = strand_kernel(CompiledRule(program.rules[0]), 0)  # by edge
    kernel.bind(db)
    assert list(db.table("tc")._indexes) == [(0,)]
    assert not db.table("edge")._indexes
    # What bind registered is the live index Table.index_for hands out.
    db.table("tc").insert(("b", "c"))
    assert db.table("tc").index_for((0,)) == {("b",): {("b", "c")}}


def test_exclude_driver_marks_preceding_same_pred_literals():
    crule = CompiledRule(rule_of(
        "T2: tc(X, Z) :- tc(X, Y), tc(Y, Z)."
    ))
    plan = compile_plan(crule, driver_index=1)  # driven by second tc
    (step,) = plan.literal_steps()
    assert step.body_index == 0
    assert step.exclude_driver
    plan = compile_plan(crule, driver_index=0)  # driven by first tc
    (step,) = plan.literal_steps()
    assert not step.exclude_driver


def test_table_indexes_preregistered_on_engine_construction():
    program = programs.transitive_closure()
    engine = PSNEngine(program)
    # T2's edge-driven strand probes tc on position 0 (Y bound), and its
    # tc-driven strand probes edge on position 1 (Y bound).
    assert (0,) in engine.db.table("tc")._indexes
    assert (1,) in engine.db.table("edge")._indexes


# ----------------------------------------------------------------------
# Ordering helpers and statistics
# ----------------------------------------------------------------------
def test_bound_positions_counts_constants_vars_and_exprs():
    crule = CompiledRule(rule_of("R: out(@A) :- p(@A, c3, B, A + 1)."))
    literal = crule.body[0]
    assert bound_positions(literal, set()) == 1           # just c3
    assert bound_positions(literal, {"A"}) == 3           # A, c3, A + 1
    assert bound_positions(literal, {"A", "B"}) == 4


def test_greedy_join_order_prefers_bound_then_small():
    crule = CompiledRule(rule_of(
        "R: out(@A) :- seed(@A), big(@C, D), small(@E, F), tied(@A, B)."))
    stats = StatsCatalog({"big": 1e6, "small": 4.0, "tied": 1e6})
    # Driven by seed (A bound): tied has a bound position, then small
    # (tiny) before big among the unbound.
    assert compile_plan(crule, 0, stats).order == (3, 2, 1)


def test_stats_catalog_estimates():
    stats = StatsCatalog({"p": 100.0})
    assert stats.estimated_candidates("p", 2, 0) == 100.0
    assert stats.estimated_candidates("p", 2, 2) == 1.0
    assert stats.estimated_candidates("p", 2, 1) == pytest.approx(10.0)
    assert stats.estimated_candidates("unknown", 1, 0) == DEFAULT_ROWS


def test_stats_catalog_from_database_skips_empty_tables():
    program = programs.transitive_closure()
    db = Database.for_program(program)
    db.load_facts("edge", [("a", "b"), ("b", "c")])
    stats = StatsCatalog.from_database(db)
    assert stats.table_rows("edge") == 2.0
    assert stats.table_rows("tc") == DEFAULT_ROWS


# ----------------------------------------------------------------------
# Properties: every engine == naive; generated kernels == interpreter
# ----------------------------------------------------------------------
SETTINGS = dict(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)

nodes = st.integers(min_value=0, max_value=5).map(lambda i: f"n{i}")
edges = st.sets(st.tuples(nodes, nodes).filter(lambda e: e[0] != e[1]),
                min_size=1, max_size=12)

GRAPH_PROGRAMS = (
    ("edge", programs.transitive_closure),
    ("edge", programs.transitive_closure_nonlinear),
)


def loaded(builder, pred, rows):
    program = builder()
    db = Database.for_program(program)
    db.load_facts(pred, rows)
    return program, db


@given(edge_set=edges)
@settings(**SETTINGS)
def test_property_planned_equals_unplanned_tc(edge_set):
    """Every engine reaches the naive fixpoint, and PSN/BSN run on the
    interpreter (no plan, no generated code) make as many inferences as
    on their kernels."""
    for pred, builder in GRAPH_PROGRAMS:
        reference = naive.evaluate(
            *loaded(builder, pred, edge_set)).db.snapshot()
        for module in ENGINES[1:]:
            result = module.evaluate(*loaded(builder, pred, edge_set))
            assert result.db.snapshot() == reference, module.__name__
        for engine_cls in (PSNEngine, BSNEngine):
            planned = engine_cls(*loaded(builder, pred, edge_set)).fixpoint()
            unplanned = interpret(
                engine_cls(*loaded(builder, pred, edge_set))).fixpoint()
            context = (engine_cls.__name__, builder.__name__)
            assert unplanned.db.snapshot() == reference, context
            assert unplanned.inferences == planned.inferences, context


if __name__ == "__main__":
    print(render(), end="")
