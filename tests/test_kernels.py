"""Generated strand kernels (``repro.engine.kernels``).

A kernel is the third implementation of one strand's join, beside the
closure executor (``execute_plan``) and the interpreter (``solve``,
kept in ``tests/interpreter.py`` as the reference);
the property tests here hold all three to the same heads -- on every
builtin program and on random rule shapes -- and the unit tests pin
what the generator must preserve: error paths, live index capture,
late function registration, once-per-program compilation, readable
tracebacks, and independence from the hash seed.
"""

import gc
import json
import os
import subprocess
import sys
import traceback
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.engine import Database
from repro.engine.facts import Fact
from repro.engine.kernels import strand_kernel
from repro.engine.psn import PSNEngine
from repro.engine.rules import (
    CompiledRule,
    LiteralStep,
    execute_plan,
    instantiate_head,
    unify_literal,
)
from repro.engine.table import Table
from repro.errors import EvaluationError
from repro.ndlog import parse, programs
from repro.ndlog.ast import Literal
from repro.ndlog.terms import Constant, evaluate
from repro.opt.costbased import StatsCatalog

from interpreter import interpret, solve
from test_pretty import random_programs

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

BUILTIN_PROGRAMS = [
    programs.shortest_path, programs.shortest_path_safe,
    programs.shortest_path_dynamic, programs.magic_dst,
    programs.magic_src_dst, programs.multi_query_magic,
    programs.reachability, programs.distance_vector,
    programs.transitive_closure, programs.transitive_closure_nonlinear,
    programs.same_generation,
]

NODES = ["a", "b", "c"]
PATHS = [(), ("a",), ("a", "b"), ("b", "c"), ("c", "a", "b")]


# ----------------------------------------------------------------------
# Three evaluators, one strand
# ----------------------------------------------------------------------
def outcome(thunk):
    """Heads as a multiset, or the exception class when evaluation
    raised."""
    try:
        return Counter(thunk())
    except AssertionError:
        raise
    except Exception as error:  # noqa: BLE001 -- parity of *any* failure
        return type(error)


def match_driver(step, args, functions):
    """Reference matcher for a strand's driving tuple under the planned
    (declarative) reading, step metadata walked one check at a time:
    constants and variable-free expressions in position order, repeated
    variables, then expressions over the variables the literal binds."""
    if len(args) != step.arity:
        return None
    for pos, term in zip(step.positions, step.getters):
        if evaluate(term, {}, functions) != args[pos]:
            return None
    if any(args[pos] != args[first] for pos, first in step.dup_checks):
        return None
    bindings = {name: args[pos] for pos, name in step.bind_specs}
    for pos, term in step.residual_exprs:
        if evaluate(term, bindings, functions) != args[pos]:
            return None
    return bindings


def strand_outcomes(crule, driver_index, db, args):
    """Heads one driving tuple derives through the kernel, the capture
    kernel, the closure executor and the interpreter."""
    functions = db.functions
    literal = crule.body[driver_index]
    fact = Fact(literal.pred, args)
    sources = {
        index: db.table(crule.body[index].pred)
        for index in crule.literal_indexes if index != driver_index
    }
    code = strand_kernel(crule, driver_index, StatsCatalog())
    plan = code.plan

    def via_kernel():
        out = []
        code.bind(db)(args, functions, out)
        return out

    def via_capture_kernel():
        out = []
        code.bind(db, capture=True)(args, functions, out)
        for _head, body in out:
            # The ground body: one stored tuple per body literal, in
            # body order, the driving tuple at its own position.
            assert [f.pred for f in body] == list(crule.body_preds())
            assert all(f.args in db.table(f.pred) for f in body), body
            assert body[crule.literal_indexes.index(driver_index)] == fact
        return [head for head, _body in out]

    def via_plan():
        seed = match_driver(
            LiteralStep(literal, driver_index, frozenset()), args, functions)
        if seed is None:
            return []
        return [
            instantiate_head(crule, bindings, functions)
            for bindings in execute_plan(plan, sources, functions,
                                         bindings=seed, skip_fact=fact)
        ]

    def via_solve():
        seed = unify_literal(literal, args, {}, functions)
        if seed is None:
            return []
        return [
            instantiate_head(crule, bindings, functions)
            for bindings in solve(crule, sources, functions, bindings=seed,
                                  skip_index=driver_index, skip_fact=fact)
        ]

    return (outcome(via_kernel), outcome(via_capture_kernel),
            outcome(via_plan), outcome(via_solve))


def assert_strands_agree(crule, db):
    """Every strand of ``crule``, driven by every stored tuple of its
    driving relation.  Kernel and closure executor walk the same plan,
    so they must agree outright (heads, or both failing); the
    interpreter evaluates strictly left to right and may fail where the
    plans do not, so it is compared when it succeeds."""
    compared = 0
    for driver_index in crule.literal_indexes:
        table = db.table(crule.body[driver_index].pred)
        for args in table.rows():
            kernel, captured, planned, interpreted = strand_outcomes(
                crule, driver_index, db, args)
            context = (crule, driver_index, args)
            if isinstance(planned, Counter):
                assert kernel == planned, context
                assert captured == planned, context
                if isinstance(interpreted, Counter):
                    assert interpreted == planned, context
                    compared += sum(planned.values())
            else:
                assert not isinstance(kernel, Counter), context
                assert not isinstance(captured, Counter), context
    return compared


def column_values(name):
    """Plausible values for a column, from the variable naming the
    builtin programs use (costs and ids are numbers, ``P*`` are path
    vectors, everything else an address)."""
    if name.startswith("C") or name == "Qid":
        return [1, 2, 3]
    if name.startswith("P"):
        return PATHS
    return NODES


@pytest.mark.parametrize("builder", BUILTIN_PROGRAMS,
                         ids=lambda b: b.__name__)
@given(data=st.data())
@settings(max_examples=8, **SETTINGS)
def test_kernels_match_plans_and_interpreter_on_builtin_programs(
        builder, data):
    program = builder()
    db = Database.for_program(program)
    columns = {}
    for rule in program.rules:
        for literal in (rule.head, *rule.body_literals):
            for position, term in enumerate(literal.args):
                name = getattr(term, "name", None) or getattr(term, "var", "")
                columns.setdefault((literal.pred, position), name or "X")
    for pred, table in db.tables.items():
        row = st.tuples(*[
            st.sampled_from(column_values(columns.get((pred, i), "X")))
            for i in range(table.arity)
        ])
        for args in data.draw(st.lists(row, max_size=8), label=pred):
            table.insert(args)
    for rule in program.rules:
        assert_strands_agree(CompiledRule(rule), db)


def test_builtin_program_property_is_not_vacuous():
    """A dense instance derives through every rule of shortest-path."""
    program = programs.shortest_path_safe()
    db = Database.for_program(program)
    for a in NODES:
        for b in NODES:
            if a != b:
                db.table("link").insert((a, b, 1))
                db.table("path").insert((a, b, b, (a, b), 1))
                db.table("spCost").insert((a, b, 1))
    for rule in program.rules:
        assert assert_strands_agree(CompiledRule(rule), db) > 0


POOL = NODES + ["node1", 0, 1, 2, ("a", "b"), ()]


@given(program=random_programs(), data=st.data())
@settings(max_examples=120, **SETTINGS)
def test_kernels_match_plans_and_interpreter_on_random_rules(program, data):
    """Random rule shapes from the surface grammar: self-joins,
    ``p(X, X)``, constants and expressions in literal arguments,
    assignments to bound variables, aggregate heads, unknown functions."""
    for rule in program.rules:
        arities = {}
        for literal in rule.body_literals:
            arities.setdefault(literal.pred, set()).add(len(literal.args))
        if any(len(seen) > 1 for seen in arities.values()):
            continue    # the schema rejects the rule before any engine
        pool = POOL + [
            term.value
            for literal in rule.body_literals for term in literal.args
            if isinstance(term, Constant)
        ]
        db = Database()
        for pred, (arity,) in arities.items():
            table = db.tables[pred] = Table(pred, arity)
            row = st.tuples(*[st.sampled_from(pool)] * arity)
            for args in data.draw(st.lists(row, max_size=6), label=pred):
                table.insert(args)
        assert_strands_agree(CompiledRule(rule), db)


@pytest.mark.parametrize("text,rows", [
    # self-join: the driving fact is excluded before its own position
    ("T: tc(X, Z) :- tc(X, Y), tc(Y, Z).",
     {"tc": [("a", "a"), ("a", "b"), ("b", "a")]}),
    # repeated variable and constant in the driver and in a partner
    ("R: out(@A, B) :- p(@A, A, c7), q(@B, B, A).",
     {"p": [("x", "x", "c7"), ("x", "y", "c7"), ("x", "x", "c8")],
      "q": [("k", "k", "x"), ("k", "j", "x"), ("m", "m", "x")]}),
    # expressions: prefix-evaluable lookup, residual, driver residual
    ("R: out(@A, C) :- p(@A, B, B + 1), q(@A, B * 2, C, C + B).",
     {"p": [("n", 1, 2), ("n", 1, 3), ("n", 2, 3)],
      "q": [("n", 2, 5, 6), ("n", 2, 5, 7), ("n", 4, 1, 3)]}),
    # assignment to a bound variable is an equality test
    ("R: out(@A, B) :- p(@A, B, C), B := C + 1.",
     {"p": [("n", 2, 1), ("n", 3, 1)]}),
    # count<*> and eager boolean operators in a condition
    ("R: cnt(@A, count<*>) :- p(@A, B, C), B > 1 || C > 1, !(B == C).",
     {"p": [("n", 2, 1), ("n", 1, 1), ("n", 2, 2), ("n", 0, 3)]}),
])
def test_generator_semantics_on_directed_cases(text, rows):
    program = parse(text)
    db = Database.for_program(program)
    for pred, pred_rows in rows.items():
        db.load_facts(pred, pred_rows)
    assert assert_strands_agree(CompiledRule(program.rules[0]), db) > 0


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
def run_program(text, facts, generated, functions=None):
    """Run ``text`` through PSN on its generated kernels, or with every
    strand swapped over to the tests' interpreter."""
    program = parse(text)
    engine = PSNEngine(program)
    if not generated:
        interpret(engine)
    if functions:
        engine.db.functions.update(functions)
    for pred, rows in facts.items():
        for row in rows:
            engine.insert(pred, row)
    engine.run()
    return engine


@pytest.mark.parametrize("generated", [True, False])
class TestErrorPathParity:
    def test_unknown_function_raises_only_when_evaluated(self, generated):
        text = "R: out(@A, B) :- p(@A, X), X > 5, B := f_nope(X)."
        # The guard fails first: the call is never reached, nothing raises.
        engine = run_program(text, {"p": [("n", 1)]}, generated)
        assert engine.db.rows("out") == []
        with pytest.raises(EvaluationError, match="unknown function"):
            run_program(text, {"p": [("n", 9)]}, generated)

    def test_unbound_aggregate_variable(self, generated):
        text = "R: low(@A, min<Z>) :- p(@A, X)."
        with pytest.raises(EvaluationError, match="aggregate variable 'Z'"):
            run_program(text, {"p": [("n", 1)]}, generated)

    def test_unbound_variable_in_an_expression(self, generated):
        text = "R: out(@A, B) :- p(@A, X), B := Y + 1."
        with pytest.raises(EvaluationError, match="unbound variable 'Y'"):
            run_program(text, {"p": [("n", 1)]}, generated)

    def test_boolean_operators_evaluate_both_sides(self, generated):
        calls = []

        def f_spy(value):
            calls.append(value)
            return 1

        text = "R: out(@A) :- p(@A, X), X > 5 && f_spy(X) == 1."
        engine = run_program(text, {"p": [("n", 1)]}, generated,
                             functions={"f_spy": f_spy})
        assert engine.db.rows("out") == []
        assert calls == [1]     # right side ran although the left failed
        text = "R: out(@A) :- p(@A, X), X < 5 || f_spy(X) == 1."
        engine = run_program(text, {"p": [("n", 2)]}, generated,
                             functions={"f_spy": f_spy})
        assert engine.db.rows("out") == [("n",)]
        assert calls == [1, 2]


def test_kernel_traceback_shows_the_generated_line():
    text = "R7: out(@A, B) :- p(@A, X), B := X + nope."
    with pytest.raises(TypeError):
        try:
            run_program(text, {"p": [("n", 1)]}, generated=True)
        except TypeError:
            shown = traceback.format_exc()
            raise
    assert 'File "<kernel R7/p>"' in shown
    assert "v_B = (v_X + 'nope')" in shown


# ----------------------------------------------------------------------
# What is captured, what is shared
# ----------------------------------------------------------------------
def test_kernels_survive_table_clear_and_later_inserts():
    program = programs.transitive_closure()
    engine = PSNEngine(program)
    for edge in [("a", "b"), ("b", "c")]:
        engine.insert("edge", edge)
    engine.run()
    assert ("a", "c") in engine.db.table("tc")
    for table in engine.db.tables.values():
        table.clear()
    for edge in [("x", "y"), ("y", "z"), ("z", "w")]:
        engine.insert("edge", edge)
    engine.run()
    assert set(engine.db.rows("tc")) == {
        ("x", "y"), ("y", "z"), ("z", "w"), ("x", "z"), ("y", "w"),
        ("x", "w"),
    }


def test_functions_registered_after_construction_are_seen():
    program = parse("R: out(@A, B) :- p(@A, X), B := f_late(X).")
    engine = PSNEngine(program)
    engine.insert("p", ("n", 1))
    with pytest.raises(EvaluationError, match="unknown function 'f_late'"):
        engine.run()
    engine.db.functions["f_late"] = lambda value: value + 41
    engine.insert("p", ("n", 2))
    engine.run()
    assert engine.db.rows("out") == [("n", 43)]


def test_kernels_compile_once_per_program_and_die_with_it():
    def shared_code(program):
        first, second = PSNEngine(program), PSNEngine(program)
        assert first.compiled[0] is second.compiled[0]
        codes = []
        for pred, strands in first.strands.items():
            for one, other in zip(strands, second.strands[pred]):
                assert one.code is other.code
                assert one.kernel is not other.kernel  # bound per database
                codes.append(one.code)
        return codes

    program = programs.shortest_path_safe()
    codes = shared_code(program)
    # Another Program object compiles its own, and nothing
    # process-global keeps the first one's code alive.
    assert not set(codes) & set(shared_code(programs.shortest_path_safe()))
    probe = weakref.ref(codes[0].plan.crule)    # holds the kernels
    del codes, program
    gc.collect()
    assert probe() is None


def test_strand_repr_and_kernel_source():
    engine = PSNEngine(programs.shortest_path_safe())
    strand = next(s for s in engine.strands["link"] if s.crule.label == "SP2")
    assert "<kernel SP2/link>" in repr(strand)
    source = strand.kernel_source
    assert "def kernel(args, functions, out):" in source
    assert "v_C = (v_C1 + v_C2)" in source


def test_explain_kernels_section_is_opt_in():
    compiled = repro.compile(programs.shortest_path_safe(),
                             passes=["aggsel", "localize"])
    plain = compiled.explain()
    assert "-- strand kernels --" not in plain
    text = compiled.explain(kernels=True)
    assert text.startswith(plain)
    section = text[len(plain):]
    assert "-- strand kernels --" in section
    for rule in compiled.program.rules:
        for literal in rule.body:
            if isinstance(literal, Literal):
                assert f"<kernel {rule.label}/{literal.pred}" in section
    assert "def kernel(args, functions, out):" in section


# ----------------------------------------------------------------------
# Hash-seed independence (ROADMAP aim 3)
# ----------------------------------------------------------------------
HASH_SEED_SCRIPT = r"""
import json, random, sys
import repro
from repro.engine.database import Database
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.ndlog import programs
from repro.provenance import ProvenanceStore, audit_engine
from repro.runtime import LinkUpdateDriver, RuntimeConfig
from repro.topology import build_overlay, transit_stub

batch = int(sys.argv[1])


def link_flap():
    # The benchmark's link-flap shape: a ring with chords, transient
    # announce/withdraw flaps netted at the queue, real cost updates.
    rng = random.Random(5)
    nodes = [f"v{i}" for i in range(8)]
    pairs = {tuple(sorted((nodes[i], nodes[(i + 1) % 8]))) for i in range(8)}
    pairs |= {tuple(sorted((nodes[i], nodes[(i + 3) % 8])))
              for i in range(0, 8, 2)}
    costs = {pair: rng.randint(1, 10) for pair in sorted(pairs)}
    program = programs.shortest_path_safe()
    db = Database.for_program(program)
    for (a, b), cost in sorted(costs.items()):
        db.load_facts("link", [(a, b, cost), (b, a, cost)])
    engine = PSNEngine(program, db=db, batch_size=batch,
                       provenance=ProvenanceStore().recorder())
    engine.fixpoint()
    absent = [(a, b) for a in nodes for b in nodes
              if a < b and (a, b) not in costs]
    for a, b in rng.sample(absent, 4):
        for weight in (1, -1):
            engine.derive(Fact("link", (a, b, 3)), weight)
            engine.derive(Fact("link", (b, a, 3)), weight)
    for a, b in rng.sample(sorted(costs), 2):
        new = costs[(a, b)] % 10 + 1
        engine.update("link", (a, b, new))
        engine.update("link", (b, a, new))
    engine.run()
    table = engine.db.table("shortestPath")
    return {
        "rows": sorted(map(repr, table.rows())),
        "counts": sorted((repr(r), table.count(r)) for r in table.rows()),
        "audit": audit_engine(engine).ok,
        "inferences": engine.inferences, "steps": engine.steps,
    }


def burst():
    overlay = build_overlay(transit_stub(seed=3), n_nodes=8, degree=3,
                            seed=3)
    compiled = repro.compile(programs.shortest_path_dynamic(),
                             passes=["aggsel", "localize"], provenance=True)
    deployment = compiled.deploy(
        topology=overlay, link_loads={"link": "latency"},
        config=RuntimeConfig(buffer_interval=0.2, cpu_batch=batch))
    deployment.advance()
    LinkUpdateDriver(deployment.cluster, metric="latency", fraction=1.0,
                     seed=3).apply_burst()
    deployment.advance()
    return {
        "rows": sorted(map(repr, deployment.rows("shortestPath"))),
        "audit": deployment.audit().ok,
        "quiescent": deployment.quiescent,
    }


print(json.dumps({"link_flap": link_flap(), "burst": burst()}))
"""


def run_under_hash_seed(hash_seed, batch):
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", HASH_SEED_SCRIPT, str(batch)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_fixpoint_and_audit_do_not_depend_on_the_hash_seed():
    """Kernels iterate live index buckets (sets), so the *order* of
    derivations moves with the hash seed; the fixpoint and the
    provenance audit must not.  Under one seed, batch sizes 1 and 64
    agree on the rows and on every derivation count, as
    ``test_batching`` pins in-process (``inferences``/``steps`` are
    intermediate traffic, which netting legitimately shrinks)."""
    runs = {(seed, batch): run_under_hash_seed(seed, batch)
            for seed in (0, 1, 2) for batch in (1, 64)}
    reference = runs[(0, 64)]
    assert reference["link_flap"]["rows"] and reference["burst"]["rows"]
    for (seed, batch), run in runs.items():
        key = (seed, batch)
        assert run["burst"]["audit"] and run["burst"]["quiescent"], key
        assert run["link_flap"]["audit"], key
        assert run["link_flap"]["rows"] == reference["link_flap"]["rows"], key
        assert run["burst"]["rows"] == reference["burst"]["rows"], key
    for seed in (0, 1, 2):
        assert (runs[(seed, 1)]["link_flap"]["counts"]
                == runs[(seed, 64)]["link_flap"]["counts"]), seed
