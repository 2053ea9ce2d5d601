"""Cross-engine correctness: naive, semi-naive (Algorithm 1), BSN, and
PSN (Algorithm 3) must compute identical fixpoints (Theorem 1), and the
delta-based engines must not repeat inferences (Theorem 2)."""

import pathlib
import random

import pytest

import repro
from repro.engine import Database, bsn, naive, psn, seminaive
from repro.engine.bsn import BSNEngine
from repro.engine.facts import Fact
from repro.engine.kernels import StrandKernel
from repro.engine.psn import PSNEngine
from repro.engine.rules import compile_plan, shared_compiled_rules
from repro.errors import EvaluationError, NDlogValidationError, PlanError
from repro.ndlog import parse
from repro.ndlog.programs import (
    shortest_path,
    shortest_path_safe,
    transitive_closure,
    transitive_closure_nonlinear,
)

ENGINES = (naive, seminaive, bsn, psn)

#: Figure 2's example network (bidirectional).
FIGURE2_LINKS = [
    ("a", "b", 5), ("b", "a", 5),
    ("a", "c", 1), ("c", "a", 1),
    ("c", "b", 1), ("b", "c", 1),
    ("b", "d", 1), ("d", "b", 1),
    ("e", "a", 1), ("a", "e", 1),
]


def run(module, program, loads):
    db = Database.for_program(program)
    for pred, rows in loads.items():
        db.load_facts(pred, rows)
    return module.evaluate(program, db)


@pytest.mark.parametrize("module", ENGINES)
def test_shortest_path_on_figure2(module):
    result = run(module, shortest_path_safe(), {"link": FIGURE2_LINKS})
    sp = result.rows("shortestPath")
    # From Section 2.2: node a's shortest path to b improves from
    # [a,b] cost 5 to [a,c,b] cost 2.
    assert ("a", "b", ("a", "c", "b"), 2) in sp
    # Path-vector examples from Figure 2.
    assert ("e", "b", ("e", "a", "c", "b"), 3) in sp
    assert ("c", "d", ("c", "b", "d"), 2) in sp
    # All 5*4 ordered pairs are connected.
    assert len({(s, d) for s, d, _p, _c in sp}) == 20


@pytest.mark.parametrize("module", ENGINES)
def test_transitive_closure_matches_reference(module):
    random.seed(11)
    edges = {(f"n{random.randrange(9)}", f"n{random.randrange(9)}")
             for _ in range(16)}
    edges = {(a, b) for a, b in edges if a != b}
    result = run(module, transitive_closure(), {"edge": edges})

    # Reference closure via simple BFS.
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
    expected = set()
    for start in {a for a, _ in edges}:
        frontier = [start]
        seen = set()
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        expected |= {(start, node) for node in seen}
    assert result.rows("tc") == frozenset(expected)


def test_all_engines_agree_on_random_graphs():
    random.seed(3)
    for _trial in range(8):
        edges = {(f"n{random.randrange(7)}", f"n{random.randrange(7)}")
                 for _ in range(12)}
        baselines = {}
        for builder in (transitive_closure, transitive_closure_nonlinear):
            outputs = set()
            for module in ENGINES:
                result = run(module, builder(), {"edge": edges})
                outputs.add(result.rows("tc"))
            assert len(outputs) == 1
            baselines[builder.__name__] = outputs.pop()
        # Linear and non-linear TC agree with each other too.
        assert (baselines["transitive_closure"]
                == baselines["transitive_closure_nonlinear"])


def test_theorem2_no_repeated_inferences():
    """SN is inference-optimal; PSN and BSN must match it exactly
    (Theorem 2), including on non-linear rules (self-joins)."""
    random.seed(5)
    for _trial in range(6):
        edges = {(f"n{random.randrange(8)}", f"n{random.randrange(8)}")
                 for _ in range(14)}
        for builder in (transitive_closure, transitive_closure_nonlinear):
            counts = {}
            for module in (seminaive, bsn, psn):
                result = run(module, builder(), {"edge": edges})
                counts[module.__name__] = result.inferences
            assert len(set(counts.values())) == 1, counts


def test_naive_does_repeat_inferences():
    """Sanity check on the baseline: naive evaluation re-derives facts
    every iteration, so its inference count exceeds semi-naive's."""
    edges = [(f"n{i}", f"n{i+1}") for i in range(6)]
    naive_result = run(naive, transitive_closure(), {"edge": edges})
    sn_result = run(seminaive, transitive_closure(), {"edge": edges})
    assert naive_result.inferences > sn_result.inferences
    assert naive_result.rows("tc") == sn_result.rows("tc")


def test_figure1_program_diverges_on_cycles_without_pruning():
    """Section 2: 'In the presence of path cycles, the query never
    terminates' -- the literal Figure 1 program must hit the iteration
    guard on a cyclic graph when no aggregate-selection pruning is on."""
    program = shortest_path()
    db = Database.for_program(program)
    db.load_facts("link", [("a", "b", 1), ("b", "a", 1)])
    with pytest.raises(EvaluationError):
        seminaive.evaluate(program, db, max_iterations=50)


def test_safe_program_terminates_on_cycles():
    result = run(seminaive, shortest_path_safe(),
                 {"link": [("a", "b", 1), ("b", "a", 1)]})
    assert ("a", "b", ("a", "b"), 1) in result.rows("shortestPath")


def test_bsn_random_batching_matches_fixpoint():
    """BSN may buffer arbitrarily (Section 3.3.1): any batching schedule
    must reach the same fixpoint."""
    random.seed(9)
    edges = {(f"n{random.randrange(8)}", f"n{random.randrange(8)}")
             for _ in range(14)}
    reference = run(seminaive, transitive_closure(), {"edge": edges})

    rng = random.Random(1234)
    for _trial in range(5):
        program = transitive_closure()
        db = Database.for_program(program)
        db.load_facts("edge", edges)
        engine = BSNEngine(program, db=db,
                           scheduler=lambda n: rng.randint(1, max(1, n)))
        result = engine.fixpoint()
        assert result.rows("tc") == reference.rows("tc")


def test_psn_incremental_insert_equals_batch():
    """PSN processes tuples as they arrive: inserting base facts one at a
    time (running to quiescence in between) must equal batch loading."""
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d")]
    program = transitive_closure()
    engine = PSNEngine(program)
    for edge in edges:
        engine.insert("edge", edge)
        engine.run()
    batch = run(psn, transitive_closure(), {"edge": edges})
    assert frozenset(engine.db.table("tc").rows()) == batch.rows("tc")


def test_psn_max_steps_limit_is_exact():
    """Regression: the step guard used to fire only after processing
    ``max_steps + 1`` deltas.  Exactly ``max_steps`` deltas may be
    processed; one more must raise."""
    edges = [(f"n{i}", f"n{i+1}") for i in range(4)]
    program = transitive_closure()
    engine = PSNEngine(program)
    for edge in edges:
        engine.insert("edge", edge)
    needed = engine.run()  # drains fine with the default generous limit

    engine = PSNEngine(program)
    for edge in edges:
        engine.insert("edge", edge)
    assert engine.run(max_steps=needed) == needed  # exact budget passes

    engine = PSNEngine(program)
    for edge in edges:
        engine.insert("edge", edge)
    with pytest.raises(EvaluationError):
        engine.run(max_steps=needed - 1)


def test_bsn_max_steps_limit_is_exact():
    """BSN clips batches so at most ``max_steps`` deltas are processed."""
    edges = [(f"n{i}", f"n{i+1}") for i in range(4)]
    program = transitive_closure()
    engine = BSNEngine(program)
    for edge in edges:
        engine.insert("edge", edge)
    needed = engine.run()

    engine = BSNEngine(program)
    for edge in edges:
        engine.insert("edge", edge)
    assert engine.run(max_steps=needed) == needed

    engine = BSNEngine(program)
    for edge in edges:
        engine.insert("edge", edge)
    with pytest.raises(EvaluationError):
        engine.run(max_steps=needed - 1)
    assert engine.steps == needed - 1  # nothing beyond the budget ran


def test_recursive_aggregate_rejected_by_set_engines():
    program = parse(
        """
        R1: best(@S, min<C>) :- e(@S, C).
        R2: e(@S, C) :- best(@S, C1), C := C1 + 1.
        """
    )
    with pytest.raises(PlanError) as excinfo:
        seminaive.evaluate(program, Database.for_program(program))
    # The message must name the engines that *can* run the plan.
    assert "psn" in str(excinfo.value) and "bsn" in str(excinfo.value)


def test_iteration_counts_reported():
    edges = [(f"n{i}", f"n{i+1}") for i in range(5)]
    result = run(seminaive, transitive_closure(), {"edge": edges})
    # Longest chain has 5 hops -> about that many delta iterations.
    assert result.iterations >= 4


def test_facts_in_program_text_are_loaded():
    program = parse(
        """
        edge(a, b).
        edge(b, c).
        T1: tc(X, Y) :- edge(X, Y).
        T2: tc(X, Z) :- edge(X, Y), tc(Y, Z).
        """
    )
    for module in ENGINES:
        result = module.evaluate(program, Database.for_program(program))
        assert result.rows("tc") == frozenset(
            {("a", "b"), ("b", "c"), ("a", "c")}
        )


def test_removed_use_plans_option_fails_loudly():
    """There is one evaluator per engine; asking for another is an
    error at every entry point, not a silently ignored keyword."""
    program = transitive_closure()
    for engine_cls in (PSNEngine, BSNEngine):
        with pytest.raises(TypeError, match="use_plans"):
            engine_cls(program, use_plans=False)
    for module in ENGINES:
        with pytest.raises(TypeError, match="use_plans"):
            module.evaluate(program, use_plans=False)
        with pytest.raises(EvaluationError, match="use_plans"):
            repro.compile(program).run(
                engine=module.__name__.rsplit(".", 1)[-1], use_plans=False)


def test_the_closure_executor_is_gone():
    """One code generator stands between a ``JoinPlan`` and every
    engine's result; the closure chain that ran naive and semi-naive
    left no name behind to import."""
    import repro.engine.rules as rules
    import repro.ndlog.terms as terms

    for name in ("execute_plan", "SetSource", "EMPTY_SOURCE"):
        assert not hasattr(rules, name), name
    assert not hasattr(terms, "compile_term")
    crule = shared_compiled_rules(transitive_closure())[1]
    with pytest.raises(TypeError, match="lead_index"):
        compile_plan(crule, lead_index=1)


def test_semi_naive_runs_psns_strand_kernels(monkeypatch):
    """Algorithm 1's delta rule at position ``k`` is the strand kernel
    for driver ``k``: the same object PSN's strand holds for that
    ``(rule, driver)`` -- generated once per ``Program`` -- bound with
    ``old`` tables ahead of ``k``."""
    program = transitive_closure_nonlinear()
    strands = {
        (strand.crule.label, strand.driver_index): strand
        for strand_list in PSNEngine(program).strands.values()
        for strand in strand_list
    }
    bound = []
    bind = StrandKernel.bind

    def recording_bind(self, db, capture=False, tables=None):
        bound.append((self, db, tables))
        return bind(self, db, capture, tables)

    monkeypatch.setattr(StrandKernel, "bind", recording_bind)
    edges = [(f"n{i}", f"n{(i * 3 + 1) % 7}") for i in range(7)]
    result = run(seminaive, program, {"edge": edges})
    run(naive, program, {"edge": edges})
    assert result.inferences > 0

    delta_rules = {}
    for code, db, tables in bound:
        driver = code.plan.driver_index
        strand = strands[(code.plan.crule.label, driver)]
        assert code is strand.code
        assert code.source() == strand.kernel_source
        if tables is not None:      # a delta rule, not a lead strand
            delta_rules[(code.plan.crule.label, driver)] = (db, tables)
    # tc(X, Z) :- tc(X, Y), tc(Y, Z): delta at 0 reads the full table
    # at 1, delta at 1 reads ``old`` at 0.
    assert sorted(delta_rules) == [("T2", 0), ("T2", 1)]
    assert delta_rules[("T2", 0)][1] == {}
    db, tables = delta_rules[("T2", 1)]
    assert list(tables) == [0] and tables[0] is not db.table("tc")
    for crule in shared_compiled_rules(program):
        assert len(crule.kernels) == len(crule.literal_indexes)


LINT_DATA = pathlib.Path(__file__).parent / "data" / "lint"


def test_a_rule_without_a_body_literal_fails_loudly_everywhere():
    """No literal, no strand: every engine would have to invent a way
    to run ``p(@X) :- X := "a".`` (the set-oriented ones used to, and
    disagreed with PSN / BSN).  Validation and every engine refuse it
    with the same typed error."""
    source = (LINT_DATA / "literal_free_rule.ndlog").read_text()
    naming_the_rule = "L1: rule body has no literal"
    with pytest.raises(NDlogValidationError, match=naming_the_rule):
        repro.compile(source)
    unvalidated = repro.compile(source, validate=False)
    assert sorted(repro.api.ENGINES) == ["bsn", "naive", "psn", "seminaive"]
    for engine, evaluate in repro.api.ENGINES.items():
        with pytest.raises(NDlogValidationError, match=naming_the_rule):
            unvalidated.run(engine=engine)
        with pytest.raises(NDlogValidationError, match=naming_the_rule):
            evaluate(parse(source))


@pytest.mark.parametrize("engine", sorted(repro.api.ENGINES))
def test_an_evaluation_error_names_the_rule_that_was_firing(engine):
    compiled = repro.compile("r1: p(@X, Z) :- e(@X, Y), Z := W + 1.")
    with pytest.raises(EvaluationError,
                       match="unbound variable 'W'") as raised:
        compiled.run(engine=engine, facts={"e": [("a", 1)]})
    assert raised.value.rule == "r1"


# ----------------------------------------------------------------------
# The queue carries plain rows; the public surface around it is unchanged
# ----------------------------------------------------------------------
KEYED_LINK = """
materialize(link, infinity, infinity, keys(1, 2)).
materialize(hop, infinity, infinity, keys(1, 2, 3)).
H1: hop(@S, D, C) :- #link(@S, D, C).
"""


@pytest.mark.parametrize("batch_size", [1, 8])
def test_external_change_api_and_queue_surface(batch_size):
    """``derive`` / ``insert`` / ``delete`` / ``update`` queue one
    intent each (a zero weight none); ``len(engine.queue)`` and
    ``quiescent`` read the backlog; nothing touches a table until
    ``run``."""
    engine = PSNEngine(parse(KEYED_LINK), batch_size=batch_size)
    assert engine.quiescent and len(engine.queue) == 0
    engine.insert("link", ["a", "b", 1])          # any sequence of values
    engine.derive(Fact("link", ("a", "c", 2)), 2)  # two derivations
    engine.derive(Fact("link", ("a", "d", 9)), 0)  # no-op
    assert len(engine.queue) == 2 and not engine.quiescent
    assert len(engine.db.table("link")) == 0
    assert engine.run() == 4  # two links, two hops
    assert engine.quiescent
    link, hop = engine.db.table("link"), engine.db.table("hop")
    assert sorted(link.rows()) == [("a", "b", 1), ("a", "c", 2)]
    assert link.count(("a", "c", 2)) == 2
    assert sorted(hop.rows()) == [("a", "b", 1), ("a", "c", 2)]

    engine.update("link", ("a", "b", 5))           # key replacement
    engine.derive(Fact("link", ("a", "c", 2)), -1)  # one of two withdrawn
    assert len(engine.queue) == 2
    engine.run()
    assert sorted(link.rows()) == [("a", "b", 5), ("a", "c", 2)]
    assert link.count(("a", "c", 2)) == 1
    assert sorted(hop.rows()) == [("a", "b", 5), ("a", "c", 2)]

    engine.derive(Fact("link", ("a", "b", 5)), 3)
    engine.delete("link", ("a", "b", 5))           # whatever the count
    engine.derive(Fact("link", ("a", "c", 2)), -1)
    engine.run()
    assert link.rows() == [] and hop.rows() == []
    assert engine.steps == 4 + 4 + 5 and engine.quiescent


def test_bsn_scheduler_reads_the_queue_length():
    """The scheduler is handed ``len(engine.queue)`` before every
    iteration and its answer bounds what that iteration consumes."""
    edges = [(f"n{i}", f"n{i+1}") for i in range(5)]
    program = transitive_closure()
    seen = []

    def two_at_a_time(buffered):
        seen.append((buffered, len(engine.queue)))
        return 2

    engine = BSNEngine(program, scheduler=two_at_a_time)
    for edge in edges:
        engine.insert("edge", edge)
    before = len(engine.queue)
    taken = engine.run()
    assert seen[0] == (before, before) == (5, 5)
    assert all(buffered == depth > 0 for buffered, depth in seen)
    assert engine.iterations == len(seen) and taken <= 2 * len(seen)
    assert frozenset(engine.db.table("tc").rows()) == run(
        seminaive, transitive_closure(), {"edge": edges}).rows("tc")


def test_obs_queue_depth_reads_the_queue():
    import repro
    from repro.topology.overlay import Overlay

    overlay = Overlay(
        nodes=["a", "b"], host={"a": "h", "b": "h"},
        links={("a", "b"): {"latency": 10.0, "hopcount": 1.0}})
    deployment = repro.compile(KEYED_LINK).deploy(
        topology=overlay, link_loads={}, metrics=True)
    deployment.inject("a", "link", ("a", "b", 1))
    deployment.inject("a", "link", ("a", "c", 2))
    depth = {name: counts["queue_depth"]
             for name, counts in deployment.metrics().nodes.items()}
    assert depth == {"a": 2, "b": 0}
    deployment.advance()
    assert all(counts["queue_depth"] == 0
               for counts in deployment.metrics().nodes.values())


def _count_facts(monkeypatch):
    """Swap a counting double in for :class:`Fact` wherever ``repro``
    imported it by name."""
    import sys

    class CountingFact(Fact):
        __slots__ = ()
        made = 0

        def __new__(cls, pred, args):
            CountingFact.made += 1
            return Fact.__new__(cls, pred, args)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "Fact", None) is Fact:
            monkeypatch.setattr(module, "Fact", CountingFact)
    return CountingFact


@pytest.mark.parametrize("batch_size", [1, 64])
def test_no_fact_is_built_unless_an_observer_consumes_it(
        monkeypatch, batch_size):
    """Without a commit listener or provenance, rows travel kernel ->
    queue -> table as plain tuples: a run over insertions, a key
    replacement, netted flaps, aggregate views and a forced deletion
    constructs no ``Fact`` -- also when it is traced, metered and
    profiled, whose subscribers take the bare row; with ``on_commit``
    on, one per commit."""
    from repro.obs import NodeMetrics, Profiler, Tracer

    double = _count_facts(monkeypatch)

    seen = []

    def burst(**observers):
        program = shortest_path_safe()
        db = Database.for_program(program)
        db.load_facts("link", FIGURE2_LINKS)
        engine = PSNEngine(program, db=db, batch_size=batch_size,
                           **observers)
        engine.fixpoint()
        engine.update("link", ("a", "b", 2))
        engine.insert("link", ("d", "e", 1))
        engine.insert("link", ("e", "d", 1))
        engine.delete("link", ("a", "c", 1))
        double.made = 0
        seen.clear()  # count the burst's run() only
        engine.run()
        return engine

    quiet = burst()
    assert double.made == 0
    metrics, tracer = NodeMetrics("c"), Tracer(lambda: 0.0)
    traced = burst(metrics=metrics, tracer=tracer.recorder("c"),
                   profiler=Profiler())
    assert double.made == 0
    assert sum(metrics.commits.values()) > 0 < sum(
        metrics.retractions.values())
    assert {"inject", "derive", "commit"} <= {e.kind for e in tracer.events}
    assert traced.db.snapshot() == quiet.db.snapshot()
    observed = burst(on_commit=lambda fact, weight: seen.append(fact))
    assert double.made == len(seen) > 0
    assert all(type(fact) is double for fact in seen)
    assert observed.db.snapshot() == quiet.db.snapshot()
