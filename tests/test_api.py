"""Tests for the staged compile() -> CompiledProgram -> run()/deploy()
facade: the pass pipeline (toggleability, order-independence of the
passes), explain() introspection, the error taxonomy at the facade
boundary, the deployed cluster, and the deprecation shims' fixpoint
equivalence."""

import itertools
import pathlib

import pytest

import repro
from repro import api
from repro.errors import (
    EvaluationError,
    NDlogValidationError,
    PlanError,
)
from repro.ndlog import parse, programs
from repro.topology import Overlay

FIGURE2_LINKS = [
    ("a", "b", 5), ("b", "a", 5),
    ("a", "c", 1), ("c", "a", 1),
    ("c", "b", 1), ("b", "c", 1),
    ("b", "d", 1), ("d", "b", 1),
    ("e", "a", 1), ("a", "e", 1),
]

def shortest_path_rows(passes, engine="psn"):
    compiled = api.compile(
        programs.shortest_path_safe(),
        passes=None if passes is None else list(passes),
    )
    result = compiled.run(engine=engine, facts={"link": FIGURE2_LINKS})
    return result.rows("shortestPath")


@pytest.fixture(scope="module")
def default_rows():
    return shortest_path_rows(None)


# ----------------------------------------------------------------------
# compile() basics
# ----------------------------------------------------------------------
class TestCompile:
    def test_compiles_source_and_program(self):
        from_source = api.compile(programs.SHORTEST_PATH_SAFE, name="sp")
        from_program = api.compile(programs.shortest_path_safe())
        assert from_source.applied_passes == from_program.applied_passes
        assert len(from_source.program.rules) == len(from_program.program.rules)

    def test_default_pipeline_is_default_passes(self):
        compiled = api.compile(programs.shortest_path_safe())
        assert compiled.applied_passes == api.DEFAULT_PASSES

    def test_no_passes_keeps_program(self):
        program = programs.shortest_path_safe()
        compiled = api.compile(program, passes=[])
        assert compiled.program is program
        assert compiled.trace == ()

    def test_trace_snapshots_chain(self):
        compiled = api.compile(
            programs.shortest_path_safe(), passes=["aggsel", "localize"]
        )
        assert compiled.applied_passes == ("aggsel", "localize")
        first, second = compiled.trace
        assert first.before is compiled.source
        assert first.after is second.before
        assert second.after is compiled.program
        assert first.changed
        assert "path__best" in second.before.predicates()

    def test_before_after_pass_lookup(self):
        compiled = api.compile(
            programs.shortest_path_safe(), passes=["aggsel", "localize"]
        )
        assert compiled.before_pass("aggsel") is compiled.source
        assert compiled.after_pass("localize") is compiled.program
        assert compiled.before_pass("magic") is None

    def test_validation_report_attached(self):
        compiled = api.compile(programs.shortest_path_safe())
        assert compiled.report is not None
        assert compiled.report.ok
        assert compiled.report.link_restricted_rules == ["SP2"]

    def test_strict_validation_raises(self):
        # Partially located: NDlog constraints apply and fail.
        bad = parse("p(@X) :- q(X).")
        with pytest.raises(NDlogValidationError) as excinfo:
            api.compile(bad)
        # The error names the escape hatch.
        assert "validate=False" in str(excinfo.value)

    def test_plain_datalog_compiles_without_validate_false(self):
        # No location specifiers anywhere: plain Datalog is auto-detected
        # and validated without the NDlog distributed constraints.
        compiled = api.compile(programs.transitive_closure(), passes=[])
        assert compiled.report is not None and compiled.report.ok
        result = compiled.run(
            engine="psn", facts={"edge": [("a", "b"), ("b", "c")]}
        )
        assert ("a", "c") in result.rows("tc")

    def test_plain_datalog_keeps_non_distributed_checks(self):
        # Rule safety still applies to plain Datalog...
        with pytest.raises(NDlogValidationError):
            api.compile(parse("p(X, Y) :- q(X)."), passes=[])
        # ...and facts must still be ground.
        with pytest.raises(NDlogValidationError):
            api.compile(parse("f(X)."), passes=[])

    def test_plain_datalog_detection_requires_total_absence(self):
        # A single @ marker anywhere re-arms full validation.
        partially = parse("p(X) :- q(X), r(@Y).")
        with pytest.raises(NDlogValidationError):
            api.compile(partially)

    def test_validate_false_skips_validation(self):
        bad = parse("p(@X) :- q(X).")
        compiled = api.compile(bad, validate=False, passes=[])
        assert compiled.report is None

    def test_localized_idempotent(self):
        compiled = api.compile(programs.shortest_path_safe()).localized()
        assert compiled.localized() is compiled
        assert "localize" in compiled.applied_passes

    def test_recompiling_artifact_composes_instead_of_restarting(self):
        # The default pipeline must not run twice: re-compiling an
        # artifact returns it unchanged, and explicit passes extend the
        # existing trace (no duplicate aggsel view rules).
        first = api.compile(programs.shortest_path_safe())
        assert api.compile(first) is first
        extended = api.compile(first, passes=["localize"])
        assert extended.applied_passes == ("aggsel", "localize")
        assert extended.source is first.source
        labels = [r.label for r in extended.program.rules]
        assert labels.count("path_aggsel_b") == 1


# ----------------------------------------------------------------------
# Error taxonomy at the facade
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_unknown_pass_is_plan_error(self):
        with pytest.raises(PlanError, match="unknown pass"):
            api.compile(programs.shortest_path_safe(), passes=["quantum"])

    def test_unknown_engine_is_plan_error(self):
        compiled = api.compile(programs.shortest_path_safe())
        with pytest.raises(PlanError, match="unknown engine"):
            compiled.run(engine="quantum")

    def test_pass_failure_carries_pass_name(self):
        # magic needs a query; this program has none.
        no_query = parse("p(@X) :- q(@X).", name="noquery")
        with pytest.raises(PlanError) as excinfo:
            api.compile(no_query, passes=["magic"])
        assert excinfo.value.pass_name == "magic"
        assert "magic" in str(excinfo.value)

    def test_engine_runaway_is_evaluation_error_with_engine(self):
        compiled = api.compile(
            programs.transitive_closure(), validate=False, passes=[]
        )
        with pytest.raises(EvaluationError) as excinfo:
            compiled.run(
                engine="psn",
                facts={"edge": [("a", "b"), ("b", "c")]},
                max_steps=2,
            )
        assert excinfo.value.engine == "psn"

    def test_bare_string_passes_rejected(self):
        # Not iterated letter by letter into "unknown pass 'a'".
        with pytest.raises(PlanError, match="list of pass names from "
                           r"repro.PASSES \(magic, aggsel, localize\)"):
            api.compile(programs.shortest_path_safe(), passes="aggsel")

    def test_non_name_pass_entry_rejected(self):
        for passes in ([42], [None], ["aggsel", 3.5]):
            with pytest.raises(PlanError,
                               match="list of pass names from repro.PASSES"):
                api.compile(programs.shortest_path_safe(), passes=passes)

    def test_malformed_tuple_specifier_is_plan_error(self):
        # The retired (name, options) form must not leak a bare
        # ValueError or TypeError, nor be read as a pass list.
        for passes in (("aggsel", {}), [("aggsel", {})],
                       [("aggsel", {"pred": "path"}, True)],
                       [("aggsel", "path")]):
            with pytest.raises(PlanError,
                               match="list of pass names from repro.PASSES"):
                api.compile(programs.shortest_path_safe(), passes=passes)


# ----------------------------------------------------------------------
# The pass table
# ----------------------------------------------------------------------
class TestPassTable:
    def test_canonical_order(self):
        assert tuple(api.PASSES) == ("magic", "aggsel", "localize")

    def test_default_passes(self):
        assert api.DEFAULT_PASSES == ("aggsel",)
        assert repro.DEFAULT_PASSES is api.DEFAULT_PASSES
        assert repro.PASSES is api.PASSES


# ----------------------------------------------------------------------
# Pipeline equivalence: any enabled subset/order of the passes computes
# the default pipeline's fixpoint.
# ----------------------------------------------------------------------
class TestPipelineEquivalence:
    @pytest.mark.parametrize(
        "pipeline",
        [
            pipeline
            for k in range(len(api.PASSES) + 1)
            for pipeline in itertools.permutations(api.PASSES, k)
        ],
        ids=lambda pipeline: "+".join(pipeline) or "none",
    )
    def test_any_order_any_subset(self, pipeline, default_rows):
        assert shortest_path_rows(pipeline) == default_rows

    def test_engines_agree_on_compiled_program(self, default_rows):
        # The aggsel argmin view is PSN/BSN-only; the set-oriented
        # engines run the un-pruned pipeline.
        assert shortest_path_rows((), engine="seminaive") == default_rows
        assert shortest_path_rows((), engine="naive") == default_rows
        assert shortest_path_rows(("aggsel",), engine="bsn") == default_rows

    def test_magic_subsets_preserve_bound_query(self):
        source = """
        T1: tc(X, Y) :- edge(X, Y).
        T2: tc(X, Z) :- edge(X, Y), tc(Y, Z).
        Query: tc(a, Y).
        """
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y"), ("y", "a")]

        def answers(passes):
            compiled = api.compile(
                parse(source, name="tc_bound"), validate=False,
                passes=list(passes),
            )
            rows = compiled.run(engine="psn", facts={"edge": edges}).rows("tc")
            return frozenset(r for r in rows if r[0] == "a")

        baseline = answers([])
        assert baseline == {("a", "b"), ("a", "c"), ("a", "d")}
        for perm in itertools.permutations(("magic", "aggsel")):
            assert answers(perm) == baseline, perm
        # And magic actually restricted the computation.
        compiled = api.compile(
            parse(source), validate=False, passes=["magic"]
        )
        assert any("magic_tc" in p for p in compiled.program.predicates())

    def test_aggsel_orderings_on_unguarded_program(self):
        # Figure 1 without the cycle guard only terminates with
        # aggregate selections (Section 5.1.1); every ordering that
        # includes aggsel agrees.
        def rows(passes):
            compiled = api.compile(programs.shortest_path(),
                                   passes=list(passes))
            return compiled.run(
                engine="psn", facts={"link": FIGURE2_LINKS}
            ).rows("shortestPath")

        baseline = rows(["aggsel"])
        assert rows(["aggsel", "localize"]) == baseline
        assert rows(["localize", "aggsel"]) == baseline


# ----------------------------------------------------------------------
# explain()
# ----------------------------------------------------------------------
class TestExplain:
    def test_snapshot(self):
        """explain() output is pinned; regenerate the golden file with
        tests/data/regen_explain_snapshot.py when the format changes."""
        compiled = api.compile(
            programs.shortest_path_safe(), passes=["aggsel", "localize"]
        )
        golden = pathlib.Path(__file__).parent / "data" / \
            "shortest_path_safe_explain.txt"
        assert compiled.explain() == golden.read_text().rstrip("\n")

    def test_deterministic(self):
        one = api.compile(programs.shortest_path_safe()).explain()
        two = api.compile(programs.shortest_path_safe()).explain()
        assert one == two

    def test_sections_present(self):
        compiled = api.compile(
            programs.shortest_path_safe(), passes=["aggsel", "localize"]
        )
        text = compiled.explain()
        assert "-- pass aggsel" in text
        assert "-- pass localize" in text
        assert "-- rewritten program --" in text
        assert "-- join plans --" in text
        # Per-pass rule diff markers and plan step metadata.
        assert "\n  + " in text and "\n  - " in text
        assert "[probe" in text and "[scan]" in text

    def test_join_plans_optional(self):
        compiled = api.compile(programs.shortest_path_safe())
        assert "-- join plans --" not in compiled.explain(join_plans=False)


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
def figure2_overlay() -> Overlay:
    """The five-node network of Figure 2 as a deterministic overlay."""
    costs = {
        ("a", "b"): 5.0, ("a", "c"): 1.0, ("b", "c"): 1.0,
        ("b", "d"): 1.0, ("a", "e"): 1.0,
    }
    links = {
        pair: {"hopcount": 1.0, "latency": cost, "reliability": 1.0,
               "random": cost}
        for pair, cost in costs.items()
    }
    nodes = sorted({n for pair in links for n in pair})
    return Overlay(nodes=nodes, host={n: n for n in nodes}, links=links)


class TestDeployment:
    @pytest.fixture(scope="class")
    def deployment(self):
        compiled = api.compile(programs.shortest_path_safe())
        deployment = compiled.deploy(topology=figure2_overlay(),
                                     metric="latency")
        deployment.advance()
        return deployment

    def test_routes_match_figure2(self, deployment):
        rows = {(s, d): (p, c)
                for s, d, p, c in deployment.rows("shortestPath")}
        assert rows[("a", "b")] == (("a", "c", "b"), 2.0)
        assert deployment.quiescent

    def test_query_rows_is_query_predicate(self, deployment):
        assert deployment.query_rows() == deployment.rows("shortestPath")

    def test_explain_passthrough(self, deployment):
        assert "-- pass localize" in deployment.explain()

    def test_watch_and_subscribe(self):
        compiled = api.compile(programs.shortest_path_safe())
        deployment = compiled.deploy(topology=figure2_overlay())
        tracker = deployment.watch("shortestPath")
        commits = []
        unsubscribe = deployment.subscribe(
            "shortestPath", lambda t, fact, sign: commits.append(sign)
        )
        deployment.advance()
        assert commits and tracker.convergence_time() > 0.0
        count = len(commits)
        unsubscribe()
        deployment.update("a", "link", ("a", "b", 0.5))
        deployment.advance()
        assert len(commits) == count  # unsubscribed: no further callbacks

    def test_update_reroutes_incrementally(self):
        compiled = api.compile(programs.shortest_path_safe())
        deployment = compiled.deploy(topology=figure2_overlay())
        deployment.advance()
        # Cheapen the direct a-b link below the a-c-b detour...
        deployment.update("a", "link", ("a", "b", 0.5))
        deployment.advance()
        rows = {(s, d): (p, c)
                for s, d, p, c in deployment.rows("shortestPath")}
        assert rows[("a", "b")] == (("a", "b"), 0.5)

    @pytest.mark.parametrize("target", ["sim", "live"])
    def test_unknown_node_is_network_error(self, target):
        """deploy() returns the cluster itself, and every verb or reader
        that names a node it does not know raises the same
        NetworkError on either target (on live, before start() too)."""
        from repro.errors import NetworkError
        from repro.runtime import Cluster, LiveCluster

        assert repro.Deployment is repro.Cluster
        assert repro.LiveDeployment is LiveCluster
        compiled = api.compile(programs.shortest_path_safe())
        deployment = compiled.deploy(topology=figure2_overlay(),
                                     target=target)
        assert type(deployment) is {"sim": Cluster,
                                    "live": LiveCluster}[target]
        message = "unknown node 'nope'; this deployment has 5 nodes"
        for verb in (deployment.inject, deployment.update,
                     deployment.delete):
            with pytest.raises(NetworkError, match=message):
                verb("nope", "link", ("nope", "x", 1.0))
        with pytest.raises(NetworkError, match=message):
            deployment.rows("link", node="nope")
        with pytest.raises(NetworkError, match=message):
            deployment.node("nope")
        assert deployment.node("a") is deployment.nodes["a"]

    @pytest.mark.parametrize("target", ["sim", "live"])
    def test_config_is_the_effective_runtime_config(self, target):
        """Both targets answer ``.config`` with the RuntimeConfig in
        force, never the (possibly ``None``) constructor argument."""
        from repro.runtime import RuntimeConfig

        compiled = api.compile(programs.shortest_path_safe())
        plain = compiled.deploy(topology=figure2_overlay(), target=target)
        assert plain.config == RuntimeConfig()
        flagged = compiled.deploy(topology=figure2_overlay(), target=target,
                                  metrics=True)
        assert flagged.config == RuntimeConfig(metrics=True)
        if target == "live":
            assert flagged.converge(timeout=30.0)
            assert flagged.config.metrics

    def test_inject_and_delete_roundtrip(self):
        compiled = api.compile(programs.shortest_path_safe())
        deployment = compiled.deploy(topology=figure2_overlay())
        deployment.advance()
        before = deployment.rows("link", node="a")
        deployment.inject("a", "link", ("a", "z", 9.0))
        deployment.advance()
        assert ("a", "z", 9.0) in deployment.rows("link", node="a")
        deployment.delete("a", "link", ("a", "z", 9.0))
        deployment.advance()
        assert deployment.rows("link", node="a") == before

