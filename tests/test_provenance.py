"""Tests for the provenance subsystem: capture across all four engines,
why/why-not queries, distributed lineage (sim and live), the wire tag,
and the count/graph auditor."""

import random

import pytest

import repro
from repro.engine.database import Database
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.errors import PlanError
from repro.ndlog import programs
from repro.ndlog.pretty import format_derivation, format_why_not
from repro.net.live import decode_message, encode_message
from repro.net.message import Message, NetDelta
from repro.provenance import (
    ProvenanceStore,
    audit_engine,
    why,
    why_not,
)
from repro.topology import build_overlay, transit_stub

from interpreter import interpret

LINKS = [
    ("a", "b", 1), ("b", "c", 1), ("a", "c", 5), ("c", "d", 1),
    ("b", "d", 4),
]


def path_links(path, links=LINKS):
    """Independent reference recomputation: the base link facts a path
    vector rests on."""
    costs = {(a, b): c for a, b, c in links}
    return {
        ("link", (a, b, costs[(a, b)])) for a, b in zip(path, path[1:])
    }


def undirected_edges(pairs):
    return {frozenset(p) for p in pairs}


# ----------------------------------------------------------------------
# Centralized capture: all four engines
# ----------------------------------------------------------------------
class TestCentralWhy:
    @pytest.mark.parametrize("engine,passes,opts", [
        ("naive", [], {}),
        ("seminaive", [], {}),
        ("psn", ["aggsel"], {}),
        ("psn", ["aggsel"], {"batch_size": 8}),
        ("bsn", ["aggsel"], {"batch_size": 8}),
    ])
    def test_why_leaves_are_exactly_the_path_links(self, engine, passes,
                                                   opts):
        compiled = repro.compile(programs.shortest_path_safe(),
                                 passes=passes, provenance=True)
        result = compiled.run(engine=engine, facts={"link": LINKS}, **opts)
        for row in result.rows("shortestPath"):
            tree = result.why("shortestPath", row)
            assert tree is not None
            assert all(leaf.pred == "link" for leaf in tree.leaves())
            got = {(leaf.pred, leaf.args) for leaf in tree.leaves()}
            assert got == path_links(row[2]), row

    def test_tree_structure_carries_rules(self):
        compiled = repro.compile(programs.shortest_path_safe(),
                                 passes=["aggsel"], provenance=True)
        result = compiled.run(engine="psn", facts={"link": LINKS})
        row = next(r for r in result.rows("shortestPath")
                   if r[0] == "a" and r[1] == "d")
        tree = result.why("shortestPath", row)
        assert tree.rule == "SP4"
        child_rules = {child.rule for child in tree.children}
        assert "SP3" in child_rules          # the aggregate subtree
        text = format_derivation(tree)
        assert "SP4" in text and "(base)" in text
        assert "link(a, b, 1)" in text

    def test_why_unknown_fact_returns_none(self):
        compiled = repro.compile(programs.shortest_path_safe(),
                                 passes=["aggsel"], provenance=True)
        result = compiled.run(engine="psn", facts={"link": LINKS})
        assert result.why("shortestPath", ("a", "z", (), 0)) is None

    def test_why_base_fact_is_a_leaf(self):
        compiled = repro.compile(programs.shortest_path_safe(),
                                 passes=["aggsel"], provenance=True)
        result = compiled.run(engine="psn", facts={"link": LINKS})
        tree = result.why("link", ("a", "b", 1))
        assert tree.is_base and not tree.children

    def test_depth_cut_marks_truncation(self):
        compiled = repro.compile(programs.shortest_path_safe(),
                                 passes=["aggsel"], provenance=True)
        result = compiled.run(engine="psn", facts={"link": LINKS})
        row = next(r for r in result.rows("shortestPath")
                   if r[0] == "a" and r[1] == "d")
        tree = result.why("shortestPath", row, max_depth=2)
        flat = [tree]
        for node in flat:
            flat.extend(node.children)
        assert any(node.truncated for node in flat)

    def test_recompiling_artifact_never_mutates_it(self):
        base = repro.compile(programs.shortest_path_safe(),
                             passes=["aggsel"])
        armed = repro.compile(base, provenance=True)
        assert armed is not base and armed.provenance
        assert base.provenance is False
        disarmed = repro.compile(armed, provenance=False)
        assert disarmed is not armed and not disarmed.provenance
        assert armed.provenance
        # No flag change and no passes: the artifact passes through.
        assert repro.compile(armed) is armed

    def test_shared_recorder_across_engines_stays_clean(self):
        # naive's set-semantics capture must not leak into a later PSN
        # run sharing the same recorder, and PSN's clock binding must
        # not leak back either.
        recorder = ProvenanceStore().recorder()
        compiled = repro.compile(programs.shortest_path_safe(), passes=[])
        compiled.run(engine="naive", facts={"link": LINKS},
                     provenance=recorder)
        assert recorder.dedup is False and recorder.clock is None
        prog = repro.compile(programs.shortest_path_dynamic(),
                             passes=["aggsel"]).program
        engine = PSNEngine(prog, db=Database.for_program(prog),
                           provenance=ProvenanceStore().recorder())
        engine.insert("link", ("a", "b", 1))
        engine.insert("link", ("b", "c", 1))
        engine.run()
        engine.insert("link", ("a", "b", 1))   # duplicate: count bump
        engine.run()
        assert audit_engine(engine).ok

    def test_off_by_default_and_run_override(self):
        compiled = repro.compile(programs.shortest_path_safe(),
                                 passes=["aggsel"])
        result = compiled.run(engine="psn", facts={"link": LINKS})
        assert result.provenance is None
        with pytest.raises(PlanError):
            result.why("link", ("a", "b", 1))
        # Per-run override without recompiling.
        result = compiled.run(engine="psn", facts={"link": LINKS},
                              provenance=True)
        assert result.provenance is not None
        assert result.why("link", ("a", "b", 1)).is_base

    @pytest.mark.parametrize("generated", [True, False])
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_planned_interpreted_batched_graphs_identical(self, generated,
                                                          batch_size):
        """Generated kernels vs the tests' interpreter, and chunks of
        eight vs chunks of one, must record byte-identical derivation
        graphs."""
        prog = repro.compile(programs.shortest_path_safe(),
                             passes=["aggsel"]).program
        store = ProvenanceStore()
        db = Database.for_program(prog)
        db.load_facts("link", LINKS)
        engine = PSNEngine(prog, db=db, batch_size=batch_size,
                           provenance=store.recorder())
        if not generated:
            interpret(engine)
        engine.fixpoint()
        assert audit_engine(engine).ok
        graph = {
            (d.rule, d.head, d.body)
            for row in engine.db.table("path").rows()
            for d in store.derivations_of("path", row)
        }
        if not hasattr(type(self), "_reference_graph"):
            type(self)._reference_graph = graph
        assert graph == type(self)._reference_graph

    def test_engines_agree_on_derivation_graph_shape(self):
        """All engines record the same (rule, head, body) derivations for
        a stratified program (counts differ; the *graph* must not)."""
        def graph(engine, passes):
            compiled = repro.compile(programs.shortest_path_safe(),
                                     passes=passes, provenance=True)
            result = compiled.run(engine=engine, facts={"link": LINKS})
            edges = set()
            for pred in ("path", "shortestPath"):
                for row in result.rows(pred):
                    for d in result.provenance.derivations_of(pred, row):
                        edges.add((d.rule, d.head, tuple(d.body)))
            return edges

        reference = graph("psn", [])
        assert reference
        assert graph("naive", []) == reference
        assert graph("seminaive", []) == reference
        assert graph("bsn", []) == reference


# ----------------------------------------------------------------------
# why_not: failed-body analysis
# ----------------------------------------------------------------------
class TestWhyNot:
    def make_result(self):
        compiled = repro.compile(programs.shortest_path_safe(),
                                 passes=["aggsel"], provenance=True)
        return compiled.run(engine="psn", facts={"link": LINKS})

    def test_present_fact_short_circuits(self):
        result = self.make_result()
        report = result.why_not("link", ("a", "b", 1))
        assert report.present

    def test_base_fact_never_inserted(self):
        result = self.make_result()
        report = result.why_not("link", ("a", "z", 1))
        assert not report.present and report.is_base
        assert "never inserted" in format_why_not(report)

    def test_blocked_rule_names_the_missing_literal(self):
        result = self.make_result()
        # z is not a node: every rule for shortestPath is blocked.
        report = result.why_not("shortestPath", ("a", "z", None, None))
        assert not report.present and not report.is_base
        assert report.failures
        blocked = [f for f in report.failures if f.status == "blocked"]
        assert blocked
        # The nested analysis bottoms out at the missing link relation.
        text = format_why_not(report)
        assert "blocked on" in text
        assert "link" in text

    def test_wildcards_match_any_position(self):
        result = self.make_result()
        assert result.why_not("shortestPath", ("a", "d", None, None)).present

    def test_why_not_without_capture(self):
        compiled = repro.compile(programs.shortest_path_safe(),
                                 passes=["aggsel"])
        result = compiled.run(engine="psn", facts={"link": LINKS})
        report = result.why_not("shortestPath", ("a", "z", None, None))
        assert not report.present


# ----------------------------------------------------------------------
# The auditor as a regression oracle
# ----------------------------------------------------------------------
def interleaved_burst_engine(batch_size, seed=42, ops=120):
    prog = repro.compile(programs.shortest_path_dynamic(),
                         passes=["aggsel"]).program
    store = ProvenanceStore()
    engine = PSNEngine(prog, db=Database.for_program(prog),
                       batch_size=batch_size, provenance=store.recorder())
    rng = random.Random(seed)
    nodes = ["a", "b", "c", "d", "e"]
    state = {}
    for _ in range(ops):
        a, b = rng.sample(nodes, 2)
        if (a, b) in state and rng.random() < 0.4:
            engine.delete("link", (a, b, state.pop((a, b))))
        else:
            cost = rng.randint(1, 5)
            state[(a, b)] = cost
            engine.update("link", (a, b, cost))
        if rng.random() < 0.3:
            engine.run()
    engine.run()
    return engine


class TestAuditor:
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_zero_mismatches_under_interleaved_bursts(self, batch_size):
        engine = interleaved_burst_engine(batch_size)
        report = audit_engine(engine)
        assert report.ok, report.mismatches[:5]
        assert report.checked > 0
        if batch_size > 1:
            # The oracle exercised the cancellation path, not just the
            # reference path.
            assert engine.cancelled > 0

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 64])
    def test_unnetted_link_flaps_keep_rederived_support(self, batch_size):
        """A transient link (queued ``+link, +link, -link, -link``)
        flips ``spCost`` away and back, so the queue holds ``-F ... +F``
        for some ``shortestPath`` facts: committing ``-F`` (a counted
        delete, already decremented by its own ``-1`` firing) must not
        wipe the support the queued ``+F`` firing recorded.  Only a
        chunk that holds all four intents nets the flap away."""
        rng = random.Random(5)
        nodes = [f"v{i}" for i in range(8)]
        pairs = {tuple(sorted((nodes[i], nodes[(i + 1) % 8])))
                 for i in range(8)}
        pairs |= {tuple(sorted((nodes[i], nodes[(i + 3) % 8])))
                  for i in range(0, 8, 2)}
        program = programs.shortest_path_safe()
        db = Database.for_program(program)
        for a, b in sorted(pairs):
            cost = rng.randint(1, 10)
            db.load_facts("link", [(a, b, cost), (b, a, cost)])
        engine = PSNEngine(program, db=db, batch_size=batch_size,
                           provenance=ProvenanceStore().recorder())
        engine.fixpoint()
        absent = [(a, b) for a in nodes for b in nodes
                  if a < b and (a, b) not in pairs]
        for a, b in rng.sample(absent, 4):
            for weight in (1, -1):
                engine.derive(Fact("link", (a, b, 3)), weight)
                engine.derive(Fact("link", (b, a, 3)), weight)
        engine.run()
        report = audit_engine(engine)
        assert report.ok, report.mismatches[:5]

    def test_batched_and_reference_paths_agree(self):
        counts = []
        for batch_size in (1, 16):
            engine = interleaved_burst_engine(batch_size)
            counts.append({
                pred: {args: table.count(args) for args in table.rows()}
                for pred, table in engine.db.tables.items()
            })
        assert counts[0] == counts[1]

    def test_auditor_detects_a_seeded_undercount(self):
        engine = interleaved_burst_engine(1)
        table = engine.db.table("path")
        args = next(iter(table.rows()))
        table.force_delete(args)   # tamper: the graph still supports it
        report = audit_engine(engine)
        assert not report.ok
        assert any(m.kind == "orphan" and m.fact == Fact("path", args)
                   for m in report.mismatches)

    def test_auditor_detects_a_seeded_overcount(self):
        engine = interleaved_burst_engine(1)
        table = engine.db.table("path")
        args = next(iter(table.rows()))
        table.insert(args)         # tamper: an unexplained extra count
        report = audit_engine(engine)
        assert not report.ok
        assert any(m.kind == "count" for m in report.mismatches)

    def test_audit_requires_capture(self):
        prog = repro.compile(programs.shortest_path_dynamic(),
                             passes=["aggsel"]).program
        engine = PSNEngine(prog, db=Database.for_program(prog))
        with pytest.raises(ValueError):
            audit_engine(engine)


# ----------------------------------------------------------------------
# Distributed lineage: simulator
# ----------------------------------------------------------------------
def sim_deployment(n_nodes=10, seed=5):
    compiled = repro.compile(programs.shortest_path_dynamic(),
                             passes=["aggsel", "localize"], provenance=True)
    overlay = build_overlay(transit_stub(seed=seed), n_nodes=n_nodes,
                            degree=3, seed=seed)
    deployment = compiled.deploy(topology=overlay,
                                 link_loads={"link": "hopcount"})
    return deployment, overlay


class TestDistributedProvenance:
    def test_why_traces_across_nodes(self):
        deployment, overlay = sim_deployment()
        deployment.advance()
        rows = sorted(deployment.query_rows())
        assert rows
        multi_hop = [r for r in rows if len(r[2]) > 2]
        assert multi_hop, "need a multi-hop route to prove cross-node lineage"
        for row in rows:
            tree = deployment.why("shortestPath", row)
            assert tree is not None
            leaves = tree.leaves()
            assert all(leaf.pred == "link" for leaf in leaves)
            # The localized rules legitimately consult both directions
            # of each physical link (one to join, one to route the head
            # back), so the reference check compares undirected edges.
            got = undirected_edges(
                (leaf.args[0], leaf.args[1]) for leaf in leaves
            )
            expected = undirected_edges(zip(row[2], row[2][1:]))
            assert got == expected, row
        # Multi-hop derivations involve strands at several nodes.
        tree = deployment.why("shortestPath", multi_hop[0])
        nodes_in_tree = set()
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.node is not None:
                nodes_in_tree.add(node.node)
            stack.extend(node.children)
        assert len(nodes_in_tree) >= 2

    def test_remote_deltas_carry_the_wire_tag(self):
        deployment, _overlay = sim_deployment()
        deployment.advance()
        store = deployment.provenance
        assert store.arrivals, "no provenance tags crossed the network"
        for arrival in list(store.arrivals)[:50]:
            derivation = store.derivation(arrival.prov_id)
            assert derivation is not None
            assert derivation.head == arrival.fact
            assert derivation.node != arrival.node

    def test_audit_clean_after_convergence_and_link_failure(self):
        deployment, overlay = sim_deployment()
        deployment.advance()
        assert deployment.audit().ok
        a, b, cost = overlay.link_rows("hopcount")[0]
        deployment.delete(a, "link", (a, b, cost))
        deployment.delete(b, "link", (b, a, cost))
        deployment.advance()
        report = deployment.audit()
        assert report.ok, report.mismatches[:5]
        assert report.strict

    def test_why_not_diagnoses_a_partitioned_destination(self):
        deployment, overlay = sim_deployment(n_nodes=8, seed=11)
        deployment.advance()
        victim = sorted(overlay.nodes)[-1]
        # Sever every link touching the victim: it becomes unreachable.
        for x, y, cost in overlay.link_rows("hopcount"):
            if victim in (x, y):
                deployment.delete(x, "link", (x, y, cost))
        deployment.advance()
        source = next(n for n in overlay.nodes if n != victim)
        assert not any(
            r[0] == source and r[1] == victim
            for r in deployment.query_rows()
        )
        report = deployment.why_not(
            "shortestPath", (source, victim, None, None))
        assert not report.present
        text = format_why_not(report)
        assert "blocked on" in text

    def test_deploy_without_capture_raises_on_why(self):
        compiled = repro.compile(programs.shortest_path_dynamic(),
                                 passes=["aggsel", "localize"])
        overlay = build_overlay(transit_stub(seed=5), n_nodes=6, degree=3,
                                seed=5)
        deployment = compiled.deploy(topology=overlay,
                                     link_loads={"link": "hopcount"})
        deployment.advance()
        assert deployment.provenance is None
        with pytest.raises(PlanError):
            deployment.why("shortestPath", ("n0", "n1", (), 1))
        # why_not needs no capture.
        report = deployment.why_not("shortestPath", ("n0", "n0", None, None))
        assert not report.present


# ----------------------------------------------------------------------
# Distributed lineage: live target (acceptance: sim AND live)
# ----------------------------------------------------------------------
class TestLiveProvenance:
    def test_live_inproc_why_and_audit(self):
        compiled = repro.compile(programs.shortest_path_dynamic(),
                                 passes=["aggsel", "localize"],
                                 provenance=True)
        overlay = build_overlay(transit_stub(seed=7), n_nodes=8, degree=3,
                                seed=7)
        config = repro.RuntimeConfig(cpu_delay=2e-4)
        deployment = compiled.deploy(
            topology=overlay, config=config,
            link_loads={"link": "hopcount"},
            target="live", channels="inproc",
        )
        assert deployment.converge(timeout=60.0)
        rows = sorted(deployment.query_rows())
        assert rows
        for row in rows:
            tree = deployment.why("shortestPath", row)
            assert tree is not None
            got = undirected_edges(
                (leaf.args[0], leaf.args[1]) for leaf in tree.leaves()
            )
            assert got == undirected_edges(zip(row[2], row[2][1:])), row
        report = deployment.audit()
        assert report.ok, report.mismatches[:5]
        assert deployment.provenance.arrivals


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWireTag:
    def test_prov_round_trips_and_defaults_to_none(self):
        message = Message(src="a", dst="b", deltas=(
            NetDelta("path", ("a", "b", ("a", "b"), 1), 1, prov=42),
            NetDelta("link", ("a", "b", 1), -1),
        ))
        decoded = decode_message(encode_message(message))
        assert decoded.deltas[0].prov == 42
        assert decoded.deltas[1].prov is None
        assert decoded.deltas == message.deltas

    def test_prov_is_metadata_not_identity(self):
        # Equality and the byte model ignore the tag: provenance must
        # not perturb netting, dedup, or the traffic figures.
        assert NetDelta("p", ("a",), 1, prov=7) == NetDelta("p", ("a",), 1)
        assert (NetDelta("p", ("a",), 1, prov=7).payload_size()
                == NetDelta("p", ("a",), 1).payload_size())

    def test_wire_layout_unchanged_without_provenance(self):
        message = Message(src="a", dst="b",
                          deltas=(NetDelta("link", ("a", "b", 1), 1),))
        assert b"42" not in encode_message(message)
        raw = encode_message(message)
        assert b'"t":[["link",1,["a","b",1]]]' in raw


# ----------------------------------------------------------------------
# Store internals
# ----------------------------------------------------------------------
class TestStore:
    def test_interning_merges_duplicate_derivations(self):
        store = ProvenanceStore()
        head = Fact("p", ("x",))
        body = (Fact("q", ("x",)),)
        first = store.record("r1", head, body, 1)
        second = store.record("r1", head, body, 1)
        assert first == second
        assert store.live_support(head) == 2
        assert len(store.live_records(head)) == 1

    def test_minus_decrements_and_floors(self):
        store = ProvenanceStore()
        head = Fact("p", ("x",))
        body = (Fact("q", ("x",)),)
        store.record("r1", head, body, 1)
        store.record("r1", head, body, -1)
        assert store.live_support(head) == 0
        store.record("r1", head, body, -1)
        assert store.floored == 1

    def test_retract_fact_spares_view_heads(self):
        store = ProvenanceStore()
        store.view_preds.add("spCost")
        view_fact = Fact("spCost", ("a", "b", 1))
        plain_fact = Fact("path", ("a", "b", 1))
        store.record("SP3", view_fact, (plain_fact,), 1)
        store.record("SP2", plain_fact, (), 1)
        store.retract_fact(view_fact)
        store.retract_fact(plain_fact)
        assert store.live_support(view_fact) == 1
        assert store.live_support(plain_fact) == 0

    def test_why_prefers_context_coherent_alternatives(self):
        # Two equal-valued contributions support the same aggregate
        # output; the tree must follow the witness its sibling joined.
        store = ProvenanceStore()
        store.view_preds.add("best")
        out = Fact("best", ("d", 2))
        via_b = Fact("route", ("d", "b", 2))
        via_c = Fact("route", ("d", "c", 2))
        store.record("AGG", out, (via_b,), 1)
        store.record("AGG", out, (via_c,), 1)
        store.record("R", Fact("ans", ("d", "b", 2)), (out, via_b), 1)
        tree = why(store, "ans", ("d", "b", 2))
        agg_child = next(c for c in tree.children if c.fact == out)
        assert agg_child.children[0].fact == via_b
        assert agg_child.alternatives == 2
