"""The observability layer (:mod:`repro.obs`): metrics registry,
delta-propagation tracing, profiling hooks -- and the satellite
contracts that ride with it (weight-aware commit observation, traffic
time-series helpers, fault trace events, sim-vs-live equivalence)."""

import json

import pytest

import repro
from repro.chaos import ChaosSchedule
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.errors import PlanError
from repro.ndlog import parse, programs
from repro.net.live import decode_message, encode_message
from repro.net.message import Message, NetDelta, coalesce
from repro.net.stats import ResultTracker, TrafficStats
from repro.obs import MetricsRegistry, Profiler, Tracer
from repro.obs.__main__ import main as obs_cli
from repro.opt.costbased import StatsCatalog
from repro.runtime import RuntimeConfig
from repro.topology import build_overlay, transit_stub
from repro.topology.overlay import Overlay


# ----------------------------------------------------------------------
# Shared fixtures: a directed-line reachability deployment
# ----------------------------------------------------------------------
#: Directed reachability whose every fact has exactly ONE derivation:
#: R2's body is single-site at the predecessor @Z and the head ships
#: along the (directed) link to @S.  With link facts injected in one
#: direction only there are no alternate paths, so commit attribution,
#: counter totals and span graphs are identical on every target.
DIRECTED_REACH = """
materialize(link, infinity, infinity, keys(1,2)).
materialize(reach, infinity, infinity, keys(1,2)).
R1: reach(@S, @D) :- #link(@S, @D, C).
R2: reach(@S, @D) :- #link(@Z, @S, C), reach(@Z, @D).
Query: reach(@S, @D).
"""

LINE_N = 4


def line_overlay(n=LINE_N):
    names = [f"n{i}" for i in range(n)]
    links = {
        (names[i], names[i + 1]): {"latency": 10.0, "hopcount": 1.0}
        for i in range(n - 1)
    }
    return Overlay(nodes=names, host={name: "h" for name in names},
                   links=links)


def deploy_line(**kwargs):
    """Sim deployment of the directed line; link facts injected one
    direction only (link_loads={} keeps the symmetric auto-load off)."""
    compiled = repro.compile(DIRECTED_REACH, name="dreach")
    deployment = compiled.deploy(topology=line_overlay(), link_loads={},
                                 **kwargs)
    for i in range(LINE_N - 1):
        deployment.inject(f"n{i}", "link", (f"n{i}", f"n{i+1}", 1.0))
    return deployment


@pytest.fixture
def observed():
    deployment = deploy_line(metrics=True, trace=True, profile=True)
    deployment.advance()
    return deployment


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_snapshot_rule_and_relation_counters(self, observed):
        snap = observed.metrics()
        totals = snap.rule_totals()
        # R1 fires once per link fact; R2 once per upstream reach fact.
        assert totals["R1"]["inferences"] == 3
        assert totals["R2"]["inferences"] == 6
        relations = snap.relation_totals()
        assert relations["link"]["commits"] == 3
        assert relations["reach"]["commits"] == 9
        assert relations["reach"]["rows"] == 9
        assert relations["reach"]["retractions"] == 0

    def test_snapshot_node_gauges(self, observed):
        snap = observed.metrics()
        assert set(snap.nodes) == {f"n{i}" for i in range(LINE_N)}
        for counts in snap.nodes.values():
            assert counts["queue_depth"] == 0  # quiescent
            assert counts["steps"] >= counts["netted"]
        # Every node that processed anything saw a queue-depth peak.
        assert any(c["queue_peak"] > 0 for c in snap.nodes.values())

    def test_transport_counters_track_wire(self, observed):
        snap = observed.metrics()
        assert snap.transport["messages"] == observed.stats.messages
        assert snap.transport["bytes"] == observed.stats.total_bytes()
        assert snap.transport["netdeltas_shipped"] == 6

    def test_counter_totals_excludes_gauges(self, observed):
        totals = observed.metrics().counter_totals()
        assert not any(key.startswith("queue") for key in totals)
        assert totals["messages"] == observed.stats.messages
        assert totals["commits:n3:reach"] == 3

    def test_prometheus_exposition(self, observed):
        text = observed.metrics_text()
        assert '# TYPE ndlog_rule_firings_total counter' in text
        assert 'ndlog_rule_firings_total{node="n0",rule="R1"} 1' in text
        assert 'ndlog_commits_total{node="n3",relation="reach"} 3' in text
        assert '# TYPE ndlog_table_rows gauge' in text
        assert 'ndlog_transport{counter="messages"}' in text
        assert text.endswith("\n")

    def test_metrics_off_raises_planerror(self):
        deployment = deploy_line()
        deployment.advance()
        with pytest.raises(PlanError, match="metrics=True"):
            deployment.metrics()
        with pytest.raises(PlanError, match="metrics=True"):
            deployment.metrics_text()

    def test_view_changes_counted_for_aggregates(self):
        overlay = build_overlay(transit_stub(seed=2), n_nodes=12,
                                degree=3, seed=2)
        compiled = repro.compile(programs.shortest_path())
        deployment = compiled.deploy(
            topology=overlay,
            config=RuntimeConfig(aggregate_selections=True, metrics=True),
            link_loads={"link": "hopcount"},
        )
        deployment.advance()
        totals = deployment.metrics().relation_totals()
        changed = [pred for pred, counts in totals.items()
                   if counts["view_changes"]]
        assert changed  # the aggsel view emitted group transitions

    def test_link_retransmits_under_loss(self):
        deployment = deploy_line(
            metrics=True,
            config=RuntimeConfig(loss_rate=0.4, seed=7),
            reliable=True,
        )
        deployment.advance()
        snap = deployment.metrics()
        assert snap.links  # per-(src, dst) retransmit counters
        assert sum(snap.links.values()) == deployment.stats.retransmits
        text = snap.to_prometheus()
        assert "ndlog_link_retransmits_total{src=" in text

    def test_refresh_stats_feeds_catalogs(self, observed):
        observed.refresh_stats()
        node = observed.nodes["n1"]
        catalog = node.stats_catalog
        assert catalog.table_rows("reach") == float(
            len(node.db.tables["reach"])
        )
        assert catalog.churn_of("reach") > 0
        assert catalog.churn_of("never_seen") == 0.0


class TestStatsCatalogRefresh:
    def test_refresh_is_incremental(self):
        catalog = StatsCatalog({"a": 10.0})
        catalog.refresh(sizes={"b": 5}, churn={"b": 2})
        assert catalog.table_rows("a") == 10.0
        assert catalog.table_rows("b") == 5.0
        assert catalog.churn_of("b") == 2.0
        catalog.refresh(churn={"b": 7})
        assert catalog.churn_of("b") == 7.0
        assert catalog.table_rows("b") == 5.0


# ----------------------------------------------------------------------
# Satellite: weight-aware commit observation
# ----------------------------------------------------------------------
class TestWeightedCommits:
    def test_tracker_counts_weighted_bursts(self):
        tracker = ResultTracker(watch_pred="out")
        fact = Fact("out", (1,))
        tracker.on_commit(1.0, fact, 3)
        assert tracker.committed_weight == 3
        assert tracker.last_insert[(1,)] == 1.0
        tracker.on_commit(2.0, fact, -3)
        assert tracker.retracted_weight == 3
        assert (1,) not in tracker.last_insert
        # Sign-only callers (the historical contract) still work.
        tracker.on_commit(3.0, fact, 1)
        assert tracker.committed_weight == 4

    def test_tracker_ignores_other_predicates(self):
        tracker = ResultTracker(watch_pred="out")
        tracker.on_commit(1.0, Fact("other", (1,)), 5)
        assert tracker.committed_weight == 0

    def test_engine_reports_burst_weight_not_one(self):
        program = parse(
            "materialize(out, infinity, infinity, keys(1)).\n"
            "r: out(X) :- seed(X).\n"
        )
        events = []
        engine = PSNEngine(
            program, on_commit=lambda fact, weight: events.append(
                (fact.pred, fact.args, weight))
        )
        fact = Fact("out", (1,))
        engine.derive(fact, 3)
        engine.fixpoint()
        assert ("out", (1,), 3) in events
        # run(), not fixpoint(): fixpoint re-seeds existing rows, which
        # is the from-scratch driver; incremental deltas after
        # convergence drain through the plain queue.
        engine.derive(fact, -3)
        engine.run()
        assert ("out", (1,), -3) in events

    def test_subscribe_delivers_weights(self):
        deployment = deploy_line()
        seen = []
        deployment.subscribe(
            "reach", lambda now, fact, weight: seen.append(weight))
        deployment.advance()
        assert len(seen) == 9
        assert all(weight == 1 for weight in seen)


# ----------------------------------------------------------------------
# Satellite: TrafficStats time-series helpers
# ----------------------------------------------------------------------
class TestTrafficSeries:
    def test_per_node_kbps_bin_edges(self):
        stats = TrafficStats()
        stats.record(0.0, "a", 250)      # bin 0 [0, 0.25)
        stats.record(0.25, "a", 500)     # exactly on the edge -> bin 1
        stats.record(0.49, "a", 250)     # still bin 1
        series = stats.per_node_kbps_series(node_count=1, bin_seconds=0.25)
        assert [t for t, _ in series] == [0.25, 0.5]
        # bin 0: 250 B / 0.25 s = 1 kB/s; bin 1: 750 B / 0.25 s = 3 kB/s.
        assert [kbps for _, kbps in series] == [1.0, 3.0]

    def test_last_bin_clamps_late_records(self):
        stats = TrafficStats()
        stats.record(0.9, "a", 100)
        series = stats.per_node_kbps_series(
            node_count=1, bin_seconds=0.25, until=0.5
        )
        # end is max(until, last record) -> the 0.9 s record defines
        # the range and lands in its own (final) bin.
        assert series[-1][0] == 1.0
        assert series[-1][1] == pytest.approx(100 / 0.25 / 1e3)

    def test_empty_records_with_until_yields_zero_bins(self):
        stats = TrafficStats()
        assert stats.per_node_kbps_series(node_count=3) == []
        series = stats.per_node_kbps_series(
            node_count=3, bin_seconds=0.5, until=1.0
        )
        assert [t for t, _ in series] == [0.5, 1.0, 1.5]
        assert all(kbps == 0.0 for _, kbps in series)

    def test_bytes_between_boundaries(self):
        stats = TrafficStats()
        stats.record(1.0, "a", 10)
        stats.record(2.0, "a", 20)
        stats.record(3.0, "a", 40)
        # Inclusive start, exclusive end.
        assert stats.bytes_between(1.0, 3.0) == 30
        assert stats.bytes_between(1.0, 3.0001) == 70
        assert stats.bytes_between(0.0, 1.0) == 0
        assert stats.bytes_between(3.0, 3.0) == 0


# ----------------------------------------------------------------------
# Delta-propagation tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_span_kinds_cover_the_delta_lifecycle(self, observed):
        kinds = {event.kind for event in observed.tracer.events}
        assert {"inject", "derive", "ship", "receive", "commit"} <= kinds

    def test_trace_links_injection_to_remote_commits(self, observed):
        tracer = observed.tracer
        trace = tracer.trace_of("link", ("n0", "n1", 1.0))
        assert trace is not None
        spans = tracer.span_graph()[trace]
        commits = [s for s in spans if s[0] == "commit"]
        # The injected link commits at n0 and its reach consequences
        # propagate (and commit) down the whole line.
        nodes = {s[1] for s in commits}
        assert "n0" in nodes and "n3" in nodes
        ships = [s for s in spans if s[0] == "ship"]
        receives = [s for s in spans if s[0] == "receive"]
        assert len(ships) == len(receives) > 0

    def test_chrome_export_pairs_flows(self, observed, tmp_path):
        path = tmp_path / "trace.json"
        observed.save_trace(str(path))
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        process_names = {
            ev["args"]["name"] for ev in events
            if ev.get("ph") == "M" and ev["name"] == "process_name"
        }
        assert {f"n{i}" for i in range(LINE_N)} <= process_names
        starts = [ev for ev in events if ev.get("ph") == "s"]
        finishes = [ev for ev in events if ev.get("ph") == "f"]
        assert len(starts) == len(finishes) > 0
        assert sorted(ev["id"] for ev in starts) == \
            sorted(ev["id"] for ev in finishes)

    def test_cli_summarize_and_render(self, observed, tmp_path, capsys):
        path = tmp_path / "trace.json"
        observed.save_trace(str(path))
        assert obs_cli([str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans by kind" in out
        assert "commit" in out
        trace = observed.tracer.trace_of("link", ("n0", "n1", 1.0))
        assert obs_cli([str(path), "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"trace {trace}:" in out
        assert "ship" in out

    def test_trace_off_raises_planerror(self):
        deployment = deploy_line()
        deployment.advance()
        assert deployment.tracer is None
        with pytest.raises(PlanError, match="trace=True"):
            deployment.save_trace("/tmp/never-written.json")

    def test_fault_injections_become_trace_events(self):
        deployment = deploy_line(
            trace=True, chaos=ChaosSchedule(seed=5).drop(rate=0.3),
            reliable=True,
        )
        deployment.advance()
        faults = [event for event in deployment.tracer.events
                  if event.kind.startswith("fault:")]
        assert faults
        assert all(event.trace is None for event in faults)
        assert deployment.stats.faults_injected

    def test_watchdog_teardown_becomes_trace_event(self, observed):
        observed.cluster.fail_link("n0", "n1")
        kinds = [event.kind for event in observed.tracer.events]
        assert "link_teardown" in kinds

    KV = """
    materialize(kv, infinity, infinity, keys(1)).
    materialize(out, infinity, infinity, keys(1, 2)).
    KV1: out(@K, V) :- #kv(@K, V).
    """

    def traced_engine(self, batch_size):
        tracer = Tracer(lambda: 0.0)
        engine = PSNEngine(parse(self.KV), batch_size=batch_size,
                           tracer=tracer.recorder("c"))

        def spans():
            return {(e.trace, e.kind, e.pred, e.args, e.weight)
                    for e in tracer.events}

        return engine, spans

    def test_folded_intent_keeps_first_trace_and_the_rest_end_in_net(self):
        """Queue rows are plain tuples; netting still rebuilds the
        folded row with the slot's first trace id, and every intent it
        absorbed or annihilated ends its trace in a ``net`` span."""
        engine, spans = self.traced_engine(8)
        engine.insert("kv", ("a", 1))                # trace 1
        engine.insert("kv", ("a", 1))                # trace 2: folds into 1
        engine.insert("kv", ("b", 2))                # trace 3: annihilated
        engine.derive(Fact("kv", ("b", 2)), -1)      # untraced withdrawal
        engine.run()
        assert engine.cancelled == 3
        assert engine.db.table("kv").count(("a", 1)) == 2
        assert {span for span in spans() if span[1] != "inject"} == {
            (2, "net", "kv", ("a", 1), 1),
            (3, "net", "kv", ("b", 2), 1),
            (1, "commit", "kv", ("a", 1), 2),
            (1, "derive", "out", ("a", 1), 1),
            (1, "commit", "out", ("a", 1), 1),
        }

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_replacement_retraction_is_traced_to_its_replacer(
            self, batch_size):
        """Two key replacements in one run: each displaced row's
        retraction -- its ``commit``, its ``-1`` firing's ``derive`` --
        runs under the trace of the delta that replaced *it*, not the
        run's last, and a fresh row beside them keeps its own."""
        engine, spans = self.traced_engine(batch_size)
        engine.insert("kv", ("k", 1))                # trace 1
        engine.insert("kv", ("m", 3))                # trace 2
        engine.run()
        engine.insert("kv", ("j", 5))                # trace 3
        engine.insert("kv", ("k", 2))                # trace 4 replaces k
        engine.insert("kv", ("m", 4))                # trace 5 replaces m
        engine.run()
        assert {span for span in spans() if span[1] == "derive"} == {
            (1, "derive", "out", ("k", 1), 1),
            (2, "derive", "out", ("m", 3), 1),
            (3, "derive", "out", ("j", 5), 1),
            (4, "derive", "out", ("k", 1), -1),
            (4, "derive", "out", ("k", 2), 1),
            (5, "derive", "out", ("m", 3), -1),
            (5, "derive", "out", ("m", 4), 1),
        }
        assert {span for span in spans()
                if span[1:3] == ("commit", "kv") and span[4] < 0} == {
            (4, "commit", "kv", ("k", 1), -1),
            (5, "commit", "kv", ("m", 3), -1),
        }

    def test_a_runs_retractions_commit_ahead_of_its_insertions(self):
        """``on_commit`` sees a run as the batch it is: the displaced
        rows leave, then the new rows arrive (chunks of one interleave
        them; per fact the net of signs is the same)."""
        def commits(batch_size):
            log = []
            engine = PSNEngine(
                parse(self.KV), batch_size=batch_size,
                on_commit=lambda fact, weight: fact.pred == "kv"
                and log.append((weight, fact.args)))
            engine.inject_run("kv", [("k", 1), ("m", 3)])
            engine.run()
            del log[:]
            engine.inject_run("kv", [("j", 5), ("k", 2), ("m", 4)])
            engine.run()
            return log

        assert commits(8) == [(-1, ("k", 1)), (-1, ("m", 3)),
                              (1, ("j", 5)), (1, ("k", 2)), (1, ("m", 4))]
        assert commits(1) == [(1, ("j", 5)), (-1, ("k", 1)), (1, ("k", 2)),
                              (-1, ("m", 3)), (1, ("m", 4))]


# ----------------------------------------------------------------------
# The observer seam itself (repro.obs.observer)
# ----------------------------------------------------------------------
class RecordingObserver:
    """Stands in for an engine's observer: every event, flattened to
    one entry per row so runs of different lengths compare equal."""

    traced = timed = metered = True

    def __init__(self):
        self.events = []
        self.inferred = {}
        self.minted = 0

    def inject(self, pred, rows, weight):
        traces = range(self.minted + 1, self.minted + 1 + len(rows))
        self.minted += len(rows)
        self.events += [("inject", pred, args, weight, trace)
                        for args, trace in zip(rows, traces)]
        return traces

    def derive(self, pred, heads, sign, traces):
        assert len(heads) == len(traces)
        self.events += [("derive", pred, head, sign, trace)
                        for head, trace in zip(heads, traces)]

    def renew(self, pred, rows):
        self.events += [("renew", pred, row[1], row[2], row[5])
                        for row in rows]

    def span(self, kind, pred, args, weight, trace):
        assert kind in ("net", "derive")
        self.events.append((kind, pred, args, weight, trace))

    def commit(self, pred, args, weight, trace):
        self.events.append(("commit", pred, args, weight, trace))

    def fire(self, rule, driver, inferences, seconds):
        assert seconds >= 0.0
        key = (rule, driver)
        self.inferred[key] = self.inferred.get(key, 0) + inferences

    def commit_signs(self):
        signs = {}
        for kind, pred, args, weight, _trace in self.events:
            if kind == "commit":
                signs.setdefault((pred, args), []).append(
                    1 if weight > 0 else -1)
        return signs


class TestObserverSeam:
    #: Three rules, every derived fact with exactly one derivation, and
    #: a soft ``edge`` table so a re-insertion is a renewal.
    THREE_RULES = """
    materialize(edge, 10, infinity, keys(1, 2)).
    materialize(hop, infinity, infinity, keys(1, 2)).
    materialize(back, infinity, infinity, keys(1, 2)).
    materialize(two, infinity, infinity, keys(1, 2, 3)).
    S1: hop(X, Y) :- edge(X, Y).
    S2: back(Y, X) :- edge(X, Y).
    S3: two(X, Y, Z) :- hop(X, Y), edge(Y, Z).
    """
    EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
             ("a", "c"), ("c", "e"), ("b", "d"), ("d", "a")]

    def observed_run(self, batch_size):
        engine = PSNEngine(parse(self.THREE_RULES), batch_size=batch_size)
        assert engine.observer is None
        fake = engine.observer = RecordingObserver()
        engine.inject_run("edge", self.EDGES)
        engine.run()
        engine.inject_run("edge", self.EDGES[:3])       # renewals
        engine.run()
        engine.delete("edge", ("a", "b"))
        engine.delete("edge", ("d", "e"))
        engine.run()
        assert engine.db.table("edge").renewals == 3
        return fake

    @pytest.mark.parametrize("batch_size", [7, 64])
    def test_every_batch_size_raises_the_same_events(self, batch_size):
        reference = self.observed_run(1)
        got = self.observed_run(batch_size)
        assert sorted(got.events) == sorted(reference.events)
        assert got.commit_signs() == reference.commit_signs()
        assert got.inferred == reference.inferred
        kinds = {event[0] for event in reference.events}
        assert kinds == {"inject", "derive", "renew", "commit"}
        assert set(reference.inferred) == {
            ("S1", "edge"), ("S2", "edge"), ("S3", "hop"), ("S3", "edge")}

    def test_each_head_of_a_run_carries_its_own_drivers_trace(self):
        """One firing over several driving rows: the kernel fills one
        ``out``, and every head still leaves under the trace of the row
        that derived it -- on the queue and on the wire."""
        tracer = Tracer(lambda: 0.0)
        engine = PSNEngine(parse(TestTracing.KV), batch_size=8,
                           tracer=tracer.recorder("c"))
        rows = [("a", 1), ("b", 2), ("c", 3)]
        engine.inject_run("kv", rows)
        engine.run()
        assert engine.steps == 6  # two chunks: the run, then its heads
        derived = {(e.trace, e.args) for e in tracer.events
                   if e.kind == "derive"}
        assert derived == {(tracer.trace_of("kv", row), row) for row in rows}

        names = ["n0", "n1", "n2", "n3"]
        star = Overlay(
            nodes=names, host={name: "h" for name in names},
            links={("n0", name): {"latency": 10.0, "hopcount": 1.0}
                   for name in names[1:]})
        deployment = repro.compile(DIRECTED_REACH, name="dreach").deploy(
            topology=star, link_loads={}, trace=True,
            config=RuntimeConfig(cpu_batch=16))
        for name in names[1:]:
            deployment.inject("n0", "link", ("n0", name, 1.0))
        deployment.advance()
        assert len(deployment.rows("reach")) == 12
        trace_of = {name: deployment.tracer.trace_of(
            "link", ("n0", name, 1.0)) for name in names[1:]}
        assert len(set(trace_of.values())) == 3
        reach = [e for e in deployment.tracer.events if e.pred == "reach"]
        assert {e.kind for e in reach} == {
            "derive", "ship", "receive", "commit"}
        # reach(@S, @D) descends from link(n0, D) alone.
        assert all(e.trace == trace_of[e.args[1]] for e in reach)

    def test_unwatched_nodes_hold_none_until_the_first_listener(self):
        from repro.runtime import SoftStateManager

        def nodes_of(deployment):
            return deployment.nodes.values()

        watched = deploy_line()
        assert all(node.observer is None for node in nodes_of(watched))
        watched.watch("reach")
        assert all(node.observer is not None for node in nodes_of(watched))

        subscribed = deploy_line()
        seen = []
        unsubscribe = subscribed.subscribe(
            None, lambda now, fact, weight: seen.append(fact.pred))
        assert all(node.observer is not None
                   for node in nodes_of(subscribed))
        subscribed.advance()
        assert sorted(set(seen)) == ["link", "reach"]
        delivered, before = len(seen), subscribed.rows("reach")
        unsubscribe()
        subscribed.inject("n3", "link", ("n3", "n0", 1.0))
        subscribed.advance()
        assert subscribed.rows("reach") > before  # commits went unheard
        assert len(seen) == delivered

        swept = deploy_line()
        manager = SoftStateManager(swept.cluster)
        assert all(node.observer is None for node in nodes_of(swept))
        manager.install()
        assert swept.cluster.trackers == [manager]
        assert all(node.observer is not None for node in nodes_of(swept))

        # Deployed with a flag, every node is watched from the start
        # and hears a later listener through the same handle.
        metered = deploy_line(metrics=True)
        handles = [node.observer for node in nodes_of(metered)]
        assert all(handle is not None for handle in handles)
        tracker = metered.watch("reach")
        assert [node.observer for node in nodes_of(metered)] == handles
        metered.advance()
        assert tracker.committed_weight == 9

    @pytest.mark.parametrize("batch_size", [1, 4, 64])
    def test_centralised_engine_counts_and_traces_its_commits(
            self, batch_size):
        """One ``commit`` event feeds the counters, the tracer and
        ``on_commit`` alike, also without a cluster around the engine."""
        from repro.obs import NodeMetrics

        program = programs.shortest_path_safe()
        metrics, tracer = NodeMetrics("c"), Tracer(lambda: 0.0)
        tally = {}

        def on_commit(fact, weight):
            key = (fact.pred, weight > 0)
            tally[key] = tally.get(key, 0) + abs(weight)

        engine = PSNEngine(program, batch_size=batch_size,
                           on_commit=on_commit, metrics=metrics,
                           tracer=tracer.recorder("c"))
        links = [("a", "b", 1), ("b", "a", 1), ("b", "c", 2), ("c", "b", 2),
                 ("a", "c", 5), ("c", "a", 5)]
        engine.inject_run("link", links)
        engine.run()
        engine.delete("link", ("b", "c", 2))
        engine.update("link", ("a", "c", 1))
        engine.run()
        assert metrics.commits == {
            pred: n for (pred, plus), n in tally.items() if plus}
        assert metrics.retractions == {
            pred: n for (pred, plus), n in tally.items() if not plus}
        assert metrics.retractions["link"] == 2
        spans = {}
        for event in tracer.events:
            if event.kind == "commit":
                key = (event.pred, event.weight > 0)
                spans[key] = spans.get(key, 0) + abs(event.weight)
        assert spans == tally


# ----------------------------------------------------------------------
# Wire format: the piggybacked trace id
# ----------------------------------------------------------------------
class TestTraceOnTheWire:
    def roundtrip(self, delta):
        message = Message(src="a", dst="b", deltas=(delta,))
        return decode_message(encode_message(message)).deltas[0]

    def test_trace_and_prov_roundtrip(self):
        got = self.roundtrip(NetDelta("p", ("x", 1), 2, prov=9, trace=4))
        assert (got.prov, got.trace) == (9, 4)

    def test_trace_without_prov_roundtrips(self):
        got = self.roundtrip(NetDelta("p", ("x",), 1, trace=7))
        assert got.prov is None
        assert got.trace == 7

    def test_untagged_layout_unchanged(self):
        message = Message(src="a", dst="b",
                          deltas=(NetDelta("p", ("x",), 1),))
        frame = json.loads(encode_message(message))
        assert frame["t"][0] == ["p", 1, ["x"]]

    def test_coalesce_keeps_latest_trace(self):
        merged = coalesce([
            NetDelta("p", ("x",), 1, trace=1),
            NetDelta("p", ("x",), 1, trace=2),
            NetDelta("p", ("y",), 1, trace=3),
            NetDelta("p", ("y",), -1),
        ])
        assert len(merged) == 1
        assert merged[0].weight == 2
        assert merged[0].trace == 2


# ----------------------------------------------------------------------
# Profiling hooks
# ----------------------------------------------------------------------
class TestProfiling:
    def test_deployment_profile_rows(self, observed):
        profile = observed.profile()
        rules = profile.rule_totals()
        assert set(rules) == {"R1", "R2"}
        assert all(seconds > 0 for seconds in rules.values())
        report = profile.report()
        assert "R2" in report and "us/call" in report

    def test_profile_off_raises_planerror(self):
        deployment = deploy_line()
        deployment.advance()
        with pytest.raises(PlanError, match="profile=True"):
            deployment.profile()

    def test_centralized_evaluate_accepts_profiler(self):
        profiler = Profiler()
        compiled = repro.compile(programs.reachability())
        overlay = line_overlay()
        result = compiled.run(
            engine="psn",
            facts={"link": overlay.link_rows("hopcount")},
            profiler=profiler,
        )
        assert result.rows("reach")
        assert profiler.total_seconds() > 0

    def test_explain_timings_opt_in(self):
        compiled = repro.compile(DIRECTED_REACH, name="dreach")
        assert "-- pass timings --" not in compiled.explain()
        timed = compiled.explain(timings=True)
        assert "-- pass timings --" in timed
        assert "aggsel:" in timed
        assert "total:" in timed


# ----------------------------------------------------------------------
# Sim-vs-live equivalence (the acceptance criterion)
# ----------------------------------------------------------------------
def run_target(target, channels=None):
    kwargs = {"target": target}
    if channels is not None:
        kwargs["channels"] = channels
    deployment = deploy_line(metrics=True, trace=True, **kwargs)
    if target == "sim":
        deployment.advance()
    else:
        assert deployment.converge(timeout=60.0)
    totals = deployment.metrics().counter_totals()
    graphs = sorted(map(repr, deployment.tracer.span_graph().values()))
    return totals, graphs


class TestSimLiveEquivalence:
    def test_sim_inproc_udp_agree_on_counters_and_spans(self):
        sim_totals, sim_graphs = run_target("sim")
        live_totals, live_graphs = run_target("live", "inproc")
        udp_totals, udp_graphs = run_target("live", "udp")
        assert sim_totals == live_totals == udp_totals
        assert sim_graphs == live_graphs == udp_graphs

    def test_counter_totals_are_meaningful(self):
        totals, graphs = run_target("sim")
        assert totals["commits:n3:reach"] == 3
        assert totals["messages"] == 6
        assert len(graphs) == 3  # one causal graph per injected link


# ----------------------------------------------------------------------
# Registry internals
# ----------------------------------------------------------------------
class TestRegistry:
    def test_node_handles_are_cached(self):
        registry = MetricsRegistry()
        assert registry.node("a") is registry.node("a")
        assert registry.node("a") is not registry.node("b")

    def test_tracer_mints_unique_ids(self):
        tracer = Tracer(now=lambda: 0.0)
        recorder = tracer.recorder("n")
        first = recorder.mint(Fact("p", (1,)), 1)
        second = recorder.mint(Fact("p", (2,)), 1)
        assert first != second
        assert tracer.trace_of("p", (2,)) == second

    def test_profiler_merge_accumulates(self):
        left, right = Profiler(), Profiler()
        left.add("r1", "link", 0.5)
        right.add("r1", "link", 0.25)
        right.add("r2", "path", 1.0)
        left.merge(right)
        assert left.strands[("r1", "link")] == [0.75, 2]
        assert left.rule_totals()["r2"] == 1.0
        assert left.total_seconds() == pytest.approx(1.75)
