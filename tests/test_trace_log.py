"""The tracer's log: a per-run event (``inject``, ``derive``, ``renew``)
is one :class:`~repro.obs.trace.SpanRun` record, expanded into its
spans only when the log is read -- and what the readers return is
span for span what building every span as it happened returned."""

import hashlib
import json
from collections import Counter

import pytest

import repro
from repro.engine.psn import PSNEngine
from repro.ndlog import parse, programs
from repro.obs import Tracer
from repro.obs.observer import Observer
from repro.obs.trace import SpanRun, TraceEvent
from repro.runtime.softstate import SoftStateManager
from repro.topology import build_overlay, transit_stub

BEACON = """
materialize(beacon, 1.0, infinity, keys(1, 2)).
B1: seen(@D, S) :- #beacon(@S, @D, C).
"""

KV = """
materialize(kv, infinity, infinity, keys(1)).
materialize(echo, infinity, infinity, keys(1, 2)).
E1: echo(K, V) :- kv(K, V).
E2: echo(V, K) :- kv(K, V).
"""


def soft_state_run():
    """A traced, metered, profiled refresh deployment: 8 beacon nodes,
    six refresh rounds, every row expiring after the last."""
    overlay = build_overlay(transit_stub(seed=8), n_nodes=8, degree=2,
                            seed=8)
    deployment = repro.compile(
        parse(BEACON), passes=["localize"], validate=False,
    ).deploy(topology=overlay, link_loads={"beacon": "hopcount"},
             trace=True, metrics=True, profile=True)
    manager = SoftStateManager(deployment.cluster, sweep_interval=0.25)
    manager.install()
    rows = {}
    for row in overlay.link_rows("hopcount"):
        rows.setdefault(row[0], []).append(row)
    manager.schedule_refresh("beacon", rows, interval=0.5, rounds=6)
    deployment.advance()
    return deployment


def cold_start_run():
    """A traced, metered, profiled ``shortest_path`` cold start on six
    nodes (``aggsel`` + ``localize``, chunks of 16)."""
    overlay = build_overlay(transit_stub(seed=3), n_nodes=6, degree=2,
                            seed=3)
    deployment = repro.compile(
        programs.shortest_path(), passes=["aggsel", "localize"],
    ).deploy(topology=overlay, link_loads={"link": "latency"},
             trace=True, metrics=True, profile=True)
    deployment.advance()
    return deployment


def eager_inject(self, pred, rows, weight):
    tracer = self.tracer
    traces = tracer.mint_run(len(rows))
    now, node = tracer.now(), self.node
    tracer.log.extend([
        TraceEvent(now, trace, "inject", node, pred, args, weight, None,
                   None)
        for trace, args in zip(traces, rows)
    ])
    return traces


def eager_derive(self, pred, heads, sign, traces):
    tracer = self.tracer
    now, node = tracer.now(), self.node
    tracer.log.extend([
        TraceEvent(now, trace, "derive", node, pred, head, sign, None, None)
        for head, trace in zip(heads, traces) if trace is not None
    ])


def eager_renew(self, pred, heads, weights, traces):
    tracer = self.tracer
    now, node = tracer.now(), self.node
    tracer.log.extend([
        TraceEvent(now, trace, "renew", node, pred, args, weight, None, None)
        for args, weight, trace in zip(heads, weights, traces)
        if trace is not None
    ])


def readings(tracer):
    """Everything a reader of the log gets."""
    events = tracer.events
    roots = [(ev.pred, ev.args) for ev in events if ev.kind == "inject"]
    return {
        "events": events,
        "graph": tracer.span_graph(),
        "chrome": tracer.to_chrome(),
        "trace_of": [tracer.trace_of(pred, args) for pred, args in roots],
    }


def digest(value) -> str:
    return hashlib.sha256(value.encode()).hexdigest()[:16]


RUNS = {"soft-state": soft_state_run, "cold-start": cold_start_run}

#: Spans by kind, the same under every hash seed.
KINDS = {
    "soft-state": {"commit": 112, "inject": 224, "receive": 56,
                   "renew": 168, "ship": 56},
    "cold-start": {"commit": 306, "derive": 138, "inject": 20,
                   "receive": 148, "ship": 148},
}


@pytest.mark.parametrize("shape", sorted(RUNS))
def test_the_log_reads_as_spans_built_one_by_one(shape, monkeypatch):
    """The same deployment with every span built where it happened (the
    per-row observer this log replaced) reads identically: events in
    order, the span graph, the Chrome export and every root's trace."""
    logged = RUNS[shape]().tracer
    with monkeypatch.context() as patch:
        patch.setattr(Observer, "inject", eager_inject)
        patch.setattr(Observer, "derive", eager_derive)
        patch.setattr(Observer, "renew", eager_renew)
        eager = RUNS[shape]().tracer
    assert not any(type(entry) is SpanRun for entry in eager.log)
    assert any(type(entry) is SpanRun for entry in logged.log)
    assert len(logged.log) < len(eager.log)
    assert readings(logged) == readings(eager)
    assert dict(Counter(ev.kind for ev in logged.events)) == KINDS[shape]


def test_a_soft_state_trace_reads_as_it_did_with_spans_built_per_row():
    """Pinned from the per-row observer: a refresh deployment's trace
    has no hash-order dependence, so its readings are byte for byte."""
    tracer = soft_state_run().tracer
    assert digest(repr(tracer.events)) == "6b998b7ebc928253"
    assert digest(repr(sorted(tracer.span_graph().items()))) == (
        "7e0311c4e6b97f78")
    assert digest(json.dumps(tracer.to_chrome(), sort_keys=True)) == (
        "a3eef5190c2e372e")


def test_one_record_per_inject_derive_and_renew_run(monkeypatch):
    """Each per-run event the observer raises is one record on the log;
    per-row events stay one span each."""
    raised = Counter()
    for kind in ("inject", "derive", "renew"):
        original = getattr(Observer, kind)

        def counted(self, *args, _kind=kind, _original=original):
            raised[_kind] += 1
            return _original(self, *args)

        monkeypatch.setattr(Observer, kind, counted)
    for run in (soft_state_run, cold_start_run):
        log = run().tracer.log
        records = Counter(entry.kind for entry in log
                          if type(entry) is SpanRun)
        assert records == raised
        assert all(type(entry) is TraceEvent for entry in log
                   if type(entry) is not SpanRun)
        raised.clear()
    assert set(records) == {"inject", "derive"}


def test_a_record_keeps_the_rows_of_its_run():
    """The queue grows its tail run's lists in place (a second
    injection joins the first's run, ``E2``'s heads join ``E1``'s); a
    record logged for an earlier run still expands to that run's rows
    only."""
    tracer = Tracer(lambda: 0.0)
    engine = PSNEngine(parse(KV), batch_size=64,
                       tracer=tracer.recorder("c"))
    engine.inject_run("kv", [("a", 1), ("b", 1)])
    engine.inject_run("kv", [("c", 1)])        # joins the same queue run
    (first, second) = tracer.log
    assert first.kind == second.kind == "inject"
    assert [ev.args for ev in tracer.events] == [("a", 1), ("b", 1),
                                                 ("c", 1)]
    assert [ev.trace for ev in tracer.events] == [1, 2, 3]
    engine.run()
    derived = [ev for ev in tracer.events if ev.kind == "derive"]
    assert [(ev.trace, ev.args) for ev in derived] == [
        (1, ("a", 1)), (2, ("b", 1)), (3, ("c", 1)),
        (1, (1, "a")), (2, (1, "b")), (3, (1, "c"))]
    assert [entry.kind for entry in tracer.log
            if type(entry) is SpanRun] == [
        "inject", "inject", "derive", "derive"]


def test_clear_empties_the_log_and_trace_ids_keep_counting():
    """``events`` is a copy, so emptying it leaves the trace alone;
    ``clear`` drops the records and the next injection mints on."""
    tracer = Tracer(lambda: 0.0)
    engine = PSNEngine(parse(KV), batch_size=64,
                       tracer=tracer.recorder("c"))
    engine.inject_run("kv", [("a", 1), ("b", 1)])
    tracer.events.clear()
    assert len(tracer.events) == 2
    tracer.clear()
    assert tracer.log == [] and tracer.events == []
    engine.inject_run("kv", [("c", 1)])
    assert [(ev.trace, ev.args) for ev in tracer.events] == [(3, ("c", 1))]
