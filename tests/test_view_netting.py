"""A view answers once per chunk.

Every view-strand firing feeds its heads to the view through
``apply_many``; the view applies them in order, exactly as ``apply``
defines, and *adds* what they emit to a pending per-head net that
``PSNEngine.process_chunk`` drains once, after the chunk's last run.
An update is ``{(old, -1), (new, +1)}`` inside one chunk, so a re-costed
best path leaves it as one ``-old`` / ``+new`` pair on the view
relations -- not retract, promote the runner-up, retract it, insert --
at every ``batch_size``: a primary-key replacement is a chunk of one.

Pinned one case at a time first (the contract matrix,
``test_contract.py``, holds every program with a view to the
interpreter and checks :func:`assert_views_answered`); then what must
survive around it: a kernel that raises mid-chunk,
trace ids, the ``emitted`` counter, a predicate that is both an
aggregate head and a plain head.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.ndlog import parse, programs
from repro.ndlog.validator import validate
from repro.obs import Tracer
from repro.opt import aggsel
from repro.runtime import RuntimeConfig
from repro.topology import Overlay

from interpreter import interpret
from queued import queued
from test_batching import BATCH_SIZES, SETTINGS, counts_snapshot

CHUNKED = BATCH_SIZES[1:]


def all_views(engine):
    return [*engine.views.values(), *engine.argmin_views.values()]


def assert_views_answered(engine):
    """At quiescence a view and its table agree, nothing is pending, and
    no more left the view than moved inside it."""
    for view in all_views(engine):
        assert not view.pending, view.pred
        assert sorted(view.current_rows()) == sorted(
            engine.db.table(view.pred).rows()), view.pred
        assert view.emitted <= view.changes, view.pred


# ----------------------------------------------------------------------
# (1) One change downstream, pinned
# ----------------------------------------------------------------------
BEST = ("s", "d", "z", ("s", "z", "d"), 5)
RUNNER_UP = ("s", "d", "w", ("s", "w", "d"), 7)
VIEW_PREDS = ("path__best", "spCost")


def recost(path, cost):
    return path[:4] + (cost,)


def sp_cost(path):
    return (path[0], path[1], path[4])


def routed_engine(batch_size, paths):
    """``shortest_path_dynamic`` with aggregate selections, ``s``'s
    routes to ``d`` injected as ``path`` rows (no links: nothing is
    re-advertised), converged; returns the engine and the log of what
    commits on the two view relations from here on."""
    log = []

    def on_commit(fact, weight):
        if fact.pred in VIEW_PREDS:
            log.append((fact.pred, weight, fact.args))

    engine = PSNEngine(aggsel.rewrite(programs.shortest_path_dynamic()),
                       batch_size=batch_size, on_commit=on_commit)
    for path in paths:
        engine.insert("path", path)
    engine.run()
    assert_views_answered(engine)
    del log[:]
    return engine, log


def commits(log, pred):
    return [(weight, args) for logged, weight, args in log if logged == pred]


def counters(engine):
    return {view.pred: (view.changes, view.emitted)
            for view in all_views(engine)}


def moved(engine, before):
    """(transitions, deltas drained) per view since ``before``."""
    return {pred: (changes - before[pred][0], emitted - before[pred][1])
            for pred, (changes, emitted) in counters(engine).items()}


def assert_one_pair(engine, log, old, new):
    assert commits(log, "path__best") == [(-1, old), (1, new)]
    assert commits(log, "spCost") == [(-1, sp_cost(old)), (1, sp_cost(new))]
    assert engine.db.table("shortestPath").rows() == [
        (new[0], new[1], new[3], new[4])]
    assert_views_answered(engine)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_recosted_best_is_one_pair_downstream(batch_size):
    """The neighbour re-costs the route that is the group's best while
    an alternative exists: the replacement's ``-1`` firing promotes the
    runner-up, its ``+1`` firing displaces it again -- four transitions
    in each view, one ``-old`` / ``+new`` pair out of the chunk (two
    pairs when the views answered per run)."""
    engine, log = routed_engine(batch_size, [BEST, RUNNER_UP])
    before = counters(engine)
    new = recost(BEST, 4)
    engine.insert("path", new)          # primary-key replacement
    engine.run()
    assert_one_pair(engine, log, BEST, new)
    assert moved(engine, before) == {"path__best": (4, 2), "spCost": (4, 2)}


@pytest.mark.parametrize("batch_size", CHUNKED)
def test_retraction_then_insertion_in_one_chunk_nets_the_same(batch_size):
    """The eager wire delivers the same update as a ``-old`` run
    followed by a ``+new`` run."""
    engine, log = routed_engine(batch_size, [BEST, RUNNER_UP])
    before = counters(engine)
    new = recost(BEST, 4)
    engine.derive(Fact("path", BEST), -1)
    engine.derive(Fact("path", new), 1)
    engine.run()
    assert_one_pair(engine, log, BEST, new)
    assert moved(engine, before) == {"path__best": (4, 2), "spCost": (4, 2)}


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_replacement_that_loses_to_the_runner_up(batch_size):
    engine, log = routed_engine(batch_size, [BEST, RUNNER_UP])
    engine.insert("path", recost(BEST, 9))
    engine.run()
    assert_one_pair(engine, log, BEST, RUNNER_UP)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_replacement_on_a_group_of_one(batch_size):
    engine, log = routed_engine(batch_size, [BEST])
    before = counters(engine)
    new = recost(BEST, 6)
    engine.insert("path", new)
    engine.run()
    assert_one_pair(engine, log, BEST, new)
    # Nothing transient: the group empties and refills.
    assert moved(engine, before) == {"path__best": (2, 2), "spCost": (2, 2)}


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_best_that_leaves_and_returns(batch_size):
    """Inside one chunk the views move four times and say nothing; the
    chunk is the unit, so chunks of one see both halves."""
    engine, log = routed_engine(batch_size, [BEST, RUNNER_UP])
    before = counters(engine)
    engine.derive(Fact("path", BEST), -1)
    engine.derive(Fact("path", BEST), 1)
    engine.run()
    if batch_size == 1:
        assert commits(log, "path__best") == [
            (-1, BEST), (1, RUNNER_UP), (-1, RUNNER_UP), (1, BEST)]
        assert moved(engine, before)["path__best"] == (4, 4)
    else:
        assert log == []
        assert moved(engine, before) == {
            "path__best": (4, 0), "spCost": (4, 0)}
    assert engine.db.table("shortestPath").rows() == [("s", "d") + BEST[3:]]
    assert_views_answered(engine)


# ----------------------------------------------------------------------
# (2) A kernel that raises mid-chunk
# ----------------------------------------------------------------------
LOW_AND_BOOM = """
materialize(p, infinity, infinity, keys(1, 2)).
materialize(q, infinity, infinity, keys(1, 2)).
L: low(@X, min<V>) :- p(@X, K, V).
B: out(@X, W) :- q(@X, V), W := f_boom(V).
"""


def test_a_kernel_that_raises_strands_no_view_output():
    """The view was fed by an earlier run of the chunk: its state
    already holds the new minimum, so the delta must reach the queue
    although the chunk did not finish."""
    def f_boom(value):
        raise ZeroDivisionError(value)

    engine = PSNEngine(parse(LOW_AND_BOOM), batch_size=64)
    engine.db.functions["f_boom"] = f_boom
    engine.insert("p", ("a", "k1", 5))
    engine.run()
    engine.insert("p", ("a", "k2", 3))
    engine.insert("q", ("a", 1))
    engine.insert("p", ("a", "k3", 1))      # lost with the chunk
    with pytest.raises(ZeroDivisionError):
        engine.run()
    view = engine.views["low"]
    assert not view.pending
    assert [row[:3] for row in queued(engine)] == [
        ("low", ("a", 5), -1), ("low", ("a", 3), 1)]
    engine.run()
    assert engine.db.table("low").rows() == [("a", 3)] == view.current_rows()


# ----------------------------------------------------------------------
# (3) Trace ids
# ----------------------------------------------------------------------
def test_a_netted_head_carries_its_last_movers_trace():
    tracer = Tracer(lambda: 0.0)
    engine = PSNEngine(parse(LOW_AND_BOOM), batch_size=64,
                       tracer=tracer.recorder("c"))
    engine.insert("p", ("a", "k1", 5))
    engine.run()
    burst = [("a", "k2", 3), ("a", "k3", 4), ("a", "k4", 2)]
    engine.inject_run("p", burst)
    engine.run()
    assert engine.db.table("low").rows() == [("a", 2)]
    lowered, idle, lowest = (tracer.trace_of("p", row) for row in burst)
    assert len({lowered, idle, lowest}) == 3
    since = max(index for index, event in enumerate(tracer.events)
                if event.kind == "inject")
    low = [(event.kind, event.args, event.weight, event.trace)
           for event in tracer.events[since:] if event.pred == "low"]
    # 5 -> 3 -> 2: low(a, 5) was retracted by the first row, low(a, 2)
    # asserted by the third; low(a, 3) came and went and the row that
    # moved nothing appears nowhere.
    assert low == [
        ("derive", ("a", 5), -1, lowered), ("derive", ("a", 2), 1, lowest),
        ("commit", ("a", 5), -1, lowered), ("commit", ("a", 2), 1, lowest),
    ]


# ----------------------------------------------------------------------
# (4) An aggregate head that is also a plain head
# ----------------------------------------------------------------------
MIXED_HEAD = """
materialize(e, infinity, infinity, keys(1, 2, 3)).
materialize(f, infinity, infinity, keys(1, 2, 3)).
materialize(m, infinity, infinity, keys(1, 2, 3)).
M1: m(@X, Y, min<C>) :- e(@X, Y, C).
M2: m(@X, Y, C) :- f(@X, Y, C).
M3: seen(@X, Y, C) :- m(@X, Y, C).
"""

mixed_ops = st.lists(
    st.tuples(st.sampled_from(["e", "f"]), st.booleans(),
              st.sampled_from(["y0", "y1"]),
              st.integers(min_value=1, max_value=4)),
    min_size=1, max_size=12,
)


@given(ops=mixed_ops)
@settings(**SETTINGS)
def test_predicate_fed_by_a_view_and_a_plain_rule(ops):
    """The validator accepts it, so it must run: the plain rule's heads
    reach the queue at once, the view's when the chunk ends, and a row
    both derive holds both derivations whichever lands first."""
    program = parse(MIXED_HEAD)
    assert validate(program).errors == []

    def run(engine):
        live = set()
        for pred, insert, y, cost in ops:
            row = ("x", y, cost)
            if insert and (pred, row) not in live:
                live.add((pred, row))
                engine.insert(pred, row)
            elif not insert and (pred, row) in live:
                live.discard((pred, row))
                engine.delete(pred, row)
        engine.run()
        return live

    reference = interpret(PSNEngine(program, batch_size=1))
    live = run(reference)
    lows = {}
    for pred, (_, y, cost) in live:
        if pred == "e":
            lows[y] = min(cost, lows.get(y, cost))
    want = {("x", y, cost): 1 for y, cost in lows.items()}
    for pred, row in live:
        if pred == "f":
            want[row] = want.get(row, 0) + 1
    assert counts_snapshot(reference.db)["m"] == want
    for batch_size in BATCH_SIZES:
        engine = PSNEngine(program, batch_size=batch_size)
        run(engine)
        assert counts_snapshot(engine.db) == counts_snapshot(reference.db)
        view = engine.views["m"]
        assert not view.pending
        assert set(view.current_rows()) <= set(engine.db.table("m").rows())


# ----------------------------------------------------------------------
# Observability: ``emitted`` beside ``changes``
# ----------------------------------------------------------------------
def test_insert_only_chunks_of_one_emit_every_change():
    """One contribution per chunk: nothing to net, the counters agree."""
    engine = PSNEngine(parse(LOW_AND_BOOM), batch_size=1)
    for index, value in enumerate([9, 4, 6, 2, 2, 7, 1]):
        engine.insert("p", ("a", f"k{index}", value))
        engine.insert("p", ("b", f"k{index}", -value))
    engine.run()
    view = engine.views["low"]
    # a: +9, 9 -> 4, 4 -> 2, 2 -> 1; b: -9 from the first row on.
    assert view.changes == view.emitted == 7 + 1
    assert_views_answered(engine)


def test_metrics_expose_emitted_beside_changes():
    """A deployed re-costing: the transient promotions stay in the
    chunk and ``changes - emitted`` says how many, per relation."""
    overlay = Overlay(
        nodes=["s", "z", "w", "d"], host={n: "h" for n in "szwd"},
        links={pair: {"latency": cost, "hopcount": 1.0}
               for pair, cost in {("s", "z"): 1.0, ("z", "d"): 4.0,
                                  ("s", "w"): 2.0, ("w", "d"): 5.0}.items()})
    deployment = repro.compile(
        programs.shortest_path_dynamic(), passes=["aggsel", "localize"],
    ).deploy(topology=overlay, link_loads={"link": "latency"},
             config=RuntimeConfig(metrics=True, cpu_batch=16))
    deployment.advance()
    settled = deployment.metrics().relation_totals()
    for pred in VIEW_PREDS:
        assert settled[pred]["view_emitted"] <= settled[pred]["view_changes"]
    # z re-costs its link to d: s's best route to d is replaced while
    # the route through w stands by.
    for a, b in (("z", "d"), ("d", "z")):
        deployment.inject(a, "link", (a, b, 3.0))
    deployment.advance()
    totals = deployment.metrics().relation_totals()
    for pred in VIEW_PREDS:
        transient = (totals[pred]["view_changes"]
                     - totals[pred]["view_emitted"])
        assert transient > (settled[pred]["view_changes"]
                            - settled[pred]["view_emitted"]), pred
    assert {row[:2]: row[3] for row in deployment.rows("shortestPath")
            }[("s", "d")] == 4.0
    text = deployment.metrics_text()
    assert 'ndlog_view_emitted_total{node="s",relation="path__best"}' in text
    assert 'ndlog_view_changes_total{node="s",relation="path__best"}' in text
    # The re-costing is one key replacement at each end of the link
    # (the eager wire then ships ``-old`` and ``+new`` apart, so no
    # ``path`` row is replaced); neither needed a run split.
    assert settled["link"]["replacements"] == 0
    assert totals["link"]["replacements"] == 2
    assert not any(counts["run_splits"] for counts in totals.values())
    assert 'ndlog_replacements_total{node="z",relation="link"} 1' in text
    assert "ndlog_run_splits_total" not in text
