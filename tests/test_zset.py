"""Weighted Z-set delta core: weighted == signed equivalence.

The engine's native delta is now a fact with an integer weight (a
Z-set / generalized-multiset element); a signed one-at-a-time delta is
the special case ``weight = +-1``.  These tests hold the two readings
observationally equal: any interleaving of weighted intents must reach
the same fixpoint, derivation counts, aggregate views, and net commit
multiset as the same interleaving decomposed into unit intents and
processed one delta at a time (the ``batch_size=1`` reference path).
The distributed checks pin the sim / in-process / UDP targets to one
fixpoint and exercise the weighted wire format both ways.
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro
from repro.engine import Database
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.errors import NetworkError
from repro.ndlog import parse, programs
from repro.net.live import decode_message, encode_message
from repro.net.message import Message, NetDelta, coalesce, single
from repro.obs import Tracer
from repro.provenance import ProvenanceStore
from repro.topology import build_overlay, transit_stub
from test_batching import CommitLog, counts_snapshot, view_rows

SETTINGS = dict(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)

nodes = st.integers(min_value=0, max_value=4).map(lambda i: f"n{i}")
undirected_edges = st.sets(
    st.tuples(nodes, nodes).filter(lambda e: e[0] < e[1]),
    min_size=1, max_size=8,
)

# One burst operation: (kind, edge-index, cost, weight).
operations = st.lists(
    st.tuples(
        st.sampled_from(["ins", "del", "upd", "flap", "dup"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1, max_size=8,
)


def _link_rows(state):
    rows = []
    for (a, b), cost in state.items():
        rows.append((a, b, cost))
        rows.append((b, a, cost))
    return rows


def weighted_burst_run(edge_set, ops, batch_size, unit_intents):
    """Converge shortest-path, apply ``ops`` as one enqueued burst, run
    to quiescence.  ``unit_intents=True`` decomposes every weighted
    intent into unit intents -- the signed one-at-a-time reading."""
    rng = random.Random(7)
    state = {}
    for a, b in sorted(edge_set):
        state[(a, b)] = rng.randint(1, 9)

    program = programs.shortest_path_safe()
    db = Database.for_program(program)
    db.load_facts("link", _link_rows(state))
    commits = CommitLog()

    def insert(args):
        commits.inserting("link", args)
        engine.insert("link", args)

    engine = PSNEngine(program, db=db, batch_size=batch_size,
                       on_commit=commits)
    engine.fixpoint()
    commits.clear()  # compare the burst phase only

    def derive(fact, weight):
        if unit_intents:
            step = 1 if weight > 0 else -1
            for _ in range(abs(weight)):
                engine.derive(fact, step)
        else:
            engine.derive(fact, weight)

    pairs = sorted(edge_set)
    for kind, index, cost, weight in ops:
        pair = pairs[index % len(pairs)]
        if kind == "ins" and pair not in state:
            state[pair] = cost
            insert((*pair, cost))
            insert((pair[1], pair[0], cost))
        elif kind == "del" and pair in state:
            old = state.pop(pair)
            engine.delete("link", (*pair, old))
            engine.delete("link", (pair[1], pair[0], old))
        elif kind == "upd" and pair in state:
            state[pair] = cost
            insert((*pair, cost))  # update() is insert()
            insert((pair[1], pair[0], cost))
        elif kind == "flap" and pair not in state:
            # Transient weighted announce/withdraw: nets to zero weight.
            derive(Fact("link", (*pair, cost)), weight)
            derive(Fact("link", (pair[1], pair[0], cost)), weight)
            derive(Fact("link", (*pair, cost)), -weight)
            derive(Fact("link", (pair[1], pair[0], cost)), -weight)
        elif kind == "dup" and pair in state:
            # Weighted duplicate support on a stored row, withdrawn in
            # the same burst: count bumps by +w then -w.
            old = state[pair]
            derive(Fact("link", (*pair, old)), weight)
            derive(Fact("link", (*pair, old)), -weight)
    engine.run()
    return engine, commits


@given(edge_set=undirected_edges, ops=operations)
@example(edge_set={("n0", "n1")},
         ops=[("upd", 0, 1, 1), ("upd", 0, 1, 1), ("del", 0, 1, 1),
              ("ins", 0, 2, 1), ("upd", 0, 2, 1)])
@settings(**SETTINGS)
def test_weighted_intents_match_signed_reference(edge_set, ops):
    """Weighted interleavings at every batch size are observationally
    equal to the same interleavings as one-at-a-time unit intents.
    Commits are compared as :class:`CommitLog` nets: the pinned example
    inserts a fresh link and updates it to the same cost, which a chunk
    reports as one ``+2`` transition and chunks of one as ``+1``."""
    reference = None
    for batch_size, unit_intents in ((1, True), (1, False), (7, False),
                                     (64, False)):
        engine, commits = weighted_burst_run(
            edge_set, ops, batch_size, unit_intents,
        )
        observed = (
            engine.db.snapshot(),
            counts_snapshot(engine.db),
            view_rows(engine),
            commits.net(),
        )
        if reference is None:
            reference = observed
        else:
            label = f"batch={batch_size} unit={unit_intents}"
            assert observed[0] == reference[0], f"rows @ {label}"
            assert observed[1] == reference[1], f"counts @ {label}"
            assert observed[2] == reference[2], f"views @ {label}"
            assert observed[3] == reference[3], f"commits @ {label}"


# ----------------------------------------------------------------------
# Weighted deltas across the execution targets
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def six_node_overlay():
    return build_overlay(transit_stub(seed=3), n_nodes=6, degree=3, seed=3)


@pytest.fixture(scope="module")
def zset_compiled():
    return repro.compile(programs.shortest_path_safe(), passes=["localize"])


@pytest.fixture(scope="module")
def sim_rows(zset_compiled, six_node_overlay):
    deployment = zset_compiled.deploy(topology=six_node_overlay,
                                      link_loads={"link": "hopcount"})
    deployment.advance()
    stats = deployment.stats
    assert stats.netdeltas_shipped > 0  # the weighted wire was exercised
    return deployment.query_rows()


def test_sim_target_fixpoint_is_nonempty(sim_rows):
    assert sim_rows


def test_inproc_target_matches_sim(zset_compiled, six_node_overlay,
                                   sim_rows):
    live = zset_compiled.deploy(
        topology=six_node_overlay, link_loads={"link": "hopcount"},
        target="live",
    )
    assert live.converge(timeout=60.0)
    assert live.query_rows() == sim_rows


def test_udp_target_matches_sim(zset_compiled, six_node_overlay, sim_rows):
    live = zset_compiled.deploy(
        topology=six_node_overlay, link_loads={"link": "hopcount"},
        target="live", channels="udp",
    )
    try:
        converged = live.converge(timeout=60.0)
    except OSError as exc:  # no loopback sockets in this sandbox
        pytest.skip(f"cannot open UDP sockets: {exc}")
    assert converged
    assert live.query_rows() == sim_rows


# ----------------------------------------------------------------------
# Weighted wire format and rendering
# ----------------------------------------------------------------------
def test_coalesce_sums_weights_per_fact():
    deltas = (
        NetDelta("p", (1,), 2), NetDelta("q", (2,), 1),
        NetDelta("p", (1,), -2), NetDelta("q", (2,), 3),
    )
    assert coalesce(deltas) == (NetDelta("q", (2,), 4),)


def test_weighted_frame_round_trips():
    message = Message(src="a", dst="b",
                      deltas=(NetDelta("p", ("x", 2), 3, trace=5),
                              NetDelta("q", (1,), -2)),
                      shared_bytes=0)
    assert decode_message(encode_message(message)) == message


def test_old_signed_frame_decodes_as_unit_weights():
    # A frame as a pre-weight sender built it: sign in slot 1.
    wire = (b'{"s":"a","d":"b","h":0,'
            b'"t":[["p",1,["x"]],["p",-1,["y"]]]}')
    message = decode_message(wire)
    assert message.deltas == (NetDelta("p", ("x",), 1),
                              NetDelta("p", ("y",), -1))
    assert message.deltas[0].sign == 1
    assert message.deltas[1].sign == -1


@pytest.mark.parametrize("weight", ["0", "1.5", "true", '"+1"', "null"])
def test_malformed_weights_are_rejected(weight):
    wire = ('{"s":"a","d":"b","h":0,"t":[["p",%s,["x"]]]}'
            % weight).encode()
    with pytest.raises(NetworkError):
        decode_message(wire)


def test_zero_weight_send_is_dropped():
    assert single("a", "b", "p", (1,), 0) is not None  # constructor only
    assert coalesce((NetDelta("p", (1,), 1),
                     NetDelta("p", (1,), -1))) == ()


@pytest.mark.parametrize("batch_size", [1, 8])
def test_zero_weight_injection_is_a_no_op(batch_size):
    """``inject_run(..., weight=0)`` is ``derive``'s "zero is a no-op":
    no queue row (it used to take a step down the *delete* path), no
    trace minted, no base-support record."""
    tracer, store = Tracer(lambda: 0.0), ProvenanceStore()
    engine = PSNEngine(
        parse("materialize(kv, infinity, infinity, keys(1)).\n"
              "KV1: out(@K, V) :- #kv(@K, V)."),
        batch_size=batch_size, tracer=tracer.recorder("c"),
        provenance=store.recorder())
    engine.inject_run("kv", [("k", 1), ("j", 5)])
    engine.run()
    before = (engine.steps, len(tracer.events), store.events,
              engine.db.snapshot())
    engine.inject_run("kv", [("k", 1), ("k", 2), ("m", 7)], weight=0)
    assert not engine.queue
    engine.run()
    assert (engine.steps, len(tracer.events), store.events,
            engine.db.snapshot()) == before
    assert store.base_count(Fact("kv", ("m", 7))) == 0
    assert engine.db.table("kv").count(("k", 1)) == 1

