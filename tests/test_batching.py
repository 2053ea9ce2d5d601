"""One commit path at every chunk size.

Draining the queue in chunks larger than one (Z-set weight netting at
the queue, one strand firing per run, netted aggregate views) may
change *intermediate* traffic but must never change what the engines
compute (the contract matrix, ``test_contract.py``, holds every batch
size to chunks of one on the interpreter); deterministic tests pin the
netting pass's slot-order discipline (runs seal at replacements and
forced deletes) and the orderings a run must keep (self-join
visibility, forced deletes mid-chunk, replacement of a member of the
same run, a withdrawn slot left empty) one case at a time.

A run of insertions commits as two runs -- the rows it displaces leave
as one ``-1`` run, the rows that became visible arrive as one ``+1``
run -- unless two of its rows meet on one primary-key slot, where it
commits what is pending first (``Table.run_splits``): the last section
pins the firing counts, each split case, a kernel that raises in the
``-1`` half, and holds random insert / update / delete streams on keyed
tables (base, soft-state, rule-derived) under a plain
rule, a ``min`` view and an arg-min view to chunks of one.  The stored
rows ahead of a batch are booked by one ``Table.bump_run`` call: the
closing section holds duplicate-heavy streams on the same tables to
chunks of one, counters and observer events included.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.engine import Database
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.engine.table import Table
from repro.ndlog import parse, programs
from repro.obs import NodeMetrics
from repro.provenance import ProvenanceStore, audit_engine
from repro.runtime.node import NodeRuntime

from interpreter import interpret
from queued import flatten, queued
from test_obs import RecordingObserver
from test_softstate import ClockedEngine

SETTINGS = dict(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)

BATCH_SIZES = (1, 7, 64)


def counts_snapshot(db):
    """Per-tuple derivation counts of every table (the [Gupta et al. 93]
    bookkeeping batching must preserve exactly)."""
    return {
        name: {args: table.count(args) for args in table.rows()}
        for name, table in db.tables.items()
    }


def view_rows(engine):
    out = {}
    for pred, view in engine.views.items():
        out[pred] = frozenset(view.current_rows())
    for pred, view in engine.argmin_views.items():
        out[pred] = frozenset(view.current_rows())
    return out


class CommitLog:
    """An ``on_commit`` observer for the differentials.

    ``on_commit`` reports the weight *of the visibility transition*, so
    its magnitude depends on where netting folds: a fresh row inserted
    twice in one chunk becomes visible as one ``+2``, in chunks of one
    as a ``+1`` and a silent count bump.  What every chunk size must
    agree on is the net of transition **signs** per fact; the net of
    the weights agrees as well unless the burst inserted one row twice
    (``duplicates``)."""

    def __init__(self):
        self.signs = {}
        self.weights = {}
        self._inserted = set()
        self.duplicates = False

    def __call__(self, fact, weight):
        sign = 1 if weight > 0 else -1
        self.signs[fact] = self.signs.get(fact, 0) + sign
        self.weights[fact] = self.weights.get(fact, 0) + weight

    def clear(self):
        self.signs.clear()
        self.weights.clear()

    def inserting(self, pred, args):
        """Note a base insertion of the burst."""
        if (pred, args) in self._inserted:
            self.duplicates = True
        self._inserted.add((pred, args))

    def net(self):
        """What must agree across chunk sizes: the nonzero sign nets
        (transient facts net to zero either by committing +1/-1 or by
        never committing at all; both read as "no net commit"), and the
        nonzero weight nets where they are comparable."""
        signs = {f: n for f, n in self.signs.items() if n != 0}
        if self.duplicates:
            return signs, None
        return signs, {f: n for f, n in self.weights.items() if n != 0}


# ----------------------------------------------------------------------
# Z-set netting semantics, pinned deterministically
# ----------------------------------------------------------------------
KV_PROGRAM = """
materialize(kv, infinity, infinity, keys(1)).
materialize(out, infinity, infinity, keys(1, 2)).
KV1: out(@K, V) :- #kv(@K, V).
"""


def kv_engine(batch_size, rows=()):
    program = parse(KV_PROGRAM)
    db = Database.for_program(program)
    if rows:
        db.load_facts("kv", rows)
    engine = PSNEngine(program, db=db, batch_size=batch_size)
    engine.fixpoint()
    return engine


def enqueue(engine, sign, args, force=False, pred="kv"):
    """Queue one intent through the public API: a forced deletion is
    ``delete``, anything else a weighted ``derive``."""
    if force:
        assert sign == -1
        engine.delete(pred, args)
    else:
        engine.derive(Fact(pred, args), sign)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_transient_announce_withdraw_cancels(batch_size):
    """+f then -f on an absent fact nets to nothing; batched processing
    cancels the pair at the queue before any strand work."""
    engine = kv_engine(batch_size)
    enqueue(engine, 1, ("a", 1))
    enqueue(engine, -1, ("a", 1))
    engine.run()
    assert engine.db.table("kv").rows() == []
    assert engine.db.table("out").rows() == []
    if batch_size > 1:
        assert engine.cancelled == 2
    else:
        assert engine.cancelled == 0


def test_a_chunk_without_a_repeated_fact_keys_no_slot():
    """Both signs, but every row distinct: nothing can fold (a slot
    folds two intents on one tuple), so the netting pass keys no slot
    -- ``key_of`` is not called, where the slot pass called it once per
    row -- and the chunk commits as queued."""
    stored = [("a", 1), ("b", 2), ("c", 3), ("d", 4)]
    engine = kv_engine(64, rows=stored + stored)    # each row counts 2
    table = engine.db.table("kv")
    keyed = []
    key_of = table.key_of

    def counting_key_of(args):
        keyed.append(args)
        return key_of(args)

    table.key_of = counting_key_of
    for args in stored[:2]:
        enqueue(engine, 1, args)
    for args in stored[2:]:
        enqueue(engine, -1, args)
    engine.run()
    assert keyed == []
    assert engine.cancelled == 0
    assert [table.count(args) for args in stored] == [3, 3, 1, 1]


def test_a_fact_repeated_across_runs_still_folds():
    """``+f``, a run of another predicate, then ``-f``: no run holds f
    twice, yet the chunk does, and the pair annihilates."""
    engine = kv_engine(64)
    enqueue(engine, 1, ("a", 1))
    enqueue(engine, 1, ("z", 9), pred="out")
    enqueue(engine, -1, ("a", 1))
    engine.run()
    assert engine.cancelled == 2
    assert engine.db.table("kv").rows() == []
    assert engine.db.table("out").rows() == [("z", 9)]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_minus_first_pair_is_not_cancelled(batch_size):
    """-f then +f on an absent fact must leave f visible: the run's
    prefix sum dips below zero, so sequentially the minus floors
    against the store as a no-op and the plus then lands.  Netting the
    pair to zero would lose the insert -- dipping runs replay
    intent-by-intent instead."""
    engine = kv_engine(batch_size)
    enqueue(engine, -1, ("a", 1))
    enqueue(engine, 1, ("a", 1))
    engine.run()
    assert engine.db.table("kv").rows() == [("a", 1)]
    assert engine.db.table("out").rows() == [("a", 1)]
    assert engine.cancelled == 0


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_forced_deletes_never_cancel(batch_size):
    """delete() removes a fact regardless of derivation count; pairing
    it with one insert intent would under-delete."""
    engine = kv_engine(batch_size, rows=[("a", 1), ("a", 1)])  # count 2
    assert engine.db.table("kv").count(("a", 1)) == 2
    enqueue(engine, 1, ("a", 1))
    engine.delete("kv", ("a", 1))
    engine.run()
    assert engine.db.table("kv").rows() == []
    assert engine.cancelled == 0


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_zero_net_run_replays_over_conflicting_row(batch_size):
    """[+g, +f, -f] with g and f sharing a primary key: sequentially
    f's insert destroys g (replacement) and f then dies, leaving the
    key empty.  Annihilating f's zero-net pair would resurrect g, so
    the slot -- touched by two distinct tuples in one chunk -- is
    ineligible for folding and replays intent-by-intent."""
    engine = kv_engine(batch_size)
    enqueue(engine, 1, ("k", 1))   # g
    enqueue(engine, 1, ("k", 2))   # f: transient
    enqueue(engine, -1, ("k", 2))  # f nets to zero
    engine.run()
    assert engine.db.table("kv").rows() == []
    assert engine.db.table("out").rows() == []


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_zero_net_run_replays_over_stored_conflicting_row(batch_size):
    """[+f, -f] where the key is held by a *different* stored row g:
    sequentially f's insert destroys g (replacement) and f then dies,
    leaving the key empty.  Annihilating the zero-net pair would spare
    g -- and make the fixpoint depend on where the chunk boundary
    fell -- so the stored-row check routes it through replay."""
    engine = kv_engine(batch_size, rows=[("k", 1)])
    enqueue(engine, 1, ("k", 2))
    enqueue(engine, -1, ("k", 2))
    engine.run()
    assert engine.db.table("kv").rows() == []
    assert engine.db.table("out").rows() == []


@pytest.mark.parametrize("batch_size", BATCH_SIZES[1:])
def test_replacement_seals_the_netting_run(batch_size):
    """[+f, +g, +f] with f and g sharing a primary key: the g intent
    makes the slot non-uniform, so the two f weights must NOT merge --
    merging would commit +2 f before g and let g win the slot, while
    sequentially the last writer f wins.  Both paths must end with f."""
    engine = kv_engine(batch_size)
    enqueue(engine, 1, ("k", 1))   # f
    enqueue(engine, 1, ("k", 2))   # g replaces f
    enqueue(engine, 1, ("k", 1))   # f replaces g back
    engine.run()
    assert engine.db.table("kv").rows() == [("k", 1)]
    assert engine.db.table("out").rows() == [("k", 1)]


@pytest.mark.parametrize("batch_size", BATCH_SIZES[1:])
def test_forced_delete_seals_the_netting_run(batch_size):
    """[+f, force -f, +f]: the forced delete is an assignment, not a
    group element, and spoils its slot's eligibility; netting the two
    inserts across it would commit +2 f, wipe it, and end empty, while
    sequentially the trailing insert lands after the wipe.  Both paths
    must end with f visible."""
    engine = kv_engine(batch_size)
    enqueue(engine, 1, ("a", 1))
    enqueue(engine, -1, ("a", 1), force=True)
    enqueue(engine, 1, ("a", 1))
    engine.run()
    assert engine.db.table("kv").rows() == [("a", 1)]
    assert engine.db.table("out").rows() == [("a", 1)]
    assert engine.db.table("kv").count(("a", 1)) == 1


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_duplicate_then_delete_nets_to_count(batch_size):
    """[+f, -f] on a fact stored with count 1: both paths end with
    count 1 (the dup bump and the decrement annihilate)."""
    engine = kv_engine(batch_size, rows=[("a", 1)])
    enqueue(engine, 1, ("a", 1))
    enqueue(engine, -1, ("a", 1))
    engine.run()
    assert engine.db.table("kv").count(("a", 1)) == 1
    assert engine.db.table("out").rows() == [("a", 1)]


# ----------------------------------------------------------------------
# Orderings every run must keep, whatever the chunk size
# ----------------------------------------------------------------------
DERIVED_SLOT_PROGRAM = """
materialize(offer, infinity, infinity, keys(1, 2)).
materialize(best, infinity, infinity, keys(1)).
materialize(out, infinity, infinity, keys(1, 2)).
F1: best(@K, V) :- #offer(@K, V).
F2: out(@K, V) :- best(@K, V).
"""


TWO_HOP_PROGRAM = """
materialize(hop, infinity, infinity, keys(1, 2)).
H1: two(X, Z) :- hop(X, Y), hop(Y, Z).
"""


def self_joining_base_fact_insert_then_delete(engine_of):
    """``hop(a,a)`` is its own join partner.  Inserted, it derives
    ``two(a,a)`` once (footnote 2: the earlier position excludes the
    driver) and ``two(a,b)`` once -- a run of two would count it twice;
    deleted, its strands must find it still in the table, or
    ``two(a,a)`` is never retracted."""
    engine = engine_of(parse(TWO_HOP_PROGRAM))
    engine.insert("hop", ("a", "a"))
    engine.insert("hop", ("a", "b"))
    engine.run()
    assert counts_snapshot(engine.db)["two"] == {("a", "a"): 1,
                                                 ("a", "b"): 1}
    engine.delete("hop", ("a", "a"))
    engine.run()
    assert engine.db.table("two").rows() == []
    return engine


def self_join_insert_then_delete(engine_of):
    """``tc(X,Z) :- tc(X,Y), tc(Y,Z)`` with ``tc(a,a)`` joining itself:
    a dying fact's strands must run while it is still visible (footnote
    2), and a run longer than one would double-count the self-join.
    (What survives the deletes is the cyclic support counting cannot
    retract -- the same rows and counts at every chunk size.)"""
    engine = engine_of(programs.transitive_closure_nonlinear())
    for edge in [("a", "a"), ("a", "b"), ("b", "c"), ("c", "d")]:
        engine.insert("edge", edge)
    engine.run()
    assert engine.db.table("tc").count(("a", "a")) == 2
    engine.delete("edge", ("a", "a"))
    engine.delete("edge", ("b", "c"))
    engine.run()
    assert ("b", "c") not in engine.db.table("tc")
    return engine


def forced_delete_between_two_runs(engine_of):
    """[+a, +b, force -a, +c, +d]: the forced delete splits its
    predicate's inserts into two runs and must see the first committed."""
    engine = engine_of(parse(KV_PROGRAM))
    enqueue(engine, 1, ("a", 1))
    enqueue(engine, 1, ("b", 2))
    enqueue(engine, -1, ("a", 1), force=True)
    enqueue(engine, 1, ("c", 3))
    enqueue(engine, 1, ("d", 4))
    engine.run()
    assert engine.db.table("out").rows() == [("b", 2), ("c", 3), ("d", 4)]
    return engine


def replacement_of_a_member_of_the_same_run(engine_of):
    """[+k1, +j5, +k2, +m7] is one run; k2 replaces k1, a member of it:
    k1 is still pending when k2 reaches its slot, so the batch [k1, j5]
    commits (and fires) before k1's retraction."""
    engine = engine_of(parse(KV_PROGRAM))
    for args in [("k", 1), ("j", 5), ("k", 2), ("m", 7)]:
        enqueue(engine, 1, args)
    engine.run()
    assert engine.db.table("out").rows() == [("j", 5), ("k", 2), ("m", 7)]
    return engine


def two_replacements_of_one_slot_in_one_run(engine_of):
    """k0 is stored; [+k1, +j5, +k2] replaces it twice: k1 must displace
    k0 and be displaced in turn, never share a batch with k2."""
    engine = engine_of(parse(KV_PROGRAM))
    enqueue(engine, 1, ("k", 0))
    engine.run()
    for args in [("k", 1), ("j", 5), ("k", 2)]:
        enqueue(engine, 1, args)
    engine.run()
    assert engine.db.table("out").rows() == [("j", 5), ("k", 2)]
    return engine


def displaced_row_announced_again(engine_of):
    """k1 is stored; [+k2, +k1]: when k1 arrives it is still in the
    table, waiting to be displaced by k2 -- a count bump there would
    end on k2 alone.  The run ends on k1, count 1."""
    engine = engine_of(parse(KV_PROGRAM))
    enqueue(engine, 1, ("k", 1))
    engine.run()
    enqueue(engine, 1, ("k", 2))
    enqueue(engine, 1, ("k", 1))
    engine.run()
    assert engine.db.table("kv").rows() == [("k", 1)]
    assert engine.db.table("kv").count(("k", 1)) == 1
    assert engine.db.table("out").rows() == [("k", 1)]
    return engine


def count_bump_of_a_row_the_run_displaces(engine_of):
    """k1 is stored; [+k1, +j5, +k2]: the bump is booked in place, ahead
    of the batch, and k2 then displaces k1 with both derivations (one
    ``-2`` commit)."""
    engine = engine_of(parse(KV_PROGRAM))
    enqueue(engine, 1, ("k", 1))
    engine.run()
    for args in [("k", 1), ("j", 5), ("k", 2)]:
        enqueue(engine, 1, args)
    engine.run()
    assert engine.db.table("kv").rows() == [("j", 5), ("k", 2)]
    assert engine.db.table("out").rows() == [("j", 5), ("k", 2)]
    return engine


def withdrawn_slot_stays_empty(engine_of):
    """A keyed slot holds its latest version only: withdrawing it
    empties the slot, whatever versions that slot held before (k1, which
    k2 displaced, is still offered), and neither later runs on other
    slots nor a forced delete bring an older version back."""
    engine = engine_of(parse(DERIVED_SLOT_PROGRAM))
    best = engine.db.table("best")
    for args in [("k", 1), ("j", 9), ("k", 2)]:
        enqueue(engine, 1, args, pred="offer")
    engine.run()
    assert best.rows() == [("j", 9), ("k", 2)]
    enqueue(engine, -1, ("k", 2), pred="offer")
    engine.run()
    assert best.rows() == [("j", 9)]
    for args in [("m", 3), ("n", 4), ("n", 5)]:
        enqueue(engine, 1, args, pred="offer")
    engine.run()
    assert best.get_by_key(("k",)) is None
    assert best.get_by_key(("n",)) == ("n", 5)
    engine.delete("best", ("n", 5))
    enqueue(engine, 1, ("p", 6), pred="offer")
    engine.run()
    assert best.rows() == [("j", 9), ("m", 3), ("p", 6)]
    assert engine.db.table("out").rows() == [("j", 9), ("m", 3), ("p", 6)]
    assert ("k", 1) in engine.db.table("offer")
    assert ("n", 4) in engine.db.table("offer")
    return engine


@pytest.mark.parametrize("batch_size", [2, 3, 16, 64])
@pytest.mark.parametrize("scenario", [
    self_joining_base_fact_insert_then_delete,
    self_join_insert_then_delete,
    forced_delete_between_two_runs,
    replacement_of_a_member_of_the_same_run,
    two_replacements_of_one_slot_in_one_run,
    displaced_row_announced_again,
    count_bump_of_a_row_the_run_displaces,
    withdrawn_slot_stays_empty,
], ids=lambda scenario: scenario.__name__)
def test_run_orderings_match_chunks_of_one(scenario, batch_size):
    """Rows, derivation counts and the net commit multiset of each
    ordering scenario equal the ``batch_size=1`` reference."""
    def observed(size):
        commits = {}

        def on_commit(fact, weight):
            commits[fact] = commits.get(fact, 0) + weight

        engine = scenario(lambda program: PSNEngine(
            program, batch_size=size, on_commit=on_commit))
        return (engine.db.snapshot(), counts_snapshot(engine.db),
                {fact: net for fact, net in commits.items() if net})

    assert observed(batch_size) == observed(1)


@pytest.mark.parametrize("scenario, splits", [
    (replacement_of_a_member_of_the_same_run, 1),
    (two_replacements_of_one_slot_in_one_run, 1),
    (displaced_row_announced_again, 1),
    (count_bump_of_a_row_the_run_displaces, 0),
    (forced_delete_between_two_runs, 0),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_a_run_splits_only_where_two_rows_meet_on_a_slot(scenario, splits):
    """Whole in one chunk, each scenario's run commits its pending batch
    early exactly where a row reaches a slot the batch has touched;
    chunks of one never do."""
    def engine_of(size):
        return scenario(
            lambda program: PSNEngine(program, batch_size=size))

    assert engine_of(64).db.table("kv").run_splits == splits
    assert engine_of(1).db.table("kv").run_splits == 0


def test_chunk_limit_is_exact():
    """max_steps counts consumed deltas exactly, chunked or not."""
    from repro.errors import EvaluationError
    engine = kv_engine(64)
    for i in range(10):
        enqueue(engine, 1, (f"k{i}", i))
    with pytest.raises(EvaluationError):
        engine.run(max_steps=5)
    assert engine.steps == 5


def test_a_chunk_short_of_the_queue_leaves_the_tail_in_order():
    """A chunk that empties the queue is taken in one call; a shorter
    one takes its head and leaves the rest queued, in order, ahead of
    what the chunk derives."""
    engine = kv_engine(64)
    for i in range(10):
        enqueue(engine, 1, (f"k{i}", i))
    rows = queued(engine)
    assert engine.process_chunk(4) == 4
    assert queued(engine)[:6] == rows[4:]
    assert [row[:3] for row in queued(engine)[6:]] == [
        ("out", (f"k{i}", i), 1) for i in range(4)]
    assert engine.process_chunk(6) == 6
    assert [row[0] for row in queued(engine)] == ["out"] * 10
    engine.run()
    assert engine.db.table("kv").rows() == [row[1] for row in rows]
    assert engine.steps == 20 and not engine.queue


def two_scan_split(rows, single_delta):
    """The split as two scans: the direction test over the unforced
    rows, then the run boundaries, each grown from its first row."""
    has_plus = has_minus = False
    for _, _, weight, force, _ in rows:
        if force:
            continue
        if weight > 0:
            has_plus = True
        else:
            has_minus = True
    stops = []
    index = 0
    while index < len(rows):
        pred, _, weight, force, _ = rows[index]
        plus = weight > 0
        stop = index + 1
        if not force and pred not in single_delta:
            while stop < len(rows):
                nxt = rows[stop]
                if nxt[0] != pred or (nxt[2] > 0) != plus or nxt[3]:
                    break
                stop += 1
        stops.append(stop)
        index = stop
    return stops, has_plus and has_minus


SPLIT_PROGRAM = """
materialize(kv, infinity, infinity, keys(1)).
materialize(aux, infinity, infinity, keys(1)).
materialize(hop, infinity, infinity, keys(1, 2)).
S1: out(K, V) :- kv(K, V), aux(K, V).
S2: two(X, Z) :- hop(X, Y), hop(Y, Z).
"""


class Receiver(PSNEngine):
    """A PSN engine that also takes a message's deltas as a node does
    (no origin: no peer ledger, and no tick to schedule)."""

    receive = NodeRuntime.receive

    def _schedule_tick(self):
        pass


split_preds = st.sampled_from(["kv", "aux", "hop"])
split_args = st.sampled_from([("a", "b"), ("b", "a"), ("a", "a")])
split_weights = st.sampled_from([1, 2, -1, -3])
split_ops = st.lists(
    st.one_of(
        st.tuples(st.just("inject"), split_preds,
                  st.lists(split_args, min_size=1, max_size=4),
                  split_weights, st.booleans()),
        st.tuples(st.just("derive"), split_preds, split_args,
                  split_weights),
        st.tuples(st.just("emit"), split_preds,
                  st.lists(split_args, min_size=1, max_size=4),
                  st.sampled_from([1, -1])),
        st.tuples(st.just("receive"),
                  st.lists(st.tuples(split_preds, split_args,
                                     st.sampled_from([1, 2, 0, -1, -3])),
                           max_size=6)),
    ),
    max_size=12,
)


def split_stream(engine, ops):
    """Queue ``ops`` through the engine's own entry points."""
    from repro.net.message import NetDelta

    for op, *params in ops:
        if op == "inject":
            pred, rows, weight, force = params
            engine.inject_run(pred, rows, -1 if force else weight, force)
        elif op == "derive":
            pred, args, weight = params
            engine.derive(Fact(pred, args), weight)
        elif op == "emit":
            pred, heads, sign = params
            engine._emit(pred, list(heads), sign)
        else:
            engine.receive([NetDelta(*delta) for delta in params[0]])


@pytest.mark.parametrize("limit", [1, 7, 64])
@given(ops=split_ops)
@example(ops=[("inject", "kv", [("a", "b")] * 5, 1, False)])
@example(ops=[("derive", "kv", ("a", "b"), 1), ("derive", "kv", ("a", "b"), 2),
              ("derive", "aux", ("b", "a"), -1),
              ("derive", "kv", ("a", "b"), -1)])
@example(ops=[("emit", "kv", [("a", "b")], 1), ("derive", "kv", ("a", "b"), -1),
              ("emit", "hop", [("a", "b"), ("b", "a")], 1),
              ("inject", "kv", [("a", "a"), ("b", "a")], -1, True),
              ("receive", [("aux", ("a", "b"), 2), ("aux", ("b", "a"), 1),
                           ("aux", ("a", "b"), 0), ("kv", ("a", "b"), 1)])])
@settings(max_examples=100, deadline=None)
def test_queue_runs_match_the_two_scans(limit, ops):
    """The queue decides run boundaries where deltas arrive; every chunk
    commits the runs the two scans find over its rows -- maximal
    (predicate, direction) stretches, a forced row or a row of a capped
    (self-joining) predicate alone -- and is netted exactly when its
    unforced rows carry both signs, its survivors split the same way.
    ``len(queue)`` counts deltas throughout."""
    engine = Receiver(parse(SPLIT_PROGRAM), batch_size=limit)
    assert engine._single_delta == {"hop"}
    committed = []

    def recording(commit):
        def record(run):
            committed.append(run)
            commit(run)
        return record

    engine._commit_insert_run = recording(engine._commit_insert_run)
    engine._commit_delete_run = recording(engine._commit_delete_run)
    split_stream(engine, ops)
    for _ in range(200):
        rows = queued(engine)
        assert len(engine.queue) == len(rows)
        if not rows:
            break
        chunk = rows[:limit]
        del committed[:]
        cancelled = engine.cancelled
        assert engine.process_chunk(limit) == len(chunk)
        stops, mixed = two_scan_split(chunk, engine._single_delta)
        survivors = flatten(committed)
        if not mixed:
            assert survivors == chunk
            assert engine.cancelled == cancelled
        else:
            assert len(survivors) + engine.cancelled - cancelled == len(chunk)
            stops = two_scan_split(survivors, engine._single_delta)[0]
        sizes = [len(heads) for _, heads, _, _, _ in committed]
        assert sizes == [stop - start for start, stop
                         in zip([0] + stops[:-1], stops)]


# ----------------------------------------------------------------------
# A run of replacements is two runs: displaced rows out, new rows in
# ----------------------------------------------------------------------
def test_a_run_of_replacements_fires_each_strand_twice():
    """n fresh rows are one ``+1`` firing; n replacements on n distinct
    slots one ``-1`` firing for the displaced rows and one ``+1`` firing
    for their replacements (a firing per row of either before)."""
    metrics = NodeMetrics("c")
    engine = PSNEngine(parse(KV_PROGRAM), batch_size=64, metrics=metrics)
    n = 9
    engine.inject_run("kv", [(f"k{i}", 0) for i in range(n)])
    engine.run()
    assert metrics.rule_firings == {"KV1": 1}
    engine.inject_run("kv", [(f"k{i}", 1) for i in range(n)])
    engine.run()
    assert metrics.rule_firings == {"KV1": 3}
    assert metrics.rule_inferences == {"KV1": 3 * n}
    table = engine.db.table("kv")
    assert (table.replaced, table.run_splits) == (n, 0)
    assert sorted(engine.db.table("out").rows()) == sorted(table.rows())


def test_a_kernel_that_raises_in_the_retraction_half_leaves_the_table():
    """The ``-1`` half fires before anything is removed or inserted: a
    kernel error there leaves the displaced rows stored, with their
    counts, and none of the run's rows half-inserted."""
    engine = kv_engine(64, rows=[("k", 1), ("j", 5)])
    strand, = engine.strands["kv"]
    kernel = strand.kernel

    def refusing(heads, functions, out):
        if ("k", 1) in heads:             # the -1 half: what is displaced
            raise RuntimeError("boom")
        kernel(heads, functions, out)

    strand.kernel = refusing
    enqueue(engine, 1, ("k", 1))          # a bump: booked in place
    for args in [("k", 2), ("m", 7), ("j", 6)]:
        enqueue(engine, 1, args)
    with pytest.raises(RuntimeError, match="boom"):
        engine.run()
    table = engine.db.table("kv")
    assert counts_snapshot(engine.db)["kv"] == {("k", 1): 2, ("j", 5): 1}
    assert table.get_by_key(("m",)) is None
    assert (table.replaced, table.run_splits) == (0, 0)
    assert sorted(engine.db.table("out").rows()) == [("j", 5), ("k", 1)]
    assert not engine.queue


#: The keyed relation ``kv(@N, K, G, V)`` -- slot ``(N, K)``, narrower
#: than the row -- under a plain rule that projects the slot away (so
#: ``out`` rows carry real counts), a ``min`` view and an arg-min view.
KEYED_RULES = """
P: out(@N, G) :- kv(@N, K, G, V).
M: low(@N, min<V>) :- kv(@N, K, G, V).
W: pick(@N, K, G, V) :- kv(@N, K, G, V).
"""
KEYED_PROGRAMS = {
    # A base table: updates are primary-key replacements of base rows.
    "base": ("kv", "materialize(kv, infinity, infinity, keys(1, 2))."),
    # Soft state: an identical re-insertion renews, nothing nets.
    "soft": ("kv", "materialize(kv, 30, infinity, keys(1, 2))."),
    # Rule-derived with a declared key: each slot keeps the latest
    # version derived into it, and withdrawing that version empties it.
    "derived": ("offer", """
materialize(kv, infinity, infinity, keys(1, 2)).
B: kv(@N, K, G, V) :- offer(@N, K, G, V).
"""),
}


def keyed_program(kind):
    base, declarations = KEYED_PROGRAMS[kind]
    program = parse(declarations + KEYED_RULES)
    # The arg-min annotation has no surface syntax (``aggsel`` sets it).
    program.rules[:] = [
        replace(rule, argmin=((0,), 3, "min")) if rule.label == "W" else rule
        for rule in program.rules
    ]
    return base, program


#: (kind, slot, payload, value, pick): ``ins`` writes ``(slot, payload,
#: value)``; ``del`` (counted) and ``wipe`` (forced) target the
#: ``pick``-th row this stream has written.
keyed_ops = st.lists(
    st.lists(
        st.tuples(st.sampled_from(["ins", "ins", "ins", "del", "wipe"]),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=0, max_value=1),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=0, max_value=10_000)),
        min_size=1, max_size=8),
    min_size=1, max_size=3,
)


def keyed_stream_run(kind, bursts, batch_size, provenance):
    """Apply ``bursts`` to the program's base relation, each as one
    enqueued burst run to quiescence.

    A value is ``3 * value + slot``: two slots never tie, so the arg-min
    witness does not depend on which contribution arrived first.  The
    derived table's stream takes each row one way per burst -- never
    inserted once the burst has removed or displaced it, never withdrawn
    once the burst has inserted it -- because a slot there keeps its
    *latest* advertisement and empties when that one is withdrawn,
    whatever it held before: whether an advertisement and its
    withdrawal net at the queue or both commit decides what is left
    (ROADMAP, "a confluence lint").  The base-table streams are
    unrestricted, the re-announced displaced row included, with
    provenance on as well as off."""
    base, program = keyed_program(kind)
    store = ProvenanceStore() if provenance else None
    engine = PSNEngine(program, batch_size=batch_size,
                       provenance=store and store.recorder())
    one_way = kind == "derived"
    table = engine.db.table(base)
    written = []
    for burst in bursts:
        current = {table.key_of(row): row for row in table.rows()}
        inserted, removed = set(), set()
        for op, slot, payload, value, pick in burst:
            if op == "ins":
                row = ("a", f"k{slot}", payload, 3 * value + slot)
                if one_way and row in removed:
                    continue
                old = current.get(table.key_of(row))
                if old is not None and old != row:
                    removed.add(old)
                current[table.key_of(row)] = row
                inserted.add(row)
                written.append(row)
                engine.insert(base, row)
            elif written:
                row = written[pick % len(written)]
                if one_way and row in inserted:
                    continue
                removed.add(row)
                if current.get(table.key_of(row)) == row:
                    del current[table.key_of(row)]
                if op == "wipe":
                    engine.delete(base, row)
                else:
                    engine.inject_run(base, [row], -1)
        engine.run()
    return engine


@pytest.mark.parametrize("provenance", [False, True],
                         ids=["plain", "provenance"])
@pytest.mark.parametrize("kind", sorted(KEYED_PROGRAMS))
@given(bursts=keyed_ops)
@settings(**SETTINGS)
def test_keyed_streams_match_chunks_of_one(kind, provenance, bursts):
    """Tables, derivation counts and views after a random insert /
    update / delete / forced-delete stream on a keyed relation equal the
    ``batch_size=1`` run's at every chunk size; where the keyed relation
    is a base table they also equal what the tests' interpreter derives
    from scratch out of the surviving base rows."""
    def observed(engine):
        return (engine.db.snapshot(), counts_snapshot(engine.db),
                view_rows(engine))

    engines = {size: keyed_stream_run(kind, bursts, size, provenance)
               for size in (1, 2, 7, 64)}
    want = observed(engines[1])
    for size, engine in engines.items():
        assert observed(engine) == want, size
        assert not engine.queue
        for view in [*engine.views.values(), *engine.argmin_views.values()]:
            assert not view.pending, (size, view.pred)
            assert sorted(view.current_rows()) == sorted(
                engine.db.table(view.pred).rows()), (size, view.pred)
        if provenance:
            report = audit_engine(engine)
            assert report.ok, (size, report.mismatches)
    base, program = keyed_program(kind)
    if base == "kv":
        scratch = interpret(PSNEngine(program, batch_size=1))
        scratch.inject_run("kv", engines[1].db.table("kv").rows())
        scratch.run()
        for pred in set(want[0]) - {"kv"}:
            assert scratch.db.snapshot()[pred] == want[0][pred], pred
            assert counts_snapshot(scratch.db)[pred] == want[1][pred], pred


# ----------------------------------------------------------------------
# The stored rows ahead of a batch are one table call (Table.bump_run)
# ----------------------------------------------------------------------
#: One burst: the time that passes ahead of it (the soft table's
#: lifetime is 30), then its ops.  ``dup`` re-announces the ``pick``-th
#: row the keyed table held when the burst began, ``weight`` times over
#: on a hard-state table; ``ins`` writes ``(slot, payload, value)`` --
#: fresh, a replacement, or one more duplicate; ``claim`` is the
#: sweeper passing by mid-burst (due rows leave the deadline order, a
#: forced delete queues behind the refreshes already waiting).
duplicate_ops = st.lists(
    st.tuples(
        st.sampled_from([0.0, 15.0, 31.0]),
        st.lists(
            st.tuples(
                st.sampled_from(["dup", "dup", "dup", "ins", "ins", "claim"]),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=0, max_value=10_000)),
            min_size=1, max_size=10)),
    min_size=1, max_size=4,
)


def duplicate_stream_run(kind, bursts, batch_size):
    """Insert-only bursts, most of them re-announcements of stored
    rows, each run to quiescence.  Fresh rows and replacements enter
    through the program's base relation; duplicates go straight at the
    keyed table (on the derived kind: a second derivation of a stored
    row)."""
    base, program = keyed_program(kind)
    engine = ClockedEngine(program, batch_size=batch_size)
    log = engine.observer = RecordingObserver()
    table = engine.db.table("kv")
    for step, burst in bursts:
        engine.time += step
        stored = sorted(table.rows())
        for op, slot, payload, value, weight, pick in burst:
            if op == "ins":
                engine.inject_run(
                    base, [("a", f"k{slot}", payload, 3 * value + slot)],
                    weight)
            elif op == "claim":
                # (Sorted: rows that share a deadline sit in commit
                # order, which a batch may permute.)
                for args in sorted(table.claim_due(engine.time)):
                    engine.delete("kv", args)
            elif stored:
                engine.inject_run("kv", [stored[pick % len(stored)]], weight)
        engine.run()
    return engine, log


ALL_DUPLICATES = [(0.0, [("ins", slot, 0, 0, 1, 0) for slot in range(3)]),
                  (15.0, [("dup", 0, 0, 0, 2, pick) for pick in range(9)])]
LEADING_DUPLICATES_THEN_FRESH = [
    (0.0, [("ins", 0, 0, 0, 1, 0), ("ins", 1, 0, 0, 1, 0)]),
    (15.0, [("dup", 0, 0, 0, 1, 0), ("dup", 0, 0, 0, 3, 1),
            ("ins", 2, 0, 0, 1, 0), ("ins", 1, 1, 1, 1, 0)])]
DUPLICATES_BEHIND_AN_OPEN_BATCH = [
    (0.0, [("ins", 0, 0, 0, 1, 0), ("ins", 1, 0, 0, 1, 0)]),
    # A fresh row opens the batch; then a stored row on another slot
    # (booked in place), a replacement, the stored row it is about to
    # displace (its slot is touched: the one split), and a row the
    # flushed batch has just stored (a renewal again).
    (15.0, [("ins", 2, 0, 0, 1, 0), ("dup", 0, 0, 0, 2, 1),
            ("ins", 0, 1, 1, 1, 0), ("dup", 0, 0, 0, 1, 0),
            ("ins", 2, 0, 0, 2, 0)])]
DUPLICATES_OF_A_CLAIMED_ROW = [
    (0.0, [("ins", 0, 0, 0, 1, 0), ("ins", 1, 0, 0, 1, 0)]),
    # The refresh ahead of the sweep is counted and re-tracks nothing;
    # the ones behind its deletes re-create the rows, and the second
    # announcement of one of them meets its pending twin (a split).
    (31.0, [("dup", 0, 0, 0, 1, 0), ("claim", 0, 0, 0, 1, 0),
            ("dup", 0, 0, 0, 1, 0), ("dup", 0, 0, 0, 1, 1),
            ("dup", 0, 0, 0, 1, 1)]),
    (15.0, [("claim", 0, 0, 0, 1, 0), ("dup", 0, 0, 0, 1, 0)])]


@pytest.mark.parametrize("kind", sorted(KEYED_PROGRAMS))
@given(bursts=duplicate_ops)
@example(bursts=ALL_DUPLICATES)
@example(bursts=LEADING_DUPLICATES_THEN_FRESH)
@example(bursts=DUPLICATES_BEHIND_AN_OPEN_BATCH)
@example(bursts=DUPLICATES_OF_A_CLAIMED_ROW)
@settings(**{**SETTINGS, "max_examples": 40})
def test_duplicate_heavy_streams_match_chunks_of_one(kind, bursts):
    """Whether a stored row's re-announcement is booked by
    ``Table.bump_run`` ahead of a batch, by ``Table.insert`` behind its
    first row, or commits alone in a chunk of one, the tables, counts,
    deadlines, renewal and replacement counters and the keyed
    relation's observer events come out the same."""
    def observed(engine, log):
        table = engine.db.table("kv")
        signs = {fact: signs for fact, signs in log.commit_signs().items()
                 if fact[0] == "kv"}
        state = (engine.db.snapshot(), counts_snapshot(engine.db),
                 view_rows(engine), dict(table.deadlines),
                 table.renewals, table.replaced, signs)
        if kind == "soft":
            # Nothing nets on a soft table: event for event.
            state += (sorted(e for e in log.events if e[1] == "kv"),)
        return state

    runs = {size: duplicate_stream_run(kind, bursts, size)
            for size in (1, 2, 7, 64)}
    want = observed(*runs[1])
    assert runs[1][0].db.table("kv").run_splits == 0
    for size, (engine, log) in runs.items():
        assert observed(engine, log) == want, size
        assert not engine.queue
        deadlines = list(engine.db.table("kv").deadlines.values())
        assert deadlines == sorted(deadlines), size
        if kind != "soft":
            assert not deadlines and want[4] == 0


@pytest.mark.parametrize("bursts, renewals, replaced, splits", [
    (ALL_DUPLICATES, 9, 0, 0),
    (LEADING_DUPLICATES_THEN_FRESH, 2, 1, 0),
    (DUPLICATES_BEHIND_AN_OPEN_BATCH, 2, 2, 1),
    (DUPLICATES_OF_A_CLAIMED_ROW, 3, 0, 1),
], ids=["all-duplicates", "leading-duplicates", "behind-an-open-batch",
        "claimed-row"])
def test_duplicate_shapes_on_the_soft_table(bursts, renewals, replaced,
                                            splits):
    """The named shapes, whole in one chunk: what each books."""
    engine, _log = duplicate_stream_run("soft", bursts, 64)
    table = engine.db.table("kv")
    assert (table.renewals, table.replaced, table.run_splits) == (
        renewals, replaced, splits)


def test_a_refresh_round_is_one_table_call():
    """Nine stored rows re-announced as one run: one ``bump_run``, no
    per-row ``insert`` or ``in`` -- and a fresh row behind them hands
    the rest of the run to the scan exactly once.  The commit loop tests
    membership on the table's live ``counts`` mapping; ``in`` is logged
    there."""
    base, program = keyed_program("soft")
    engine = ClockedEngine(program, batch_size=64)
    rows = [("a", f"k{i}", 0, i) for i in range(9)]
    engine.inject_run("kv", rows)
    engine.run()
    table = engine.db.table("kv")
    calls = []

    class Membership:
        """The live row -> count mapping, its ``in`` tests logged."""

        def __init__(self, counts):
            self.counts = counts

        def __contains__(self, args):
            calls.append("in")
            return args in self.counts

        def __getitem__(self, args):
            return self.counts[args]

        def get(self, args, default=None):
            return self.counts.get(args, default)

    class Counting(Table):
        def bump_run(self, *args):
            calls.append("bump_run")
            return super().bump_run(*args)

        def insert(self, *args):
            calls.append("insert")
            return super().insert(*args)

    table.__class__ = Counting
    table.counts = Membership(table.counts)
    engine.time = 5.0
    steps = engine.steps
    engine.inject_run("kv", rows)
    engine.run()
    assert calls == ["bump_run"]
    assert table.renewals == 9 and engine.steps == steps + 9
    assert set(table.deadlines.values()) == {35.0}
    del calls[:]
    engine.inject_run("kv", rows[:4] + [("a", "k9", 0, 9)] + rows[4:])
    engine.run()
    # One call ahead of the batch; the stored rows behind its first row
    # are found and booked row by row, then the fresh row is inserted.
    assert calls == ["bump_run", "in"] + ["in", "insert"] * 5 + ["insert"]
    assert table.renewals == 18 and len(table) == 10
