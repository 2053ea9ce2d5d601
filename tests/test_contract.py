"""The contract matrix: Theorems 1 and 3 and their distributed
analogue, every cell checked against one oracle (Theorem 2's inference
counts stay in test_engines.py and test_properties.py).

**Oracle** (:func:`oracle`): the tests' interpreter behind PSN in chunks
of one, run from scratch over the base facts that survive the cell's
update stream.  It shares no join code with the generated kernels.

**Axes**, covered pairwise (:func:`plan`, checked by
``test_the_plan_covers_every_pair``): program (the 11 builtins, plus
:func:`drawn_programs`); passes (every ``aggsel`` / ``localize`` subset
the program compiles under); engine (naive, semi-naive, PSN, BSN on a
random schedule); batch (1, 7, 64: ``batch_size`` or ``cpu_batch``);
target (centralized, sim eager, sim periodic, sim ``reliable`` under a
chaos ``drop``); update stream (insert, delete, update, link flap);
provenance on or off.  Each planned cell runs in :data:`WORLDS` worlds.

A cell asserts the oracle's rows in every relation, its derivation
counts (centralized PSN / BSN, unbuffered clusters), that every view
answered, and a clean audit under provenance.  :data:`CANNOT_RUN` lists
the cells that cannot run, with the reason; a known defect behind one
has a strict xfail of its own.  Plain ``shortest_path_dynamic`` is not
confluent (ROADMAP item 1): its cells are held to
:func:`assert_derivable`.  CI runs the matrix under ``PYTHONHASHSEED``
0, 1 and 2.
"""

import collections
import functools
import itertools
import os
import random
import subprocess
import sys
from typing import Callable, NamedTuple, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.chaos import ChaosSchedule
from repro.engine import Database, naive, seminaive
from repro.engine.bsn import BSNEngine
from repro.engine.psn import PSNEngine
from repro.lint import BUILTINS
from repro.ndlog import parse, programs
from repro.ndlog.ast import Program
from repro.net.reliable import LINK_LIFETIME
from repro.provenance import ProvenanceStore, audit_engine
from repro.runtime import RuntimeConfig
from repro.topology import Overlay, build_overlay, transit_stub

from interpreter import interpret
from test_batching import counts_snapshot
from test_view_netting import assert_views_answered

NODES = ("n0", "n1", "n2", "n3", "n4")
PAIRS = tuple(itertools.combinations(NODES, 2))

ENGINES = ("naive", "seminaive", "psn", "bsn")
SET_ENGINES = {"naive": naive.evaluate, "seminaive": seminaive.evaluate}
BATCHES = (1, 7, 64)
TARGETS = ("central", "eager", "periodic", "reliable")
STREAMS = ("insert", "delete", "update", "flap")
PASS_SUBSETS = ((), ("aggsel",), ("localize",), ("aggsel", "localize"))
MAX_STEPS = 50_000


class Spec(NamedTuple):
    """How a program's base facts look: the relation the stream changes
    (``link`` carries a cost, keyed on its two ends), whether retraction
    streams may run on cyclic data, and the fixed facts beside it."""
    base: str
    cyclic: bool
    extras: Callable[[random.Random], dict] = lambda rng: {}


def _pick(rng, k):
    return [(node,) for node in rng.sample(NODES, k)]


#: Counting retracts only well-founded derivations (a derivation cycle
#: keeps its counts up: test_incremental.py): a program with no path
#: vector or cost bound gets acyclic base facts under a stream that
#: retracts.
PROGRAMS = {
    "distance_vector": Spec("link", True),
    "magic_dst": Spec("link", True, lambda rng: {"magicDst": _pick(rng, 2)}),
    "magic_src_dst": Spec("link", True, lambda rng: {
        "magicSrc": _pick(rng, 2), "magicDst": _pick(rng, 2)}),
    "multi_query_magic": Spec("link", True, lambda rng: {"magicQuery": [
        (s, qid, d) for qid in ("q1", "q2")
        for s, d in [rng.sample(NODES, 2)]]}),
    "reachability": Spec("link", False),
    "same_generation": Spec("parent", False, lambda rng: {
        "person": [(node,) for node in NODES]}),
    "shortest_path": Spec("link", True),
    "shortest_path_dynamic": Spec("link", True),
    "shortest_path_safe": Spec("link", True),
    "transitive_closure": Spec("edge", False),
    "transitive_closure_nonlinear": Spec("edge", False),
}
assert sorted(PROGRAMS) == sorted(BUILTINS)
PROGRAMS_LOCATED = {name for name, spec in PROGRAMS.items()
                    if spec.base == "link"}
#: The programs ``aggsel`` gives an arg-min view, and those it leaves be.
VIEWED = PROGRAMS_LOCATED - {"reachability"}
PLAIN = set(PROGRAMS) - VIEWED


def spec_of(program):
    """A builtin's spec; a drawn program (its source text) runs on links."""
    return PROGRAMS.get(program, Spec("link", True))


# ----------------------------------------------------------------------
# Base facts and update streams
# ----------------------------------------------------------------------
class World:
    """The stream relation's state, ``{pair: cost}`` (``None`` for a
    costless relation) and ``{pair: supports}``, beside the fixed facts.
    A link cost is a small integer plus its own power of 1/8, so two
    routes cost the same only when they are the same -- an arg-min view
    keeps the first of equal witnesses, by design -- and every sum is
    exact in floating point."""

    def __init__(self, spec, rng, acyclic):
        self.spec, self.rng, self.acyclic = spec, rng, acyclic
        self.serial = 0
        self.extras = spec.extras(rng)
        pairs = rng.sample(PAIRS, rng.randint(3, 6))
        self.state = {pair: self.cost() for pair in pairs}
        self.support = dict.fromkeys(pairs, 1)
        self.support[pairs[0]] = 2   # loaded twice: a count of two

    def cost(self, below=None):
        if self.spec.base != "link":
            return None
        self.serial += 1
        top = 4 if below is None else int(below) - 1
        return self.rng.randint(1, top) + 2.0 ** (-3 * self.serial)

    def rows(self, pair, cost=None):
        a, b = pair
        if cost is None:
            cost = self.state.get(pair)
        if self.spec.base == "parent":
            return [(b, a)]
        ends = [(a, b)] if self.acyclic else [(a, b), (b, a)]
        return [end + ((cost,) if cost is not None else ()) for end in ends]

    def facts(self):
        """``{pred: rows}``, a row once per support."""
        facts = {pred: list(rows) for pred, rows in self.extras.items()}
        facts[self.spec.base] = [row for pair, n in self.support.items()
                                 for row in self.rows(pair) * n]
        return facts

    def ops(self, verb, pairs):
        return [(verb, self.spec.base, row)
                for pair in pairs for row in self.rows(pair)]

    def stream(self, kind, improving=False):
        """The steps of one update stream, which moves the state:
        ``("apply", [(verb, pred, row), ...])`` bursts and ``("settle",)``
        pauses that let part of the first burst propagate.  ``insert``
        and ``delete`` are the engine verbs (a delete is forced);
        ``withdraw`` takes one support back (a counted delete)."""
        rng = self.rng
        stored = sorted(self.state)
        fresh = [pair for pair in PAIRS if pair not in self.state]
        if kind == "insert":
            # A second support ahead of the fresh rows and behind them.
            again = rng.sample(stored, 2)
            new = rng.sample(fresh, min(2, len(fresh)))
            for pair in new:
                self.state[pair] = self.cost()
                self.support[pair] = 0
            for pair in again + new:
                self.support[pair] += 1
            return [("apply", self.ops("insert", again[:1])
                     + self.ops("insert", new)
                     + self.ops("insert", again[1:]))]
        if kind == "delete":
            gone, less = rng.sample(stored, 2)
            ops = self.ops("delete", [gone]) + self.ops("withdraw", [less])
            del self.state[gone], self.support[gone]
            self.support[less] -= 1
            if not self.support[less]:
                del self.state[less], self.support[less]
            return [("apply", ops)]
        if kind == "update":
            ops = []
            for pair in rng.sample(stored, 2):
                old = self.state[pair]
                if improving and old < 2:
                    continue
                self.state[pair] = self.cost(old if improving else None)
                self.support[pair] = 1
                ops += self.ops("insert", [pair])
            return [("apply", ops)]
        # A link flap: two links go down and come back while the network
        # is still reacting, and a fresh link is announced and withdrawn
        # in one burst.
        down = rng.sample(stored, 2)
        blip = []
        if fresh:
            pair = rng.choice(fresh)
            blip = self.rows(pair, self.cost())
        first = (self.ops("delete", down)
                 + [("insert", self.spec.base, row) for row in blip]
                 + [("delete", self.spec.base, row) for row in blip])
        for pair in down:
            self.support[pair] = 1
        return [("apply", first), ("settle",),
                ("apply", self.ops("insert", down))]


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def oracle(program: Program, facts) -> Tuple[dict, dict]:
    """Rows and derivation counts of every relation: the interpreter,
    in chunks of one, from scratch over ``facts`` (``{pred: rows}``)."""
    engine = interpret(PSNEngine(program, batch_size=1))
    for pred, rows in facts.items():
        engine.db.load_facts(pred, rows)
    engine.fixpoint(max_steps=MAX_STEPS)
    return engine.db.snapshot(), counts_snapshot(engine.db)


@functools.lru_cache(maxsize=None)
def compiled(name, passes, provenance):
    """A builtin by name, or a drawn program by its source text."""
    program = BUILTINS[name]() if name in BUILTINS else parse(name)
    return repro.compile(program, passes=list(passes), provenance=provenance)


def assert_rows(got, want, what):
    for pred, rows in want.items():
        assert got[pred] == rows, (what, pred, sorted(got[pred] ^ rows)[:6])


def assert_derivable(program, got, facts):
    """ROADMAP item 1's weaker contract: base relations hold the
    surviving base facts; every row of a relation no aggregate feeds is one the program
    derives with its derived keys dropped (each slot may hold any of
    its candidates); every relation an aggregate feeds is exactly what
    the rules make of the rows beside it."""
    heads = {rule.head.pred for rule in program.rules}
    unkeyed = Program(rules=program.rules, facts=program.facts,
                      materializations={
                          pred: spec for pred, spec in
                          program.materializations.items()
                          if pred not in heads})
    universe, _ = oracle(unkeyed, facts)
    downstream = {rule.head.pred for rule in program.rules
                  if rule.head_aggregate() is not None}
    for _ in program.rules:   # close over the rules that read them
        downstream |= {rule.head.pred for rule in program.rules if any(
            literal.pred in downstream for literal in rule.body_literals)}
    for pred, rows in got.items():
        if pred not in downstream:
            assert rows <= universe[pred], (pred, sorted(rows - universe[pred]))
    closing = Program(rules=[rule for rule in program.rules
                             if rule.head.pred in downstream])
    upstream = {pred: got[pred] for pred in closing.predicates()
                if pred not in downstream}
    want, _ = oracle(closing, upstream)
    assert_rows(got, {pred: want[pred] for pred in downstream}, "derivable")


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
class Cell(NamedTuple):
    program: str
    passes: Tuple[str, ...]
    engine: str
    batch: int
    target: str
    stream: str
    provenance: bool
    seed: int

    def __str__(self):
        passes = "+".join(self.passes) or "raw"
        engine = self.engine if self.target == "central" else "node"
        prov = "-prov" if self.provenance else ""
        return (f"{self.program}[{passes}]-{self.target}-{engine}-"
                f"b{self.batch}-{self.stream}{prov}-s{self.seed}")


#: Cells that cannot run, as ``(test, reason)``.
CANNOT_RUN = [
    (lambda c: spec_of(c.program).base != "link" and "localize" in c.passes,
     "a rule joins two locations no link connects: localize refuses it "
     "(test_localization.py)"),
    (lambda c: c.target != "central" and (
        c.engine != "psn" or "localize" not in c.passes),
     "a cluster deploys localized programs, and its nodes run PSN"),
    (lambda c: c.engine in SET_ENGINES and "aggsel" in c.passes
     and c.program not in PLAIN,
     "aggsel feeds an arg-min view back into its own input: a recursive "
     "aggregate, which only the delta engines run (test_engines.py); a "
     "set engine takes a drawn program raw"),
    (lambda c: c.program == "shortest_path_dynamic" and c.engine == "naive",
     "naive re-derives every row each round, and a plain path slot keeps "
     "the last of its candidates: two can displace each other forever "
     "(ROADMAP item 1; about half the worlds)"),
    (lambda c: c.program == "shortest_path" and "aggsel" not in c.passes,
     "Figure 1 without aggregate selection never terminates on cyclic "
     "links (Section 2)"),
    (lambda c: c.program == "shortest_path" and c.stream in (
        "delete", "flap"),
     "an unguarded path has no vector to break a cycle: a cost that "
     "rises counts to infinity (its updates only improve)"),
    (lambda c: c.stream == "update" and spec_of(c.program).base != "link",
     "an update is an insertion over a stored key; edge and parent rows "
     "are their own key"),
    (lambda c: buffered(c) and c.stream != "insert" and not (
        "aggsel" in c.passes and c.program in VIEWED),
     "net-change elimination advertises a slot once, whatever its "
     "count, so withdrawing one derivation retracts the row "
     "(test_a_buffered_row_keeps_its_second_derivation, a strict xfail; "
     "aggsel's one advertisement per slot is what the periodic scheme "
     "assumes, Section 5.1.1)"),
    (lambda c: c.engine in SET_ENGINES and (c.batch != 1 or c.provenance),
     "naive and semi-naive evaluate whole tables: no queue to chunk, no "
     "derivation to record"),
]


def buffered(cell):
    """Whether a cluster cell flushes its links in windows: the periodic
    target, and the reliable one at ``cpu_batch`` 64 under aggsel."""
    return cell.target == "periodic" or (
        cell.target == "reliable" and cell.batch == 64
        and "aggsel" in cell.passes)


def cannot_run(cell):
    return next((reason for test, reason in CANNOT_RUN if test(cell)), None)


def runnable(programs):
    """Every cell over ``programs`` (seed 0) that can run."""
    cells = itertools.starmap(Cell, itertools.product(
        programs, PASS_SUBSETS, ENGINES, BATCHES, TARGETS, STREAMS,
        (False, True), (0,)))
    return [cell for cell in cells if cannot_run(cell) is None]


def pairs(cell):
    """The pairs of axis values (every field but the seed) ``cell``
    covers, and per program: views (aggsel) by batch, engine centrally
    or not, stream under a link reset (reliable) or not."""
    return frozenset(itertools.combinations(enumerate(cell[:-1]), 2)) | {
        (cell.program, "aggsel" in cell.passes, cell.batch),
        (cell.program, cell.engine, cell.target == "central"),
        (cell.program, cell.stream, cell.target == "reliable")}


WORLDS = 3   # base facts, streams, latencies, chaos per planned cell


def plan():
    """A greedy cover of what the builtins' runnable cells cover
    (:func:`pairs`): take the cell that covers the most not yet covered,
    until all is.  Each cell runs in :data:`WORLDS` worlds."""
    every = {cell: pairs(cell) for cell in runnable(sorted(PROGRAMS))}
    uncovered = set().union(*every.values())
    used = collections.Counter()
    cells = []
    while uncovered:
        gain = {cell: len(covers & uncovered) for cell, covers in every.items()}
        best = max(gain.values())
        # Of those that gain as much, the one of the least used values.
        cell = min((cell for cell in every if gain[cell] == best),
                   key=lambda cell: sum(map(used.__getitem__, cell[:-1])))
        uncovered -= every[cell]
        used.update(cell[:-1])
        cells.append(cell._replace(seed=WORLDS * len(cells)))
    return cells


def run_central(cell, program, first, last, steps, rng):
    """The cell's engine over the stream: a set engine evaluates the
    surviving facts ``last``; PSN / BSN converge on the ``first`` facts,
    then take the stream as it comes."""
    if cell.engine in SET_ENGINES:
        db = Database.for_program(program)
        for pred, rows in last.items():
            db.load_facts(pred, rows)
        return SET_ENGINES[cell.engine](program, db)
    recorder = ProvenanceStore().recorder() if cell.provenance else None
    if cell.engine == "bsn":
        engine = BSNEngine(program, batch_size=cell.batch, provenance=recorder,
                           scheduler=lambda n: rng.randint(1, max(1, n)))
    else:
        engine = PSNEngine(program, batch_size=cell.batch, provenance=recorder)
    for pred, rows in first.items():
        engine.db.load_facts(pred, rows)
    engine.fixpoint(max_steps=MAX_STEPS)
    for step in steps:
        if step[0] == "settle":
            engine.run_batch(rng.randint(1, 12))
            continue
        for verb, pred, row in step[1]:
            if verb == "withdraw":
                engine.inject_run(pred, [row], -1)
            else:
                getattr(engine, verb)(pred, row)
    engine.run(max_steps=MAX_STEPS)
    return engine


def overlay(seed):
    """Every pair of :data:`NODES` is a channel; which of them carry
    ``link`` facts is the cell's business (``link_loads={}``)."""
    rng = random.Random(seed)
    return Overlay(nodes=list(NODES), host={node: node for node in NODES},
                   links={pair: {"latency": rng.randint(2, 20),
                                 "hopcount": 1.0} for pair in PAIRS})


def deploy(cell, artifact):
    """A sim cluster on :func:`overlay`; the reliable target drops a
    fifth of its frames (and may buffer: :func:`buffered`)."""
    options = {"cpu_batch": cell.batch}
    if buffered(cell):
        options["buffer_interval"] = 0.05
    if cell.target == "reliable":
        options.update(reliable=True,
                       chaos=ChaosSchedule(seed=cell.seed).drop(rate=0.2))
    deployment = artifact.deploy(topology=overlay(cell.seed), link_loads={},
                                 config=RuntimeConfig(**options))
    # The link relation is what link liveness tears down and restores.
    deployment.link_loads["link"] = "latency"
    return deployment


def run_cluster(cell, deployment, first, steps):
    """Inject the first facts at their locations, converge, play the
    stream.  On the reliable target one end of a linked pair gives the
    link up twice during the cold start, as if it alone had missed a
    lifetime of heartbeats with data in flight: the peer follows its
    epoch, both ends reset, and the pair restores."""
    for pred, rows in first.items():
        for row in rows:
            deployment.inject(row[0], pred, row)
    if cell.target == "reliable":
        # A doubly supported link comes back with one support
        # (test_a_restored_link_keeps_its_count, a strict xfail).
        links = first["link"]
        a, b = min(row[:2] for row in links if links.count(row) == 1)
        transport = deployment.transport
        flow = transport._flow(b, a)
        for time in (0.01, 0.01 + 2 * LINK_LIFETIME):
            deployment.at(time, lambda: transport._expire(flow))
        deployment.advance(until=4 * LINK_LIFETIME)
    deployment.advance()
    for step in steps:
        if step[0] == "settle":
            deployment.advance(until=deployment.now + 0.004)
            continue
        for verb, pred, row in step[1]:
            if verb == "withdraw":
                deployment.node(row[0]).inject_run(pred, [row], -1)
            else:
                verb = "inject" if verb == "insert" else verb
                getattr(deployment, verb)(row[0], pred, row)
    deployment.advance()
    if cell.target == "reliable":
        assert deployment.stats.links_torn_down == 4


def cluster_counts(deployment, like):
    """Every node's derivation counts for the relations in ``like``
    (a located row lives at one node)."""
    counts = {pred: {} for pred in like}
    for node in deployment.nodes.values():
        snapshot = counts_snapshot(node.db)
        for pred in like:
            counts[pred].update(snapshot[pred])
    return counts


def check(cell):
    rng = random.Random(cell.seed)
    spec = spec_of(cell.program)
    world = World(spec, rng, acyclic=not spec.cyclic and cell.stream != "insert")
    artifact = compiled(cell.program, cell.passes, cell.provenance)
    program = artifact.program
    first = world.facts()
    steps = world.stream(cell.stream,
                         improving=cell.program == "shortest_path")
    last = world.facts()
    want, counts = oracle(program, last)
    if cell.target == "central":
        engine = run_central(cell, program, first, last, steps, rng)
        got = engine.db.snapshot()
    else:
        engine = deploy(cell, artifact)
        run_cluster(cell, engine, first, steps)
        got = {pred: engine.rows(pred) for pred in want}
    if cell.program == "shortest_path_dynamic" and "aggsel" not in cell.passes:
        assert_derivable(program, got, last)
    else:
        assert_rows(got, want, str(cell))
        if cell.target == "central" and cell.engine not in SET_ENGINES:
            assert counts_snapshot(engine.db) == counts
            assert_views_answered(engine)
        elif cell.target != "central" and not engine.config.buffer_interval:
            assert cluster_counts(engine, counts) == counts
    if cell.provenance:
        report = engine.audit() if cell.target != "central" \
            else audit_engine(engine)
        assert report.ok, report.mismatches[:5]


PLAN = plan()


#: Planned cells that meet a known defect: strict xfails.
KNOWN = {"shortest_path_dynamic[localize]-reliable-node-b64-flap-prov-s202":
         pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
             "ROADMAP item 8: a re-derivation behind a removal loses its "
             "support in the store (table=1, store=0)"))}


@pytest.mark.parametrize("cell", [
    pytest.param(cell, id=str(cell), marks=KNOWN.get(str(cell), ()))
    for cell in (cell._replace(seed=cell.seed + world) for cell in PLAN
                 for world in range(WORLDS))])
def test_cell(cell):
    check(cell)


# ----------------------------------------------------------------------
# Drawn programs
# ----------------------------------------------------------------------
RULES = {
    "hop": "{h}(@S, D, C) :- #link(@S, Z, C1), {b}(@Z, D, C2), "
           "C := C1 + C2, C < 5.",
    "add": "{h}(@S, D, C) :- {b}(@S, D, C0), C := C0 + 1, C < 5.",
    "self": "{h}(@S, D, C) :- {b}(@S, D, C), {b}(@S, D2, C2), C2 < C.",
    "min": "{h}(@S, D, min<C>) :- {b}(@S, D, C).",
}


@st.composite
def drawn_programs(draw):
    """A safe, stratified, located program over ``#link`` and 2-3
    derived predicates ``p<i>(@S, D, C)``.  ``p0`` copies the links and
    may recurse over them; each later predicate takes one rule over a
    predicate below it -- a link hop, a local step, a self-join or a
    ``min<>`` (then in a keyed table, or not) -- and, unless it is an
    aggregate, may recurse through a link hop.  Every recursive rule
    adds a link cost (at least 1) under ``C < 5``: the fixpoint is
    finite by construction."""
    preds = [f"p{i}" for i in range(draw(st.integers(2, 3)))]
    rules = [f"{preds[0]}(@S, D, C) :- #link(@S, D, C)."]
    if draw(st.booleans()):
        rules.append(RULES["hop"].format(h="p0", b="p0"))
    keyed = []
    for i, head in enumerate(preds[1:], start=1):
        kind = draw(st.sampled_from(sorted(RULES)))
        rules.append(RULES[kind].format(
            h=head, b=preds[draw(st.integers(0, i - 1))]))
        if kind == "min":
            if draw(st.booleans()):
                keyed.append(
                    f"materialize({head}, infinity, infinity, keys(1, 2)).")
        elif draw(st.booleans()):
            rules.append(RULES["hop"].format(h=head, b=head))
    return "\n".join(keyed + [f"r{n}: {rule}" for n, rule in enumerate(rules)])


#: The cells a drawn program can run in: :data:`CANNOT_RUN` reads only
#: whether a program is a builtin, and which.
DRAWN_CELLS = runnable(["drawn"])


@given(source=drawn_programs(), cell=st.sampled_from(DRAWN_CELLS),
       seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_drawn_program(source, cell, seed):
    """A drawn program in a cell drawn from those it can run in."""
    check(cell._replace(program=source, seed=seed))


def test_the_plan_covers_every_pair():
    """Every planned cell can run, and covers what any runnable cell
    covers (:func:`pairs`)."""
    assert all(cannot_run(cell) is None for cell in PLAN)
    assert set().union(*map(pairs, PLAN)) == set().union(
        *map(pairs, runnable(sorted(PROGRAMS))))


# ----------------------------------------------------------------------
# Named cases the matrix leans on
# ----------------------------------------------------------------------
def overlay8():
    return build_overlay(transit_stub(seed=5), n_nodes=8, degree=3, seed=5)


def test_plain_dynamic_routes_depend_on_delivery_order():
    """ROADMAP item 1: plain ``shortest_path_dynamic`` is not confluent.
    A ``path`` slot keeps the latest of several advertisements, so a
    fault-free FIFO run on overlay8 ends on the 34 one-hop routes, while
    a run that loses every frame of one node for half a second (and
    retransmits them) learns of links late and keeps more -- each row
    derivable, the audit clean.  CI runs this under ``PYTHONHASHSEED``
    0, 1 and 2; the lossy row count moves with the seed, the
    difference does not."""
    artifact = repro.compile(programs.shortest_path_dynamic(),
                             passes=["localize"], provenance=True)
    fifo = artifact.deploy(topology=overlay8())
    fifo.advance()
    lossy = artifact.deploy(topology=overlay8(), reliable=True,
                            chaos=ChaosSchedule(seed=1).partition(
                                ["n1"], start=0.0, end=0.5))
    lossy.advance()
    routes = fifo.query_rows()
    assert len(routes) == 34
    assert all(len(path) == 2 for _s, _d, path, _c in routes)
    assert lossy.query_rows() != routes
    facts = {"link": fifo.overlay.link_rows("latency")}
    program = artifact.program
    for run in (fifo, lossy):
        assert_derivable(program, {pred: run.rows(pred)
                                   for pred in program.predicates()}, facts)
        assert run.audit().ok


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Cluster.restore_link re-inserts each torn link row once, whatever "
    "its count"))
def test_a_restored_link_keeps_its_count():
    """A link row held twice (two supports) is torn down when its link
    expires and must come back held twice: a later withdrawal of one
    support leaves the link up."""
    deployment = compiled("reachability", ("localize",), False).deploy(
        topology=overlay(0), link_loads={},
        config=RuntimeConfig(reliable=True))
    deployment.link_loads["link"] = "latency"
    row = ("n0", "n1", 1.0)
    for args in (row, row, ("n1", "n0", 1.0)):
        deployment.inject(args[0], "link", args)
    transport = deployment.transport
    flow = transport._flow("n1", "n0")
    deployment.at(0.01, lambda: transport._expire(flow))
    deployment.advance(until=2 * LINK_LIFETIME)
    assert deployment.stats.links_torn_down == 2
    assert deployment.node("n0").db.table("link").count(row) == 2


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Transport._net_change advertises a slot once, whatever its count"))
def test_a_buffered_row_keeps_its_second_derivation():
    """A drawn program under ``buffer_interval``: n1 derives
    ``p1(n0, n2, 3)`` twice (through ``p0(n1, n2, 2)`` and through
    ``p1(n1, n2, 2)``), a window advertises it once, and a forced delete
    of ``link(n1, n2)`` withdraws one derivation, which retracts the row
    at n0.  Unbuffered, the same run reaches the oracle."""
    source = "\n".join(f"r{n}: {rule}" for n, rule in enumerate([
        "p0(@S, D, C) :- #link(@S, D, C).",
        RULES["hop"].format(h="p1", b="p0"),
        RULES["hop"].format(h="p1", b="p1")]))
    artifact = compiled(source, ("localize",), False)
    deployment = artifact.deploy(topology=overlay(0), link_loads={},
                                 config=RuntimeConfig(buffer_interval=0.05))
    costs = {("n0", "n1"): 1.0, ("n1", "n2"): 2.0, ("n1", "n3"): 1.0,
             ("n3", "n2"): 1.0}
    links = [ends + (cost,) for (a, b), cost in costs.items()
             for ends in ((a, b), (b, a))]
    for row in links:
        deployment.inject(row[0], "link", row)
    deployment.advance()
    gone = ("n1", "n2", 2.0)
    deployment.delete("n1", "link", gone)
    deployment.advance()
    want, _ = oracle(artifact.program,
                     {"link": [row for row in links if row != gone]})
    assert_rows({pred: deployment.rows(pred) for pred in want}, want,
                 "buffered")


@pytest.mark.slow
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_a_cold_start_ships_the_same_bytes_under_every_hash_seed():
    """ROADMAP item 2: a 16-node ``shortest_path`` + aggsel cold start
    (seed 1000) ships the same bytes in the same messages whatever the
    hash seed.  Kernels iterate index buckets in hash order, so today
    the four runs read 120,168 / 121,756 / 121,268 / 121,876 B."""
    script = (
        "import repro\n"
        "from repro.ndlog import programs\n"
        "from repro.topology import build_overlay, transit_stub\n"
        "overlay = build_overlay(transit_stub(seed=1000), n_nodes=16,\n"
        "                        degree=3, seed=1000)\n"
        "run = repro.compile(programs.shortest_path(),\n"
        "                    passes=['aggsel', 'localize']).deploy(\n"
        "    topology=overlay)\n"
        "run.advance()\n"
        "print(run.stats.total_bytes(), run.stats.messages)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    wires = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        wires.add(subprocess.run([sys.executable, "-c", script], env=env,
                                 check=True, capture_output=True,
                                 text=True).stdout)
    assert len(wires) == 1, sorted(wires)
