"""Pipelined semi-naive (PSN) evaluation -- Algorithm 3 of the paper --
extended with the incremental view-maintenance machinery of Section 4.

Every change is a **weighted delta** (a Z-set entry: fact plus integer
weight, insert ``+1`` / delete ``-1``) on a FIFO queue:

* base-table insertions, deletions and updates (update = deletion
  followed by insertion, realized by primary-key replacement);
* derived-tuple insertions/deletions produced by rule strands;
* aggregate-value changes emitted by the incremental aggregate views;
* bulk intents whose weight magnitude exceeds 1 (seeded multiplicities,
  a dead peer's netted contributions), which commit as one weighted
  count adjustment instead of a run of unit deltas.

**Queue runs.**  The queue holds *runs*, plain tuples
``(pred, heads, weights, force, traces)``: deltas of one predicate and
one direction, ``heads`` their argument tuples (a strand kernel's
``out`` list as it is) and ``weights`` the parallel Z-set weights --
``weight`` derivations of ``pred(head)`` asserted (``> 0``) or withdrawn
(``< 0``).  ``force`` removes the row whatever its derivation count
(external base deletions) -- an *assignment*, outside the weight
algebra, so forced intents never net; under provenance a run of
unforced base intents carries ``None`` there, so its base support is
booked where it commits or nets, not where it is queued.  ``traces`` is
``None`` or the parallel trace ids (minted at base-fact injection).  An
enqueue extends the tail run when predicate, direction and ``force``
match, so run boundaries are decided once, on arrival (a forced delta,
or one of a predicate capped at runs of one, is a run of its own), and
``len(queue)`` counts deltas.  A :class:`Fact` is built only where one
is consumed -- for the provenance recorder, and behind the observer
handle (:mod:`repro.obs.observer`) for ``on_commit`` or a commit
listener -- so with those off the loop allocates none.

**Commit discipline.**  The queue is purely event-sourced: table state
is mutated only when a delta is *processed* (dequeued), never when it is
enqueued, so at any processing step the tables hold exactly the facts
whose deltas precede the current one -- the "same or older timestamp"
join prefix of Section 3.3.2 *is* the table itself.  A duplicate
derivation of a visible fact commits as a count bump (no strands); a
deletion of a fact that was superseded in the meantime commits as a
no-op.  A keyed slot holds its latest version only: a replacement
removes the old row outright, and withdrawing the current row leaves
the slot empty (P2's rule, Section 2).

Under this discipline:

* each joint derivation fires exactly once -- when its last participant
  commits; for self-joins, partner positions *before* the driving
  position exclude the driving fact itself, mirroring the delta-rule
  form of the paper's footnote 2 (Theorem 2, no repeated inferences);
* deletions decrement the derivation counts established by insertions
  and never over- or under-count: a dying fact's strands run while it is
  still visible, and any co-participant deleted later no longer sees it
  (Theorems 3/4, eventual consistency under bursty updates, using the
  count algorithm of [15]).

One engine therefore serves as the paper's PSN evaluator *and* its
materialized-view maintenance layer.

**Strand kernels.**  Every strand runs as a *generated kernel*
(:mod:`repro.engine.kernels`): its join plan (:mod:`repro.engine.rules`
-- literal order by bound-ness and estimated selectivity) is turned
into the source of one flat Python function -- driving tuple unpacked
into locals, one loop per partner literal over that table's live index
dict, conditions, assignments and the head tuple inlined -- compiled
once per program and bound per engine to its tables.  A firing is one
kernel call over a run's heads, its driving tuples -- builtins resolved
once, the hot ``f_member`` / ``f_concatPath`` shapes expanded in place,
so no Python call is made per joined tuple -- into one list of head
tuples, then emits them in one call.

**One commit path: chunks of runs.**  The queue is drained in chunks of
up to ``batch_size`` deltas (Section 4's "bursty updates" processed as
bursts; PSN "can allow just as much buffering as BSN", Section 3.3.2):

1. *Weight netting at the queue* -- Z-set addition applied before any
   table or strand work: within a chunk, the intents on one primary-key
   slot collapse to a single intent carrying the sum of their weights,
   and a zero sum vanishes outright.  Cancellation is not a special
   case -- it is the group law.  Folding is restricted to slots where
   it is provably equivalent to sequential replay: every chunk intent
   on the slot must target one identical tuple, none may be forced
   (primary-key replacement and forced deletion are assignments, not
   group elements, so weights must not flow across them), the table must not be soft-state (a re-insertion there
   renews a deadline and adds no derivation, so a renewal followed by a
   counted withdrawal is not addition), the stored row under the key --
   if any -- must be that same tuple, and no prefix of the slot's
   intents may sum negative (stored counts floor at zero, so an early
   withdrawal is sequentially a decrement *or* a no-op, which addition
   cannot predict).  Within that envelope, committing the summed
   weight is *exactly* the sequential outcome: duplicate insertions
   are one count bump of ``+w``, deletions one decrement, and the
   visibility transition (strand firing) happens at most once either
   way.  Every other intent replays in its original position.  Every
   slot that can fold therefore holds two unforced intents on one
   tuple of a hard-state table, so a chunk where no such fact repeats
   folds nothing: one set test per run finds that out before any slot
   is keyed, and only a chunk with a repeat pays the slot pass.
2. *Runs* -- the chunk is the queue's runs, the last one cut where the
   chunk ends; each commits to the table in order, and every strand of
   its predicate then fires **once per run** with the run's heads.
   Only a chunk whose unforced runs carry both signs can net, so only
   such a chunk is netted (its survivors merge as the queue merges).
   Commit-then-fire is join-for-join identical to firing after each commit because a run
   never touches its own partner tables -- so a predicate with a
   self-join strand (a rule both driven by and joining against it)
   gets runs capped at one delta, as do forced deletions and (in the
   distributed runtime) the cache-intercepted query predicate.  A run
   of one is still a run: same methods, nothing to amortize.

   A run of insertions is a *batch* of updates, and an update is
   ``{(old, -1), (new, +1)}``: the rows the run displaces by
   primary-key replacement leave as **one** ``-1`` run, fired while
   they are still in the table, and the rows that became visible
   arrive as **one** ``+1`` run -- two firings per strand for n
   replacements, not 2n.  That holds while no two rows of the batch
   share a primary-key slot; a row that reaches a slot the pending
   batch has touched (the row it would displace is itself pending, a
   second version of one slot, a displaced row announced again)
   commits the batch first and opens the next, so the interleaving
   survives exactly there (``Table.run_splits`` counts it,
   ``Table.replaced`` the displaced rows).  What this orders
   differently from chunks of one is intermediate traffic only: a
   run's retractions reach ``on_commit``, the queue and the wire ahead
   of its insertions, so which deltas share a later chunk or transport
   window can shift; what a confluent program computes cannot.
3. *A view answers once per chunk* -- every firing of an aggregate or
   arg-extreme rule, a lone row's like a run's, feeds its heads to the
   view through ``apply_many``.  The view applies them in order and
   *adds* what they emit to its pending net (head -> -1, 0 or +1);
   :meth:`PSNEngine.process_chunk` drains every view once, after the
   chunk's last run, and queues the nonzero heads (a slot's ``-`` ahead
   of its ``+``, each under the trace of the last contribution that
   moved it).  The chunk commits at one virtual instant, so an update
   -- ``{(old, -1), (new, +1)}``, whether it arrives as a primary-key
   replacement or as a ``-old`` run and a ``+new`` run -- reaches the
   rules downstream of a view as the output delta *of the batch*: a
   re-costed best path is one ``-old`` / ``+new`` pair, not retract,
   promote the runner-up, retract it, insert.  Section 5.1.1's periodic
   aggregate selections buffer new paths and propagate the new
   shortest ones once per interval; here the chunk is that buffer.

``batch_size=1`` (the default) is the same path on chunks of one:
nothing to net at the queue, every run a single delta -- a batch of
one, its ``-old`` fired just ahead of its ``+new`` -- and a view
answers after each delta -- Algorithm 3 as written, and the
differential reference.  (A replacement is one delta: its retraction
and its insertion share the chunk at every size.)  Larger chunks may
change the *intermediate* delta traffic (zero-weight runs never commit,
views skip transient values, a run's retractions precede its
insertions) but never the fixpoint or the final derivation counts --
``tests/test_batching.py``, ``tests/test_zset.py`` and
``tests/test_view_netting.py`` hold every batch size to that.

"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from time import perf_counter
from typing import (
    Callable, Deque, Dict, List, Mapping, Optional, Tuple, Union,
)

from repro.errors import EvaluationError
from repro.engine.aggregates import (
    AggregateView,
    ArgExtremeView,
    aggregate_view,
)
from repro.engine.database import Database, Schema, program_schemas
from repro.engine.facts import Fact
from repro.engine.fixpoint import EvalResult
from repro.engine.table import INFINITY
from repro.engine.kernels import strand_kernel
from repro.engine.rules import CompiledRule, StatsCatalog, shared_compiled_rules
from repro.obs.observer import Observer
from repro.ndlog.ast import Literal, Program
from repro.ndlog.terms import evaluate as eval_term

DEFAULT_MAX_STEPS = 20_000_000


#: One run on the queue (layout and field meanings: module docstring,
#: "Queue runs").
Run = Tuple[str, List[Tuple], List[int], Optional[bool], Optional[List]]


def _mixed(runs: List[Run]) -> bool:
    """Whether the unforced runs of a chunk carry both signs -- the
    only chunk netting can fold anything in."""
    plus = minus = False
    for _, _, weights, force, _ in runs:
        if not force:
            if weights[0] > 0:
                plus = True
            elif weights[0] < 0:
                minus = True
    return plus and minus


def _part(run: Run, positions) -> Run:
    """``run``'s deltas at increasing ``positions`` (all: ``run``)."""
    pred, heads, weights, force, traces = run
    if len(positions) == len(heads):
        return run
    return (pred, [heads[i] for i in positions],
            [weights[i] for i in positions], force,
            None if traces is None else [traces[i] for i in positions])


class RunQueue:
    """PSN's FIFO of runs (module docstring, "Queue runs").  ``len``
    counts the deltas queued, not the runs; the first ``offset`` deltas
    of the front run are already taken."""

    __slots__ = ("runs", "depth", "offset", "single_delta")

    def __init__(self, single_delta):
        self.runs: Deque[Run] = deque()
        self.depth = self.offset = 0
        #: Predicates whose runs are capped at one delta.
        self.single_delta = single_delta

    def __len__(self) -> int:
        return self.depth

    def push(self, pred: str, heads, weights, force, traces) -> None:
        """Queue a run: extend the tail run with it when the two share
        predicate, direction and ``force`` (unforced), else append it
        -- a forced run, or one of a ``single_delta`` predicate, as
        runs of one.  The lists become the queue's: a tail run's grow
        in place."""
        if not heads:
            return
        runs = self.runs
        self.depth += len(heads)
        if force or pred in self.single_delta:
            for index, head in enumerate(heads):
                runs.append((pred, [head], [weights[index]], force,
                             None if traces is None else [traces[index]]))
            return
        if runs:
            tail_pred, tail_heads, tail_weights, tail_force, tail_traces = (
                runs[-1])
            if (tail_pred == pred and tail_force is force
                    and (tail_weights[0] > 0) == (weights[0] > 0)):
                if traces is not None and tail_traces is None:
                    runs[-1] = (pred, tail_heads, tail_weights, force,
                                [None] * len(tail_heads) + traces)
                elif tail_traces is not None:
                    tail_traces += traces or [None] * len(heads)
                tail_heads += heads
                tail_weights += weights
                return
        runs.append((pred, heads, weights, force, traces))

    def take(self, count: int) -> List[Run]:
        """Dequeue the first ``count`` deltas (at most ``len``) as runs,
        in order.  A run the cut falls inside stays queued behind a
        larger ``offset``; only what is taken of it is copied out, so
        draining a long run in chunks of one stays linear."""
        runs, offset = self.runs, self.offset
        self.depth -= count
        if not (self.depth or offset):
            taken = list(runs)
            runs.clear()
            return taken
        taken = []
        while count:
            _, heads, _, _, _ = run = runs[0]
            size = len(heads) - offset
            if size > count:
                self.offset = offset + count
                taken.append(_part(run, range(offset, self.offset)))
                return taken
            runs.popleft()
            taken.append(_part(run, range(offset, len(heads))) if offset
                         else run)
            count -= size
            offset = 0
        self.offset = 0
        return taken


class Strand:
    """One rule strand: a compiled rule driven by one body literal
    position, as in Figures 3 and 5 of the paper.

    ``kernel(heads, functions, out)`` is everything the hot path needs:
    it appends to ``out``, driving tuple by driving tuple, every head
    tuple the run's ``heads`` derive against ``db``'s tables -- a
    generated function (:mod:`repro.engine.kernels`) for the literal
    order ``stats`` (a :class:`StatsCatalog`) implies, called once per
    firing (and, traced, once per driving tuple with ``(head,)``).
    ``code`` is the shared
    :class:`StrandKernel`, generated at most once per program,
    ``kernel_source`` its text; only the table/index binding happens
    here.  ``capture_kernel`` is the provenance variant, whose ``out``
    receives ``(head, ground body facts)`` pairs.  Either is bound on
    first need (:meth:`bind`).

    ``head`` is the head predicate and ``sink`` where a firing's heads
    go: the engine's view of an aggregate or arg-extreme rule, or
    ``None`` for the queue (:meth:`PSNEngine._emit`); the engine binds
    it once, when it builds its views.
    """

    __slots__ = ("crule", "driver_index", "driver_literal", "code",
                 "kernel", "capture_kernel", "_db", "head", "sink")

    def __init__(self, crule: CompiledRule, driver_index: int,
                 db: Database, stats):
        self.crule = crule
        self.driver_index = driver_index
        self.driver_literal: Literal = crule.body[driver_index]
        self.code = strand_kernel(crule, driver_index, stats)
        self.kernel: Optional[Callable] = None
        self.capture_kernel: Optional[Callable] = None
        self._db = db
        self.head: str = crule.head.pred
        self.sink: Optional[Union[AggregateView, ArgExtremeView]] = None

    def bind(self, capture: bool) -> Callable:
        """Bind (and keep) the plain or the capture kernel; registers
        every index the kernel probes."""
        kernel = self.code.bind(self._db, capture)
        if capture:
            self.capture_kernel = kernel
        else:
            self.kernel = kernel
        return kernel

    @property
    def kernel_source(self) -> str:
        """Generated source of the kernel."""
        return self.code.source()

    def __repr__(self) -> str:
        return (f"Strand({self.crule.label}, "
                f"driver={self.driver_literal.pred}, "
                f"{self.code.filename()} order={self.code.plan.order})")


def build_strands(compiled: List[CompiledRule], db: Database,
                  stats) -> Dict[str, List[Strand]]:
    """Index strands by driving predicate.

    Every body literal position of every rule yields a strand, so a new
    fact for *any* body predicate (derived or base -- base-table updates
    arrive at runtime, Section 4) re-fires the rule.
    """
    strands: Dict[str, List[Strand]] = {}
    for crule in compiled:
        for index in crule.literal_indexes:
            strand = Strand(crule, index, db, stats)
            strands.setdefault(strand.driver_literal.pred, []).append(strand)
    return strands


class PSNEngine:
    """Pipelined semi-naive engine over one database.

    ``on_commit(fact, weight)`` (if given) observes every visible table
    change, in commit order -- used by the distributed runtime and the
    experiment harness.  ``weight`` is the Z-set weight of the
    visibility transition: ``+k`` derivations became visible (a bulk
    burst counts ``k``, not 1), ``-k`` left visibility (the count the
    fact held when retracted).  The sign is the transition direction,
    so sign-only consumers keep working unchanged.  The magnitude
    depends on where netting folds (a fresh row inserted twice in one
    chunk becomes visible as one ``+2``, in chunks of one as a ``+1``
    and a silent count bump), and "commit order" is the order of the
    batches: a run of insertions reports the rows it displaces, each
    under its own replacer's trace, *before* the rows it makes visible
    (chunks of one interleave them).  What every chunk size agrees on
    is the net of transition *signs* per fact.

    ``on_commit`` and ``metrics`` / ``tracer`` / ``profiler`` (a
    :class:`~repro.obs.metrics.NodeMetrics` holder, a
    :class:`~repro.obs.trace.NodeTracer`, a
    :class:`~repro.obs.profile.Profiler`) are composed into
    ``self.observer``, the one handle the engine raises its events on
    (``inject``, ``fire``, ``derive``, ``net``, ``renew``, ``commit``:
    :mod:`repro.obs.observer`) -- ``None`` when none is given, so the
    unobserved path is one check per site.  ``provenance`` stays its
    own handle: it is part of the run, not a subscriber to it.

    ``batch_size`` is the chunk size the queue is drained in: 1 (the
    default) processes one delta per step exactly as Algorithm 3
    writes it; larger chunks are netted and committed run by run (see
    the module docstring).

    ``schemas`` (default: :func:`~repro.engine.database.program_schemas`
    of ``program``) builds the tables when no ``db`` is given and caps
    the runs of self-joining predicates; a deployment's nodes pass
    their artifact's one dict.
    """

    def __init__(
        self,
        program: Program,
        db: Optional[Database] = None,
        on_commit: Optional[Callable[[Fact, int], None]] = None,
        batch_size: int = 1,
        provenance=None,
        metrics=None,
        tracer=None,
        profiler=None,
        schemas: Optional[Mapping[str, Schema]] = None,
    ):
        self.program = program
        if schemas is None:
            schemas = program_schemas(program)
        self.db = db if db is not None else Database(schemas=schemas)
        self.compiled = shared_compiled_rules(program)
        self.batch_size = max(1, int(batch_size))
        self.strands = build_strands(self.compiled, self.db,
                                     StatsCatalog.from_database(self.db))
        #: Predicates whose runs are capped at one delta: those whose
        #: schema says so (a self-join), plus subclass-specific
        #: exclusions.
        self._single_delta = {
            pred for pred, schema in schemas.items() if schema.single_delta
        }
        self._single_delta.update(self._single_delta_preds())
        #: Aggregate heads (a ``min<>``/``max<>`` head's view is an
        #: ArgExtremeView) and aggregate selections.
        self.views: Dict[str, Union[AggregateView, ArgExtremeView]] = {}
        self.argmin_views: Dict[str, ArgExtremeView] = {}
        for crule in self.compiled:
            if crule.aggregate is not None and crule.head.pred not in self.views:
                self.views[crule.head.pred] = aggregate_view(
                    crule.head.pred, crule.aggregate
                )
            if crule.argmin is not None and crule.head.pred not in self.argmin_views:
                group_positions, value_position, func = crule.argmin
                self.argmin_views[crule.head.pred] = ArgExtremeView(
                    crule.head.pred, group_positions, value_position, func
                )
        #: Every view, in the order :meth:`process_chunk` drains them.
        self._all_views = [*self.views.values(), *self.argmin_views.values()]
        for strand_list in self.strands.values():
            for strand in strand_list:
                # Binding now registers every probed index up front.
                strand.bind(capture=provenance is not None)
                crule = strand.crule
                if crule.aggregate is not None:
                    strand.sink = self.views[strand.head]
                elif crule.argmin is not None:
                    strand.sink = self.argmin_views[strand.head]
        #: Hard-state predicates -- the only ones netting may fold
        #: (module docstring, "Weight netting at the queue").
        self._foldable = frozenset(
            pred for pred, table in self.db.tables.items()
            if table.lifetime == INFINITY)
        self.queue = RunQueue(self._single_delta)
        #: Insertions committed so far, bumps and renewals included: the
        #: clock provenance records are stamped with (tables keep no
        #: per-row timestamp).
        self.clock = 0
        self.inferences = 0
        self.steps = 0
        self.cancelled = 0
        #: Optional :class:`~repro.provenance.store.ProvenanceRecorder`.
        #: Every hook site below is guarded by one ``None`` check, so
        #: the disabled path (the default) costs nothing.
        if provenance is not None:
            if provenance.clock is None:
                # Derive (never mutate) the caller's recorder: stamp
                # records with this engine's delta clock.
                provenance = provenance.bind(
                    clock=lambda: float(self.clock)
                )
            provenance.register_views(
                set(self.views) | set(self.argmin_views)
            )
        self.provenance = provenance
        #: Who watches (:class:`~repro.obs.observer.Observer`), or ``None``.
        self.observer = Observer.compose(metrics, tracer, profiler, on_commit)
        #: Trace id of the delta currently being processed (always
        #: ``None`` when tracing is off); rule firings read it so every
        #: derived delta inherits its driver's trace.
        self._active_trace: Optional[int] = None

    def now(self) -> float:
        """Time source for soft-state deadlines (overridable: a
        centralized engine has no clock, and nothing there sweeps)."""
        return 0.0

    def _single_delta_preds(self):
        """Extra predicates whose runs are capped at one delta
        (subclass hook; the distributed node runtime caps its
        cache-intercepted query predicate)."""
        return ()

    # ------------------------------------------------------------------
    # External change API (base tables; Section 4's insert/delete/update)
    # ------------------------------------------------------------------
    def insert(self, pred: str, args: Tuple) -> None:
        """Insert a base tuple.  A primary-key match with different
        attributes (detected at commit) is an *update*: the old tuple is
        deleted first, exactly as "an update is treated as a deletion
        followed by an insertion"."""
        self.inject_run(pred, (args,))

    def delete(self, pred: str, args: Tuple) -> None:
        """Delete a base tuple outright (whatever its derivation count)."""
        self.inject_run(pred, (args,), -1, True)

    def inject_run(self, pred: str, rows, weight: int = 1,
                   force: bool = False) -> None:
        """Base-fact injection of a run of ``pred`` rows (:meth:`insert`
        and :meth:`delete` are runs of one).  Traced, each row mints the
        trace id its derivations carry.  Under provenance an unforced
        run carries ``None`` for ``force``: it is base support, booked
        where it commits -- never here, where a forced delete or
        displacement committing ahead of it would wipe it.  As in
        :meth:`derive`, a zero ``weight`` is a no-op."""
        if not weight:
            return
        heads = list(map(tuple, rows))
        observer = self.observer
        traces = None
        if observer is not None and observer.traced:
            traces = list(observer.inject(pred, heads, weight))
        if not force:
            force = None if self.provenance is not None else False
        self._enqueue(pred, heads, [weight] * len(heads), force, traces)

    def update(self, pred: str, args: Tuple) -> None:
        """Alias of :meth:`insert`; replacement does the delete half."""
        self.insert(pred, args)

    # ------------------------------------------------------------------
    # Derivation sink (strand outputs and external inserts)
    # ------------------------------------------------------------------
    def derive(self, fact: Fact, weight: int) -> None:
        """Queue a weighted derivation (any nonzero integer; zero is a
        no-op).  Purely event-sourced: no table state is consulted or
        mutated here, so intents are interpreted at processing time
        against exactly the prefix of changes that precede them (this is
        what makes interleaved insert/delete bursts of Section 4
        confluent).  Strand firings always carry ``+-1`` (a visibility
        transition); larger magnitudes arrive from seeding, dead-peer
        invalidation and netted remote batches."""
        self._derive(fact.pred, fact.args, int(weight))

    def _derive(self, pred: str, args: Tuple, weight: int) -> None:
        """:meth:`derive` on a bare row (view outputs, cache answers)."""
        if weight:
            trace = self._active_trace
            if trace is not None:
                self.observer.span("derive", pred, args, weight, trace)
            self._enqueue(pred, [args], [weight], False,
                          None if trace is None else [trace])

    # ------------------------------------------------------------------
    # Fixpoint driving
    # ------------------------------------------------------------------
    def fixpoint(self, max_steps: int = DEFAULT_MAX_STEPS) -> EvalResult:
        """Seed pre-loaded rows and program facts, then run the queue dry."""
        self.seed_existing()
        for fact in self.program.facts:
            values = tuple(
                eval_term(arg, {}, self.db.functions) for arg in fact.args
            )
            self.insert(fact.pred, values)
        self.run(max_steps=max_steps)
        return EvalResult(
            db=self.db, inferences=self.inferences, steps=self.steps,
            provenance=(self.provenance.store
                        if self.provenance is not None else None),
            program=self.program,
        )

    def seed_existing(self) -> None:
        """Move rows loaded before the engine existed onto the queue, so
        they flow through the same commit pipeline as everything else
        (base rows, as :meth:`inject_run` tags them)."""
        base = None if self.provenance is not None else False
        for table in self.db.tables.values():
            for args in table.rows():
                count = table.count(args)
                table.force_delete(args)
                self._enqueue(table.name, [args], [count], base, None)

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> int:
        """Process queued deltas until quiescent; returns steps taken.

        The limit is exact: at most ``max_steps`` deltas are consumed
        off the queue (cancelled intents included), and the engine
        raises as soon as a further delta would exceed it (not one
        delta too late).
        """
        taken = self.run_batch(max_steps)
        if self.queue.depth:
            raise EvaluationError(
                f"PSN exceeded {max_steps} steps (non-terminating "
                f"program?)",
                engine="psn",
            )
        return taken

    def run_batch(self, batch: int) -> int:
        """Process at most ``batch`` deltas (used by BSN scheduling)."""
        taken = 0
        while self.queue.depth and taken < batch:
            taken += self.process_chunk(min(self.batch_size, batch - taken))
        return taken

    @property
    def quiescent(self) -> bool:
        return not self.queue.depth

    def _enqueue(self, pred: str, heads, weights, force, traces) -> None:
        """Queue a run (:meth:`RunQueue.push`; overridable: the
        distributed node runtime also schedules a processing tick)."""
        self.queue.push(pred, heads, weights, force, traces)

    # ------------------------------------------------------------------
    # Core processing
    # ------------------------------------------------------------------
    def process_next(self) -> None:
        """Process one delta: a chunk of one."""
        self.process_chunk(1)

    def process_chunk(self, limit: int) -> int:
        """Drain up to ``limit`` deltas as one chunk; returns the number
        of deltas consumed off the queue (cancelled pairs included).

        The chunk is the queue's runs, the last one cut where the chunk
        ends (:meth:`RunQueue.take`).  Only a chunk whose unforced runs
        carry both signs can net, so only such a chunk is netted; each
        run then commits in order.  Under a profiler (the observer is
        ``timed``) :meth:`_clocked_chunk` does the same, phase by
        phase."""
        count = min(limit, self.queue.depth)
        if count <= 0:
            return 0
        self.steps += count
        observer = self.observer
        if observer is not None and observer.timed:
            return self._clocked_chunk(count, observer)
        runs = self.queue.take(count)
        if _mixed(runs):
            runs = self._net_chunk(runs)
        try:
            for run in runs:
                if run[2][0] > 0:
                    self._commit_insert_run(run)
                else:
                    self._commit_delete_run(run)
        finally:
            # The views answer now, once, for the whole chunk (also when
            # a kernel raised: their state already reflects what the
            # chunk fed them, and the tables downstream must follow).
            for view in self._all_views:
                if view.pending:
                    self._answer(view)
        return count

    def _clocked_chunk(self, count: int, observer: Observer) -> int:
        """:meth:`process_chunk`'s work on ``count`` deltas, each phase
        clocked and raised as one ``chunk`` event: take (the queue's
        runs and the sign test), net, commit (the table work and the
        strand firings it triggers, which the firings' own clocks
        split off) and the views' answer."""
        clock = perf_counter
        started = clock()
        runs = self.queue.take(count)
        mixed = _mixed(runs)
        taken = clock()
        if mixed:
            runs = self._net_chunk(runs)
        netted = clock()
        try:
            for run in runs:
                if run[2][0] > 0:
                    self._commit_insert_run(run)
                else:
                    self._commit_delete_run(run)
        finally:
            committed = clock()
            for view in self._all_views:
                if view.pending:
                    self._answer(view)
            observer.chunk(taken - started, netted - taken,
                           committed - netted, clock() - committed)
        return count

    def _answer(self, view) -> None:
        """Queue what ``view``'s pending net holds (at a chunk's end)."""
        pred = view.pred
        for weight, args, trace in view.drain():
            self._active_trace = trace
            self._derive(pred, args, weight)

    def _net_chunk(self, runs: List[Run]) -> List[Run]:
        """Net the chunk by Z-set addition before any table or strand
        work -- [Gupta et al. 93]'s count algorithm as a group law
        (eligibility rules: module docstring, "Weight netting at the
        queue").  Weights fold per primary-key *slot*; an eligible slot
        netting to zero annihilates outright (the sequential wave/unwave
        pairs end exactly where they started), a positive net commits
        as one weighted delta in the slot's first position, and
        everything else replays intent-by-intent in original order,
        merged into runs as the queue merges them (nothing folds: the
        chunk's runs as they are).  The slot pass runs only where an
        unforced row of a hard-state table repeats (one set update per
        run; a row two predicates share reads as a repeat, and the
        exact slot pass then runs for nothing)."""
        foldable = self._foldable
        rows: set = set()
        unforced = 0
        for pred, heads, _, force, _ in runs:
            if not force and pred in foldable:
                rows.update(heads)
                unforced += len(heads)
        if len(rows) == unforced:
            return runs
        table_of = self.db.table
        # slot -> [args, eligible, first position, weights in order,
        #          folded weight or None]
        groups: Dict[Tuple[str, Tuple], List] = {}
        slots: List[Tuple[str, Tuple]] = []
        for pred, heads, weights, force, _ in runs:
            table = table_of(pred)
            key_of = table.key_of
            foldable = not force and table.lifetime == INFINITY
            for index, args in enumerate(heads):
                slot = (pred, key_of(args))
                group = groups.get(slot)
                if group is None:
                    groups[slot] = [args, foldable, len(slots),
                                    [weights[index]], None]
                else:
                    if force or group[0] != args:
                        group[1] = False
                    group[3].append(weights[index])
                slots.append(slot)
        folded = False
        for slot, group in groups.items():
            args, eligible, _, weights, _ = group
            if not eligible or len(weights) < 2:
                continue
            weight = low = 0
            for own in weights:
                weight += own
                if weight < low:
                    low = weight
            if low < 0:
                continue
            stored = table_of(slot[0]).get_by_key(slot[1])
            if stored is not None and stored != args:
                continue
            group[4] = weight
            folded = True
        if not folded:
            return runs
        survivors = RunQueue(self._single_delta)
        netted = position = 0
        for pred, heads, weights, force, traces in runs:
            for index, args in enumerate(heads):
                _, _, first, slot_weights, weight = groups[slots[position]]
                own = weights[index]
                trace = None if traces is None else traces[index]
                position += 1
                if weight is None:
                    survivors.push(pred, [args], [own], force,
                                   None if traces is None else [trace])
                    continue
                if force is None:
                    # Netting is where a base intent commits (nothing
                    # else in this chunk can retract its fact: that
                    # would be a forced row or another version in the
                    # same slot).
                    self.provenance.base(Fact(pred, args), own)
                if weight == 0:
                    netted += 1
                elif position - 1 == first:
                    netted += len(slot_weights) - 1
                    # The folded intent keeps the first delta's trace
                    # (the slot's other traces end here with a net span
                    # below).
                    survivors.push(pred, [args], [weight], False,
                                   None if traces is None else [trace])
                    continue
                if trace is not None:
                    # This intent was annihilated (or folded into the
                    # slot's first position) by Z-set addition: its
                    # trace's propagation ends at the queue.
                    self.observer.span("net", pred, args, own, trace)
        self.cancelled += netted
        return list(survivors.runs)

    def _commit_insert_run(self, run: Run) -> None:
        """Commit a run of same-predicate weighted insertions as two
        runs: the rows it displaces leave, then the rows that became
        visible arrive, and each strand fires once per half.

        One scan books what changes no visibility in place -- a count
        bump, a soft-state renewal; the stored rows ahead of a batch in
        one :meth:`Table.bump_run <repro.engine.table.Table.bump_run>`
        call, so a refresh round is that call and nothing else -- and
        gathers every other row into the pending *batch*, one row per
        primary-key slot.  The batch
        commits as a ``-1`` run of the rows its slots still hold (an
        update is ``{(old, -1), (new, +1)}``; each old row travels under
        its replacer's trace), fired **while they are still in the
        table** -- a dying fact's strands must see it, as in
        :meth:`_commit_delete_run`, and a kernel that raises there
        leaves the table as it found it -- then their removal, the
        insertions, and a ``+1`` run.

        That is join-for-join what firing around each commit computes
        as long as *no two rows of a batch share a slot*: the halves
        then touch disjoint rows, and unless the run is a single delta
        the predicate has no self-join strand (capped by the queue),
        so neither firing reads a table this run writes.  A row that
        reaches a slot the pending batch has touched -- the row it
        would displace is itself pending, a second version of one slot,
        a row announced again while it waits to be displaced -- commits
        the batch first and opens the next (``table.run_splits``): the
        interleaving survives exactly where it is needed.  What moves
        is intermediate traffic only: on ``on_commit``, the queue and
        the wire a run's retractions now precede its insertions, so
        which deltas share a later chunk or transport window can
        shift."""
        pred, heads, weights, force, traces = run
        table = self.db.table(pred)
        # One deadline per run; none for a hard-state table.
        deadline = (None if table.lifetime == INFINITY
                    else self.now() + table.lifetime)
        bump_run = table.bump_run
        observer, provenance = self.observer, self.provenance
        base = force is None    # a base run (provenance is on)
        tracing = observer is not None and observer.traced
        renewed = 0
        renewals: Optional[List[int]] = [] if tracing else None
        index, stop = 0, len(heads)
        counts = None
        while index < stop:
            # Where a batch would open, the stored rows ahead of it are
            # one table call -- more derivations of visible facts: a
            # count bump of each row's whole weight, or on a soft-state
            # table a renewal (Section 4.2: "reinserted ... with a new
            # TTL"): the table moves the deadline and that is all, no
            # count, observer or strand.  Decided here, at dequeue: an
            # expiry delete queued ahead has already removed the row.
            # A refresh round ends at this call.
            opened = bump_run(heads, weights, index, stop, deadline)
            if opened > index:
                if base:
                    for i in range(index, opened):
                        provenance.base(Fact(pred, heads[i]), weights[i])
                self.clock += opened - index
                if deadline is not None:
                    renewed += opened - index
                    if renewals is not None:
                        renewals += range(index, opened)
                if opened == stop:
                    break
            if counts is None:
                # What only a batch reads, bound once a row is found
                # not stored (a refresh round never gets here).
                counts, key_of, get_by_key, insert = (
                    table.counts, table.key_of, table.get_by_key,
                    table.insert)
                committing = observer is not None and pred in observer.heard
            # The pending batch, opened by the first row that is not
            # stored: its rows' positions, the rows their slots hold now
            # (the ``-1`` run they leave in, under their replacers'
            # traces), and the slots it has touched (slot -> position).
            fresh, displaced, touched = [], [], {}
            moved = None if traces is None else []
            for index in range(opened, stop):
                args = heads[index]
                if args in counts and not (touched
                                           and key_of(args) in touched):
                    # A stored row behind the batch's first: booked in
                    # place like the ones ahead of it.
                    self.clock += 1
                    insert(args, weights[index], deadline)
                    if base:
                        provenance.base(Fact(pred, args), weights[index])
                    if deadline is not None:
                        renewed += 1
                        if renewals is not None:
                            renewals.append(index)
                    continue
                key = key_of(args)
                if touched.setdefault(key, index) != index:
                    table.run_splits += 1
                    break
                if key is not args:
                    # (On a full-key table the slot is the row itself,
                    # which is not stored: nothing to displace.)
                    old = get_by_key(key)
                    if old is not None:
                        displaced.append(old)
                        if moved is not None:
                            moved.append(traces[index])
                fresh.append(index)
            else:
                index = stop
            if displaced:
                if committing:
                    for position, old in enumerate(displaced):
                        observer.commit(pred, old, -counts[old],
                                        moved and moved[position])
                self._fire_strands(pred, displaced, -1, moved)
                for old in displaced:
                    if provenance is not None:
                        provenance.retracted(Fact(pred, old))
                    table.force_delete(old)
                table.replaced += len(displaced)
            for position in fresh:
                args = heads[position]
                self.clock += 1
                insert(args, weights[position], deadline)
                if committing:
                    observer.commit(pred, args, weights[position],
                                    traces and traces[position])
                if base:
                    provenance.base(Fact(pred, args), weights[position])
            if len(fresh) < stop:
                _, heads_in, _, _, traces_in = _part(run, fresh)
            else:
                heads_in, traces_in = heads, traces
            if tracing:
                # What a firing derives outside its kernel (a query
                # answered from the cache: a run of one) joins this trace.
                self._active_trace = traces and traces[fresh[-1]]
            self._fire_strands(pred, heads_in, 1, traces_in)
        table.renewals += renewed
        if renewals and traces is not None:
            _, renewed_heads, renewed_weights, _, renewed_traces = _part(
                run, renewals)
            observer.renew(pred, renewed_heads, renewed_weights,
                           renewed_traces)

    def _commit_delete_run(self, run: Run) -> None:
        """Commit a run of same-predicate weighted deletions --
        ``-weight`` derivations withdrawn per row, or the whole row when
        ``force`` -- and fire each strand once with the rows that lost
        visibility.

        A lone delta's strands run while its fact is still in the table:
        a self-join partner position must see the dying fact (footnote
        2 / Theorem 2), and every predicate with a self-join strand is
        capped to runs of one.  A longer run drops rows as it goes (so a
        fact repeated in the run is found gone) and fires afterwards,
        which reads the same ("a co-participant deleted later no longer
        sees it") because the run's facts never appear in each other's
        partner tables."""
        pred, heads, weights, force, traces = run
        table = self.db.table(pred)
        observer, provenance = self.observer, self.provenance
        tracing = observer is not None and observer.traced
        committing = observer is not None and pred in observer.heard
        count_of, force_delete = table.counts.get, table.force_delete
        dying: List[int] = []
        for index, args in enumerate(heads):
            if force is None:
                provenance.base(Fact(pred, args), weights[index])
            trace = None if traces is None else traces[index]
            if tracing:
                self._active_trace = trace
            current = count_of(args)
            if current is None:
                continue  # superseded, never committed, or already gone
            if current > -weights[index] and not force:
                table.delete(args, -weights[index])
                continue
            if committing:
                observer.commit(pred, args, -current, trace)
            if len(heads) == 1:
                self._fire_strands(pred, heads, -1, traces)
            else:
                dying.append(index)
            if force and provenance is not None:
                # The row is dropped wholesale, whatever support it
                # has committed; a counted delete was already
                # decremented by its own ``-1`` firings (a base intent
                # still queued books its support when it commits, but a
                # re-derivation still queued has recorded its own).
                provenance.retracted(Fact(pred, args))
            force_delete(args)
        if dying:
            _, dying_heads, _, _, dying_traces = _part(run, dying)
            self._fire_strands(pred, dying_heads, -1, dying_traces)

    def _fire_strands(self, pred: str, heads, sign: int, traces,
                      strands: Optional[List[Strand]] = None) -> None:
        """Fire every strand of ``pred`` (or just ``strands``) once with
        the run's ``heads``: per strand one kernel call takes the run
        into one ``out``, then the derived heads go to the strand's
        sink in order -- plain heads in one :meth:`_emit`, aggregate /
        arg-extreme heads into its view in one ``apply_many``, whose
        answer is queued when the chunk ends (:meth:`process_chunk`).
        Observer flags and the provenance recorder are read once per
        run.  Traced, each derived head carries its own driver's trace:
        the same kernel over runs of one, a driving tuple's share of
        ``out`` being what its call appended."""
        if strands is None:
            strands = self.strands.get(pred)
            if strands is None:
                return
        functions = self.db.functions
        capture = self.provenance
        observer = self.observer
        traced = timed = metered = False
        if observer is not None:
            traced, timed, metered = (
                observer.traced, observer.timed, observer.metered)
        for strand in strands:
            started = perf_counter() if timed else 0.0
            kernel = strand.kernel if capture is None else strand.capture_kernel
            if kernel is None:
                kernel = strand.bind(capture is not None)
            out: List = []
            derived: Optional[List] = None
            if traced:
                derived = []
                for head, trace in zip(heads, traces or repeat(None)):
                    before = len(out)
                    kernel((head,), functions, out)
                    derived += [trace] * (len(out) - before)
            else:
                kernel(heads, functions, out)
            inferences = len(out)
            if inferences:
                self.inferences += inferences
                if capture is not None:
                    out = capture.record_run(strand.crule.label, strand.head,
                                             out, sign)
                sink = strand.sink
                if sink is None:
                    self._emit(strand.head, out, sign, derived)
                else:
                    # View rules are local rules: their output never ships.
                    sink.apply_many(out, sign, derived)
            if timed or (inferences and metered):
                observer.fire(strand.crule.label, strand.driver_literal.pred,
                              inferences,
                              perf_counter() - started if timed else 0.0)

    def _emit(self, pred: str, heads, sign: int, traces=None) -> None:
        """Queue the plain heads of one firing as one run; ``traces``
        (traced firings only) holds each head's trace id (virtual: the
        distributed runtime ships the heads located at another node)."""
        if traces is not None:
            self.observer.derive(pred, heads, sign, traces)
        self.queue.push(pred, heads, [sign] * len(heads), False, traces)


def evaluate(
    program: Program,
    db: Optional[Database] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    batch_size: int = 1,
    provenance=None,
    profiler=None,
) -> EvalResult:
    """Run ``program`` to fixpoint with PSN and return the result.

    ``profiler`` (an :class:`repro.obs.Profiler`) accumulates
    per-strand CPU time for the run when given."""
    engine = PSNEngine(program, db=db, batch_size=batch_size,
                       provenance=provenance, profiler=profiler)
    return engine.fixpoint(max_steps=max_steps)
