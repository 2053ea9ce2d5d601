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

**Queue rows.**  An intent on the queue is one Z-set entry as a plain
tuple, ``(pred, args, weight, force, trace)``: ``weight`` derivations
of ``pred(args)`` asserted (``> 0``) or withdrawn (``< 0``).  ``force``
removes the row regardless of its derivation count (external base
deletions) -- an *assignment*, outside the weight algebra, so forced
intents never net; under provenance an unforced base intent carries
``None`` there (falsy like ``False``), so its base support is booked
where it commits or nets, not where it is queued.  ``trace`` is the
delta-propagation trace id the intent belongs to (minted at base-fact
injection; ``None`` when tracing is off).  That one tuple is all that
travels: a strand kernel appends head tuples to a list,
:meth:`PSNEngine._emit` turns the list into rows on the queue in one
call, netting and run splitting read rows by position, and the
commit hands ``args`` and ``weight`` to the table.  A :class:`Fact` is
built only where one is consumed -- here for the provenance recorder,
behind the observer handle (:mod:`repro.obs.observer`) for ``on_commit``
or a commit listener; tracer and counters take the bare row -- so with
those off the loop allocates none.

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
kernel call over the whole run of driving rows -- builtins resolved
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
   way.  Every other intent replays in its original position.
2. *Runs* -- surviving weighted intents are split into maximal runs of
   one (predicate, direction); each run is committed to the table in
   order, and every strand of that predicate then fires **once per
   run** with the list of driving deltas.  One pass over the chunk
   gives both the run boundaries and step 1's test -- do its unforced
   rows carry both signs? -- since netting can change nothing in a
   chunk of one direction (an all-refresh or all-expiry burst); only a
   mixed chunk is netted and split again over its survivors.
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


#: One intent on the queue (layout and field meanings: module docstring,
#: "Queue rows").
QueueRow = Tuple[str, Tuple, int, bool, Optional[int]]


class Strand:
    """One rule strand: a compiled rule driven by one body literal
    position, as in Figures 3 and 5 of the paper.

    ``kernel(rows, functions, out)`` is everything the hot path needs:
    it appends to ``out``, row by row, every head tuple the driving
    tuples of the run ``rows`` (queue rows; the tuple is field 1)
    derive against ``db``'s tables -- a generated function
    (:mod:`repro.engine.kernels`) for the literal order ``stats`` (a
    :class:`StatsCatalog`) implies, called once per firing (and, traced,
    once per row with ``(row,)``).  ``code`` is the shared
    :class:`StrandKernel`, generated at most once per program,
    ``kernel_source`` its text; only the table/index binding happens
    here.  ``capture_kernel`` is the provenance variant, whose ``out``
    receives ``(head, ground body facts)`` pairs.  Either is bound on
    first need (:meth:`bind`).
    """

    __slots__ = ("crule", "driver_index", "driver_literal", "code",
                 "kernel", "capture_kernel", "_db")

    def __init__(self, crule: CompiledRule, driver_index: int,
                 db: Database, stats):
        self.crule = crule
        self.driver_index = driver_index
        self.driver_literal: Literal = crule.body[driver_index]
        self.code = strand_kernel(crule, driver_index, stats)
        self.kernel: Optional[Callable] = None
        self.capture_kernel: Optional[Callable] = None
        self._db = db

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
        for strand_list in self.strands.values():
            for strand in strand_list:
                # Binding now registers every probed index up front.
                strand.bind(capture=provenance is not None)
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
        self.queue: Deque[QueueRow] = deque()
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
        row carries ``None`` for ``force``: it is base support, booked
        where it commits (:meth:`_book_base`) -- never here, where a
        forced delete or displacement committing ahead of it would wipe
        it.  As in :meth:`derive`, a zero ``weight`` is a no-op."""
        if not weight:
            return
        observer = self.observer
        traced = observer is not None and observer.traced
        if self.provenance is not None:
            force = force or None
        elif not traced:
            self.queue.extend([(pred, tuple(args), weight, force, None)
                               for args in rows])
            return
        rows = [tuple(args) for args in rows]
        traces = (observer.inject(pred, rows, weight) if traced
                  else repeat(None))
        self.queue.extend([(pred, args, weight, force, trace)
                           for args, trace in zip(rows, traces)])

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
            self._enqueue((pred, args, weight, False, trace))

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
                self._enqueue((table.name, args, count, base, None))

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> int:
        """Process queued deltas until quiescent; returns steps taken.

        The limit is exact: at most ``max_steps`` deltas are consumed
        off the queue (cancelled intents included), and the engine
        raises as soon as a further delta would exceed it (not one
        delta too late).
        """
        taken = self.run_batch(max_steps)
        if self.queue:
            raise EvaluationError(
                f"PSN exceeded {max_steps} steps (non-terminating "
                f"program?)",
                engine="psn",
            )
        return taken

    def run_batch(self, batch: int) -> int:
        """Process at most ``batch`` deltas (used by BSN scheduling)."""
        taken = 0
        while self.queue and taken < batch:
            taken += self.process_chunk(min(self.batch_size, batch - taken))
        return taken

    @property
    def quiescent(self) -> bool:
        return not self.queue

    def _enqueue(self, row: QueueRow) -> None:
        """Append an intent to the FIFO queue (overridable: the
        distributed node runtime also schedules a processing tick)."""
        self.queue.append(row)

    # ------------------------------------------------------------------
    # Core processing
    # ------------------------------------------------------------------
    def process_next(self) -> None:
        """Process one delta: a chunk of one."""
        self.process_chunk(1)

    def process_chunk(self, limit: int) -> int:
        """Drain up to ``limit`` deltas as one chunk; returns the number
        of deltas consumed off the queue (cancelled pairs included).

        A chunk that empties the queue is taken in one call.  One pass
        over it (:meth:`_split`) yields the run boundaries and whether
        its unforced rows mix directions; only a mixed chunk can net, so
        only a mixed chunk is netted and split again over its
        survivors.  Each run then commits in order."""
        queue = self.queue
        count = min(limit, len(queue))
        if count <= 0:
            return 0
        if count == len(queue):
            rows = list(queue)
            queue.clear()
        else:
            popleft = queue.popleft
            rows = [popleft() for _ in range(count)]
        self.steps += count
        stops, mixed = self._split(rows)
        if mixed:
            rows = self._net_chunk(rows)
            stops = self._split(rows)[0]
        try:
            start = 0
            for stop in stops:
                if rows[start][2] > 0:
                    self._commit_insert_run(rows, start, stop)
                else:
                    self._commit_delete_run(rows, start, stop)
                start = stop
        finally:
            # The views answer now, once, for the whole chunk (also when
            # a kernel raised: their state already reflects what the
            # chunk fed them, and the tables downstream must follow).
            for view in self._all_views:
                if view.pending:
                    pred = view.pred
                    for weight, args, trace in view.drain():
                        self._active_trace = trace
                        self._derive(pred, args, weight)
        return count

    def _split(self, rows: List[QueueRow]) -> Tuple[List[int], bool]:
        """One pass over a chunk: the end index of each of its runs, in
        order, and whether its unforced rows carry both signs.

        A run is a maximal stretch of one (predicate, direction); a
        forced row, and a row of a predicate whose runs are capped at
        one delta, is a run of its own.  A longer run is unforced and of
        one sign throughout, so the signs are read where runs start."""
        single_delta = self._single_delta
        stops: List[int] = []
        has_plus = has_minus = extends = plus = False
        pred = None
        for index, (row_pred, _, weight, force, _) in enumerate(rows):
            if (extends and row_pred == pred and (weight > 0) == plus
                    and not force):
                continue
            if index:
                stops.append(index)
            pred, plus = row_pred, weight > 0
            extends = not force and pred not in single_delta
            if not force:
                if plus:
                    has_plus = True
                else:
                    has_minus = True
        if rows:
            stops.append(len(rows))
        return stops, has_plus and has_minus

    def _net_chunk(self, chunk: List[QueueRow]) -> List[QueueRow]:
        """Net the chunk by Z-set addition before any table or strand
        work -- [Gupta et al. 93]'s count algorithm as a group law
        (eligibility rules: module docstring, "Weight netting at the
        queue").  Weights fold per primary-key *slot*; an eligible slot
        netting to zero annihilates outright (the sequential wave/unwave
        pairs end exactly where they started), a positive net commits
        as one weighted delta in the slot's first position, and
        everything else replays intent-by-intent in original order."""
        table_of = self.db.table
        # slot -> [args, eligible, positions, folded-weight-or-None]
        groups: Dict[Tuple[str, Tuple], List] = {}
        slots: List[Tuple[str, Tuple]] = []
        for position, row in enumerate(chunk):
            pred, args, _, force, _ = row
            table = table_of(pred)
            slot = (pred, table.key_of(args))
            slots.append(slot)
            group = groups.get(slot)
            if group is None:
                groups[slot] = [
                    args,
                    not force and table.lifetime == INFINITY,
                    [position],
                    None,
                ]
            else:
                if force or group[0] != args:
                    group[1] = False
                group[2].append(position)
        for slot, group in groups.items():
            args, eligible, positions, _ = group
            if not eligible or len(positions) < 2:
                continue
            weight = low = 0
            for position in positions:
                weight += chunk[position][2]
                if weight < low:
                    low = weight
            if low < 0:
                continue
            stored = table_of(slot[0]).get_by_key(slot[1])
            if stored is not None and stored != args:
                continue
            group[3] = weight
        survivors: List[QueueRow] = []
        netted = 0
        for position, row in enumerate(chunk):
            group = groups[slots[position]]
            weight = group[3]
            if weight is None:
                survivors.append(row)
                continue
            pred, args, own_weight, force, trace = row
            if force is None:
                # Netting is where a base intent commits (nothing else
                # in this chunk can retract its fact: that would be a
                # forced row or another version in the same slot).
                self.provenance.base(Fact(pred, args), own_weight)
            if weight == 0:
                netted += 1
            elif position == group[2][0]:
                netted += len(group[2]) - 1
                # The folded intent keeps the first delta's trace (the
                # slot's other traces end here with a net span below).
                survivors.append((pred, args, weight, False, trace))
                continue
            if trace is not None:
                # This intent was annihilated (or folded into the
                # slot's first position) by Z-set addition: its trace's
                # propagation ends at the queue.
                self.observer.span("net", pred, args, own_weight, trace)
        self.cancelled += netted
        return survivors

    def _commit_insert_run(self, rows: List[QueueRow], start: int,
                           stop: int) -> None:
        """Commit ``rows[start:stop]``, a run of same-predicate
        weighted insertions, as two runs: the rows it displaces leave,
        then the rows that became visible arrive, and each strand fires
        once per half.

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
        the predicate has no self-join strand (checked by the caller),
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
        pred = rows[start][0]
        table = self.db.table(pred)
        # One deadline per run; none for a hard-state table.
        deadline = (None if table.lifetime == INFINITY
                    else self.now() + table.lifetime)
        key_of, get_by_key, insert, bump_run = (
            table.key_of, table.get_by_key, table.insert, table.bump_run
        )
        observer, provenance = self.observer, self.provenance
        tracing = observer is not None and observer.traced
        committing = observer is not None and pred in observer.heard
        renewed = 0
        traced_renewals: List[QueueRow] = []
        index = start
        while index < stop:
            # Where a batch would open, the stored rows ahead of it are
            # one table call -- more derivations of visible facts: a
            # count bump of each row's whole weight, or on a soft-state
            # table a renewal (Section 4.2: "reinserted ... with a new
            # TTL"): the table moves the deadline and that is all, no
            # count, observer or strand.  Decided here, at dequeue: an
            # expiry delete queued ahead has already removed the row.
            # A refresh round ends at this call.
            opened = bump_run(rows, index, stop, deadline)
            if opened > index:
                if provenance is not None:
                    self._book_base(rows, index, opened)
                self.clock += opened - index
                if deadline is not None:
                    renewed += opened - index
                    if tracing:
                        traced_renewals += [row for row in rows[index:opened]
                                            if row[4] is not None]
                if opened == stop:
                    break
            # The pending batch, opened by the first row that is not
            # stored: its rows, the rows their slots hold now (as the
            # ``-1`` run they leave in), and the slots it has touched
            # (slot -> index of the row that takes it).
            fresh, displaced, touched = [], [], {}
            for index in range(opened, stop):
                row = rows[index]
                args = row[1]
                if args in table and not (touched
                                          and key_of(args) in touched):
                    # A stored row behind the batch's first: booked in
                    # place like the ones ahead of it.
                    self.clock += 1
                    insert(args, row[2], deadline)
                    if row[3] is None:
                        provenance.base(Fact(pred, args), row[2])
                    if deadline is not None:
                        renewed += 1
                        if row[4] is not None:
                            traced_renewals.append(row)
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
                        displaced.append(
                            (pred, old, -1, False, row[4]))
                fresh.append(row)
            else:
                index = stop
            if displaced:
                if committing:
                    count_of = table.count
                    for _, old, _, _, trace in displaced:
                        observer.commit(pred, old, -count_of(old), trace)
                self._fire_strands(displaced, -1)
                for row in displaced:
                    if provenance is not None:
                        provenance.retracted(Fact(pred, row[1]))
                    table.force_delete(row[1])
                table.replaced += len(displaced)
            for row in fresh:
                args = row[1]
                self.clock += 1
                insert(args, row[2], deadline)
                if committing:
                    observer.commit(pred, args, row[2], row[4])
            if provenance is not None:
                self._book_base(fresh, 0, len(fresh))
            if tracing:
                # What a firing derives outside its kernel (a query
                # answered from the cache: a run of one) joins this trace.
                self._active_trace = fresh[-1][4]
            self._fire_strands(fresh, 1)
        if renewed:
            table.renewals += renewed
            if traced_renewals:
                observer.renew(pred, traced_renewals)

    def _commit_delete_run(self, rows: List[QueueRow], start: int,
                           stop: int) -> None:
        """Commit ``rows[start:stop]``, a run of same-predicate
        weighted deletions -- ``-weight`` derivations withdrawn per
        row, or the whole row when ``force`` -- and fire each strand
        once with the rows that lost visibility.

        A lone delta's strands run while its fact is still in the table:
        a self-join partner position must see the dying fact (footnote
        2 / Theorem 2), and every predicate with a self-join strand is
        capped to runs of one.  A longer run drops rows as it goes (so a
        fact repeated in the run is found gone) and fires afterwards,
        which reads the same ("a co-participant deleted later no longer
        sees it") because the run's facts never appear in each other's
        partner tables."""
        pred = rows[start][0]
        table = self.db.table(pred)
        observer = self.observer
        tracing = observer is not None and observer.traced
        committing = observer is not None and pred in observer.heard
        count_of, force_delete = table.count, table.force_delete
        lone = stop - start == 1
        dying: List[QueueRow] = []
        for index in range(start, stop):
            row = rows[index]
            args, force = row[1], row[3]
            if force is None:
                self.provenance.base(Fact(pred, args), row[2])
            if tracing:
                self._active_trace = row[4]
            count = -row[2]
            current = count_of(args)
            if current <= 0:
                continue  # superseded, never committed, or already gone
            if current > count and not force:
                table.delete(args, count)
                continue
            if committing:
                observer.commit(pred, args, -current, row[4])
            if lone:
                self._fire_strands((row,), -1)
            else:
                dying.append(row)
            if force and self.provenance is not None:
                # The row is dropped wholesale, whatever support it
                # has committed; a counted delete was already
                # decremented by its own ``-1`` firings (a base intent
                # still queued books its support when it commits, but a
                # re-derivation still queued has recorded its own).
                self.provenance.retracted(Fact(pred, args))
            force_delete(args)
        if dying:
            self._fire_strands(dying, -1)

    def _book_base(self, rows, start: int, stop: int) -> None:
        """Book the base support of the base intents (``force`` is
        ``None``: provenance is on) among ``rows[start:stop]``, which
        are committing."""
        base = self.provenance.base
        for index in range(start, stop):
            pred, args, weight, force, _ = rows[index]
            if force is None:
                base(Fact(pred, args), weight)

    def _fire_strands(self, rows, sign: int) -> None:
        """Fire every strand of the run's predicate once with the whole
        run of driving rows (virtual: the distributed runtime
        suppresses flooding strands on a query-cache hit)."""
        for strand in self.strands.get(rows[0][0], ()):
            self._fire_strand(strand, rows, sign)

    def _fire_strand(self, strand: Strand, rows, sign: int) -> None:
        """Fire one strand with a run of driving rows: one kernel call
        takes the run into one ``out``, then the heads are sent on in
        order -- plain heads in one :meth:`_emit`, aggregate /
        arg-extreme heads into the rule's view in one ``apply_many``,
        a lone row's like a run's; what the view makes of them is
        queued when the chunk ends (:meth:`process_chunk`).  Traced,
        each head carries its own driver's trace."""
        crule = strand.crule
        functions = self.db.functions
        capture = self.provenance
        observer = self.observer
        traced = timed = metered = False
        if observer is not None:
            traced, timed, metered = (
                observer.traced, observer.timed, observer.metered)
        started = perf_counter() if timed else 0.0
        kernel = strand.kernel if capture is None else strand.capture_kernel
        if kernel is None:
            kernel = strand.bind(capture is not None)
        pred = crule.head.pred
        if crule.aggregate is not None:
            view = self.views[pred]
        elif crule.argmin is not None:
            view = self.argmin_views[pred]
        else:
            view = None
        out: List = []
        traces: Optional[List] = None
        if traced:
            # One trace id per head: the same kernel over runs of one, a
            # row's share of ``out`` being what its call appended (a
            # run's heads are its rows' heads, concatenated).
            traces = []
            for row in rows:
                before = len(out)
                kernel((row,), functions, out)
                traces += [row[4]] * (len(out) - before)
        else:
            kernel(rows, functions, out)
        inferences = len(out)
        if out:
            self.inferences += inferences
            if capture is not None:
                out = capture.record_run(crule.label, pred, out, sign)
            if view is None:
                self._emit(pred, out, sign, traces)
            else:
                # View rules are local rules: their output never ships.
                view.apply_many(out, sign, traces)
        if timed or (inferences and metered):
            observer.fire(crule.label, strand.driver_literal.pred,
                          inferences,
                          perf_counter() - started if timed else 0.0)

    def _emit(self, pred: str, heads, sign: int, traces=None) -> None:
        """Queue the plain heads of one firing, in order; ``traces``
        (traced firings only) holds each head's trace id (virtual: the
        distributed runtime ships the heads located at another node)."""
        if traces is not None:
            self.observer.derive(pred, heads, sign, traces)
        self.queue.extend(
            [(pred, head, sign, False, trace)
             for head, trace in zip(heads, traces or repeat(None))]
        )


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
