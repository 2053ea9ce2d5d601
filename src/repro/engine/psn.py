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

**Commit discipline.**  The queue is purely event-sourced: table state
is mutated only when a delta is *processed* (dequeued), never when it is
enqueued, so at any processing step the tables hold exactly the facts
whose deltas precede the current one -- the "same or older timestamp"
join prefix of Section 3.3.2 *is* the table itself.  A duplicate
derivation of a visible fact commits as a count bump (no strands); a
deletion of a fact that was superseded in the meantime commits as a
no-op.

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
once per program and bound per engine to its tables.  A firing collects
the kernel's head tuples, then emits them.

**One commit path: chunks of runs.**  The queue is drained in chunks of
up to ``batch_size`` deltas (Section 4's "bursty updates" processed as
bursts; PSN "can allow just as much buffering as BSN", Section 3.3.2):

1. *Weight netting at the queue* -- Z-set addition applied before any
   table or strand work: within a chunk, the intents on one primary-key
   slot collapse to a single intent carrying the sum of their weights,
   and a zero sum vanishes outright.  Cancellation is not a special
   case -- it is the group law.  Folding is restricted to slots where
   it is provably equivalent to sequential replay: every chunk intent
   on the slot must target one identical tuple, none may be forced or
   a deferred restore (primary-key replacement and forced deletion are
   assignments, not group elements, so weights must not flow across
   them), the table must not be soft-state (a re-insertion is a TTL
   refresh that must stay observable), the stored row under the key --
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
   run** with the list of driving deltas.  Commit-then-fire is
   join-for-join identical to firing after each commit because a run
   never touches its own partner tables -- so a predicate with a
   self-join strand (a rule both driven by and joining against it)
   gets runs capped at one delta, as do forced deletions and (in the
   distributed runtime) the cache-intercepted query predicate.  A run
   of one is still a run: same methods, nothing to amortize.
3. *Aggregate netting* -- a firing driven by more than one delta feeds
   its aggregate or arg-extreme view through ``apply_many``, which
   emits only the net group-value change for the run.

``batch_size=1`` (the default) is the same path on chunks of one:
nothing to net, every run a single delta, views fed head by head --
Algorithm 3 as written, and the differential reference.  Larger chunks
may change the *intermediate* delta traffic (zero-weight runs never
commit, netted aggregates skip transient values) but never the fixpoint
or the final derivation counts -- ``tests/test_batching.py`` and
``tests/test_zset.py`` hold every batch size to that.

"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import EvaluationError
from repro.engine.aggregates import AggregateView, ArgExtremeView
from repro.engine.database import Database
from repro.engine.facts import Fact
from repro.engine.fixpoint import EvalResult
from repro.engine.table import INFINITY
from repro.engine.kernels import strand_kernel
from repro.engine.rules import CompiledRule, shared_compiled_rules
from repro.opt.costbased import StatsCatalog
from repro.ndlog.ast import Literal, Program
from repro.ndlog.terms import evaluate as eval_term

DEFAULT_MAX_STEPS = 20_000_000


class QueuedDelta(NamedTuple):
    """An intent on the queue: one Z-set entry, ``weight`` derivations
    of ``fact`` asserted (``> 0``) or withdrawn (``< 0``).  ``force``
    removes a fact regardless of its derivation count (external base
    deletions, pkey replacement) -- an *assignment*, outside the weight
    algebra, so forced intents never net.  ``restore`` is a deferred
    fallback check on the fact's keyed slot: it re-materializes the
    latest shadowed version only if the slot is still empty when the
    intent is processed (a replacement already in flight fills it
    first, so transient ``-old/+new`` update pairs do not churn through
    stale versions).  ``trace`` is the delta-propagation trace id this
    intent belongs to (minted at base-fact injection; ``None`` when
    tracing is off)."""

    fact: Fact
    weight: int
    force: bool = False
    restore: bool = False
    trace: Optional[int] = None

    @property
    def sign(self) -> int:
        return 1 if self.weight > 0 else -1


class Strand:
    """One rule strand: a compiled rule driven by one body literal
    position, as in Figures 3 and 5 of the paper.

    ``kernel(args, functions, out)`` is everything the hot path needs:
    it appends to ``out`` every head tuple the driving tuple ``args``
    derives against ``db``'s tables -- a generated function
    (:mod:`repro.engine.kernels`) for the literal order ``stats`` (a
    :class:`StatsCatalog`) implies.  ``code`` is the shared
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
    so sign-only consumers keep working unchanged.

    ``metrics`` / ``tracer`` / ``profiler`` are the observability
    hooks (:mod:`repro.obs`): a per-node
    :class:`~repro.obs.metrics.NodeMetrics` holder, a
    :class:`~repro.obs.trace.NodeTracer` handle, and a
    :class:`~repro.obs.profile.Profiler`.  Like the provenance
    recorder, each hot site is guarded by one ``None`` check, so the
    disabled path (the default) costs nothing.

    ``batch_size`` is the chunk size the queue is drained in: 1 (the
    default) processes one delta per step exactly as Algorithm 3
    writes it; larger chunks are netted and committed run by run (see
    the module docstring).
    """

    def __init__(
        self,
        program: Program,
        db: Optional[Database] = None,
        on_commit: Optional[Callable[[Fact, int], None]] = None,
        stats: Optional[StatsCatalog] = None,
        batch_size: int = 1,
        provenance=None,
        metrics=None,
        tracer=None,
        profiler=None,
    ):
        self.program = program
        self.db = db if db is not None else Database.for_program(program)
        self.compiled = shared_compiled_rules(program)
        self.batch_size = max(1, int(batch_size))
        if stats is None:
            stats = StatsCatalog.from_database(self.db)
        self.strands = build_strands(self.compiled, self.db, stats)
        for strand_list in self.strands.values():
            for strand in strand_list:
                # Binding now registers every probed index up front.
                strand.bind(capture=provenance is not None)
        #: The catalog plans were costed against; live deployments feed
        #: observed cardinalities and churn back into it
        #: (``Cluster.refresh_stats``), the adaptive-cost-model input.
        self.stats_catalog = stats
        #: Predicates whose runs are capped at one delta: any predicate
        #: that drives a strand also joining against itself (a longer
        #: run would double- or under-count the self-join), plus
        #: subclass-specific exclusions.
        self._single_delta = set(self._single_delta_preds())
        for pred, strand_list in self.strands.items():
            for strand in strand_list:
                crule = strand.crule
                if any(
                    crule.body[index].pred == pred
                    for index in crule.literal_indexes
                    if index != strand.driver_index
                ):
                    self._single_delta.add(pred)
                    break
        self.views: Dict[str, AggregateView] = {}
        self.argmin_views: Dict[str, ArgExtremeView] = {}
        for crule in self.compiled:
            if crule.aggregate is not None and crule.head.pred not in self.views:
                self.views[crule.head.pred] = AggregateView(
                    crule.head.pred, crule.aggregate
                )
            if crule.argmin is not None and crule.head.pred not in self.argmin_views:
                group_positions, value_position, func = crule.argmin
                self.argmin_views[crule.head.pred] = ArgExtremeView(
                    crule.head.pred, group_positions, value_position, func
                )
        self.queue: Deque[QueuedDelta] = deque()
        #: While True, rule firings keep their heads on this node (the
        #: distributed ``_route`` override skips shipping).  Set around a
        #: fallback restore: the restored row is an old advertisement
        #: that must not re-announce itself to the network.
        self._local_only = False
        self.clock = 0
        self.inferences = 0
        self.steps = 0
        self.cancelled = 0
        self.on_commit = on_commit
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
        #: Observability hooks (:mod:`repro.obs`), all ``None`` when
        #: the deployment was built without the corresponding flag.
        self.metrics = metrics
        self.tracer = tracer
        self.profiler = profiler
        #: Trace id of the delta currently being processed (always
        #: ``None`` when tracing is off); rule firings read it so every
        #: derived delta inherits its driver's trace.
        self._active_trace: Optional[int] = None

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
        fact = Fact(pred, tuple(args))
        if self.provenance is not None:
            self.provenance.base(fact, 1)
        if self.tracer is not None:
            # Base-fact injection mints the trace id this delta (and
            # everything derived from it) will carry.
            self._enqueue(
                QueuedDelta(fact, 1, trace=self.tracer.mint(fact, 1))
            )
        else:
            self.derive(fact, 1)

    def delete(self, pred: str, args: Tuple) -> None:
        """Delete a base tuple outright (whatever its derivation count)."""
        fact = Fact(pred, tuple(args))
        if self.provenance is not None:
            self.provenance.base(fact, -1)
        trace = None
        if self.tracer is not None:
            trace = self.tracer.mint(fact, -1)
        self._enqueue(QueuedDelta(fact, -1, force=True, trace=trace))

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
        weight = int(weight)
        if weight:
            trace = self._active_trace
            if trace is not None:
                self.tracer.derive(fact, weight, trace)
            self._enqueue(QueuedDelta(fact, weight, trace=trace))

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
        they flow through the same commit pipeline as everything else."""
        provenance = self.provenance
        for table in self.db.tables.values():
            for args in table.rows():
                count = table.count(args)
                table.force_delete(args)
                fact = Fact(table.name, args)
                if provenance is not None:
                    provenance.base(fact, count)
                self._enqueue(QueuedDelta(fact, count))

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

    def queue_slot_repairs(self) -> int:
        """Queue a restore intent for every *broken slot*: a primary key
        of a fallback table that has shadowed (superseded-but-
        outstanding) versions and no current row.  Returns the number of
        intents queued.

        This is the convergence watchdog's repair hook, and it must run
        only at a quiescence boundary (this engine's queue is dry and --
        in a distributed run -- nothing is in flight towards it):
        restoring eagerly amid churn re-advertises stale versions into
        latest-wins slots on a cyclic topology, and the feedback wave
        never dissipates.  At quiescence, an empty slot with outstanding
        shadowed versions is a genuine casualty of destructive
        replacement -- nothing upstream will ever refill it (its
        alternatives' support never changed, so no delta fires there).
        """
        queued = 0
        for table in self.db.tables.values():
            if not table.fallback:
                continue
            for key, bucket in table._shadow.items():
                if table.get_by_key(key) is not None or not bucket:
                    continue
                witness = next(iter(bucket))
                self._enqueue(
                    QueuedDelta(Fact(table.name, witness), 1, restore=True)
                )
                queued += 1
        return queued

    def run_batch(self, batch: int) -> int:
        """Process at most ``batch`` deltas (used by BSN scheduling)."""
        taken = 0
        while self.queue and taken < batch:
            taken += self.process_chunk(min(self.batch_size, batch - taken))
        return taken

    @property
    def quiescent(self) -> bool:
        return not self.queue

    def _enqueue(self, delta: QueuedDelta) -> None:
        """Append an intent to the FIFO queue (overridable: the
        distributed node runtime also schedules a processing tick)."""
        self.queue.append(delta)

    # ------------------------------------------------------------------
    # Core processing
    # ------------------------------------------------------------------
    def process_next(self) -> None:
        """Process one delta: a chunk of one."""
        self.process_chunk(1)

    def process_chunk(self, limit: int) -> int:
        """Drain up to ``limit`` deltas as one chunk; returns the number
        of deltas consumed off the queue (cancelled pairs included)."""
        queue = self.queue
        count = min(limit, len(queue))
        if count <= 0:
            return 0
        survivors = [queue.popleft() for _ in range(count)]
        self.steps += count
        # Netting can only change anything when the chunk mixes
        # directions; all-refresh or all-expiry bursts skip the scan
        # outright (and keep their per-intent TTL refreshes).
        has_plus = has_minus = False
        for delta in survivors:
            if delta.force or delta.restore:
                continue
            if delta.weight > 0:
                has_plus = True
            else:
                has_minus = True
        if has_plus and has_minus:
            survivors = self._net_chunk(survivors)
        single_delta = self._single_delta
        index = 0
        end = len(survivors)
        while index < end:
            delta = survivors[index]
            if delta.restore:
                if self.tracer is not None:
                    self._active_trace = delta.trace
                self._commit_restore(delta.fact)
                index += 1
                continue
            pred = delta.fact.pred
            plus = delta.weight > 0
            stop = index + 1
            if not delta.force and pred not in single_delta:
                while stop < end:
                    nxt = survivors[stop]
                    if (nxt.force or nxt.restore
                            or (nxt.weight > 0) != plus
                            or nxt.fact.pred != pred):
                        break
                    stop += 1
            if plus:
                self._commit_insert_run(survivors, index, stop)
            else:
                self._commit_delete_run(survivors, index, stop)
            index = stop
        return count

    def _net_chunk(self, chunk: List[QueuedDelta]) -> List[QueuedDelta]:
        """Net the chunk by Z-set addition before any table or strand
        work -- [Gupta et al. 93]'s count algorithm as a group law.

        Weights fold per primary-key *slot*, and only when folding is
        provably equivalent to sequential processing: every chunk
        intent on the slot must target one identical tuple (replacement
        and forced deletion are assignments, not group elements, so
        weights must not flow across them), none may be forced or a
        deferred restore, the table must not be soft-state (a
        re-insertion is a TTL refresh that must stay observable), and
        the stored row under the key -- if any -- must be that same
        tuple.  Stored counts floor at zero, so the folded weight also
        requires that no prefix of the slot's intents sums negative:
        sequentially those early withdrawals are a decrement *or* a
        floored no-op, which addition cannot predict.

        An eligible slot netting to zero annihilates outright (the
        sequential wave/unwave pairs end exactly where they started); a
        positive net commits as one weighted delta in the slot's first
        position.  Everything else replays intent-by-intent in original
        order."""
        table_of = self.db.table
        # slot -> [args, eligible, positions, folded-weight-or-None]
        groups: Dict[Tuple[str, Tuple], List] = {}
        slots: List[Tuple[str, Tuple]] = []
        for position, delta in enumerate(chunk):
            fact = delta.fact
            table = table_of(fact.pred)
            slot = (fact.pred, table.key_of(fact.args))
            slots.append(slot)
            group = groups.get(slot)
            if group is None:
                groups[slot] = [
                    fact.args,
                    not (delta.force or delta.restore)
                    and table.lifetime == INFINITY,
                    [position],
                    None,
                ]
            else:
                if delta.force or delta.restore or group[0] != fact.args:
                    group[1] = False
                group[2].append(position)
        for slot, group in groups.items():
            args, eligible, positions, _ = group
            if not eligible or len(positions) < 2:
                continue
            weight = low = 0
            for position in positions:
                weight += chunk[position].weight
                if weight < low:
                    low = weight
            if low < 0:
                continue
            table = table_of(slot[0])
            stored = table.get_by_key(slot[1])
            if stored is not None and stored != args:
                continue
            group[3] = weight
        survivors: List[QueuedDelta] = []
        netted = 0
        tracer = self.tracer
        for position, delta in enumerate(chunk):
            group = groups[slots[position]]
            weight = group[3]
            if weight is None:
                survivors.append(delta)
                continue
            if weight == 0:
                netted += 1
            elif position == group[2][0]:
                netted += len(group[2]) - 1
                # The folded intent keeps the first delta's trace (the
                # slot's other traces end here with a net span below).
                survivors.append(
                    QueuedDelta(delta.fact, weight, trace=delta.trace)
                )
                continue
            if tracer is not None and delta.trace is not None:
                # This intent was annihilated (or folded into the
                # slot's first position) by Z-set addition: its trace's
                # propagation ends at the queue.
                tracer.net(delta.fact, delta.weight, delta.trace)
        self.cancelled += netted
        return survivors

    def _commit_insert_run(self, deltas: List[QueuedDelta], start: int,
                           stop: int) -> None:
        """Commit ``deltas[start:stop]``, a run of same-predicate
        weighted insertions, then fire each strand once with the deltas
        whose facts became visible.  Join-for-join identical to firing
        after each commit: unless the run is a single delta, the
        predicate has no self-join strands (checked by the caller), so
        the deferred firings read partner tables this run never
        touches."""
        table = self.db.table(deltas[start].fact.pred)
        on_commit = self.on_commit
        tracing = self.tracer is not None
        soft = table.lifetime != INFINITY
        fresh: List[QueuedDelta] = []
        for index in range(start, stop):
            delta = deltas[index]
            if tracing:
                self._active_trace = delta.trace
            fact = delta.fact
            args = fact.args
            if args in table:
                # More derivations of a visible fact: one count bump of
                # the whole weight + timestamp refresh.  For soft-state
                # tables (finite lifetime) the re-insertion is a
                # *refresh* and must reach the TTL observer (Section
                # 4.2: "facts must be explicitly reinserted ... with a
                # new TTL").
                self.clock += 1
                table.insert(args, ts=self.clock, count=delta.weight)
                if soft and on_commit is not None:
                    on_commit(fact, delta.weight)
                continue
            old = table.get_by_key(table.key_of(args))
            if old is not None:
                # Primary-key replacement retracts the superseded row
                # first; flush deferred firings before that so the
                # retraction cannot overtake them (the old row may even
                # be a member of this very run).
                if fresh:
                    self._fire_strands(fresh, 1)
                    fresh = []
                    if tracing:
                        self._active_trace = delta.trace
                self._displace_visible(table, Fact(fact.pred, old))
            self.clock += 1
            table.insert(args, ts=self.clock, count=delta.weight)
            if table.fallback:
                table.absorb_shadow(args)
            if on_commit is not None:
                on_commit(fact, delta.weight)
            fresh.append(delta)
        if fresh:
            self._fire_strands(fresh, 1)

    def _commit_delete_run(self, deltas: List[QueuedDelta], start: int,
                           stop: int) -> None:
        """Commit ``deltas[start:stop]``, a run of same-predicate
        weighted deletions -- ``-weight`` derivations withdrawn per
        fact, or the whole row when ``force`` -- and fire each strand
        once with the deltas whose facts lost visibility.

        A lone delta's strands run while its fact is still in the table:
        a self-join partner position must see the dying fact (footnote
        2 / Theorem 2), and every predicate with a self-join strand is
        capped to runs of one.  A longer run drops rows as it goes (so a
        fact repeated in the run is found gone) and fires afterwards,
        which reads the same ("a co-participant deleted later no longer
        sees it") because the run's facts never appear in each other's
        partner tables."""
        table = self.db.table(deltas[start].fact.pred)
        on_commit = self.on_commit
        tracing = self.tracer is not None
        lone = stop - start == 1
        dying: List[QueuedDelta] = []
        for index in range(start, stop):
            delta = deltas[index]
            if tracing:
                self._active_trace = delta.trace
            fact = delta.fact
            args = fact.args
            count = -delta.weight
            current = table.count(args)
            if current <= 0:
                # Superseded, never committed, or already gone.  On a
                # fallback table the deletion may target a shadowed
                # version: its producer withdrew an advertisement that
                # was never (or no longer) current, so it must stop
                # being a restore candidate.
                if table.fallback:
                    table.shadow_discard(args, count)
                continue
            if current > count and not delta.force:
                table.delete(args, count)
                continue
            if on_commit is not None:
                on_commit(fact, -current)
            if lone:
                self._fire_strands((delta,), -1)
            else:
                dying.append(delta)
            if delta.force and self.provenance is not None:
                # The row is dropped wholesale, whatever support it
                # still has; a counted delete was already decremented
                # by its own ``-1`` firings (and a re-derivation still
                # on the queue may have recorded fresh support).
                self.provenance.retracted(fact)
            table.force_delete(args)
            if not table.fallback:
                continue
            if delta.force:
                # A forced delete wipes the slot outright (base-table
                # semantics: superseded values never resurrect).
                table.clear_shadow(table.key_of(args))
            elif count > current:
                # The withdrawal outweighs the visible count: the excess
                # targets shadowed copies of the same advertisement
                # (e.g. a dead peer's netted contributions), which must
                # stop being restore candidates.
                table.shadow_discard(args, count - current)
        if dying:
            self._fire_strands(dying, -1)

    def _displace_visible(self, table, fact: Fact) -> None:
        """Primary-key replacement: remove the slot's current row.  Its
        deletion strands run while it is still in the table (so partners
        see it), then it is dropped wholesale.  On a fallback table the
        derivation stays outstanding in the table's shadow: its producer
        never withdrew it, only the replacement displaced it, so a later
        withdrawal of the replacement falls back to it
        (:meth:`_restore_fallback`)."""
        if self.on_commit is not None:
            self.on_commit(fact, -table.count(fact.args))
        self._fire_strands(
            (QueuedDelta(fact, -1, trace=self._active_trace),), -1
        )
        if self.provenance is not None:
            self.provenance.retracted(fact)
        if table.fallback:
            table.supersede(fact.args)
        else:
            table.force_delete(fact.args)

    def _commit_restore(self, fact: Fact) -> None:
        """Process a deferred restore intent: if the keyed slot ``fact``
        was retracted from is *still* empty (no replacement landed while
        the intent waited in the queue), re-materialize its latest
        shadowed version."""
        table = self.db.table(fact.pred)
        key = table.key_of(fact.args)
        if table.get_by_key(key) is not None:
            return  # a newer version already refilled the slot
        self._restore_fallback(table, key)

    def _restore_fallback(self, table, key: Tuple) -> None:
        """A keyed slot lost its visible row and nothing refilled it.
        If older advertisements for the slot are still outstanding, the
        most recent one becomes current again -- without this, a slot
        whose latest version is withdrawn goes empty even though a
        perfectly live alternative derivation was destructively
        superseded earlier, and nothing upstream will ever re-send it
        (its support never changed, so no delta fires there).

        The restore propagates *locally only*: its strands fire (so
        same-node consumers -- e.g. a query projection -- are made
        whole), but remote heads are not shipped.  The restored row is
        an **old** advertisement: when it was displaced, its ``-1``
        already propagated and downstream slots moved on to newer
        versions, so re-announcing it would override them with stale
        state and (on a cyclic topology) feed an oscillation that never
        damps.  Future derivations join against the restored row
        normally, and a later withdrawal of it fires full ``-1``
        strands, which downstream treats as an exact-args miss (a
        no-op, per the count discipline)."""
        entry = table.pop_fallback(key)
        if entry is None:
            return
        args, _count = entry
        # Restore with a fresh single-derivation count: the superseded
        # support was already marked retracted when the version was
        # displaced, and the repair's own "<fallback>" record is its one
        # live justification (keeps the provenance audit exact).
        self.clock += 1
        table.insert(args, ts=self.clock)
        fact = Fact(table.name, args)
        if self.on_commit is not None:
            self.on_commit(fact, 1)
        if self.provenance is not None:
            self.provenance.record_fact("<fallback>", fact, (), 1)
        self._local_only = True
        try:
            self._fire_strands(
                (QueuedDelta(fact, 1, trace=self._active_trace),), 1
            )
        finally:
            self._local_only = False

    def _fire_strands(self, deltas, sign: int) -> None:
        """Fire every strand of the run's predicate once with the whole
        run of driving deltas (virtual: the distributed runtime
        suppresses flooding strands on a query-cache hit)."""
        for strand in self.strands.get(deltas[0].fact.pred, ()):
            self._fire_strand(strand, deltas, sign)

    def _fire_strand(self, strand: Strand, deltas, sign: int) -> None:
        """Fire one strand with a run of driving deltas.  Each fact's
        heads are collected from the strand's kernel, then sent on in
        order: plain heads through :meth:`_route`, aggregate /
        arg-extreme heads through the rule's view -- head by head for a
        lone delta, once through ``apply_many`` (net change only) for a
        longer run.  Derived deltas inherit their own driver's trace."""
        crule = strand.crule
        functions = self.db.functions
        capture = self.provenance
        profiler = self.profiler
        tracing = self.tracer is not None
        started = perf_counter() if profiler is not None else 0.0
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
        netted: Optional[List[Tuple]] = None
        if view is not None and len(deltas) > 1:
            netted = []
        route = self._route
        inferences = 0
        for delta in deltas:
            if tracing:
                self._active_trace = delta.trace
            out: List = []
            kernel(delta.fact.args, functions, out)
            if not out:
                continue
            inferences += len(out)
            if capture is not None:
                for head, body in out:
                    capture.record_fact(crule.label, Fact(pred, head), body,
                                        sign)
                    if netted is not None:
                        netted.append(head)
                    elif view is None:
                        route(pred, head, sign)
                    else:
                        self._feed_view(view, pred, head, sign)
            elif netted is not None:
                netted += out
            elif view is None:
                for head in out:
                    route(pred, head, sign)
            else:
                for head in out:
                    self._feed_view(view, pred, head, sign)
        self.inferences += inferences
        if netted:
            # Under tracing the netted group-value changes are
            # attributed to the last contributing driver's trace -- an
            # approximation (a net change can mix contributions from
            # several traces).
            for view_sign, view_args in view.apply_many(netted, sign):
                self.derive(Fact(pred, view_args), view_sign)
        if profiler is not None:
            profiler.add(crule.label, strand.driver_literal.pred,
                         perf_counter() - started)
        if inferences and self.metrics is not None:
            self._note_firing(crule.label, inferences)

    def _note_firing(self, label: str, inferences: int) -> None:
        """Metrics push: one productive strand invocation (kept out of
        the firing loop so the disabled path stays a single check)."""
        metrics = self.metrics
        firings = metrics.rule_firings
        firings[label] = firings.get(label, 0) + 1
        counts = metrics.rule_inferences
        counts[label] = counts.get(label, 0) + inferences

    def _route(self, pred: str, head: Tuple, sign: int) -> None:
        """Send a plain rule head to its relation (virtual: the
        distributed runtime ships heads located at another node)."""
        self.derive(Fact(pred, head), sign)

    def _feed_view(self, view, pred: str, head: Tuple, sign: int) -> None:
        """One contribution into an aggregate / arg-extreme view; the
        group-value changes it causes are derived here (view rules are
        local rules, so their output never ships)."""
        for view_sign, view_args in view.apply(head, sign):
            self.derive(Fact(pred, view_args), view_sign)


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
