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

**Strand kernels.**  With ``use_plans=True`` (the default) every strand
runs as a *generated kernel* (:mod:`repro.engine.kernels`): its join
plan (:mod:`repro.engine.rules` -- literal order by bound-ness and
estimated selectivity) is turned into the source of one flat Python
function -- driving tuple unpacked into locals, one loop per partner
literal over that table's live index dict, conditions, assignments and
the head tuple inlined -- compiled once per program and bound per engine
to its tables.  A firing collects the kernel's head tuples, then emits
them.  ``use_plans=False`` runs the interpreter behind the same kernel
signature, for baseline comparisons
(``benchmarks/bench_join_plans.py``).

**Micro-batched commits.**  With ``batch_size > 1`` the queue is
drained in chunks instead of one delta at a time (Section 4's "bursty
updates" processed as bursts):

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
2. *Run batching* -- surviving weighted intents are split into maximal
   runs of one (predicate, direction), each run is committed to the
   table in order, and every strand of that predicate then fires
   **once per run** with the list of driving facts, amortizing strand
   lookup, driver-step seeding and inference bookkeeping.  Run
   batching applies only to predicates with no self-join strands (no
   rule both driven by and joining against the same predicate); for
   those, commit-then-fire is join-for-join identical to sequential
   processing because a run never touches its own partner tables.
   Self-join predicates, forced deletions and (in the distributed
   runtime) cache-intercepted query predicates fall back to the
   per-delta reference path mid-chunk.
3. *Aggregate netting* -- a batched strand firing feeds its aggregate
   or arg-extreme view through ``apply_many``, which emits only the
   net group-value change for the chunk.

``batch_size=1`` (the default) is the reference path and reproduces
the historical commit order exactly.  Batching may change the
*intermediate* delta traffic (zero-weight runs never commit, netted
aggregates skip transient values) but never the fixpoint or the final
derivation counts -- ``tests/test_batching.py`` and
``tests/test_zset.py`` hold both paths to that, and
``benchmarks/bench_zset.py`` measures the win over both the per-delta
path and PR 2's guard-based cancellation.

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
from repro.engine.rules import (
    CompiledRule,
    interpreted_kernel,
    shared_compiled_rules,
)
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
    derives against ``db``'s tables.  Given ``stats`` (a
    :class:`StatsCatalog`) it is a generated function
    (:mod:`repro.engine.kernels`) for the literal order the statistics
    imply -- ``code`` is the shared :class:`StrandKernel`, generated at
    most once per program, ``kernel_source`` its text -- and only the
    table/index binding happens here; without, it is the interpreter
    behind the same signature.  ``capture_kernel`` is the provenance
    variant, whose ``out`` receives ``(head, ground body facts)`` pairs.
    Either is bound on first need (:meth:`bind`).
    """

    __slots__ = ("crule", "driver_index", "driver_literal", "code",
                 "kernel", "capture_kernel", "_db")

    def __init__(self, crule: CompiledRule, driver_index: int,
                 db: Database, stats=None):
        self.crule = crule
        self.driver_index = driver_index
        self.driver_literal: Literal = crule.body[driver_index]
        self.code = (
            strand_kernel(crule, driver_index, stats)
            if stats is not None else None
        )
        self.kernel: Optional[Callable] = None
        self.capture_kernel: Optional[Callable] = None
        self._db = db

    def bind(self, capture: bool) -> Callable:
        """Bind (and keep) the plain or the capture kernel; registers
        every index the kernel probes."""
        if self.code is not None:
            kernel = self.code.bind(self._db, capture)
        else:
            kernel = interpreted_kernel(self.crule, self.driver_index,
                                        self._db, capture)
        if capture:
            self.capture_kernel = kernel
        else:
            self.kernel = kernel
        return kernel

    @property
    def kernel_source(self) -> Optional[str]:
        """Generated source of the kernel (``None`` when interpreted)."""
        return self.code.source() if self.code is not None else None

    def __repr__(self) -> str:
        how = "interpreted" if self.code is None else (
            f"{self.code.filename()} order={self.code.plan.order}"
        )
        return (f"Strand({self.crule.label}, "
                f"driver={self.driver_literal.pred}, {how})")


def build_strands(compiled: List[CompiledRule], db: Database,
                  stats=None) -> Dict[str, List[Strand]]:
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

    ``batch_size`` selects the queue discipline: 1 (the default)
    processes one delta per step exactly as Algorithm 3 writes it;
    larger values enable the micro-batched commit path (cancellation,
    run batching, aggregate netting -- see the module docstring).
    """

    def __init__(
        self,
        program: Program,
        db: Optional[Database] = None,
        on_commit: Optional[Callable[[Fact, int], None]] = None,
        use_plans: bool = True,
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
        self.use_plans = use_plans
        self.batch_size = max(1, int(batch_size))
        if use_plans and stats is None:
            stats = StatsCatalog.from_database(self.db)
        self.strands = build_strands(self.compiled, self.db,
                                     stats if use_plans else None)
        for strand_list in self.strands.values():
            for strand in strand_list:
                # Binding now registers every probed index up front.
                strand.bind(capture=provenance is not None)
        #: The catalog plans were costed against; live deployments feed
        #: observed cardinalities and churn back into it
        #: (``Cluster.refresh_stats``), the adaptive-cost-model input.
        self.stats_catalog = stats
        #: Predicates whose deltas must take the per-delta reference
        #: path even inside a chunk: any predicate that drives a strand
        #: also joining against itself (run batching would double- or
        #: under-count the self-join), plus subclass-specific exclusions.
        self._unbatchable = set(self._unbatchable_preds())
        for pred, strand_list in self.strands.items():
            for strand in strand_list:
                crule = strand.crule
                if any(
                    crule.body[index].pred == pred
                    for index in crule.literal_indexes
                    if index != strand.driver_index
                ):
                    self._unbatchable.add(pred)
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
        #: distributed ``_emit`` override skips shipping).  Set around a
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

    def _unbatchable_preds(self):
        """Extra predicates the batched path must hand to the per-delta
        reference path (subclass hook; the distributed node runtime
        excludes its cache-intercepted query predicate)."""
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
        taken = 0
        chunk = self.batch_size
        while self.queue:
            if taken >= max_steps:
                raise EvaluationError(
                    f"PSN exceeded {max_steps} steps (non-terminating "
                    f"program?)",
                    engine="psn",
                )
            if chunk > 1:
                taken += self.process_chunk(min(chunk, max_steps - taken))
            else:
                self.process_next()
                taken += 1
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
        chunk = self.batch_size
        while self.queue and taken < batch:
            if chunk > 1:
                taken += self.process_chunk(min(chunk, batch - taken))
            else:
                self.process_next()
                taken += 1
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
        delta = self.queue.popleft()
        self.steps += 1
        if self.tracer is not None:
            self._active_trace = delta.trace
        if delta.restore:
            self._commit_restore(delta.fact)
        elif delta.weight > 0:
            self._commit_insert(delta.fact, delta.weight)
        else:
            self._commit_delete(delta.fact, -delta.weight, force=delta.force)

    # ------------------------------------------------------------------
    # Micro-batched processing (batch_size > 1)
    # ------------------------------------------------------------------
    def process_chunk(self, limit: int) -> int:
        """Drain up to ``limit`` deltas as one chunk; returns the number
        of deltas consumed off the queue (cancelled pairs included)."""
        queue = self.queue
        count = min(limit, len(queue))
        if count <= 1:
            if count:
                self.process_next()
            return count
        chunk = [queue.popleft() for _ in range(count)]
        self.steps += count
        # Netting can only change anything when the chunk mixes
        # directions; all-refresh or all-expiry bursts skip the scan
        # outright (and keep their per-intent TTL refreshes).
        has_plus = has_minus = False
        for delta in chunk:
            if delta.force or delta.restore:
                continue
            if delta.weight > 0:
                has_plus = True
            else:
                has_minus = True
        survivors = (
            self._net_chunk(chunk) if has_plus and has_minus else chunk
        )
        unbatchable = self._unbatchable
        tracing = self.tracer is not None
        index = 0
        end = len(survivors)
        while index < end:
            delta = survivors[index]
            pred = delta.fact.pred
            plus = delta.weight > 0
            if tracing:
                self._active_trace = delta.trace
            if delta.restore:
                self._commit_restore(delta.fact)
                index += 1
                continue
            if delta.force or pred in unbatchable:
                if plus:
                    self._commit_insert(delta.fact, delta.weight)
                else:
                    self._commit_delete(delta.fact, -delta.weight,
                                        force=delta.force)
                index += 1
                continue
            stop = index + 1
            while stop < end:
                nxt = survivors[stop]
                if (nxt.force or nxt.restore
                        or (nxt.weight > 0) != plus
                        or nxt.fact.pred != pred):
                    break
                stop += 1
            if stop - index == 1:
                if plus:
                    self._commit_insert(delta.fact, delta.weight)
                else:
                    self._commit_delete(delta.fact, -delta.weight)
            else:
                if plus:
                    run = [(survivors[i].fact, survivors[i].weight,
                            survivors[i].trace)
                           for i in range(index, stop)]
                    self._commit_insert_run(run)
                else:
                    run = [(survivors[i].fact, -survivors[i].weight,
                            survivors[i].trace)
                           for i in range(index, stop)]
                    self._commit_delete_run(run)
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

    def _commit_insert_run(
        self, items: List[Tuple[Fact, int, Optional[int]]]
    ) -> None:
        """Commit a run of same-predicate weighted insertions, then fire
        each strand once with the freshly visible facts.  Join-for-join
        identical to sequential processing: the predicate has no
        self-join strands (checked by the caller), so the deferred
        firings read partner tables this run never touches."""
        table = self.db.table(items[0][0].pred)
        on_commit = self.on_commit
        tracing = self.tracer is not None
        soft = table.lifetime != INFINITY
        pending: List[Fact] = []
        pending_traces: Optional[List] = [] if tracing else None
        for fact, weight, trace in items:
            if tracing:
                self._active_trace = trace
            args = fact.args
            if args in table:
                # More derivations of a visible fact: one count bump of
                # the whole weight + timestamp refresh (observable only
                # for soft-state TTL consumers, and as one refresh of
                # the whole weight).
                self.clock += 1
                table.insert(args, ts=self.clock, count=weight)
                if soft and on_commit is not None:
                    on_commit(fact, weight)
                continue
            old = table.get_by_key(table.key_of(args))
            if old is not None:
                # Replacement retracts the superseded row through the
                # sequential path; flush deferred firings first so the
                # retraction cannot overtake them (the old row may even
                # be a member of this very run).
                if pending:
                    self._fire_strands_batch(pending, 1, pending_traces)
                    pending = []
                    if tracing:
                        pending_traces = []
                if table.fallback:
                    self._supersede_visible(Fact(fact.pred, old),
                                            table.count(old))
                else:
                    self._retract_visible(Fact(fact.pred, old),
                                          table.count(old))
            self.clock += 1
            table.insert(args, ts=self.clock, count=weight)
            if table.fallback:
                table.absorb_shadow(args)
            if on_commit is not None:
                on_commit(fact, weight)
            pending.append(fact)
            if tracing:
                pending_traces.append(trace)
        if pending:
            self._fire_strands_batch(pending, 1, pending_traces)

    def _commit_delete_run(
        self, items: List[Tuple[Fact, int, Optional[int]]]
    ) -> None:
        """Commit a run of same-predicate (non-forced) weighted
        deletions -- ``count`` derivations withdrawn per fact -- then
        fire each strand once with the facts that lost visibility.
        Removing the tuples up front reproduces the sequential
        visibility rule ("a co-participant deleted later no longer sees
        it") because the run's facts never appear in each other's
        partner tables."""
        table = self.db.table(items[0][0].pred)
        on_commit = self.on_commit
        tracing = self.tracer is not None
        pending: List[Fact] = []
        pending_traces: Optional[List] = [] if tracing else None
        for fact, count, trace in items:
            if tracing:
                self._active_trace = trace
            current = table.count(fact.args)
            if current <= 0:
                # Superseded, never committed, or already gone; on a
                # fallback table this may withdraw a shadowed version.
                if table.fallback:
                    table.shadow_discard(fact.args, count)
                continue
            if current > count:
                table.delete(fact.args, count)
                continue
            if on_commit is not None:
                on_commit(fact, -current)
            if self.provenance is not None:
                self.provenance.retracted(fact)
            table.force_delete(fact.args)
            if table.fallback and count > current:
                # Surplus weight beyond the visible count withdraws
                # shadowed copies (see :meth:`_commit_delete`).
                table.shadow_discard(fact.args, count - current)
            pending.append(fact)
            if tracing:
                pending_traces.append(trace)
        if pending:
            self._fire_strands_batch(pending, -1, pending_traces)

    def _commit_insert(self, fact: Fact, weight: int = 1) -> None:
        table = self.db.table(fact.pred)
        if fact.args in table:
            # More derivations of a visible fact: bump its count by the
            # whole weight and refresh its timestamp to the current
            # clock.  For soft-state tables (finite lifetime) the
            # re-insertion is a *refresh* and must reach the TTL
            # observer (Section 4.2: "facts must be explicitly
            # reinserted ... with a new TTL").
            self.clock += 1
            table.insert(fact.args, ts=self.clock, count=weight)
            if table.lifetime != INFINITY and self.on_commit is not None:
                self.on_commit(fact, weight)
            return
        old = table.get_by_key(table.key_of(fact.args))
        if old is not None:
            # Primary-key replacement: retract the superseded tuple first.
            if table.fallback:
                self._supersede_visible(Fact(fact.pred, old),
                                        table.count(old))
            else:
                self._retract_visible(Fact(fact.pred, old),
                                      table.count(old))
        self.clock += 1
        table.insert(fact.args, ts=self.clock, count=weight)
        if table.fallback:
            table.absorb_shadow(fact.args)
        if self.on_commit is not None:
            self.on_commit(fact, weight)
        self._fire_strands(fact, 1)

    def _commit_delete(self, fact: Fact, count: int = 1,
                       force: bool = False) -> None:
        table = self.db.table(fact.pred)
        current = table.count(fact.args)
        if current <= 0:
            # Superseded, never committed, or already gone.  On a
            # fallback table the deletion may target a shadowed version:
            # its producer withdrew an advertisement that was never (or
            # no longer) current, so it must stop being a restore
            # candidate.
            if table.fallback:
                table.shadow_discard(fact.args, count)
            return
        if current > count and not force:
            table.delete(fact.args, count)
            return
        self._retract_visible(fact, current)
        if force and table.fallback:
            # A forced delete wipes the slot outright (base-table
            # semantics: superseded values never resurrect).
            table.clear_shadow(table.key_of(fact.args))
        elif table.fallback and count > current:
            # The withdrawal outweighs the visible count: the excess
            # targets shadowed copies of the same advertisement (e.g. a
            # dead peer's netted contributions), which must stop being
            # restore candidates -- exactly what the surplus unit
            # minuses did one at a time.
            table.shadow_discard(fact.args, count - current)

    def _retract_visible(self, fact: Fact, count: int = 1) -> None:
        """Remove a visible fact: run its deletion strands while it is
        still in the table (so partners see it), then drop it.
        ``count`` is the derivation count the row held -- the weighted
        magnitude its ``on_commit`` retraction reports."""
        if self.on_commit is not None:
            self.on_commit(fact, -count)
        self._fire_strands(fact, -1)
        if self.provenance is not None:
            # The row is dropped wholesale (replacement / forced delete /
            # last derivation); kill its remaining live support.
            self.provenance.retracted(fact)
        self.db.table(fact.pred).force_delete(fact.args)

    def _supersede_visible(self, fact: Fact, count: int = 1) -> None:
        """Displace the current row of a keyed slot.  Downstream
        consumers see a retraction (only the latest version of a slot is
        visible), but the derivation stays outstanding in the table's
        shadow: its producer never withdrew it, only the replacement
        displaced it, so a later withdrawal of the replacement falls
        back to it (:meth:`_restore_fallback`)."""
        if self.on_commit is not None:
            self.on_commit(fact, -count)
        self._fire_strands(fact, -1)
        if self.provenance is not None:
            self.provenance.retracted(fact)
        self.db.table(fact.pred).supersede(fact.args)

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
            self._fire_strands(fact, 1)
        finally:
            self._local_only = False

    def _fire_strands(self, fact: Fact, sign: int) -> None:
        for strand in self.strands.get(fact.pred, ()):
            self._fire_strand(strand, (fact,), sign)

    def _fire_strands_batch(self, facts: List[Fact], sign: int,
                            traces: Optional[List] = None) -> None:
        """Fire every strand of the run's predicate once with the whole
        list of driving facts (the batched counterpart of
        :meth:`_fire_strands`), netting view outputs over the run."""
        for strand in self.strands.get(facts[0].pred, ()):
            self._fire_strand(strand, facts, sign, traces, net_views=True)

    def _fire_strand(self, strand: Strand, facts, sign: int,
                     traces: Optional[List] = None,
                     net_views: bool = False) -> None:
        """Fire one strand with a run of driving facts (a single delta
        is a run of one).  Each fact's heads are collected from the
        strand's kernel, then emitted in order.  ``traces`` (tracing
        only) carries each fact's trace id so derived deltas inherit
        their own driver's trace even inside a batched firing;
        ``net_views`` feeds an aggregate / arg-extreme head through
        ``apply_many`` once for the whole run instead of per head."""
        crule = strand.crule
        functions = self.db.functions
        capture = self.provenance
        profiler = self.profiler
        started = perf_counter() if profiler is not None else 0.0
        kernel = strand.kernel if capture is None else strand.capture_kernel
        if kernel is None:
            kernel = strand.bind(capture is not None)
        emit = self._emit
        view_heads: Optional[List[Tuple]] = None
        if net_views and (crule.aggregate is not None
                          or crule.argmin is not None):
            view_heads = []
        inferences = 0
        for position, fact in enumerate(facts):
            if traces is not None:
                self._active_trace = traces[position]
            out: List = []
            kernel(fact.args, functions, out)
            if not out:
                continue
            inferences += len(out)
            if capture is not None:
                for head, body in out:
                    capture.record_fact(crule.label,
                                        Fact(crule.head.pred, head), body,
                                        sign)
                    if view_heads is None:
                        emit(crule, head, sign)
                    else:
                        view_heads.append(head)
            elif view_heads is not None:
                view_heads += out
            else:
                for head in out:
                    emit(crule, head, sign)
        self.inferences += inferences
        if view_heads:
            # Net view outputs for the whole run.  Under tracing the
            # netted group-value changes are attributed to the last
            # contributing driver's trace -- an approximation (a net
            # change can mix contributions from several traces).
            pred = crule.head.pred
            if crule.aggregate is not None:
                view = self.views[pred]
            else:
                view = self.argmin_views[pred]
            for view_sign, view_args in view.apply_many(view_heads, sign):
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

    def _emit(self, crule: CompiledRule, head: Tuple, sign: int) -> None:
        """Route a rule firing to its head relation (virtual: the
        distributed runtime overrides this to ship remote heads)."""
        pred = crule.head.pred
        if crule.aggregate is not None:
            view = self.views[pred]
            for view_sign, view_args in view.apply(head, sign):
                self.derive(Fact(pred, view_args), view_sign)
            return
        if crule.argmin is not None:
            view = self.argmin_views[pred]
            for view_sign, view_args in view.apply(head, sign):
                self.derive(Fact(pred, view_args), view_sign)
            return
        self.derive(Fact(pred, head), sign)


def evaluate(
    program: Program,
    db: Optional[Database] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    use_plans: bool = True,
    batch_size: int = 1,
    provenance=None,
    profiler=None,
) -> EvalResult:
    """Run ``program`` to fixpoint with PSN and return the result.

    ``profiler`` (an :class:`repro.obs.Profiler`) accumulates
    per-strand CPU time for the run when given."""
    engine = PSNEngine(program, db=db, use_plans=use_plans,
                       batch_size=batch_size, provenance=provenance,
                       profiler=profiler)
    return engine.fixpoint(max_steps=max_steps)
