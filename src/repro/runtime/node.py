"""Per-node runtime: a PSN engine embedded in the simulated network.

Each node runs the localized program over its own partition of every
relation (horizontal partitioning by location specifier, Section 2.1).
Rule strands execute exactly as in the centralized engine; the only
difference is head routing: a head tuple whose location specifier is a
different address is shipped along the link (Claim 1 guarantees the
destination is a link neighbour).

Processing costs virtual CPU time: each queued delta consumed charges
``cpu_delay``, which serializes a node's work the way a single P2
dataflow thread would.  A tick consumes one chunk of up to
``config.cpu_batch`` deltas and books the node for the corresponding
multiple of ``cpu_delay``, so virtual-time accounting is independent of
the batch size while the host-side simulation does per-event work once
per batch instead of once per delta.  The booking is an event only
while there is work behind it: a tick that leaves deltas on the queue
posts the next one ``n * cpu_delay`` later; a tick that drains the
queue posts nothing and records the time its CPU runs out
(``_busy_until``: the first delta's ``cpu_delay`` was served ahead of
the tick, the other ``n - 1`` start now), and whatever arrives next is
processed at ``max(now + cpu_delay, _busy_until)``.  An idle cluster
therefore holds no event per node: ``Cluster.run()`` / ``advance()``
return the time of the last event that did something (the last commit
or delivery), not the end of the last booking, and ``cpu_delay=0`` (the
live target) books nothing and reads no clock.

The run is the unit on the wire as it is on the queue (Section 5.2
buffers outbound tuples so that those bound for one neighbour share a
message).  While a chunk is processed, each remote head joins the
*outbox* run of its destination (``dst -> [NetDelta]``, emission order);
when the chunk ends :meth:`NodeRuntime._tick` hands every destination's
run to ``Transport.send`` once.  A chunk commits at one virtual instant,
so shipping at its end delays nothing.  Per-link FIFO -- what Theorem 4
needs -- is the list order; a run never mixes destinations, and the
``+`` and ``-`` deltas of a chunk travel together in the order they were
emitted.  Arrivals come back the same way: one message's deltas are one
:meth:`NodeRuntime.receive`, which queues one run per stretch of one
predicate and one sign and requests one tick; the peer ledger
(``reliable``) and the ``receive`` span are the only per-delta work
beyond that, each done only when its feature is on.  No lineage
crosses the wire: the nodes of a deployment share one provenance
store, which already links a materialization here to the firing that
produced it at the sender.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.errors import NetworkError
from repro.ndlog.ast import Program
from repro.ndlog.functions import REGISTRY
from repro.net.message import NetDelta
from repro.obs.observer import node_observer

_SUBPATH = REGISTRY["f_subpath"]
_CONCAT = REGISTRY["f_concatPath"]
_LAST = REGISTRY["f_last"]

#: Query-result caching (Section 5.2, ``config.cache``) reads the schema
#: of :func:`repro.ndlog.programs.multi_query_magic` after ``aggsel``:
#: the query relation and its destination, path and cost columns, the
#: answer relation and its path column, and the flooding rule a cache
#: hit suppresses.
CACHE_QUERY_PRED = "pathQ__best"
CACHE_DST, CACHE_PATH, CACHE_COST = 2, 3, 4
CACHE_ANSWER_PRED = "answer"
CACHE_ANSWER_PATH = 2
CACHE_SUPPRESSED = ("MQ2",)


class NodeRuntime(PSNEngine):
    """One network node executing the localized program."""

    def __init__(self, address: str, program: Program, cluster):
        # Set before super().__init__: the engine's run cap calls back
        # into _single_delta_preds, which reads the cluster's config.
        self.address = address
        self.cluster = cluster
        #: This node's scheduling clock: the shared cluster clock, or a
        #: drifted view of it when a chaos schedule skews this node.
        #: (``self.clock`` is taken: PSN's provenance commit counter.)
        self.net_clock = cluster.clock_for(address)
        store = cluster.provenance
        recorder = None
        if store is not None:
            recorder = store.recorder(
                node=address, clock=lambda: cluster.clock.now
            )
        super().__init__(program, batch_size=cluster.config.cpu_batch,
                         provenance=recorder,
                         schemas=cluster.compiled.schemas)
        #: ``None`` until something watches this node: an observability
        #: flag, ``config.cache``, or the first ``Cluster.subscribe``.
        self.observer = node_observer(self)
        self._tick_scheduled = False
        #: The time the CPU booked by the last chunk runs out (see
        #: :meth:`_tick`; never set when ``cpu_delay`` is 0).
        self._busy_until = 0.0
        #: Remote heads of the chunk being processed: destination ->
        #: deltas in emission order; :meth:`_tick` hands each list to
        #: the transport when the chunk ends.
        self._outbox: Dict[str, List[NetDelta]] = defaultdict(list)
        self.deltas_processed = 0
        #: Net deliveries per neighbor: peer -> fact -> (inserts - deletes).
        #: Maintained only under the reliable transport, where a link
        #: expiry must invalidate everything a silent peer advertised
        #: (a deletion cascade cannot route through a crashed node --
        #: the joins live there).
        self.peer_ledger: Dict[str, Dict[Fact, int]] = {}
        #: Query-result cache: dst -> (path_suffix, cost).  Section 5.2.
        self.result_cache: Dict[str, Tuple[Tuple, float]] = {}
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # Scheduling: up to cpu_batch deltas per CPU tick
    # ------------------------------------------------------------------
    def _enqueue(self, pred: str, heads, weights, force, traces) -> None:
        self.queue.push(pred, heads, weights, force, traces)
        self._schedule_tick()

    def now(self) -> float:
        """The cluster clock, not this node's skewed view of it."""
        return self.cluster.clock.now

    def _schedule_tick(self) -> None:
        if self._tick_scheduled or not self.queue.depth:
            return
        self._tick_scheduled = True
        delay = self.cluster.config.cpu_delay
        if delay:
            # Behind the CPU time the last chunk booked, if that runs
            # out later than this delta's own charge.
            booked = self._busy_until - self.net_clock.now
            if booked > delay:
                delay = booked
        self.net_clock.post(delay, self._tick)

    def _tick(self) -> None:
        chaos = self.cluster.chaos
        if chaos is not None:
            resume = chaos.down_until(self.address)
            if resume is not None:
                # Fail-pause crash: the dataflow freezes with its queue
                # intact.  With a scheduled restart the tick parks until
                # then and processing resumes on the retained state;
                # without one the node is dead for good and its queue
                # stays parked (quiescence checks skip it).
                if resume == float("inf"):
                    self._tick_scheduled = False
                    return
                self.net_clock.post(
                    max(0.0, resume - self.net_clock.now)
                    + self.cluster.config.cpu_delay,
                    self._tick,
                )
                return
        observer = self.observer
        if observer is not None and observer.metered:
            observer.tick(self.queue.depth)
        processed = 0
        try:
            processed = self.process_chunk(self.batch_size)
            self.deltas_processed += processed
            if self._outbox:
                self._ship_outbox()
        finally:
            # (Also when the chunk or a channel raised: the error
            # surfaces through the clock, and a node that did not book
            # its next tick would sit on its queue for good.)
            # The tick that fired was charged one cpu_delay ahead (for
            # its first delta); the remaining (processed - 1) deltas owe
            # their CPU time now.  With work left the next tick is that
            # far off; a drained node posts nothing and books the time
            # instead (``_busy_until``), and a delta arriving meanwhile
            # ticks at ``max(now + cpu_delay, _busy_until)`` -- it waits
            # its turn exactly as behind a busy single-threaded
            # dataflow.  With batch_size=1 this reduces to the
            # historical schedule: one charged delta per event, idle
            # immediately after a drain.
            delay = self.cluster.config.cpu_delay
            if self.queue.depth:
                self.net_clock.post(delay * max(processed, 1), self._tick)
            else:
                self._tick_scheduled = False
                if processed > 1 and delay:
                    self._busy_until = (
                        self.net_clock.now + delay * (processed - 1))

    def _ship_outbox(self) -> None:
        """Hand the transport the heads of the chunk that just
        committed: it committed at one virtual instant, so they leave
        together, one run per neighbour, in emission order.  A channel
        may refuse a run with a :class:`NetworkError` (a frame no
        datagram can carry: the byte model only estimates the encoded
        size); the other neighbours' runs still leave before the first
        refusal surfaces."""
        outbox, self._outbox = self._outbox, defaultdict(list)
        send = self.cluster.transport.send
        address = self.address
        refused = None
        for destination, deltas in outbox.items():
            try:
                send(address, destination, deltas)
            except NetworkError as error:
                refused = refused or error
        if refused is not None:
            raise refused

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------
    def receive(self, deltas, origin: Optional[str] = None) -> None:
        """The deltas of one message arrived over a link from neighbour
        ``origin``: enqueue them like local deltas ("a timestamp is
        added to each tuple at arrival", Section 3.3.2 -- in our commit
        discipline the arrival order itself is the timestamp), one run
        per stretch of one predicate and one sign, and request one
        tick.  A delta's ``weight`` is the Z-set weight off the wire
        (``+-1`` per visibility transition; larger magnitudes when the
        sender coalesced a window; a zero-weight entry is no change and
        is dropped).

        Two things are done per delta, each only when its feature is
        on: under ``config.reliable`` the arrival is booked on the peer
        ledger (a link expiry may later need to invalidate that
        neighbour's contributions), and a retraction of more than the
        ledger holds is cut to what it holds -- the excess withdraws
        what a link reset already withdrew (:meth:`invalidate_peer`)
        and must not touch support from anywhere else; a traced delta
        records its ``receive`` span and keeps its trace id on the
        queue, so downstream derivations and the local commit stay
        causally linked."""
        observer = self.observer
        traced = observer is not None and observer.traced
        ledger = None
        if origin is not None and self.cluster.config.reliable:
            ledger = self.peer_ledger.setdefault(origin, {})
        push = self.queue.push
        pred = plus = heads = weights = traces = None
        for delta in deltas:
            weight = delta.weight
            if not weight:
                continue
            args = delta.args
            if ledger is not None:
                fact = Fact(delta.pred, args)
                held = ledger.get(fact, 0)
                if held + weight < 0:
                    weight = -held
                    if not weight:
                        continue
                count = held + weight
                if count:
                    ledger[fact] = count
                else:
                    ledger.pop(fact, None)
            if delta.pred == pred and (weight > 0) == plus:
                heads.append(args)
                weights.append(weight)
            else:
                # A new run: one predicate, one sign.
                if heads:
                    push(pred, heads, weights, False, traces)
                pred, plus = delta.pred, weight > 0
                heads, weights = [args], [weight]
                if traced:
                    traces = []
            if traced:
                traces.append(delta.trace)
                if delta.trace is not None:
                    observer.receive(pred, args, weight, delta.trace, origin)
        push(pred, heads, weights, False, traces)
        self._schedule_tick()

    def invalidate_peer(self, peer: str) -> None:
        """Link expiry support (:meth:`Cluster.fail_link`): retract
        every net contribution ``peer`` shipped here, as if the silent
        neighbor had withdrawn its advertisements itself (the deletion
        cascade then propagates among the survivors normally).  Each
        fact's net count withdraws as one weighted intent -- the Z-set
        representation's payoff: the peer's whole ledger is a handful
        of bulk deltas."""
        ledger = self.peer_ledger.pop(peer, {})
        for fact, count in ledger.items():
            if count > 0:
                self.derive(fact, -count)

    def _emit(self, pred: str, heads, sign: int, traces=None) -> None:
        """Split one firing's heads by location specifier: local heads
        join this node's queue, the rest join the outbox run of their
        destination (shipped when the chunk ends, see :meth:`_tick`).
        ``sign`` is the firing's, ``+1`` or ``-1``."""
        address = self.address
        outbox = self._outbox
        local = []
        local_traces = None if traces is None else []
        if traces is None:
            for head in heads:
                if head[0] == address:
                    local.append(head)
                else:
                    outbox[head[0]].append(NetDelta(pred, head, sign))
        else:
            for head, trace in zip(heads, traces):
                if head[0] == address:
                    local.append(head)
                    local_traces.append(trace)
                else:
                    outbox[head[0]].append(NetDelta(pred, head, sign, trace))
        if local:
            super()._emit(pred, local, sign, local_traces)
            self._schedule_tick()


class CachingNodeRuntime(NodeRuntime):
    """A node of a ``config.cache`` deployment: query-result caching
    (Section 5.2).  The cache-intercepted query predicate commits as
    runs of one, so :meth:`_fire_strands` can suppress the flooding
    strands per query on a hit; answers travelling the reverse path
    install cache entries (:meth:`cache_answer`).  A plain node pays
    nothing for either."""

    def _single_delta_preds(self):
        return (CACHE_QUERY_PRED,)

    def cache_answer(self, fact: Fact, weight: int) -> None:
        """Commit subscriber under ``config.cache`` (composed in
        :func:`~repro.obs.observer.node_observer`): install a cache
        entry from an answer travelling the reverse path -- the suffix
        of the answer path from this node to the destination is itself
        an optimal path ("since the subpaths of shortest paths are
        optimal, these can also be cached")."""
        if weight <= 0 or fact.pred != CACHE_ANSWER_PRED:
            return
        path = fact.args[CACHE_ANSWER_PATH]
        if not isinstance(path, tuple) or self.address not in path:
            return
        suffix = _SUBPATH(path, self.address)
        if len(suffix) < 2:
            return
        destination = _LAST(path)
        cost = len(suffix) - 1  # hop-count workload (Section 6.3)
        existing = self.result_cache.get(destination)
        if existing is None or cost < existing[1]:
            self.result_cache[destination] = (suffix, cost)

    def _fire_strands(self, pred: str, heads, sign: int, traces,
                      strands=None) -> None:
        if sign > 0 and pred == CACHE_QUERY_PRED:
            # The query predicate's runs are capped at this one delta.
            if self._try_cache_hit(heads[0]):
                strands = [
                    strand for strand in self.strands.get(pred, ())
                    if strand.crule.rule.label not in CACHE_SUPPRESSED]
        super()._fire_strands(pred, heads, sign, traces, strands)

    def _try_cache_hit(self, args: Tuple) -> bool:
        """On a cached destination, answer the query tuple ``args``
        directly and stop the flood ("this cached value can be reused by
        all queries for destination d that pass through a")."""
        destination = args[CACHE_DST]
        if destination == self.address:
            return False
        entry = self.result_cache.get(destination)
        if entry is None:
            return False
        suffix, suffix_cost = entry
        prefix = args[CACHE_PATH]
        if any(node in prefix for node in suffix[1:]):
            return False  # joining would create a loop; flood normally
        full_path = _CONCAT(prefix, suffix)
        full_cost = args[CACHE_COST] + suffix_cost
        qid = args[1]
        self.cache_hits += 1
        answer = (self.address, qid, full_path, full_cost)
        if self.provenance is not None:
            # A cache hit synthesizes the answer outside any rule strand;
            # record it so the derivation graph still supports the tuple.
            self.provenance.record_run(
                "<cache>", CACHE_ANSWER_PRED,
                [(answer, (Fact(CACHE_QUERY_PRED, args),))], 1)
        self._derive(CACHE_ANSWER_PRED, answer, 1)
        return True
