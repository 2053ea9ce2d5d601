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
per batch instead of once per delta.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Optional, Tuple

from repro.engine.database import Database
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine, QueueRow
from repro.ndlog.ast import Program
from repro.ndlog.functions import REGISTRY
from repro.obs.observer import node_observer

_SUBPATH = REGISTRY["f_subpath"]
_CONCAT = REGISTRY["f_concatPath"]
_LAST = REGISTRY["f_last"]


class NodeRuntime(PSNEngine):
    """One network node executing the localized program."""

    def __init__(self, address: str, program: Program, cluster):
        # Set before super().__init__: the engine's run-cap scan calls
        # back into _single_delta_preds, which reads the cluster's
        # cache policy.
        self.address = address
        self.cluster = cluster
        #: This node's scheduling clock: the shared cluster clock, or a
        #: drifted view of it when a chaos schedule skews this node.
        #: (``self.clock`` is taken: PSN's logical timestamp counter.)
        self.net_clock = cluster.clock_for(address)
        store = cluster.provenance
        recorder = None
        if store is not None:
            recorder = store.recorder(
                node=address, clock=lambda: cluster.clock.now
            )
        super().__init__(program, db=Database.for_program(program),
                         batch_size=cluster.config.cpu_batch,
                         provenance=recorder)
        #: ``None`` until something watches this node: an observability
        #: flag, a cache policy, or the first ``Cluster.subscribe``.
        self.observer = node_observer(self)
        self._tick_scheduled = False
        self.deltas_processed = 0
        #: Net arrivals per neighbor: peer -> fact -> (inserts - deletes).
        #: Maintained only under the reliable transport, where the
        #: convergence watchdog may need to invalidate everything a dead
        #: peer ever advertised (a deletion cascade cannot route through
        #: a crashed node -- the joins live there).
        self.peer_ledger: Dict[str, Dict[Fact, int]] = {}
        #: Query-result cache: dst -> (path_suffix, cost).  Section 5.2.
        self.result_cache: Dict[str, Tuple[Tuple, float]] = {}
        self.cache_hits = 0

    def _single_delta_preds(self):
        """Cache-intercepted query tuples commit as runs of one, so
        :meth:`_fire_strands` can suppress the flooding strands per
        query on a hit."""
        policy = self.cluster.config.cache
        return () if policy is None else (policy.query_pred,)

    # ------------------------------------------------------------------
    # Scheduling: up to cpu_batch deltas per CPU tick
    # ------------------------------------------------------------------
    def _enqueue(self, row: QueueRow) -> None:
        self.queue.append(row)
        self._schedule_tick()

    def inject_run(self, pred: str, rows, weight: int = 1,
                   force: bool = False) -> None:
        super().inject_run(pred, rows, weight, force)
        self._schedule_tick()

    def now(self) -> float:
        """The cluster clock, not this node's skewed view of it."""
        return self.cluster.clock.now

    def _schedule_tick(self) -> None:
        if self._tick_scheduled or not self.queue:
            return
        self._tick_scheduled = True
        self.net_clock.post(self.cluster.config.cpu_delay, self._tick)

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
            observer.tick(len(self.queue))
        # A tick that only served out the CPU time booked for the last
        # chunk finds the queue empty.
        processed = self.process_chunk(self.batch_size) if self.queue else 0
        self.deltas_processed += processed
        # The tick that fired was charged one cpu_delay ahead (for its
        # first delta); the remaining (processed - 1) deltas owe their
        # CPU time now, so the node stays booked for it -- deltas
        # arriving meanwhile wait their turn exactly as behind a busy
        # single-threaded dataflow.  With batch_size=1 this reduces to
        # the historical schedule: one charged delta per event, idle
        # immediately after a drain.
        delay = self.cluster.config.cpu_delay
        if self.queue:
            self.net_clock.post(delay * max(processed, 1), self._tick)
        elif processed > 1:
            self.net_clock.post(delay * (processed - 1), self._tick)
        else:
            self._tick_scheduled = False

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------
    def receive(self, pred: str, args: Tuple, weight: int,
                prov: Optional[int] = None,
                origin: Optional[str] = None,
                trace: Optional[int] = None) -> None:
        """A weighted tuple arrived over a link: enqueue it like a local
        delta ("a timestamp is added to each tuple at arrival", Section
        3.3.2 -- in our commit discipline the arrival order itself is
        the timestamp).  ``weight`` is the Z-set weight off the wire
        (``+-1`` per visibility transition; larger magnitudes when the
        sender coalesced a window).  ``prov`` is the piggybacked
        derivation id from the producing node, noted on the shared
        store so the arrival is traceable even across a real (UDP)
        wire; ``origin`` is the sending neighbor, booked on the peer
        ledger when the watchdog may later need to invalidate that
        neighbor's contributions."""
        args = tuple(args)
        if origin is not None and self.cluster.config.reliable:
            fact = Fact(pred, args)
            ledger = self.peer_ledger.setdefault(origin, {})
            count = ledger.get(fact, 0) + weight
            if count:
                ledger[fact] = count
            else:
                ledger.pop(fact, None)
        if prov is not None and self.provenance is not None and weight > 0:
            self.provenance.arrival(Fact(pred, args), prov)
        observer = self.observer
        if (trace is not None and weight and observer is not None
                and observer.traced):
            # Continue the sender's trace: record the arrival span and
            # enqueue with the id attached so downstream derivations and
            # the local commit stay causally linked.
            observer.receive(pred, args, weight, trace, origin)
            self._enqueue((pred, args, weight, False, False, trace))
        else:
            self._derive(pred, args, weight)

    def invalidate_peer(self, peer: str) -> None:
        """Watchdog support: retract every net contribution ``peer``
        shipped here, as if the dead neighbor had withdrawn its
        advertisements itself (the deletion cascade then propagates
        among the survivors normally).  Each fact's net count withdraws
        as one weighted intent -- the Z-set representation's payoff:
        the dead peer's whole ledger is a handful of bulk deltas."""
        ledger = self.peer_ledger.pop(peer, {})
        for fact, count in ledger.items():
            if count > 0:
                self.derive(fact, -count)

    def _emit(self, pred: str, heads, sign: int, traces=None) -> None:
        """Split one firing's heads by location specifier: local heads
        join this node's queue, the rest ship along the link."""
        address = self.address
        local, local_traces = [], []
        for head, trace in zip(heads, traces or repeat(None)):
            destination = head[0]
            if destination == address:
                local.append(head)
                local_traces.append(trace)
            elif not self._local_only:
                # (During a fallback restore the restored row is an old
                # advertisement -- downstream already saw, and moved
                # past, it -- so it must not be re-announced.)
                prov = None
                if self.provenance is not None and sign > 0:
                    # Piggyback the freshest live derivation id so the
                    # remote materialization links back to this firing.
                    prov = self.provenance.store.latest_live_id(
                        Fact(pred, head)
                    )
                self.cluster.ship(address, destination, pred, head, sign,
                                  prov=prov, trace=trace)
        if local:
            super()._emit(pred, local, sign, traces and local_traces)
            self._schedule_tick()

    # ------------------------------------------------------------------
    # Query-result caching hooks (Section 5.2)
    # ------------------------------------------------------------------
    def cache_answer(self, fact: Fact, weight: int) -> None:
        """Commit subscriber under a cache policy (composed in
        :func:`~repro.obs.observer.node_observer`): install a cache
        entry from an answer travelling the reverse path -- the suffix
        of the answer path from this node to the destination is itself
        an optimal path ("since the subpaths of shortest paths are
        optimal, these can also be cached")."""
        policy = self.cluster.config.cache
        if weight <= 0 or fact.pred != policy.answer_pred:
            return
        path = fact.args[policy.answer_path_position]
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

    def _fire_strands(self, rows, sign: int) -> None:
        policy = self.cluster.config.cache
        pred, args = rows[0][0], rows[0][1]
        if (
            policy is not None
            and sign > 0
            and pred == policy.query_pred
        ):
            # The query predicate's runs are capped at this one delta.
            suppress = self._try_cache_hit(policy, args)
            if suppress:
                for strand in self.strands.get(pred, ()):
                    if strand.crule.rule.label not in suppress:
                        self._fire_strand(strand, rows, sign)
                return
        super()._fire_strands(rows, sign)

    def _try_cache_hit(self, policy, args: Tuple) -> Tuple[str, ...]:
        """On a cached destination, answer the query tuple ``args``
        directly and stop the flood ("this cached value can be reused by
        all queries for destination d that pass through a")."""
        destination = args[policy.dst_position]
        if destination == self.address:
            return ()
        entry = self.result_cache.get(destination)
        if entry is None:
            return ()
        suffix, suffix_cost = entry
        prefix = args[policy.path_position]
        if any(node in prefix for node in suffix[1:]):
            return ()  # joining would create a loop; flood normally
        full_path = _CONCAT(prefix, suffix)
        full_cost = args[policy.cost_position] + suffix_cost
        qid = args[1]
        self.cache_hits += 1
        answer = (self.address, qid, full_path, full_cost)
        if self.provenance is not None:
            # A cache hit synthesizes the answer outside any rule strand;
            # record it so the derivation graph still supports the tuple.
            self.provenance.record_fact(
                "<cache>", Fact(policy.answer_pred, answer),
                (Fact(policy.query_pred, args),), 1)
        self._derive(policy.answer_pred, answer, 1)
        return policy.suppress_labels
