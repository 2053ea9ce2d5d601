"""The observer seam: producers raise events, this module decides who
listens.

An engine, a node and the wire each hold **one** optional handle and
raise the events of a delta's life on it.  The handle fans each event
out to whoever subscribed: the :class:`~repro.obs.metrics.NodeMetrics`
counters, the :class:`~repro.obs.trace.Tracer`, the
:class:`~repro.obs.profile.Profiler`, an ``on_commit`` callable (a
centralised engine's, or a caching node's query-cache install) and the
cluster's commit listeners (``watch``, ``subscribe``, the soft-state
sweeper's re-arm).  Payloads are bare values, per *run* wherever the
producer has a run in hand; a :class:`~repro.engine.facts.Fact` is
built here, once per commit, only when ``on_commit`` or a listener
takes one.

==============  =========================================  ===========
event           payload                                    raised
==============  =========================================  ===========
``inject``      ``(pred, rows, weight) -> trace ids``      per run
``derive``      ``(pred, heads, sign, traces)``            per run
``renew``       ``(pred, queue rows)``                     per run
``fire``        ``(rule, driver, inferences, seconds)``    per firing
``span``        ``(net | derive, pred, args, weight,       per row
                trace)``
``commit``      ``(pred, args, weight, trace)``            per row
``receive``     ``(pred, args, weight, trace, origin)``    per row
``tick``        ``(queue depth)``                          per tick
``ship``        ``(message)``                              per message
``netted``      ``(deltas, node)``                         per flush
``retransmit``  ``(src, dst)``                             per resend
``fault``       ``(kind, src, dst)``                       per fault
==============  =========================================  ===========

The first eight are an :class:`Observer`'s (one per centralised engine
or cluster node), the last four a :class:`WireObserver`'s (one per
cluster, shared by transport, chaos injector and link watchdog).

**What a producer pays.**  ``None``: nobody listens.  With a handle,
``commit`` is always raised and every other event only under the
boolean that says its subscriber exists -- ``traced`` (rows carry trace
ids; each span is further guarded by its row's id being non-``None``),
``timed`` (firings are clocked), ``metered`` (the counters are on) --
so a deployment holding only a ``watch()`` tracker pays for commits and
nothing else.

**Provenance is not a subscriber**, on purpose: the recorder does not
watch the run, it is part of it.  It selects the capture kernel, and
``record_fact`` must precede the ``ship`` that piggybacks
``latest_live_id``; it stays its own handle beside this one.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.engine.facts import Fact
from repro.obs.metrics import MetricsRegistry, NodeMetrics
from repro.obs.profile import Profiler
from repro.obs.trace import NodeTracer, TraceEvent, Tracer

#: ``_span(TraceEvent, fields)``: the named tuple without the Python
#: frame of its generated ``__new__`` -- about half the cost of a span,
#: and a fully observed run writes tens of thousands.
_span = tuple.__new__


class Observer:
    """The subscribers of one engine (or node), behind one handle."""

    __slots__ = ("node", "metrics", "tracer", "profiler", "on_commit",
                 "listeners", "clock", "traced", "timed", "metered")

    def __init__(self, metrics: Optional[NodeMetrics],
                 tracer: Optional[NodeTracer], profiler: Optional[Profiler],
                 on_commit: Optional[Callable[[Fact, int], None]],
                 listeners: Sequence, clock):
        self.metrics = metrics
        #: The shared :class:`Tracer`: spans go straight onto its log,
        #: stamped with ``node``.
        self.node = None if tracer is None else tracer.node
        self.tracer = None if tracer is None else tracer.tracer
        self.profiler = profiler
        self.on_commit = on_commit
        #: The cluster's one live list of commit listeners (a later
        #: ``subscribe`` is heard) and the clock that stamps them.
        self.listeners = listeners
        self.clock = clock
        self.traced = tracer is not None
        self.timed = profiler is not None
        self.metered = metrics is not None

    @classmethod
    def compose(cls, metrics=None, tracer=None, profiler=None,
                on_commit=None, listeners: Sequence = (),
                clock=None) -> Optional["Observer"]:
        """The handle for these subscribers; ``None`` when there are
        none, which is the producer's cheapest state."""
        if (metrics is None and tracer is None and profiler is None
                and on_commit is None and not listeners):
            return None
        return cls(metrics, tracer, profiler, on_commit, listeners, clock)

    # -- engine events -------------------------------------------------
    def inject(self, pred: str, rows: Sequence[Tuple], weight: int):
        """Base-fact injection of a run: mints the trace id each row's
        derivations will carry and records the root spans."""
        tracer = self.tracer
        traces = tracer.mint_run(len(rows))
        now, node = tracer.now(), self.node
        tracer.events.extend([
            _span(TraceEvent, (now, trace, "inject", node, pred, args,
                               weight, None, None))
            for trace, args in zip(traces, rows)
        ])
        return traces

    def derive(self, pred: str, heads: Sequence[Tuple], sign: int,
               traces: Sequence[Optional[int]]) -> None:
        """Heads of one firing queued at this node, each under its own
        driver's trace."""
        tracer = self.tracer
        now, node = tracer.now(), self.node
        tracer.events.extend([
            _span(TraceEvent, (now, trace, "derive", node, pred, head,
                               sign, None, None))
            for head, trace in zip(heads, traces) if trace is not None
        ])

    def renew(self, pred: str, rows: Sequence[Tuple]) -> None:
        """Traced queue rows of one run that only renewed a soft-state
        deadline: each trace ends here, nothing is visible downstream."""
        tracer = self.tracer
        now, node = tracer.now(), self.node
        tracer.events.extend([
            _span(TraceEvent, (now, row[5], "renew", node, pred, row[1],
                               row[2], None, None))
            for row in rows
        ])

    def fire(self, rule: str, driver: str, inferences: int,
             seconds: float) -> None:
        """One strand invocation over a run (raised when ``timed``, or
        ``metered`` and it inferred anything)."""
        profiler = self.profiler
        if profiler is not None:
            profiler.add(rule, driver, seconds)
        metrics = self.metrics
        if inferences and metrics is not None:
            firings = metrics.rule_firings
            firings[rule] = firings.get(rule, 0) + 1
            counts = metrics.rule_inferences
            counts[rule] = counts.get(rule, 0) + inferences

    def span(self, kind: str, pred: str, args: Tuple, weight: int,
             trace: int) -> None:
        """One traced row, one direct append: ``net`` (the intent was
        annihilated or folded away by Z-set addition at the queue, its
        propagation ends here) or a ``derive`` of one (a view output)."""
        tracer = self.tracer
        tracer.events.append(_span(TraceEvent, (
            tracer.now(), trace, kind, self.node, pred, args, weight,
            None, None)))

    def commit(self, pred: str, args: Tuple, weight: int,
               trace: Optional[int]) -> None:
        """A visibility transition: ``+weight`` derivations of
        ``pred(args)`` became visible (a soft-state renewal is not
        one), or ``-weight`` left -- a ``+k`` burst counts ``k``."""
        metrics = self.metrics
        if metrics is not None:
            counters = metrics.commits if weight > 0 else metrics.retractions
            counters[pred] = counters.get(pred, 0) + abs(weight)
        if trace is not None:
            tracer = self.tracer
            tracer.events.append(_span(TraceEvent, (
                tracer.now(), trace, "commit", self.node, pred, args,
                weight, None, None)))
        on_commit, listeners = self.on_commit, self.listeners
        if on_commit is not None or listeners:
            fact = Fact(pred, args)
            if on_commit is not None:
                on_commit(fact, weight)
            if listeners:
                now = self.clock.now
                for listener in listeners:
                    listener.on_commit(now, fact, weight)

    # -- node events ---------------------------------------------------
    def tick(self, depth: int) -> None:
        """Queue depth at a CPU tick (raised when ``metered``)."""
        metrics = self.metrics
        if depth > metrics.queue_peak:
            metrics.queue_peak = depth

    def receive(self, pred: str, args: Tuple, weight: int, trace: int,
                origin: Optional[str]) -> None:
        """A traced delta arrived over a link."""
        tracer = self.tracer
        tracer.events.append(_span(TraceEvent, (
            tracer.now(), trace, "receive", self.node, pred, args, weight,
            origin, self.node)))


def node_observer(node) -> Optional[Observer]:
    """Compose a :class:`~repro.runtime.node.NodeRuntime`'s observer
    from what its cluster was deployed and subscribed with; ``None``
    while nothing listens (``Cluster.subscribe`` asks again when the
    first listener arrives)."""
    cluster = node.cluster
    config = cluster.config
    metrics, tracer = cluster.metrics, cluster.tracer
    return Observer.compose(
        metrics=None if metrics is None else metrics.node(node.address),
        tracer=None if tracer is None else tracer.recorder(node.address),
        profiler=Profiler() if config.profile else None,
        on_commit=None if config.cache is None else node.cache_answer,
        listeners=cluster.trackers, clock=cluster.clock,
    )


class WireObserver:
    """The subscribers of one cluster's wire: the registries its
    config switches on (one that switches on neither holds ``None``)."""

    __slots__ = ("metrics", "tracer", "traced")

    def __init__(self, config, clock):
        self.metrics = MetricsRegistry() if config.metrics else None
        self.tracer = (Tracer(now=lambda: clock.now) if config.trace
                       else None)
        self.traced = config.trace

    def ship(self, message) -> None:
        """A message put on the wire (per actual transmission, so
        retransmits show as repeated spans)."""
        tracer = self.tracer
        now, src, dst = tracer.now(), message.src, message.dst
        tracer.events.extend([
            _span(TraceEvent, (now, delta.trace, "ship", src, delta.pred,
                               delta.args, delta.weight, src, dst))
            for delta in message.deltas if delta.trace is not None
        ])

    def netted(self, deltas: List, node: str) -> None:
        """Buffered traced deltas coalesced away before transmission:
        their propagation ends at ``node``."""
        tracer = self.tracer
        now = tracer.now()
        tracer.events.extend([
            _span(TraceEvent, (now, delta.trace, "net", node, delta.pred,
                               delta.args, delta.weight, None, None))
            for delta in deltas
        ])

    def retransmit(self, src: str, dst: str) -> None:
        """The reliable transport resent the link's oldest message."""
        if self.metrics is not None:
            links = self.metrics.link_retransmits
            links[(src, dst)] = links.get((src, dst), 0) + 1

    def fault(self, kind: str, src: Optional[str],
              dst: Optional[str]) -> None:
        """A chaos injection or watchdog link teardown, interleaved
        with the delta spans it affected (outside any trace)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.events.append(_span(TraceEvent, (
                tracer.now(), None, kind, src, None, None, None, src, dst)))
