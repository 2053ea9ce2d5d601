"""The distributed engine: deploy a compiled NDlog program on every
node of a simulated overlay, run to quiescence, and measure.

This is the Python analogue of the modified P2 system of Section 6: the
pipeline is validate -> (optional aggregate-selections rewrite) ->
localize (Algorithm 2) -> per-node strand dataflows executing PSN, with
all communication along overlay links under FIFO ordering.

A cluster deploys a compiled artifact
(:class:`~repro.api.CompiledProgram`): :func:`repro.compile` is the one
place rewrite order is decided, and the cluster only ensures
localization.  The artifact also decides how each predicate is stored
(:attr:`~repro.api.CompiledProgram.schemas`, derived once): every node
builds its tables from that one dict, and the transport keys its
net-change slots with it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError, PlanError, SchemaError
from repro.net.channel import Channel
from repro.net.clock import Clock
from repro.net.link import LinkChannel
from repro.net.message import Message
from repro.net.sim import Simulator
from repro.net.stats import ResultTracker, TrafficStats
from repro.obs.observer import EVERYTHING, WireObserver, node_observer
from repro.obs.profile import Profiler
from repro.planner.localization import is_canonical
from repro.runtime.config import RuntimeConfig
from repro.runtime.node import CachingNodeRuntime, NodeRuntime
from repro.runtime.transport import ReliableTransport, Transport
from repro.topology.overlay import Overlay


class Cluster:
    """A deployed declarative network: what
    :meth:`~repro.api.CompiledProgram.deploy` returns on the simulator
    (:class:`~repro.runtime.live.LiveCluster` on wall time).

    Workload verbs (``inject`` / ``update`` / ``delete`` / ``at``),
    observation (``watch`` / ``subscribe`` / ``rows`` / ``query_rows``,
    provenance and :mod:`repro.obs` readers) and lifecycle
    (``advance`` / ``quiescent`` / ``stop``) are declared here once, for
    both targets."""

    def __init__(
        self,
        overlay: Overlay,
        program,  # repro.api.CompiledProgram
        config: Optional[RuntimeConfig] = None,
        link_loads: Optional[Dict[str, str]] = None,
        clock: Optional[Clock] = None,
    ):
        """``program`` is a :class:`~repro.api.CompiledProgram` (a bare
        :class:`~repro.ndlog.ast.Program` raises :class:`PlanError`:
        compile it with :func:`repro.compile` first).  ``link_loads`` maps each
        link-relation name in the program to the overlay metric that
        fills its cost field (default: ``{"link": "latency"}``).
        Multiple entries let several queries with distinct link
        relations run concurrently (Section 6.4).  ``clock`` is the
        timing substrate (default: a fresh virtual-time
        :class:`Simulator`; the live runtime passes a
        :class:`~repro.net.clock.WallClock`)."""
        # Deferred import: repro.api deploys onto this class (no import
        # cycle at load time).
        from repro.api import CompiledProgram

        if not isinstance(program, CompiledProgram):
            raise PlanError(
                f"a cluster deploys a compiled artifact, not a "
                f"{type(program).__name__}: repro.compile(program, "
                f"passes=[...]) builds one"
            )
        self.overlay = overlay
        self.config = config or RuntimeConfig()
        self.clock = clock if clock is not None else Simulator()
        self.stats = TrafficStats()
        #: Commit listeners (:meth:`listen`); the one list every node's
        #: observer delivers to, one ``(preds, on_commit)`` pair per
        #: listener, kept in place; and what they hear together.
        self.trackers: List = []
        self.audience: List[Tuple[Optional[frozenset], Callable]] = []
        self.heard = frozenset()
        #: Who watches the wire -- transport, chaos injector and link
        #: liveness raise their events on it -- and the registries it
        #: feeds, which the nodes' observers bind too; ``None`` when off.
        wire = self.observer = (
            WireObserver(self.config, self.clock)
            if self.config.metrics or self.config.trace else None)
        self.tracer = None if wire is None else wire.tracer

        compiled = self.compiled = program.localized()
        source_program = compiled.before_pass("localize")
        self.source_program = (
            source_program if source_program is not None else compiled.program
        )
        self.program = compiled.program
        if not is_canonical(self.program):
            raise PlanError("localization failed to produce canonical rules",
                            pass_name="localize")

        #: Shared derivation-provenance store (one per deployment; node
        #: records are tagged with their firing node), or ``None`` when
        #: the artifact was compiled without ``provenance=True``.
        self.provenance = None
        if getattr(compiled, "provenance", False):
            from repro.provenance import ProvenanceStore

            self.provenance = ProvenanceStore()

        if self.config.reliable:
            self.transport: Transport = ReliableTransport(self, self.config)
        else:
            self.transport = Transport(self, self.config)
        self.transport.observer = wire
        self._channels: Dict[Tuple[str, str], Channel] = {}
        for (a, b), metrics in overlay.links.items():
            self._channels[(a, b)] = self._make_channel(a, b, metrics)

        #: Fault injector (:mod:`repro.chaos`), or ``None``.  Built
        #: after the channels (it wraps them) and before the nodes
        #: (skewed nodes take their clock view from it).
        self.chaos = None
        if self.config.chaos is not None:
            from repro.chaos import ChaosController

            self.chaos = ChaosController(self, self.config.chaos)
            self.chaos.wrap_channels(self._channels)

        node_class = (CachingNodeRuntime if self.config.cache
                      else NodeRuntime)
        self.nodes: Dict[str, NodeRuntime] = {
            name: node_class(name, self.program, self)
            for name in overlay.nodes
        }
        #: pred -> primary-key function (the transport's net-change
        #: pass keys a window's slots with it).
        self.key_of: Dict[str, Callable[[Tuple], Tuple]] = {
            pred: schema.key_of for pred, schema in compiled.schemas.items()
        }

        if link_loads is None:
            link_loads = {"link": "latency"}
        #: The deployed link relations -- an expired link is torn down
        #: through exactly these predicates.
        self.link_loads: Dict[str, str] = dict(link_loads)
        #: (src, dst) -> the link rows :meth:`fail_link` deleted at
        #: ``src``, which :meth:`restore_link` puts back.
        self._torn: Dict[Tuple[str, str], List[Tuple[str, Tuple]]] = {}
        for pred, metric in self.link_loads.items():
            self.load_links(pred, metric)

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _make_channel(self, a: str, b: str, metrics: Dict[str, float]) -> Channel:
        """Channel-backend hook: the simulated cluster builds timer-
        delivery links; :class:`~repro.runtime.live.LiveCluster`
        overrides with queue or UDP channels."""
        return LinkChannel(
            a=a,
            b=b,
            latency=metrics["latency"] / 1000.0,
            bandwidth_bps=self.config.bandwidth_bps,
            metrics=dict(metrics),
        )

    def load_links(self, pred: str, metric: str) -> None:
        """Install ``pred(@src, @dst, cost)`` at each link's source."""
        for src, dst, cost in self.overlay.link_rows(metric):
            self.nodes[src].insert(pred, (src, dst, cost))

    def node(self, name: str) -> NodeRuntime:
        """The runtime of node ``name``."""
        runtime = self.nodes.get(name)
        if runtime is None:
            raise NetworkError(
                f"unknown node {name!r}; this deployment has "
                f"{len(self.nodes)} nodes"
            )
        return runtime

    # ------------------------------------------------------------------
    # Workload verbs
    # ------------------------------------------------------------------
    def inject(self, node: str, pred: str, args: Tuple) -> None:
        """Insert a base tuple at ``node`` (e.g. a magic fact).  A row
        of an expired link replaces its torn version instead, so
        :meth:`restore_link` puts back the latest planned row."""
        args = tuple(args)
        torn = self._torn_rows(node, pred, args)
        if torn is None:
            self.node(node).insert(pred, args)
            return
        key_of = self.key_of[pred]
        key = key_of(args)
        torn[:] = [(p, row) for p, row in torn
                   if p != pred or key_of(row) != key]
        torn.append((pred, args))

    def update(self, node: str, pred: str, args: Tuple) -> None:
        """Update a base tuple at ``node``: a primary-key match commits
        as a deletion of the old row followed by this insertion."""
        self.inject(node, pred, args)

    def delete(self, node: str, pred: str, args: Tuple) -> None:
        """Delete a base tuple at ``node`` outright (from the torn rows
        while its link is expired, so it stays gone at restore)."""
        args = tuple(args)
        torn = self._torn_rows(node, pred, args)
        if torn is None:
            self.node(node).delete(pred, args)
        elif (pred, args) in torn:
            torn.remove((pred, args))

    def _torn_rows(self, node: str, pred: str,
                   args: Tuple) -> Optional[List[Tuple[str, Tuple]]]:
        """The torn rows of the expired link ``args`` names at
        ``node``, or ``None`` when it is no expired link's row."""
        if pred not in self.link_loads or len(args) < 2 \
                or args[0] != node:
            return None
        return self._torn.get((node, args[1]))

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at clock ``time`` (workload injection)."""
        self.clock.at(time, fn)

    @property
    def now(self) -> float:
        return self.clock.now

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def listen(self, listener) -> Callable[[], None]:
        """Deliver every visible table change anywhere in the cluster
        to ``listener.on_commit(time, fact, weight)`` (``+k``
        derivations became visible, ``-k`` left); returns the callable
        that stops delivery.  A listener may declare ``preds``, the
        predicate names it hears: then no other commit reaches it, and
        a commit no listener hears is not raised at all (unless the
        counters, a tracer or the query cache take it).  An unwatched
        node gets its observer here."""
        self.trackers.append(listener)
        self._hear()

        def unsubscribe() -> None:
            if listener in self.trackers:
                self.trackers.remove(listener)
                self._hear()

        return unsubscribe

    def _hear(self) -> None:
        """Rebuild the audience and the heard set after a listener came
        or went, and hand the set to every node's observer."""
        declared = [getattr(listener, "preds", None)
                    for listener in self.trackers]
        self.audience[:] = [
            (None if preds is None else frozenset(preds), listener.on_commit)
            for preds, listener in zip(declared, self.trackers)]
        self.heard = (EVERYTHING if None in declared
                      else frozenset().union(*declared))
        for node in self.nodes.values():
            if node.observer is None:
                node.observer = node_observer(node)
            else:
                node.observer.hear(self.heard)

    def subscribe(
        self, pred: Optional[str], callback: Callable
    ) -> Callable[[], None]:
        """Call ``callback(time, fact, weight)`` on every weighted
        visibility transition of ``pred`` anywhere in the network
        (``pred=None`` observes every relation): ``+k`` derivations
        became visible, ``-k`` left.  The listener declares ``pred`` as
        its ``preds``.  Returns an unsubscribe callable."""
        return self.listen(SimpleNamespace(
            on_commit=callback, preds=None if pred is None else {pred}))

    def watch(self, pred: str) -> ResultTracker:
        """Track completion times for ``pred`` (Figures 8/10 curves)."""
        tracker = ResultTracker(watch_pred=pred)
        self.listen(tracker)
        return tracker

    # ------------------------------------------------------------------
    # Network plumbing (used by NodeRuntime / Transport)
    # ------------------------------------------------------------------
    def channel(self, a: str, b: str) -> Optional[Channel]:
        key = (a, b) if a <= b else (b, a)
        return self._channels.get(key)

    def deliver(self, message: Message) -> None:
        """Channel arrival: chaos delivery guard, then the reliable
        transport's dedup/reassembly filter, then dispatch.  All three
        backends funnel through here (the UDP fabric's ``on_message``
        included), so faults and the delivery contract behave
        identically everywhere."""
        if self.chaos is not None and not self.chaos.deliverable(message):
            return
        for ready in self.transport.on_arrival(message):
            self._dispatch(ready)

    def _dispatch(self, message: Message) -> None:
        """Hand one in-order message's deltas, as one run, to the
        destination node (the live cluster overrides this to enqueue
        onto the node task's inbox)."""
        self.node(message.dst).receive(message.deltas, message.src)

    def clock_for(self, node: str):
        """The clock a node schedules on: the shared cluster clock, or
        its skewed view when the chaos schedule drifts this node."""
        if self.chaos is not None:
            return self.chaos.clock_for(node)
        return self.clock

    def fail_link(self, src: str, dst: str) -> None:
        """Link expiry: ``src`` heard nothing from ``dst`` for a link
        lifetime (:data:`repro.net.reliable.LINK_LIFETIME`), or ``dst``
        reset the pair.  Delete the link facts for the pair at ``src``
        -- the same declarative path a planned link update takes -- so
        the protocol re-converges around the silent peer; the rows are
        kept for :meth:`restore_link`."""
        node = self.nodes.get(src)
        if node is None:
            return
        self.stats.links_torn_down += 1
        if self.observer is not None:
            self.observer.fault("link_teardown", src, dst)
        torn = self._torn.setdefault((src, dst), [])
        for pred in self.link_loads:
            table = node.db.tables.get(pred)
            if table is None:
                continue
            for args in [
                row for row in table.rows()
                if len(row) >= 2 and row[0] == src and row[1] == dst
            ]:
                node.delete(pred, args)
                torn.append((pred, args))
        # A deletion cascade cannot route through the silent peer (the
        # localized joins live there), so withdraw its advertisements
        # on its behalf; re-convergence then propagates normally among
        # the survivors.
        node.invalidate_peer(dst)

    def restore_link(self, src: str, dst: str) -> None:
        """``src`` heard from ``dst`` again after :meth:`fail_link`:
        re-insert the link rows the expiry deleted."""
        node = self.nodes.get(src)
        if node is None:
            return
        if self.observer is not None:
            self.observer.fault("link_restore", src, dst)
        for pred, args in self._torn.pop((src, dst), ()):
            node.insert(pred, args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the network until quiescence (or ``until``); returns the
        final virtual time.  Only meaningful on the virtual clock --
        wall time advances by itself (see
        :class:`~repro.runtime.live.LiveCluster`)."""
        if not isinstance(self.clock, Simulator):
            raise NetworkError(
                "cluster.run() drives the virtual clock; a live cluster "
                "advances on wall time (await deployment.quiescent())"
            )
        return self.clock.run(until=until)

    #: The name deployment scripts drive the simulator with.
    advance = run

    def stop(self) -> None:
        """Tear down the deployment.  The simulator holds no external
        resources, so this is a no-op -- it exists so target-agnostic
        scripts can always call ``stop()`` (the live target's version
        closes sockets and cancels node tasks)."""

    @property
    def cluster(self) -> "Cluster":
        """This cluster: the benchmark harness still reads a
        deployment's network as ``deployment.cluster``."""
        return self

    @property
    def quiescent(self) -> bool:
        down = (
            self.chaos.dead_nodes(self.clock.now)
            if self.chaos is not None else frozenset()
        )
        # A crashed node's queue is frozen, not pending work: the rest
        # of the network is quiescent without it.
        return self.clock.pending == 0 and all(
            node.quiescent
            for name, node in self.nodes.items()
            if name not in down
        )

    # ------------------------------------------------------------------
    # Result access
    # ------------------------------------------------------------------
    def rows(self, pred: str, node: Optional[str] = None) -> frozenset:
        """Union of ``pred`` rows across nodes (or one node's rows)."""
        if node is not None:
            return frozenset(self.node(node).db.table(pred).rows())
        out = set()
        for runtime in self.nodes.values():
            out.update(runtime.db.table(pred).rows())
        return frozenset(out)

    def query_rows(self) -> frozenset:
        if self.source_program.query is None:
            raise PlanError("program has no query")
        return self.rows(self.source_program.query.pred)

    def total_deltas_processed(self) -> int:
        return sum(node.deltas_processed for node in self.nodes.values())

    # ------------------------------------------------------------------
    # Provenance queries
    # ------------------------------------------------------------------
    def _require_provenance(self):
        if self.provenance is None:
            raise PlanError(
                "deployment was compiled without provenance capture; "
                "compile(..., provenance=True) before deploying"
            )
        return self.provenance

    def why(self, pred: str, args: Tuple, max_depth: int = 128):
        """Derivation tree for ``pred(args)``, traced across nodes."""
        from repro.provenance import why as _why

        return _why(self._require_provenance(), pred, tuple(args),
                    max_depth=max_depth)

    def why_not(self, pred: str, args: Tuple, depth: int = 2):
        """Failed-body analysis against the pre-localization rule set
        and the union of every node's tables."""
        from repro.provenance import why_not as _why_not

        def rows_of(name: str):
            try:
                # repr-keyed sort: deterministic enumeration order for
                # the analysis even with mixed-type columns.
                return sorted(self.rows(name), key=repr)
            except SchemaError:
                return ()  # predicate unknown to the deployed schema

        sample = next(iter(self.nodes.values()))
        return _why_not(
            self.source_program, rows_of, pred, tuple(args),
            functions=sample.db.functions, depth=depth,
        )

    def audit(self, exclude_nodes=()):
        """Cross-check per-node derivation counts against the shared
        provenance graph; call at quiescence."""
        self._require_provenance()
        from repro.provenance import audit_cluster

        return audit_cluster(self, exclude_nodes=exclude_nodes)

    # ------------------------------------------------------------------
    # Observability (:mod:`repro.obs`)
    # ------------------------------------------------------------------
    def _require(self, flag: str) -> None:
        if not getattr(self.config, flag):
            raise PlanError(
                f"deployment was started without {flag}; "
                f"deploy(..., {flag}=True) to collect it"
            )

    def metrics(self):
        """Point-in-time :class:`~repro.obs.MetricsSnapshot`: pushed
        counters (rule firings, weighted commits, retransmits) merged
        with state pulled from the engines, tables and traffic stats.
        Requires ``deploy(..., metrics=True)``."""
        self._require("metrics")
        return self.observer.metrics.snapshot(self)

    def metrics_text(self) -> str:
        """The snapshot in Prometheus text exposition format."""
        return self.metrics().to_prometheus()

    def profile(self):
        """Merged per-(rule, strand) CPU profile across all nodes.
        Requires ``deploy(..., profile=True)``."""
        self._require("profile")
        merged = Profiler()
        for node in self.nodes.values():
            merged.merge(node.observer.profiler)
        return merged

    def save_trace(self, path: str) -> None:
        """Export the recorded spans as Chrome trace-event JSON
        (``chrome://tracing`` / Perfetto).  Requires
        ``deploy(..., trace=True)``."""
        self._require("trace")
        self.tracer.save(path)

    def explain(self, join_plans: bool = True, timings: bool = False,
                kernels: bool = False) -> str:
        """The deployed artifact's
        :meth:`~repro.api.CompiledProgram.explain` report."""
        return self.compiled.explain(join_plans=join_plans, timings=timings,
                                     kernels=kernels)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.program.name!r}, "
                f"nodes={len(self.nodes)})")


#: The name README and scripts know the simulated deployment by: the
#: same class, not a wrapper.
Deployment = Cluster
