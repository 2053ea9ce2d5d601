"""The distributed engine: compile an NDlog program, deploy it on every
node of a simulated overlay, run to quiescence, and measure.

This is the Python analogue of the modified P2 system of Section 6: the
pipeline is validate -> (optional aggregate-selections rewrite) ->
localize (Algorithm 2) -> per-node strand dataflows executing PSN, with
all communication along overlay links under FIFO ordering.

Program compilation routes through :func:`repro.api.compile` -- the one
place rewrite order is decided.  A cluster may be built either from a
plain :class:`~repro.ndlog.ast.Program` (compiled here with the pass
pipeline implied by the :class:`~repro.runtime.config.RuntimeConfig`)
or from an already-compiled :class:`~repro.api.CompiledProgram`
artifact, which is used as-is (localization is ensured, nothing else is
re-applied; the artifact's pass pipeline wins over config flags).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError, PlanError, SchemaError
from repro.net.channel import Channel
from repro.net.clock import Clock
from repro.net.link import LinkChannel
from repro.net.message import Message
from repro.net.sim import Simulator
from repro.net.stats import ResultTracker, TrafficStats
from repro.obs.observer import WireObserver, node_observer
from repro.obs.profile import Profiler
from repro.planner.localization import is_canonical
from repro.runtime.config import RuntimeConfig
from repro.runtime.node import NodeRuntime
from repro.runtime.transport import ReliableTransport, Transport
from repro.topology.overlay import Overlay


class Cluster:
    """A deployed declarative network."""

    def __init__(
        self,
        overlay: Overlay,
        program,  # Program or repro.api.CompiledProgram
        config: Optional[RuntimeConfig] = None,
        link_loads: Optional[Dict[str, str]] = None,
        clock: Optional[Clock] = None,
    ):
        """``program`` is a :class:`~repro.ndlog.ast.Program` (compiled
        here per the config flags) or a pre-compiled
        :class:`~repro.api.CompiledProgram`.  ``link_loads`` maps each
        link-relation name in the program to the overlay metric that
        fills its cost field (default: ``{"link": "latency"}``).
        Multiple entries let several queries with distinct link
        relations run concurrently (Section 6.4).  ``clock`` is the
        timing substrate (default: a fresh virtual-time
        :class:`Simulator`; the live runtime passes a
        :class:`~repro.net.clock.WallClock`)."""
        # Deferred import: repro.api provides the compile pipeline and
        # itself deploys onto this class (no import cycle at load time).
        from repro.api import CompiledProgram, compile as compile_api

        self.overlay = overlay
        self.config = config or RuntimeConfig()
        self.clock = clock if clock is not None else Simulator()
        #: Back-compat alias: experiments and tests drive the virtual
        #: clock as ``cluster.sim``.
        self.sim = self.clock
        self.stats = TrafficStats()
        #: Commit listeners (:meth:`subscribe`): the one list every
        #: node's observer delivers to.
        self.trackers: List = []
        #: Who watches the wire -- transport, chaos injector and link
        #: watchdog raise their events on it -- and the registries it
        #: feeds, which the nodes' observers bind too; ``None`` when off.
        wire = self.observer = (
            WireObserver(self.config, self.clock)
            if self.config.metrics or self.config.trace else None)
        self.metrics = None if wire is None else wire.metrics
        self.tracer = None if wire is None else wire.tracer
        #: True while a watchdog teardown's repair window is open (the
        #: deferred fallback restores it queued are not yet drained).
        self._repair_pending = False
        self.loss_rng = random.Random(self.config.seed)

        if isinstance(program, CompiledProgram):
            # Pre-compiled artifact: its pass pipeline already decided
            # the rewrites; only ensure it is in deployable form.
            compiled = program.localized()
        else:
            passes = ["aggsel"] if self.config.aggregate_selections else []
            passes.append("localize")
            compiled = compile_api(
                program,
                passes=passes,
                validate=self.config.validate,
                strict=True,
            )
        self.compiled = compiled
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

        self.nodes: Dict[str, NodeRuntime] = {
            name: NodeRuntime(name, self.program, self)
            for name in overlay.nodes
        }
        self._pkeys: Dict[str, Tuple[int, ...]] = {}
        sample = next(iter(self.nodes.values()))
        for pred, table in sample.db.tables.items():
            self._pkeys[pred] = table.key

        if link_loads is None:
            link_loads = {"link": "latency"}
        #: The deployed link relations -- the watchdog tears failed
        #: links down through exactly these predicates.
        self.link_loads: Dict[str, str] = dict(link_loads)
        self._load_initial(link_loads)

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
            loss_rate=self.config.loss_rate,
            metrics=dict(metrics),
        )

    def _load_initial(self, link_loads: Dict[str, str]) -> None:
        """Initial-load hook: install the link relations now (the live
        cluster defers this until its node tasks and sockets exist)."""
        for pred, metric in link_loads.items():
            self.load_links(pred, metric)

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

    def inject(self, node: str, pred: str, args: Tuple) -> None:
        """Insert a base tuple at ``node`` (e.g. a magic fact)."""
        self.node(node).insert(pred, tuple(args))

    def subscribe(self, listener) -> Callable[[], None]:
        """Deliver every visible table change anywhere in the cluster
        to ``listener.on_commit(time, fact, weight)`` (``+k``
        derivations became visible, ``-k`` left); returns the callable
        that stops delivery.  An unwatched node gets its observer here."""
        self.trackers.append(listener)
        for node in self.nodes.values():
            if node.observer is None:
                node.observer = node_observer(node)

        def unsubscribe() -> None:
            if listener in self.trackers:
                self.trackers.remove(listener)

        return unsubscribe

    def watch(self, pred: str) -> ResultTracker:
        """Track completion times for ``pred`` (Figures 8/10 curves)."""
        tracker = ResultTracker(watch_pred=pred)
        self.subscribe(tracker)
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
        """Convergence watchdog: ``dst`` stopped acknowledging ``src``.
        Delete the link facts for the pair at the surviving endpoint --
        the same declarative path a planned link update takes -- so the
        protocol re-converges around the dead peer."""
        node = self.nodes.get(src)
        if node is None:
            return
        self.stats.links_torn_down += 1
        if self.observer is not None:
            self.observer.fault("link_teardown", src, dst)
        self._begin_repair()
        for pred in self.link_loads:
            table = node.db.tables.get(pred)
            if table is None:
                continue
            for args in [
                row for row in table.rows()
                if len(row) >= 2 and row[0] == src and row[1] == dst
            ]:
                node.delete(pred, args)
        # A deletion cascade cannot route through the dead peer (the
        # localized joins live there), so withdraw its advertisements
        # on its behalf; re-convergence then propagates normally among
        # the survivors.
        node.invalidate_peer(dst)

    def pkey_of(self, pred: str, args: Tuple) -> Tuple:
        key = self._pkeys.get(pred)
        if not key:
            return args
        return tuple(args[i] for i in key)

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
        end = self.clock.run(until=until)
        # Quiescence boundary inside an open repair window (a watchdog
        # teardown happened): restore broken keyed slots -- empty, but
        # with superseded-yet-outstanding versions shadowed -- and run
        # each repair wave to quiescence; when a sweep finds none, the
        # repair is complete.  Restores must wait for quiescence (not
        # run amid churn) or stale re-advertisements into latest-wins
        # slots feed back around topology cycles forever.
        while self.clock.pending == 0 and self._repair_pending:
            if self._queue_slot_repairs():
                end = self.clock.run(until=until)
            else:
                self._repair_pending = False
        return end

    def _begin_repair(self) -> None:
        """Open the repair window: the next quiescence sweeps for broken
        slots (:meth:`~repro.engine.psn.PSNEngine.queue_slot_repairs`)."""
        self._repair_pending = True

    def repair(self) -> float:
        """Run the quiescent slot-repair sweep to fixpoint.  The
        watchdog opens the repair window automatically when it tears a
        link down; calling this explicitly computes the same *repaired*
        fixpoint on a fault-free run (the reference side of a
        :class:`~repro.chaos.ChaosMonitor` comparison)."""
        self._begin_repair()
        return self.run()

    def _queue_slot_repairs(self) -> int:
        down = (
            self.chaos.dead_nodes(self.clock.now)
            if self.chaos is not None else frozenset()
        )
        queued = 0
        for name, node in self.nodes.items():
            if name not in down:
                queued += node.queue_slot_repairs()
        return queued

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

    def audit(self, strict: Optional[bool] = None,
              exclude_nodes=()):
        """Cross-check per-node derivation counts against the shared
        provenance graph; call at quiescence."""
        self._require_provenance()
        from repro.provenance import audit_cluster

        return audit_cluster(self, strict=strict,
                             exclude_nodes=exclude_nodes)

    # ------------------------------------------------------------------
    # Observability (:mod:`repro.obs`)
    # ------------------------------------------------------------------
    def _require(self, flag: str) -> None:
        if not getattr(self.config, flag):
            raise PlanError(
                f"deployment was started without {flag}; "
                f"deploy(..., {flag}=True) to collect it"
            )

    def metrics_snapshot(self):
        """Point-in-time :class:`~repro.obs.MetricsSnapshot`: pushed
        counters (rule firings, weighted commits, retransmits) merged
        with state pulled from the engines, tables and traffic stats."""
        self._require("metrics")
        return self.metrics.snapshot(self)

    def metrics_text(self) -> str:
        """The snapshot in Prometheus text exposition format."""
        return self.metrics_snapshot().to_prometheus()

    def refresh_stats(self) -> None:
        """Feed live table sizes and commit churn into each node's
        :class:`~repro.opt.costbased.StatsCatalog`, closing the loop
        between the metrics registry and the cost-based optimizer."""
        snapshot = self.metrics_snapshot()
        churn = snapshot.churn()
        for name, node in self.nodes.items():
            catalog = node.stats_catalog
            if catalog is None:
                continue
            sizes = {
                pred: float(len(table))
                for pred, table in node.db.tables.items()
                if len(table)
            }
            catalog.refresh(sizes=sizes, churn=churn)

    def profile_report(self):
        """Merged per-(rule, strand) CPU profile across all nodes."""
        self._require("profile")
        merged = Profiler()
        for node in self.nodes.values():
            merged.merge(node.observer.profiler)
        return merged

    def save_trace(self, path: str) -> None:
        """Export the recorded spans as Chrome trace-event JSON."""
        self._require("trace")
        self.tracer.save(path)
