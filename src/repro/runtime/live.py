"""The live execution target: node runtimes as asyncio tasks on wall
time.

The paper's system runs NDlog programs on real networked nodes; the
reproduction's default substrate is the virtual-time simulator.  This
module is the second execution target behind the same seams: every
:class:`~repro.runtime.node.NodeRuntime` keeps its exact per-node
semantics (PSN strands, cpu-tick pacing, head routing) but schedules on
a :class:`~repro.net.clock.WallClock` and exchanges deltas over live
channels -- in-process asyncio queues by default, real UDP datagram
sockets on localhost with ``channels="udp"``.

Concurrency model: one asyncio task per node owns that node's inbox
(an ``asyncio.Queue``); a message arrival is dequeued by the task and
fed to ``NodeRuntime.receive``, which paces the actual delta processing
with wall-clock CPU ticks exactly as the simulator paces virtual ones.
All tasks share one event loop, so node steps interleave but never run
concurrently -- the same single-threaded-dataflow-per-node discipline
as P2, times N nodes.

Lifecycle (all on the deployment handle)::

    deployment = compiled.deploy(topology=overlay, target="live")
    await deployment.start()          # bind channels, spawn node tasks
    await deployment.quiescent()      # wait for convergence (wall time)
    rows = deployment.query_rows()
    await deployment.stop()           # tear down tasks and sockets

or, from synchronous code, ``deployment.converge()`` runs the whole
lifecycle under ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import Deployment
from repro.errors import NetworkError
from repro.net.channel import Channel
from repro.net.clock import WallClock
from repro.net.live import QueueChannel, UdpChannel, UdpFabric
from repro.net.message import Message
from repro.runtime.cluster import Cluster
from repro.runtime.config import RuntimeConfig

__all__ = ["LiveCluster", "LiveDeployment"]

#: Inbox sentinel that tells a node task to exit.
_SHUTDOWN = None


def _check_backend(channels: str) -> str:
    if channels not in ("inproc", "udp"):
        raise NetworkError(
            f"unknown live channel backend {channels!r}; "
            f"pick 'inproc' or 'udp'"
        )
    return channels


class LiveCluster(Cluster):
    """A deployed declarative network on wall-clock time.

    Construct *inside a running event loop* (the wall clock binds to
    it), then ``await start()``.  Construction compiles and instantiates
    every node but defers the initial link-relation load until the node
    tasks and channel endpoints exist.
    """

    def __init__(
        self,
        overlay,
        program,
        config: Optional[RuntimeConfig] = None,
        link_loads: Optional[Dict[str, str]] = None,
        channels: str = "inproc",
        host: str = "127.0.0.1",
    ):
        self.backend = _check_backend(channels)
        self.fabric = UdpFabric(host) if channels == "udp" else None
        self._inboxes: Dict[str, asyncio.Queue] = {}
        self._tasks: List[asyncio.Task] = []
        self._task_failures: List[Tuple[str, BaseException]] = []
        self._started = False
        self._deferred_link_loads: Dict[str, str] = {}
        super().__init__(overlay, program, config, link_loads,
                         clock=WallClock())

    # -- construction hooks --------------------------------------------
    def _make_channel(self, a: str, b: str, metrics) -> Channel:
        kwargs = dict(
            a=a,
            b=b,
            latency=metrics["latency"] / 1000.0,
            bandwidth_bps=self.config.bandwidth_bps,
            loss_rate=self.config.loss_rate,
            metrics=dict(metrics),
        )
        if self.fabric is not None:
            return UdpChannel(fabric=self.fabric, **kwargs)
        return QueueChannel(**kwargs)

    def _load_initial(self, link_loads) -> None:
        # Loading link facts schedules CPU ticks and shipments; those
        # need inboxes (and, for UDP, bound sockets) -- start() replays
        # this after the plumbing is up.
        self._deferred_link_loads = dict(link_loads)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind channel endpoints, spawn one task per node, and load the
        initial link relations."""
        if self._started:
            return
        self._started = True
        loop = asyncio.get_running_loop()
        if self.fabric is not None:
            # Route datagrams through the full delivery path (chaos
            # guard + reliable filter), not straight to the inboxes.
            self.fabric.on_message = self.deliver
            self.fabric.stats = self.stats
            for name in self.nodes:
                await self.fabric.bind(name)
        for name in self.nodes:
            inbox: asyncio.Queue = asyncio.Queue()
            self._inboxes[name] = inbox
            self._tasks.append(
                loop.create_task(self._node_loop(name, inbox),
                                 name=f"ndlog-node-{name}")
            )
        for pred, metric in self._deferred_link_loads.items():
            self.load_links(pred, metric)

    async def _node_loop(self, name: str, inbox: asyncio.Queue) -> None:
        """One node's ingestion task: messages in, deltas to the engine
        (the simulated cluster's dispatch, one task hop later)."""
        while True:
            message = await inbox.get()
            if message is _SHUTDOWN:
                return
            try:
                super()._dispatch(message)
            except BaseException as exc:  # noqa: BLE001 -- surfaced at stop
                self._task_failures.append((name, exc))

    async def stop(self) -> None:
        """Drain and stop every node task, close sockets, and re-raise
        the first callback/task failure (if any)."""
        for inbox in self._inboxes.values():
            inbox.put_nowait(_SHUTDOWN)
        if self._tasks:
            done, pending = await asyncio.wait(self._tasks, timeout=5.0)
            for task in pending:
                task.cancel()
        self._tasks = []
        if self.fabric is not None:
            self.fabric.close()
        self.raise_failures()

    def raise_failures(self) -> None:
        failures: List[Tuple[str, BaseException]] = list(self._task_failures)
        failures.extend(
            ("clock", exc) for _now, exc in self.clock.failures
        )
        if failures:
            where, first = failures[0]
            raise NetworkError(
                f"live run recorded {len(failures)} failure(s); "
                f"first ({where}): {type(first).__name__}: {first}"
            ) from first

    # -- delivery -------------------------------------------------------
    def _dispatch(self, message: Message) -> None:
        """In-order arrival (past the chaos guard and reliable filter
        in :meth:`Cluster.deliver`): route to the node task's inbox."""
        inbox = self._inboxes.get(message.dst)
        if inbox is None:
            raise NetworkError(f"message to unknown node {message.dst}")
        inbox.put_nowait(message)

    # -- quiescence -----------------------------------------------------
    @property
    def idle(self) -> bool:
        """Instantaneous idleness: no timers, no undelivered messages,
        no queued deltas.  One sample can race an in-flight datagram's
        kernel hop; :meth:`LiveDeployment.quiescent` requires a settle
        streak."""
        down = (
            self.chaos.dead_nodes(self.clock.now)
            if self.chaos is not None else frozenset()
        )
        return (
            self.clock.pending == 0
            and (self.fabric is None or self.fabric.settled)
            and all(
                inbox.empty() for name, inbox in self._inboxes.items()
                if name not in down
            )
            and all(
                node.quiescent for name, node in self.nodes.items()
                if name not in down
            )
        )

    @property
    def quiescent(self) -> bool:
        return self.idle


class LiveDeployment(Deployment):
    """Deployment handle for the live target.

    Declares only what differs from :class:`~repro.api.Deployment` on
    wall time.  The lifecycle is async -- :meth:`start`,
    :meth:`quiescent` (wait for convergence), :meth:`stop`;
    :meth:`converge` wraps all three for synchronous callers.  The
    cluster exists from :meth:`start` on (the wall clock binds to a
    running loop): before it ``.cluster`` and every inherited reader
    raise ``NetworkError("... not started ...")``, while ``inject`` /
    ``update`` / ``delete`` / ``at`` / ``watch`` / ``subscribe`` are
    buffered and replayed once the network is up, so workload scripts
    read the same as on the simulator.  :meth:`quiescent` and
    :meth:`stop` override a property and a plain method with coroutines
    -- a change of kind that existing callers on both targets pin.
    """

    def __init__(
        self,
        compiled,
        topology,
        config: Optional[RuntimeConfig] = None,
        link_loads: Optional[Dict[str, str]] = None,
        channels: str = "inproc",
        host: str = "127.0.0.1",
    ):
        _check_backend(channels)
        self.compiled = compiled
        self.topology = topology
        self.link_loads = link_loads
        self.channels = channels
        self.host = host
        self._config = config
        self._cluster: Optional[LiveCluster] = None
        self._stopped = False
        #: Workload verbs issued before start(), as (method, args).
        self._pending_ops: List[Tuple] = []
        self._pending_listeners: List = []

    # -- lifecycle ------------------------------------------------------
    @property
    def cluster(self) -> LiveCluster:  # type: ignore[override]
        if self._cluster is None:
            raise NetworkError(
                "live deployment not started (await deployment.start(), "
                "or use deployment.converge())"
            )
        return self._cluster

    @property
    def started(self) -> bool:
        return self._cluster is not None

    async def start(self) -> "LiveDeployment":
        """Build the live cluster on the running loop, spawn the node
        tasks, and replay buffered workload calls."""
        self._check_not_stopped()
        if self._cluster is not None:
            return self
        cluster = self._cluster = LiveCluster(
            self.topology,
            self.compiled,
            self._config,
            link_loads=self.link_loads,
            channels=self.channels,
            host=self.host,
        )
        for listener in self._pending_listeners:
            cluster.subscribe(listener)
        await cluster.start()
        for method, *args in self._pending_ops:
            method(*args)
        self._pending_listeners.clear()
        self._pending_ops.clear()
        return self

    async def quiescent(  # type: ignore[override]
        self,
        timeout: float = 30.0,
        poll: float = 0.02,
        settle: int = 3,
    ) -> bool:
        """Wait (in wall time) until the network is quiescent: ``settle``
        consecutive idle samples ``poll`` seconds apart.  Returns True on
        quiescence, False if ``timeout`` elapses first."""
        self._check_not_stopped()
        cluster = self.cluster
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        streak = 0
        while True:
            streak = streak + 1 if cluster.idle else 0
            if streak >= settle:
                return True
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(poll)

    async def stop(self) -> None:  # type: ignore[override]
        """Tear down node tasks and channel endpoints; raises if any
        node callback failed during the run.  The handle's tables stay
        readable (``rows``/``query_rows``), but workload verbs and the
        lifecycle are finished -- a new run needs a new deployment."""
        if self._cluster is not None:
            self._stopped = True
            await self._cluster.stop()

    def converge(self, timeout: float = 30.0) -> bool:
        """Synchronous one-shot: start, wait for quiescence, stop.
        Returns whether the network went quiescent within ``timeout``;
        results stay readable on the handle afterwards."""
        return asyncio.run(self._converge(timeout))

    async def _converge(self, timeout: float) -> bool:
        await self.start()
        ok = await self.quiescent(timeout=timeout)
        await self.stop()
        return ok

    # -- buffered workload verbs ----------------------------------------
    def _check_not_stopped(self) -> None:
        # The wall clock and node tasks died with the loop that ran
        # them; scheduling against them would surface as an opaque
        # "Event loop is closed" from deep inside asyncio.
        if self._stopped:
            raise NetworkError(
                "live deployment already stopped; results stay readable, "
                "but a new run needs a fresh deploy(target='live')"
            )

    def _op(self, verb: str, node: str, pred: str, args: Tuple) -> None:
        self._check_not_stopped()
        if self._cluster is None:
            self._pending_ops.append((self._op, verb, node, pred, args))
        else:
            super()._op(verb, node, pred, args)

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at wall time ``time`` (seconds from start)."""
        self._check_not_stopped()
        if self._cluster is None:
            self._pending_ops.append((self.at, time, fn))
        else:
            super().at(time, fn)

    def _listen(self, listener) -> Callable[[], None]:
        if self._cluster is not None:
            return super()._listen(listener)
        self._pending_listeners.append(listener)

        def unsubscribe() -> None:
            pool = (self._pending_listeners if self._cluster is None
                    else self._cluster.trackers)
            if listener in pool:
                pool.remove(listener)

        return unsubscribe

    # -- surfaces readable before start ---------------------------------
    @property
    def config(self) -> RuntimeConfig:
        if self._cluster is not None:
            return self._cluster.config
        return self._config or RuntimeConfig()

    @property
    def now(self) -> float:
        return self._cluster.clock.now if self._cluster is not None else 0.0

    def __repr__(self) -> str:
        state = "running" if self.started else "not started"
        return (
            f"LiveDeployment({self.compiled.name!r}, "
            f"nodes={len(self.topology.nodes)}, "
            f"channels={self.channels!r}, {state})"
        )
