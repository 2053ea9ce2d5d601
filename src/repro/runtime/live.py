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

Lifecycle (``deploy`` returns the :class:`LiveCluster` itself)::

    deployment = compiled.deploy(topology=overlay, target="live")
    deployment.inject(node, pred, args)   # runs now; its ticks wait
    await deployment.start()          # bind channels, spawn node tasks
    await deployment.quiescent()      # wait for convergence (wall time)
    rows = deployment.query_rows()
    await deployment.stop()           # tear down tasks and sockets

or, from synchronous code, ``deployment.converge()`` runs the whole
lifecycle under ``asyncio.run``.  The cluster is whole from
construction, like the simulated one: a verb runs when it is called
(an unknown node raises there), and only the timers it schedules wait
for :meth:`LiveCluster.start`.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

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


def _resolve(waiter: asyncio.Future) -> None:
    if not waiter.done():
        waiter.set_result(None)


class LiveCluster(Cluster):
    """A deployed declarative network on wall-clock time.

    Built without an event loop, like the simulated
    :class:`~repro.runtime.cluster.Cluster`: nodes, channels and the
    initial link relations exist from construction and every verb and
    reader works at once, while the :class:`~repro.net.clock.WallClock`
    holds the timers they schedule until :meth:`start` binds it to the
    running loop.  Declares only what differs on wall time: the
    channels and the async lifecycle -- :meth:`start`,
    :meth:`quiescent` (wait for convergence), :meth:`stop`;
    :meth:`converge` wraps all three for synchronous callers.
    :meth:`quiescent` and :meth:`stop` override a property and a plain
    method with coroutines -- a change of kind that existing callers on
    both targets pin.
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
        if channels not in ("inproc", "udp"):
            raise NetworkError(
                f"unknown live channel backend {channels!r}; "
                f"pick 'inproc' or 'udp'"
            )
        self.backend = channels
        self.fabric = UdpFabric(host) if channels == "udp" else None
        self._inboxes: Dict[str, asyncio.Queue] = {}
        self._tasks: List[asyncio.Task] = []
        self._task_failures: List[Tuple[str, Exception]] = []
        self._started = False
        #: Futures of the :meth:`quiescent` calls waiting for a wake-up.
        self._waiters: List[asyncio.Future] = []
        super().__init__(overlay, program, config, link_loads,
                         clock=WallClock())
        self.clock.on_drain = self._wake
        if self.fabric is not None:
            # Route datagrams through the full delivery path (chaos
            # guard + reliable filter), not straight to the inboxes.
            self.fabric.on_message = self._arrive
            self.fabric.stats = self.stats

    def _make_channel(self, a: str, b: str, metrics) -> Channel:
        kwargs = dict(
            a=a,
            b=b,
            latency=metrics["latency"] / 1000.0,
            bandwidth_bps=self.config.bandwidth_bps,
            metrics=dict(metrics),
        )
        if self.fabric is not None:
            return UdpChannel(fabric=self.fabric, **kwargs)
        return QueueChannel(**kwargs)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "LiveCluster":
        """Bind channel endpoints, spawn one task per node, then start
        the wall clock, which arms every timer scheduled so far."""
        if self.clock.closed:
            raise NetworkError(
                "live deployment already stopped; results stay readable, "
                "but a new run needs a fresh deploy(target='live')"
            )
        if self._started:
            return self
        self._started = True
        loop = asyncio.get_running_loop()
        if self.fabric is not None:
            for name in self.nodes:
                await self.fabric.bind(name)
        for name in self.nodes:
            inbox: asyncio.Queue = asyncio.Queue()
            self._inboxes[name] = inbox
            self._tasks.append(
                loop.create_task(self._node_loop(name, inbox),
                                 name=f"ndlog-node-{name}")
            )
        self.clock.bind(loop)
        return self

    async def _node_loop(self, name: str, inbox: asyncio.Queue) -> None:
        """One node's ingestion task: messages in, deltas to the engine
        (the simulated cluster's dispatch, one task hop later).  The
        task that empties its inbox with no timer pending wakes a
        waiting :meth:`quiescent`: that dispatch may have been the
        network's last piece of work."""
        while True:
            message = await inbox.get()
            if message is _SHUTDOWN:
                return
            try:
                super()._dispatch(message)
            except Exception as exc:  # noqa: BLE001 -- surfaced at stop
                self._task_failures.append((name, exc))
            if inbox.empty() and self.clock.pending == 0:
                self._wake()

    async def quiescent(  # type: ignore[override]
        self, timeout: float = 30.0
    ) -> bool:
        """Wait (in wall time) until the network is :attr:`idle`.
        Returns True on quiescence, False if ``timeout`` elapses first.

        Nothing is polled: :attr:`idle` is checked once on entry (an
        idle network returns without yielding) and then once per
        wake-up.  The wake-ups come where the network can go idle: the
        clock's last pending timer fires or is cancelled, a node task
        empties its inbox with no timer pending, a datagram arrives with
        no timer pending (the chaos guard or the reliable filter may
        drop it), and, while datagrams are outstanding, the fabric's
        loss grace runs out (a datagram the kernel dropped never
        arrives to report itself)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        fabric = self.fabric
        while not self.idle:
            now = loop.time()
            if now >= deadline:
                return False
            wake_at = deadline
            if fabric is not None:
                grace = fabric.grace_left()
                if grace:
                    wake_at = min(wake_at, now + grace)
            waiter = loop.create_future()
            self._waiters.append(waiter)
            alarm = loop.call_at(wake_at, _resolve, waiter)
            try:
                await waiter
            finally:
                alarm.cancel()
        return True

    def _wake(self) -> None:
        """Resume every waiting :meth:`quiescent` (each re-checks
        :attr:`idle` itself)."""
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                _resolve(waiter)

    async def stop(self) -> None:  # type: ignore[override]
        """Drain and stop every node task, close sockets and the wall
        clock, and re-raise the first callback/task failure (if any).
        The tables stay readable (``rows`` / ``query_rows``), but the
        verbs and the lifecycle are finished -- the stopped clock
        refuses what they would schedule, so a new run needs a new
        deployment."""
        for inbox in self._inboxes.values():
            inbox.put_nowait(_SHUTDOWN)
        if self._tasks:
            done, pending = await asyncio.wait(self._tasks, timeout=5.0)
            for task in pending:
                task.cancel()
        self._tasks = []
        if self.fabric is not None:
            self.fabric.close()
        self.clock.close()
        self.raise_failures()

    def converge(self, timeout: float = 30.0) -> bool:
        """Synchronous one-shot: start, wait for quiescence, stop.
        Returns whether the network went quiescent within ``timeout``;
        results stay readable afterwards."""
        return asyncio.run(self._converge(timeout))

    async def _converge(self, timeout: float) -> bool:
        await self.start()
        ok = await self.quiescent(timeout=timeout)
        await self.stop()
        return ok

    def raise_failures(self) -> None:
        failures: List[Tuple[str, Exception]] = list(self._task_failures)
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

    def _arrive(self, message: Message) -> None:
        """A datagram came off a socket: deliver it, and wake a
        waiting :meth:`quiescent` if no timer is pending -- a delivery
        the chaos guard or the reliable filter drops queues nothing
        for a node task to report."""
        self.deliver(message)
        if self.clock.pending == 0:
            self._wake()

    # -- quiescence -----------------------------------------------------
    @property
    def idle(self) -> bool:
        """No timers, no undelivered messages, no queued deltas.

        One check is exact, because every sign of work changes inside
        the synchronous callback that creates the work: the clock
        counts a timer (node tick, in-process delivery, flush, ack,
        retransmit) until it fires, and whatever its callback starts is
        counted before the callback returns; a delivery puts the
        message on an inbox, where it counts until the node task takes
        it and dispatches it without yielding; and the UDP fabric
        counts a datagram from ``sendto`` until ``datagram_received``
        (or until the loss grace declares it dropped).  So no work
        hides between two signs, and an idle network stays idle until
        someone injects more.  Link heartbeats, and pure acks in
        flight, run on daemon timers: they carry no work, so the clock
        does not count them."""
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


#: The name README and scripts know the live deployment by: the same
#: class, not a wrapper.
LiveDeployment = LiveCluster
