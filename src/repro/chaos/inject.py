"""Fault injection on the Clock/Channel seams.

The controller never patches runtime internals: it wraps every
:class:`~repro.net.channel.Channel` in a :class:`ChaosChannel` (faults
apply where the message enters the link, so the same code path covers
the simulator, the asyncio-queue backend, and real UDP) and hands
skewed nodes a :class:`SkewedClock` view of the cluster clock.  Crash
state is consulted at three points: message entry (a crashed endpoint
black-holes traffic), message delivery (a message in flight when the
destination dies is lost with it), and the node's CPU tick (a crashed
node's dataflow freezes until its restart).

Every fault decision comes from an RNG seeded from ``(schedule.seed,
fault index, link)``, so a schedule replays the identical fault trace
whenever the underlying message sequence is deterministic -- which the
simulator guarantees.  The applied faults are recorded on
:attr:`ChaosController.trace` and tallied into the cluster's
``stats.faults_injected``.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.schedule import MESSAGE_KINDS, ChaosSchedule, Fault
from repro.net.channel import Channel
from repro.net.clock import Clock
from repro.net.message import Message

__all__ = ["ChaosController", "ChaosChannel", "SkewedClock"]


class SkewedClock(Clock):
    """A node's drifted view of the shared cluster clock.

    ``now`` is the true timeline (faults and observations stay on one
    axis); every *relative* delay the node schedules is stretched by
    ``drift``, which is how skew manifests: a slow node's CPU ticks,
    soft-state refreshes, and retransmit timers all fire late relative
    to its peers.
    """

    def __init__(self, inner: Clock, drift: float):
        self.inner = inner
        self.drift = drift

    @property
    def now(self) -> float:
        return self.inner.now

    def at(self, time: float, callback: Callable[[], None]):
        delay = max(0.0, time - self.inner.now)
        return self.inner.at(self.inner.now + delay * self.drift, callback)

    def after(self, delay: float, callback: Callable[[], None]):
        return self.inner.after(delay * self.drift, callback)

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        self.inner.post(delay * self.drift, callback)

    @property
    def pending(self) -> int:
        return self.inner.pending


class ChaosController:
    """Holds the schedule, the per-fault RNGs, and the fault trace for
    one cluster run."""

    def __init__(self, cluster, schedule: ChaosSchedule):
        for fault in schedule.faults:
            fault.check()
        self.cluster = cluster
        self.schedule = schedule
        #: Applied faults, ``(time, kind, src, dst)`` -- the replay
        #: fingerprint (identical seeds must produce identical traces).
        self.trace: List[Tuple[float, str, str, str]] = []
        self._rngs: Dict[Tuple[int, str, str], random.Random] = {}
        self._skewed: Dict[str, SkewedClock] = {}
        self.message_faults: List[Tuple[int, Fault]] = [
            (i, f) for i, f in enumerate(schedule.faults)
            if f.kind in MESSAGE_KINDS
        ]
        self.partitions: List[Fault] = [
            f for f in schedule.faults if f.kind == "partition"
        ]
        #: node -> (crash_time, resume_time); resume is +inf when the
        #: crash has no restart.
        self.crashes: Dict[str, Tuple[float, float]] = {
            f.node: (f.start,
                     math.inf if f.restart is None else f.restart)
            for f in schedule.faults if f.kind == "crash"
        }
        self.skews: Dict[str, float] = {
            f.node: f.drift for f in schedule.faults if f.kind == "skew"
        }

    # -- deterministic randomness ---------------------------------------
    def rng_for(self, index: int, a: str, b: str) -> random.Random:
        """One RNG per (fault, link): decisions on one link never
        perturb another link's, so traces stay stable under unrelated
        topology changes."""
        key = (index, a, b) if a <= b else (index, b, a)
        rng = self._rngs.get(key)
        if rng is None:
            rng = random.Random(f"{self.schedule.seed}/{key}")
            self._rngs[key] = rng
        return rng

    def note(self, kind: str, src: str, dst: str) -> None:
        now = self.cluster.clock.now
        self.trace.append((round(now, 9), kind, src, dst))
        tally = self.cluster.stats.faults_injected
        tally[kind] = tally.get(kind, 0) + 1
        observer = self.cluster.observer
        if observer is not None:
            # Interleave the fault with the delta spans it affected, so
            # an exported trace shows *why* a flow stalled or repeated.
            observer.fault("fault:" + kind, src, dst)

    # -- node state -----------------------------------------------------
    def down_until(self, node: str, now: Optional[float] = None) -> \
            Optional[float]:
        """``None`` if ``node`` is up at ``now``; otherwise the time it
        resumes (``inf`` for a crash with no restart)."""
        window = self.crashes.get(node)
        if window is None:
            return None
        crash, resume = window
        if now is None:
            now = self.cluster.clock.now
        if crash <= now < resume:
            return resume
        return None

    def dead_nodes(self, now: float) -> frozenset:
        """Nodes currently down -- excluded from quiescence checks
        (their frozen queues would otherwise hold the run open)."""
        return frozenset(
            node for node in self.crashes if self.down_until(node, now)
        )

    def partitioned(self, src: str, dst: str, now: float) -> bool:
        for fault in self.partitions:
            if fault.active(now) and \
                    (src in fault.nodes) != (dst in fault.nodes):
                return True
        return False

    def blocked(self, src: str, dst: str, now: float) -> bool:
        """True when traffic src->dst black-holes right now (either
        endpoint crashed, or the pair straddles an active partition)."""
        return (
            self.down_until(src, now) is not None
            or self.down_until(dst, now) is not None
            or self.partitioned(src, dst, now)
        )

    def deliverable(self, message: Message) -> bool:
        """Delivery-time guard (the cluster calls this for every
        arrival, on all three backends): a message whose destination
        crashed -- or whose link partitioned -- while it was in flight
        dies on the wire."""
        now = self.cluster.clock.now
        if self.blocked(message.src, message.dst, now):
            self.note("blackhole", message.src, message.dst)
            return False
        return True

    def clock_for(self, node: str) -> Clock:
        drift = self.skews.get(node)
        if drift is None or drift == 1.0:
            return self.cluster.clock
        skewed = self._skewed.get(node)
        if skewed is None:
            skewed = SkewedClock(self.cluster.clock, drift)
            self._skewed[node] = skewed
        return skewed

    def wrap_channels(self, channels: Dict[Tuple[str, str], Channel]) \
            -> None:
        for key, channel in channels.items():
            channels[key] = ChaosChannel(channel, self)


class ChaosChannel:
    """Wraps one channel; faults apply where a message enters the link.

    Everything except :meth:`transmit` delegates to the wrapped channel,
    so the emulation model (latency, bandwidth queueing, configured
    loss) and backend-specific attributes stay untouched.
    """

    def __init__(self, inner: Channel, controller: ChaosController):
        self.inner = inner
        self.controller = controller

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def transmit(
        self,
        clock: Clock,
        message: Message,
        deliver: Callable[[Message], None],
        rng: Optional[random.Random] = None,
    ) -> float:
        ctl = self.controller
        now = clock.now
        if ctl.blocked(message.src, message.dst, now):
            ctl.note("blackhole", message.src, message.dst)
            return now
        for index, fault in ctl.message_faults:
            if not fault.active(now) or \
                    not fault.on_link(message.src, message.dst):
                continue
            decide = ctl.rng_for(index, message.src, message.dst)
            if decide.random() >= fault.rate:
                continue
            ctl.note(fault.kind, message.src, message.dst)
            if fault.kind == "drop":
                return now
            if fault.kind == "duplicate":
                # Extra copy now; the original continues through the
                # remaining faults and the normal send below.
                self.inner.transmit(clock, message, deliver, rng=rng)
                continue
            if fault.kind == "reorder":
                hold = decide.uniform(fault.min_delay, fault.max_delay)
                clock.post(
                    hold,
                    lambda: self.inner.transmit(clock, message, deliver,
                                                rng=rng),
                )
                return now + hold
            if fault.kind == "corrupt":
                return self._corrupt(clock, message, rng)
        return self.inner.transmit(clock, message, deliver, rng=rng)

    def _corrupt(self, clock: Clock, message: Message,
                 rng: Optional[random.Random]) -> float:
        """Garble the frame.  On the UDP backend real mangled bytes hit
        the destination socket (exercising ``decode_message``'s
        hardening); elsewhere the wire format is never materialized, so
        the corruption is modeled at its observable outcome: a frame
        that fails validation at the receiver and is discarded."""
        fabric = getattr(self.inner, "fabric", None)
        arrive, lost = self.inner.plan(clock, message, rng)
        if lost:
            return arrive
        if fabric is not None:
            from repro.net.live import encode_message

            data = encode_message(message)
            garbled = b"\xff\xfe" + data[: max(1, len(data) // 2)]
            clock.post(
                max(0.0, arrive - clock.now),
                lambda: fabric.sendto(message.src, message.dst, garbled),
            )
        else:
            self.controller.cluster.stats.malformed_dropped += 1
        return arrive
