"""Outbound message handling: one send path whose three modes differ
only in *when* a link's window of outbound deltas is flushed.

A node hands the transport a *run* -- every remote head one chunk
produced for one neighbour, in emission order -- once per (chunk,
neighbour) (:meth:`Transport.send`).  What happens next is a flush
policy:

* **eager** (neither ``buffer_interval`` nor ``share_delay``): the
  window is flushed now -- the run leaves as one message, as is (the
  chunk was already netted at the sender's queue);
* **periodic** (``buffer_interval``, Section 5.1.1): the run joins the
  ``(src, dst)`` window, which a timer flushes every interval through
  Z-set coalescing and net-change elimination (periodic aggregate
  selections);
* **sharing** (``share_delay``, Section 5.2): the same window, held for
  the share delay and cut into share groups whose common attributes
  are charged once.

A message larger than :data:`MAX_MESSAGE_BYTES` is cut into consecutive
messages (:func:`messages`), so a long window still fits a datagram.
With ``config.reliable`` the ack/retransmit layer that restores the
delivery guarantees of Theorem 4 on faulty links sits on the messages,
whichever policy produced them.

All paths charge bytes to :class:`repro.net.stats.TrafficStats` at
actual transmission time, so the bandwidth figures reflect what really
crossed each link (retransmissions and pure acks included: they are
real traffic).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.net.message import (
    DELTA_HEADER_BYTES,
    HEADER_BYTES,
    Message,
    NetDelta,
    coalesce,
    value_size,
)
from repro.net.reliable import Flow, FlowTable
from repro.runtime.config import RuntimeConfig

#: Buffered flush timers carry +-10% deterministic jitter so that
#: buffers armed in the same instant do not flush in lockstep (which
#: would synthesize bandwidth spikes no real deployment shows).
FLUSH_JITTER = 0.10

#: Largest message the transport builds, in model bytes.  A UDP datagram
#: carries at most 65,507 bytes and the JSON wire codec inflates the
#: model size 1.3-1.5x on path-vector tuples (more with provenance and
#: trace tags, which the byte model does not charge), so half the
#: datagram leaves headroom.  It is an estimate, not a guarantee -- a
#: float is 8 model bytes and up to 24 characters -- and a frame that
#: still overruns the datagram is refused by the UDP channel with a
#: ``NetworkError`` (``NodeRuntime._ship_outbox`` keeps that safe).
MAX_MESSAGE_BYTES = 32_768


def messages(src: str, dst: str, deltas: Sequence[NetDelta],
             shared_bytes: int = 0, ack=None) -> Iterator[Message]:
    """The run as one message -- or, where that would exceed
    :data:`MAX_MESSAGE_BYTES`, as consecutive pieces under the limit (a
    lone delta above it travels alone).  Each piece is its own message,
    hence gets its own ``seq``: per-link FIFO and the reliable layer see
    ordinary messages."""
    def piece(chunk) -> Message:
        return Message(src=src, dst=dst, deltas=tuple(chunk),
                       shared_bytes=shared_bytes, ack=ack)

    whole = piece(deltas)
    if whole.size <= MAX_MESSAGE_BYTES or len(deltas) < 2:
        yield whole
        return
    start, total = 0, HEADER_BYTES
    for index, delta in enumerate(deltas):
        size = delta.payload_size()
        if total + size > MAX_MESSAGE_BYTES and index > start:
            yield piece(deltas[start:index])
            start, total = index, HEADER_BYTES
        total += size
    yield piece(deltas[start:])


class Transport:
    """Per-cluster message layer.

    ``buffer_interval`` (periodic mode) batches each (src, dst) stream on
    a fixed period and sends only the *net* change per primary key --
    transient best-path flip-flops inside a window are suppressed, which
    is exactly the periodic aggregate-selections saving.

    ``share_delay`` (sharing mode) holds tuples briefly ("to facilitate
    sharing, we delay each outbound tuple by 300ms") and merges buffered
    tuples whose share key matches, charging common attributes once.
    """

    def __init__(self, cluster, config: RuntimeConfig):
        self.cluster = cluster
        self.config = config
        #: Who watches the wire (:class:`~repro.obs.observer.WireObserver`,
        #: handed over by the cluster that composed one), or ``None``.
        self.observer = None
        #: (src, dst) -> the link's open window: deltas queued since its
        #: flush timer was armed (a key is present exactly while a
        #: flush is pending).
        self._buffers: Dict[Tuple[str, str], List[NetDelta]] = {}
        #: (src, dst) -> pkey -> last advertised args (periodic mode)
        self._advertised: Dict[Tuple[str, str], Dict[Tuple, Tuple]] = {}
        self._jitter_rng = random.Random(config.seed + 4099)

    def _flush_delay(self) -> float:
        base = self.config.buffer_interval or self.config.share_delay
        return base * self._jitter_rng.uniform(1 - FLUSH_JITTER,
                                               1 + FLUSH_JITTER)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, deltas: List[NetDelta]) -> None:
        """Ship one run -- the remote heads a chunk at ``src`` produced
        for neighbour ``dst``, in emission order (the transport takes
        the list over)."""
        if not (self.config.buffer_interval or self.config.share_delay):
            self._transmit(src, dst, deltas)
            return
        key = (src, dst)
        window = self._buffers.get(key)
        if window is not None:
            window.extend(deltas)
            return
        self._buffers[key] = deltas
        self.cluster.clock.after(self._flush_delay(),
                                 lambda: self._flush(key))

    # ------------------------------------------------------------------
    # Timed windows
    # ------------------------------------------------------------------
    def _flush(self, key: Tuple[str, str]) -> None:
        deltas = self._buffers.pop(key)
        src, dst = key
        # Z-set coalescing first: same-fact weights in the window sum,
        # so a link flap buffered whole ships nothing.  Runs before the
        # per-pkey net-change pass, which reasons about *slots* and
        # assumes one net intent per fact.
        buffered = deltas
        before = len(deltas)
        deltas = coalesce(deltas)
        self.cluster.stats.netdeltas_coalesced += before - len(deltas)
        observer = self.observer
        if (observer is not None and observer.traced
                and len(deltas) != before):
            # Traced deltas whose (pred, args) slot vanished in the
            # window were annihilated before transmission: end their
            # propagation with a net span at the sender.
            surviving = {(d.pred, d.args) for d in deltas}
            observer.netted(
                [delta for delta in buffered
                 if delta.trace is not None
                 and (delta.pred, delta.args) not in surviving], src)
        if self.config.buffer_interval:
            deltas = self._net_change(key, deltas)
        if not deltas:
            return
        if self.config.share_delay and self.config.share_specs:
            for message_deltas, shared in self._share_groups(deltas):
                self._transmit(src, dst, message_deltas, shared)
        else:
            # One batch message; per-delta headers still paid.
            self._transmit(src, dst, deltas)

    def _net_change(
        self, key: Tuple[str, str], deltas: Sequence[NetDelta]
    ) -> List[NetDelta]:
        """Collapse a window to one delta per primary key: the receiver
        only needs the final state ("a node buffers up new paths ...
        and then propagates the new shortest paths periodically")."""
        advertised = self._advertised.setdefault(key, {})
        final: "OrderedDict[Tuple, NetDelta]" = OrderedDict()
        for delta in deltas:
            pkey = (delta.pred, self.cluster.pkey_of(delta.pred, delta.args))
            final[pkey] = delta
        out: List[NetDelta] = []
        for pkey, delta in final.items():
            last = advertised.get(pkey)
            if delta.sign > 0:
                if last == delta.args:
                    continue  # receiver already has exactly this tuple
                advertised[pkey] = delta.args
                out.append(delta)
            else:
                if last is None:
                    continue  # never advertised; nothing to retract
                advertised.pop(pkey, None)
                out.append(NetDelta(delta.pred, last, -1,
                                    None, delta.trace))
        return out

    def _share_groups(self, deltas: Sequence[NetDelta]):
        """Group buffered deltas by share key; each group becomes one
        message whose common attributes are charged once."""
        groups: "OrderedDict[object, List[NetDelta]]" = OrderedDict()
        specs = self.config.share_specs
        for delta in deltas:
            spec = specs.get(delta.pred)
            if spec is None:
                groups.setdefault(("solo", len(groups)), []).append(delta)
                continue
            shared_fields = tuple(
                value for index, value in enumerate(delta.args)
                if index not in spec.value_positions
            )
            groups.setdefault(
                ("share", spec.base, delta.sign, shared_fields), []
            ).append(delta)
        for group_key, members in groups.items():
            if group_key[0] == "share" and len(members) > 1:
                spec = specs[members[0].pred]
                shared_bytes = (
                    DELTA_HEADER_BYTES
                    + len(spec.base)
                    + sum(value_size(v) for v in group_key[3])
                )
                yield members, shared_bytes
            else:
                yield members, 0

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------
    def _transmit(
        self,
        src: str,
        dst: str,
        deltas: Sequence[NetDelta],
        shared_bytes: int = 0,
    ) -> None:
        channel = self.cluster.channel(src, dst)
        if channel is None:
            self.cluster.stats.dropped_no_link += 1
            return
        for message in messages(src, dst, deltas, shared_bytes):
            self._send(channel, message)

    def _send(self, channel, message: Message) -> None:
        stats = self.cluster.stats
        stats.netdeltas_shipped += len(message.deltas)
        stats.record(self.cluster.clock.now, message.src, message.size)
        observer = self.observer
        if observer is not None and observer.traced:
            observer.ship(message)
        channel.transmit(
            self.cluster.clock, message, self.cluster.deliver,
            rng=self.cluster.loss_rng,
        )

    def on_arrival(self, message: Message) -> Iterable[Message]:
        """Arrival filter hook: the raw transport delivers every
        message as-is (the reliable transport below dedups, reorders,
        and strips pure acks here)."""
        return (message,)


class ReliableTransport(Transport):
    """Ack/retransmit delivery over the same channels.

    Protocol state lives in :mod:`repro.net.reliable`; this class wires
    it to the cluster: stamping outbound messages, arming the
    per-direction retransmit and delayed-ack timers on the cluster
    clock, filtering arrivals back into the FIFO exactly-once stream
    the engine assumes, and escalating a spent retry budget to the
    convergence watchdog (``cluster.fail_link``).
    """

    def __init__(self, cluster, config: RuntimeConfig):
        super().__init__(cluster, config)
        self.flows = FlowTable(config.rto_min, config.ack_delay)
        # Decorrelates retransmit timers; seeded apart from the flush
        # jitter stream so enabling reliability does not perturb it.
        self._rto_jitter = random.Random(config.seed + 7331)

    def _flow(self, src: str, dst: str) -> Flow:
        channel = self.cluster.channel(src, dst)
        latency = getattr(channel, "latency", 0.0) if channel else 0.0
        return self.flows.get(src, dst, latency=latency)

    # -- sender side ----------------------------------------------------
    def _transmit(
        self,
        src: str,
        dst: str,
        deltas: Sequence[NetDelta],
        shared_bytes: int = 0,
    ) -> None:
        channel = self.cluster.channel(src, dst)
        if channel is None:
            self.cluster.stats.dropped_no_link += 1
            return
        flow = self._flow(src, dst)
        if flow.dead:
            # Watchdog already declared the peer dead; the link facts
            # are gone and stragglers from in-queue work are dropped.
            self.cluster.stats.dead_link_drops += 1
            return
        reverse = self._flow(dst, src)
        for message in messages(src, dst, deltas, shared_bytes,
                                ack=reverse.cursor):
            message.seq = flow.stamp(message)
            reverse.ack_owed = False  # piggybacked on this send
            self._send(channel, message)
        if flow.timer is None:
            self._arm_retransmit(flow)

    def _arm_retransmit(self, flow: Flow) -> None:
        delay = flow.rto * self._rto_jitter.uniform(1.0, 1.5)
        # The sender's own clock: a skewed node retransmits on its
        # drifted schedule, exactly like a real host with a bad clock.
        flow.timer = self.cluster.clock_for(flow.src).after(
            delay, lambda: self._on_timeout(flow)
        )

    def _down_until(self, node: str):
        chaos = self.cluster.chaos
        return None if chaos is None else chaos.down_until(node)

    def _on_timeout(self, flow: Flow) -> None:
        flow.timer = None
        if flow.dead or not flow.unacked:
            return
        resume = self._down_until(flow.src)
        if resume is not None:
            # The *sender* is crashed: a dead host neither retransmits
            # nor concludes anything about its peers.  Park the timer
            # until the restart; with no restart the flow is abandoned
            # (the survivors' watchdogs handle the teardown from their
            # side).
            if resume != float("inf"):
                clock = self.cluster.clock_for(flow.src)
                flow.timer = clock.after(
                    max(0.0, resume - clock.now) + flow.rto,
                    lambda: self._on_timeout(flow),
                )
            return
        if flow.retries >= self.config.retry_budget:
            self._declare_dead(flow)
            return
        message = flow.oldest_unacked()
        channel = self.cluster.channel(flow.src, flow.dst)
        if channel is None:  # link removed under us
            flow.unacked.clear()
            return
        flow.backoff(self.config.rto_backoff, self.config.rto_max)
        self.cluster.stats.retransmits += 1
        if self.observer is not None:
            self.observer.retransmit(flow.src, flow.dst)
        self._send(channel, message)
        self._arm_retransmit(flow)

    def _declare_dead(self, flow: Flow) -> None:
        """The convergence watchdog: ``retry_budget`` retransmissions
        went unacknowledged, so the peer (or the path to it) is treated
        as failed and the link is torn down declaratively."""
        flow.dead = True
        flow.unacked.clear()
        flow.cancel_timers()
        self.cluster.fail_link(flow.src, flow.dst)

    # -- receiver side --------------------------------------------------
    def on_arrival(self, message: Message) -> Iterable[Message]:
        if message.ack is not None:
            sender = self._flow(message.dst, message.src)
            if sender.absorb_ack(message.ack):
                if sender.timer is not None:
                    sender.timer.cancel()
                    sender.timer = None
                if sender.unacked:
                    self._arm_retransmit(sender)
        if message.seq is None:
            # Pure ack (or a frame from an unreliable sender): nothing
            # to sequence, nothing to deliver.
            return () if not message.deltas else (message,)
        flow = self._flow(message.src, message.dst)
        ready, dup, healed = flow.admit(message.seq, message)
        stats = self.cluster.stats
        if dup:
            stats.dup_dropped += 1
        stats.reorders_healed += healed
        # Anything sequenced owes the sender a cumulative ack -- also
        # duplicates (the re-ack is what stops their retransmission).
        self._owe_ack(flow)
        return ready

    def _owe_ack(self, flow: Flow) -> None:
        flow.ack_owed = True
        if flow.ack_timer is None:
            flow.ack_timer = self.cluster.clock_for(flow.dst).after(
                self.config.ack_delay, lambda: self._flush_ack(flow)
            )

    def _flush_ack(self, flow: Flow) -> None:
        flow.ack_timer = None
        if not flow.ack_owed:
            return  # reverse traffic piggybacked it meanwhile
        resume = self._down_until(flow.dst)
        if resume is not None:
            # The acking host is crashed; leave the debt owed.  After a
            # restart the next sequenced arrival re-arms the timer, and
            # the sender's retransmissions cover the gap meanwhile.
            if resume != float("inf"):
                clock = self.cluster.clock_for(flow.dst)
                flow.ack_timer = clock.after(
                    max(0.0, resume - clock.now) + self.config.ack_delay,
                    lambda: self._flush_ack(flow),
                )
            return
        flow.ack_owed = False
        channel = self.cluster.channel(flow.dst, flow.src)
        if channel is None:
            return
        ack = Message(src=flow.dst, dst=flow.src, deltas=(),
                      ack=flow.cursor)
        self.cluster.stats.acks_sent += 1
        self._send(channel, ack)
