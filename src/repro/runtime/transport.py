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
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.net.clock import DaemonView
from repro.net.message import (
    DELTA_HEADER_BYTES,
    HEADER_BYTES,
    Message,
    NetDelta,
    coalesce,
    value_size,
)
from repro.net.reliable import (
    ACK_DELAY,
    HEARTBEAT,
    LINK_LIFETIME,
    Flow,
    FlowTable,
)
from repro.runtime.config import RuntimeConfig

#: Buffered flush timers carry +-10% deterministic jitter so that
#: buffers armed in the same instant do not flush in lockstep (which
#: would synthesize bandwidth spikes no real deployment shows).
FLUSH_JITTER = 0.10

#: Largest message the transport builds, in model bytes.  A UDP datagram
#: carries at most 65,507 bytes and the JSON wire codec inflates the
#: model size 1.3-1.5x on path-vector tuples (more with trace ids,
#: which the byte model does not charge), so half the
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
    whole = Message(src, dst, tuple(deltas), shared_bytes, None, ack)
    if whole.size <= MAX_MESSAGE_BYTES or len(deltas) < 2:
        yield whole
        return
    start, total = 0, HEADER_BYTES
    for index, delta in enumerate(deltas):
        size = delta.payload_size()
        if total + size > MAX_MESSAGE_BYTES and index > start:
            yield Message(src, dst, tuple(deltas[start:index]),
                          shared_bytes, None, ack)
            start, total = index, HEADER_BYTES
        total += size
    yield Message(src, dst, tuple(deltas[start:]), shared_bytes, None, ack)


def _dropped(window: Sequence[NetDelta], coalesced: Sequence[NetDelta],
             suppressed: Sequence[NetDelta]) -> List[NetDelta]:
    """The traced deltas of a flushed ``window`` whose trace no shipped
    delta carries on: every one of a fact that netted to zero or whose
    coalesced entry net change ``suppressed``, and of a fact that did
    ship all but the last traced one (its entry keeps the latest
    trace)."""
    shipped = {(delta.pred, delta.args) for delta in coalesced}
    shipped.difference_update((d.pred, d.args) for d in suppressed)
    carrier = {}
    for position, delta in enumerate(window):
        if delta.trace is not None:
            carrier[delta.pred, delta.args] = position
    carried = {position for fact, position in carrier.items()
               if fact in shipped}
    return [delta for position, delta in enumerate(window)
            if delta.trace is not None and position not in carried]


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
        #: (src, dst) -> (pred, primary-key value) slot -> last
        #: advertised args (periodic mode)
        self._advertised: Dict[Tuple[str, str], Dict[Tuple, Tuple]] = {}
        #: A fixed seed: a lossless run replays byte for byte.
        self._jitter_rng = random.Random(4099)

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
        window = self._buffers.pop(key)
        src, dst = key
        # Z-set coalescing first: same-fact weights in the window sum,
        # so a link flap buffered whole ships nothing.  Runs before the
        # per-slot net-change pass, which reasons about *slots* and
        # assumes one net intent per fact.
        coalesced = deltas = self._coalesce(key, window)
        self.cluster.stats.netdeltas_coalesced += len(window) - len(deltas)
        suppressed: List[NetDelta] = []
        if self.config.buffer_interval:
            deltas = self._net_change(key, deltas, suppressed)
        observer = self.observer
        if observer is not None and observer.traced:
            # Every traced delta the window drops ends its propagation
            # with a net span at the sender.
            observer.netted(_dropped(window, coalesced, suppressed), src)
        if not deltas:
            return
        if self.config.share_delay and self.config.share_specs:
            for message_deltas, shared in self._share_groups(deltas):
                self._transmit(src, dst, message_deltas, shared)
        else:
            # One batch message; per-delta headers still paid.
            self._transmit(src, dst, deltas)

    def _coalesce(self, key: Tuple[str, str],
                  window: List[NetDelta]) -> Sequence[NetDelta]:
        return coalesce(window)

    def _net_change(
        self, key: Tuple[str, str], deltas: Sequence[NetDelta],
        suppressed: List[NetDelta],
    ) -> List[NetDelta]:
        """Collapse a coalesced window to one delta per primary-key
        slot, keyed by the deployed table's own key function: the
        receiver only needs the final state ("a node buffers up new
        paths ... and then propagates the new shortest paths
        periodically").  What it drops is appended to ``suppressed``:
        versions a later one of their slot superseded, unchanged
        re-advertisements, and retractions of slots never advertised."""
        advertised = self._advertised.setdefault(key, {})
        key_of = self.cluster.key_of
        final: Dict[Tuple, NetDelta] = {}
        for delta in deltas:
            pred = delta.pred
            final[pred, key_of[pred](delta.args)] = delta
        if len(final) != len(deltas):
            kept = set(map(id, final.values()))
            suppressed.extend(
                [delta for delta in deltas if id(delta) not in kept])
        out: List[NetDelta] = []
        for slot, delta in final.items():
            last = advertised.get(slot)
            if delta.weight > 0:
                if last == delta.args:  # the receiver has exactly this
                    suppressed.append(delta)
                    continue
                advertised[slot] = delta.args
                out.append(delta)
            elif last is None:
                suppressed.append(delta)  # nothing to retract
            else:
                del advertised[slot]
                out.append(NetDelta(delta.pred, last, -1, delta.trace))
        return out

    def _share_groups(self, deltas: Sequence[NetDelta]):
        """Group buffered deltas by share key; each group becomes one
        message whose common attributes are charged once."""
        groups: Dict[object, List[NetDelta]] = {}
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

    def _send(self, channel, message: Message, clock=None) -> None:
        stats = self.cluster.stats
        stats.netdeltas_shipped += len(message.deltas)
        stats.record(self.cluster.clock.now, message.src, message.size)
        observer = self.observer
        if observer is not None and observer.traced:
            observer.ship(message)
        channel.transmit(clock or self.cluster.clock, message,
                         self.cluster.deliver)

    def on_arrival(self, message: Message) -> Iterable[Message]:
        """Arrival filter hook: the raw transport delivers every
        message as-is (the reliable transport below dedups, reorders,
        and strips pure acks here)."""
        return (message,)


class ReliableTransport(Transport):
    """Ack/retransmit delivery and link liveness over the same channels.

    Protocol state lives in :mod:`repro.net.reliable`; this class wires
    it to the cluster: stamping outbound messages, arming the
    per-direction retransmit and delayed-ack timers and each endpoint's
    daemon tick on the node's clock, filtering arriving messages back
    into the FIFO exactly-once stream the engine assumes, and turning a
    peer silent for a lifetime into a link teardown
    (``cluster.fail_link``) and its next frame into a restore
    (``cluster.restore_link``).
    """

    def __init__(self, cluster, config: RuntimeConfig):
        super().__init__(cluster, config)
        self.flows = FlowTable()
        # Decorrelates retransmit timers; seeded apart from the flush
        # jitter stream so enabling reliability does not perturb it.
        self._rto_jitter = random.Random(7331)
        #: Links reset since their last window flush: that window is
        #: not coalesced, so a retraction of what an older epoch shipped
        #: cannot cancel the re-advertisement behind it (the receiver
        #: drops the retraction instead, see ``NodeRuntime.receive``).
        self._cut: Set[Tuple[str, str]] = set()
        #: Pure acks travel on daemon timers: a frame without data in
        #: flight holds no run open (heartbeats would, forever).
        self._idle_clock = DaemonView(cluster.clock)

    def _flow(self, src: str, dst: str) -> Flow:
        flow = self.flows.get(src, dst)
        if flow is None:
            channel = self.cluster.channel(src, dst)
            latency = getattr(channel, "latency", 0.0) if channel else 0.0
            flow = self.flows.add(src, dst, latency, self.cluster.clock.now)
            self._arm_tick(flow)
        return flow

    def _down_until(self, node: str):
        chaos = self.cluster.chaos
        return None if chaos is None else chaos.down_until(node)

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
        reverse = self._flow(dst, src)  # holds src's view of the pair
        if not reverse.live:
            # ``src`` let the link expire: its link facts are gone, and
            # stragglers from in-queue work are dropped.
            self.cluster.stats.dropped_no_link += 1
            return
        flow = self._flow(src, dst)
        for message in messages(src, dst, deltas, shared_bytes,
                                ack=reverse.cursor):
            message.epoch = reverse.epoch
            message.seq = flow.stamp(message)
            reverse.ack_owed = False  # piggybacked on this send
            self._send(channel, message)
        flow.sent = True
        if flow.timer is None:
            self._arm_retransmit(flow)

    def _arm_retransmit(self, flow: Flow) -> None:
        delay = flow.rto * self._rto_jitter.uniform(1.0, 1.5)
        # The sender's own clock: a skewed node retransmits on its
        # drifted schedule, exactly like a real host with a bad clock.
        flow.timer = self.cluster.clock_for(flow.src).after(
            delay, lambda: self._on_timeout(flow)
        )

    def _on_timeout(self, flow: Flow) -> None:
        flow.timer = None
        if not flow.unacked:
            return
        resume = self._down_until(flow.src)
        if resume is not None:
            # The *sender* is crashed: a dead host neither retransmits
            # nor concludes anything about its peers.  Park the timer
            # until the restart; with no restart the flow is abandoned
            # (the survivors' links expire from their side).
            if resume != float("inf"):
                clock = self.cluster.clock_for(flow.src)
                flow.timer = clock.after(
                    max(0.0, resume - clock.now) + flow.rto,
                    lambda: self._on_timeout(flow),
                )
            return
        message = flow.oldest_unacked()
        channel = self.cluster.channel(flow.src, flow.dst)
        if channel is None:  # link removed under us
            flow.unacked.clear()
            return
        flow.backoff()
        self.cluster.stats.retransmits += 1
        if self.observer is not None:
            self.observer.retransmit(flow.src, flow.dst)
        flow.sent = True
        self._send(channel, message)
        self._arm_retransmit(flow)

    # -- liveness -------------------------------------------------------
    def _arm_tick(self, flow: Flow) -> None:
        self.cluster.clock_for(flow.dst).daemon(
            HEARTBEAT, lambda: self._tick(flow))

    def _tick(self, flow: Flow) -> None:
        """``flow.dst``'s periodic look at its link to ``flow.src``: a
        peer silent for a lifetime expires the link, and a direction
        that sent nothing since the last tick heartbeats."""
        self._arm_tick(flow)
        node, peer = flow.dst, flow.src
        if self._down_until(node) is not None:
            return  # a crashed host neither heartbeats nor concludes
        if flow.live and \
                self.cluster.clock.now - flow.heard > LINK_LIFETIME:
            self._expire(flow)
        out = self._flow(node, peer)
        if not out.sent:
            self._send_ack(flow)
        out.sent = False

    def _expire(self, flow: Flow) -> None:
        """``flow.dst`` gives its link to ``flow.src`` up: a new epoch,
        a fresh sequence space, and the link facts torn down."""
        flow.live = False
        flow.epoch += 1
        self._reset(flow)
        self.cluster.fail_link(flow.dst, flow.src)

    def _resync(self, flow: Flow, epoch: int) -> bool:
        """Bring ``flow.dst``'s view of the pair up to a frame of
        ``epoch``; returns whether the frame belongs to the current
        epoch (an older epoch's frame is a sign of life, nothing
        more)."""
        node, peer = flow.dst, flow.src
        if epoch > flow.epoch:
            # The peer reset the pair: reset too, so both ends start
            # the epoch from nothing.
            if flow.live:
                flow.live = False
                self.cluster.fail_link(node, peer)
            flow.epoch = epoch
            self._reset(flow)
        if not flow.live:
            flow.live = True
            self.cluster.restore_link(node, peer)
        return epoch == flow.epoch

    def _reset(self, flow: Flow) -> None:
        """Start ``flow.dst``'s end of the pair afresh: its sending
        direction, this receiving one, and the link's window state."""
        key = (flow.dst, flow.src)
        self._flow(*key).reset_sender()
        flow.reset_receiver()
        self._advertised.pop(key, None)
        window = self._buffers.get(key)
        if window is not None:
            window.clear()
        self._cut.add(key)

    def _coalesce(self, key: Tuple[str, str],
                  window: List[NetDelta]) -> Sequence[NetDelta]:
        if key in self._cut:
            self._cut.discard(key)
            return window
        return coalesce(window)

    # -- receiver side --------------------------------------------------
    def on_arrival(self, message: Message) -> Iterable[Message]:
        flow = self._flow(message.src, message.dst)
        flow.heard = self.cluster.clock.now
        if (message.epoch != flow.epoch or not flow.live) and \
                not self._resync(flow, message.epoch):
            return ()
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
                ACK_DELAY, lambda: self._flush_ack(flow)
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
                    max(0.0, resume - clock.now) + ACK_DELAY,
                    lambda: self._flush_ack(flow),
                )
            return
        self._send_ack(flow)

    def _send_ack(self, flow: Flow) -> None:
        """A pure ack ``flow.dst -> flow.src``: a delayed ack, or a
        heartbeat."""
        channel = self.cluster.channel(flow.dst, flow.src)
        if channel is None:
            return
        flow.ack_owed = False
        self._flow(flow.dst, flow.src).sent = True
        ack = Message(src=flow.dst, dst=flow.src, deltas=(),
                      ack=flow.cursor, epoch=flow.epoch)
        self.cluster.stats.acks_sent += 1
        self._send(channel, ack, self._idle_clock)
