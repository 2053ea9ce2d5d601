"""Reliable delivery over unreliable links: the protocol state.

One :class:`Flow` per ordered node pair carries both ends' state for
that direction of the conversation -- sender-side sequence numbering,
unacked buffer, and retransmit timer live at ``src``; receiver-side
cumulative cursor, out-of-order reassembly buffer, and delayed-ack
state live at ``dst``.  (The runtime hosts every node in one process,
so co-locating the two ends in one record is bookkeeping, not a
protocol shortcut: nothing crosses the pair except the messages and
acks themselves.)

Design points, all in service of restoring the delivery contract the
paper's theorems assume (per-link FIFO, no loss, no duplication --
Section 4.2 / Theorem 4) on top of a channel that guarantees none of it:

* **Cumulative acks, piggybacked.**  Every data message carries the
  highest in-order sequence received on the reverse direction; a
  direction with no reverse traffic flushes a pure ack after
  :data:`ACK_DELAY` (one ack then covers a whole burst).
* **One retransmit timer per direction**, covering the oldest unacked
  message -- TCP's discipline.  Because the receiver reassembles out of
  order, retransmitting the oldest gap makes the cumulative ack jump
  past everything buffered behind it.
* **Exponential backoff with jitter.**  Consecutive timeouts without
  ack progress multiply the RTO by :data:`RTO_BACKOFF`, up to
  :data:`RTO_MAX` (decorrelated by a seeded jitter factor).
  Retransmission recovers loss; it does not decide liveness.
* **Receive-side dedup + in-order release.**  Duplicates (chaos or
  retransmit races) re-ack and drop; gaps buffer until the missing
  sequence arrives, then release in order -- so the engine above still
  observes the FIFO stream Theorem 4 requires.
* **Liveness is soft state** (Section 4.2's rule applied to the links
  themselves).  An endpoint holds its link live while some frame from
  the peer -- data, pure ack or duplicate -- arrived within
  :data:`LINK_LIFETIME`.  Each endpoint ticks every :data:`HEARTBEAT`,
  and a direction that sent nothing since its last tick sends a pure
  ack as a heartbeat, so a live peer sends at least ``HEARTBEATS / 2``
  frames in any lifetime, and a false expiry needs them all lost
  (0.2 ** 8 ~ 2.6e-6 at 20% loss, for each of the many overlapping
  lifetimes of a run).  Expiry tears the link down through the link-update path
  (:meth:`repro.runtime.cluster.Cluster.fail_link`); the first frame
  after it restores the link.  Each expiry starts a new *epoch* of the
  pair: frames carry the sender's epoch, and a frame from a newer one
  makes the receiver reset and restore too, so both ends agree on every
  reset and no sequence cursor or peer ledger outlives one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.net.message import Message

__all__ = ["ACK_DELAY", "Flow", "FlowTable", "HEARTBEAT", "HEARTBEATS",
           "LINK_LIFETIME", "RTO_BACKOFF", "RTO_MAX", "RTO_MIN"]

#: Retransmit-timer floor and ceiling (seconds) and backoff factor.
RTO_MIN = 0.05
RTO_MAX = 2.0
RTO_BACKOFF = 2.0
#: How long a direction may owe a cumulative ack before flushing a pure
#: ack (reverse traffic inside the window piggybacks it).
ACK_DELAY = 0.02
#: How long an endpoint holds its link live without hearing from the
#: peer (seconds).  Longer than any backoff interval, and than the
#: sub-second crash-and-restart windows the chaos suite survives
#: without a teardown.
LINK_LIFETIME = RTO_MAX
#: Endpoint ticks per lifetime (heartbeat when idle, expire when
#: silent).  At 8, one of 200 ``drop(0.2)`` chaos runs still lost
#: every heartbeat of some lifetime.
HEARTBEATS = 16
HEARTBEAT = LINK_LIFETIME / HEARTBEATS


class Flow:
    """State for one direction ``src -> dst``.  The receiver side also
    holds ``dst``'s view of the pair: when it last heard from ``src``,
    whether it holds the link live, and its epoch."""

    __slots__ = (
        "src", "dst",
        # sender side (at src)
        "next_seq", "unacked", "rto_base", "rto", "timer", "sent",
        # receiver side (at dst)
        "cursor", "ooo", "ack_owed", "ack_timer",
        "heard", "live", "epoch",
    )

    def __init__(self, src: str, dst: str, rto_base: float,
                 now: float = 0.0):
        self.src = src
        self.dst = dst
        self.rto_base = rto_base
        self.timer = None
        self.ack_timer = None
        self.reset_sender()
        self.reset_receiver()
        #: Whether a frame went out since ``src``'s last tick.
        self.sent = False
        #: When the last frame from ``src`` arrived at ``dst``.
        self.heard = now
        self.live = True
        self.epoch = 0

    def reset_sender(self) -> None:
        """A fresh sequence space at ``src``: nothing unacked, no
        retransmit timer, the initial RTO."""
        self.next_seq = 1
        #: seq -> Message, insertion (= sequence) ordered.
        self.unacked: "OrderedDict[int, Message]" = OrderedDict()
        self.rto = self.rto_base
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def reset_receiver(self) -> None:
        """A fresh sequence space at ``dst``: nothing delivered, nothing
        buffered, no ack owed."""
        #: Highest sequence delivered in order (cumulative ack value).
        self.cursor = 0
        #: Out-of-order reassembly buffer: seq -> Message.
        self.ooo: Dict[int, Message] = {}
        self.ack_owed = False
        if self.ack_timer is not None:
            self.ack_timer.cancel()
            self.ack_timer = None

    # -- sender side ----------------------------------------------------
    def stamp(self, message: Message) -> int:
        """Assign the next sequence number and buffer for retransmit."""
        seq = self.next_seq
        self.next_seq += 1
        self.unacked[seq] = message
        return seq

    def oldest_unacked(self) -> Optional[Message]:
        if not self.unacked:
            return None
        return next(iter(self.unacked.values()))

    def absorb_ack(self, ack: int) -> bool:
        """Drop every buffered message the cumulative ``ack`` covers;
        returns whether anything was newly acknowledged (progress
        resets the backoff)."""
        progressed = False
        while self.unacked and next(iter(self.unacked)) <= ack:
            self.unacked.popitem(last=False)
            progressed = True
        if progressed:
            self.rto = self.rto_base
        return progressed

    def backoff(self, factor: float = RTO_BACKOFF,
                cap: float = RTO_MAX) -> None:
        self.rto = min(self.rto * factor, cap)

    # -- receiver side --------------------------------------------------
    def admit(self, seq: int, message: Message) -> \
            "tuple[List[Message], bool, int]":
        """Classify an arriving sequence.  Returns ``(ready, dup,
        healed)``: the messages releasable in order, whether this was a
        duplicate, and how many buffered out-of-order messages the
        arrival released."""
        if seq <= self.cursor or seq in self.ooo:
            return [], True, 0
        if seq != self.cursor + 1:
            self.ooo[seq] = message
            return [], False, 0
        self.cursor = seq
        ready = [message]
        healed = 0
        while self.cursor + 1 in self.ooo:
            self.cursor += 1
            ready.append(self.ooo.pop(self.cursor))
            healed += 1
        return ready, False, healed


class FlowTable:
    """All flows of one cluster, keyed by ordered ``(src, dst)``."""

    def __init__(self):
        self._flows: Dict[tuple, Flow] = {}

    def get(self, src: str, dst: str) -> Optional[Flow]:
        return self._flows.get((src, dst))

    def add(self, src: str, dst: str, latency: float,
            now: float) -> Flow:
        # A sensible initial RTO: two round trips plus the delayed ack,
        # floored at the minimum.
        rto = max(RTO_MIN, 4.0 * latency + 2.0 * ACK_DELAY)
        flow = self._flows[src, dst] = Flow(src, dst, rto, now)
        return flow
