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
  ``ack_delay`` (one ack then covers a whole burst).
* **One retransmit timer per direction**, covering the oldest unacked
  message -- TCP's discipline.  Because the receiver reassembles out of
  order, retransmitting the oldest gap makes the cumulative ack jump
  past everything buffered behind it.
* **Exponential backoff with jitter and a retry budget.**  Consecutive
  timeouts without ack progress double the RTO (decorrelated by a
  seeded jitter factor) until the budget exhausts -- at which point the
  peer is declared dead and the convergence watchdog tears the link
  down through the link-update path (see
  :meth:`repro.runtime.cluster.Cluster.fail_link`).
* **Receive-side dedup + in-order release.**  Duplicates (chaos or
  retransmit races) re-ack and drop; gaps buffer until the missing
  sequence arrives, then release in order -- so the engine above still
  observes the FIFO stream Theorem 4 requires.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.net.message import Message

__all__ = ["Flow", "FlowTable"]


class Flow:
    """State for one direction ``src -> dst``."""

    __slots__ = (
        "src", "dst",
        # sender side (at src)
        "next_seq", "unacked", "retries", "rto_base", "rto", "timer",
        "dead",
        # receiver side (at dst)
        "cursor", "ooo", "ack_owed", "ack_timer",
    )

    def __init__(self, src: str, dst: str, rto_base: float):
        self.src = src
        self.dst = dst
        self.next_seq = 1
        #: seq -> Message, insertion (= sequence) ordered.
        self.unacked: "OrderedDict[int, Message]" = OrderedDict()
        self.retries = 0
        self.rto_base = rto_base
        self.rto = rto_base
        self.timer = None
        self.dead = False
        #: Highest sequence delivered in order (cumulative ack value).
        self.cursor = 0
        #: Out-of-order reassembly buffer: seq -> Message.
        self.ooo: Dict[int, Message] = {}
        self.ack_owed = False
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
            self.retries = 0
            self.rto = self.rto_base
        return progressed

    def backoff(self, factor: float, cap: float) -> None:
        self.retries += 1
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

    def cancel_timers(self) -> None:
        for name in ("timer", "ack_timer"):
            handle = getattr(self, name)
            if handle is not None:
                handle.cancel()
                setattr(self, name, None)


class FlowTable:
    """All flows of one cluster, keyed by ordered ``(src, dst)``."""

    def __init__(self, rto_min: float, ack_delay: float):
        self.rto_min = rto_min
        self.ack_delay = ack_delay
        self._flows: Dict[tuple, Flow] = {}

    def get(self, src: str, dst: str,
            latency: float = 0.0) -> Flow:
        key = (src, dst)
        flow = self._flows.get(key)
        if flow is None:
            # A sensible initial RTO: two round trips plus the delayed
            # ack, floored at the configured minimum.
            rto = max(self.rto_min, 4.0 * latency + 2.0 * self.ack_delay)
            flow = Flow(src, dst, rto)
            self._flows[key] = flow
        return flow

    def values(self):
        return self._flows.values()
