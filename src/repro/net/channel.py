"""The channel seam: one link contract for simulated and live delivery.

A :class:`Channel` is one overlay link between two node addresses.  The
base class owns everything both worlds share -- endpoint validation and
the link *emulation model* (store-and-forward bandwidth queueing and
constant propagation latency; messages are lost only to a chaos
``drop`` fault, :mod:`repro.chaos`) -- while subclasses decide how an
arrival actually reaches the destination:

* :class:`~repro.net.link.LinkChannel` -- delivery is a clock timer
  calling straight into the cluster (the simulator substrate, and also
  usable on a wall clock);
* :class:`~repro.net.live.QueueChannel` -- delivery enqueues onto the
  destination node's asyncio inbox, consumed by that node's task;
* :class:`~repro.net.live.UdpChannel` -- delivery is a real UDP
  datagram on localhost; the emulated delay shapes the send time.

Section 4.2 requires that "along any link in the network, there is a
FIFO ordering of messages" (Theorem 4).  The emulation guarantees it
structurally: per-direction departure times are monotone (a shared
transmit queue) and the propagation latency is constant, so deliveries
never reorder.  The asyncio backends preserve it because timers with
nondecreasing deadlines fire in order and UDP on loopback does not
reorder in practice.

That structural guarantee holds only for the pristine channel: a chaos
schedule (:mod:`repro.chaos`) deliberately reorders, duplicates, and
drops messages by wrapping channels in a
:class:`~repro.chaos.ChaosChannel`, and real networks do the same.
When delivery can be faulty, run with ``config.reliable`` -- the
ack/retransmit transport (:mod:`repro.net.reliable`) re-establishes
per-link FIFO exactly-once delivery end to end, which is what Theorem 4
actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.errors import NetworkError
from repro.net.clock import Clock
from repro.net.message import Message

DEFAULT_BANDWIDTH_BPS = 10_000_000  # 10 Mbps, as in Section 6.1


@dataclass
class Channel:
    """One overlay link between two node addresses."""

    a: str
    b: str
    latency: float                       # seconds, one way
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    metrics: Dict[str, float] = field(default_factory=dict)
    _last_departure: Dict[str, float] = field(default_factory=dict)

    def other_end(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise NetworkError(f"{node} is not an endpoint of link {self.a}-{self.b}")

    # ------------------------------------------------------------------
    # Shared emulation model
    # ------------------------------------------------------------------
    def _check_endpoints(self, message: Message) -> None:
        if (
            message.src not in (self.a, self.b)
            or self.other_end(message.src) != message.dst
        ):
            raise NetworkError(
                f"message {message.src}->{message.dst} not on link "
                f"{self.a}-{self.b}"
            )

    def plan(self, clock: Clock, message: Message) -> float:
        """Book ``message`` onto the link: validate endpoints and
        advance this direction's transmit queue.  Returns the arrival
        time."""
        self._check_endpoints(message)
        transmission = message.size * 8.0 / self.bandwidth_bps
        depart = (
            max(clock.now, self._last_departure.get(message.src, 0.0))
            + transmission
        )
        self._last_departure[message.src] = depart
        return depart + self.latency

    # ------------------------------------------------------------------
    # Delivery (per-backend)
    # ------------------------------------------------------------------
    def transmit(
        self,
        clock: Clock,
        message: Message,
        deliver: Callable[[Message], None],
    ) -> float:
        """Queue ``message`` for transmission; returns the arrival
        time."""
        raise NotImplementedError
