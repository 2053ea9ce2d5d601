"""Live channel backends: asyncio queues and real UDP datagrams.

Two implementations of the :class:`~repro.net.channel.Channel` contract
for the wall-clock deployment target (:mod:`repro.runtime.live`):

* :class:`QueueChannel` -- in-process: an arrival is enqueued onto the
  destination node's asyncio inbox (the default backend; no sockets, so
  it runs anywhere and is the one used for sim-vs-live equivalence
  testing);
* :class:`UdpChannel` -- each node owns a real UDP datagram socket on
  localhost (one :class:`UdpFabric` per cluster manages the
  endpoints); deltas cross an actual kernel network path.

Both reuse the base class's emulation model, so configured latency,
bandwidth queueing, and loss apply to live runs exactly as they do in
simulation -- the emulated delay shapes *when* the delivery (or the
real ``sendto``) happens.

The wire format is JSON with tagged composites: NDlog values are
strings, numbers, bools, nested tuples (path vectors), and
:class:`~repro.ndlog.terms.ConstructedTuple`; tuples encode as
``{"T": [...]}`` and constructed tuples as ``{"C": pred, "v": [...]}``
so decoding round-trips exactly (JSON alone would flatten tuples into
lists and break hashing/joins on the receiving node).
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import NetworkError
from repro.net.channel import Channel
from repro.net.clock import Clock
from repro.net.message import Message, NetDelta
from repro.ndlog.terms import ConstructedTuple

__all__ = [
    "MAX_DATAGRAM_BYTES",
    "QueueChannel",
    "UdpChannel",
    "UdpFabric",
    "encode_message",
    "decode_message",
]

#: Largest UDP payload over IPv4: 65,535 less the IP and UDP headers.
MAX_DATAGRAM_BYTES = 65_507


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
def _encode_value(value):
    if isinstance(value, tuple):
        return {"T": [_encode_value(item) for item in value]}
    if isinstance(value, ConstructedTuple):
        return {"C": value.pred,
                "v": [_encode_value(item) for item in value.values]}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise NetworkError(
        f"cannot encode {type(value).__name__} value for the wire: {value!r}"
    )


def _decode_value(value):
    if isinstance(value, dict):
        if "T" in value:
            return tuple(_decode_value(item) for item in value["T"])
        if "C" in value:
            return ConstructedTuple(
                value["C"], tuple(_decode_value(item) for item in value["v"])
            )
        raise NetworkError(f"unknown wire tag in {value!r}")
    if isinstance(value, list):  # defensive: plain lists decode as tuples
        return tuple(_decode_value(item) for item in value)
    return value


def encode_message(message: Message) -> bytes:
    # Each delta is [pred, weight, args] with optional trailing
    # elements: the provenance tag of the producing derivation and the
    # delta-propagation trace id (each omitted when absent; a trace
    # with no provenance ships an explicit null in the prov slot).
    # Weight occupies the slot the old format used for the sign, and
    # unit deltas encode identically under both readings, so frames
    # from pre-weight senders decode natively (weight = sign).
    deltas = []
    for delta in message.deltas:
        entry = [delta.pred, delta.weight,
                 [_encode_value(arg) for arg in delta.args]]
        if delta.trace is not None:
            entry.append(delta.prov)
            entry.append(delta.trace)
        elif delta.prov is not None:
            entry.append(delta.prov)
        deltas.append(entry)
    frame = {
        "s": message.src,
        "d": message.dst,
        "h": message.shared_bytes,
        "t": deltas,
    }
    # Reliable-transport framing ("q"uence / "a"ck), omitted when the
    # transport is off so the historical wire layout is untouched.
    if message.seq is not None:
        frame["q"] = message.seq
    if message.ack is not None:
        frame["a"] = message.ack
    return json.dumps(frame, separators=(",", ":")).encode("utf-8")


def decode_message(data: bytes) -> Message:
    """Decode one wire frame.

    Hardened: a malformed or truncated datagram raises
    :class:`~repro.errors.NetworkError` (never a bare ``KeyError`` /
    ``JSONDecodeError`` / ``UnicodeDecodeError``), so receive paths can
    absorb garbage with one taxonomy-stable except clause instead of
    dying inside ``datagram_received``.

    Weights: slot 1 of each delta entry is the Z-set weight.  Frames
    from pre-weight senders carried the sign there, which reads
    verbatim as a unit weight, so both formats decode through the same
    path.  A zero or non-integer weight has no Z-set meaning and is
    rejected as malformed (counted in ``malformed_dropped``).
    """
    try:
        raw = json.loads(data.decode("utf-8"))
        deltas = []
        for entry in raw["t"]:
            weight = entry[1]
            if weight == 0 or isinstance(weight, bool) \
                    or not isinstance(weight, int):
                raise NetworkError(
                    f"malformed wire delta weight {weight!r} "
                    f"for {entry[0]!r}"
                )
            deltas.append(NetDelta(
                entry[0],
                tuple(_decode_value(arg) for arg in entry[2]),
                weight,
                entry[3] if len(entry) > 3 else None,
                entry[4] if len(entry) > 4 else None,
            ))
        message = Message(src=raw["s"], dst=raw["d"], deltas=tuple(deltas),
                          shared_bytes=raw["h"],
                          seq=raw.get("q"), ack=raw.get("a"))
    except NetworkError:
        raise  # already taxonomied (unknown wire tag)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError.
        raise NetworkError(
            f"malformed wire datagram ({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(message.src, str) or not isinstance(message.dst, str):
        raise NetworkError(
            f"malformed wire datagram (non-string endpoints "
            f"{message.src!r}->{message.dst!r})"
        )
    return message


# ----------------------------------------------------------------------
# In-process backend
# ----------------------------------------------------------------------
@dataclass
class QueueChannel(Channel):
    """In-process live link: the arrival timer hands the message to
    ``deliver``, which (in :class:`~repro.runtime.live.LiveCluster`)
    enqueues it onto the destination node's asyncio inbox.  Unlike the
    simulator link, scheduling tolerates wall time having moved past
    the computed arrival (the delivery then fires as soon as
    possible)."""

    def transmit(
        self,
        clock: Clock,
        message: Message,
        deliver: Callable[[Message], None],
        rng: Optional[random.Random] = None,
    ) -> float:
        arrive, lost = self.plan(clock, message, rng)
        if not lost:
            # post(): delivery is never cancelled, so skip the handle
            # allocation on the per-message hot path.
            clock.post(max(0.0, arrive - clock.now),
                       lambda: deliver(message))
        return arrive


# ----------------------------------------------------------------------
# UDP backend
# ----------------------------------------------------------------------
class _DatagramHandler(asyncio.DatagramProtocol):
    def __init__(self, fabric: "UdpFabric"):
        self.fabric = fabric

    def datagram_received(self, data: bytes, addr) -> None:
        self.fabric._receive(data)


class UdpFabric:
    """One UDP datagram endpoint per node, all on ``host``.

    The fabric owns socket lifecycle and the in-flight datagram count
    (a real datagram is invisible to the clock's ``pending`` between
    ``sendto`` and ``datagram_received``, so quiescence detection needs
    this counter).  UDP is genuinely unreliable: under a hard burst the
    kernel may drop datagrams even on loopback, so the counter can
    leak.  :meth:`settled` therefore treats datagrams outstanding for
    longer than ``loss_grace`` wall seconds as lost -- on loopback a
    real delivery takes microseconds, so the grace only triggers on
    actual loss (which the soft-state model is built to absorb, exactly
    the trade-off of Section 4.2).
    """

    #: Receive-buffer request per socket: a convergence burst can queue
    #: thousands of datagrams on one node before its tick drains them.
    RCVBUF_BYTES = 1 << 20

    def __init__(self, host: str = "127.0.0.1", loss_grace: float = 0.25):
        self.host = host
        self.loss_grace = loss_grace
        self.addresses: Dict[str, Tuple[str, int]] = {}
        self._transports: Dict[str, asyncio.DatagramTransport] = {}
        self.in_flight = 0
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.malformed_dropped = 0
        self.stray_datagrams = 0
        self.last_activity = time.monotonic()
        self.on_message: Optional[Callable[[Message], None]] = None
        #: Cluster traffic stats to mirror the hardening counters into
        #: (set by the live cluster; optional so the fabric stands
        #: alone in unit tests).
        self.stats = None

    async def bind(self, node: str) -> Tuple[str, int]:
        """Open ``node``'s datagram endpoint on an ephemeral port."""
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, self.RCVBUF_BYTES
            )
            sock.setblocking(False)
            sock.bind((self.host, 0))
        except OSError:
            sock.close()
            raise
        transport, _protocol = await loop.create_datagram_endpoint(
            lambda: _DatagramHandler(self), sock=sock
        )
        address = transport.get_extra_info("sockname")[:2]
        self._transports[node] = transport
        self.addresses[node] = address
        return address

    def sendto(self, src: str, dst: str, data: bytes) -> None:
        transport = self._transports.get(src)
        address = self.addresses.get(dst)
        if transport is None or address is None:
            raise NetworkError(
                f"udp endpoint missing for {src!r}->{dst!r} "
                f"(fabric not fully bound?)"
            )
        self.in_flight += 1
        self.datagrams_sent += 1
        self.last_activity = time.monotonic()
        transport.sendto(data, address)

    def _receive(self, data: bytes) -> None:
        if self.in_flight <= 0:
            # A datagram with no send on the books (duplicated by the
            # stack, or sprayed at our port by a stranger) must not
            # push the counter negative -- that would poison ``settled``
            # into reporting quiescence while real sends are in flight.
            self.stray_datagrams += 1
            if self.stats is not None:
                self.stats.stray_datagrams += 1
        else:
            self.in_flight -= 1
        self.datagrams_received += 1
        self.last_activity = time.monotonic()
        try:
            message = decode_message(data)
        except NetworkError:
            # Garbage on the wire is the network's problem, not the
            # node's: count it and keep the receive path alive.
            self.malformed_dropped += 1
            if self.stats is not None:
                self.stats.malformed_dropped += 1
            return
        if self.on_message is not None:
            self.on_message(message)

    @property
    def settled(self) -> bool:
        """No datagrams believed to still be on the wire: either none
        outstanding, or the outstanding ones have been silent past the
        loss grace (kernel-dropped)."""
        if self.in_flight <= 0:
            return True
        return time.monotonic() - self.last_activity >= self.loss_grace

    def close(self) -> None:
        for transport in self._transports.values():
            transport.close()
        self._transports.clear()


@dataclass
class UdpChannel(Channel):
    """Live link over real UDP datagrams on localhost.

    The emulated transmission+latency delay decides when the datagram
    is handed to the kernel; the loopback path itself adds only its
    (microsecond) real latency on top.  ``deliver`` is unused: the real
    delivery happens in the destination endpoint's
    ``datagram_received``, which routes through the fabric's
    ``on_message`` hook.
    """

    fabric: Optional[UdpFabric] = field(default=None, repr=False)

    def transmit(
        self,
        clock: Clock,
        message: Message,
        deliver: Callable[[Message], None],
        rng: Optional[random.Random] = None,
    ) -> float:
        if self.fabric is None:
            raise NetworkError(
                f"UdpChannel {self.a}-{self.b} has no fabric attached"
            )
        data = encode_message(message)
        if len(data) > MAX_DATAGRAM_BYTES:
            # asyncio drops an oversized datagram without raising:
            # nothing would arrive and ``in_flight`` would leak.
            raise NetworkError(
                f"wire frame {message.src}->{message.dst} is {len(data)} "
                f"bytes ({len(message.deltas)} deltas); a UDP datagram "
                f"carries at most {MAX_DATAGRAM_BYTES}"
            )
        arrive, lost = self.plan(clock, message, rng)
        if not lost:
            clock.post(
                max(0.0, arrive - clock.now),
                lambda: self.fabric.sendto(message.src, message.dst, data),
            )
        return arrive
