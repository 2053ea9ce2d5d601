"""Messages and the on-wire size model.

The paper's primary communication metric is bytes transferred (aggregate
MB and per-node kBps).  We charge each tuple a header plus a simple
per-field encoding; the absolute constants are unimportant for shape
reproduction, but path vectors must grow with hop count (longer paths
cost more to ship), which this model captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ndlog.terms import ConstructedTuple

#: Fixed per-message overhead (transport headers etc.).
HEADER_BYTES = 20
#: Per-delta overhead when several deltas share one message (sharing).
DELTA_HEADER_BYTES = 4


def value_size(value) -> int:
    """Encoded size of one field value, in bytes."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return max(4, len(value))
    if isinstance(value, tuple):
        return 4 + _fields_size(value)
    if isinstance(value, ConstructedTuple):
        return 4 + _fields_size(value.values)
    return 8


def _fields_size(values) -> int:
    """Summed :func:`value_size` of a tuple's fields.  Sizing walks
    every path vector shipped and nearly every field is a plain str,
    tuple or number, so those are sized in place on their exact type
    (no call, no ``isinstance`` chain per element); bool, subclasses and
    ConstructedTuple go through :func:`value_size`, the definition."""
    total = 0
    for value in values:
        kind = type(value)
        if kind is str:
            size = len(value)
            total += size if size > 4 else 4
        elif kind is tuple:
            total += 4 + _fields_size(value)
        elif kind is float or kind is int:
            total += 8
        else:
            total += value_size(value)
    return total


def tuple_size(pred: str, args: Tuple) -> int:
    """Size of one tuple payload (without the message header)."""
    return len(pred) + _fields_size(args)


@dataclass(frozen=True)
class NetDelta:
    """One weighted tuple (a Z-set entry) as shipped over a link:
    ``weight`` derivations of ``(pred, args)`` asserted (``> 0``) or
    withdrawn (``< 0``).  The historical unit deltas are the ``+-1``
    special case, and :attr:`sign` keeps the direction-only view for
    call sites that branch on it.

    ``prov`` is an optional provenance tag: the derivation id (in the
    deployment's shared provenance store) of the rule firing that
    produced this tuple at the sender, piggybacked so the receiving
    node can link its materialization back to the producing derivation.
    ``trace`` is the delta-propagation trace id (:mod:`repro.obs`)
    piggybacked the same way, so a trace's causal spans continue across
    the wire.  Both are observability metadata: excluded from equality
    and from the byte model (the paper's communication metric predates
    them)."""

    pred: str
    args: Tuple
    weight: int
    prov: Optional[int] = field(default=None, compare=False)
    trace: Optional[int] = field(default=None, compare=False)

    @property
    def sign(self) -> int:
        return 1 if self.weight > 0 else -1

    def payload_size(self) -> int:
        # Cached: the fields are frozen, and the size walk recurses
        # through the whole path vector -- a top cost of the simulation
        # when recomputed per read (every message is sized at least
        # twice: once for the traffic stats, once for the link model).
        size = self.__dict__.get("_payload_size")
        if size is None:
            size = DELTA_HEADER_BYTES + tuple_size(self.pred, self.args)
            self.__dict__["_payload_size"] = size
        return size


@dataclass
class Message:
    """A network message: one or more deltas from ``src`` to ``dst``.

    The deltas are a run -- the heads one chunk at ``src`` produced for
    ``dst`` (eager transport), or what a flushed window nets to -- each
    charged its payload behind one message header.  Under the
    opportunistic message sharing of Section 5.2 they are a share
    group, and ``shared_bytes`` (the common fields) are charged once.
    ``deltas`` and ``shared_bytes`` must not be mutated after the first
    ``size`` read (construction sites build messages whole).

    ``seq``/``ack`` are the reliable transport's per-direction sequence
    number and piggybacked cumulative ack (:mod:`repro.net.reliable`);
    a pure ack has ``ack`` set, ``seq`` ``None`` and no deltas.  Like
    provenance tags they ride outside the byte model -- the paper's
    communication metric is the protocol payload, and the few bytes of
    transport framing are already covered by ``HEADER_BYTES``.
    """

    src: str
    dst: str
    deltas: Tuple[NetDelta, ...]
    shared_bytes: int = 0
    seq: Optional[int] = None
    ack: Optional[int] = None
    _size: int = field(default=0, repr=False, compare=False)

    @property
    def size(self) -> int:
        if self._size:
            return self._size
        if self.shared_bytes:
            # Shared fields charged once; each member pays only its
            # distinct remainder plus a small delta header.
            distinct = sum(
                max(0, delta.payload_size() - self.shared_bytes)
                for delta in self.deltas
            )
            size = HEADER_BYTES + self.shared_bytes + distinct
        else:
            size = HEADER_BYTES + sum(d.payload_size() for d in self.deltas)
        self._size = size
        return size


def coalesce(deltas: Iterable[NetDelta]) -> Tuple[NetDelta, ...]:
    """Net a delta stream by Z-set addition: same-``(pred, args)``
    entries merge into one carrying the summed weight (first-seen
    order, zero sums dropped, latest non-``None`` provenance and trace
    tags kept).  Applied per message before send, so a link flap
    buffered within one flush interval ships nothing at all."""
    net: Dict[Tuple[str, Tuple], List] = {}
    order: List[Tuple[str, Tuple]] = []
    for delta in deltas:
        key = (delta.pred, delta.args)
        entry = net.get(key)
        if entry is None:
            net[key] = [delta.weight, delta.prov, delta.trace]
            order.append(key)
        else:
            entry[0] += delta.weight
            if delta.prov is not None:
                entry[1] = delta.prov
            if delta.trace is not None:
                entry[2] = delta.trace
    out: List[NetDelta] = []
    for pred, args in order:
        entry = net[(pred, args)]
        if entry[0] != 0:
            out.append(NetDelta(pred, args, entry[0], entry[1], entry[2]))
    return tuple(out)


def single(src: str, dst: str, pred: str, args: Tuple, weight: int) -> Message:
    return Message(src=src, dst=dst, deltas=(NetDelta(pred, args, weight),))
