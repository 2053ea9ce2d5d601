"""Messages and the on-wire size model.

The paper's primary communication metric is bytes transferred (aggregate
MB and per-node kBps).  We charge each tuple a header plus a simple
per-field encoding; the absolute constants are unimportant for shape
reproduction, but path vectors must grow with hop count (longer paths
cost more to ship), which this model captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

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
    (no call, no ``isinstance`` chain per element) -- a plain tuple
    field (a path vector) too: its elements are walked in this loop,
    not in a nested call.  Bool, subclasses, ConstructedTuple and
    whatever a path vector nests go through :func:`value_size`, the
    definition."""
    total = 0
    for value in values:
        kind = type(value)
        if kind is str:
            size = len(value)
            total += size if size > 4 else 4
        elif kind is tuple:
            total += 4
            for item in value:
                kind = type(item)
                if kind is str:
                    size = len(item)
                    total += size if size > 4 else 4
                elif kind is float or kind is int:
                    total += 8
                else:
                    total += value_size(item)
        elif kind is float or kind is int:
            total += 8
        else:
            total += value_size(value)
    return total


def tuple_size(pred: str, args: Tuple) -> int:
    """Size of one tuple payload (without the message header)."""
    return len(pred) + _fields_size(args)


@dataclass(slots=True, unsafe_hash=True)
class NetDelta:
    """One weighted tuple (a Z-set entry) as shipped over a link:
    ``weight`` derivations of ``(pred, args)`` asserted (``> 0``) or
    withdrawn (``< 0``).  The historical unit deltas are the ``+-1``
    special case, and :attr:`sign` keeps the direction-only view for
    call sites that branch on it.

    A slotted record, as cheap to build as a plain tuple: every remote
    head a node emits is one.  Its fields must not change once it is
    built (equality and hash are on ``(pred, args, weight)``); only the
    cached payload size is written later.

    ``trace`` is the delta-propagation trace id (:mod:`repro.obs`),
    piggybacked so a trace's causal spans continue across the wire.  It
    is observability metadata: excluded from equality and from the byte
    model (the paper's communication metric predates it).  No
    provenance rides along: a deployment shares one provenance store
    across its nodes, and that store already links a materialization
    to the firing at the sender."""

    pred: str
    args: Tuple
    weight: int
    trace: Optional[int] = field(default=None, compare=False)
    _size: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def sign(self) -> int:
        return 1 if self.weight > 0 else -1

    def payload_size(self) -> int:
        # Cached in a slot (0 until first read): the size walk recurses
        # through the whole path vector -- a top cost of the simulation
        # when recomputed per read (every message is sized at least
        # twice: once for the traffic stats, once for the link model).
        size = self._size
        if not size:
            size = self._size = (DELTA_HEADER_BYTES
                                 + tuple_size(self.pred, self.args))
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
    a pure ack has ``ack`` set, ``seq`` ``None`` and no deltas.
    ``epoch`` counts the sender's resets of the link (a frame from a
    newer epoch makes the receiver reset too).  Like trace ids they
    ride outside the byte model -- the paper's
    communication metric is the protocol payload, and the few bytes of
    transport framing are already covered by ``HEADER_BYTES``.
    """

    src: str
    dst: str
    deltas: Tuple[NetDelta, ...]
    shared_bytes: int = 0
    seq: Optional[int] = None
    ack: Optional[int] = None
    epoch: int = 0
    _size: int = field(default=0, repr=False, compare=False)

    @property
    def size(self) -> int:
        size = self._size
        if size:
            return size
        # Shared fields charged once; each member pays only its distinct
        # remainder (its whole payload when nothing is shared).  One
        # pass sizes every delta not sized yet, into its ``_size`` slot
        # (:meth:`NetDelta.payload_size`).
        shared = self.shared_bytes
        size = HEADER_BYTES + shared
        for delta in self.deltas:
            own = delta._size
            if not own:
                own = delta._size = (DELTA_HEADER_BYTES + len(delta.pred)
                                     + _fields_size(delta.args))
            if own > shared:
                size += own - shared
        self._size = size
        return size


def coalesce(deltas: Iterable[NetDelta]) -> Tuple[NetDelta, ...]:
    """Net a window of deltas by Z-set addition: same-``(pred, args)``
    entries merge into one carrying the summed weight (first-seen
    order, zero sums dropped, latest non-``None`` trace id kept).  A
    delta that merged with nothing passes through as the same object;
    only a merged entry is rebuilt.  A buffered transport applies it
    once per window flush, so a link flap buffered within one flush
    interval ships nothing at all."""
    net: Dict[Tuple[str, Tuple], NetDelta] = {}
    for delta in deltas:
        key = (delta.pred, delta.args)
        entry = net.get(key)
        if entry is None:
            net[key] = delta
        else:
            trace = delta.trace
            net[key] = NetDelta(
                entry.pred, entry.args, entry.weight + delta.weight,
                entry.trace if trace is None else trace)
    return tuple([delta for delta in net.values() if delta.weight])


def single(src: str, dst: str, pred: str, args: Tuple, weight: int) -> Message:
    return Message(src=src, dst=dst, deltas=(NetDelta(pred, args, weight),))
