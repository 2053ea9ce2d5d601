"""Runtime configuration for distributed NDlog execution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.net.link import DEFAULT_BANDWIDTH_BPS

if TYPE_CHECKING:  # import cycle: chaos wraps runtime clusters
    from repro.chaos.schedule import ChaosSchedule


@dataclass(frozen=True)
class ShareSpec:
    """Opportunistic-sharing description for one relation (Section 5.2).

    Tuples of relations that share ``base`` and agree on every position
    not listed in ``value_positions`` are joined into one message.
    """

    base: str
    value_positions: Tuple[int, ...]


@dataclass
class RuntimeConfig:
    """Knobs for a cluster run.  Defaults mirror Section 6.1."""

    #: CPU time charged per delta processed at a node.  1 ms/tuple puts
    #: convergence times in the same few-second regime as the paper's
    #: P2 deployment.
    cpu_delay: float = 1e-3
    #: Deltas a node may consume per simulator event.  ``cpu_delay`` is
    #: still charged per delta (a tick that consumes k deltas keeps the
    #: node booked for k * cpu_delay of virtual CPU), so throughput and
    #: node serialization match the one-delta-per-event schedule; the
    #: deltas of one batch commit at the batch's start rather than
    #: spread across it, so individual commit/ship times may shift
    #: earlier by up to (k - 1) * cpu_delay.  Batching cuts the
    #: host-side cost of the simulation -- one heap event and one
    #: engine chunk per k deltas -- and lets the engine net and
    #: run-batch bursts (:mod:`repro.engine.psn`).  It also bounds how
    #: many deltas share a message: a chunk's remote heads leave as one
    #: run per neighbour (:mod:`repro.runtime.transport`).  1 gives the
    #: one-delta-per-event schedule, but not byte for byte the
    #: historical wire: one delta's strands can still put two heads for
    #: one neighbour in one message.
    cpu_batch: int = 16
    #: Link capacity (10 Mbps in the paper's Emulab setup).
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    #: Buffer outbound tuples and flush every ``buffer_interval`` seconds
    #: with net-change elimination: the periodic aggregate-selections
    #: scheme (Section 5.1.1 / Figures 9-10).
    buffer_interval: Optional[float] = None
    #: Buffer outbound tuples for ``share_delay`` seconds and merge those
    #: with common attributes: opportunistic message sharing (Section
    #: 5.2 / Figure 12).
    share_delay: Optional[float] = None
    #: Relation -> sharing description (required when share_delay set).
    share_specs: Dict[str, ShareSpec] = field(default_factory=dict)
    #: Query-result caching (Section 5.2 / Figure 11) for the
    #: multi-query magic program after ``aggsel``
    #: (:data:`repro.runtime.node.CACHE_QUERY_PRED`).
    cache: bool = False
    #: Ship deltas over the ack/retransmit reliable transport
    #: (:mod:`repro.net.reliable`): restores the FIFO + exactly-once
    #: delivery of Theorem 4 on lossy/reordering links, and holds each
    #: link live only while its peer shows signs of life.
    reliable: bool = False
    #: Fault-injection plan (:class:`repro.chaos.ChaosSchedule`), or
    #: ``None`` for a fault-free run.
    chaos: Optional["ChaosSchedule"] = None
    #: Collect the per-(node, rule, relation) metrics registry
    #: (:mod:`repro.obs`): ``Deployment.metrics()`` snapshots and the
    #: Prometheus text exposition.
    metrics: bool = False
    #: Record delta-propagation traces: a trace id minted per injected
    #: base fact, spans for derive/net/ship/receive/commit, exported as
    #: Chrome trace-event JSON via ``Deployment.save_trace``.
    trace: bool = False
    #: Accumulate per-rule/per-strand CPU time
    #: (``Deployment.profile()``).
    profile: bool = False
