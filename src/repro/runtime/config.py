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


@dataclass(frozen=True)
class CachePolicy:
    """Query-result caching (Section 5.2) for the multi-query magic
    program: positions refer to the ``query_pred``/``answer_pred``
    schemas of :func:`repro.ndlog.programs.multi_query_magic`."""

    query_pred: str = "pathQ"
    dst_position: int = 2
    path_position: int = 3
    cost_position: int = 4
    answer_pred: str = "answer"
    answer_path_position: int = 2
    answer_cost_position: int = 3
    suppress_labels: Tuple[str, ...] = ("MQ2",)


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
    #: Apply the aggregate-selections program rewrite (Section 5.1.1).
    aggregate_selections: bool = False
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
    #: Query-result caching (Section 5.2 / Figure 11).
    cache: Optional[CachePolicy] = None
    #: Per-link message loss probability (soft-state experiments).
    loss_rate: float = 0.0
    #: RNG seed for loss decisions.
    seed: int = 0
    #: Validate the program against NDlog's constraints before compiling.
    validate: bool = True
    #: Ship deltas over the ack/retransmit reliable transport
    #: (:mod:`repro.net.reliable`): restores the FIFO + exactly-once
    #: delivery of Theorem 4 on lossy/reordering links.
    reliable: bool = False
    #: Consecutive unacked retransmits before the convergence watchdog
    #: declares the peer dead and tears the link down.
    retry_budget: int = 6
    #: Retransmit-timer floor/ceiling (seconds) and backoff factor.
    rto_min: float = 0.05
    rto_max: float = 2.0
    rto_backoff: float = 2.0
    #: How long a direction may owe a cumulative ack before flushing a
    #: pure ack (reverse traffic inside the window piggybacks it).
    ack_delay: float = 0.02
    #: Fault-injection plan (:class:`repro.chaos.ChaosSchedule`), or
    #: ``None`` for a fault-free run.
    chaos: Optional["ChaosSchedule"] = None
    #: Collect the per-(node, rule, relation) metrics registry
    #: (:mod:`repro.obs`): ``Deployment.metrics()`` snapshots, the
    #: Prometheus text exposition, and the live StatsCatalog feed.
    metrics: bool = False
    #: Record delta-propagation traces: a trace id minted per injected
    #: base fact, spans for derive/net/ship/receive/commit, exported as
    #: Chrome trace-event JSON via ``Deployment.save_trace``.
    trace: bool = False
    #: Accumulate per-rule/per-strand CPU time
    #: (``Deployment.profile()``).
    profile: bool = False
