"""Traffic accounting: the paper's two communication metrics.

* aggregate communication overhead (MB) -- Figures 11;
* per-node bandwidth over time (kBps) -- Figures 7, 9, 12, 13, 14.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class TrafficStats:
    """Records every sent message as ``(time, bytes)`` per node, plus
    the robustness counters of the reliable transport
    (:mod:`repro.net.reliable`) and the chaos harness
    (:mod:`repro.chaos`)."""

    records: List[Tuple[float, str, int]] = field(default_factory=list)
    dropped_no_link: int = 0
    messages: int = 0
    #: Reliable transport: retransmissions fired / pure acks sent
    #: (delayed acks and heartbeats) / duplicate deliveries discarded /
    #: out-of-order deliveries released in order from the reassembly
    #: buffer.
    retransmits: int = 0
    acks_sent: int = 0
    dup_dropped: int = 0
    reorders_healed: int = 0
    #: Link expiries: an endpoint heard nothing from its peer for a
    #: link lifetime, or followed the peer's reset.
    links_torn_down: int = 0
    #: Receive-path hardening: undecodable frames discarded, and
    #: datagrams that arrived with no send on the books.
    malformed_dropped: int = 0
    stray_datagrams: int = 0
    #: Z-set wire accounting: weighted NetDeltas that actually went on a
    #: link, and buffered deltas that were annihilated (or merged away)
    #: by per-message weight coalescing before the send.
    netdeltas_shipped: int = 0
    netdeltas_coalesced: int = 0
    #: Chaos harness: applied faults by kind.
    faults_injected: Dict[str, int] = field(default_factory=dict)

    def record(self, time: float, node: str, nbytes: int) -> None:
        self.records.append((time, node, nbytes))
        self.messages += 1

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        return sum(nbytes for _t, _n, nbytes in self.records)

    def total_mb(self) -> float:
        return self.total_bytes() / 1e6

    def bytes_by_node(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for _time, node, nbytes in self.records:
            out[node] += nbytes
        return dict(out)

    # ------------------------------------------------------------------
    # Time series
    # ------------------------------------------------------------------
    def per_node_kbps_series(
        self,
        node_count: int,
        bin_seconds: float = 0.25,
        until: float = 0.0,
    ) -> List[Tuple[float, float]]:
        """Average per-node send bandwidth (kB/s) per time bin.

        This is the y-axis of Figures 7, 9, 12, 13 and 14: total bytes
        sent in the bin, divided by the bin length and the node count.
        """
        if not self.records and not until:
            return []
        end = max(until, max((t for t, _n, _b in self.records), default=0.0))
        bins = int(end / bin_seconds) + 1
        totals = [0.0] * bins
        for time, _node, nbytes in self.records:
            totals[min(int(time / bin_seconds), bins - 1)] += nbytes
        return [
            (
                round((index + 1) * bin_seconds, 9),
                totals[index] / bin_seconds / max(1, node_count) / 1e3,
            )
            for index in range(bins)
        ]

    def peak_per_node_kbps(
        self, node_count: int, bin_seconds: float = 0.25
    ) -> float:
        series = self.per_node_kbps_series(node_count, bin_seconds)
        return max((kbps for _t, kbps in series), default=0.0)

    def bytes_between(self, start: float, end: float) -> int:
        return sum(
            nbytes for time, _n, nbytes in self.records if start <= time < end
        )


@dataclass
class ResultTracker:
    """Tracks when each fact of a watched relation reached its final
    value -- the basis of the '% results over time' curves (Figures 8
    and 10) and of convergence time."""

    watch_pred: str
    #: What the commit listener hears: the watched relation alone.
    preds: frozenset = field(init=False, repr=False, compare=False)
    last_insert: Dict[Tuple, float] = field(default_factory=dict)
    #: Weighted visibility totals: a ``+k`` burst (k derivations of one
    #: fact committing together) counts ``k``, and a ``-k`` invalidation
    #: counts ``k`` retracted -- the Z-set analogue of the insert/delete
    #: tallies.  ``retracted_weight`` accumulates positively.
    committed_weight: int = 0
    retracted_weight: int = 0

    def __post_init__(self) -> None:
        self.preds = frozenset((self.watch_pred,))

    def on_commit(self, time: float, fact, weight: int) -> None:
        """A weighted visibility transition for ``fact``: ``weight > 0``
        derivations became visible (a soft-state renewal is not one), or
        ``-weight`` left visibility.  Sign-only callers (the historical
        ``+-1`` contract) flow through unchanged."""
        if fact.pred != self.watch_pred:
            return
        if weight > 0:
            self.committed_weight += weight
            self.last_insert[fact.args] = time
        else:
            self.retracted_weight -= weight
            self.last_insert.pop(fact.args, None)

    def completion_times(self) -> List[float]:
        """Sorted commit times of the surviving (eventual) results."""
        return sorted(self.last_insert.values())

    def convergence_time(self) -> float:
        times = self.completion_times()
        return times[-1] if times else 0.0

    def results_over_time(
        self, points: int = 50
    ) -> List[Tuple[float, float]]:
        """CDF samples ``(time, fraction_of_eventual_results)``."""
        times = self.completion_times()
        if not times:
            return []
        total = len(times)
        end = times[-1]
        samples = []
        for index in range(points + 1):
            # The final sample is pinned to the exact last completion
            # time so the curve always closes at 1.0 (no float rounding).
            t = end if index == points else end * index / points
            done = sum(1 for x in times if x <= t)
            samples.append((round(t, 9), done / total))
        if samples[-1][1] != 1.0:
            samples[-1] = (samples[-1][0], 1.0)
        return samples
