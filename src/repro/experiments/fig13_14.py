"""Figures 13 and 14: incremental query evaluation under bursty updates
(Sections 4 and 6.5).

"Each update burst involves randomly selecting 10% of all links, and
then updating the cost metric by up to 10%.  We use the shortest-path
random metric since it is the most demanding."

Figure 13 applies a burst every 10 seconds.  The paper's claims:

* re-convergence after each burst completes well before the next burst
  (the bandwidth spikes die out between bursts);
* each burst's traffic peaks at a small fraction of the from-scratch
  computation (32% of the peak, 26% of the aggregate in the paper).

Figure 14 interleaves 2 s and 8 s intervals, the former shorter than
the from-scratch convergence time: bursts sometimes arrive faster than
queries can run, yet peak usage stays at the incremental level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import api
from repro.experiments.common import (
    Scale,
    current_scale,
    default_overlay,
    format_series,
    format_table,
)
from repro.ndlog import programs
from repro.runtime import LinkUpdateDriver, RuntimeConfig
from repro.topology import Overlay


@dataclass
class DynamicRunResult:
    label: str
    initial_peak_kbps: float
    initial_mb: float
    burst_peak_kbps: float
    mean_burst_mb: float
    burst_times: List[float]
    bandwidth_series: List[Tuple[float, float]] = field(default_factory=list)
    consistent: bool = True

    @property
    def peak_fraction(self) -> float:
        return (self.burst_peak_kbps / self.initial_peak_kbps
                if self.initial_peak_kbps else 0.0)

    @property
    def aggregate_fraction(self) -> float:
        return self.mean_burst_mb / self.initial_mb if self.initial_mb else 0.0

    def report(self) -> str:
        return "\n".join(
            [
                f"{self.label}:",
                format_table(
                    ("initial peak kBps", "burst peak kBps", "peak %",
                     "initial MB", "mean burst MB", "aggregate %",
                     "eventually consistent"),
                    [(
                        f"{self.initial_peak_kbps:.1f}",
                        f"{self.burst_peak_kbps:.1f}",
                        f"{100 * self.peak_fraction:.0f}%",
                        f"{self.initial_mb:.2f}",
                        f"{self.mean_burst_mb:.2f}",
                        f"{100 * self.aggregate_fraction:.0f}%",
                        self.consistent,
                    )],
                ),
                "[kBps] " + format_series(self.bandwidth_series,
                                          max_points=20),
            ]
        )

    def check_shape(self) -> None:
        # Incremental maintenance is much cheaper than recomputation
        # (paper: 32% of peak, 26% of aggregate).
        assert self.burst_peak_kbps < self.initial_peak_kbps
        assert self.mean_burst_mb < 0.6 * self.initial_mb
        assert self.consistent


def _run_dynamic(
    overlay: Overlay,
    label: str,
    burst_times: Sequence[float],
    horizon: float,
    seed: int,
) -> DynamicRunResult:
    # The protocol form: path keyed on (src, dst, nexthop) holds each
    # neighbour's latest advertisement, and aggregate selections make
    # the advertised tuple the neighbour's best -- the combination that
    # is confluent under updates (Theorem 4; see DESIGN.md).
    #
    # Advertisements are coalesced in a short per-link window
    # (net-change elimination), the routing-protocol practice of spacing
    # triggered updates: a retraction immediately superseded by a
    # replacement advert never hits the wire.  The from-scratch phase of
    # the run uses the same configuration, so the burst-vs-initial
    # comparison is like for like.
    deployment = api.compile(
        programs.shortest_path_dynamic(), passes=["aggsel", "localize"]
    ).deploy(
        topology=overlay,
        config=RuntimeConfig(buffer_interval=0.2),
        link_loads={"link": "random"},
    )
    driver = LinkUpdateDriver(deployment, metric="random", seed=seed)
    driver.schedule_bursts(burst_times)
    deployment.advance(until=horizon)
    deployment.advance()  # drain whatever is still in flight after the horizon

    node_count = len(overlay.nodes)
    stats = deployment.stats
    series = stats.per_node_kbps_series(node_count)
    first_burst = burst_times[0]
    initial_peak = max((v for t, v in series if t <= first_burst),
                       default=0.0)
    burst_peak = max((v for t, v in series if t > first_burst),
                     default=0.0)
    initial_mb = stats.bytes_between(0.0, first_burst) / 1e6
    burst_bytes = stats.bytes_between(first_burst, float("inf"))
    mean_burst_mb = burst_bytes / len(burst_times) / 1e6

    consistent = _check_consistency(deployment, driver)
    return DynamicRunResult(
        label=label,
        initial_peak_kbps=initial_peak,
        initial_mb=initial_mb,
        burst_peak_kbps=burst_peak,
        mean_burst_mb=mean_burst_mb,
        burst_times=list(burst_times),
        bandwidth_series=series,
        consistent=consistent,
    )


def _check_consistency(cluster, driver: LinkUpdateDriver) -> bool:
    """Theorem 4: the quiesced state equals a from-scratch run on the
    final link costs (compared on shortest-path costs per pair)."""
    import heapq

    adjacency = {}
    for (a, b), cost in driver.costs.items():
        adjacency.setdefault(a, []).append((b, cost))
        adjacency.setdefault(b, []).append((a, cost))
    got = {}
    for s, d, _p, c in cluster.rows("shortestPath"):
        key = (s, d)
        if key[0] != key[1]:
            got[key] = min(c, got.get(key, float("inf")))
    for source in cluster.overlay.nodes:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            dd, node = heapq.heappop(heap)
            if dd > dist.get(node, float("inf")):
                continue
            for nxt, w in adjacency.get(node, ()):
                nd = dd + w
                if nd < dist.get(nxt, float("inf")):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
        for target, want in dist.items():
            if target == source:
                continue
            if abs(got.get((source, target), float("inf")) - want) > 1e-6:
                return False
    return True


def run_fig13(
    overlay: Optional[Overlay] = None,
    scale: Optional[Scale] = None,
) -> DynamicRunResult:
    scale = scale or current_scale()
    overlay = overlay or default_overlay(scale)
    interval = scale.burst_interval
    times = [interval * (i + 1) for i in range(scale.burst_count)]
    horizon = times[-1] + interval
    return _run_dynamic(
        overlay, "Figure 13: periodic bursts (10s interval)",
        times, horizon, seed=scale.seed + 31,
    )


def run_fig14(
    overlay: Optional[Overlay] = None,
    scale: Optional[Scale] = None,
) -> DynamicRunResult:
    scale = scale or current_scale()
    overlay = overlay or default_overlay(scale)
    # Interleave 2s and 8s intervals, the former shorter than the
    # from-scratch convergence time.
    times = []
    time = scale.burst_interval
    for index in range(scale.burst_count * 2):
        times.append(time)
        time += 2.0 if index % 2 == 0 else 8.0
    horizon = times[-1] + scale.burst_interval
    return _run_dynamic(
        overlay, "Figure 14: interleaved bursts (2s / 8s)",
        times, horizon, seed=scale.seed + 32,
    )


if __name__ == "__main__":
    fig13 = run_fig13()
    print(fig13.report())
    fig13.check_shape()
    fig14 = run_fig14()
    print(fig14.report())
    fig14.check_shape()
