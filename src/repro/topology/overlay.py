"""Overlay networks over a transit-stub underlay.

Section 6.1: "We construct an overlay network over the base GT-ITM
topology where each node is assigned to one of the stub nodes ... and
picks four randomly selected neighbors.  Each node has four link tuples,
one for each neighbor.  Each link tuple has metrics that include latency
(based on the underlying GT-ITM topology), reliability (link loss
correlated with latency), and a randomly generated value."

Links are bidirectional (Section 2.1's constraint), so a node that was
*picked* by others may end up with more than four link tuples -- exactly
as in P2, where the neighbor sets are unioned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import NetworkError
from repro.topology.transit_stub import Underlay, transit_stub

#: The four link metrics benchmarked in Section 6 (graph labels).
METRICS = ("hopcount", "latency", "reliability", "random")


@dataclass
class Overlay:
    nodes: List[str]
    host: Dict[str, str]                      # overlay node -> stub node
    links: Dict[Tuple[str, str], Dict[str, float]]  # undirected, a<b keyed

    def neighbors(self, node: str) -> List[str]:
        out = []
        for a, b in self.links:
            if a == node:
                out.append(b)
            elif b == node:
                out.append(a)
        return out

    def degree(self, node: str) -> int:
        return len(self.neighbors(node))

    def adjacency(self) -> Dict[str, List[str]]:
        adj: Dict[str, List[str]] = {n: [] for n in self.nodes}
        for a, b in self.links:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def link_metrics(self, a: str, b: str) -> Dict[str, float]:
        key = (a, b) if a <= b else (b, a)
        try:
            return self.links[key]
        except KeyError:
            raise NetworkError(f"no overlay link {a}-{b}") from None

    def link_rows(self, metric: str) -> List[Tuple[str, str, float]]:
        """``link(@src, @dst, cost)`` rows, both directions."""
        if metric not in METRICS:
            raise NetworkError(f"unknown metric {metric!r}")
        rows = []
        for (a, b), metrics in sorted(self.links.items()):
            cost = metrics[metric]
            rows.append((a, b, cost))
            rows.append((b, a, cost))
        return rows

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        adj = self.adjacency()
        seen = {self.nodes[0]}
        frontier = [self.nodes[0]]
        while frontier:
            node = frontier.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(self.nodes)


def build_overlay(
    underlay: Underlay = None,
    n_nodes: int = 100,
    degree: int = 4,
    seed: int = 0,
    max_attempts: int = 50,
) -> Overlay:
    """Build a connected overlay: ``n_nodes`` overlay nodes hosted on
    random stub nodes, each picking ``degree`` random neighbors."""
    if degree < 0:
        raise NetworkError(
            f"build_overlay: degree must be at least 0, got {degree!r}")
    if underlay is None:
        underlay = transit_stub(seed=seed)
    if n_nodes > 0 and not underlay.stub_nodes:
        raise NetworkError("build_overlay: underlay has no stub nodes to host"
                           " overlay nodes")
    rng = random.Random(seed * 7919 + 13)
    # Host -> latency map, one Dijkstra per host over one adjacency,
    # kept across attempts (a retry re-picks hosts, not the underlay).
    adj = underlay.adjacency()
    latencies: Dict[str, Dict[str, float]] = {}
    for attempt in range(max_attempts):
        overlay = _try_build(underlay, n_nodes, degree, rng, adj, latencies)
        if overlay.is_connected():
            return overlay
    raise NetworkError(
        f"could not build a connected overlay in {max_attempts} attempts"
    )


def _try_build(
    underlay: Underlay, n_nodes: int, degree: int, rng: random.Random,
    adj: Dict[str, List[Tuple[str, float]]],
    latencies: Dict[str, Dict[str, float]],
) -> Overlay:
    names = [f"n{i}" for i in range(n_nodes)]
    host = {name: rng.choice(underlay.stub_nodes) for name in names}

    pairs = set()
    for name in names:
        candidates = [other for other in names if other != name]
        for neighbor in rng.sample(candidates, min(degree, len(candidates))):
            pairs.add((name, neighbor) if name <= neighbor else (neighbor, name))

    links: Dict[Tuple[str, str], Dict[str, float]] = {}
    for a, b in sorted(pairs):
        host_a, host_b = host[a], host[b]
        from_a = latencies.get(host_a)
        if from_a is None:
            from_a = latencies[host_a] = underlay.latencies_from(host_a, adj)
        latency_s = from_a.get(host_b)
        if latency_s is None:
            raise NetworkError(f"underlay not connected: {host_a} {host_b}")
        latency_ms = max(1.0, round(latency_s * 1000.0, 3))
        links[(a, b)] = {
            "hopcount": 1,
            "latency": latency_ms,
            # Loss correlated with latency; the metric minimized is the
            # (scaled) loss cost, so it correlates with latency too.
            "reliability": round(latency_ms * rng.uniform(0.8, 1.2), 3),
            "random": rng.randint(1, 100),
        }
    return Overlay(nodes=names, host=host, links=links)
