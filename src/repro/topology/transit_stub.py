"""GT-ITM-style transit-stub underlay topologies.

Section 6.1 of the paper: "we use transit-stub topologies generated
using GT-ITM ... four transit nodes, eight nodes per stub and three
stubs per transit node.  Latency between transit nodes is 50 ms, latency
between transit nodes and their stub nodes is 10 ms, and latency between
any two nodes in the same stub is 2 ms."

GT-ITM itself is a C package; this module generates graphs with the same
structural parameters and latency classes (see DESIGN.md substitutions).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NetworkError


@dataclass
class Underlay:
    """An undirected latency-weighted graph."""

    nodes: List[str] = field(default_factory=list)
    edges: Dict[Tuple[str, str], float] = field(default_factory=dict)
    stub_nodes: List[str] = field(default_factory=list)
    transit_nodes: List[str] = field(default_factory=list)

    def add_edge(self, a: str, b: str, latency: float) -> None:
        key = (a, b) if a <= b else (b, a)
        existing = self.edges.get(key)
        if existing is None or latency < existing:
            self.edges[key] = latency

    def adjacency(self) -> Dict[str, List[Tuple[str, float]]]:
        adj: Dict[str, List[Tuple[str, float]]] = {n: [] for n in self.nodes}
        for (a, b), latency in self.edges.items():
            adj[a].append((b, latency))
            adj[b].append((a, latency))
        return adj

    def latencies_from(
        self, source: str,
        adj: Optional[Dict[str, List[Tuple[str, float]]]] = None,
    ) -> Dict[str, float]:
        """Single-source shortest latency (Dijkstra).  A caller running
        several passes the :meth:`adjacency` it built once as ``adj``."""
        if adj is None:
            adj = self.adjacency()
        inf = float("inf")
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, inf):
                continue
            for nxt, w in adj[node]:
                nd = d + w
                if nd < dist.get(nxt, inf):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
        return dist

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        return len(self.latencies_from(self.nodes[0])) == len(self.nodes)


def transit_stub(
    transits: int = 4,
    stubs_per_transit: int = 3,
    nodes_per_stub: int = 8,
    transit_latency: float = 0.050,
    stub_gateway_latency: float = 0.010,
    intra_stub_latency: float = 0.002,
    intra_stub_edge_prob: float = 0.3,
    seed: int = 0,
) -> Underlay:
    """Generate a transit-stub underlay with the paper's parameters.

    With the defaults this yields 4 transit + 4*3*8 = 96 stub nodes
    (100 total), matching Section 6.1.  Latencies are in seconds.
    """
    for name, value in (("transits", transits),
                        ("stubs_per_transit", stubs_per_transit),
                        ("nodes_per_stub", nodes_per_stub)):
        if value < 1:
            raise NetworkError(
                f"transit_stub: {name} must be at least 1, got {value!r}")
    rng = random.Random(seed)
    underlay = Underlay()

    transit_ids = [f"t{i}" for i in range(transits)]
    underlay.nodes.extend(transit_ids)
    underlay.transit_nodes.extend(transit_ids)
    # Transit domain: a clique (GT-ITM uses a dense random graph; at four
    # nodes a clique is the faithful choice).
    for i, a in enumerate(transit_ids):
        for b in transit_ids[i + 1:]:
            underlay.add_edge(a, b, transit_latency)

    for t_index, transit in enumerate(transit_ids):
        for s_index in range(stubs_per_transit):
            stub_ids = [
                f"s{t_index}_{s_index}_{k}" for k in range(nodes_per_stub)
            ]
            underlay.nodes.extend(stub_ids)
            underlay.stub_nodes.extend(stub_ids)
            # Stub domain: a ring plus random chords (connected, sparse).
            for k, node in enumerate(stub_ids):
                underlay.add_edge(
                    node, stub_ids[(k + 1) % len(stub_ids)], intra_stub_latency
                )
            for i, a in enumerate(stub_ids):
                for b in stub_ids[i + 2:]:
                    if rng.random() < intra_stub_edge_prob:
                        underlay.add_edge(a, b, intra_stub_latency)
            # Gateway edge to the transit node.
            gateway = rng.choice(stub_ids)
            underlay.add_edge(gateway, transit, stub_gateway_latency)
    return underlay
