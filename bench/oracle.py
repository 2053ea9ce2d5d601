"""Independent checks of what the program computed.  Shares no code with
the engines: plain Dijkstra over the final link costs, and set
arithmetic for the soft-state workload.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

#: Path costs are sums of floats added in a different order by the
#: program and by Dijkstra.
TOLERANCE = 1e-6


def dijkstra(adjacency: Dict[str, List[Tuple[str, float]]],
             source: str) -> Dict[str, float]:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nxt, cost in adjacency.get(node, ()):
            candidate = d + cost
            if candidate < dist.get(nxt, float("inf")):
                dist[nxt] = candidate
                heapq.heappush(heap, (candidate, nxt))
    return dist


def check_shortest_paths(
    link_rows: Iterable[Tuple[str, str, float]],
    shortest_path_rows: Iterable[Tuple[str, str, tuple, float]],
) -> Tuple[int, int]:
    """Compare ``shortestPath(src, dst, path, cost)`` rows with Dijkstra
    over ``link(src, dst, cost)`` rows.  Returns ``(checked,
    mismatches)``: every reachable ordered pair of distinct nodes must
    have a row, every row must carry the optimal cost, and its path
    vector must be a real path of that cost.  A row from a node to
    itself (the unguarded program derives the best round trip) is held
    to the cheapest cycle through a neighbour."""
    cost_of: Dict[Tuple[str, str], float] = {}
    adjacency: Dict[str, List[Tuple[str, float]]] = {}
    for src, dst, cost in link_rows:
        cost_of[(src, dst)] = cost
        adjacency.setdefault(src, []).append((dst, cost))
        adjacency.setdefault(dst, [])
    dist = {node: dijkstra(adjacency, node) for node in adjacency}

    checked = 0
    mismatches = 0
    seen = set()
    for src, dst, path, cost in shortest_path_rows:
        checked += 1
        seen.add((src, dst))
        if src == dst:
            expected = min(
                (hop + dist[nxt].get(src, float("inf"))
                 for nxt, hop in adjacency.get(src, ())),
                default=float("inf"),
            )
        else:
            expected = dist.get(src, {}).get(dst, float("inf"))
        hops = list(zip(path, path[1:]))
        walked = sum(cost_of.get(hop, float("inf")) for hop in hops)
        if (
            abs(cost - expected) > TOLERANCE
            or not hops
            or path[0] != src
            or path[-1] != dst
            or abs(walked - cost) > TOLERANCE
        ):
            mismatches += 1
    for src, reachable in dist.items():
        for dst in reachable:
            if dst != src and (src, dst) not in seen:
                checked += 1
                mismatches += 1
    return checked, mismatches


def check_sets_equal(actual: Iterable, expected: Iterable) -> Tuple[int, int]:
    """``(checked, mismatches)`` for two row sets: every row of either
    side is one check, every row on one side only is one mismatch."""
    actual, expected = set(actual), set(expected)
    return len(actual | expected), len(actual ^ expected)
