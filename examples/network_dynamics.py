"""Routing under network dynamics (Sections 4 / 6.5).

A declarative network keeps its routes consistent while the ground
truth changes underneath it: link costs are updated in bursts, and the
materialized shortest paths re-converge incrementally -- no
recomputation from scratch, and the quiesced state always equals what a
fresh run on the new topology would produce (eventual consistency,
Theorem 4).

Run:  python examples/network_dynamics.py
"""

import heapq

import repro
from repro.ndlog import programs
from repro.runtime import LinkUpdateDriver, RuntimeConfig
from repro.topology import build_overlay, transit_stub

overlay = build_overlay(transit_stub(seed=21), n_nodes=24, degree=3, seed=21)

# The protocol form of the query: each (src, dst, nexthop) slot holds
# the neighbour's latest advertisement (see DESIGN.md).
deployment = repro.compile(
    programs.shortest_path_dynamic(), passes=["aggsel", "localize"]
).deploy(
    topology=overlay,
    config=RuntimeConfig(buffer_interval=0.2),
    link_loads={"link": "random"},
)
driver = LinkUpdateDriver(deployment, metric="random", fraction=0.10,
                          magnitude=0.10, seed=2)

deployment.advance()
initial_bytes = deployment.stats.total_bytes()
print(f"initial convergence: {initial_bytes / 1e6:.3f} MB")


def dijkstra(costs, nodes):
    adjacency = {}
    for (a, b), cost in costs.items():
        adjacency.setdefault(a, []).append((b, cost))
        adjacency.setdefault(b, []).append((a, cost))
    out = {}
    for source in nodes:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for nxt, w in adjacency.get(node, ()):
                if d + w < dist.get(nxt, float("inf")):
                    dist[nxt] = d + w
                    heapq.heappush(heap, (d + w, nxt))
        for target, d in dist.items():
            if target != source:
                out[(source, target)] = d
    return out


for burst_number in range(1, 4):
    before = deployment.stats.total_bytes()
    record = driver.apply_burst()
    deployment.advance()
    spent = (deployment.stats.total_bytes() - before) / 1e6
    print(f"\nburst {burst_number}: {len(record.updated_links)} links updated, "
          f"re-convergence cost {spent:.3f} MB "
          f"({100 * spent * 1e6 / initial_bytes:.0f}% of from-scratch)")

    # Verify eventual consistency against ground truth.
    want = dijkstra(driver.costs, overlay.nodes)
    got = {}
    for s, d, _p, c in deployment.rows("shortestPath"):
        if s != d:
            got[(s, d)] = min(c, got.get((s, d), float("inf")))
    mismatches = sum(
        1 for key, cost in want.items()
        if abs(got.get(key, float("inf")) - cost) > 1e-6
    )
    print(f"  eventual consistency: "
          f"{'OK' if mismatches == 0 else f'{mismatches} MISMATCHES'} "
          f"({len(want)} pairs checked)")
    assert mismatches == 0
