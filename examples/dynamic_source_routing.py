"""Dynamic-source-routing style path discovery (Sections 5.1.2 / 6.3).

The magic-shortest-path query executes top-down from the source --
"executing the query in this Top-Down fashion resembles a network
protocol called dynamic source routing" -- and query-result caching
lets nodes that already know a route to the destination answer
mid-flight, exactly like DSR route caches.

Run:  python examples/dynamic_source_routing.py
"""

import repro
from repro.ndlog import programs
from repro.runtime import RuntimeConfig
from repro.topology import build_overlay, transit_stub
from repro.topology.neighborhood import hop_distances

overlay = build_overlay(transit_stub(seed=9), n_nodes=30, degree=3, seed=9)

# Five route requests, all towards the same destination -- the regime
# where caching shines (Figure 11's MSC-10% line).
destination = overlay.nodes[-1]
sources = overlay.nodes[:5]

# One compiled artifact serves both runs; only the runtime config
# (caching on/off) differs.
compiled = repro.compile(programs.multi_query_magic(),
                         passes=["aggsel", "localize"])


def run(caching: bool) -> repro.Deployment:
    config = RuntimeConfig(cache=caching)
    deployment = compiled.deploy(
        topology=overlay,
        config=config,
        link_loads={"link": "hopcount"},
    )
    # Queries staggered half a second apart, as a real client would
    # issue them; each is a magicQuery(@src, qid, @dst) fact at the
    # source node.
    for index, src in enumerate(sources):
        deployment.at(
            0.5 * index,
            lambda s=src, q=f"route{index}": deployment.inject(
                s, "magicQuery", (s, q, destination)
            ),
        )
    deployment.advance()
    return deployment


plain = run(caching=False)
cached = run(caching=True)

print(f"route requests: {len(sources)} sources -> {destination}")
print(f"{'query':8s} {'source':7s} {'hops':>4s}  route")
results = {args[1]: args for args in cached.rows("queryResult")}
for index, src in enumerate(sources):
    qid = f"route{index}"
    _n, _q, path, cost = results[qid]
    want = hop_distances(overlay, src)[destination]
    marker = "ok" if cost == want else "WRONG"
    print(f"{qid:8s} {src:7s} {cost:4d}  {'->'.join(path)}  [{marker}]")
    assert cost == want

hits = sum(node.cache_hits for node in cached.nodes.values())
print(f"\nwithout route caches: {plain.stats.total_mb():.3f} MB, "
      f"{plain.stats.messages} messages")
print(f"with route caches:    {cached.stats.total_mb():.3f} MB, "
      f"{cached.stats.messages} messages, {hits} cache hits")
print(f"saving: {100 * (1 - cached.stats.total_mb() / plain.stats.total_mb()):.0f}%")
