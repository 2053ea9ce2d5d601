"""Figure 11: magic sets, predicate reordering, and result caching.

Section 6.3: source-to-destination path queries on the hop-count
metric.

* **No-MS** -- no rewrite: computing all-pairs least-hop-count once; its
  cost is flat in the number of queries.
* **MS** -- each query runs the magic-shortest-path program (top-down
  from the source, filtered at the destination); cost grows linearly
  and crosses No-MS (at 170 queries in the paper, around the node count
  in general: one magic query costs about one node's share of the
  all-pairs computation).
* **MSC** -- magic sets with query-result caching: answers returning
  along the reverse path install cache entries; later queries for a
  cached destination are answered mid-flight and their flood stops.
  Slight overhead at low query counts (false-positive cache answers),
  dramatic savings at high counts.
* **MSC-30% / MSC-10%** -- restricting destinations to 30% / 10% of the
  nodes raises the cache hit rate and lowers the plateau monotonically.

The multi-query form of the magic program (one compiled program, query
id carried in the tuples) keeps hundreds of concurrent queries cheap;
see repro.ndlog.programs.multi_query_magic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.experiments.common import (
    Scale,
    current_scale,
    default_overlay,
    format_table,
)
from repro.ndlog import programs
from repro.runtime import RuntimeConfig
from repro.topology import Overlay
from repro.topology.neighborhood import hop_distances

#: Virtual seconds between query injections (queries overlap but
#: earlier answers have time to populate caches, as on the testbed).
QUERY_STAGGER = 0.25


@dataclass
class Fig11Result:
    query_counts: List[int]
    lines: Dict[str, List[float]] = field(default_factory=dict)  # name -> MB
    cache_hits: Dict[str, List[int]] = field(default_factory=dict)
    node_count: int = 0

    def report(self) -> str:
        rows = []
        for index, count in enumerate(self.query_counts):
            row = [count]
            for name in self.lines:
                row.append(f"{self.lines[name][index]:.2f}")
            rows.append(tuple(row))
        return "\n".join(
            [
                "Figure 11: aggregate communication (MB) vs number of queries",
                format_table(("queries", *self.lines.keys()), rows),
                f"cache hits (MSC): {self.cache_hits.get('MSC', [])}",
            ]
        )

    def check_shape(self) -> None:
        no_ms = self.lines["No-MS"]
        ms = self.lines["MS"]
        msc = self.lines["MSC"]
        msc30 = self.lines["MSC-30%"]
        msc10 = self.lines["MSC-10%"]
        # No-MS is flat; MS grows and crosses it by the largest count.
        assert max(no_ms) - min(no_ms) < 1e-9
        assert ms == sorted(ms)
        assert ms[0] < no_ms[0]
        assert ms[-1] > no_ms[-1]
        # Caching beats plain MS at the largest query count, and
        # restricting the destination pool helps monotonically.
        assert msc[-1] < ms[-1]
        assert msc30[-1] <= msc[-1]
        assert msc10[-1] <= msc30[-1]


def _query_workload(
    overlay: Overlay,
    count: int,
    destination_fraction: float,
    seed: int,
) -> List[Tuple[str, str]]:
    rng = random.Random(seed)
    nodes = list(overlay.nodes)
    pool_size = max(1, int(len(nodes) * destination_fraction))
    destinations = rng.sample(nodes, pool_size)
    out = []
    while len(out) < count:
        src = rng.choice(nodes)
        dst = rng.choice(destinations)
        if src != dst:
            out.append((src, dst))
    return out


def run_magic_queries(
    overlay: Overlay,
    queries: Sequence[Tuple[str, str]],
    caching: bool,
    verify: bool = False,
) -> Tuple[float, int]:
    """Run the multi-query magic program; returns (MB, cache hits)."""
    config = RuntimeConfig(cache=caching)
    deployment = api.compile(
        programs.multi_query_magic(), passes=["aggsel", "localize"]
    ).deploy(topology=overlay, config=config, link_loads={"link": "hopcount"})
    for index, (src, dst) in enumerate(queries):
        qid = f"q{index}"
        deployment.at(
            index * QUERY_STAGGER,
            lambda s=src, d=dst, q=qid: deployment.inject(s, "magicQuery",
                                                          (s, q, d)),
        )
    deployment.advance()
    if verify:
        _verify_answers(deployment, overlay, queries)
    hits = sum(node.cache_hits for node in deployment.nodes.values())
    return deployment.stats.total_mb(), hits


def _verify_answers(deployment, overlay, queries) -> None:
    results = {}
    for args in deployment.rows("queryResult"):
        results[args[1]] = args[3]
    for index, (src, dst) in enumerate(queries):
        expected = hop_distances(overlay, src)[dst]
        got = results.get(f"q{index}")
        assert got == expected, (src, dst, got, expected)


def run_all_pairs_baseline(overlay: Overlay) -> float:
    deployment = api.compile(
        programs.shortest_path(), passes=["aggsel", "localize"]
    ).deploy(topology=overlay, link_loads={"link": "hopcount"})
    deployment.advance()
    return deployment.stats.total_mb()


def run(
    overlay: Optional[Overlay] = None,
    scale: Optional[Scale] = None,
    verify_first_point: bool = True,
) -> Fig11Result:
    scale = scale or current_scale()
    overlay = overlay or default_overlay(scale)
    counts = list(scale.query_counts)
    result = Fig11Result(query_counts=counts, node_count=len(overlay.nodes))

    baseline_mb = run_all_pairs_baseline(overlay)
    result.lines["No-MS"] = [baseline_mb] * len(counts)

    configs = [
        ("MS", 1.0, False),
        ("MSC", 1.0, True),
        ("MSC-30%", 0.3, True),
        ("MSC-10%", 0.1, True),
    ]
    for name, fraction, caching in configs:
        line: List[float] = []
        hits_line: List[int] = []
        for point, count in enumerate(counts):
            queries = _query_workload(overlay, count, fraction,
                                      seed=scale.seed + 17)
            verify = verify_first_point and point == 0 and name in ("MS", "MSC")
            mb, hits = run_magic_queries(overlay, queries, caching,
                                         verify=verify)
            line.append(mb)
            hits_line.append(hits)
        result.lines[name] = line
        result.cache_hits[name] = hits_line
    return result


if __name__ == "__main__":
    outcome = run()
    print(outcome.report())
    outcome.check_shape()
