"""Update workload drivers for the dynamic experiments (Section 6.5).

"Each update burst involves randomly selecting 10% of all links, and
then updating the cost metric by up to 10%."
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.runtime.cluster import Cluster


@dataclass
class BurstRecord:
    time: float
    updated_links: List[Tuple[str, str, float]] = field(default_factory=list)


class LinkUpdateDriver:
    """Applies periodic bursts of link-cost updates to a cluster.

    The driver keeps its own view of current costs so successive bursts
    compound, and it updates both directions of each (bidirectional)
    link atomically at the two endpoints.
    """

    def __init__(
        self,
        cluster: Cluster,
        pred: str = "link",
        metric: str = "random",
        fraction: float = 0.10,
        magnitude: float = 0.10,
        seed: int = 1,
    ):
        self.cluster = cluster
        self.pred = pred
        self.fraction = fraction
        self.magnitude = magnitude
        self.rng = random.Random(seed)
        self.costs: Dict[Tuple[str, str], float] = {
            (a, b): metrics[metric]
            for (a, b), metrics in cluster.overlay.links.items()
        }
        self.bursts: List[BurstRecord] = []

    def apply_burst(self) -> BurstRecord:
        """Update a random ``fraction`` of links by up to ``magnitude``."""
        record = BurstRecord(time=self.cluster.clock.now)
        links = sorted(self.costs)
        count = max(1, int(len(links) * self.fraction))
        for a, b in self.rng.sample(links, count):
            old = self.costs[(a, b)]
            delta = old * self.magnitude * self.rng.uniform(-1.0, 1.0)
            new = max(1.0, round(old + delta, 3))
            self.costs[(a, b)] = new
            self.cluster.update(a, self.pred, (a, b, new))
            self.cluster.update(b, self.pred, (b, a, new))
            record.updated_links.append((a, b, new))
        self.bursts.append(record)
        return record

    def flap_burst(self, cycles: int = 1) -> BurstRecord:
        """Announce/withdraw a random absent link ``cycles`` times at
        both endpoints, as weighted transient intents.

        Each cycle enqueues a ``+1`` and a ``-1`` intent for the same
        link tuple through the node's cpu-batch commit path; under the
        Z-set queue the whole flap nets to weight zero before any strand
        fires, so a storm of flaps costs O(1) table work per chunk
        instead of O(cycles) insert/delete churn."""
        from repro.engine.facts import Fact

        record = BurstRecord(time=self.cluster.clock.now)
        links = sorted(self.costs)
        a, b = links[self.rng.randrange(len(links))]
        cost = float(self.rng.randint(10, 99))  # distinct from any stored row
        for _ in range(max(1, cycles)):
            for src, dst in ((a, b), (b, a)):
                node = self.cluster.nodes[src]
                node.derive(Fact(self.pred, (src, dst, cost)), 1)
                node.derive(Fact(self.pred, (src, dst, cost)), -1)
        record.updated_links.append((a, b, cost))
        self.bursts.append(record)
        return record

    def schedule_bursts(self, times: Sequence[float]) -> None:
        """Schedule bursts at the given virtual times."""
        for time in times:
            self.cluster.clock.at(time, self.apply_burst)

    def current_link_rows(self) -> List[Tuple[str, str, float]]:
        rows = []
        for (a, b), cost in sorted(self.costs.items()):
            rows.append((a, b, cost))
            rows.append((b, a, cost))
        return rows
