"""A deployment that keeps running holds what its fixpoint holds.

Bursts of link-cost updates replace the rows under the same primary
keys again and again, so the stored rows stay at about 1,050 however
many bursts run.  Memory must stay flat with them: a keyed slot keeps
its latest version only, so nothing a burst displaces may be kept
anywhere -- nor, with provenance on, in the shared provenance store,
which holds live support only.  The slow tier runs this (about 11 s of
CPU without provenance).
"""

import gc
import tracemalloc

import pytest

import repro
from repro.ndlog import programs
from repro.runtime import RuntimeConfig
from repro.runtime.updates import LinkUpdateDriver
from repro.topology import build_overlay, transit_stub

#: The ``bursty-update`` deployment: 12 nodes of degree 3 on overlay
#: seed 1000, the buffered transport, every link re-costed each burst.
NODES, DEGREE, SEED = 12, 3, 1000
BURST_GAP_S = 10.0


def retained_mb():
    gc.collect()
    return tracemalloc.get_traced_memory()[0] / 1e6


@pytest.mark.slow
@pytest.mark.parametrize("provenance", [False, True],
                         ids=["plain", "provenance"])
def test_retained_memory_stays_flat_over_bursts(provenance):
    """Retained memory after 40 bursts exceeds that after 10 by less
    than 2 MB (a store of every displaced slot version grew it by about
    7.6 MB; a provenance store that kept its dead records and every
    fact it had seen, by about 85 MB), and with provenance on the
    audit is clean."""
    compiled = repro.compile(programs.shortest_path_dynamic(),
                             passes=["aggsel", "localize"],
                             provenance=provenance)
    overlay = build_overlay(transit_stub(seed=SEED), n_nodes=NODES,
                            degree=DEGREE, seed=SEED)
    tracemalloc.start()
    try:
        deployment = compiled.deploy(
            topology=overlay, config=RuntimeConfig(buffer_interval=0.2),
            link_loads={"link": "latency"})
        deployment.advance()
        driver = LinkUpdateDriver(deployment, metric="latency",
                                  fraction=1.0, seed=SEED)
        retained, stored = {}, {}
        for burst in range(1, 41):
            at = deployment.now
            driver.apply_burst()
            deployment.advance(until=at + BURST_GAP_S)
            if burst in (10, 40):
                assert deployment.quiescent
                retained[burst] = retained_mb()
                stored[burst] = sum(
                    len(table) for node in deployment.nodes.values()
                    for table in node.db.tables.values())
    finally:
        tracemalloc.stop()
    assert abs(stored[40] - stored[10]) < 0.05 * stored[10], stored
    assert retained[40] - retained[10] < 2.0, retained
    if provenance:
        report = deployment.audit()
        assert report.ok, report.mismatches[:5]
