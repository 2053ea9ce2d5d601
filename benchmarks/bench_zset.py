"""Weighted Z-set netting vs the PR 2 guard-based netting vs unbatched.

The queue used to net batched deltas with a conservative pass (plus-
before-minus pairing, uniform-pkey groups, stored-row agreement,
force/soft-state exemptions); the weighted core replaces all of it with
per-fact weight addition inside slot-ordered segments.  This benchmark
holds the new representation to the old one's recorded bar:

* **zset-link-flap** -- the link-flap storm of ``bench_delta_pipeline``
  with *weighted* transients: each flap announces and withdraws the
  same link with weight 5 (a burst of identical advertisements), which
  the weighted queue annihilates by addition while the unbatched
  reference pays one derivation wave per unit intent.
* **zset-bursty-update** -- the paper's Section 6.5 workload, reused
  verbatim from ``bench_delta_pipeline`` (primary-key replacements,
  never cancellable): the floor case, where netting must at least not
  slow legitimate recomputation down.
* **wire coalescing** -- a buffered-transport cluster under flap
  bursts: same-fact deltas are summed per message before send, and the
  shipped/coalesced NetDelta counts from ``net/stats.py`` quantify the
  reduction.

The CI gate compares the measured weighted speedups against the
guard-based pass's own acceptance run (``GUARD_NETTING_SPEEDUP``): weighted
netting must be at least as fast relative to the unbatched reference
as the old pass was.  ``--fast`` trims rounds for CI.
"""

import random
import sys
import time

import repro
from repro.engine.facts import Fact
from repro.runtime import Cluster, LinkUpdateDriver, RuntimeConfig
from repro.ndlog import programs
from repro.topology import build_overlay, transit_stub

from bench_delta_pipeline import (
    compare_engine_workload,
    converged_engine,
    random_links,
    run_bursty_update,
)
from bench_results import RESULTS_PATH, merge_results

#: Headroom on the recorded reference speedups: speedup ratios are mostly
#: machine-independent, but the two runs still live on different host
#: load; the gate tolerates this much shortfall before failing.
GATE_TOLERANCE = 0.85

#: The guard-based netting's speedups over the unbatched engine, from
#: its own acceptance run (``bench_delta_pipeline.py`` at batch 64, as
#: recorded in commit 2eb9354).
GUARD_NETTING_SPEEDUP = {"link-flap": 6.115, "bursty-update": 1.285}


# ----------------------------------------------------------------------
# Workload: weighted link-flap storm
# ----------------------------------------------------------------------
def run_flap_storm(batch_size, rounds=5, flaps=5, weight=5, seed=3):
    """Weighted transient churn over a converged fixpoint.

    The batched engine receives each flap as one ``+weight`` and one
    ``-weight`` intent (netted to zero by addition before any strand
    fires); the ``batch_size=1`` reference receives the same flap as
    ``2 * weight`` unit intents and replays the insert/retract waves
    one at a time -- the signed one-at-a-time reading of the same
    Z-set."""
    links, nodes = random_links()
    engine = converged_engine(batch_size, links)
    rng = random.Random(seed)
    present = sorted({(a, b) for a, b, _c in links if a < b})
    candidates = [
        (a, b) for a in nodes for b in nodes
        if a < b and (a, b) not in set(present)
    ]
    costs = {(a, b): c for a, b, c in links if a < b}

    def derive(fact, w):
        if batch_size == 1:
            step = 1 if w > 0 else -1
            for _ in range(abs(w)):
                engine.derive(fact, step)
        else:
            engine.derive(fact, w)

    t0 = time.process_time()
    for _ in range(rounds):
        for a, b in rng.sample(candidates, flaps):
            cost = rng.randint(1, 10)
            derive(Fact("link", (a, b, cost)), weight)
            derive(Fact("link", (b, a, cost)), weight)
            derive(Fact("link", (a, b, cost)), -weight)
            derive(Fact("link", (b, a, cost)), -weight)
        for a, b in rng.sample(present, 2):
            new = max(1, min(10, costs[(a, b)] + rng.choice((-1, 1))))
            costs[(a, b)] = new
            engine.update("link", (a, b, new))
            engine.update("link", (b, a, new))
        engine.run()
    elapsed = time.process_time() - t0
    return elapsed, engine


# ----------------------------------------------------------------------
# Wire coalescing under buffered transport
# ----------------------------------------------------------------------
def run_wire_coalescing(bursts=6, cycles=3, seed=5):
    """Flap-burst a buffered cluster and report how many NetDeltas the
    per-message Z-set coalescing pass removed before send."""
    overlay = build_overlay(transit_stub(seed=seed), n_nodes=10, degree=3,
                            seed=seed)
    cluster = Cluster(
        overlay, repro.compile(programs.shortest_path_safe(), passes=["aggsel"]),
        RuntimeConfig(buffer_interval=0.05),
        link_loads={"link": "hopcount"},
    )
    cluster.run()
    driver = LinkUpdateDriver(cluster, metric="hopcount", seed=seed)
    for index in range(bursts):
        cluster.clock.at(cluster.clock.now + 0.5 * (index + 1),
                         lambda: driver.flap_burst(cycles=cycles))
        cluster.clock.at(cluster.clock.now + 0.5 * (index + 1) + 0.1,
                         driver.apply_burst)
    cluster.run()
    stats = cluster.stats
    return {
        "netdeltas_shipped": stats.netdeltas_shipped,
        "netdeltas_coalesced": stats.netdeltas_coalesced,
        "coalesced_fraction": (
            stats.netdeltas_coalesced
            / (stats.netdeltas_shipped + stats.netdeltas_coalesced)
            if stats.netdeltas_shipped + stats.netdeltas_coalesced else 0.0
        ),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def main(argv):
    fast = "--fast" in argv
    rounds = 2 if fast else 4
    results = {}
    for name, run, ref_key in (
        ("zset-link-flap", run_flap_storm, "link-flap"),
        ("zset-bursty-update", run_bursty_update, "bursty-update"),
    ):
        record = compare_engine_workload(name, run, rounds)
        record["reference_speedup"] = GUARD_NETTING_SPEEDUP[ref_key]
        results[name] = record
        print(f"{name:20s} weighted {record['batched_seconds']:.3f}s  "
              f"unbatched {record['unbatched_seconds']:.3f}s  "
              f"speedup {record['speedup']:.2f}x  "
              f"(guard-based netting: {GUARD_NETTING_SPEEDUP[ref_key]:.2f}x)")

    wire = run_wire_coalescing()
    results["zset-wire-coalescing"] = wire
    print(f"{'wire coalescing':20s} shipped {wire['netdeltas_shipped']}  "
          f"coalesced away {wire['netdeltas_coalesced']}  "
          f"({wire['coalesced_fraction']:.1%} of the stream)")

    merge_results(results)
    print(f"\nwrote {RESULTS_PATH}")

    flap = results["zset-link-flap"]
    assert flap["speedup"] >= GATE_TOLERANCE * flap["reference_speedup"], (
        f"weighted netting regressed the link-flap bar: "
        f"{flap['speedup']:.2f}x < {GATE_TOLERANCE:.2f} * "
        f"{flap['reference_speedup']:.2f}x (guard-based netting)"
    )
    assert wire["netdeltas_coalesced"] > 0, (
        "wire coalescing removed no NetDeltas under buffered flap bursts"
    )
    print("acceptance gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
