"""Capture-overhead benchmark for the provenance subsystem.

Runs the same workloads with ``provenance=True`` and with capture off
and reports the wall-clock ratio:

* **shortest-path** -- centralized PSN fixpoint of the aggregate-
  selected shortest-path query over a transit-stub overlay's links
  (the engine hot path: strand firings, view maintenance);
* **dsr** -- the dynamic-source-routing regime: the multi-query magic
  program deployed on a simulated overlay with staggered route
  requests (the distributed path: per-node recorders sharing one
  store).

Run as a script it medians a few rounds, merges a ``provenance``
record into ``BENCH_results.json`` (append semantics: other
benchmarks' records are preserved) and enforces the CI gate: capture
must cost no more than ``MAX_OVERHEAD`` x the disabled run.  The
disabled runs double as a regression guard for the off path -- the
hooks are single ``None`` checks.
"""

import sys
import time

import repro
from repro.ndlog import programs
from repro.topology import build_overlay, transit_stub

from bench_results import RESULTS_PATH, merge_results

N_NODES = 24
#: CI gate: provenance-on may cost at most this factor over capture-off.
#: Capture itself costs what it cost -- 0.053 s -> 0.050 s added on
#: shortest-path -- but the base shrank under it when the arg-extreme
#: views stopped building a tie-break key per member (capture-off
#: 0.078 s -> 0.046 s, capture-on 0.131 s -> 0.096 s), so the ratio
#: reads 2.03-2.22x over four rounds and 2.12-2.42x over the two rounds
#: of ``--fast`` (what CI runs).  2.5x of the new base allows 0.069 s
#: added, less than the 0.078 s that 2.0x allowed on the old one.
MAX_OVERHEAD = 2.5


def overlay_links(seed=3, n_nodes=N_NODES):
    overlay = build_overlay(transit_stub(seed=seed), n_nodes=n_nodes,
                            degree=3, seed=seed)
    return overlay, overlay.link_rows("hopcount")


def run_shortest_path(provenance: bool) -> float:
    overlay, links = overlay_links()
    compiled = repro.compile(programs.shortest_path_safe(),
                             passes=["aggsel"], provenance=provenance)
    start = time.perf_counter()
    result = compiled.run(engine="psn", facts={"link": links})
    elapsed = time.perf_counter() - start
    assert result.rows("shortestPath")
    assert (result.provenance is not None) == provenance
    return elapsed


def run_dsr(provenance: bool) -> float:
    overlay, _links = overlay_links(seed=9)
    compiled = repro.compile(programs.multi_query_magic(),
                             passes=["aggsel", "localize"],
                             provenance=provenance)
    deployment = compiled.deploy(topology=overlay,
                                 link_loads={"link": "hopcount"})
    destination = overlay.nodes[-1]
    for index, src in enumerate(overlay.nodes[:3]):
        deployment.inject(src, "magicQuery", (src, f"q{index}", destination))
    start = time.perf_counter()
    deployment.advance()
    elapsed = time.perf_counter() - start
    assert deployment.rows("queryResult")
    if provenance:
        assert deployment.audit().ok
    return elapsed


WORKLOADS = {
    "shortest-path": run_shortest_path,
    "dsr": run_dsr,
}


def measure(rounds: int):
    results = {}
    for name, runner in WORKLOADS.items():
        runner(False)  # warm caches (imports, plan compilation, JIT dicts)
        off = [runner(False) for _ in range(rounds)]
        on = [runner(True) for _ in range(rounds)]
        # min-of-rounds: the standard noise-robust estimator for an
        # overhead ratio (anything above the minimum is interference).
        off_s = min(off)
        on_s = min(on)
        results[name] = {
            "off_seconds": off_s,
            "on_seconds": on_s,
            "overhead": on_s / off_s,
        }
        print(f"{name}: off {off_s:.3f}s, on {on_s:.3f}s "
              f"-> {on_s / off_s:.2f}x")
    return results


def main(argv):
    rounds = 2 if "--fast" in argv else 4
    results = measure(rounds)
    record = {"rounds": rounds, "nodes": N_NODES,
              "max_overhead_gate": MAX_OVERHEAD, **results}
    merge_results({"provenance": record})
    print(f"\nwrote {RESULTS_PATH}")
    worst = max(r["overhead"] for r in results.values())
    assert worst <= MAX_OVERHEAD, (
        f"provenance capture costs {worst:.2f}x "
        f"(gate {MAX_OVERHEAD:.1f}x)"
    )
    print(f"OK: worst overhead {worst:.2f}x within the "
          f"{MAX_OVERHEAD:.1f}x gate")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
