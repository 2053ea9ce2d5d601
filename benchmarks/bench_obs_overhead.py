"""Overhead benchmark for the observability subsystem.

Runs the same convergence workloads with observability off, with the
metrics registry alone, and fully enabled (metrics + tracing +
profiling), and reports the wall-clock ratios:

* **dv-sim** -- the localized shortest-path program deployed on a
  transit-stub overlay and driven to convergence (the distributed hot
  path: strand firings, netting, shipping, commits);
* **central** -- a centralized PSN fixpoint of the same query with the
  per-strand profiler attached (the pure engine path, no network
  emulation to hide behind; metrics and tracing are deployment-level
  features, so only ``off`` and ``full`` differ here).

The *off* runs ARE the disabled path: every hook is a single ``None``
check that the baseline executes with the branch not taken, so the
measured metrics-only ratio (steady state ~1.00x, network emulation
dominates) upper-bounds the disabled-path overhead -- the ISSUE's
"<=5% disabled" criterion -- and the ``off_seconds`` record in
``BENCH_results.json`` is its regression guard across commits.

Rounds interleave the modes (off, metrics, full, off, metrics, full,
...) rather than batching per mode: shared runners drift over a
multi-second benchmark, and sequential batches would book that drift
to whichever mode ran last.  Gates add headroom over the steady-state
ratios for exactly that noise.

Run as a script it merges an ``obs`` record into
``BENCH_results.json`` (append semantics) and enforces both gates.
"""

import sys
import time

import repro
from repro.ndlog import programs
from repro.topology import build_overlay, transit_stub

from bench_results import RESULTS_PATH, merge_results

N_NODES = 24
#: Metrics-only gate: steady state measures ~1.00x (the push hooks are
#: a handful of dict bumps per firing/commit); the gate leaves room
#: for shared-runner interference.
MAX_METRICS = 1.25
#: Fully-enabled gate: tracing every delta may cost at most 2x.
MAX_FULL = 2.0

MODES = {
    "off": {},
    "metrics": {"metrics": True},
    "full": {"metrics": True, "trace": True, "profile": True},
}


def overlay_links(seed=3, n_nodes=N_NODES):
    overlay = build_overlay(transit_stub(seed=seed), n_nodes=n_nodes,
                            degree=3, seed=seed)
    return overlay, overlay.link_rows("hopcount")


def run_dv_sim(**obs) -> float:
    overlay, _links = overlay_links()
    compiled = repro.compile(programs.shortest_path_safe(),
                             passes=["aggsel", "localize"])
    deployment = compiled.deploy(topology=overlay,
                                 link_loads={"link": "hopcount"}, **obs)
    start = time.perf_counter()
    deployment.advance()
    elapsed = time.perf_counter() - start
    assert deployment.rows("shortestPath")
    if obs.get("metrics"):
        snapshot = deployment.metrics()
        assert snapshot.rule_totals()
    if obs.get("trace"):
        assert deployment.tracer.events
    return elapsed


def run_central(**obs) -> float:
    _overlay, links = overlay_links(seed=7)
    compiled = repro.compile(programs.shortest_path_safe(),
                             passes=["aggsel"])
    profiler = None
    if obs.get("profile"):
        from repro.obs import Profiler

        profiler = Profiler()
    start = time.perf_counter()
    result = compiled.run(engine="psn", facts={"link": links},
                          profiler=profiler)
    elapsed = time.perf_counter() - start
    assert result.rows("shortestPath")
    if profiler is not None:
        assert profiler.total_seconds() > 0
    return elapsed


WORKLOADS = {
    "dv-sim": run_dv_sim,
    "central": run_central,
}


def measure(rounds: int):
    results = {}
    for name, runner in WORKLOADS.items():
        runner()  # warm caches (imports, plan compilation, JIT dicts)
        timings = {mode: [] for mode in MODES}
        for _ in range(rounds):
            for mode, obs in MODES.items():
                timings[mode].append(runner(**obs))
        # min-of-rounds: the standard noise-robust estimator for an
        # overhead ratio (anything above the minimum is interference).
        off = min(timings["off"])
        metrics_s = min(timings["metrics"])
        full_s = min(timings["full"])
        results[name] = {
            "off_seconds": off,
            "metrics_seconds": metrics_s,
            "full_seconds": full_s,
            "metrics_overhead": metrics_s / off,
            "full_overhead": full_s / off,
        }
        print(f"{name}: off {off:.3f}s, "
              f"metrics {metrics_s:.3f}s ({metrics_s / off:.2f}x), "
              f"full {full_s:.3f}s ({full_s / off:.2f}x)")
    return results


def main(argv):
    rounds = 2 if "--fast" in argv else 4
    results = measure(rounds)
    record = {"rounds": rounds, "nodes": N_NODES,
              "max_metrics_gate": MAX_METRICS,
              "max_full_gate": MAX_FULL, **results}
    merge_results({"obs": record})
    print(f"\nwrote {RESULTS_PATH}")
    worst_metrics = max(r["metrics_overhead"] for r in results.values())
    worst_full = max(r["full_overhead"] for r in results.values())
    assert worst_metrics <= MAX_METRICS, (
        f"metrics registry costs {worst_metrics:.2f}x "
        f"(gate {MAX_METRICS:.2f}x)"
    )
    assert worst_full <= MAX_FULL, (
        f"full observability costs {worst_full:.2f}x "
        f"(gate {MAX_FULL:.1f}x)"
    )
    print(f"OK: metrics {worst_metrics:.2f}x (gate {MAX_METRICS:.2f}x), "
          f"full {worst_full:.2f}x (gate {MAX_FULL:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
