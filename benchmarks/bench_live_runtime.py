"""Throughput probe for the live execution target: deltas/sec over
in-process asyncio channels.

The virtual-time benchmarks measure host cost per *simulated* second;
the live target has a different figure of merit -- how many deltas the
wall-clock runtime pushes through per real second, across all node
tasks sharing one event loop.  The probe converges shortest-path (with
aggregate selections) on a transit-stub overlay with the CPU-delay
model set to zero, so the measured rate is the runtime's own overhead:
clock timers, channel hops, inbox queues, and the PSN engines.

Run as a script it medians a few rounds, merges a ``live-runtime``
record into ``BENCH_results.json`` (append semantics: the other
benchmarks' records are preserved), and asserts a modest throughput
floor.
"""

import asyncio
import sys
import time

import repro
from repro.ndlog import programs
from repro.topology import build_overlay, transit_stub

from bench_results import RESULTS_PATH, merge_results

N_NODES = 16
#: CI gate: the loop must sustain at least this many deltas/sec.  The
#: observed rate is an order of magnitude above; the floor only catches
#: catastrophic regressions (e.g. an accidental real sleep per delta).
FLOOR_DELTAS_PER_SEC = 1_000


def run_live_round(channels="inproc"):
    """One cold-start convergence; returns (wall_seconds, deltas)."""
    compiled = repro.compile(programs.shortest_path_safe(),
                             passes=["aggsel", "localize"])
    overlay = build_overlay(transit_stub(seed=9), n_nodes=N_NODES,
                            degree=3, seed=9)
    config = repro.RuntimeConfig(cpu_delay=0.0)
    deployment = compiled.deploy(
        topology=overlay, config=config, link_loads={"link": "hopcount"},
        target="live", channels=channels,
    )

    async def drive():
        t0 = time.perf_counter()
        await deployment.start()
        assert await deployment.quiescent(timeout=120.0), "no quiescence"
        elapsed = time.perf_counter() - t0
        await deployment.stop()
        return elapsed

    elapsed = asyncio.run(drive())
    assert deployment.query_rows(), "no shortest paths computed"
    return elapsed, deployment.total_deltas_processed()


def main(argv):
    rounds = 2 if "--fast" in argv else 4
    measured = []
    for _ in range(rounds):
        elapsed, deltas = run_live_round()
        measured.append((deltas / elapsed, elapsed, deltas))
        print(f"round: {deltas} deltas in {elapsed:.3f}s wall "
              f"({deltas / elapsed:,.0f} deltas/sec)")
    # Median round by rate: live timing is noisy and delta counts vary
    # round to round, so pairing a median wall time with any single
    # round's count would report a rate no round exhibited.
    rate, wall, deltas = sorted(measured)[len(measured) // 2]
    record = {
        "backend": "inproc",
        "nodes": N_NODES,
        "deltas": deltas,
        "wall_seconds": wall,
        "deltas_per_sec": rate,
        "rounds": rounds,
    }
    merge_results({"live-runtime": record})
    print(f"\nlive-runtime: {rate:,.0f} deltas/sec over in-process "
          f"channels ({N_NODES} nodes); wrote {RESULTS_PATH}")
    assert rate >= FLOOR_DELTAS_PER_SEC, (
        f"live runtime only {rate:,.0f} deltas/sec "
        f"(floor {FLOOR_DELTAS_PER_SEC:,})"
    )
    print(f"OK: above the {FLOOR_DELTAS_PER_SEC:,} deltas/sec floor")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
