"""Reliable-transport overhead and loss-recovery benchmark.

Two questions, one workload (the dynamic shortest-path protocol on an
8-node transit-stub overlay, simulated virtual time):

* **lossless overhead** -- what does the ack/retransmit layer cost when
  the network is perfect?  Sequence stamping, ack bookkeeping, and
  timer churn all sit on the send/receive hot path, so this is the
  price every deployment pays for the FIFO + exactly-once guarantee.
  CI gates it at ``MAX_OVERHEAD`` x the raw transport's wall clock.
* **lossy recovery** -- with a seeded 10% drop schedule, the reliable
  run must still reach the exact fault-free fixpoint (the raw one
  demonstrably cannot); reported alongside the retransmit count so the
  recovery cost is visible, not just the correctness claim.  This run
  carries the protocol *with aggregate selections* (as the lossy chaos
  tests do, ``tests/test_chaos.py::sp_confluent``): the plain program
  is not confluent -- a ``path`` slot keeps the neighbour's latest
  advertisement of any of its paths, so what survives a run depends on
  which delta arrived last -- and a lossy run's verdict against an
  exact fixpoint was a function of delta timing and of the hash seed
  (40 chaos seeds under ``PYTHONHASHSEED=0``: 1 to 3 end with extra,
  valid rows; with ``aggsel`` 40 of 40 reach the fixpoint).  The
  lossless overhead ratio stays on the plain program: its base is what
  the gate was set against and must not move.

Run as a script it medians a few rounds and merges a ``reliability``
record into ``BENCH_results.json`` (append semantics: other
benchmarks' records are preserved).
"""

import sys
import time

import repro
from repro.chaos import ChaosMonitor, ChaosSchedule
from repro.ndlog import programs
from repro.topology import build_overlay, transit_stub

N_NODES = 8
#: CI gate: reliable transport on a lossless link may cost at most
#: this factor over the raw path.  The bound is what the layer was
#: always allowed in *added* seconds, re-expressed on a base that
#: halved: 1.15x of the 0.460 s raw run allowed 0.069 s; since a chunk's
#: heads share one message per neighbour the raw run takes 0.235 s, and
#: 0.069 / 0.235 = 0.29.  The reliable run fell too (0.444 s -> 0.28 s)
#: but by less -- stamps, timers and 1k pure acks are per message, the
#: peer ledger per delta -- and reads 1.17-1.23x over four rounds,
#: 1.01-1.26x over the two rounds of ``--fast`` (what CI runs).
MAX_OVERHEAD = 1.3
LOSS_RATE = 0.1


def make_overlay():
    return build_overlay(transit_stub(seed=5), n_nodes=N_NODES,
                         degree=3, seed=5)


def compiled_program(confluent: bool = False):
    """The protocol; ``confluent`` adds aggregate selections, which the
    lossy run needs to be held to an exact fixpoint (module docstring)."""
    passes = ["aggsel", "localize"] if confluent else ["localize"]
    return repro.compile(programs.shortest_path_dynamic(), passes=passes)


def run_lossless(compiled, reliable: bool) -> float:
    deployment = compiled.deploy(topology=make_overlay(),
                                 reliable=reliable)
    start = time.perf_counter()
    deployment.advance()
    elapsed = time.perf_counter() - start
    assert deployment.query_rows()
    if reliable:
        # A perfect link never needs a retransmission.
        assert deployment.stats.retransmits == 0
    return elapsed


def run_lossy(compiled) -> dict:
    schedule = ChaosSchedule(seed=11).drop(rate=LOSS_RATE)
    monitor = ChaosMonitor(compiled, make_overlay())
    deployment = compiled.deploy(topology=make_overlay(),
                                 chaos=schedule, reliable=True)
    start = time.perf_counter()
    deployment.advance()
    elapsed = time.perf_counter() - start
    verdict = monitor.check(deployment)
    assert verdict.ok, verdict.summary()
    return {
        "seconds": elapsed,
        "retransmits": deployment.stats.retransmits,
        "faults": sum(deployment.stats.faults_injected.values()),
    }


def measure(rounds: int) -> dict:
    compiled = compiled_program()
    run_lossless(compiled, False)  # warm caches
    raw = min(run_lossless(compiled, False) for _ in range(rounds))
    reliable = min(run_lossless(compiled, True) for _ in range(rounds))
    lossy = run_lossy(compiled_program(confluent=True))
    overhead = reliable / raw
    print(f"lossless: raw {raw:.3f}s, reliable {reliable:.3f}s "
          f"-> {overhead:.2f}x")
    print(f"lossy ({LOSS_RATE:.0%} drop): {lossy['seconds']:.3f}s, "
          f"{lossy['retransmits']} retransmits, exact fixpoint")
    return {
        "raw_seconds": raw,
        "reliable_seconds": reliable,
        "overhead": overhead,
        "lossy": lossy,
    }


def main(argv):
    from bench_results import RESULTS_PATH, merge_results

    rounds = 2 if "--fast" in argv else 4
    results = measure(rounds)
    record = {"rounds": rounds, "nodes": N_NODES,
              "loss_rate": LOSS_RATE,
              "max_overhead_gate": MAX_OVERHEAD, **results}
    merge_results({"reliability": record})
    print(f"\nwrote {RESULTS_PATH}")
    assert results["overhead"] <= MAX_OVERHEAD, (
        f"reliable transport costs {results['overhead']:.2f}x on a "
        f"lossless link (gate {MAX_OVERHEAD:.2f}x)"
    )
    print(f"OK: lossless overhead {results['overhead']:.2f}x within "
          f"the {MAX_OVERHEAD:.2f}x gate")
    return 0


def test_reliable_convergence(benchmark):
    """pytest-benchmark case (collected only when pytest targets
    benchmarks/): one reliable lossless convergence; the overhead gate
    itself lives in main()."""
    compiled = compiled_program()
    elapsed = benchmark.pedantic(
        lambda: run_lossless(compiled, True), rounds=1, iterations=1)
    assert elapsed > 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
