"""Batched delta pipeline vs the per-delta reference path.

Three churn-heavy workloads exercise the three layers of the pipeline
(Section 4's bursty-update regime):

* **link-flap** -- transient link announce/withdraw churn over a
  converged shortest-path fixpoint, evaluated with a centralized PSN
  engine.  The flap bursts are plus-before-minus pairs, exactly the
  pattern queue-level cancellation annihilates before any table or
  strand work; the unbatched engine pays a full derivation wave and a
  full retraction wave per flap.
* **bursty-update** -- the paper's Section 6.5 workload: periodic
  bursts updating 10% of link costs by up to 10% (primary-key
  replacements, never cancellable), measuring run-batched strand
  firing plus netted aggregate views on legitimate recomputation.
* **soft-state-expiry** -- a distributed cluster of TTL'd beacons with
  periodic refreshers and the expiry sweeper, measuring the runtime
  layer: multi-delta CPU ticks (``cpu_batch``) over the cheap
  simulator loop.

Run as a script it interleaves batched and unbatched rounds, verifies
the fixpoints *and per-tuple derivation counts* are identical, writes
``BENCH_results.json`` (workload -> median seconds, inferences,
speedup), and asserts the acceptance bar: >= 2x on at least one churn
workload.  ``--fast`` trims rounds for CI.
"""

import random
import statistics
import sys
import time

import repro
from repro.engine import Database
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.ndlog import parse, programs
from repro.runtime import Cluster, RuntimeConfig, SoftStateManager
from repro.topology import build_overlay, transit_stub

from bench_results import RESULTS_PATH, merge_results

BATCH = 64


def random_links(n_nodes=14, extra=8, seed=7):
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(n_nodes)]
    pairs = set()
    for i in range(n_nodes):
        pairs.add((nodes[i], nodes[(i + 1) % n_nodes]))
    while len(pairs) < n_nodes + extra:
        a, b = rng.sample(nodes, 2)
        pairs.add(tuple(sorted((a, b))))
    rows = []
    for a, b in sorted(pairs):
        cost = rng.randint(1, 10)
        rows.append((a, b, cost))
        rows.append((b, a, cost))
    return rows, nodes


def counts_snapshot(db):
    return {
        name: {args: table.count(args) for args in table.rows()}
        for name, table in db.tables.items()
    }


def converged_engine(batch_size, links):
    program = programs.shortest_path_safe()
    db = Database.for_program(program)
    db.load_facts("link", links)
    engine = PSNEngine(program, db=db, batch_size=batch_size)
    engine.fixpoint()
    return engine


# ----------------------------------------------------------------------
# Workload: link-flap churn
# ----------------------------------------------------------------------
def run_link_flap(batch_size, rounds=5, flaps=5, seed=3):
    """Each round mixes transient announce/withdraw flaps (cancellable)
    with two real cost updates (never cancellable), so the batched
    engine still does the legitimate recomputation -- the speedup
    measures how much of the *churn* the pipeline refuses to pay for."""
    links, nodes = random_links()
    engine = converged_engine(batch_size, links)
    rng = random.Random(seed)
    present = sorted({(a, b) for a, b, _c in links if a < b})
    candidates = [
        (a, b) for a in nodes for b in nodes
        if a < b and (a, b) not in set(present)
    ]
    costs = {(a, b): c for a, b, c in links if a < b}
    t0 = time.process_time()
    for _ in range(rounds):
        burst = rng.sample(candidates, flaps)
        for a, b in burst:
            cost = rng.randint(1, 10)
            # Transient link: announced, then withdrawn before the
            # engine runs -- a flap burst arriving between ticks.
            engine.derive(Fact("link", (a, b, cost)), 1)
            engine.derive(Fact("link", (b, a, cost)), 1)
            engine.derive(Fact("link", (a, b, cost)), -1)
            engine.derive(Fact("link", (b, a, cost)), -1)
        for a, b in rng.sample(present, 2):
            new = max(1, min(10, costs[(a, b)] + rng.choice((-1, 1))))
            costs[(a, b)] = new
            engine.update("link", (a, b, new))
            engine.update("link", (b, a, new))
        engine.run()
    elapsed = time.process_time() - t0
    return elapsed, engine


# ----------------------------------------------------------------------
# Workload: bursty updates (Section 6.5)
# ----------------------------------------------------------------------
def run_bursty_update(batch_size, bursts=4, fraction=0.15, seed=11):
    links, _nodes = random_links()
    engine = converged_engine(batch_size, links)
    rng = random.Random(seed)
    costs = {(a, b): c for a, b, c in links if a < b}
    t0 = time.process_time()
    for _ in range(bursts):
        pairs = rng.sample(sorted(costs), max(1, int(len(costs) * fraction)))
        for a, b in pairs:
            old = costs[(a, b)]
            new = max(1, min(10, old + rng.choice((-1, 1))))
            costs[(a, b)] = new
            engine.update("link", (a, b, new))
            engine.update("link", (b, a, new))
        engine.run()
    elapsed = time.process_time() - t0
    return elapsed, engine


# ----------------------------------------------------------------------
# Workload: soft-state expiry (distributed runtime)
# ----------------------------------------------------------------------
BEACON_PROGRAM = """
materialize(beacon, 1.0, infinity, keys(1, 2)).
B1: seen(@D, S) :- #beacon(@S, @D, C).
"""


def run_soft_state(cpu_batch, refresh_rounds=40, seed=8):
    overlay = build_overlay(transit_stub(seed=seed), n_nodes=40, degree=5,
                            seed=seed)
    compiled = repro.compile(parse(BEACON_PROGRAM), passes=[], validate=False)
    config = RuntimeConfig(cpu_batch=cpu_batch)
    cluster = Cluster(overlay, compiled, config,
                      link_loads={"beacon": "hopcount"})
    manager = SoftStateManager(cluster, sweep_interval=0.25)
    manager.install()
    rows_by_node = {}
    for a, b, c in overlay.link_rows("hopcount"):
        rows_by_node.setdefault(a, []).append((a, b, c))
    manager.schedule_refresh("beacon", rows_by_node, interval=0.5,
                             rounds=refresh_rounds)
    t0 = time.process_time()
    cluster.run()
    elapsed = time.process_time() - t0
    return elapsed, cluster, manager


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def compare_engine_workload(name, run, rounds):
    """Interleave batched/unbatched rounds; verify equivalence; return
    the result record."""
    batched_times, unbatched_times = [], []
    inferences = {}
    for _ in range(rounds):
        t_batched, batched = run(BATCH)
        t_unbatched, unbatched = run(1)
        assert batched.db.snapshot() == unbatched.db.snapshot(), (
            f"{name}: batched and unbatched fixpoints differ"
        )
        assert counts_snapshot(batched.db) == counts_snapshot(unbatched.db), (
            f"{name}: batched and unbatched derivation counts differ"
        )
        batched_times.append(t_batched)
        unbatched_times.append(t_unbatched)
        inferences = {
            "batched": batched.inferences,
            "unbatched": unbatched.inferences,
        }
    record = {
        "batched_seconds": statistics.median(batched_times),
        "unbatched_seconds": statistics.median(unbatched_times),
        "inferences": inferences,
        "batch_size": BATCH,
    }
    record["speedup"] = (
        record["unbatched_seconds"] / record["batched_seconds"]
        if record["batched_seconds"] else float("inf")
    )
    return record


def compare_soft_state(rounds):
    batched_times, unbatched_times = [], []
    deltas = {}
    for _ in range(rounds):
        t_batched, cluster_b, manager_b = run_soft_state(16)
        t_unbatched, cluster_u, manager_u = run_soft_state(1)
        assert cluster_b.rows("beacon") == cluster_u.rows("beacon")
        assert cluster_b.rows("seen") == cluster_u.rows("seen")
        assert manager_b.expired_count > 0 and manager_u.expired_count > 0
        batched_times.append(t_batched)
        unbatched_times.append(t_unbatched)
        deltas = {
            "batched": cluster_b.total_deltas_processed(),
            "unbatched": cluster_u.total_deltas_processed(),
            "batched_events": cluster_b.clock.events_processed,
            "unbatched_events": cluster_u.clock.events_processed,
        }
    record = {
        "batched_seconds": statistics.median(batched_times),
        "unbatched_seconds": statistics.median(unbatched_times),
        "deltas": deltas,
        "batch_size": 16,
    }
    record["speedup"] = (
        record["unbatched_seconds"] / record["batched_seconds"]
        if record["batched_seconds"] else float("inf")
    )
    return record


def main(argv):
    fast = "--fast" in argv
    rounds = 3 if fast else 5
    results = {}
    for name, run in (
        ("link-flap", run_link_flap),
        ("bursty-update", run_bursty_update),
    ):
        results[name] = compare_engine_workload(name, run, rounds)
        print(f"{name:16s} batched {results[name]['batched_seconds']:.3f}s  "
              f"unbatched {results[name]['unbatched_seconds']:.3f}s  "
              f"speedup {results[name]['speedup']:.2f}x")
    results["soft-state-expiry"] = compare_soft_state(rounds)
    r = results["soft-state-expiry"]
    print(f"{'soft-state-expiry':16s} batched {r['batched_seconds']:.3f}s  "
          f"unbatched {r['unbatched_seconds']:.3f}s  "
          f"speedup {r['speedup']:.2f}x")

    merge_results(results)
    print(f"\nwrote {RESULTS_PATH}")

    best = max(results[n]["speedup"] for n in ("link-flap", "bursty-update"))
    assert best >= 2.0, (
        f"batched pipeline only {best:.2f}x faster on the churn workloads "
        f"(need >= 2x on at least one)"
    )
    print(f"OK: best churn speedup {best:.2f}x (>= 2x required)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
