"""The five workloads.  Each is one function that takes a case seed, the
rep's :class:`~core.Stopwatch`, the tracer and the observability flags,
builds everything from program text, runs set-up and the timed phase
under the stopwatch, checks the result against :mod:`oracle`, and
returns exact counts for the timed phase.

A workload's *input set* is several independent cases generated from
the ``--seed`` (``CASES`` overlays or graphs): one overlay's work moves
by 15% from seed to seed, the sum over a set by about 5% (README,
"Spread").  The program only ever sees the generated inputs.

Why each workload is here is in ``README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, Dict, List, NamedTuple, Tuple

import repro
from repro.engine.database import Database
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.ndlog import parse, programs
from repro.net.stats import TrafficStats
from repro.obs import NodeMetrics, Profiler
from repro.runtime import LinkUpdateDriver, RuntimeConfig, SoftStateManager
from repro.topology import build_overlay, transit_stub

import oracle

#: Live quiescence wait, wall seconds; a rep that exceeds it failed.
LIVE_TIMEOUT_S = 60.0

BEACON_PROGRAM = """
materialize(beacon, 1.0, infinity, keys(1, 2)).
B1: seen(@D, S) :- #beacon(@S, @D, C).
"""


class Workload(NamedTuple):
    run: Callable
    #: Cases (independent overlays or graphs) per rep.
    cases: int
    #: Sizes, for the printed header.
    size: str


def case_seeds(seed: int, cases: int) -> List[int]:
    return [seed * 1000 + index for index in range(cases)]


def make_overlay(seed: int, n_nodes: int, degree: int):
    return build_overlay(transit_stub(seed=seed), n_nodes=n_nodes,
                         degree=degree, seed=seed)


# ----------------------------------------------------------------------
# Counters the program exposes publicly, read before and after the timed
# phase (set-up may already have converged the network once).
# ----------------------------------------------------------------------
def engine_counters(engines) -> Dict[str, float]:
    engines = list(engines)
    return {
        "steps": sum(e.steps for e in engines),
        "inferences": sum(e.inferences for e in engines),
        "cancelled": sum(e.cancelled for e in engines),
        "view_changes": sum(
            view.changes for e in engines
            for view in (*e.views.values(), *e.argmin_views.values())
        ),
    }


def cluster_counters(cluster) -> Dict[str, float]:
    stats = cluster.stats
    counts = engine_counters(cluster.nodes.values())
    counts.update({
        "deltas": cluster.total_deltas_processed(),
        "messages": stats.messages,
        "bytes": stats.total_bytes(),
        "netdeltas_shipped": stats.netdeltas_shipped,
        "netdeltas_coalesced": stats.netdeltas_coalesced,
        "events": cluster.clock.events_processed,
    })
    return counts


def read_counters(deployment, obs: Dict[str, bool]) -> Dict[str, float]:
    """Every counter of a deployment; the rule totals, queue peak and
    strand seconds exist only when it was built with the metrics
    registry or the profiler."""
    counts = cluster_counters(deployment.cluster)
    if obs.get("metrics"):
        snapshot = deployment.metrics()
        totals = snapshot.rule_totals().values()
        counts["rule_firings"] = sum(t["firings"] for t in totals)
        counts["rule_inferences"] = sum(t["inferences"] for t in totals)
        counts["queue_peak"] = max(
            node["queue_peak"] for node in snapshot.nodes.values()
        )
    if obs.get("profile"):
        counts["fire_s"] = deployment.profile().total_seconds()
    return counts


def timed_counts(before: Dict[str, float],
                 after: Dict[str, float]) -> Dict[str, float]:
    counts = {key: value - before.get(key, 0) for key, value in after.items()}
    if "queue_peak" in after:
        counts["queue_peak"] = after["queue_peak"]  # a maximum, not a sum
    return counts


def timed_traffic(stats: TrafficStats, since: float, nodes: int) -> float:
    """Peak per-node kB/s over the records of the timed phase."""
    window = TrafficStats(
        records=[r for r in stats.records if r[0] >= since]
    )
    return window.peak_per_node_kbps(nodes)


def pass_seconds(compiled) -> Dict[str, float]:
    return {f"pass_{snap.name}_s": snap.elapsed for snap in compiled.trace}


# ----------------------------------------------------------------------
# cold-start
# ----------------------------------------------------------------------
COLD_NODES, COLD_DEGREE = 16, 3


def cold_start(seed, sw, tracer, obs):
    with sw.setup():
        program = tracer.call("ndlog", "parse", programs.shortest_path)
        compiled = tracer.call("api", "compile", repro.compile, program,
                               passes=["aggsel", "localize"])
        overlay = tracer.call("topology", "build", make_overlay, seed,
                              COLD_NODES, COLD_DEGREE)
        deployment = tracer.call(
            "runtime.cluster", "deploy", compiled.deploy, topology=overlay,
            link_loads={"link": "latency"}, **obs)
        tracker = deployment.watch("shortestPath")
    before = read_counters(deployment, obs)
    with sw.timed():
        deployment.advance()
    counts = timed_counts(before, read_counters(deployment, obs))
    counts["sim_converge_s"] = tracker.convergence_time()
    counts["peak_node_kbps"] = deployment.stats.peak_per_node_kbps(COLD_NODES)
    counts.update(pass_seconds(compiled))
    if tracer.enabled:
        # Lint is lazy: nothing above paid for it.  Forced once here so
        # a change that makes it eager has a number to show up against.
        tracer.call("analysis", "lint", lambda: compiled.diagnostics)
    checked, mismatches = oracle.check_shortest_paths(
        overlay.link_rows("latency"), deployment.rows("shortestPath"))
    return {"counts": counts, "checked": checked, "mismatches": mismatches,
            "quiescent": deployment.quiescent}


# ----------------------------------------------------------------------
# link-flap
# ----------------------------------------------------------------------
FLAP_NODES = 12
#: Chord i joins node i to node i + 5 (mod 12) for even i: with the ring
#: every node has degree 3.  The *shape* is fixed because the path-vector
#: program enumerates every cycle-free path, whose number swings 30%
#: between random 12-node graphs; the seed draws the costs, the flapping
#: pairs and the updated links.
FLAP_CHORD, FLAP_ROUNDS, FLAP_FLAPS, FLAP_UPDATES = 5, 2, 5, 2
FLAP_BATCH = 64


def flap_graph(rng: random.Random):
    nodes = [f"v{i}" for i in range(FLAP_NODES)]
    pairs = {tuple(sorted((nodes[i], nodes[(i + 1) % FLAP_NODES])))
             for i in range(FLAP_NODES)}
    pairs |= {tuple(sorted((nodes[i], nodes[(i + FLAP_CHORD) % FLAP_NODES])))
              for i in range(0, FLAP_NODES, 2)}
    costs = {pair: rng.randint(1, 10) for pair in sorted(pairs)}
    return nodes, costs


def both_ways(costs) -> List[Tuple[str, str, float]]:
    rows = []
    for (a, b), cost in sorted(costs.items()):
        rows.append((a, b, cost))
        rows.append((b, a, cost))
    return rows


def link_flap(seed, sw, tracer, obs):
    rng = random.Random(seed)
    metrics = NodeMetrics("central") if obs.get("metrics") else None
    profiler = Profiler() if obs.get("profile") else None

    def observed():
        counts = engine_counters([engine])
        counts["deltas"] = engine.steps
        if metrics is not None:
            counts["rule_firings"] = sum(metrics.rule_firings.values())
            counts["rule_inferences"] = sum(metrics.rule_inferences.values())
        if profiler is not None:
            counts["fire_s"] = profiler.total_seconds()
        return counts

    with sw.setup():
        program = tracer.call("ndlog", "parse", programs.shortest_path_safe)
        nodes, costs = flap_graph(rng)
        db = Database.for_program(program)
        db.load_facts("link", both_ways(costs))
        engine = PSNEngine(program, db=db, batch_size=FLAP_BATCH,
                           metrics=metrics, profiler=profiler)
        engine.fixpoint()
    absent = [(a, b) for a in nodes for b in nodes
              if a < b and (a, b) not in costs]
    before = observed()
    with sw.timed():
        for _ in range(FLAP_ROUNDS):
            with sw.round():
                for a, b in rng.sample(absent, FLAP_FLAPS):
                    cost = rng.randint(1, 10)
                    # A link announced and withdrawn between two engine
                    # runs: the queue should net all four to nothing.
                    engine.derive(Fact("link", (a, b, cost)), 1)
                    engine.derive(Fact("link", (b, a, cost)), 1)
                    engine.derive(Fact("link", (a, b, cost)), -1)
                    engine.derive(Fact("link", (b, a, cost)), -1)
                for a, b in rng.sample(sorted(costs), FLAP_UPDATES):
                    step = rng.choice((-1, 1))
                    if not 1 <= costs[(a, b)] + step <= 10:
                        step = -step  # an update that changes nothing is free
                    new = costs[(a, b)] + step
                    costs[(a, b)] = new
                    engine.update("link", (a, b, new))
                    engine.update("link", (b, a, new))
                engine.run()
    counts = timed_counts(before, observed())
    checked, mismatches = oracle.check_shortest_paths(
        both_ways(costs), engine.db.table("shortestPath").rows())
    return {"counts": counts, "checked": checked, "mismatches": mismatches,
            "quiescent": engine.quiescent, "engine": engine, "costs": costs}


# ----------------------------------------------------------------------
# bursty-update
# ----------------------------------------------------------------------
BURSTY_NODES, BURSTY_DEGREE, BURSTY_BURSTS = 12, 3, 2
#: Virtual seconds between bursts: long enough to re-converge in.
BURST_GAP_S = 10.0
#: Share of links a burst re-costs (by up to 10%).  The paper's 10% is 40
#: links of its 100-node overlay and averages itself out; here it would
#: be 3 links, and the work would swing 30% with which 3 (README).
BURST_FRACTION = 1.0
#: Link cost the dynamic workloads route on and re-cost.  With the
#: overlay's ``random`` metric (integers 1-100) the path hunting after a
#: cost rise is heavy-tailed: over 40 seeds the work of a set moved
#: 1.64x between its lightest and heaviest seed, with ``latency`` 1.19x.
BURST_METRIC = "latency"


def bursty_update(seed, sw, tracer, obs):
    last_commit = [0.0]

    def on_commit(now, _fact, _weight):
        last_commit[0] = now

    with sw.setup():
        program = tracer.call("ndlog", "parse",
                              programs.shortest_path_dynamic)
        compiled = tracer.call("api", "compile", repro.compile, program,
                               passes=["aggsel", "localize"])
        overlay = tracer.call("topology", "build", make_overlay, seed,
                              BURSTY_NODES, BURSTY_DEGREE)
        deployment = tracer.call(
            "runtime.cluster", "deploy", compiled.deploy, topology=overlay,
            config=RuntimeConfig(buffer_interval=0.2),
            link_loads={"link": BURST_METRIC}, **obs)
        deployment.subscribe(None, on_commit)
        deployment.advance()
        driver = LinkUpdateDriver(deployment.cluster, metric=BURST_METRIC,
                                  fraction=BURST_FRACTION, seed=seed)
    before = read_counters(deployment, obs)
    started = deployment.now
    quiescent = True
    reconverge = []
    with sw.timed():
        for burst in range(BURSTY_BURSTS):
            with sw.round():
                at = deployment.now
                driver.apply_burst()
                if burst + 1 < BURSTY_BURSTS:
                    deployment.advance(until=at + BURST_GAP_S)
                else:
                    deployment.advance()
            reconverge.append(last_commit[0] - at)
            quiescent = quiescent and deployment.quiescent
    counts = timed_counts(before, read_counters(deployment, obs))
    counts["sim_converge_s"] = sum(reconverge) / len(reconverge)
    counts["peak_node_kbps"] = timed_traffic(deployment.stats, started,
                                             BURSTY_NODES)
    counts.update(pass_seconds(compiled))
    checked, mismatches = oracle.check_shortest_paths(
        driver.current_link_rows(), deployment.rows("shortestPath"))
    return {"counts": counts, "checked": checked, "mismatches": mismatches,
            "quiescent": quiescent}


# ----------------------------------------------------------------------
# soft-state
# ----------------------------------------------------------------------
SOFT_NODES, SOFT_DEGREE, SOFT_ROUNDS = 40, 5, 200
SOFT_REFRESH_S, SOFT_SWEEP_S = 0.5, 0.25


def soft_state(seed, sw, tracer, obs):
    probe = []

    with sw.setup():
        program = tracer.call("ndlog", "parse", parse, BEACON_PROGRAM)
        compiled = tracer.call("api", "compile", repro.compile, program,
                               passes=["localize"], validate=False)
        overlay = tracer.call("topology", "build", make_overlay, seed,
                              SOFT_NODES, SOFT_DEGREE)
        deployment = tracer.call(
            "runtime.cluster", "deploy", compiled.deploy, topology=overlay,
            link_loads={"beacon": "hopcount"}, **obs)
        manager = SoftStateManager(deployment.cluster,
                                   sweep_interval=SOFT_SWEEP_S)
        manager.install()
        links = overlay.link_rows("hopcount")
        rows_by_node: Dict[str, list] = {}
        for row in links:
            rows_by_node.setdefault(row[0], []).append(row)
        manager.schedule_refresh("beacon", rows_by_node,
                                 interval=SOFT_REFRESH_S, rounds=SOFT_ROUNDS)
        reversed_links = {(dst, src) for src, dst, _cost in links}
        # Half way through, while refreshers run: ``seen`` must be
        # exactly the reversed link set.
        deployment.at(
            SOFT_REFRESH_S * SOFT_ROUNDS / 2 + SOFT_REFRESH_S / 5,
            lambda: probe.append(oracle.check_sets_equal(
                deployment.rows("seen"), reversed_links)),
        )
    before = read_counters(deployment, obs)
    with sw.timed():
        deployment.advance()
    counts = timed_counts(before, read_counters(deployment, obs))
    counts["expired"] = manager.expired_count
    counts.update(pass_seconds(compiled))
    # After the last refresh everything must have expired, once each:
    # no row left in either relation, one expiry per link row.
    checked, mismatches = probe[0] if probe else (1, 1)
    leftovers = len(deployment.rows("beacon")) + len(deployment.rows("seen"))
    checked += 3
    mismatches += leftovers + (manager.expired_count != len(links))
    return {"counts": counts, "checked": checked, "mismatches": mismatches,
            "quiescent": deployment.quiescent}


# ----------------------------------------------------------------------
# live-inproc
# ----------------------------------------------------------------------
LIVE_NODES, LIVE_DEGREE, LIVE_BURSTS = 8, 3, 1


def live_inproc(seed, sw, tracer, obs, channels="inproc"):
    async def drive():
        with sw.setup():
            program = tracer.call("ndlog", "parse",
                                  programs.shortest_path_dynamic)
            compiled = tracer.call("api", "compile", repro.compile, program,
                                   passes=["aggsel", "localize"])
            overlay = tracer.call("topology", "build", make_overlay, seed,
                                  LIVE_NODES, LIVE_DEGREE)
            deployment = tracer.call(
                "runtime.cluster", "deploy", compiled.deploy,
                topology=overlay, config=RuntimeConfig(cpu_delay=0.0),
                link_loads={"link": BURST_METRIC}, target="live",
                channels=channels, **obs)
            await deployment.start()
            quiescent = await deployment.quiescent(timeout=LIVE_TIMEOUT_S)
            driver = LinkUpdateDriver(deployment.cluster, metric=BURST_METRIC,
                                      fraction=BURST_FRACTION, seed=seed)
        try:
            before = read_counters(deployment, obs)
            with sw.timed():
                for _ in range(LIVE_BURSTS):
                    with sw.round():
                        driver.apply_burst()
                        quiescent = (
                            await deployment.quiescent(timeout=LIVE_TIMEOUT_S)
                            and quiescent
                        )
            counts = timed_counts(before, read_counters(deployment, obs))
        finally:
            await deployment.stop()
        counts.update(pass_seconds(compiled))
        checked, mismatches = oracle.check_shortest_paths(
            driver.current_link_rows(), deployment.rows("shortestPath"))
        return {"counts": counts, "checked": checked,
                "mismatches": mismatches, "quiescent": quiescent}

    return asyncio.run(drive())


WORKLOADS: Dict[str, Workload] = {
    "cold-start": Workload(
        cold_start, 4,
        f"{COLD_NODES}-node degree-{COLD_DEGREE} transit-stub overlays, "
        f"shortest_path + aggsel,localize, eager transport, sim"),
    "link-flap": Workload(
        link_flap, 1,
        f"{FLAP_NODES}-node ring+chords graph, centralised PSNEngine "
        f"batch {FLAP_BATCH}, {FLAP_ROUNDS} rounds of {FLAP_FLAPS} flaps "
        f"+ {FLAP_UPDATES} cost updates"),
    "bursty-update": Workload(
        bursty_update, 3,
        f"{BURSTY_NODES}-node degree-{BURSTY_DEGREE} overlays, "
        f"shortest_path_dynamic, buffer_interval 0.2, {BURSTY_BURSTS} "
        f"bursts re-costing every link, sim"),
    "soft-state": Workload(
        soft_state, 2,
        f"{SOFT_NODES}-node degree-{SOFT_DEGREE} overlays, beacon program, "
        f"{SOFT_ROUNDS} refresh rounds at {SOFT_REFRESH_S} s, sweep "
        f"{SOFT_SWEEP_S} s, sim"),
    "live-inproc": Workload(
        live_inproc, 4,
        f"{LIVE_NODES}-node degree-{LIVE_DEGREE} overlays, "
        f"shortest_path_dynamic, asyncio in-process channels, cpu_delay 0, "
        f"{LIVE_BURSTS} burst re-costing every link"),
}
