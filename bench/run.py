#!/usr/bin/env python3
"""The benchmark of record: ``python3 bench/run.py``.

Runs the five convergence workloads of :mod:`workloads`, each in a child
process with ``PYTHONHASHSEED=0`` (counts repeat to the byte only under
a pinned hash seed), prints every metric by name and unit, and checks
every rep against :mod:`oracle`.

    python3 bench/run.py                    all five workloads, as a table
    python3 bench/run.py --workload cold-start --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --trace            per-layer metrics, bench/out/trace-*.json
    python3 bench/run.py --check-repeat     two sets, PASS/FAIL against the bounds
    python3 bench/run.py --self-test        the oracle must be able to fail

With exactly one ``--workload`` the last line of standard output is the
JSON object the driver reads: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Names, units and bounds are read from
``BENCHMARK.json``; ``README.md`` says what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
#: A child still running after this many seconds is killed.
CHILD_TIMEOUT_S = 170
DEFAULT_SEED = 1
#: Counts that repeat to the byte on the simulator and the bare engine;
#: --check-repeat holds them to that wherever they are defined.
EXACT_COUNTS = ("bytes", "peak_node_kbps", "sim_converge_s", "messages",
                "deltas", "steps", "inferences")


# ----------------------------------------------------------------------
# Child: one workload, measured
# ----------------------------------------------------------------------
def import_program() -> None:
    """Put this checkout's ``src`` first on the path (``bench/`` is on
    it already: this file is the script) and refuse any other copy of
    the program."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if ROOT not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from this checkout")


#: Counts that are a mean or a maximum over a rep's cases, not a sum.
MEAN_COUNTS = ("sim_converge_s", "peak_node_kbps")
MAX_COUNTS = ("queue_peak",)


def combine(cases: List[dict]) -> dict:
    """One rep's checks and counts from its cases."""
    counts: Dict[str, float] = {}
    for case in cases:
        for key, value in case["counts"].items():
            if key in MAX_COUNTS:
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    for key in MEAN_COUNTS:
        if key in counts:
            counts[key] /= len(cases)
    stalled = any(not case["quiescent"] for case in cases)
    return {
        "counts": counts,
        # fail_frac's terms: rows checked + this rep; mismatches + one
        # if the rep did not reach quiescence.
        "attempted": sum(case["checked"] for case in cases) + 1,
        "failed": sum(case["mismatches"] for case in cases) + stalled,
    }


def run_child(name: str, seed: int, seconds: float, reps: Optional[int],
              trace: bool) -> dict:
    import_program()
    import core
    import layers
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    seeds = workloads.case_seeds(seed, workload.cases)
    tracer = spans.Tracer()
    kept_spans: List[tuple] = []  # of the latest in-process traced rep

    def variant(obs: Dict[str, bool], traced: bool = False, **extra):
        def rep(cycle: int) -> dict:
            stopwatch = core.Stopwatch(tracer if traced else None)
            if traced:
                layers.install(tracer)
                tracer.begin_rep(cycle)
            try:
                cases = [
                    workload.run(case_seed, stopwatch, tracer, obs, **extra)
                    for case_seed in seeds
                ]
            finally:
                if traced:
                    tracer.end_rep()
                    tracer.uninstall()
            sample = {**stopwatch.sample(), **combine(cases)}
            if traced:
                sample["trace"] = tracer.totals()
                if not extra:
                    kept_spans[:] = tracer.spans
                    if name == "live-inproc":
                        sample["codec"] = layers.codec_replay(tracer.captured)
            return sample
        return rep

    variants = {"plain": variant({})}
    if trace:
        full = {"metrics": True, "trace": True, "profile": True}
        if name == "link-flap":
            del full["trace"]  # a bare engine has no delta tracer
        variants["traced"] = variant({}, traced=True)
        variants["full"] = variant(full)
        if name == "cold-start":
            variants["metrics"] = variant({"metrics": True})
        if name == "live-inproc":
            udp = variant({}, traced=True, channels="udp")

            def udp_once(cycle: int) -> Optional[dict]:
                # UDP on this host does not repeat within a tenth
                # (README): one rep, for the ratio only.
                if cycle:
                    return None
                try:
                    return udp(cycle)
                except OSError:
                    return None  # no loopback sockets: the ratio reads 0

            variants["udp"] = udp_once

    # One unmeasured case first: imports, regex and plan caches.
    workload.run(seeds[0], core.Stopwatch(), tracer, {})
    samples = core.measure(variants, seconds, reps)

    plain = samples["plain"]
    # Datagrams may be dropped, even on loopback: the one UDP rep gives a
    # CPU ratio, its rows are not held against the program.
    checked = [sample for variant_name, reps_done in samples.items()
               if variant_name != "udp" for sample in reps_done]
    spread = {
        key: core.quartiles([sample[key] for sample in plain])
        for key in ("setup_s", "converge_cpu_s", "converge_cpu_raw_s")
    }
    # Rounds of one rep run on different overlays: their mean is one
    # sample, or the median would sit between two overlays' clusters.
    spread["reconverge_wall_s"] = core.quartiles(
        [statistics.fmean(sample["round_wall_s"]) for sample in plain])
    result = {
        "workload": name,
        "seed": seed,
        "size": f"{workload.cases} x {workload.size}",
        "reps": len(plain),
        "attempted": sum(s["attempted"] for s in checked),
        "failed": sum(s["failed"] for s in checked),
        "spread": spread,
        "counts": {
            key: statistics.median(s["counts"][key] for s in plain)
            for key in plain[0]["counts"]
        },
        "kernel_ms": statistics.median(s["kernel_ms"] for s in plain),
        "end_to_end": {
            "converge_cpu_s": spread["converge_cpu_s"]["median"],
            "reconverge_wall_s": spread["reconverge_wall_s"]["median"],
            "setup_s": spread["setup_s"]["median"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if trace:
        result["per_layer"] = layers.layer_metrics(samples)
        OUT.mkdir(exist_ok=True)
        spans.write_chrome_trace(OUT / f"trace-{name}.json", kept_spans,
                                 name)
    return result


# ----------------------------------------------------------------------
# Parent: children, tables, the driver's JSON line
# ----------------------------------------------------------------------
def spawn(name: str, args) -> dict:
    """Run one workload in a child with the hash seed pinned; the
    child's last output line is its result."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.reps is not None:
        command += ["--reps", str(args.reps)]
    done = subprocess.run(
        command, env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def fail_frac(result: dict) -> float:
    return result["failed"] / result["attempted"]


def print_result(result: dict) -> None:
    name = result["workload"]
    counts = result["counts"]
    print(f"\n== {name}  seed {result['seed']}  reps {result['reps']}  "
          f"host kernel {result['kernel_ms']:.2f} ms")
    print(f"   {result['size']}")
    for metric in SPEC["end_to_end"]:
        line = (f"   {metric['name']:<22}"
                f"{result['end_to_end'][metric['name']]:>12.4f} "
                f"{metric['unit']:<5}")
        quartiles = result["spread"].get(metric["name"])
        if quartiles:
            line += (f" q1 {quartiles['q1']:.4f}  q3 {quartiles['q3']:.4f}"
                     f"  n {quartiles['n']}")
        print(line)
    print(f"   {'converge_cpu_raw_s':<22}"
          f"{result['spread']['converge_cpu_raw_s']['median']:>12.4f} s    "
          f" host seconds, unscaled")
    if "bytes" in counts:
        print(f"   {'wire_mb':<22}{counts['bytes'] / 1e6:>12.6f} MB")
    for metric, unit in (("sim_converge_s", "s"), ("peak_node_kbps", "kB/s")):
        if metric in counts:
            print(f"   {metric:<22}{counts[metric]:>12.4f} {unit}")
    print(f"   {'fail_frac':<22}{fail_frac(result):>12.4f}       "
          f"{result['failed']} of {result['attempted']} checks")
    if "per_layer" in result:
        print("   -- per layer, traced set, times in reference seconds")
        for metric in SPEC["per_layer"]:
            value = result["per_layer"][metric["name"]]
            print(f"   {metric['name']:<40}{value:>14.6g} {metric['unit']}")
        print(f"   spans: bench/out/trace-{name}.json")


def driver_line(result: dict, trace: int) -> str:
    """The one JSON object the driver reads."""
    kind = "per_layer" if trace else "end_to_end"
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": result[kind][metric["name"]],
                             "unit": metric["unit"]}
            for metric in SPEC[kind]
        },
    })


def check_repeat(names: List[str], args) -> int:
    """Two untraced sets on the same checkout: timings within their
    bounds of each other, exact counts equal to the byte."""
    failures = 0
    for name in names:
        first, second = spawn(name, args), spawn(name, args)
        print(f"\n== {name}  seed {args.seed}")
        for metric in SPEC["end_to_end"]:
            a = first["end_to_end"][metric["name"]]
            b = second["end_to_end"][metric["name"]]
            ok = abs(b - a) / a <= metric["bound"]
            failures += not ok
            print(f"   {metric['name']:<22}{a:>12.4f} {b:>12.4f} "
                  f"{metric['unit']:<5}diff {abs(b - a) / a:7.2%}  "
                  f"bound {metric['bound']:.0%}  {'PASS' if ok else 'FAIL'}")
        if name != "live-inproc":
            for key in EXACT_COUNTS:
                if key in first["counts"]:
                    a, b = first["counts"][key], second["counts"][key]
                    failures += a != b
                    print(f"   {key:<22}{a:>12.6g} {b:>12.6g}      "
                          f"exact  {'PASS' if a == b else 'FAIL'}")
        for result in (first, second):
            failures += result["failed"] != 0
            print(f"   {'fail_frac':<22}{fail_frac(result):>12.4f}"
                  f"{'':>19}must be 0  "
                  f"{'PASS' if result['failed'] == 0 else 'FAIL'}")
    print("\ncheck-repeat:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


def self_test() -> int:
    """A check that cannot fail is no check: corrupt one link cost after
    convergence and the Dijkstra oracle must say so."""
    import_program()
    import core
    import oracle
    import spans
    import workloads

    case = workloads.link_flap(DEFAULT_SEED, core.Stopwatch(),
                               spans.Tracer(), {})
    rows = case["engine"].db.table("shortestPath").rows()
    checked, clean = oracle.check_shortest_paths(
        workloads.both_ways(case["costs"]), rows)
    corrupted = dict(case["costs"])
    pair = min(corrupted)
    corrupted[pair] += 1
    _checked, caught = oracle.check_shortest_paths(
        workloads.both_ways(corrupted), rows)
    print(f"self-test: {checked} rows checked, {clean} mismatches; "
          f"{caught} after corrupting link {pair[0]}-{pair[1]}")
    ok = clean == 0 and caught > 0
    print("self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="One benchmark of record: five convergence workloads.")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed: topologies, costs, bursts")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--reps", type=int,
                        help="exact rep count, instead of --seconds")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="run the traced set: per-layer metrics")
    parser.add_argument("--json", metavar="PATH",
                        help="also write every result to PATH")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the untraced sets twice and compare")
    parser.add_argument("--self-test", action="store_true",
                        help="seeded negative for the oracle")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(run_child(args.workload[0], args.seed, args.seconds,
                                   args.reps, bool(args.trace))))
        return 0
    if args.self_test:
        return self_test()
    names = args.workload or WORKLOAD_NAMES
    if args.check_repeat:
        return check_repeat(names, args)
    results = [spawn(name, args) for name in names]
    for result in results:
        print_result(result)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))
    if len(results) == 1:
        print(driver_line(results[0], args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
