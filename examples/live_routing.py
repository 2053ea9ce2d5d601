"""Shortest-path routing on the live execution target: real wall-clock
time, real UDP datagram sockets on localhost.

The paper's P2 deployment ran NDlog on actual networked hosts; the
reproduction's experiments replay on a virtual-time simulator.  This
example runs the same compiled program on *both* targets over the same
overlay and checks they reach the same fixpoint -- first from a cold
start, then again after a link failure injected while the live network
is running.  Every node is an asyncio task with its own UDP socket;
deltas cross the kernel's loopback path as real datagrams.

Run:  python examples/live_routing.py
"""

import asyncio
import time

import repro
from repro.ndlog import programs
from repro.topology import build_overlay, transit_stub

NODES = 10

# Aggregate selections (Section 5.1.1) prune non-optimal paths before
# they are shipped, and a 0.2ms/delta CPU model keeps the wall-clock
# run short -- the fixpoint is identical either way.
compiled = repro.compile(programs.shortest_path_dynamic(),
                         passes=["aggsel", "localize"])
overlay = build_overlay(transit_stub(seed=7), n_nodes=NODES, degree=3,
                        seed=7)
config = repro.RuntimeConfig(cpu_delay=2e-4)

# -- virtual-time reference: the fixpoint the live run must reach ------
reference = compiled.deploy(topology=overlay, config=config,
                            link_loads={"link": "hopcount"})
reference.advance()
expected = reference.query_rows()

# A link to fail in phase 2 (the same deletion is applied to both
# targets, so the fixpoints stay comparable).
failed_a, failed_b, failed_cost = next(
    (a, b, c) for a, b, c in overlay.link_rows("hopcount") if a < b
)
reference.delete(failed_a, "link", (failed_a, failed_b, failed_cost))
reference.delete(failed_b, "link", (failed_b, failed_a, failed_cost))
reference.advance()
expected_after_failure = reference.query_rows()


async def main() -> None:
    live = compiled.deploy(
        topology=overlay,
        config=config,
        link_loads={"link": "hopcount"},
        target="live",
        channels="udp",
    )
    tracker = live.watch("shortestPath")

    print(f"{NODES}-node overlay, live target over UDP on localhost")
    t0 = time.perf_counter()
    await live.start()
    assert await live.quiescent(timeout=60.0), "live network did not settle"
    elapsed = time.perf_counter() - t0

    fabric = live.fabric
    rows = live.query_rows()
    print(f"converged in {elapsed:.2f}s wall; "
          f"{fabric.datagrams_sent} datagrams sent, "
          f"{fabric.datagrams_received} received, "
          f"{len(tracker.completion_times())} results observed")
    assert rows == expected, "live fixpoint differs from the simulator's"
    print(f"fixpoint matches the virtual-time simulator "
          f"({len(rows)} shortestPath rows)")

    sample = sorted(rows)[0]
    print(f"sample route: {sample[0]} -> {sample[1]} "
          f"path {sample[2]} cost {sample[3]}")

    # -- phase 2: fail a link while the network is live ----------------
    print(f"\nfailing link {failed_a} <-> {failed_b} on the live network")
    live.delete(failed_a, "link", (failed_a, failed_b, failed_cost))
    live.delete(failed_b, "link", (failed_b, failed_a, failed_cost))
    t1 = time.perf_counter()
    assert await live.quiescent(timeout=60.0), "no quiescence after failure"
    print(f"re-converged in {time.perf_counter() - t1:.2f}s wall")
    assert live.query_rows() == expected_after_failure, (
        "post-failure fixpoint differs from the simulator's"
    )
    print("post-failure fixpoint matches the simulator "
          f"({len(expected_after_failure)} rows)")

    await live.stop()
    print("\nlive deployment stopped cleanly")


asyncio.run(main())
