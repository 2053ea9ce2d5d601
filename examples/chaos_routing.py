"""Chaos-testing the dynamic shortest-path protocol (robustness demo).

The paper's correctness theorems assume per-link FIFO, loss-free
delivery (Theorem 4).  This example attacks those assumptions with a
seeded fault schedule -- message drop, duplication, reordering,
corruption, a partition that heals, and a crashed node -- and shows the
two halves of the chaos story:

* with ``reliable=True`` the ack/retransmit transport absorbs every
  message fault and the network converges to the *exact* fault-free
  fixpoint (checked by :class:`repro.chaos.ChaosMonitor`);
* a link is live only while its peer shows signs of life (data, acks,
  or the heartbeats an idle link sends): the crashed-for-good node's
  links expire a lifetime later, the teardown takes the link-update
  path, and the survivors route around the hole;
* a partition longer than a lifetime expires the links it cuts, and
  the first frame across after the heal restores them: the network
  ends on the full topology's fixpoint.

The protocol runs with aggregate selections (``aggsel``): a node
advertises only improvements on its best path, so the fixpoint is the
all-pairs shortest paths however arrivals interleave.  The plain
program keeps each neighbour's *latest* advertisement in a ``path``
slot, so it has no exact fault-free fixpoint to hold a chaotic run to.

The schedule serializes to JSON: the exact scenario that broke a run
can ride along in a bug report and replay bit-for-bit.

Run:  python examples/chaos_routing.py
"""

import repro
from repro.chaos import ChaosMonitor, ChaosSchedule
from repro.ndlog import programs
from repro.net.reliable import LINK_LIFETIME
from repro.topology import build_overlay, transit_stub


def overlay8():
    return build_overlay(transit_stub(seed=5), n_nodes=8, degree=3, seed=5)


compiled = repro.compile(programs.shortest_path_dynamic(),
                         passes=["aggsel", "localize"], provenance=True)

# ----------------------------------------------------------------------
# Act 1: every message fault at once, survived exactly.
# ----------------------------------------------------------------------
schedule = (ChaosSchedule(seed=23)
            .drop(rate=0.1, start=0.0, end=2.0)
            .duplicate(rate=0.1, start=0.0, end=2.0)
            .reorder(rate=0.15, start=0.0, end=2.0)
            .corrupt(rate=0.05, start=0.0, end=1.5)
            .partition(["n1", "n4"], start=0.8, end=1.4)
            .clock_skew("n6", drift=1.02))
print("fault plan:", schedule.to_json()[:72], "...")

monitor = ChaosMonitor(compiled, overlay8())
deployment = compiled.deploy(topology=overlay8(), chaos=schedule,
                             reliable=True)
deployment.advance()
verdict = monitor.check(deployment)
stats = deployment.stats
print(f"chaos run: {verdict.summary()}")
print(f"  {verdict.stats['faults']} faults injected | "
      f"{stats.retransmits} retransmits, {stats.dup_dropped} dups "
      f"dropped, {stats.reorders_healed} reorders healed, "
      f"{stats.malformed_dropped} corrupt frames discarded")
assert verdict.ok

# ----------------------------------------------------------------------
# Act 2: crash a node for good; its links expire and the survivors
# route around it.
# ----------------------------------------------------------------------
dead = "n3"
post_fault = overlay8()
post_fault.links = {pair: meta for pair, meta in post_fault.links.items()
                    if dead not in pair}
monitor = ChaosMonitor(compiled, post_fault)
deployment = compiled.deploy(
    topology=overlay8(),
    reliable=True,
    chaos=ChaosSchedule(seed=8).crash(dead, at=0.02),
)
deployment.advance()
verdict = monitor.check(deployment, exclude_nodes=[dead])
print(f"crash run: {verdict.summary()}")
print(f"  {deployment.stats.links_torn_down} links torn down after "
      f"{dead} crashed; survivors converged on the post-fault topology")
assert verdict.ok
assert deployment.stats.links_torn_down > 0

# ----------------------------------------------------------------------
# Act 3: a partition outlives a link lifetime, then heals.  A crash or
# cut is noticed a lifetime after it, and heartbeats run on daemon
# timers (advance() alone returns once only they are left), so the run
# advances past the heal.
# ----------------------------------------------------------------------
heal = 10 * LINK_LIFETIME
monitor = ChaosMonitor(compiled, overlay8())
deployment = compiled.deploy(
    topology=overlay8(), reliable=True,
    chaos=ChaosSchedule(seed=1).partition(["n2"], start=0.01, end=heal),
)
deployment.advance(until=heal + 5 * LINK_LIFETIME)
verdict = monitor.check(deployment)
print(f"healed partition: {verdict.summary()}")
print(f"  {deployment.stats.links_torn_down} link ends expired during the "
      f"{heal:.0f}s cut and were restored after it")
assert verdict.ok
assert deployment.stats.links_torn_down > 0
print("ok")
