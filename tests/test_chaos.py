"""Chaos harness tests: schedule DSL, deterministic replay, reliable
delivery under injected faults, the convergence watchdog, and the
hardened wire path.

The scenarios follow the acceptance bar of the chaos work: a seeded
fault plan on an 8-node overlay must converge to the *exact* fault-free
fixpoint with ``reliable=True`` (provenance auditor clean), the same
plan without the reliable layer must demonstrably lose or corrupt
state, and identical seeds must replay identical fault traces.
"""

import pytest

import repro
from repro.chaos import ChaosMonitor, ChaosSchedule, Fault
from repro.errors import NetworkError
from repro.ndlog import programs
from repro.net.live import decode_message, encode_message
from repro.net.message import Message, NetDelta
from repro.net.reliable import Flow
from repro.runtime import RuntimeConfig
from repro.topology import build_overlay, transit_stub


def overlay8():
    return build_overlay(transit_stub(seed=5), n_nodes=8, degree=3, seed=5)


@pytest.fixture(scope="module")
def sp_compiled():
    return repro.compile(programs.shortest_path_dynamic(),
                         passes=["localize"])


@pytest.fixture(scope="module")
def sp_confluent():
    """The same protocol with aggregate selections, for the tests that
    hold a lossy run to the *exact* fault-free fixpoint.  A node then
    advertises only improvements on its best path and the fixpoint is
    the all-pairs shortest paths however arrivals interleave.  Without
    ``aggsel`` a ``path`` slot holds the neighbour's latest
    advertisement of any of its paths, and what survives depends on
    which one was last: the fault-free run keeps the one-hop routes
    only, while a run that learns of a link late keeps more."""
    return repro.compile(programs.shortest_path_dynamic(),
                         passes=["aggsel", "localize"])


@pytest.fixture(scope="module")
def sp_provenance():
    return repro.compile(programs.shortest_path_dynamic(),
                         passes=["localize"], provenance=True)


def combined_schedule():
    """The acceptance scenario: every message fault plus a partition
    that heals, on one seed."""
    return (ChaosSchedule(seed=23)
            .drop(rate=0.1, start=0.0, end=2.0)
            .duplicate(rate=0.1, start=0.0, end=2.0)
            .reorder(rate=0.15, start=0.0, end=2.0)
            .corrupt(rate=0.05, start=0.0, end=1.5)
            .partition(["n1", "n4"], start=0.8, end=1.4)
            .clock_skew("n6", drift=1.02))


class TestScheduleDSL:
    def test_json_round_trip_is_exact(self):
        schedule = combined_schedule().crash("n2", at=1.0, restart=2.0)
        assert ChaosSchedule.from_json(schedule.to_json()) == schedule

    def test_malformed_json_is_a_network_error(self):
        with pytest.raises(NetworkError, match="malformed"):
            ChaosSchedule.from_json("{nope")

    def test_unknown_fault_field_is_a_network_error(self):
        with pytest.raises(NetworkError, match="bad fault record"):
            ChaosSchedule.from_dict(
                {"seed": 1, "faults": [{"kind": "drop", "sauce": 1}]}
            )

    @pytest.mark.parametrize("bad", [
        lambda s: s.drop(rate=1.5),
        lambda s: s.drop(rate=0.1, start=2.0, end=1.0),
        lambda s: s.partition([], start=0.0),
        lambda s: s.crash("n0", at=1.0, restart=0.5),
        lambda s: s.clock_skew("n0", drift=0.0),
        lambda s: s.reorder(rate=0.1, min_delay=0.2, max_delay=0.1),
    ])
    def test_invalid_faults_rejected(self, bad):
        with pytest.raises(NetworkError):
            bad(ChaosSchedule(seed=1))

    def test_fault_windows_and_link_scope(self):
        fault = Fault("drop", start=1.0, end=2.0, rate=0.5,
                      link=("a", "b"))
        assert not fault.active(0.5)
        assert fault.active(1.0) and fault.active(1.999)
        assert not fault.active(2.0)
        assert fault.on_link("a", "b") and fault.on_link("b", "a")
        assert not fault.on_link("a", "c")
        assert Fault("drop").active(1e9)  # end=None: until the run ends


class TestReliableProtocol:
    """Unit coverage of the per-direction Flow state machine."""

    def make_flow(self):
        return Flow("a", "b", rto_base=0.1)

    def test_cumulative_ack_clears_and_resets_backoff(self):
        flow = self.make_flow()
        for _ in range(3):
            flow.stamp(Message(src="a", dst="b", deltas=()))
        flow.backoff(2.0, 1.0)
        assert flow.retries == 1 and flow.rto == pytest.approx(0.2)
        assert flow.absorb_ack(2)  # covers seqs 1 and 2
        assert list(flow.unacked) == [3]
        assert flow.retries == 0 and flow.rto == pytest.approx(0.1)

    def test_stale_ack_does_not_reset_backoff(self):
        flow = self.make_flow()
        flow.stamp(Message(src="a", dst="b", deltas=()))
        assert flow.absorb_ack(1)
        flow.stamp(Message(src="a", dst="b", deltas=()))
        flow.backoff(2.0, 1.0)
        assert not flow.absorb_ack(1)  # duplicate of an old ack
        assert flow.retries == 1

    def test_backoff_caps_at_rto_max(self):
        flow = self.make_flow()
        for _ in range(10):
            flow.backoff(2.0, 0.5)
        assert flow.rto == pytest.approx(0.5)
        assert flow.retries == 10

    def test_receiver_dedups_and_reassembles_in_order(self):
        flow = self.make_flow()
        m = {s: Message(src="a", dst="b", deltas=(), seq=s)
             for s in range(1, 5)}
        ready, dup, healed = flow.admit(2, m[2])  # gap: buffered
        assert (ready, dup, healed) == ([], False, 0)
        ready, dup, healed = flow.admit(2, m[2])  # duplicate of buffered
        assert (ready, dup, healed) == ([], True, 0)
        ready, dup, healed = flow.admit(1, m[1])  # heals the gap
        assert [r.seq for r in ready] == [1, 2] and healed == 1
        ready, dup, healed = flow.admit(1, m[1])  # duplicate of delivered
        assert (ready, dup, healed) == ([], True, 0)
        ready, _, _ = flow.admit(3, m[3])
        assert [r.seq for r in ready] == [3]


class TestWireHardening:
    def test_decode_round_trip(self):
        message = Message(src="a", dst="b",
                          deltas=(NetDelta("link", ("a", "b", 1.0), 1),),
                          seq=7, ack=3)
        decoded = decode_message(encode_message(message))
        assert decoded.src == "a" and decoded.seq == 7 and decoded.ack == 3
        assert decoded.deltas == message.deltas

    @pytest.mark.parametrize("blob", [
        b"\xff\x00garbage",
        b"{}",
        b'{"src": 3, "dst": "b", "deltas": []}',
        encode_message(Message(src="a", dst="b", deltas=()))[:-4],
    ])
    def test_malformed_datagrams_raise_network_error(self, blob):
        with pytest.raises(NetworkError, match="malformed"):
            decode_message(blob)


class TestDeterministicReplay:
    def test_identical_seeds_replay_identical_traces(self, sp_compiled):
        traces = []
        for _ in range(2):
            deployment = sp_compiled.deploy(
                topology=overlay8(), chaos=combined_schedule(),
                reliable=True,
            )
            deployment.advance()
            traces.append(tuple(deployment.cluster.chaos.trace))
        assert traces[0] == traces[1]
        assert len(traces[0]) > 100  # the plan really fired

    def test_different_seeds_diverge(self, sp_compiled):
        traces = []
        for seed in (23, 24):
            schedule = ChaosSchedule(seed=seed).drop(rate=0.2)
            deployment = sp_compiled.deploy(
                topology=overlay8(), chaos=schedule, reliable=True,
            )
            deployment.advance()
            traces.append(tuple(deployment.cluster.chaos.trace))
        assert traces[0] != traces[1]


class TestLossyConvergence:
    """Lossy links + reliable transport must reach the exact fault-free
    fixpoint (shortest-path and the DSR-style on-demand magic form)."""

    @pytest.mark.parametrize("loss_rate", [0.05, 0.2])
    def test_sim_shortest_path_converges_under_loss(
        self, sp_confluent, loss_rate
    ):
        monitor = ChaosMonitor(sp_confluent, overlay8())
        deployment = sp_confluent.deploy(
            topology=overlay8(),
            chaos=ChaosSchedule(seed=11).drop(rate=loss_rate),
            reliable=True,
        )
        deployment.advance()
        verdict = monitor.check(deployment)
        assert verdict.ok, verdict.summary()
        assert verdict.stats["retransmits"] > 0

    @pytest.mark.parametrize("loss_rate", [0.05, 0.2])
    def test_sim_dsr_style_magic_converges_under_loss(self, loss_rate):
        compiled = repro.compile(programs.multi_query_magic(),
                                 passes=["localize"])
        topology = overlay8()
        src, dst = topology.nodes[0], topology.nodes[-1]
        monitor = ChaosMonitor(compiled, topology,
                               link_loads={"link": "hopcount"})
        monitor.inject(src, "magicQuery", (src, "q0", dst))
        deployment = compiled.deploy(
            topology=topology, link_loads={"link": "hopcount"},
            chaos=ChaosSchedule(seed=11).drop(rate=loss_rate),
            reliable=True,
        )
        deployment.inject(src, "magicQuery", (src, "q0", dst))
        deployment.advance()
        verdict = monitor.check(deployment)
        assert verdict.ok, verdict.summary()
        assert deployment.rows("queryResult")  # the query got an answer

    @pytest.mark.parametrize("loss_rate", [0.05, 0.2])
    def test_live_inproc_converges_under_loss(self, sp_confluent, loss_rate):
        monitor = ChaosMonitor(sp_confluent, overlay8())
        live = sp_confluent.deploy(
            topology=overlay8(), target="live",
            chaos=ChaosSchedule(seed=11).drop(rate=loss_rate),
            reliable=True,
        )
        assert live.converge(timeout=120.0)
        verdict = monitor.check(live)
        assert verdict.ok, verdict.summary()
        assert verdict.stats["retransmits"] > 0

    def test_live_udp_converges_under_loss(self, sp_confluent):
        monitor = ChaosMonitor(sp_confluent, overlay8())
        live = sp_confluent.deploy(
            topology=overlay8(), target="live", channels="udp",
            chaos=ChaosSchedule(seed=11).drop(rate=0.1),
            reliable=True,
        )
        try:
            converged = live.converge(timeout=120.0)
        except OSError as exc:  # no loopback sockets in this sandbox
            pytest.skip(f"cannot open UDP sockets: {exc}")
        assert converged
        verdict = monitor.check(live)
        assert verdict.ok, verdict.summary()
        assert verdict.stats["retransmits"] > 0

    def test_raw_transport_diverges_under_loss(self, sp_compiled):
        """Same loss without the reliable layer: facts are lost or stale
        state survives -- the contrast that motivates the transport."""
        deployment = sp_compiled.deploy(
            topology=overlay8(),
            chaos=ChaosSchedule(seed=11).drop(rate=0.2),
        )
        deployment.advance()
        verdict = ChaosMonitor(sp_compiled, overlay8()).check(deployment)
        assert not verdict.fixpoint_match


class TestCombinedScenario:
    """The acceptance scenario: all fault kinds at once."""

    def test_combined_schedule_exact_fixpoint_and_clean_audit(
        self, sp_provenance
    ):
        monitor = ChaosMonitor(sp_provenance, overlay8())
        deployment = sp_provenance.deploy(
            topology=overlay8(), chaos=combined_schedule(), reliable=True,
        )
        deployment.advance()
        verdict = monitor.check(deployment)
        assert verdict.ok, verdict.summary()
        assert verdict.audit_ok is True
        # Faults are drawn per message, so the plan is held to the share
        # of messages it hit (0.08 when every delta was its own message,
        # 0.14 now that a chunk's deltas share one), not to a count.
        assert verdict.stats["faults"] > 0.1 * deployment.stats.messages
        assert verdict.stats["dup_dropped"] > 0
        assert verdict.stats["malformed_dropped"] > 0

    def test_combined_schedule_without_reliable_diverges(self, sp_compiled):
        deployment = sp_compiled.deploy(
            topology=overlay8(), chaos=combined_schedule(),
        )
        deployment.advance()
        verdict = ChaosMonitor(sp_compiled, overlay8()).check(deployment)
        assert not verdict.fixpoint_match

    def test_crash_with_restart_recovers(self, sp_compiled):
        schedule = ChaosSchedule(seed=9).crash("n2", at=0.3, restart=0.9)
        monitor = ChaosMonitor(sp_compiled, overlay8())
        deployment = sp_compiled.deploy(
            topology=overlay8(), chaos=schedule, reliable=True,
        )
        deployment.advance()
        verdict = monitor.check(deployment)
        assert verdict.ok, verdict.summary()


class TestWatchdog:
    def test_watchdog_tears_down_dead_links_and_routes_around(
        self, sp_provenance
    ):
        """Crash without restart: the retry budget exhausts on every
        link of the dead node, the watchdog tears them down through the
        link-update path, and the survivors re-converge to the fixpoint
        of the post-fault topology.  The provenance audit must come
        back clean too -- the crashed node's frozen tables are exempt,
        the survivors' are not."""
        dead = "n3"
        post = overlay8()
        post.links = {k: v for k, v in post.links.items()
                      if dead not in k}
        monitor = ChaosMonitor(sp_provenance, post)
        deployment = sp_provenance.deploy(
            topology=overlay8(),
            config=RuntimeConfig(reliable=True, retry_budget=4),
            chaos=ChaosSchedule(seed=7).crash(dead, at=0.5),
        )
        deployment.advance()
        verdict = monitor.check(deployment, exclude_nodes=[dead])
        assert verdict.ok, verdict.summary()
        assert verdict.audit_ok is True
        # n3 had degree 5 in this overlay: every surviving neighbour's
        # watchdog independently declared it dead.
        assert verdict.stats["links_torn_down"] == 5
        survivors = [n for n in overlay8().nodes if n != dead]
        reached = {row[:2] for node in survivors
                   for row in deployment.rows("path", node=node)}
        # Survivors still route to each other without the dead node.
        for src in survivors[:3]:
            assert any(s == src for s, _d in reached)
