"""The live execution target and the seams it shares with the sim:
Clock conformance (virtual vs wall), the wire format, sim-vs-live
fixpoint equivalence over in-process channels, and UDP convergence."""

import asyncio

import pytest

import repro
from repro.errors import NetworkError
from repro.ndlog import parse, programs
from repro.ndlog.terms import ConstructedTuple
from repro.net.clock import WallClock
from repro.net.link import LinkChannel
from repro.net.live import (
    MAX_DATAGRAM_BYTES,
    QueueChannel,
    UdpChannel,
    UdpFabric,
    decode_message,
    encode_message,
)
from repro.net.message import Message, NetDelta, single
from repro.net.sim import Simulator
from repro.runtime import LiveCluster, LiveDeployment, RuntimeConfig
from repro.topology import build_overlay, transit_stub


# ----------------------------------------------------------------------
# Clock conformance: the same contract on virtual and wall time
# ----------------------------------------------------------------------
def drive_sim(setup, duration):
    clock = Simulator()
    setup(clock)
    clock.run(until=duration)
    return clock


def drive_wall(setup, duration):
    async def main():
        clock = WallClock()
        setup(clock)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + duration + 2.0
        while (clock.pending or clock.now < duration) \
                and loop.time() < deadline:
            await asyncio.sleep(0.005)
        return clock
    return asyncio.run(main())


@pytest.fixture(params=["virtual", "wall"])
def drive(request):
    """Run a scheduling scenario to completion on either clock."""
    return drive_sim if request.param == "virtual" else drive_wall


class TestClockConformance:
    def test_after_fires_in_delay_order(self, drive):
        log = []

        def setup(clock):
            clock.after(0.01, lambda: log.append("a"))
            clock.after(0.09, lambda: log.append("b"))
            clock.after(0.05, lambda: log.append("c"))

        drive(setup, 0.15)
        assert log == ["a", "c", "b"]

    def test_negative_delay_raises(self, drive):
        def setup(clock):
            with pytest.raises(NetworkError):
                clock.after(-0.1, lambda: None)
            with pytest.raises(NetworkError):
                clock.post(-0.1, lambda: None)

        drive(setup, 0.01)

    def test_post_fires_without_a_handle(self, drive):
        log = []
        drive(lambda clock: clock.post(0.01, lambda: log.append("x")), 0.05)
        assert log == ["x"]

    def test_cancellation_prevents_firing_and_releases_pending(self, drive):
        log = []

        def setup(clock):
            handle = clock.after(0.03, lambda: log.append("no"))
            clock.after(0.01, lambda: log.append("yes"))
            handle.cancel()

        clock = drive(setup, 0.1)
        assert log == ["yes"]
        assert clock.pending == 0

    def test_pending_counts_scheduled_events(self, drive):
        observed = []

        def setup(clock):
            for delay in (0.01, 0.02, 0.03):
                clock.after(delay, lambda: None)
            observed.append(clock.pending)

        clock = drive(setup, 0.1)
        assert observed == [3]
        assert clock.pending == 0

    def test_now_reaches_fire_times_and_observation_horizon(self, drive):
        seen = []

        def setup(clock):
            clock.at(0.05, lambda: seen.append(clock.now))

        clock = drive(setup, 0.12)
        assert len(seen) == 1
        # A timer never fires early (wall timers may be a little late).
        assert seen[0] >= 0.05 - 1e-9
        assert clock.now >= 0.12 - 1e-9

    def test_events_scheduled_from_callbacks_run(self, drive):
        log = []

        def setup(clock):
            def chain(n):
                log.append(n)
                if n < 3:
                    clock.after(0.01, lambda: chain(n + 1))

            clock.after(0.01, lambda: chain(0))

        drive(setup, 0.2)
        assert log == [0, 1, 2, 3]


class TestWallClock:
    def test_requires_running_loop(self):
        with pytest.raises(RuntimeError):
            WallClock()

    def test_at_in_the_past_fires_immediately(self):
        async def main():
            clock = WallClock()
            log = []
            await asyncio.sleep(0.02)
            clock.at(0.0, lambda: log.append(clock.now))  # already past
            await asyncio.sleep(0.02)
            return log

        log = asyncio.run(main())
        assert len(log) == 1

    def test_callback_failures_are_captured_not_swallowed_by_loop(self):
        async def main():
            clock = WallClock()
            clock.after(0.0, lambda: 1 / 0)
            await asyncio.sleep(0.02)
            return clock

        clock = asyncio.run(main())
        assert len(clock.failures) == 1
        assert isinstance(clock.failures[0][1], ZeroDivisionError)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_round_trip_preserves_nested_tuples_and_sizes(self):
        message = Message(
            src="n1", dst="n2",
            deltas=(
                NetDelta("path", ("n1", "n2", ("n1", "x", "n2"), 3.5), 1),
                NetDelta("link", ("n1", "n2", 2), -1),
            ),
            shared_bytes=7,
        )
        decoded = decode_message(encode_message(message))
        assert decoded == message
        assert decoded.deltas[0].args[2] == ("n1", "x", "n2")
        assert isinstance(decoded.deltas[0].args[2], tuple)
        assert decoded.size == message.size

    def test_round_trip_constructed_tuples(self):
        value = ConstructedTuple("link", ("a", "b", 5))
        message = single("a", "b", "p", (value, ("a", "b")), 1)
        decoded = decode_message(encode_message(message))
        got = decoded.deltas[0].args[0]
        assert isinstance(got, ConstructedTuple)
        assert got.pred == "link" and got.values == ("a", "b", 5)

    def test_unencodable_value_is_a_clear_error(self):
        message = single("a", "b", "p", (object(),), 1)
        with pytest.raises(NetworkError, match="cannot encode"):
            encode_message(message)


# ----------------------------------------------------------------------
# Channel interface: the live backends share the sim's emulation
# ----------------------------------------------------------------------
class TestChannelUnification:
    def test_queue_channel_matches_link_channel_arrival_times(self):
        """Same emulation model: identical booking on either backend."""
        sim = Simulator()
        messages = [single("a", "b", "p", (i, "x" * i), 1) for i in range(4)]
        kwargs = dict(latency=0.02, bandwidth_bps=8_000)
        link = LinkChannel("a", "b", **kwargs)
        queue = QueueChannel("a", "b", **kwargs)
        link_arrivals = [link.transmit(sim, m, lambda m: None)
                         for m in messages]
        queue_arrivals = [queue.transmit(sim, m, lambda m: None)
                          for m in messages]
        assert link_arrivals == queue_arrivals

    def test_queue_channel_emulated_loss(self):
        sim = Simulator()
        channel = QueueChannel("a", "b", latency=0.0, loss_rate=1.0)
        delivered = []
        channel.transmit(sim, single("a", "b", "p", (1,), 1),
                         delivered.append)
        sim.run()
        assert delivered == []


    def test_udp_channel_refuses_a_frame_no_datagram_can_carry(self):
        """asyncio drops an oversized datagram without raising; the
        channel must fail loudly before anything is booked or sent."""
        sim = Simulator()
        fabric = UdpFabric()
        channel = UdpChannel("a", "b", latency=0.0, fabric=fabric)
        deltas = tuple(
            NetDelta("path", ("a", "b", ("a", "n%d" % i, "b"), float(i)), 1)
            for i in range(1500))
        message = Message(src="a", dst="b", deltas=deltas)
        assert len(encode_message(message)) > MAX_DATAGRAM_BYTES
        with pytest.raises(NetworkError, match="UDP datagram"):
            channel.transmit(sim, message, lambda m: None)
        assert sim.pending == 0 and fabric.in_flight == 0
        assert channel._last_departure == {}


# ----------------------------------------------------------------------
# Sim-vs-live equivalence and UDP convergence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def eight_node_overlay():
    return build_overlay(transit_stub(seed=5), n_nodes=8, degree=3, seed=5)


@pytest.fixture(scope="module")
def sp_compiled():
    return repro.compile(programs.shortest_path_safe(), passes=["localize"])


@pytest.fixture(scope="module")
def sim_fixpoint(sp_compiled, eight_node_overlay):
    deployment = sp_compiled.deploy(topology=eight_node_overlay,
                                    link_loads={"link": "hopcount"})
    deployment.advance()
    return deployment.query_rows()


class TestSimLiveEquivalence:
    def test_inproc_live_reaches_the_sim_fixpoint(
        self, sp_compiled, eight_node_overlay, sim_fixpoint
    ):
        """Same program + topology on the wall clock over asyncio queue
        channels converges to the same shortest-path rows as the
        virtual-clock simulator."""
        live = sp_compiled.deploy(
            topology=eight_node_overlay, link_loads={"link": "hopcount"},
            target="live",
        )
        assert live.converge(timeout=60.0)
        assert live.query_rows() == sim_fixpoint
        assert sim_fixpoint  # the comparison is not vacuous

    def test_udp_live_reaches_the_sim_fixpoint(
        self, sp_compiled, eight_node_overlay, sim_fixpoint
    ):
        live = sp_compiled.deploy(
            topology=eight_node_overlay, link_loads={"link": "hopcount"},
            target="live", channels="udp",
        )
        try:
            converged = live.converge(timeout=60.0)
        except OSError as exc:  # no loopback sockets in this sandbox
            pytest.skip(f"cannot open UDP sockets: {exc}")
        assert converged
        assert live.query_rows() == sim_fixpoint
        fabric = live.cluster.fabric
        assert fabric.datagrams_sent > 0  # deltas really crossed sockets

    def test_udp_live_with_timed_windows_loses_no_frame(
        self, sp_compiled, eight_node_overlay, sim_fixpoint
    ):
        """A buffered flush puts a whole window in one frame; every
        frame must fit a datagram, decode, and be accounted for."""
        live = sp_compiled.deploy(
            topology=eight_node_overlay, link_loads={"link": "hopcount"},
            target="live", channels="udp",
            config=RuntimeConfig(buffer_interval=0.05),
        )
        try:
            converged = live.converge(timeout=60.0)
        except OSError as exc:  # no loopback sockets in this sandbox
            pytest.skip(f"cannot open UDP sockets: {exc}")
        assert converged
        assert live.query_rows() == sim_fixpoint
        fabric = live.cluster.fabric
        stats = live.cluster.stats
        assert stats.netdeltas_shipped > stats.messages  # frames share
        assert fabric.datagrams_sent == fabric.datagrams_received > 0
        assert fabric.malformed_dropped == 0
        assert fabric.in_flight == 0

    def test_live_watch_and_buffered_inject(self, eight_node_overlay):
        """Pre-start watch/inject are replayed once the network is up;
        commit observation runs on wall time."""
        program = parse(
            """
            R1: reach(@D, S) :- #edge(@S, @D).
            Query: reach(@D, S).
            """, name="reach"
        )
        compiled = repro.compile(program, passes=["localize"],
                                 validate=False)
        nodes = eight_node_overlay.nodes
        a, b = nodes[0], eight_node_overlay.neighbors(nodes[0])[0]
        live = compiled.deploy(topology=eight_node_overlay,
                               link_loads={}, target="live")
        tracker = live.watch("reach")
        live.inject(a, "edge", (a, b))
        assert live.converge(timeout=30.0)
        assert live.rows("reach", node=b) == frozenset({(b, a)})
        assert tracker.completion_times()  # observed on the wall clock

    def test_node_failures_surface_at_stop(self, eight_node_overlay):
        async def main():
            compiled = repro.compile(programs.shortest_path_safe(),
                                     passes=["localize"])
            cluster = LiveCluster(eight_node_overlay, compiled,
                                  RuntimeConfig(),
                                  link_loads={"link": "hopcount"})
            await cluster.start()
            cluster._task_failures.append(("n0", RuntimeError("boom")))
            with pytest.raises(NetworkError, match="boom"):
                await cluster.stop()

        asyncio.run(main())

    def test_unknown_backend_rejected(self, sp_compiled, eight_node_overlay):
        with pytest.raises(NetworkError, match="channel backend"):
            LiveDeployment(sp_compiled, eight_node_overlay,
                           channels="carrier-pigeon")

    def test_data_verbs_require_start(self, sp_compiled, eight_node_overlay):
        live = sp_compiled.deploy(topology=eight_node_overlay,
                                  target="live")
        with pytest.raises(NetworkError, match="not started"):
            live.query_rows()

    def test_workload_verbs_after_stop_raise_clearly(
        self, sp_compiled, eight_node_overlay
    ):
        """The wall clock dies with its event loop; post-stop workload
        calls must be a clear library error, not an asyncio 'Event loop
        is closed' from deep inside a timer."""
        live = sp_compiled.deploy(
            topology=eight_node_overlay, link_loads={"link": "hopcount"},
            target="live",
        )
        assert live.converge(timeout=60.0)
        rows = live.query_rows()  # results stay readable
        assert rows
        a = eight_node_overlay.nodes[0]
        with pytest.raises(NetworkError, match="already stopped"):
            live.delete(a, "link", (a, "x", 1))
        with pytest.raises(NetworkError, match="already stopped"):
            live.converge(timeout=1.0)
        assert live.query_rows() == rows

    def test_sim_cluster_run_is_rejected_on_wall_clock(
        self, sp_compiled, eight_node_overlay
    ):
        async def main():
            cluster = LiveCluster(eight_node_overlay, sp_compiled,
                                  RuntimeConfig(),
                                  link_loads={"link": "hopcount"})
            with pytest.raises(NetworkError, match="virtual clock"):
                cluster.run()
            await cluster.start()
            await cluster.stop()

        asyncio.run(main())
