"""The live execution target and the seams it shares with the sim:
Clock conformance (virtual vs wall), the wire format, sim-vs-live
fixpoint equivalence over in-process channels, UDP convergence, and
the event-driven quiescence wait."""

import asyncio
import json
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.chaos import ChaosSchedule
from repro.chaos.inject import ChaosChannel, ChaosController
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
from repro.net.reliable import HEARTBEAT
from repro.net.sim import Simulator
from repro.net.stats import TrafficStats
from repro.runtime import LinkUpdateDriver, LiveCluster, RuntimeConfig
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
        clock.bind(asyncio.get_running_loop())
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


    def test_daemons_fire_but_are_never_pending(self, drive):
        observed, log = [], []

        def setup(clock):
            def tick():
                log.append("tick")
                clock.daemon(0.01, tick)

            clock.daemon(0.01, tick)
            cancelled = clock.daemon(0.02, lambda: log.append("no"))
            cancelled.cancel()
            cancelled.cancel()
            observed.append(clock.pending)

        clock = drive(setup, 0.05)
        assert observed == [0]
        assert log.count("tick") >= 3 and "no" not in log
        assert clock.pending == 0


class TestWallClock:
    def test_pending_excludes_daemons_held_or_armed(self):
        """A daemon held before ``bind`` counts nowhere, fires once
        bound, and one due after ``close`` does not fire."""
        clock = WallClock()
        log = []
        clock.daemon(0.01, lambda: log.append("held"))
        clock.after(0.02, lambda: log.append("timer"))
        assert clock.pending == 1

        async def main():
            clock.bind(asyncio.get_running_loop())
            clock.daemon(0.05, lambda: log.append("after close"))
            await asyncio.sleep(0.03)
            assert clock.pending == 0
            clock.close()
            await asyncio.sleep(0.04)

        asyncio.run(main())
        assert log == ["held", "timer"]
        assert clock.failures == []

    def test_holds_timers_until_bound_and_refuses_them_once_closed(self):
        """Built outside any event loop, the clock reads 0.0 and holds
        what is scheduled; ``bind`` arms the held timers (in delay
        order; one cancelled while held never fires), and after
        ``close`` scheduling is a clear error."""
        clock = WallClock()
        log = []
        clock.after(0.03, lambda: log.append("c"))
        cancelled = clock.after(0.02, lambda: log.append("cancelled"))
        clock.post(0.01, lambda: log.append("a"))
        clock.at(0.025, lambda: log.append("b"))
        assert clock.now == 0.0
        assert clock.pending == 4
        cancelled.cancel()
        assert clock.pending == 3

        async def main():
            clock.bind(asyncio.get_running_loop())
            while clock.pending:
                await asyncio.sleep(0.005)

        asyncio.run(asyncio.wait_for(main(), timeout=5.0))
        assert log == ["a", "b", "c"]
        clock.close()
        with pytest.raises(NetworkError, match="already stopped"):
            clock.after(0.0, lambda: None)
        with pytest.raises(NetworkError, match="already stopped"):
            clock.post(0.0, lambda: None)
        assert clock.pending == 0

    def test_at_in_the_past_fires_immediately(self):
        async def main():
            clock = WallClock()
            clock.bind(asyncio.get_running_loop())
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
            clock.bind(asyncio.get_running_loop())
            clock.after(0.0, lambda: 1 / 0)
            await asyncio.sleep(0.02)
            return clock

        clock = asyncio.run(main())
        assert len(clock.failures) == 1
        assert isinstance(clock.failures[0][1], ZeroDivisionError)

    def test_keyboard_interrupt_in_a_callback_leaves_the_loop(self):
        """An interrupt is not a callback failure: it is not filed on
        ``failures`` and the run does not carry on behind it."""
        clock = WallClock()
        log = []

        def interrupt():
            raise KeyboardInterrupt

        async def main():
            clock.bind(asyncio.get_running_loop())
            clock.after(0.0, interrupt)
            clock.after(0.05, lambda: log.append("ran on"))
            await asyncio.sleep(1.0)

        with pytest.raises(KeyboardInterrupt):
            asyncio.run(main())
        assert clock.failures == [] and log == []


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
# Wire hardening: decode_message raises NetworkError and nothing else
# ----------------------------------------------------------------------
def decoded_or_refused(data):
    """``decode_message(data)``, or ``None`` where it raised
    ``NetworkError`` (any other exception fails the test).  A frame it
    accepts must be one the rest of the stack can use as it is."""
    try:
        message = decode_message(data)
    except NetworkError:
        return None
    assert isinstance(message.src, str) and isinstance(message.dst, str)
    for number in (message.shared_bytes, message.seq, message.ack):
        assert number is None or (type(number) is int and number >= 0)
    for delta in message.deltas:
        hash(delta)
        assert isinstance(delta.pred, str)
        assert isinstance(delta.args, tuple)
        assert type(delta.weight) is int and delta.weight
        assert delta.trace is None or (
            type(delta.trace) is int and delta.trace >= 0)
    assert isinstance(message.size, int)
    return message


wire_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10 ** 6)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3).map(tuple)
                   | st.builds(ConstructedTuple, st.text(max_size=4),
                               st.lists(inner, max_size=3).map(tuple))),
    max_leaves=8)
wire_deltas = st.builds(
    NetDelta, st.text(min_size=1, max_size=6),
    st.lists(wire_values, max_size=4).map(tuple),
    st.integers(-3, 3).filter(bool), st.none() | st.integers(0, 99))
wire_messages = st.builds(
    Message, st.text(max_size=4), st.text(max_size=4),
    st.lists(wire_deltas, max_size=4).map(tuple), st.integers(0, 64),
    st.none() | st.integers(0, 99), st.none() | st.integers(0, 99))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["T", "C", "v", "x"]),
                                     inner, max_size=2)),
    max_leaves=6)
FUZZ = settings(max_examples=300, deadline=None)


def json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from json_paths(value, path + (index,))


def deep_frame(levels):
    return (b'{"s":"a","d":"b","h":0,"t":[["p",1,['
            + b"[" * levels + b"]" * levels + b"]]]}")


class TestWireHardening:
    @given(message=wire_messages)
    @FUZZ
    def test_every_valid_frame_round_trips(self, message):
        decoded = decoded_or_refused(encode_message(message))
        assert decoded == message
        assert ([d.trace for d in decoded.deltas]
                == [d.trace for d in message.deltas])

    @given(data=st.binary(max_size=256))
    @FUZZ
    def test_random_bytes(self, data):
        decoded_or_refused(data)

    @given(message=wire_messages, cut=st.integers(0, 10 ** 4))
    @FUZZ
    def test_truncated_frames(self, message, cut):
        frame = encode_message(message)
        decoded_or_refused(frame[:cut % max(1, len(frame))])

    @given(message=wire_messages, data=st.data())
    @FUZZ
    def test_frames_with_one_field_mutated(self, message, data):
        frame = json.loads(encode_message(message))
        path = data.draw(st.sampled_from(list(json_paths(frame))))
        delete = path and data.draw(st.booleans())
        value = None if delete else data.draw(json_values)
        if not path:
            frame = value
        else:
            parent = frame
            for step in path[:-1]:
                parent = parent[step]
            if delete:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        decoded_or_refused(json.dumps(frame).encode())

    @pytest.mark.parametrize("blob", [
        pytest.param(deep_frame(5000), id="deeper-than-the-parser"),
        pytest.param(deep_frame(100), id="deeper-than-the-bound"),
        pytest.param(b'{"s":"a","d":"b","h":0,"t":[[7,1,["x"]]]}',
                     id="pred"),
        pytest.param(b'{"s":"a","d":"b","h":0,"t":[["p",1,"xy"]]}',
                     id="args"),
        pytest.param(b'{"s":"a","d":"b","h":"zz","t":[]}', id="h"),
        pytest.param(b'{"s":"a","d":"b","h":0,"q":"x","t":[]}', id="q"),
        pytest.param(b'{"s":"a","d":"b","h":0,"a":-1,"t":[]}', id="a"),
        pytest.param(b'{"s":"a","d":"b","h":0,"t":[["p",1,["x"],"7"]]}',
                     id="trace"),
        pytest.param(b'{"s":"a","d":"b","h":0,"t":[["p",1,["x"],-7]]}',
                     id="trace-negative"),
        pytest.param(b'{"s":"a","d":"b","h":0,"t":[["p",1,[{"T":"xy"}]]]}',
                     id="tuple"),
    ])
    def test_malformed_fields_are_refused(self, blob):
        with pytest.raises(NetworkError, match="malformed"):
            decode_message(blob)

    def test_the_fabric_counts_a_refused_frame(self):
        fabric = UdpFabric()
        fabric.stats = TrafficStats()
        fabric.on_message = lambda message: pytest.fail("delivered")
        fabric._receive(deep_frame(5000))
        assert fabric.malformed_dropped == fabric.stats.malformed_dropped == 1


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

    def test_queue_channel_chaos_drop(self):
        sim = Simulator()
        cluster = SimpleNamespace(clock=sim, stats=TrafficStats(),
                                  observer=None)
        channel = ChaosChannel(
            QueueChannel("a", "b", latency=0.0),
            ChaosController(cluster, ChaosSchedule(seed=1).drop(rate=1.0)),
        )
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
        assert live.fabric.datagrams_sent > 0  # deltas crossed sockets

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
        fabric = live.fabric
        stats = live.stats
        assert stats.netdeltas_shipped > stats.messages  # frames share
        assert fabric.datagrams_sent == fabric.datagrams_received > 0
        assert fabric.malformed_dropped == 0
        assert fabric.in_flight == 0

    def test_live_watch_and_inject_before_start(self, eight_node_overlay):
        """Pre-start watch/inject run at the call and their ticks wait
        for start(); commit observation runs on wall time."""
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
            sp_compiled.deploy(topology=eight_node_overlay, target="live",
                               channels="carrier-pigeon")

    def test_readers_answer_before_start(self, sp_compiled,
                                         eight_node_overlay):
        """The cluster is built at deploy(): before start() the tables
        are there, still empty (the link relations wait behind the held
        clock), and config / now answer too."""
        live = sp_compiled.deploy(topology=eight_node_overlay,
                                  target="live")
        assert live.rows("link") == frozenset()
        assert live.query_rows() == frozenset()
        assert live.config == RuntimeConfig()
        assert live.now == 0.0
        assert live.clock.pending > 0  # the nodes' first ticks, held

    def test_a_verb_naming_an_unknown_node_fails_at_the_call(
        self, sp_compiled, eight_node_overlay, sim_fixpoint
    ):
        """Before start() a verb runs when it is called: an unknown node
        is refused there, before any node task exists, and nothing else
        the deployment was given is dropped."""
        live = sp_compiled.deploy(
            topology=eight_node_overlay, link_loads={"link": "hopcount"},
            target="live",
        )
        a = eight_node_overlay.nodes[0]
        with pytest.raises(NetworkError, match="unknown node 'nope'"):
            live.inject("nope", "link", ("nope", a, 1.0))
        assert not live._tasks
        assert live.converge(timeout=60.0)
        assert live.query_rows() == sim_fixpoint

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


# ----------------------------------------------------------------------
# Quiescence: an event-driven wait with one exact idle check
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sp_dynamic():
    return repro.compile(programs.shortest_path_dynamic(),
                         passes=["aggsel", "localize"])


def seeded_overlay(seed):
    return build_overlay(transit_stub(seed=seed), n_nodes=8, degree=3,
                         seed=seed)


def deploy_dynamic(compiled, overlay, **kwargs):
    return compiled.deploy(topology=overlay, link_loads={"link": "latency"},
                           config=RuntimeConfig(cpu_delay=0.0), **kwargs)


def burst(deployment, seed):
    LinkUpdateDriver(deployment, metric="latency", fraction=1.0,
                     seed=seed).apply_burst()


def stamp_work(live, stamps):
    """Append ``time.monotonic()`` to ``stamps`` as every timer callback
    and every node dispatch of ``live`` returns (install before start)."""
    fire = live.clock._fire

    def fired(timer, callback):
        fire(timer, callback)
        stamps.append(time.monotonic())

    live.clock._fire = fired
    for node in live.nodes.values():
        def received(deltas, origin=None, receive=node.receive):
            receive(deltas, origin)
            stamps.append(time.monotonic())

        node.receive = received


class TestQuiescence:
    @pytest.mark.parametrize("seed", range(10))
    def test_the_first_idle_check_is_the_fixpoint(self, sp_dynamic, seed):
        """One idle check is enough: when quiescent() returns True after
        a burst, every node already holds the simulator's fixpoint."""
        overlay = seeded_overlay(seed)
        sim = deploy_dynamic(sp_dynamic, overlay)
        sim.advance()
        burst(sim, seed)
        sim.advance()

        async def main():
            live = deploy_dynamic(sp_dynamic, overlay, target="live")
            await live.start()
            try:
                assert await live.quiescent(timeout=30.0)
                burst(live, seed)
                assert await live.quiescent(timeout=30.0)
                return live.query_rows()
            finally:
                await live.stop()

        rows = asyncio.run(main())
        assert rows == sim.query_rows()
        assert rows  # the comparison is not vacuous

    def test_returns_within_5ms_of_the_last_timer_or_dispatch(
            self, sp_dynamic):
        async def main():
            live = deploy_dynamic(sp_dynamic, seeded_overlay(5),
                                  target="live")
            stamps = []
            stamp_work(live, stamps)
            lags = []
            await live.start()
            try:
                for step in range(2):
                    if step:
                        burst(live, 5)
                    count = len(stamps)
                    assert await live.quiescent(timeout=30.0)
                    lags.append(time.monotonic() - stamps[-1])
                    assert len(stamps) > count  # work happened
            finally:
                await live.stop()
            return lags

        lags = asyncio.run(main())
        assert max(lags) < 0.005, lags

    def test_an_idle_deployment_returns_without_sleeping(
            self, sp_compiled, eight_node_overlay):
        async def main():
            live = sp_compiled.deploy(topology=eight_node_overlay,
                                      link_loads={"link": "hopcount"},
                                      target="live")
            await live.start()
            try:
                assert await live.quiescent(timeout=30.0)
                waiting = live.quiescent(timeout=30.0)
                # The first step of the coroutine finishes it: it never
                # suspends, so it never reaches the event loop.
                with pytest.raises(StopIteration) as finished:
                    waiting.send(None)
                return finished.value.value
            finally:
                await live.stop()

        assert asyncio.run(main()) is True

    def test_heartbeats_hold_no_quiescence_open(
            self, sp_compiled, eight_node_overlay):
        """Under ``reliable=True`` every link heartbeats on daemon
        timers for as long as the deployment runs; the network is
        quiescent all the same."""
        async def main():
            live = sp_compiled.deploy(topology=eight_node_overlay,
                                      link_loads={"link": "hopcount"},
                                      target="live", reliable=True)
            await live.start()
            try:
                assert await live.quiescent(timeout=30.0)
                acks = live.stats.acks_sent
                await asyncio.sleep(3 * HEARTBEAT)
                assert live.stats.acks_sent > acks  # heartbeats ran
                assert live.clock.pending == 0
                assert await live.quiescent(timeout=30.0)
                return live.query_rows(), live.stats.links_torn_down
            finally:
                await live.stop()

        rows, torn = asyncio.run(main())
        assert rows and torn == 0

    def test_a_lost_datagram_ends_the_wait_after_the_loss_grace(
            self, sp_compiled, eight_node_overlay):
        """A datagram the kernel dropped never arrives to wake the
        wait: the loss-grace alarm does, long before the timeout."""
        async def main():
            live = sp_compiled.deploy(topology=eight_node_overlay,
                                      link_loads={"link": "hopcount"},
                                      target="live", channels="udp")
            await live.start()
            fabric = live.fabric
            try:
                assert await live.quiescent(timeout=30.0)
                fabric.in_flight += 1  # sent, never to arrive
                fabric.last_activity = time.monotonic()
                assert not live.idle
                start = time.monotonic()
                ok = await live.quiescent(timeout=10.0)
                return ok, time.monotonic() - start, fabric.loss_grace
            finally:
                fabric.in_flight = 0
                await live.stop()

        try:
            ok, waited, grace = asyncio.run(main())
        except OSError as exc:  # no loopback sockets in this sandbox
            pytest.skip(f"cannot open UDP sockets: {exc}")
        assert ok
        assert grace - 0.01 <= waited < grace + 0.25, (waited, grace)

    def test_keyboard_interrupt_in_a_dispatch_leaves_the_loop(
            self, sp_compiled, eight_node_overlay):
        """A node task files an exception for stop() but lets an
        interrupt through: the run ends there, not at the timeout."""
        live = sp_compiled.deploy(topology=eight_node_overlay,
                                  link_loads={"link": "hopcount"},
                                  target="live")
        node = live.nodes[eight_node_overlay.nodes[0]]

        def interrupt(deltas, origin=None):
            raise KeyboardInterrupt

        node.receive = interrupt
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            live.converge(timeout=10.0)
        assert time.monotonic() - start < 5.0
        assert live._task_failures == []
        # The node task ended on the interrupt (reading it here also
        # keeps asyncio from logging it as never retrieved).
        interrupted = [task for task in live._tasks
                       if task.done() and not task.cancelled()
                       and task.exception() is not None]
        assert [type(task.exception()) for task in interrupted] \
            == [KeyboardInterrupt]
