"""Transport tests: the flush policies (eager, net-change elimination,
share grouping) against a stub cluster, the run on the wire end to end
(order, grouping, fixpoints at every chunk size), message splitting and
the byte model."""

import functools

import pytest

import repro
from interpreter import interpret
from repro.engine import Database, PSNEngine
from repro.ndlog import programs
from repro.ndlog.terms import ConstructedTuple
from repro.net.message import (
    HEADER_BYTES,
    Message,
    NetDelta,
    tuple_size,
    value_size,
)
from repro.net.sim import Simulator
from repro.net.stats import TrafficStats
from repro.runtime import LinkUpdateDriver, RuntimeConfig
from repro.runtime.config import ShareSpec
from repro.runtime.node import NodeRuntime
from repro.runtime.transport import (
    MAX_MESSAGE_BYTES,
    ReliableTransport,
    Transport,
)
from repro.topology import build_overlay, transit_stub


class StubCluster:
    """Just enough cluster for a Transport: a simulator, stats, a fake
    channel, and primary keys."""

    class _Channel:
        def __init__(self, log):
            self.log = log

        def transmit(self, sim, message, deliver, rng=None):
            self.log.append(message)
            return sim.now

    def __init__(self, pkeys=None):
        self.sim = self.clock = Simulator()
        self.stats = TrafficStats()
        self.sent = []
        self._channel = self._Channel(self.sent)
        self._pkeys = pkeys or {}
        self.loss_rng = None

    def channel(self, a, b):
        return self._channel

    def deliver(self, message):
        pass

    def pkey_of(self, pred, args):
        key = self._pkeys.get(pred)
        if not key:
            return args
        return tuple(args[i] for i in key)


def drain(cluster):
    cluster.sim.run()


class TestDirectMode:
    def test_one_message_per_send(self):
        """One message per send call, carrying the whole run in order."""
        cluster = StubCluster()
        transport = Transport(cluster, RuntimeConfig())
        first = [NetDelta("p", (1,), 1), NetDelta("p", (2,), -1),
                 NetDelta("q", (1,), 1)]
        transport.send("a", "b", list(first))
        transport.send("a", "b", [NetDelta("p", (3,), 1)])
        assert [m.deltas for m in cluster.sent] == [
            tuple(first), (NetDelta("p", (3,), 1),)]
        assert cluster.stats.messages == 2
        assert cluster.stats.netdeltas_shipped == 4


class TestNetChangeMode:
    def config(self):
        return RuntimeConfig(buffer_interval=0.1)

    def test_transient_insert_delete_suppressed(self):
        """A tuple inserted and retracted within one window never hits
        the wire (the periodic aggregate-selections saving)."""
        cluster = StubCluster(pkeys={"best": (0, 1)})
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), 1)])
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), -1)])
        drain(cluster)
        assert cluster.sent == []

    def test_flip_flop_collapses_to_final(self):
        cluster = StubCluster(pkeys={"best": (0, 1)})
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), 1)])
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), -1)])
        transport.send("a", "b", [NetDelta("best", ("a", "d", 3), 1)])
        drain(cluster)
        (message,) = cluster.sent
        assert message.deltas == (NetDelta("best", ("a", "d", 3), 1),)

    def test_unchanged_readvertisement_suppressed(self):
        cluster = StubCluster(pkeys={"best": (0, 1)})
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), 1)])
        drain(cluster)
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), 1)])
        drain(cluster)
        assert len(cluster.sent) == 1  # second window had no net change

    def test_deletion_of_advertised_tuple_sent(self):
        cluster = StubCluster(pkeys={"best": (0, 1)})
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), 1)])
        drain(cluster)
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), -1)])
        drain(cluster)
        assert cluster.sent[1].deltas[0].sign == -1

    def test_replacement_retracts_what_receiver_has(self):
        """If cost 5 was advertised and the window ends at cost 3, the
        receiver's pkey replacement handles the swap: only +3 is sent."""
        cluster = StubCluster(pkeys={"best": (0, 1)})
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), 1)])
        drain(cluster)
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), -1)])
        transport.send("a", "b", [NetDelta("best", ("a", "d", 3), 1)])
        drain(cluster)
        assert cluster.sent[1].deltas == (
            NetDelta("best", ("a", "d", 3), 1),
        )


class TestShareMode:
    def config(self):
        return RuntimeConfig(
            share_delay=0.1,
            share_specs={
                "path_lat": ShareSpec(base="path", value_positions=(2,)),
                "path_rnd": ShareSpec(base="path", value_positions=(2,)),
            },
        )

    def test_matching_tuples_merge(self):
        cluster = StubCluster()
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("path_lat", ("a", "d", 5), 1)])
        transport.send("a", "b", [NetDelta("path_rnd", ("a", "d", 77), 1)])
        drain(cluster)
        (message,) = cluster.sent
        assert len(message.deltas) == 2
        assert message.shared_bytes > 0
        solo = sum(d.payload_size() for d in message.deltas) + 20
        assert message.size < solo

    def test_non_matching_tuples_do_not_merge(self):
        cluster = StubCluster()
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("path_lat", ("a", "d", 5), 1)])
        transport.send("a", "b", [NetDelta("path_rnd", ("a", "ZZZ", 77), 1)])
        drain(cluster)
        assert len(cluster.sent) == 2
        assert all(m.shared_bytes == 0 for m in cluster.sent)

    def test_unspecced_relations_pass_through(self):
        cluster = StubCluster()
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("other", (1,), 1)])
        drain(cluster)
        assert len(cluster.sent) == 1


# ----------------------------------------------------------------------
# Splitting a long window into datagram-sized messages
# ----------------------------------------------------------------------
class TestMessageSplitting:
    def window(self, count=5000):
        return [NetDelta("path", ("a", "b", ("a", "n%d" % i, "b"), float(i)), 1)
                for i in range(count)]

    def check_pieces(self, sent, window):
        assert len(sent) > 1
        assert [d for m in sent for d in m.deltas] == window
        assert all(m.size <= MAX_MESSAGE_BYTES for m in sent)
        # Greedy: no two neighbours would have fitted one message.
        for first, second in zip(sent, sent[1:]):
            assert (first.size + second.size - HEADER_BYTES
                    > MAX_MESSAGE_BYTES)

    def test_eager_run_leaves_as_several_messages_in_order(self):
        cluster = StubCluster()
        window = self.window()
        Transport(cluster, RuntimeConfig()).send("a", "b", list(window))
        self.check_pieces(cluster.sent, window)
        assert cluster.stats.netdeltas_shipped == len(window)
        assert cluster.stats.messages == len(cluster.sent)

    def test_timed_window_leaves_as_several_messages_in_order(self):
        cluster = StubCluster()
        transport = Transport(cluster, RuntimeConfig(share_delay=0.1))
        window = self.window()
        transport.send("a", "b", window[:1200])
        transport.send("a", "b", window[1200:])
        assert cluster.sent == []
        drain(cluster)
        self.check_pieces(cluster.sent, window)

    def test_reliable_pieces_are_ordinary_sequenced_messages(self):
        cluster = StubCluster()
        cluster.clock_for = lambda node: cluster.clock
        cluster.chaos = None
        transport = ReliableTransport(cluster, RuntimeConfig(reliable=True))
        window = self.window()
        transport.send("a", "b", list(window))
        self.check_pieces(cluster.sent, window)
        assert [m.seq for m in cluster.sent] == list(
            range(cluster.sent[0].seq, cluster.sent[0].seq + len(cluster.sent)))

    def test_a_lone_oversized_delta_travels_alone(self):
        cluster = StubCluster()
        huge = NetDelta("p", ("a", "x" * (MAX_MESSAGE_BYTES + 1)), 1)
        small = NetDelta("p", ("a", "y"), 1)
        Transport(cluster, RuntimeConfig()).send("a", "b",
                                                 [small, huge, small])
        assert [m.deltas for m in cluster.sent] == [
            (small,), (huge,), (small,)]


# ----------------------------------------------------------------------
# The byte model: exact-type dispatch must size like the isinstance walk
# ----------------------------------------------------------------------
def reference_value_size(value) -> int:
    """``value_size`` as it was before the exact-type dispatch."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return max(4, len(value))
    if isinstance(value, tuple):
        return 4 + sum(reference_value_size(item) for item in value)
    if isinstance(value, ConstructedTuple):
        return 4 + sum(reference_value_size(item) for item in value.values)
    return 8


class _Address(str):
    pass


class _Pair(tuple):
    pass


class _Count(int):
    pass


SIZED_VALUES = [
    True, False, 0, 7, -3, 10 ** 30, 0.0, 2.5, float("inf"),
    "", "a", "abcd", "abcde", "a much longer string value " * 4,
    (), ("a",), ("n1", "n2", "n3", "n4"), ("abcdefgh", "x"),
    (1, 2.5, True, "s"), (("a", "b"), ("c", (1, ("d",)))),
    ("a", (), "", ((),)),
    _Address("n1"), _Address("a-long-address"), _Pair(("a", 1)), _Count(5),
    (_Address("n1"), _Pair(("a", _Count(1))), True),
    ConstructedTuple("link", ("a", "b", 5)),
    ConstructedTuple("link", (("a", "b"), ConstructedTuple("hop", (1,)))),
    ("a", ConstructedTuple("link", ("a", _Address("b"), 5.0))),
    None, b"bytes", frozenset(),
]


class TestByteModel:
    @pytest.mark.parametrize("value", SIZED_VALUES, ids=repr)
    def test_value_size_matches_the_isinstance_walk(self, value):
        assert value_size(value) == reference_value_size(value)

    def test_tuple_and_message_sizes_match(self):
        args = tuple(SIZED_VALUES)
        expected = len("pred") + sum(map(reference_value_size, args))
        assert tuple_size("pred", args) == expected
        deltas = (NetDelta("pred", args, 1), NetDelta("q", ("a", 1), -2))
        payload = sum(4 + len(d.pred)
                      + sum(map(reference_value_size, d.args))
                      for d in deltas)
        assert Message("a", "b", deltas).size == HEADER_BYTES + payload


# ----------------------------------------------------------------------
# The run on the wire, end to end
# ----------------------------------------------------------------------
def overlay10(seed=5):
    return build_overlay(transit_stub(seed=seed), n_nodes=10, degree=3,
                         seed=seed)


@functools.lru_cache(maxsize=None)
def interpreter_costs(link_rows):
    """The reference fixpoint: ``shortest_path_safe`` over ``link_rows``
    on a centralised engine running the tests' interpreter, in chunks of
    one, as ``{(src, dst): cost}`` over the pairs with ``src != dst``
    (only the unguarded Figure 1 program routes a node to itself)."""
    program = programs.shortest_path_safe()
    engine = interpret(PSNEngine(program, db=Database.for_program(program),
                                 batch_size=1))
    for row in link_rows:
        engine.insert("link", row)
    engine.run()
    return {(s, d): c
            for s, d, _p, c in engine.db.table("shortestPath").rows()
            if s != d}


def check_fixpoint(deployment, link_rows):
    want = interpreter_costs(tuple(sorted(link_rows)))
    cost_of = {(a, b): c for a, b, c in link_rows}
    rows = [row for row in deployment.rows("shortestPath")
            if row[0] != row[1]]
    assert {(s, d): c for s, d, _p, c in rows} == pytest.approx(want)
    for s, d, path, cost in rows:
        assert path[0] == s and path[-1] == d
        assert sum(cost_of[hop] for hop in zip(path, path[1:])) \
            == pytest.approx(cost)
    if deployment.provenance is not None:
        assert deployment.audit().ok


TRANSPORTS = {
    "eager": {},
    "periodic": {"buffer_interval": 0.2},
    "reliable": {"reliable": True},
}


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
@pytest.mark.parametrize("cpu_batch", [1, 7, 16, 64])
class TestRunsReachTheInterpreterFixpoint:
    def deploy(self, program, passes, transport, cpu_batch, provenance):
        options = dict(TRANSPORTS[transport])
        reliable = options.pop("reliable", False)
        compiled = repro.compile(program, passes=passes,
                                 provenance=provenance)
        return compiled.deploy(
            topology=overlay10(), link_loads={"link": "latency"},
            config=RuntimeConfig(cpu_batch=cpu_batch, **options),
            reliable=reliable)

    def test_cold_start(self, transport, cpu_batch):
        deployment = self.deploy(programs.shortest_path(),
                                 ["aggsel", "localize"], transport,
                                 cpu_batch, provenance=True)
        deployment.advance()
        check_fixpoint(deployment,
                       list(deployment.cluster.overlay.link_rows("latency")))

    def test_recost_burst(self, transport, cpu_batch):
        # Net-change elimination assumes the aggregate-selections
        # rewrite (one advertisement per slot), as in the paper.
        deployment = self.deploy(programs.shortest_path_dynamic(),
                                 ["aggsel", "localize"], transport,
                                 cpu_batch, provenance=False)
        deployment.advance()
        driver = LinkUpdateDriver(deployment.cluster, metric="latency",
                                  fraction=0.5, magnitude=0.5, seed=3)
        driver.apply_burst()
        deployment.advance()
        check_fixpoint(deployment, driver.current_link_rows())


class TestRunOnTheWire:
    def record(self, monkeypatch, **config):
        """Deploy the cold-start overlay on the eager transport and log
        every remote head a node emits (with the chunk that produced
        it) and every message a channel carries."""
        emitted, carried = [], []
        chunk_of = {}
        real_chunk = NodeRuntime.process_chunk
        real_emit = NodeRuntime._emit

        def process_chunk(node, limit):
            chunk_of[node.address] = chunk_of.get(node.address, 0) + 1
            return real_chunk(node, limit)

        def emit(node, pred, heads, sign, traces=None):
            if not node._local_only:
                emitted.extend(
                    (node.address, head[0], chunk_of[node.address],
                     NetDelta(pred, head, sign))
                    for head in heads if head[0] != node.address)
            real_emit(node, pred, heads, sign, traces)

        monkeypatch.setattr(NodeRuntime, "process_chunk", process_chunk)
        monkeypatch.setattr(NodeRuntime, "_emit", emit)
        compiled = repro.compile(programs.shortest_path(),
                                 passes=["aggsel", "localize"])
        deployment = compiled.deploy(
            topology=overlay10(), link_loads={"link": "latency"},
            config=RuntimeConfig(**config))
        for channel in deployment.cluster._channels.values():
            real_transmit = channel.transmit

            def transmit(clock, message, deliver, rng=None,
                         real_transmit=real_transmit):
                carried.append(message)
                return real_transmit(clock, message, deliver, rng=rng)

            channel.transmit = transmit
        deployment.advance()
        return deployment, emitted, carried

    @pytest.mark.parametrize("cpu_batch", [1, 16])
    def test_emission_order_and_one_message_per_chunk_and_neighbour(
            self, monkeypatch, cpu_batch):
        deployment, emitted, carried = self.record(monkeypatch,
                                                   cpu_batch=cpu_batch)
        assert emitted
        # No message mixes destinations.
        for message in carried:
            assert {d.args[0] for d in message.deltas} == {message.dst}
        # Per link, what arrives is what was emitted, in that order.
        links = {(src, dst) for src, dst, _chunk, _delta in emitted}
        for src, dst in links:
            sent = [delta for s, d, _chunk, delta in emitted
                    if (s, d) == (src, dst)]
            arrived = [delta for message in carried
                       if (message.src, message.dst) == (src, dst)
                       for delta in message.deltas]
            assert arrived == sent
        # One message per (chunk, destination) pair that had heads.
        pairs = {(src, chunk, dst) for src, dst, chunk, _delta in emitted}
        stats = deployment.cluster.stats
        assert stats.messages == len(carried) == len(pairs)
        assert stats.netdeltas_shipped == len(emitted)
        if cpu_batch > 1:
            assert len(pairs) < len(emitted)  # deltas really share messages
