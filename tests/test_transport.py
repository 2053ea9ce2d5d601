"""Transport tests: the flush policies (eager, net-change elimination,
share grouping) against a stub cluster, window netting held to its
two-pass spec and its net spans, the run on the wire end to end (order
and grouping; ``test_contract.py`` holds its fixpoints), message
splitting and the byte model."""

from collections import Counter, OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
import repro.net.message as message_module
from repro.engine.table import Table
from repro.ndlog import programs
from repro.ndlog.terms import ConstructedTuple
from repro.net.message import (
    HEADER_BYTES,
    Message,
    NetDelta,
    coalesce,
    tuple_size,
    value_size,
)
from repro.net.sim import Simulator
from repro.net.stats import TrafficStats
from repro.runtime import RuntimeConfig
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
    channel, and the key function of each table passed in."""

    class _Channel:
        def __init__(self, log):
            self.log = log

        def transmit(self, sim, message, deliver):
            self.log.append(message)
            return sim.now

    def __init__(self, *tables):
        self.clock = Simulator()
        self.stats = TrafficStats()
        self.sent = []
        self._channel = self._Channel(self.sent)
        self.key_of = {table.name: table.key_of for table in tables}

    def channel(self, a, b):
        return self._channel

    def deliver(self, message):
        pass


def drain(cluster):
    cluster.clock.run()


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
        cluster = StubCluster(Table("best", 3, key=(0, 1)))
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), 1)])
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), -1)])
        drain(cluster)
        assert cluster.sent == []

    def test_flip_flop_collapses_to_final(self):
        cluster = StubCluster(Table("best", 3, key=(0, 1)))
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), 1)])
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), -1)])
        transport.send("a", "b", [NetDelta("best", ("a", "d", 3), 1)])
        drain(cluster)
        (message,) = cluster.sent
        assert message.deltas == (NetDelta("best", ("a", "d", 3), 1),)

    def test_unchanged_readvertisement_suppressed(self):
        cluster = StubCluster(Table("best", 3, key=(0, 1)))
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), 1)])
        drain(cluster)
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), 1)])
        drain(cluster)
        assert len(cluster.sent) == 1  # second window had no net change

    def test_deletion_of_advertised_tuple_sent(self):
        cluster = StubCluster(Table("best", 3, key=(0, 1)))
        transport = Transport(cluster, self.config())
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), 1)])
        drain(cluster)
        transport.send("a", "b", [NetDelta("best", ("a", "d", 5), -1)])
        drain(cluster)
        assert cluster.sent[1].deltas[0].sign == -1

    def test_replacement_retracts_what_receiver_has(self):
        """If cost 5 was advertised and the window ends at cost 3, the
        receiver's pkey replacement handles the swap: only +3 is sent."""
        cluster = StubCluster(Table("best", 3, key=(0, 1)))
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
# The wire delta as a record
# ----------------------------------------------------------------------
class TestNetDeltaRecord:
    def test_equality_and_hash_ignore_the_trace(self):
        tagged = NetDelta("p", ("x", 1), 2, trace=4)
        plain = NetDelta(pred="p", args=("x", 1), weight=2)
        assert tagged == plain and hash(tagged) == hash(plain)
        assert {tagged, plain} == {plain}
        assert tagged != NetDelta("p", ("x", 1), -2)
        assert (tagged.trace, tagged.sign) == (4, 1)

    def test_no_instance_dict(self):
        delta = NetDelta("p", (1,), 1)
        delta.payload_size()
        assert not hasattr(delta, "__dict__")
        with pytest.raises(AttributeError):
            delta.extra = 1

    def test_payload_size_walks_the_args_once(self, monkeypatch):
        walks = []
        real = message_module.tuple_size
        monkeypatch.setattr(
            message_module, "tuple_size",
            lambda pred, args: walks.append(args) or real(pred, args))
        delta = NetDelta("path", ("a", "b", ("a", "c", "b"), 3.0), 1)
        size = 4 + real("path", delta.args)
        assert delta.payload_size() == delta.payload_size() == size
        assert len(walks) == 1

    def test_coalesce_passes_a_delta_that_merged_with_nothing_through(self):
        lone = NetDelta("p", (1,), 1, trace=1)
        first = NetDelta("p", (2,), 1, trace=2)
        second = NetDelta("p", (2,), 2)
        out = coalesce([lone, first, second])
        assert out[0] is lone
        assert [(d.args, d.weight, d.trace) for d in out] == [
            ((1,), 1, 1), ((2,), 3, 2)]


# ----------------------------------------------------------------------
# Window netting, held to the two-pass implementation it replaced
# ----------------------------------------------------------------------
def spec_coalesce(deltas):
    """The spec of ``coalesce``: a weight / tag entry per fact plus a
    first-seen order list, every surviving entry rebuilt."""
    net = {}
    order = []
    for delta in deltas:
        key = (delta.pred, delta.args)
        entry = net.get(key)
        if entry is None:
            net[key] = [delta.weight, delta.trace]
            order.append(key)
        else:
            entry[0] += delta.weight
            if delta.trace is not None:
                entry[1] = delta.trace
    out = []
    for pred, args in order:
        entry = net[(pred, args)]
        if entry[0] != 0:
            out.append(NetDelta(pred, args, entry[0], entry[1]))
    return tuple(out)


class SpecNetChange:
    """The spec of ``Transport._net_change``: primary keys as positions
    projected by a generator, slots in an ``OrderedDict``."""

    def __init__(self, pkeys):
        self._pkeys = pkeys
        self._advertised = {}

    def pkey_of(self, pred, args):
        key = self._pkeys.get(pred)
        if not key:
            return args
        return tuple(args[i] for i in key)

    def _net_change(self, key, deltas):
        advertised = self._advertised.setdefault(key, {})
        final = OrderedDict()
        for delta in deltas:
            pkey = (delta.pred, self.pkey_of(delta.pred, delta.args))
            final[pkey] = delta
        out = []
        for pkey, delta in final.items():
            last = advertised.get(pkey)
            if delta.sign > 0:
                if last == delta.args:
                    continue  # receiver already has exactly this tuple
                advertised[pkey] = delta.args
                out.append(delta)
            else:
                if last is None:
                    continue  # never advertised; nothing to retract
                advertised.pop(pkey, None)
                out.append(NetDelta(delta.pred, last, -1, delta.trace))
        return out


#: A keyed predicate (one slot per destination; a new cost replaces)
#: and a full-key one, over domains small enough that a window repeats
#: facts, flip-flops inside a slot, sums to zero and retracts slots it
#: never advertised.
KEYED, FULL = Table("best", 3, key=(0, 1)), Table("link", 2)


def _deltas(pred, args):
    return st.builds(NetDelta, st.just(pred), args,
                     st.sampled_from([1, 1, -1, -1, 2, -2]),
                     st.none() | st.integers(1, 6))


WINDOW_DELTA = st.one_of(
    _deltas("best", st.tuples(st.just("a"), st.sampled_from("de"),
                              st.integers(1, 3))),
    _deltas("link", st.tuples(st.just("a"), st.sampled_from("bc"))),
)
WINDOWS = st.lists(st.lists(WINDOW_DELTA, max_size=12),
                   min_size=1, max_size=4)


def tagged(deltas):
    return [(d.pred, d.args, d.weight, d.trace) for d in deltas]


@given(windows=WINDOWS)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_window_netting_matches_the_two_pass_spec(windows):
    transport = Transport(StubCluster(KEYED, FULL),
                          RuntimeConfig(buffer_interval=0.1))
    spec = SpecNetChange({"best": KEYED.key, "link": FULL.key})
    for window in windows:
        coalesced = coalesce(window)
        want = spec_coalesce(window)
        assert tagged(coalesced) == tagged(want)
        facts = Counter((d.pred, d.args) for d in window)
        for delta in coalesced:
            if facts[delta.pred, delta.args] == 1:
                assert any(delta is sent for sent in window)
        shipped = transport._net_change(("a", "b"), coalesced, [])
        assert tagged(shipped) == tagged(spec._net_change(("a", "b"), want))
        assert transport._advertised == spec._advertised


class RecordingWire:
    """A traced wire observer that keeps the deltas it is shown."""

    traced = True

    def __init__(self):
        self.shipped, self.dropped = [], []

    def ship(self, message):
        self.shipped += [d for d in message.deltas if d.trace is not None]

    def netted(self, deltas, node):
        assert node == "a"
        self.dropped += deltas


def _traces(deltas):
    return Counter(d.trace for d in deltas if d.trace is not None)


@pytest.mark.parametrize("config", [{"buffer_interval": 0.1},
                                    {"share_delay": 0.1}, {}],
                         ids=["net-change", "coalesce-only", "eager"])
@given(windows=WINDOWS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_traced_delta_handed_over_ships_or_nets(config, windows):
    """The trace ids handed to ``send`` are, as a multiset, those in
    ``ship`` spans plus those in ``net`` spans, and what nets is a
    delta that was handed over, once."""
    cluster = StubCluster(KEYED, FULL)
    transport = Transport(cluster, RuntimeConfig(**config))
    transport.observer = wire = RecordingWire()
    handed = []
    for window in windows:
        half = len(window) // 2
        for run in (window[:half], window[half:]):
            if run:
                handed += run
                transport.send("a", "b", list(run))
        drain(cluster)
    assert _traces(handed) == _traces(wire.shipped) + _traces(wire.dropped)
    dropped = Counter(map(id, wire.dropped))
    assert set(dropped) <= set(map(id, handed))
    assert set(dropped.values()) <= {1}


def test_a_window_nets_each_dropped_trace_at_the_sender():
    cluster = StubCluster(KEYED)
    transport = Transport(cluster, RuntimeConfig(buffer_interval=0.1))
    transport.observer = wire = RecordingWire()

    def best(dst, cost, weight, trace):
        return NetDelta("best", ("a", dst, cost), weight, trace)

    transport.send("a", "b", [
        best("d", 5, 1, 1), best("d", 5, -1, 2),  # a zero sum
        best("e", 3, 1, 3), best("e", 3, 1, 4),   # merged, ships as 4
        best("f", 2, 1, 5), best("f", 1, 1, 6),   # 6 supersedes 5
        best("g", 1, -1, 7),                      # never advertised
    ])
    drain(cluster)
    transport.send("a", "b", [best("e", 3, 1, 8)])  # unchanged
    drain(cluster)
    assert [d.trace for d in wire.shipped] == [4, 6]
    assert [(d.args[1], d.weight, d.trace) for d in wire.dropped] == [
        ("d", 1, 1), ("d", -1, 2), ("e", 1, 3), ("f", 1, 5),
        ("g", -1, 7), ("e", 1, 8)]


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

    def test_a_message_sizes_its_unsized_deltas_in_one_pass(self):
        """Pre-sized and unsized deltas in one message, one carrying a
        path vector that nests two levels down: the message charges
        each its reference size, and leaves every delta sized."""
        nested = ("n1", ("n2", ("n3", 4, True), _Address("n44444")), 2.5)
        deltas = (NetDelta("path", ("a", nested, 3), 1),
                  NetDelta("q", ("a", 1), -2),
                  NetDelta("path", (("x", ("y",)), "b"), 1))
        deltas[1].payload_size()
        sizes = [4 + len(d.pred) + sum(map(reference_value_size, d.args))
                 for d in deltas]
        assert Message("a", "b", deltas).size == HEADER_BYTES + sum(sizes)
        assert [d.payload_size() for d in deltas] == sizes


# ----------------------------------------------------------------------
# The run on the wire, end to end
# ----------------------------------------------------------------------
def overlay10(seed=5):
    return build_overlay(transit_stub(seed=seed), n_nodes=10, degree=3,
                         seed=seed)


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
        for channel in deployment._channels.values():
            real_transmit = channel.transmit

            def transmit(clock, message, deliver,
                         real_transmit=real_transmit):
                carried.append(message)
                return real_transmit(clock, message, deliver)

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
        stats = deployment.stats
        assert stats.messages == len(carried) == len(pairs)
        assert stats.netdeltas_shipped == len(emitted)
        if cpu_batch > 1:
            assert len(pairs) < len(emitted)  # deltas really share messages
