"""Distributed runtime tests: deployment, correctness against graph
ground truth, FIFO-based eventual consistency (Theorem 4), dynamics,
soft state, and the transport optimizations."""

import heapq

import pytest

from repro.ndlog import parse, programs
from repro.net.message import HEADER_BYTES
from repro.runtime import (
    CachePolicy,
    Cluster,
    LinkUpdateDriver,
    RuntimeConfig,
    SoftStateManager,
)
from repro.topology import build_overlay, transit_stub
from repro.topology.neighborhood import hop_distances


def small_overlay(n=14, degree=3, seed=5):
    return build_overlay(transit_stub(seed=seed), n_nodes=n, degree=degree,
                         seed=seed)


def dijkstra_costs(costs_by_pair, nodes):
    adjacency = {}
    for (a, b), cost in costs_by_pair.items():
        adjacency.setdefault(a, []).append((b, cost))
        adjacency.setdefault(b, []).append((a, cost))
    out = {}
    for source in nodes:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for nxt, w in adjacency.get(node, ()):
                nd = d + w
                if nd < dist.get(nxt, float("inf")):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
        for target, d in dist.items():
            if target != source:
                out[(source, target)] = d
    return out


def cluster_costs(cluster):
    got = {}
    for s, d, _p, c in cluster.rows("shortestPath"):
        if s != d:
            key = (s, d)
            got[key] = min(c, got.get(key, float("inf")))
    return got


@pytest.fixture(scope="module")
def overlay():
    return small_overlay()


class TestStaticConvergence:
    def test_all_pairs_hopcount_matches_bfs(self, overlay):
        cluster = Cluster(
            overlay, programs.shortest_path(),
            RuntimeConfig(aggregate_selections=True),
            link_loads={"link": "hopcount"},
        )
        cluster.run()
        got = cluster_costs(cluster)
        for source in overlay.nodes:
            for target, d in hop_distances(overlay, source).items():
                if target != source:
                    assert got[(source, target)] == d

    def test_all_pairs_latency_matches_dijkstra(self, overlay):
        cluster = Cluster(
            overlay, programs.shortest_path(),
            RuntimeConfig(aggregate_selections=True),
            link_loads={"link": "latency"},
        )
        cluster.run()
        want = dijkstra_costs(
            {pair: m["latency"] for pair, m in overlay.links.items()},
            overlay.nodes,
        )
        assert cluster_costs(cluster) == pytest.approx(want)

    @pytest.mark.slow
    def test_safe_program_without_aggsel_also_converges(self, overlay):
        cluster = Cluster(
            overlay, programs.shortest_path_safe(),
            RuntimeConfig(aggregate_selections=False),
            link_loads={"link": "hopcount"},
        )
        cluster.run()
        got = cluster_costs(cluster)
        dist = hop_distances(overlay, overlay.nodes[0])
        for target, d in dist.items():
            if target != overlay.nodes[0]:
                assert got[(overlay.nodes[0], target)] == d

    def test_reachability_program(self, overlay):
        cluster = Cluster(
            overlay, programs.reachability(), RuntimeConfig(),
            link_loads={"link": "hopcount"},
        )
        cluster.run()
        reach = cluster.rows("reach")
        n = len(overlay.nodes)
        assert len(reach) == n * (n - 1) + n  # includes self via cycles

    def test_path_vectors_are_real_paths(self, overlay):
        cluster = Cluster(
            overlay, programs.shortest_path(),
            RuntimeConfig(aggregate_selections=True),
            link_loads={"link": "latency"},
        )
        cluster.run()
        for s, d, p, _c in cluster.rows("shortestPath"):
            assert p[0] == s and p[-1] == d
            for a, b in zip(p, p[1:]):
                assert overlay.link_metrics(a, b) is not None

    def test_tuples_only_flow_along_links(self, overlay):
        cluster = Cluster(
            overlay, programs.shortest_path(),
            RuntimeConfig(aggregate_selections=True),
            link_loads={"link": "hopcount"},
        )
        cluster.run()
        assert cluster.stats.dropped_no_link == 0

    def test_convergence_tracker(self, overlay):
        cluster = Cluster(
            overlay, programs.shortest_path(),
            RuntimeConfig(aggregate_selections=True),
            link_loads={"link": "hopcount"},
        )
        tracker = cluster.watch("shortestPath")
        end = cluster.run()
        assert 0 < tracker.convergence_time() <= end
        curve = tracker.results_over_time()
        assert curve[-1][1] == 1.0


class TestBatchedTicks:
    ECHO = """
    materialize(item, infinity, infinity, keys(1, 2)).
    materialize(echo, infinity, infinity, keys(1, 2)).
    E1: echo(@S, X) :- #item(@S, X).
    """

    def echo_cluster(self, **config):
        """One node that will do all the work, and the virtual times
        (in cpu_delays) at which its ticks fire."""
        overlay = small_overlay(n=4, degree=2, seed=8)
        cluster = Cluster(overlay, parse(self.ECHO),
                          RuntimeConfig(validate=False, **config),
                          link_loads={})
        node = cluster.node(overlay.nodes[0])
        ticks = []
        tick = node._tick                    # posted by attribute lookup

        def recording_tick():
            delay = cluster.config.cpu_delay or 1.0
            ticks.append(round(cluster.clock.now / delay, 6))
            tick()

        node._tick = recording_tick
        return cluster, node, ticks

    def inject_items(self, cluster, node, count, start=0):
        for i in range(start, start + count):
            cluster.inject(node.address, "item", (node.address, i))

    def test_batched_tick_books_full_cpu_time(self):
        """A tick that consumes k deltas keeps the node booked for
        k * cpu_delay of virtual CPU: throughput accounting must not
        depend on cpu_batch (only sub-batch commit times may shift)."""
        cluster, node, ticks = self.echo_cluster(cpu_batch=16)
        delay = cluster.config.cpu_delay
        self.inject_items(cluster, node, 10)
        events = cluster.clock.events_processed
        end = cluster.run()
        # 10 item commits then 10 echo commits, all on one node: the
        # first tick fires one cpu_delay after injection and each batch
        # stays booked per delta.  The drained node posts no event to
        # serve the time out, so run() returns the time of the last
        # commit (11 delays) and the 20 delays are the booking.
        assert ticks == [1, 11]
        assert cluster.clock.events_processed == events + 2
        assert end == pytest.approx(11 * delay)
        assert node._busy_until == pytest.approx(20 * delay)
        assert node.quiescent and not node._tick_scheduled
        assert cluster.quiescent
        assert node.deltas_processed == 20
        assert len(cluster.rows("echo")) == 10

    def test_arrival_inside_the_booked_window_waits_for_it(self):
        cluster, node, ticks = self.echo_cluster(cpu_batch=16)
        delay = cluster.config.cpu_delay
        self.inject_items(cluster, node, 10)
        cluster.sim.at(15 * delay,
                       lambda: self.inject_items(cluster, node, 1, 10))
        cluster.run(until=19.5 * delay)
        assert ticks == [1, 11] and node._tick_scheduled
        assert len(node.queue) == 1          # waiting its turn
        events = cluster.clock.events_processed
        cluster.run(until=20.5 * delay)
        # One simulator event at _busy_until processed it ...
        assert ticks == [1, 11, 20]
        assert cluster.clock.events_processed == events + 1
        # ... and its echo is an ordinary next tick one delay later.
        assert cluster.run() == pytest.approx(21 * delay)
        assert ticks == [1, 11, 20, 21]
        assert node._busy_until == pytest.approx(20 * delay)  # stale, past
        assert len(cluster.rows("echo")) == 11

    def test_arrival_late_in_the_window_or_after_it_waits_one_cpu_delay(
            self):
        cluster, node, ticks = self.echo_cluster(cpu_batch=16)
        delay = cluster.config.cpu_delay
        self.inject_items(cluster, node, 10)
        # max(now + cpu_delay, _busy_until): the last cpu_delay of the
        # window is no shorter a wait than an idle node's.
        cluster.sim.at(19.5 * delay,
                       lambda: self.inject_items(cluster, node, 1, 10))
        cluster.sim.at(30 * delay,
                       lambda: self.inject_items(cluster, node, 1, 11))
        assert cluster.run() == pytest.approx(32 * delay)
        assert ticks == [1, 11, 20.5, 21.5, 31, 32]
        assert len(cluster.rows("echo")) == 12

    def test_cpu_batch_1_is_the_historical_schedule(self):
        """One charged delta per event, idle immediately after a drain:
        nothing is ever booked, and every event time is what the
        one-delta-per-event runtime posted."""
        cluster, node, ticks = self.echo_cluster(cpu_batch=1)
        delay = cluster.config.cpu_delay
        self.inject_items(cluster, node, 10)
        cluster.sim.at(25 * delay,
                       lambda: self.inject_items(cluster, node, 1, 10))
        events = cluster.clock.events_processed
        assert cluster.run() == pytest.approx(27 * delay)
        assert ticks == list(range(1, 21)) + [26, 27]
        assert cluster.clock.events_processed == events + 22 + 1
        assert node._busy_until == 0.0
        assert node.deltas_processed == 22

    def test_paused_node_parks_and_resumes_with_its_queue_intact(self):
        from repro.chaos import ChaosSchedule

        overlay = small_overlay(n=4, degree=2, seed=8)
        down = overlay.nodes[0]
        delay = RuntimeConfig().cpu_delay
        cluster, node, ticks = self.echo_cluster(
            cpu_batch=16,
            chaos=ChaosSchedule(seed=1).crash(
                down, at=15 * delay, restart=40 * delay))
        assert node.address == down
        self.inject_items(cluster, node, 10)
        # Arrives while the node is down *and* inside its booked window:
        # the tick lands at _busy_until, finds the node paused, and
        # parks until the restart plus one cpu_delay.
        cluster.sim.at(16 * delay,
                       lambda: self.inject_items(cluster, node, 3, 10))
        cluster.run(until=39 * delay)
        assert ticks == [1, 11, 20]
        assert node._tick_scheduled and len(node.queue) == 3
        assert node.deltas_processed == 20
        assert cluster.run() == pytest.approx(44 * delay)
        assert ticks == [1, 11, 20, 41, 44]
        assert node.quiescent and not node._tick_scheduled
        assert len(cluster.rows("echo")) == 13

    def test_no_cpu_delay_books_nothing_and_reads_no_clock(self):
        """The live target's setting: a tick is posted with delay 0 and
        ``_schedule_tick`` / ``_tick`` never ask what time it is."""
        class PostOnly:
            def __init__(self, clock):
                self.post = clock.post

        cluster, node, ticks = self.echo_cluster(cpu_batch=16, cpu_delay=0)
        node.net_clock = PostOnly(cluster.clock)
        self.inject_items(cluster, node, 10)
        assert cluster.run() == 0.0
        assert len(ticks) == 2 and node.deltas_processed == 20
        self.inject_items(cluster, node, 5, 10)
        cluster.run()
        assert len(ticks) == 4 and node.deltas_processed == 30
        assert node._busy_until == 0.0
        assert not node._tick_scheduled and cluster.quiescent

    def test_a_node_still_shares_its_instance_dict_keys(self):
        """CPython shares instance-dict keys up to 30 attributes; a
        30th un-shares every node's dict (2-3% of ``converge_cpu_s`` on
        ``cold-start`` at PR 16)."""
        overlay = small_overlay(n=4, degree=2, seed=8)
        cluster = Cluster(overlay, parse(self.ECHO),
                          RuntimeConfig(validate=False), link_loads={})
        for node in cluster.nodes.values():
            assert len(vars(node)) <= 29

    def test_cpu_batch_preserves_convergence_regime(self):
        """Batched and per-delta schedules process the same deltas and
        converge in the same virtual-time regime."""
        overlay = small_overlay(n=8, degree=2, seed=8)

        def run(batch):
            cluster = Cluster(
                overlay, programs.shortest_path(),
                RuntimeConfig(aggregate_selections=True, cpu_batch=batch),
                link_loads={"link": "hopcount"},
            )
            end = cluster.run()
            return end, cluster

        end_batched, batched = run(16)
        end_unbatched, unbatched = run(1)
        assert cluster_costs(batched) == cluster_costs(unbatched)
        # Same per-delta CPU accounting: end times agree within the
        # sub-batch commit shift (deltas commit at batch start).
        assert end_batched == pytest.approx(end_unbatched, rel=0.2)


class TestDynamics:
    def test_link_update_reconverges(self, overlay):
        cluster = Cluster(
            overlay, programs.shortest_path_dynamic(),
            RuntimeConfig(aggregate_selections=True),
            link_loads={"link": "random"},
        )
        driver = LinkUpdateDriver(cluster, metric="random", seed=3)
        cluster.run()
        for _ in range(3):
            driver.apply_burst()
            cluster.run()
        want = dijkstra_costs(driver.costs, overlay.nodes)
        assert cluster_costs(cluster) == pytest.approx(want)

    def test_bursts_midflight_still_consistent(self, overlay):
        """Theorem 4: bursts landing before the previous fixpoint
        completes (Figure 14's regime) still quiesce to the fresh
        state."""
        cluster = Cluster(
            overlay, programs.shortest_path_dynamic(),
            RuntimeConfig(aggregate_selections=True),
            link_loads={"link": "random"},
        )
        driver = LinkUpdateDriver(cluster, metric="random", seed=4)
        # Interleave bursts every 0.2 virtual seconds from the start.
        driver.schedule_bursts([0.2, 0.4, 0.6, 0.8])
        cluster.run()
        want = dijkstra_costs(driver.costs, overlay.nodes)
        assert cluster_costs(cluster) == pytest.approx(want)

    def test_burst_cheaper_than_from_scratch(self, overlay):
        cluster = Cluster(
            overlay, programs.shortest_path_dynamic(),
            RuntimeConfig(aggregate_selections=True),
            link_loads={"link": "random"},
        )
        driver = LinkUpdateDriver(cluster, metric="random", seed=5)
        cluster.run()
        initial = cluster.stats.total_bytes()
        driver.apply_burst()
        cluster.run()
        burst = cluster.stats.total_bytes() - initial
        assert burst < 0.5 * initial


class TestTransportModes:
    def test_periodic_buffering_reduces_messages(self, overlay):
        def run_with(interval):
            cluster = Cluster(
                overlay, programs.shortest_path(),
                RuntimeConfig(aggregate_selections=True,
                              buffer_interval=interval),
                link_loads={"link": "random"},
            )
            cluster.run()
            return cluster

        eager = run_with(None)
        periodic = run_with(0.4)
        assert periodic.stats.total_mb() < eager.stats.total_mb()
        # Same answers either way.
        assert cluster_costs(eager) == cluster_costs(periodic)

    def test_sharing_reduces_bytes_not_answers(self, overlay):
        from repro.experiments.fig12 import merged_program, share_specs

        program, link_loads = merged_program()

        def run_with(share):
            config = RuntimeConfig(
                aggregate_selections=True,
                share_delay=0.3 if share else None,
                share_specs=share_specs() if share else {},
            )
            cluster = Cluster(overlay, program, config,
                              link_loads=link_loads)
            cluster.run()
            return cluster

        plain = run_with(False)
        shared = run_with(True)
        assert shared.stats.total_mb() < plain.stats.total_mb()
        for pred in ("shortestPath_lat", "shortestPath_rel",
                     "shortestPath_rnd"):
            assert plain.rows(pred) == shared.rows(pred)


class TestReceiveARun:
    """``NodeRuntime.receive`` takes one message's deltas as a run; the
    per-delta work happens only for the feature that needs it."""

    RUN = [
        ("path", ("n0", "nX", "nY", ("n0", "nY", "nX"), 7.0), 1),
        ("path", ("n0", "nX", "nY", ("n0", "nY", "nX"), 7.0), 1),
        ("path", ("n0", "nZ", "nY", ("n0", "nY", "nZ"), 9.0), 0),
        ("path", ("n0", "nW", "nY", ("n0", "nY", "nW"), 3.0), -2),
        ("path", ("n0", "nV", "nY", ("n0", "nY", "nV"), 4.0), 1),
        ("path", ("n0", "nV", "nY", ("n0", "nY", "nV"), 4.0), -1),
    ]

    def deploy(self, overlay, provenance=False, **options):
        import repro

        compiled = repro.compile(programs.shortest_path(),
                                 passes=["aggsel", "localize"],
                                 provenance=provenance)
        deployment = compiled.deploy(topology=overlay,
                                     link_loads={"link": "latency"},
                                     **options)
        deployment.advance()
        return deployment, deployment.cluster.node("n0")

    def run_of(self, **tags):
        from repro.net.message import NetDelta

        return [NetDelta(pred, args, weight,
                         **{tag: values[index]
                            for tag, values in tags.items()})
                for index, (pred, args, weight) in enumerate(self.RUN)]

    def queued(self, node):
        return [(row[0], row[1], row[2]) for row in node.queue]

    def test_plain_run_is_one_extend_and_drops_zero_weights(self, overlay):
        _deployment, node = self.deploy(overlay)
        node.receive(self.run_of(), "n1")
        assert self.queued(node) == [r for r in self.RUN if r[2]]
        assert all(row[3:] == (False, False, None) for row in node.queue)
        assert node._tick_scheduled
        assert node.peer_ledger == {}

    def test_reliable_books_every_delta_on_the_peer_ledger(self, overlay):
        from repro.engine.facts import Fact

        _deployment, node = self.deploy(overlay, reliable=True)
        before = dict(node.peer_ledger.get("n1", {}))
        node.receive(self.run_of(), "n1")
        ledger = node.peer_ledger["n1"]
        changed = {fact: count for fact, count in ledger.items()
                   if before.get(fact) != count}
        assert changed == {
            Fact(*self.RUN[0][:2]): 2,    # booked twice
            Fact(*self.RUN[3][:2]): -2,   # the weight, not the sign
        }                                 # the +1/-1 pair nets away
        assert self.queued(node) == [r for r in self.RUN if r[2]]

    def test_tagged_arrivals_are_noted_on_the_provenance_store(
            self, overlay):
        deployment, node = self.deploy(overlay, provenance=True)
        store = deployment.provenance
        store.arrivals.clear()
        node.receive(
            self.run_of(prov=[11, None, 12, 13, 14, 15]), "n1")
        # Tagged, positive and nonzero: the first and the fifth.
        assert [(a.fact.args, a.prov_id, a.node) for a in store.arrivals] \
            == [(self.RUN[0][1], 11, "n0"), (self.RUN[4][1], 14, "n0")]
        assert self.queued(node) == [r for r in self.RUN if r[2]]

    def test_one_receive_span_per_traced_delta(self, overlay):
        deployment, node = self.deploy(overlay, trace=True)
        events = deployment.cluster.tracer.events
        del events[:]
        node.receive(
            self.run_of(trace=[21, None, 22, 23, None, 24]), "n1")
        spans = [(ev.kind, ev.trace, ev.args, ev.weight, ev.src, ev.dst)
                 for ev in events]
        assert spans == [
            ("receive", 21, self.RUN[0][1], 1, "n1", "n0"),
            ("receive", 23, self.RUN[3][1], -2, "n1", "n0"),
            ("receive", 24, self.RUN[5][1], -1, "n1", "n0"),
        ]
        # The trace id stays on the queue row; the zero weight is gone.
        assert [row[5] for row in node.queue] == [21, None, 23, None, 24]


class TestRestoreShipsNothing:
    PROGRAM = """
    materialize(offer, infinity, infinity, keys(1, 2, 3)).
    materialize(best, infinity, infinity, keys(1, 2)).
    F1: best(@A, K, V) :- offer(@A, K, V).
    F2: seen(@B, A, K, V) :- #link(@A, @B, C), best(@A, K, V).
    """

    def test_fallback_restore_in_a_chunk_that_ships_other_heads(self):
        """A restored row is an old advertisement: its strands fire
        locally only, while the other heads of the same chunk ship."""
        from repro.engine.facts import Fact
        from repro.net.message import NetDelta

        overlay = small_overlay(n=4, degree=2, seed=8)
        cluster = Cluster(overlay, parse(self.PROGRAM),
                          RuntimeConfig(cpu_batch=16, validate=False),
                          link_loads={"link": "hopcount"})
        a = overlay.nodes[0]
        neighbours = sorted(overlay.neighbors(a))
        node = cluster.node(a)
        node.insert("offer", (a, "k", 1))
        cluster.run()
        node.insert("offer", (a, "k", 2))   # shadows best(a, k, 1)
        cluster.run()
        node.derive(Fact("offer", (a, "k", 2)), -1)
        cluster.run()
        assert not node.db.table("best").rows()

        carried = []
        for channel in cluster._channels.values():
            real_transmit = channel.transmit

            def transmit(clock, message, deliver, rng=None,
                         real_transmit=real_transmit):
                carried.append(message)
                return real_transmit(clock, message, deliver, rng=rng)

            channel.transmit = transmit
        assert node.queue_slot_repairs() == 1
        node.derive(Fact("best", (a, "m", 3)), 1)
        assert len(node.queue) == 2          # one chunk at cpu_batch=16
        processed = node.deltas_processed
        cluster.run()
        assert node.deltas_processed == processed + 2
        assert node.db.table("best").rows() == [(a, "k", 1), (a, "m", 3)]
        assert sorted((m.dst, m.deltas) for m in carried) == [
            (b, (NetDelta("seen", (b, a, "m", 3), 1),)) for b in neighbours]
        for b in neighbours:
            assert (b, a, "k", 1) not in cluster.rows("seen", node=b)


class TestRefusedRun:
    PROGRAM = """
    R1: reading(@B, A, K, V) :- #link(@A, @B, C), sample(@A, K, V).
    """

    def test_a_refused_frame_starves_no_neighbour_and_wedges_no_node(self):
        """The byte model only estimates a frame: long floats encode at
        three times their eight model bytes, so a run the transport
        need not split can still be more than a datagram carries.  The
        UDP channel refuses it loudly; the chunk's other runs leave all
        the same and the node goes on ticking."""
        from repro.errors import NetworkError
        from repro.net.live import (
            MAX_DATAGRAM_BYTES,
            UdpChannel,
            encode_message,
        )
        from repro.net.message import Message, NetDelta
        from repro.runtime.transport import MAX_MESSAGE_BYTES

        class Fabric:
            def __init__(self):
                self.frames = []

            def sendto(self, src, dst, data):
                self.frames.append((src, dst, data))

        overlay = small_overlay(n=4, degree=2, seed=8)
        cluster = Cluster(overlay, parse(self.PROGRAM),
                          RuntimeConfig(cpu_batch=512, validate=False),
                          link_loads={"link": "hopcount"})
        a = overlay.nodes[0]
        node = cluster.node(a)
        cluster.run()                        # link facts settle first
        # The neighbour whose run leaves first gets the datagram link.
        order = []
        real_send = cluster.transport.send

        def send(src, dst, deltas):
            order.append(dst)
            real_send(src, dst, deltas)

        cluster.transport.send = send
        node.insert("sample", (a, -1, (0.0,)))
        cluster.run()
        del cluster.transport.send
        udp_end, *others = order
        assert sorted(order) == sorted(overlay.neighbors(a)) and others
        key = (a, udp_end) if a <= udp_end else (udp_end, a)
        fabric = Fabric()
        cluster._channels[key] = UdpChannel(*key, latency=0.001,
                                            fabric=fabric)

        floats = tuple(-1.2345678901234567e-100 * (i + 1) for i in range(12))
        node.inject_run("sample", [(a, k, floats) for k in range(250)])
        with pytest.raises(NetworkError, match="UDP datagram") as refusal:
            cluster.run()
        assert "250 deltas" in str(refusal.value)
        cluster.run()                        # the rest of the instant
        # The refused run was one the byte model let through whole ...
        refused = Message(src=a, dst=udp_end, deltas=tuple(
            NetDelta("reading", (udp_end, a, k, floats), 1)
            for k in range(250)))
        assert refused.size <= MAX_MESSAGE_BYTES
        assert len(encode_message(refused)) > MAX_DATAGRAM_BYTES
        # ... nothing of it was booked or sent ...
        assert fabric.frames == []
        assert cluster.rows("reading", node=udp_end) == {
            (udp_end, a, -1, (0.0,))}        # the probe, nothing since
        # ... every other neighbour got its run of the same chunk ...
        for b in others:
            assert len(cluster.rows("reading", node=b)) == 1 + 250
        # ... and the node still ticks: the next chunk ships to all.
        assert node.quiescent and not node._tick_scheduled
        node.insert("sample", (a, 999, (1.0,)))
        cluster.run()
        for b in others:
            assert (b, a, 999, (1.0,)) in cluster.rows("reading", node=b)
        (frame,) = fabric.frames
        assert frame[:2] == (a, udp_end)


class TestMagicAndCaching:
    def run_queries(self, overlay, queries, caching, cpu_batch=16):
        config = RuntimeConfig(
            aggregate_selections=True, cpu_batch=cpu_batch,
            cache=CachePolicy(query_pred="pathQ__best") if caching else None,
        )
        cluster = Cluster(overlay, programs.multi_query_magic(), config,
                          link_loads={"link": "hopcount"})
        for index, (src, dst) in enumerate(queries):
            cluster.sim.at(0.2 * index,
                           lambda s=src, d=dst, i=index: cluster.inject(
                               s, "magicQuery", (s, f"q{i}", d)))
        cluster.run()
        return cluster

    def test_magic_query_answers_correct(self, overlay):
        nodes = overlay.nodes
        queries = [(nodes[0], nodes[-1]), (nodes[3], nodes[7])]
        cluster = self.run_queries(overlay, queries, caching=False)
        results = {args[1]: args[3] for args in cluster.rows("queryResult")}
        for index, (src, dst) in enumerate(queries):
            assert results[f"q{index}"] == hop_distances(overlay, src)[dst]

    def test_cached_answers_remain_correct(self, overlay):
        nodes = overlay.nodes
        dst = nodes[-1]
        queries = [(nodes[i], dst) for i in range(5)]
        cluster = self.run_queries(overlay, queries, caching=True)
        results = {args[1]: args[3] for args in cluster.rows("queryResult")}
        for index, (src, _d) in enumerate(queries):
            assert results[f"q{index}"] == hop_distances(overlay, src)[dst]
        hits = sum(node.cache_hits for node in cluster.nodes.values())
        assert hits > 0

    def test_caching_saves_bandwidth_on_repeated_destination(self, overlay):
        nodes = overlay.nodes
        dst = nodes[-1]
        queries = [(nodes[i], dst) for i in range(6)]
        plain = self.run_queries(overlay, queries, caching=False)
        cached = self.run_queries(overlay, queries, caching=True)
        assert cached.stats.total_mb() < plain.stats.total_mb()

    def test_cache_suppresses_the_same_strands_at_every_cpu_batch(
            self, overlay):
        """A cache hit is decided per query tuple: the query predicate's
        runs are capped at one delta, so chunking changes nothing it
        ships -- only how many messages (headers) the deltas share."""
        nodes = overlay.nodes
        queries = [(nodes[i], nodes[-1]) for i in range(6)]
        runs = [self.run_queries(overlay, queries, caching=True,
                                 cpu_batch=cpu_batch)
                for cpu_batch in (1, 16)]
        observed = [
            ({address: node.cache_hits
              for address, node in cluster.nodes.items()},
             cluster.rows("queryResult"),
             cluster.stats.netdeltas_shipped,
             cluster.stats.total_bytes()
             - HEADER_BYTES * cluster.stats.messages)
            for cluster in runs
        ]
        assert observed[0] == observed[1]
        assert any(observed[0][0].values())


class TestSoftState:
    def test_empty_cluster_rejected_with_clear_error(self):
        """Regression: an empty cluster used to surface as a bare
        ``StopIteration`` out of the lifetime scan; it must be a clear
        library error (``NetworkError``) instead."""
        import types

        from repro.errors import NetworkError

        empty = types.SimpleNamespace(nodes={})
        with pytest.raises(NetworkError, match="at least one node"):
            SoftStateManager(empty)

    def test_expiry_without_refresh(self):
        overlay = small_overlay(n=8, degree=2, seed=8)
        program = parse(
            """
            materialize(beacon, 1.0, infinity, keys(1, 2)).
            B1: seen(@D, S) :- #beacon(@S, @D, C).
            """
        )
        cluster = Cluster(overlay, program, RuntimeConfig(validate=False),
                          link_loads={"beacon": "hopcount"})
        manager = SoftStateManager(cluster, sweep_interval=0.25)
        manager.install()
        cluster.run(until=3.0)
        # All beacon tuples had a 1-second TTL and were never refreshed.
        assert manager.expired_count > 0
        assert not cluster.rows("beacon")

    def test_refresh_keeps_facts_alive(self):
        overlay = small_overlay(n=8, degree=2, seed=8)
        program = parse(
            """
            materialize(beacon, 1.0, infinity, keys(1, 2)).
            B1: seen(@D, S) :- #beacon(@S, @D, C).
            """
        )
        cluster = Cluster(overlay, program, RuntimeConfig(validate=False),
                          link_loads={"beacon": "hopcount"})
        manager = SoftStateManager(cluster, sweep_interval=0.25)
        manager.install()
        rows_by_node = {}
        for a, b, c in overlay.link_rows("hopcount"):
            rows_by_node.setdefault(a, []).append((a, b, c))
        manager.schedule_refresh("beacon", rows_by_node, interval=0.5,
                                 rounds=6)
        cluster.run(until=2.9)
        assert cluster.rows("beacon")
