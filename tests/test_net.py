"""Network substrate tests: simulator determinism, FIFO links, message
sizing, traffic accounting."""

from types import SimpleNamespace

import pytest

from repro.chaos import ChaosSchedule
from repro.chaos.inject import ChaosChannel, ChaosController
from repro.errors import NetworkError
from repro.net.link import LinkChannel
from repro.net.message import HEADER_BYTES, Message, NetDelta, single, tuple_size
from repro.net.sim import Simulator
from repro.net.stats import ResultTracker, TrafficStats
from repro.engine.facts import Fact


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.at(2.0, lambda: log.append("b"))
        sim.at(1.0, lambda: log.append("a"))
        sim.at(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: log.append(1))
        sim.at(1.0, lambda: log.append(2))
        sim.run()
        assert log == [1, 2]

    def test_after_relative(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        log = []
        sim.after(1.0, lambda: log.append(sim.now))
        sim.run()
        assert log == [6.0]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                sim.after(1.0, lambda: chain(n + 1))

        sim.at(0.0, lambda: chain(0))
        sim.run()
        assert log == [0, 1, 2, 3]

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: log.append(1))
        sim.at(5.0, lambda: log.append(5))
        sim.run(until=2.0)
        assert log == [1]
        assert sim.now == 2.0
        sim.run()
        assert log == [1, 5]

    def test_cancellation(self):
        sim = Simulator()
        log = []
        handle = sim.at(1.0, lambda: log.append("no"))
        handle.cancel()
        sim.run()
        assert log == []

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(NetworkError):
            sim.at(1.0, lambda: None)

    def test_post_interleaves_with_handled_events(self):
        """post() events (no cancellation handle) run in time order and
        tie-break by scheduling sequence, exactly like at()/after()."""
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: log.append("at"))
        sim.post(1.0, lambda: log.append("post"))
        sim.post(0.5, lambda: log.append("early"))
        with pytest.raises(NetworkError):
            sim.post(-0.1, lambda: None)
        sim.run()
        assert log == ["early", "at", "post"]
        assert sim.events_processed == 3

    def test_run_counts_only_uncancelled_events(self):
        sim = Simulator()
        handle = sim.at(1.0, lambda: None)
        handle.cancel()
        sim.at(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_run_until_advances_now_when_heap_drains_early(self):
        """Regression: ``run(until=T)`` used to leave ``now`` at the
        last event time when the heap drained before ``T``, so later
        ``after()`` calls and soft-state expiry sweeps computed against
        a stale clock."""
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        log = []
        sim.after(1.0, lambda: log.append(sim.now))
        sim.run()
        assert log == [6.0]

    def test_run_until_advances_now_on_empty_heap(self):
        sim = Simulator()
        assert sim.run(until=3.0) == 3.0
        assert sim.now == 3.0
        # An observation horizon never moves the clock backwards.
        assert sim.run(until=1.0) == 3.0

    @staticmethod
    def periodic_daemon(sim, period=1.0):
        """A daemon that re-arms itself every ``period``; returns the
        list of times it fired at."""
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.daemon(period, tick)

        sim.daemon(period, tick)
        return ticks

    def test_run_returns_with_only_daemons_pending(self):
        sim = Simulator()
        ticks = self.periodic_daemon(sim)
        sim.at(2.5, lambda: None)
        assert sim.pending == 1  # the daemon is not pending work
        assert sim.run() == 2.5
        assert ticks == [1.0, 2.0]  # daemons fire while work remains
        assert sim.run() == 2.5  # only the daemon: nothing to run
        assert ticks == [1.0, 2.0]

    def test_run_until_keeps_firing_daemons(self):
        sim = Simulator()
        ticks = self.periodic_daemon(sim)
        assert sim.run(until=4.5) == 4.5
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_a_cancelled_event_holds_no_run_open(self):
        sim = Simulator()
        ticks = self.periodic_daemon(sim)
        sim.at(5.0, lambda: None).cancel()
        sim.at(1.5, lambda: None)
        assert sim.pending == 1
        assert sim.run() == 1.5
        assert ticks == [1.0]

    def test_cancelling_a_daemon_is_safe(self):
        sim = Simulator()
        log = []
        daemon = sim.daemon(1.0, lambda: log.append("daemon"))
        daemon.cancel()
        daemon.cancel()
        sim.at(2.0, lambda: log.append("event"))
        assert sim.pending == 1
        assert sim.run() == 2.0
        assert log == ["event"]
        # Cancelling an event that already fired changes no count.
        fired = sim.after(1.0, lambda: log.append("fired"))
        sim.run()
        fired.cancel()
        assert sim.pending == 0
        sim.after(1.0, lambda: log.append("after"))
        assert sim.run() == 4.0
        assert log == ["event", "fired", "after"]

    def test_run_until_never_rewinds_with_pending_events(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        assert sim.run(until=3.0) == 3.0
        # A smaller horizon with events still pending must not rewind.
        assert sim.run(until=1.0) == 3.0
        assert sim.now == 3.0

    def test_livelock_guard_does_not_count_the_fatal_event(self):
        """Regression: the guard counted the fatal event into
        ``events_processed`` (and dropped it from the heap) before
        raising."""
        sim = Simulator()

        def requeue():
            sim.post(0.1, requeue)

        sim.post(0.0, requeue)
        with pytest.raises(NetworkError, match="exceeded 5 events"):
            sim.run(max_events=5)
        assert sim.events_processed == 5
        assert sim.pending == 1  # the fatal event went back on the heap

    def test_step_honors_the_run_budget(self):
        """Mixed step()/run() use cannot overshoot the cap: once run()
        installed a budget, step() raises the same livelock error."""
        sim = Simulator()

        def requeue():
            sim.post(0.1, requeue)

        sim.post(0.0, requeue)
        with pytest.raises(NetworkError):
            sim.run(max_events=3)
        with pytest.raises(NetworkError, match="exceeded 3 events"):
            sim.step()
        assert sim.events_processed == 3
        # A fresh run() call grants a fresh budget and proceeds.
        with pytest.raises(NetworkError):
            sim.run(max_events=2)
        assert sim.events_processed == 5


class TestMessageSizes:
    def test_header_and_fields(self):
        message = single("a", "b", "path", ("a", "b", 5), 1)
        assert message.size > HEADER_BYTES
        assert message.size == HEADER_BYTES + message.deltas[0].payload_size()

    def test_longer_paths_cost_more(self):
        short = tuple_size("path", ("a", "b", ("a", "b"), 2))
        long = tuple_size("path", ("a", "b", ("a", "x", "y", "b"), 4))
        assert long > short

    def test_shared_bytes_reduce_total(self):
        deltas = tuple(
            NetDelta("path_" + s, ("a", "b", ("a", "b"), c), 1)
            for s, c in (("lat", 3), ("rel", 7), ("rnd", 11))
        )
        merged = Message("a", "b", deltas, shared_bytes=30)
        unmerged = Message("a", "b", deltas)
        assert merged.size < unmerged.size


def dropping(channel, clock, rate):
    """``channel`` behind a chaos ``drop`` fault at ``rate``."""
    cluster = SimpleNamespace(clock=clock, stats=TrafficStats(),
                              observer=None)
    schedule = ChaosSchedule(seed=1).drop(rate=rate)
    return ChaosChannel(channel, ChaosController(cluster, schedule))


class TestLinkChannel:
    def make(self, latency=0.01, bandwidth=1e6):
        return LinkChannel("a", "b", latency=latency, bandwidth_bps=bandwidth)

    def test_fifo_even_with_different_sizes(self):
        """A small message sent after a large one must not overtake it
        (store-and-forward queueing, Section 4.2's FIFO requirement)."""
        sim = Simulator()
        channel = self.make(latency=0.05, bandwidth=8_000)  # 1 kB/s
        arrivals = []
        big = Message("a", "b", tuple(
            NetDelta("p", ("x" * 200,), 1) for _ in range(5)
        ))
        small = single("a", "b", "p", (1,), 1)
        channel.transmit(sim, big, lambda m: arrivals.append("big"))
        channel.transmit(sim, small, lambda m: arrivals.append("small"))
        sim.run()
        assert arrivals == ["big", "small"]

    def test_transmission_plus_latency(self):
        sim = Simulator()
        channel = self.make(latency=0.5, bandwidth=1e6)
        message = single("a", "b", "p", (1,), 1)
        arrival = channel.transmit(sim, message, lambda m: None)
        expected = message.size * 8 / 1e6 + 0.5
        assert abs(arrival - expected) < 1e-12

    def test_directions_have_independent_queues(self):
        sim = Simulator()
        channel = self.make(latency=0.01, bandwidth=8_000)
        arrivals = []
        m1 = single("a", "b", "p", ("x" * 500,), 1)
        m2 = single("b", "a", "p", (1,), 1)
        channel.transmit(sim, m1, lambda m: arrivals.append("ab"))
        channel.transmit(sim, m2, lambda m: arrivals.append("ba"))
        sim.run()
        assert arrivals == ["ba", "ab"]  # reverse direction not queued

    def test_wrong_endpoints_rejected(self):
        sim = Simulator()
        channel = self.make()
        with pytest.raises(NetworkError):
            channel.transmit(sim, single("a", "z", "p", (1,), 1), lambda m: None)

    def test_loss(self):
        """A message is lost only to a chaos ``drop`` fault."""
        sim = Simulator()
        channel = dropping(self.make(), sim, rate=1.0)
        delivered = []
        channel.transmit(sim, single("a", "b", "p", (1,), 1),
                         lambda m: delivered.append(m))
        sim.run()
        assert delivered == []

    def test_loss_is_deterministic_per_channel(self):
        outcomes = []
        for _round in range(2):
            sim = Simulator()
            channel = dropping(LinkChannel("a", "b", latency=0.0), sim,
                               rate=0.5)
            got = []
            for i in range(30):
                channel.transmit(
                    sim, single("a", "b", "p", (i,), 1),
                    lambda m: got.append(m.deltas[0].args[0]),
                )
            sim.run()
            outcomes.append(tuple(got))
        assert outcomes[0] == outcomes[1]
        assert 0 < len(outcomes[0]) < 30  # loss genuinely applied


class TestTrafficStats:
    def test_totals(self):
        stats = TrafficStats()
        stats.record(0.1, "a", 100)
        stats.record(0.2, "b", 300)
        assert stats.total_bytes() == 400
        assert stats.bytes_by_node() == {"a": 100, "b": 300}

    def test_series_binning(self):
        stats = TrafficStats()
        stats.record(0.1, "a", 1000)
        stats.record(0.3, "a", 2000)
        series = stats.per_node_kbps_series(node_count=2, bin_seconds=0.25)
        assert len(series) == 2
        # First bin: 1000 bytes / 0.25s / 2 nodes / 1e3 = 2 kBps.
        assert series[0] == (0.25, 2.0)
        assert series[1] == (0.5, 4.0)

    def test_bytes_between(self):
        stats = TrafficStats()
        stats.record(1.0, "a", 10)
        stats.record(2.0, "a", 20)
        stats.record(3.0, "a", 40)
        assert stats.bytes_between(1.5, 2.5) == 20


class TestResultTracker:
    def test_completion_and_cdf(self):
        tracker = ResultTracker(watch_pred="sp")
        tracker.on_commit(1.0, Fact("sp", ("a", "b", 5)), 1)
        tracker.on_commit(2.0, Fact("sp", ("a", "c", 9)), 1)
        # Replacement: the old value's retraction then the better value.
        tracker.on_commit(3.0, Fact("sp", ("a", "b", 5)), -1)
        tracker.on_commit(3.0, Fact("sp", ("a", "b", 2)), 1)
        assert tracker.convergence_time() == 3.0
        assert tracker.completion_times() == [2.0, 3.0]
        curve = tracker.results_over_time(points=3)
        assert curve[0][1] == 0.0
        assert curve[-1][1] == 1.0

    def test_ignores_other_preds(self):
        tracker = ResultTracker(watch_pred="sp")
        tracker.on_commit(1.0, Fact("path", ("a",)), 1)
        assert tracker.completion_times() == []
