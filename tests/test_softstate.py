"""Soft-state semantics (Section 4.2), written down and held.

* A positive intent for a stored identical row of a finite-lifetime
  table is a **renewal**: the deadline moves, the derivation count does
  not, and nothing downstream (strands, ``on_commit``,
  watchers, the wire) hears of it.
* The deadline lives in the table, stamped at commit from the engine's
  time source; a sweeper claims the due prefix of each table's deadline
  order and queues the deletes.  Each row expires exactly once.
* The decision is made when the intent is *dequeued*: a refresh behind
  a queued expiry delete re-creates the row as a fresh one.
* Hard-state tables are untouched: a duplicate insertion bumps the
  count (``tests/test_table.py``).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.engine import Database, PSNEngine
from repro.engine.facts import Fact
from repro.engine.table import INFINITY, NO_DEADLINES, Table
from repro.ndlog import parse
from repro.runtime import Cluster, RuntimeConfig, SoftStateManager
from repro.topology import build_overlay, transit_stub

from queued import queued, run_of

BEACON = """
materialize(beacon, 1.0, infinity, keys(1, 2)).
B1: seen(@D, S) :- #beacon(@S, @D, C).
"""
LIFETIME = 1.0
SWEEP = 0.25


class ClockedEngine(PSNEngine):
    """A centralized engine whose time source the test moves."""

    time = 0.0

    def now(self):
        return self.time


def beacon_engine(batch_size=1, on_commit=None):
    program = parse(BEACON)
    return ClockedEngine(program, db=Database.for_program(program),
                         batch_size=batch_size, on_commit=on_commit)


def sweep(engine, pred="beacon"):
    """What ``SoftStateManager._sweep`` does for one table."""
    due = engine.db.table(pred).claim_due(engine.time)
    for args in due:
        engine.delete(pred, args)
    return due


def beacon_cluster(n=8, degree=2, seed=8, **config):
    overlay = build_overlay(transit_stub(seed=seed), n_nodes=n,
                            degree=degree, seed=seed)
    cluster = Cluster(overlay,
                      repro.compile(parse(BEACON), passes=[], validate=False),
                      RuntimeConfig(**config),
                      link_loads={"beacon": "hopcount"})
    rows_by_node = {}
    for row in overlay.link_rows("hopcount"):
        rows_by_node.setdefault(row[0], []).append(row)
    return cluster, rows_by_node


# ----------------------------------------------------------------------
# The table owns the deadlines
# ----------------------------------------------------------------------
class TestTableDeadlines:
    def test_hard_state_table_allocates_nothing_and_still_counts(self):
        table = Table("link", 3, key=(0, 1))
        assert table._deadlines is None
        table.insert(("a", "b", 1))
        table.insert(("a", "b", 1), deadline=5.0)
        assert table.count(("a", "b", 1)) == 2
        assert table.deadlines.get(("a", "b", 1)) is None
        assert not table.deadlines and table.claim_due(INFINITY) == []

    def test_deadlines_is_a_live_view_from_construction(self):
        """Regression: an empty soft table used to hand out a fresh,
        detached ``{}``, so a view read before the first insert never
        showed the row -- and a hard-state table a new mutable dict
        per read."""
        table = Table("beacon", 3, key=(0, 1), lifetime=LIFETIME)
        view = table.deadlines
        table.insert(("a", "b", 1), deadline=2.0)
        assert view == {("a", "b", 1): 2.0} and table.deadlines is view
        table.clear()
        assert not view and table.deadlines is view
        hard, other = Table("link", 3, key=(0, 1)), Table("cost", 2)
        assert hard.deadlines is other.deadlines is NO_DEADLINES
        with pytest.raises(TypeError):
            hard.deadlines[("a", "b", 1)] = 2.0
        assert not NO_DEADLINES

    def test_duplicate_insert_renews_and_leaves_the_count_alone(self):
        table = Table("beacon", 3, key=(0, 1), lifetime=LIFETIME)
        row = ("a", "b", 1)
        table.insert(row, deadline=1.0)
        for round_ in range(2, 202):
            table.insert(row, deadline=float(round_))
        assert table.count(row) == 1 and table.rows() == [row]
        assert table.deadlines.get(row) == 201.0
        table.delete(row)                        # one counted withdrawal
        assert row not in table and not table.deadlines

    def test_renewal_keeps_the_index_in_deadline_order(self):
        table = Table("beacon", 3, key=(0, 1), lifetime=LIFETIME)
        rows = [("a", "b", 1), ("a", "c", 1), ("a", "d", 1)]
        for index, row in enumerate(rows):
            table.insert(row, deadline=1.0 + index)
        table.insert(rows[0], deadline=4.0)  # renewed: now the latest
        assert list(table.deadlines.items()) == [
            (rows[1], 2.0), (rows[2], 3.0), (rows[0], 4.0)]
        assert table.claim_due(1.5) == []
        assert table.claim_due(3.0) == [rows[1], rows[2]]
        assert len(table.deadlines) == 1
        assert len(table) == 3  # claimed rows stay stored until deleted

    def test_claimed_row_is_claimed_once_and_a_renewal_does_not_retrack(self):
        table = Table("beacon", 3, key=(0, 1), lifetime=LIFETIME)
        row = ("a", "b", 1)
        table.insert(row, deadline=1.0)
        assert table.claim_due(1.0) == [row]
        assert table.claim_due(9.0) == []
        # A refresh dequeued before the queued delete: no KeyError, the
        # row stays claimed.
        table.insert(row, deadline=2.5)
        assert table.count(row) == 1 and table.deadlines.get(row) is None
        assert table.claim_due(9.0) == []
        table.force_delete(row)
        table.insert(row, deadline=3.5)  # re-created: tracked again
        assert table.deadlines.get(row) == 3.5

    def test_key_replacement_drops_the_old_deadline_with_the_row(self):
        table = Table("beacon", 3, key=(0, 1), lifetime=LIFETIME)
        old, new = ("a", "b", 1), ("a", "b", 2)
        table.insert(old, deadline=1.0)
        table.insert(new, deadline=1.5)
        assert table.rows() == [new] and table.get_by_key(("a", "b")) == new
        assert table.deadlines.get(old) is None
        assert list(table.deadlines) == [new]
        table.clear()
        assert not table.deadlines

    def test_row_committed_without_a_deadline_never_comes_due(self):
        table = Table("beacon", 3, key=(0, 1), lifetime=LIFETIME)
        table.insert(("a", "b", 1))
        assert not table.deadlines and table.claim_due(INFINITY) == []

    def test_renewal_without_a_deadline_leaves_the_deadline_order_alone(
            self):
        """Re-loading a committed row through ``Database.load_facts``
        (``Table.insert`` with no deadline) used to store ``None`` in
        the deadline order, and the next sweep raised ``TypeError: '>'
        not supported between 'NoneType' and 'float'``."""
        engine = beacon_engine()
        first, second = ("a", "b", 1), ("a", "c", 1)
        engine.insert("beacon", first)
        engine.run()
        engine.time = 0.5
        engine.insert("beacon", second)
        engine.run()
        table = engine.db.table("beacon")
        engine.db.load_facts("beacon", [first])
        assert list(table.deadlines.items()) == [
            (first, LIFETIME), (second, 0.5 + LIFETIME)]
        engine.time = LIFETIME
        assert sweep(engine) == [first]      # raised TypeError before
        # The run-level entry books the same: nothing without a deadline.
        assert table.bump_run(*run_of(second), 0, 1) == 1
        assert list(table.deadlines.items()) == [(second, 0.5 + LIFETIME)]
        assert table.count(first) == table.count(second) == 1
        engine.time = 0.5 + LIFETIME
        assert sweep(engine) == [second]
        engine.run()
        assert not table.rows() and not table.deadlines


# ----------------------------------------------------------------------
# Renewal is a branch of the one commit path
# ----------------------------------------------------------------------
class TestRenewalInTheCommitPath:
    def test_refreshed_200_times_holds_count_1(self):
        commits = []
        engine = beacon_engine(
            on_commit=lambda fact, w: commits.append((fact, w)))
        row = ("a", "b", 1)
        engine.insert("beacon", row)
        engine.run()
        table = engine.db.table("beacon")
        inferences = engine.inferences
        assert table.deadlines.get(row) == LIFETIME
        for round_ in range(1, 201):
            engine.time = round_ * 0.5
            engine.insert("beacon", row)
            engine.run()
        assert table.count(row) == 1
        assert table.deadlines.get(row) == 100.0 + LIFETIME
        assert table.renewals == 200
        # Nothing downstream heard of any of them.
        assert engine.inferences == inferences
        assert commits == [(Fact("beacon", row), 1),
                           (Fact("seen", ("b", "a")), 1)]
        # The paper's answer: one counted withdrawal removes the row.
        engine.derive(Fact("beacon", row), -1)
        engine.run()
        assert row not in table and not table.deadlines
        assert not engine.db.table("seen").rows()

    def test_run_injection_is_insert_row_by_row(self):
        rows = [("a", "b", 1), ("a", "c", 1), ("b", "a", 1)]
        one, many = beacon_engine(), beacon_engine()
        for row in rows:
            one.insert("beacon", row)
        many.inject_run("beacon", [list(row) for row in rows])
        assert queued(one) == queued(many)
        many.run()
        assert sorted(many.db.table("beacon").rows()) == sorted(rows)

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_refresh_behind_a_queued_expiry_delete_recreates_a_fresh_row(
            self, batch_size):
        """Decided at dequeue, not at injection: the delete is ahead of
        the refresh, so the row dies and comes back as a *fresh* row --
        ``B1`` fires again and ``seen`` is re-derived."""
        commits = []
        engine = beacon_engine(
            batch_size, on_commit=lambda fact, w: commits.append((fact, w)))
        row = ("a", "b", 1)
        engine.insert("beacon", row)
        engine.run()
        engine.time = 1.5
        assert sweep(engine) == [row]      # expiry delete queued ...
        engine.insert("beacon", row)       # ... and a refresh behind it
        del commits[:]
        engine.run()
        table = engine.db.table("beacon")
        assert table.count(row) == 1 and table.deadlines.get(row) == 2.5
        assert sorted((f.pred, w) for f, w in commits) == [
            ("beacon", -1), ("beacon", 1), ("seen", -1), ("seen", 1)]
        assert engine.db.table("seen").rows() == [("b", "a")]
        assert table.renewals == 0

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_refresh_ahead_of_the_queued_expiry_delete_loses(
            self, batch_size):
        """The window between the sweep and the delete's commit: a
        refresh already on the queue is dequeued first and changes
        nothing on the claimed row; the delete still wins, the row is
        counted once, and the next refresh re-creates it."""
        engine = beacon_engine(batch_size)
        row = ("a", "b", 1)
        engine.insert("beacon", row)
        engine.run()
        table = engine.db.table("beacon")
        engine.time = 1.5
        engine.insert("beacon", row)       # refresh queued ...
        assert sweep(engine) == [row]      # ... then the sweep claims
        assert sweep(engine) == []         # a second sweep: counted once
        engine.run()
        assert row not in table and not table.deadlines
        assert not engine.db.table("seen").rows()
        engine.time = 2.0
        engine.insert("beacon", row)
        engine.run()
        assert table.count(row) == 1 and table.deadlines.get(row) == 3.0
        assert engine.db.table("seen").rows() == [("b", "a")]

    def test_key_replacement_on_a_soft_table(self):
        engine = beacon_engine()
        engine.insert("beacon", ("a", "b", 1))
        engine.run()
        engine.time = 0.75
        engine.insert("beacon", ("a", "b", 2))
        engine.run()
        table = engine.db.table("beacon")
        assert table.rows() == [("a", "b", 2)]
        assert list(table.deadlines.items()) == [(("a", "b", 2), 1.75)]
        engine.time = 1.0                  # the old row's deadline
        assert sweep(engine) == []
        engine.time = 1.75
        assert sweep(engine) == [("a", "b", 2)]

    def test_soft_tables_stay_out_of_queue_netting(self):
        """A renewal followed by a counted withdrawal is not addition:
        +1 (renew, count stays 1) then -1 removes the row, where the
        folded weight 0 would have kept it."""
        engine = beacon_engine(batch_size=64)
        row = ("a", "b", 1)
        engine.insert("beacon", row)
        engine.run()
        engine.derive(Fact("beacon", row), 1)
        engine.derive(Fact("beacon", row), -1)
        engine.run()
        assert engine.cancelled == 0
        assert row not in engine.db.table("beacon")


# ----------------------------------------------------------------------
# A dict-of-deadlines model
# ----------------------------------------------------------------------
ROWS = [(src, dst, cost) for src in "ab" for dst in "cd" for cost in (1, 2)]
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(ROWS)),
        st.tuples(st.just("delete"), st.sampled_from(ROWS)),
        st.tuples(st.just("advance"),
                  st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS, batch_size=st.sampled_from([1, 7, 64]))
def test_schedule_agrees_with_a_dict_of_deadlines(ops, batch_size):
    engine = beacon_engine(batch_size)
    table = engine.db.table("beacon")
    model = {}      # row -> deadline
    expired = claimed = 0
    for op, value in ops:
        if op == "insert":      # a refresh when the row is stored
            engine.insert("beacon", value)
            for row in [r for r in model if r[:2] == value[:2]]:
                del model[row]
            model[value] = engine.time + LIFETIME
        elif op == "delete":
            engine.delete("beacon", value)
            model.pop(value, None)
        else:
            engine.time += value
            claimed += len(sweep(engine))
            due = [row for row, when in model.items() if when <= engine.time]
            expired += len(due)
            for row in due:
                del model[row]
        engine.run()
        assert dict(table.deadlines) == model
        assert sorted(table.rows()) == sorted(model)
        assert all(table.count(row) == 1 for row in model)
        deadlines = list(table.deadlines.values())
        assert deadlines == sorted(deadlines)
        assert sorted(engine.db.table("seen").rows()) == sorted(
            {(dst, src) for src, dst, _ in model})
    assert claimed == expired


# ----------------------------------------------------------------------
# The manager: a sweeper and refreshers
# ----------------------------------------------------------------------
class TestManager:
    def test_refresh_keeps_a_row_alive_and_it_dies_on_time(self):
        cluster, rows_by_node = beacon_cluster()
        total = sum(len(rows) for rows in rows_by_node.values())
        manager = SoftStateManager(cluster, sweep_interval=SWEEP)
        manager.install()
        manager.schedule_refresh("beacon", rows_by_node, interval=0.5,
                                 rounds=100)
        last = 0.5 * 100
        cluster.run(until=last + 0.9 * LIFETIME)
        assert len(cluster.rows("beacon")) == total
        assert manager.expired_count == 0
        for node in cluster.nodes.values():
            table = node.db.table("beacon")
            assert all(table.count(row) == 1 for row in table.rows())
        cluster.run(until=last + LIFETIME + SWEEP + 0.1)
        assert not cluster.rows("beacon") and not cluster.rows("seen")
        assert manager.expired_count == total  # each row exactly once
        end = cluster.run()                    # and the cluster runs dry
        assert cluster.quiescent and end <= last + LIFETIME + 2 * SWEEP + 0.1

    def test_rows_committed_before_install_still_expire(self):
        """Regression: deadlines used to be recorded by the hook
        ``install()`` planted, so earlier commits never expired."""
        cluster, rows_by_node = beacon_cluster()
        total = sum(len(rows) for rows in rows_by_node.values())
        cluster.run()
        assert len(cluster.rows("beacon")) == total
        manager = SoftStateManager(cluster, SWEEP)
        manager.install()
        cluster.run(until=5.0)
        assert not cluster.rows("beacon")
        assert manager.expired_count == total

    def test_sweeper_rearms_after_an_idle_cluster(self):
        """Regression: the sweeper used to disarm for good once the
        cluster went idle; a later row then lived forever."""
        cluster, rows_by_node = beacon_cluster()
        manager = SoftStateManager(cluster, SWEEP)
        manager.install()
        cluster.run(until=2.0)
        total = manager.expired_count
        assert total and not cluster.rows("beacon")
        assert cluster.run() <= 2.0 + SWEEP     # idle: it runs dry
        a = next(iter(rows_by_node))
        row = rows_by_node[a][0]
        cluster.inject(a, "beacon", row)
        cluster.run(until=10.0)
        assert not cluster.rows("beacon")
        assert manager.expired_count == total + 1
        cluster.run()
        assert cluster.quiescent

    def test_a_sweep_claims_only_where_something_is_due(self):
        """A sweep reads each table's earliest deadline and calls
        ``claim_due`` only where it has passed: sweeps over future
        deadlines claim nothing and stay armed, every due row still
        expires exactly once, and a sweep that leaves every table empty
        stops re-arming."""
        cluster, rows_by_node = beacon_cluster()
        total = sum(len(rows) for rows in rows_by_node.values())
        claimed = []

        class Counting(Table):
            def claim_due(self, now):
                due = super().claim_due(now)
                claimed.append(len(due))
                return due

        tables = [node.db.table("beacon") for node in cluster.nodes.values()]
        for table in tables:
            table.__class__ = Counting
        manager = SoftStateManager(cluster, SWEEP)
        manager.install()
        cluster.run(until=0.9 * LIFETIME)          # three sweeps so far
        assert min(min(table.deadlines.values()) for table in tables) > (
            0.9 * LIFETIME)
        assert claimed == [] and manager._armed
        assert len(cluster.rows("beacon")) == total
        end = cluster.run()
        assert not cluster.rows("beacon") and cluster.quiescent
        assert manager.expired_count == sum(claimed) == total
        assert claimed and all(claimed)            # no empty claim
        assert not manager._armed and cluster.clock.pending == 0
        assert end <= LIFETIME + 3 * SWEEP

    def test_install_is_idempotent_and_soft_preds_are_reported(self):
        cluster, _ = beacon_cluster()
        manager = SoftStateManager(cluster, SWEEP)
        assert manager.soft_preds == ("beacon",)
        manager.install()
        manager.install()
        assert cluster.trackers.count(manager) == 1
        cluster.run()
        assert cluster.clock.pending == 0

    @pytest.mark.parametrize("cpu_batch", [1, 7, 64])
    def test_cpu_batch_sizes_agree(self, cpu_batch):
        reference = self._history(1)
        assert self._history(cpu_batch) == reference

    @staticmethod
    def _history(cpu_batch):
        cluster, rows_by_node = beacon_cluster(cpu_batch=cpu_batch)
        signs = {}

        class Listener:
            def on_commit(self, now, fact, weight):
                key = (fact.pred, fact.args)
                signs.setdefault(key, []).append(1 if weight > 0 else -1)

        cluster.listen(Listener())
        manager = SoftStateManager(cluster, SWEEP)
        manager.install()
        manager.schedule_refresh("beacon", rows_by_node, interval=0.5,
                                 rounds=6)
        cluster.run(until=2.0)
        mid = (cluster.rows("beacon"), cluster.rows("seen"))
        cluster.run()
        return (mid, cluster.rows("beacon"), cluster.rows("seen"),
                manager.expired_count,
                {key: tuple(value) for key, value in signs.items()})


# ----------------------------------------------------------------------
# Observers see changes, not renewals
# ----------------------------------------------------------------------
class TestObservers:
    ROUNDS = 20

    def _refreshed(self, **config):
        cluster, rows_by_node = beacon_cluster(**config)
        tracker = cluster.watch("beacon")
        manager = SoftStateManager(cluster, SWEEP)
        manager.install()
        manager.schedule_refresh("beacon", rows_by_node, interval=0.5,
                                 rounds=self.ROUNDS)
        cluster.run(until=0.5 * self.ROUNDS + 0.2)
        total = sum(len(rows) for rows in rows_by_node.values())
        return cluster, tracker, total

    def test_watchers_and_commit_metrics_do_not_count_refreshes(self):
        cluster, tracker, total = self._refreshed(metrics=True)
        assert tracker.committed_weight == total
        assert tracker.retracted_weight == 0
        # Completion time is when the row appeared, not its last refresh.
        assert max(tracker.last_insert.values()) < 0.5
        snapshot = cluster.metrics()
        totals = snapshot.relation_totals()
        assert totals["beacon"]["commits"] == total
        assert totals["beacon"]["renewals"] == total * self.ROUNDS
        assert totals["seen"]["renewals"] == 0
        # A relation refreshed and never changed is not churn.
        assert totals["beacon"]["retractions"] == 0
        text = snapshot.to_prometheus()
        assert "# TYPE ndlog_renewals_total counter" in text
        sample = [line for line in text.splitlines()
                  if line.startswith("ndlog_renewals_total{")]
        assert sample and all('relation="beacon"' in line for line in sample)
        assert sum(float(line.rsplit(" ", 1)[1]) for line in sample) == (
            total * self.ROUNDS)

    def test_a_renewed_rows_trace_is_closed_where_it_ends(self):
        cluster, _tracker, total = self._refreshed(trace=True)
        graph = cluster.tracer.span_graph()
        renewals = [spans for spans in graph.values()
                    if any(span[0] == "renew" for span in spans)]
        assert len(renewals) == total * self.ROUNDS
        for spans in renewals:
            assert sorted(span[0] for span in spans) == ["inject", "renew"]
        # No minted id dangles: every trace goes past its inject span.
        assert all(len(spans) > 1 for spans in graph.values())
