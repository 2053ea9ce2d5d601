"""Soft-state storage (Section 4.2).

"In the soft state storage model, all data has an explicit 'time to
live' (TTL), and facts must be explicitly reinserted with their latest
values and a new TTL or they are deleted."

The deadlines are not kept here: a finite-lifetime table stamps each
row's deadline at commit and moves it when the row is re-inserted (a
*renewal*, which nothing downstream sees; :mod:`repro.engine.table`).
The manager is the two timers around that.  The *sweeper* asks each
node's soft tables for their due rows every ``sweep_interval`` and
queues their deletion.  Base-tuple *refreshers* model the protocol side:
periodic reinsertion of ground truth, which (in a quiescent network)
restores eventual consistency even after message loss or reordering --
the trade-off discussed at the end of Section 4.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.engine.table import INFINITY
from repro.errors import NetworkError
from repro.runtime.cluster import Cluster


class SoftStateManager:
    """Expiry sweeping and refresh scheduling for one cluster."""

    def __init__(self, cluster: Cluster, sweep_interval: float = 0.5):
        self.cluster = cluster
        self.sweep_interval = sweep_interval
        #: Rows removed by expiry.
        self.expired_count = 0
        self._armed = False
        if not cluster.nodes:
            raise NetworkError(
                "SoftStateManager needs a cluster with at least one node "
                "(no node runtimes to read table lifetimes from)"
            )
        #: Every finite-lifetime table, node by node in cluster order.
        self._tables = [
            (node, table)
            for node in cluster.nodes.values()
            for table in node.db.tables.values()
            if table.lifetime != INFINITY
        ]
        self.soft_preds: Tuple[str, ...] = tuple(
            sorted({table.name for _, table in self._tables}))

    def install(self) -> None:
        """Start the sweeper, and listen for commits so that a row
        holding a deadline always has a sweep ahead of it."""
        if self not in self.cluster.trackers:
            self.cluster.subscribe(self)
            self._arm()

    def _arm(self) -> None:
        if not self._armed:
            self._armed = True
            self.cluster.clock.after(self.sweep_interval, self._sweep)

    def on_commit(self, now: float, fact, weight: int) -> None:
        """Commit listener: a fresh soft-state row re-arms a sweeper
        that ran dry (so an idle cluster can quiesce in between)."""
        if weight > 0 and fact.pred in self.soft_preds:
            self._arm()

    def _sweep(self) -> None:
        self._armed = False
        now = self.cluster.clock.now
        pending = 0
        for node, table in self._tables:
            # Claimed rows leave the deadline order here, so each is
            # counted once; its forced delete queues behind any refresh
            # already waiting (the delete wins, the next refresh
            # re-creates the row).
            due = table.claim_due(now)
            for args in due:
                node.delete(table.name, args)
            self.expired_count += len(due)
            pending += len(due) + len(table.deadlines)
        if pending:
            # Deadlines still held, or deletes not yet committed.
            self._arm()

    def schedule_refresh(self, pred: str, rows_by_node, interval: float,
                         rounds: int, start: Optional[float] = None) -> None:
        """Reinsert base rows every ``interval`` for ``rounds`` rounds,
        each node's rows (``rows_by_node``: address -> arg tuples) as
        one injected run."""
        start = interval if start is None else start

        def refresh():
            for address, rows in rows_by_node.items():
                self.cluster.nodes[address].inject_run(pred, rows)

        for index in range(rounds):
            self.cluster.clock.at(start + index * interval, refresh)
