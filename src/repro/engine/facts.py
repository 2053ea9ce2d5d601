"""Fact and delta representations shared by all evaluation engines.

A *fact* is a predicate name plus a tuple of ground values.  A *delta*
is a **weighted** fact: facts with integer weights form a Z-set (a
generalized multiset over the abelian group of integers, as in DBSP),
and every change is expressed in that algebra -- ``weight=+1`` for an
insertion, ``-1`` for a deletion, and an update is the pair ``{-1 old,
+1 new}``, exactly the incremental view-maintenance reading of Section
4 of the paper ("an update is treated as a deletion followed by an
insertion").  Weights beyond +-1 arise from netting: a batch of changes
to the same fact collapses to the sum of its weights, so cancellation
is simply addition.

``ts`` is a local, monotonically increasing timestamp.  PSN stamps a
row when it *commits* it (its queue is event-sourced: tables change
only as deltas are dequeued, so the table itself is the "same or older
timestamp" join prefix of Section 3.3.2 that avoids repeated
inferences, Theorem 2).  PSN's queue does not hold ``Delta`` or
``Fact`` objects at all -- its rows are plain tuples, see
:mod:`repro.engine.psn` -- and builds a ``Fact`` only for an observer.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

INSERT = 1
DELETE = -1


class Fact(NamedTuple):
    pred: str
    args: Tuple

    def __repr__(self) -> str:
        return f"{self.pred}({', '.join(map(repr, self.args))})"


class Delta(NamedTuple):
    """A weighted fact (one Z-set entry) with its PSN timestamp."""

    fact: Fact
    weight: int
    ts: int

    @property
    def pred(self) -> str:
        return self.fact.pred

    @property
    def args(self) -> Tuple:
        return self.fact.args

    @property
    def sign(self) -> int:
        """The weight's sign -- the signed-delta view of this entry
        (kept for the ``batch_size=1`` reference path and older
        call sites that only branch on direction)."""
        return 1 if self.weight > 0 else -1

    def __repr__(self) -> str:
        return f"{self.weight:+d} {self.fact!r}@{self.ts}"
