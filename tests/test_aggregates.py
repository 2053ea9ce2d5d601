"""Incremental aggregate maintenance tests (Sections 3.3.2 and 4)."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.aggregates import (
    AggregateView,
    ArgExtremeView,
    GroupState,
    aggregate_view,
    order_key,
)
from repro.engine.rules import AggregateInfo
from repro.errors import EvaluationError


def make_view(func="min"):
    # spCost(@S, @D, min<C>): group = (S, D) at positions (0, 1),
    # value at position 2.
    info = AggregateInfo(func=func, var="C", value_position=2,
                         group_positions=(0, 1))
    return aggregate_view("spCost", info)


def witnesses(view):
    return {group: state.witness for group, state in view.groups.items()}


class TestGroupState:
    def test_count_counts_derivations(self):
        g = GroupState("count")
        g.add(1)
        g.add(1)
        g.add(1)
        assert g.current() == 3
        g.remove(1)
        assert g.current() == 2

    def test_sum_over_distinct_values(self):
        g = GroupState("sum")
        g.add(2)
        g.add(2)  # duplicate derivation of the same value
        g.add(3)
        assert g.current() == 5
        g.remove(2)  # one derivation remains, value still present
        assert g.current() == 5
        g.remove(2)
        assert g.current() == 3

    def test_avg(self):
        g = GroupState("avg")
        g.add(2)
        g.add(4)
        assert g.current() == 3

    def test_remove_unknown_value_raises(self):
        g = GroupState("count")
        with pytest.raises(EvaluationError):
            g.remove(99)

    def test_unknown_func_raises(self):
        g = GroupState("median")
        g.add(1)
        with pytest.raises(EvaluationError):
            g.current()

    @pytest.mark.parametrize("func", ["sum", "avg"])
    def test_a_contribution_reads_the_value_in_constant_time(self, func):
        """``apply`` reads a group's value before and after each
        contribution; with 1,000 distinct values in one group that is
        a handful of additions per contribution, not a re-sum of the
        group (about a million)."""
        calls = [0]

        class Counted(int):
            def __add__(self, other):
                calls[0] += 1
                return int(self) + int(other)

            __radd__ = __add__

            def __rsub__(self, other):
                calls[0] += 1
                return int(other) - int(self)

        info = AggregateInfo(func=func, var="C", value_position=1,
                             group_positions=(0,))
        view = aggregate_view("total", info)
        n = 1000
        for value in range(n):
            view.apply(("g", Counted(value)), 1)
        for value in range(0, n, 2):
            view.apply(("g", Counted(value)), -1)
        assert calls[0] <= 3 * n
        expected = sum(range(1, n, 2))
        assert view.current_rows() == [
            ("g", expected if func == "sum" else expected / (n // 2))]

    @given(ops=st.lists(st.tuples(st.booleans(),
                                  st.sampled_from([0.1, 0.2, 0.3, 1e16, 3,
                                                   -2, 2.5])),
                        max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_the_total_is_the_left_to_right_sum_of_the_values(self, ops):
        """Whatever enters and leaves -- ints, floats, both -- the value
        is the live values added left to right in insertion order:
        exact int subtraction, and no float residue."""
        g = GroupState("sum")
        for adding, value in ops:
            if adding:
                g.add(value)
            elif g.values.get(value):
                g.remove(value)
            if g.values:
                total = 0
                for live in g.values:
                    total = total + live
                assert g.current() == total
                assert type(g.current()) is type(total)
            else:
                assert g.current() is None


class TestAggregateView:
    def test_min_max_heads_are_arg_extreme_views(self):
        assert isinstance(make_view("min"), ArgExtremeView)
        assert isinstance(make_view("max"), ArgExtremeView)
        assert isinstance(make_view("sum"), AggregateView)
        info = AggregateInfo(func="min", var="C", value_position=2,
                             group_positions=(0, 1))
        with pytest.raises(EvaluationError, match="ArgExtremeView"):
            AggregateView("spCost", info)

    def test_first_contribution_emits_insert(self):
        view = make_view()
        deltas = view.apply(("a", "b", 5), 1)
        assert deltas == [(1, ("a", "b", 5))]

    def test_improvement_replaces(self):
        view = make_view()
        view.apply(("a", "b", 5), 1)
        deltas = view.apply(("a", "b", 2), 1)
        assert deltas == [(-1, ("a", "b", 5)), (1, ("a", "b", 2))]

    def test_non_improvement_is_silent(self):
        view = make_view()
        view.apply(("a", "b", 5), 1)
        assert view.apply(("a", "b", 9), 1) == []

    def test_retracting_best_falls_back(self):
        view = make_view()
        view.apply(("a", "b", 5), 1)
        view.apply(("a", "b", 2), 1)
        deltas = view.apply(("a", "b", 2), -1)
        assert deltas == [(-1, ("a", "b", 2)), (1, ("a", "b", 5))]

    def test_retracting_last_value_deletes_group(self):
        view = make_view()
        view.apply(("a", "b", 5), 1)
        deltas = view.apply(("a", "b", 5), -1)
        assert deltas == [(-1, ("a", "b", 5))]
        assert view.groups == {}

    def test_groups_are_independent(self):
        view = make_view()
        view.apply(("a", "b", 5), 1)
        deltas = view.apply(("a", "c", 9), 1)
        assert deltas == [(1, ("a", "c", 9))]

    def test_duplicate_value_needs_two_retractions(self):
        view = make_view()
        view.apply(("a", "b", 5), 1)
        view.apply(("a", "b", 5), 1)
        assert view.apply(("a", "b", 5), -1) == []
        assert view.apply(("a", "b", 5), -1) == [(-1, ("a", "b", 5))]

    def test_current_rows(self):
        view = make_view()
        view.apply(("a", "b", 5), 1)
        view.apply(("a", "c", 3), 1)
        assert sorted(view.current_rows()) == [("a", "b", 5), ("a", "c", 3)]

    def test_value_position_not_last(self):
        # bestFirst(min<C>, @S): aggregate in position 0.
        info = AggregateInfo(func="min", var="C", value_position=0,
                             group_positions=(1,))
        view = aggregate_view("bestFirst", info)
        assert view.apply((5, "a"), 1) == [(1, (5, "a"))]
        assert view.apply((3, "a"), 1) == [(-1, (5, "a")), (1, (3, "a"))]
        info = AggregateInfo(func="sum", var="C", value_position=0,
                             group_positions=(1,))
        view = aggregate_view("total", info)
        assert view.apply((5, "a"), 1) == [(1, (5, "a"))]
        assert view.apply((3, "a"), 1) == [(-1, (5, "a")), (1, (8, "a"))]

    def test_apply_many_emits_net_change_only(self):
        view = make_view()
        view.apply(("a", "b", 5), 1)
        assert view.apply_many(
            [("a", "b", 4), ("a", "b", 3), ("a", "b", 2)], 1) is None
        # 5 -> 4 -> 3 -> 2 collapses to one retract + one insert.
        assert view.drain() == [(-1, ("a", "b", 5), None),
                                (1, ("a", "b", 2), None)]
        assert (view.changes, view.emitted) == (7, 2)
        assert view.drain() == []

    def test_apply_many_retractions(self):
        view = make_view()
        view.apply(("a", "b", 5), 1)
        view.apply_many([("a", "b", 5)], -1)
        assert view.drain() == [(-1, ("a", "b", 5), None)]
        view.apply(("a", "b", 5), 1)
        view.apply(("a", "b", 4), 1)
        view.apply_many([("a", "b", 4)], -1)
        assert view.drain() == [(-1, ("a", "b", 4), None),
                                (1, ("a", "b", 5), None)]
        # The net runs over every call since the last drain: the only
        # value retracted by one firing and re-added by the next is no
        # change at all, under the trace that moved it last or not.
        view.apply_many([("a", "b", 5)], -1, [7])
        assert view.pending == {("a", "b", 5): -1}
        view.apply_many([("a", "b", 5), ("a", "b", 6)], 1, [8, 9])
        assert view.pending == {("a", "b", 5): 0}
        assert view.moved_by == {("a", "b", 5): 8}
        assert view.drain() == []
        assert not view.pending and not view.moved_by


def view_state(view):
    """Everything a refused retraction must leave as it was: members,
    multiplicities, heaps entry for entry (a read pops dead entries, so
    a refusal must come before any), counters and the pending net."""
    if isinstance(view, AggregateView):
        held = {group: (dict(state.values), state.total_multiplicity)
                for group, state in view.groups.items()}
    else:
        held = {
            group: (dict(state.members), state.witness,
                    state.heap and [entry.args for entry in state.heap])
            for group, state in view.groups.items()}
    return (held, view.changes, view.emitted, dict(view.pending),
            dict(view.moved_by), sorted(view.current_rows()))


def make_arg_view(func="min"):
    # The same grouping as ``make_view``, built as an aggregate selection.
    return ArgExtremeView("best", (0, 1), 2, func=func)


@pytest.mark.parametrize("make,func", [
    pytest.param(make, func, id=f"{name}-{func}")
    for name, make, funcs in [("aggregate", make_view, ["max", "min", "sum"]),
                              ("arg-extreme", make_arg_view, ["max", "min"])]
    for func in funcs])
class TestRefusedRetraction:
    """A retraction the view cannot cover raises and changes nothing.
    (It used to leave an empty group behind: ``current_rows()`` then
    reported ``("a", "b", None)``.)"""

    REFUSED = [
        (("x", "y", 5), -1),    # unknown group
        (("a", "b", 5), -3),    # known group, it holds two
        (("a", "b", 6), -1),    # known group, no such value
    ]

    def settled(self, make, func):
        view = make(func)
        extreme = 1 if func == "min" else 9
        view.apply_many([("a", "b", 5), ("a", "b", 5), ("a", "b", 7),
                         ("a", "b", extreme), ("a", "c", 4)], 1)
        # The extreme leaves: its heap entry is dead and still on top.
        view.apply(("a", "b", extreme), -1)
        assert view.pending
        return view

    def test_view_is_untouched(self, make, func):
        view = self.settled(make, func)
        before = view_state(view)
        for contribution, weight in self.REFUSED:
            with pytest.raises(EvaluationError, match="retracting"):
                view.apply(contribution, weight)
            assert view_state(view) == before
        assert ("a", "b", None) not in view.current_rows()
        assert make(func).current_rows() == []

    def test_empty_view_stays_empty(self, make, func):
        view = make(func)
        with pytest.raises(EvaluationError, match="retracting"):
            view.apply(("a", "b", 5), -1)
        assert view_state(view) == view_state(make(func))
        assert view.apply(("a", "b", 5), 1) == [(1, ("a", "b", 5))]

    def test_a_run_keeps_what_preceded_the_refusal(self, make, func):
        view = self.settled(make, func)
        view.drain()
        with pytest.raises(EvaluationError, match="retracting"):
            view.apply_many([("a", "c", 4), ("x", "y", 1)], -1)
        # The first contribution was applied and its output is booked.
        assert view.drain() == [(-1, ("a", "c", 4), None)]
        assert sorted(row[:2] for row in view.current_rows()) == [("a", "b")]


EXTREME_VALUES = st.one_of(
    st.integers(-4, 4), st.sampled_from([-2.5, 0.5, 1.0, 3.0, 3.5]))
#: ``(value, weight)`` adds a value; ``(pick, weight)`` with a negative
#: weight withdraws from the ``pick``-th live value (modulo).
EXTREME_OPS = st.lists(st.one_of(
    st.tuples(EXTREME_VALUES, st.integers(1, 3)),
    st.tuples(st.integers(0, 20), st.integers(-3, -1)),
), max_size=60)


@pytest.mark.parametrize("func", ["min", "max"])
@given(ops=EXTREME_OPS)
@settings(max_examples=150, deadline=None)
def test_extreme_view_matches_recompute_from_values(func, ops):
    """``apply`` reads the heap once per contribution and derives the
    new extreme from the old one; after every add and remove -- ints,
    floats equal to ints, repeats, the extreme's last derivation, the
    group's last value -- the emitted deltas are what recomputing the
    extreme over the live values gives."""
    view = make_view(func)
    best = min if func == "min" else max
    live = Counter()
    emitted = 0

    def step(value, weight):
        nonlocal emitted
        old = best(live) if live else None
        live[value] += weight
        if not live[value]:
            del live[value]
        new = best(live) if live else None
        expected = []
        if old != new:
            expected = [(-1, ("a", "b", old))] * (old is not None)
            expected += [(1, ("a", "b", new))] * (new is not None)
        assert view.apply(("a", "b", value), weight) == expected
        emitted += len(expected)
        assert view.changes == emitted
        if live:
            state = view.groups[("a", "b")]
            assert state.members == {("a", "b", v): n for v, n in live.items()}
            assert state.witness == ("a", "b", best(live))
        assert view.current_rows() == [("a", "b", new)] * (new is not None)

    for first, weight in ops:
        if weight > 0:
            step(first, weight)
        elif live:
            value = sorted(live)[first % len(live)]
            step(value, max(weight, -live[value]))
    for value in sorted(live, reverse=func == "max"):
        step(value, -live[value])       # retract to empty, extreme first
    assert view.groups == {}


#: A witness member ``(group, value, tag)``: values tie often, and the
#: tags mix types so that some ties are settled by ``order_key``.
WITNESS_MEMBERS = st.tuples(
    st.sampled_from(["g", "h"]),
    st.one_of(st.integers(-3, 3), st.sampled_from([0.5, 1.0, 2.5])),
    st.one_of(st.sampled_from(["a", "b", "c"]), st.integers(0, 2)),
)
#: Phases of a stream: a run of inserts (long enough to leave many
#: members behind a witness that was never read off a heap), then some
#: witness deaths, then some partial withdrawals of any member.
WITNESS_PHASES = st.lists(st.tuples(
    st.lists(st.tuples(WITNESS_MEMBERS, st.integers(1, 2)), max_size=30),
    st.lists(st.sampled_from(["g", "h"]), max_size=6),
    st.lists(st.tuples(st.integers(0, 40), st.integers(1, 2)), max_size=4),
), min_size=1, max_size=5)


class WitnessModel:
    """Arg-min / arg-max by brute force: ties keep the incumbent, and a
    dead witness is replaced by the best survivor under ``order_key``
    (value first, then the whole tuple)."""

    def __init__(self, func):
        self.func = func
        self.members = {}     # group -> Counter of tuples
        self.winners = {}
        #: Groups whose witness has died with survivors left.
        self.promoted = set()

    def better(self, a, b):
        return a < b if self.func == "min" else a > b

    def apply(self, args, weight):
        group = (args[0],)
        members = self.members.setdefault(group, Counter())
        winner = self.winners.get(group)
        members[args] += weight
        if weight > 0:
            if winner is None:
                self.winners[group] = args
                return [(1, args)]
            if self.better(args[1], winner[1]):
                self.winners[group] = args
                return [(-1, winner), (1, args)]
            return []
        if not members[args]:
            del members[args]
        if args != winner or args in members:
            return []
        if not members:
            del self.members[group], self.winners[group]
            self.promoted.discard(group)
            return [(-1, args)]
        pick = min if self.func == "min" else max
        top = pick(order_key(member[1]) for member in members)
        best = min((member for member in members
                    if order_key(member[1]) == top), key=order_key)
        self.winners[group] = best
        self.promoted.add(group)
        return [(-1, args), (1, best)]


@pytest.mark.parametrize("func", ["min", "max"])
@given(phases=WITNESS_PHASES)
@settings(max_examples=150, deadline=None)
def test_arg_extreme_view_matches_brute_force_witnesses(func, phases):
    """The witness heap is built at a group's first witness death with
    survivors and kept from then on; before and after, every delta and
    every witness is what the brute-force model gives."""
    view = ArgExtremeView("best", (0,), 1, func=func)
    model = WitnessModel(func)

    def step(args, weight):
        assert view.apply(args, weight) == model.apply(args, weight)
        assert witnesses(view) == model.winners
        assert {group for group, state in view.groups.items()
                if state.heap is not None} == model.promoted

    for inserts, deaths, withdrawals in phases:
        for args, weight in inserts:
            step(args, weight)
        for group in deaths:
            winner = model.winners.get((group,))
            if winner is not None:
                step(winner, -model.members[(group,)][winner])
        for pick, weight in withdrawals:
            live = sorted((args for members in model.members.values()
                           for args in members), key=order_key)
            if live:
                args = live[pick % len(live)]
                step(args, -min(weight, model.members[(args[0],)][args]))
    for group, members in list(model.members.items()):
        for args in sorted(members, key=order_key):
            step(args, -members[args])
    assert view.groups == {}


class TestHeapBackedExtremes:
    """The lazy-deletion heaps must agree with a from-scratch min/max
    under arbitrary churn (the O(log n) structure of [27])."""

    @pytest.mark.parametrize("func", ["min", "max"])
    def test_random_churn_matches_rescan(self, func):
        rng = random.Random(42)
        view = make_view(func)
        shadow = []
        for _ in range(3000):
            if shadow and rng.random() < 0.45:
                value = rng.choice(shadow)
                shadow.remove(value)
                view.apply(("a", "b", value), -1)
            else:
                value = rng.randint(0, 50)
                shadow.append(value)
                view.apply(("a", "b", value), 1)
            expected = []
            if shadow:
                best = min(shadow) if func == "min" else max(shadow)
                expected = [("a", "b", best)]
            assert view.current_rows() == expected

    def test_heap_stays_compact_under_churn(self):
        view = make_view("min")
        for i in range(1000):
            view.apply(("a", "b", i), 1)
        for i in range(995):
            view.apply(("a", "b", i), -1)
        assert view.current_rows() == [("a", "b", 995)]
        state = view.groups[("a", "b")]
        assert len(state.heap) <= 2 * len(state.members) + 16 + 1

    @pytest.mark.parametrize("func", ["min", "max"])
    @pytest.mark.parametrize("make", [make_view, make_arg_view],
                             ids=["aggregate", "arg-extreme"])
    def test_insert_only_builds_no_heap(self, monkeypatch, make, func):
        """Values only ever arrive: each group's extreme is displaced
        again and again and nothing is withdrawn, so no group reads a
        heap -- and none is built or pushed onto."""
        import heapq

        import repro.engine.aggregates as aggregates

        calls = []

        class CountingHeapq:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(heapq, name)

        monkeypatch.setattr(aggregates, "heapq", CountingHeapq())
        view = make(func)
        rng = random.Random(5)
        for _ in range(2000):
            view.apply(("a", rng.choice("bcd"), rng.randint(0, 500)), 1)
        view.apply_many([("a", "e", value) for value in range(50)], 1)
        assert view.changes > len(view.groups)    # extremes displaced
        assert calls == []
        assert all(state.heap is None for state in view.groups.values())

    @pytest.mark.parametrize("func", ["min", "max"])
    def test_argextreme_random_churn_matches_rescan(self, func):
        rng = random.Random(7)
        view = ArgExtremeView("best", (0,), 1, func=func)
        shadow = {}
        for _ in range(2000):
            group = rng.choice(["g1", "g2"])
            members = shadow.setdefault(group, [])
            if members and rng.random() < 0.45:
                args = rng.choice(members)
                members.remove(args)
                view.apply(args, -1)
            else:
                args = (group, rng.randint(0, 30))
                members.append(args)
                view.apply(args, 1)
            for g, rows in shadow.items():
                if not rows:
                    assert (g,) not in view.groups
                    continue
                best = view.groups[(g,)].witness
                values = [r[1] for r in rows]
                expected = min(values) if func == "min" else max(values)
                assert best[1] == expected


class TestOrderKey:
    def test_orders_numbers_numerically_across_int_float(self):
        assert order_key(1.5) < order_key(2)
        assert order_key(2) < order_key(2.5)

    def test_bools_pool_with_numbers_like_raw_comparison(self):
        # Raw comparisons treat True as 1; the heap order must agree
        # with ArgExtremeView.apply's raw comparison or promotion picks
        # a non-extreme.
        assert order_key(True) < order_key(2)
        assert order_key(0) < order_key(True)
        view = ArgExtremeView("best", (0,), 1, func="min")
        view.apply(("g", 0), 1)
        view.apply(("g", True), 1)
        view.apply(("g", 2), 1)
        deltas = view.apply(("g", 0), -1)
        assert deltas == [(-1, ("g", 0)), (1, ("g", True))]

    def test_orders_across_types_deterministically(self):
        values = ["b", 3, ("x", 1), "a", 2.5, ("x",)]
        ordered = sorted(values, key=order_key)
        assert ordered == sorted(values, key=order_key)  # stable/total
        assert ordered.index(2.5) < ordered.index(3)
        assert ordered.index("a") < ordered.index("b")
        assert ordered.index(("x",)) < ordered.index(("x", 1))

    def test_nonwinner_churn_keeps_heap_compact(self):
        """Flapping a non-winning alternative must not grow the lazy
        heap unboundedly (compaction also runs off the non-winner
        removal path)."""
        view = ArgExtremeView("best", (0,), 1, func="min")
        view.apply(("g", 1), 1)  # stable winner
        for _ in range(5000):
            view.apply(("g", 7), 1)
            view.apply(("g", 7), -1)
        state = view.groups[("g",)]
        assert state.witness == ("g", 1)
        assert len(state.heap or ()) <= 2 * 1 + 16 + 1

    def test_unorderable_values_tie_break_deterministically(self):
        """Witness tuples may carry values with no natural order (e.g.
        ConstructedTuple); the tie-break key must not raise on insert
        and promotion must stay deterministic."""
        from repro.ndlog.terms import ConstructedTuple

        class Opaque:  # no __lt__
            def __init__(self, tag):
                self.tag = tag

            def __repr__(self):
                return f"Opaque({self.tag})"

        view = ArgExtremeView("best", (0,), 1, func="min")
        a = ConstructedTuple("link", ("a", "b"))
        b = ConstructedTuple("link", ("a", "c"))
        view.apply(("g", 5, a), 1)
        view.apply(("g", 5, b), 1)  # value tie; unorderable third field
        deltas = view.apply(("g", 5, a), -1)
        assert deltas == [(-1, ("g", 5, a)), (1, ("g", 5, b))]
        view2 = ArgExtremeView("best", (0,), 1, func="min")
        ox, oy = Opaque("x"), Opaque("y")
        view2.apply(("g", 5, ox), 1)
        view2.apply(("g", 5, oy), 1)
        deltas = view2.apply(("g", 5, ox), -1)  # no TypeError on promote
        assert deltas == [(-1, ("g", 5, ox)), (1, ("g", 5, oy))]

    def test_tie_break_promotes_least_tuple(self):
        view = ArgExtremeView("best", (0,), 1, func="min")
        view.apply(("g", 5, "zebra"), 1)     # incumbent
        view.apply(("g", 5, "aardvark"), 1)  # tie: incumbent kept
        assert view.groups[("g",)].witness == ("g", 5, "zebra")
        deltas = view.apply(("g", 5, "zebra"), -1)
        # Promotion is deterministic: the least tuple under order_key.
        assert deltas == [(-1, ("g", 5, "zebra")), (1, ("g", 5, "aardvark"))]


def _tied_members():
    """Members that all tie on the value (position 1), by family."""
    from repro.ndlog.terms import ConstructedTuple as CT

    return {
        "homogeneous": [("g", 5, "zebra"), ("g", 5, "aardvark"),
                        ("g", 5.0, "mole"), ("g", 5, "bat")],
        "mixed": [("g", 5, (1, "x")), ("g", 5, (1, 2)), ("g", 5, "s"),
                  ("g", 5, 3), ("g", 5, None), ("g", 5, 2.5)],
        "nested": [("g", 5, ("a", ("b", 1))), ("g", 5, ("a", ("b", 0.5))),
                   ("g", 5, ("a",)), ("g", 5, ("a", ("b",))),
                   ("g", 5, ("a", ("b", "c")))],
        "constructed": [("g", 5, CT("link", ("a", "b"))),
                        ("g", 5, CT("link", ("a", "c"))),
                        ("g", 5, CT("hop", ("z",))),
                        ("g", 5, CT("link", ("a", 1)))],
    }


class TestLazyTieBreak:
    """The tie-break key is built only when raw tuple comparison
    raises; the promotion order it yields is still ``order_key`` order
    (CI runs this file under PYTHONHASHSEED 0, 1 and 2, and the members
    go in in set order)."""

    @pytest.mark.parametrize("func", ["min", "max"])
    @pytest.mark.parametrize("family", sorted(_tied_members()))
    def test_promotion_order_among_ties_is_order_key_order(
            self, family, func):
        members = _tied_members()[family]
        view = ArgExtremeView("best", (0,), 1, func=func)
        # A strictly better incumbent, so no tied member wins by
        # arriving first.
        incumbent = ("g", 4 if func == "min" else 6, "incumbent")
        view.apply(incumbent, 1)
        for args in set(members):
            assert view.apply(args, 1) == []
        promoted = []
        winner = incumbent
        for _ in members:
            (_, gone), (_, winner) = view.apply(winner, -1)
            promoted.append(winner)
        assert promoted == sorted(members, key=order_key)
        assert view.apply(winner, -1) == [(-1, winner)]

    def test_compaction_keeps_the_order(self):
        """A rebuilt heap (stale entries compacted away) promotes in
        the same order."""
        members = _tied_members()["mixed"]
        view = ArgExtremeView("best", (0,), 1, func="min")
        view.apply(("g", 1, "incumbent"), 1)
        for _ in range(40):  # strand entries until the heap compacts
            view.apply(("g", 9, "flap"), 1)
            view.apply(("g", 9, "flap"), -1)
        for args in set(members):
            view.apply(args, 1)
        (_, _), (_, winner) = view.apply(("g", 1, "incumbent"), -1)
        assert winner == min(members, key=order_key)

    def test_no_key_is_built_for_comparable_members(self, monkeypatch):
        import repro.engine.aggregates as aggregates

        calls = []
        real = aggregates.order_key

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(aggregates, "order_key", counting)
        view = ArgExtremeView("best", (0,), 3, func="min")
        path = ("a", "b", "c", "d")
        view.apply(("a", "d", path, 5), 1)
        view.apply(("a", "d", path[:2] + ("x", "d"), 5), 1)
        view.apply(("a", "d", path, 5), -1)
        # The heap built at the witness's death compares raw values
        # and raw paths: no key at all.
        assert calls == []
