"""Table store tests: primary keys, derivation counts, replacement,
indexes."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SchemaError
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.engine.table import INFINITY, Table, projector
from repro.ndlog import parse

from queued import run_of


def test_insert_and_contains():
    t = Table("p", 2)
    assert t.insert(("a", 1)) is None
    assert ("a", 1) in t
    assert len(t) == 1


def test_duplicate_insert_increments_count_no_delta():
    t = Table("p", 2)
    t.insert(("a", 1))
    t.insert(("b", 2))
    assert t.insert(("a", 1)) is None
    assert t.count(("a", 1)) == 2
    assert t.rows() == [("a", 1), ("b", 2)]  # a bump moves no row


def test_delete_respects_count():
    t = Table("p", 2)
    t.insert(("a", 1))
    t.insert(("a", 1))
    assert t.delete(("a", 1)) is None       # 2 -> 1, still visible
    assert t.count(("a", 1)) == 1 and ("a", 1) in t
    t.delete(("a", 1))
    assert ("a", 1) not in t and len(t) == 0


def test_delete_absent_is_noop():
    t = Table("p", 2)
    assert t.delete(("a", 1)) is None
    assert len(t) == 0


def test_force_delete_ignores_count():
    t = Table("p", 2)
    t.insert(("a", 1))
    t.insert(("a", 1))
    assert t.force_delete(("a", 1)) is None
    assert len(t) == 0
    assert t.force_delete(("a", 1)) is None  # absent: a no-op


def test_primary_key_replacement():
    """P2 semantics: a tuple with an existing key replaces the old one
    (how link-cost updates enter the system, Section 4)."""
    t = Table("link", 3, key=(0, 1))
    t.insert(("a", "b", 5))
    t.insert(("a", "c", 1))
    assert t.insert(("a", "b", 7)) is None
    assert ("a", "b", 5) not in t
    # The replacement takes the back of the insertion order.
    assert t.rows() == [("a", "c", 1), ("a", "b", 7)]
    assert t.get_by_key(("a", "b")) == ("a", "b", 7)


def test_replacement_ignores_old_count():
    t = Table("link", 3, key=(0, 1))
    t.insert(("a", "b", 5))
    t.insert(("a", "b", 5))
    t.insert(("a", "b", 7))
    assert t.count(("a", "b", 5)) == 0
    assert t.count(("a", "b", 7)) == 1


@pytest.mark.parametrize("call", [
    lambda t: t.insert(("a", 1), count=0),
    lambda t: t.insert(("a", 1), count=-2),
    lambda t: t.insert(("b", 2), count=-1),   # a duplicate, too
    lambda t: t.delete(("b", 2), count=-5),
    lambda t: t.delete(("b", 2), count=0),
])
def test_a_non_positive_count_raises_and_changes_nothing(call):
    """A row is visible exactly while its weight is positive: a count
    of zero or less would store an invisible row, a negative one, or
    raise a stored count."""
    t = Table("t", 2)
    t.insert(("b", 2), count=3)
    with pytest.raises(SchemaError, match="count must be positive"):
        call(t)
    assert t.rows() == [("b", 2)] and t.count(("b", 2)) == 3


def test_only_a_keyed_table_keeps_a_slot_dict():
    full, keyed = Table("p", 2), Table("q", 2, key=(0,))
    assert full._slots is None and keyed._slots == {}
    for table in (full, keyed):
        table.insert(("a", 1))
    assert full.get_by_key(("a", 1)) == ("a", 1)
    assert full.get_by_key(("a", 2)) is None
    assert keyed.get_by_key(("a",)) == ("a", 1)
    assert keyed._slots == {("a",): ("a", 1)}


def test_full_key_default():
    t = Table("p", 3)
    t.insert(("a", "b", 1))
    t.insert(("a", "b", 2))  # different full tuple -> coexists
    assert len(t) == 2


def test_get_by_key():
    t = Table("link", 3, key=(0, 1))
    t.insert(("a", "b", 5))
    assert t.get_by_key(("a", "b")) == ("a", "b", 5)
    assert t.get_by_key(("a", "z")) is None


def test_lookup_builds_and_maintains_index():
    t = Table("p", 2)
    t.insert(("a", 1))
    t.insert(("a", 2))
    t.insert(("b", 3))
    assert set(t.lookup((0,), ("a",))) == {("a", 1), ("a", 2)}
    # Index maintained across mutations.
    t.insert(("a", 4))
    assert set(t.lookup((0,), ("a",))) == {("a", 1), ("a", 2), ("a", 4)}
    t.delete(("a", 1))
    assert set(t.lookup((0,), ("a",))) == {("a", 2), ("a", 4)}


def test_lookup_no_positions_scans_all():
    t = Table("p", 1)
    t.insert(("a",))
    t.insert(("b",))
    assert set(t.lookup((), ())) == {("a",), ("b",)}


def test_lookup_multiple_positions():
    t = Table("p", 3)
    t.insert(("a", "b", 1))
    t.insert(("a", "c", 2))
    assert set(t.lookup((0, 1), ("a", "b"))) == {("a", "b", 1)}


def test_arity_checked():
    t = Table("p", 2)
    with pytest.raises(SchemaError):
        t.insert(("a",))


def test_bad_key_position_rejected():
    with pytest.raises(SchemaError):
        Table("p", 2, key=(5,))


def test_zero_arity_rejected():
    with pytest.raises(SchemaError):
        Table("p", 0)


def test_clear():
    t = Table("p", 1)
    t.insert(("a",))
    t.lookup((0,), ("a",))
    t.clear()
    assert len(t) == 0
    assert set(t.lookup((0,), ("a",))) == set()


# ----------------------------------------------------------------------
# Shared projectors: one per positions tuple, for every table and index
# ----------------------------------------------------------------------
def test_tables_indexed_on_the_same_positions_share_one_projector():
    a, b = Table("a", 3, key=(0, 1)), Table("b", 3, key=(0, 1))
    assert a.key_of is b.key_of is projector((0, 1))
    a.index_for((0, 2))
    b.index_for((0, 2))
    project_a, _ = a._indexes[(0, 2)]
    project_b, _ = b._indexes[(0, 2)]
    assert project_a is project_b is projector((0, 2))
    assert project_a(("x", "y", "z")) == ("x", "z")


def test_one_position_index_is_keyed_by_one_tuples():
    t = Table("p", 2)
    t.insert(("a", 1))
    t.insert(("a", 2))
    assert projector((1,))(("a", 1)) == (1,)
    assert set(t.index_for((0,))) == {("a",)}
    assert set(t.lookup((0,), ("a",))) == {("a", 1), ("a", 2)}
    assert set(t.lookup((0,), "a")) == set()  # a bare value is no key
    t.force_delete(("a", 1))
    assert set(t.index_for((0,))[("a",)]) == {("a", 2)}
    keyed = Table("q", 2, key=(0,))
    assert keyed.key_of(("a", 1)) == ("a",)


def _reference_index(table, positions):
    """The index as the generator expression the projectors replaced
    would rebuild it from the stored rows."""
    index = {}
    for args in table.rows():
        index.setdefault(tuple(args[i] for i in positions), set()).add(args)
    return index


TABLE_SHAPES = {
    "full-key": dict(key=()),
    "keyed": dict(key=(0, 1)),
    "soft-state": dict(key=(0, 1), lifetime=1.0),
}
# A row pick: 0-7 is one of the eight rows (two values a column, four
# keys); 8-15 is a row the model holds, so bumps, renewals and
# withdrawals of a stored row come up often.
picks = st.integers(min_value=0, max_value=15)
weights = st.integers(min_value=1, max_value=2)
table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), picks, weights, st.booleans()),
        st.tuples(st.just("delete"), picks, weights),
        st.tuples(st.just("force_delete"), picks),
        st.tuples(st.just("bump_run"),
                  st.lists(st.tuples(picks, weights), max_size=4),
                  st.booleans()),
        st.tuples(st.just("claim_due"), st.integers(0, 6)),
        st.tuples(st.just("clear")),
    ),
    min_size=15,
    max_size=50,
)
ALL_ROWS = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]


class TableModel:
    """What a table is, written plainly: row -> count in insertion
    order and a deadline order.  The slot a key holds is found by
    scanning the rows."""

    def __init__(self, key, soft):
        self.key, self.soft = key, soft
        self.counts, self.deadlines = {}, {}

    def key_of(self, args):
        return tuple(args[i] for i in self.key)

    def slot(self, key):
        held = [args for args in self.counts if self.key_of(args) == key]
        assert len(held) <= 1, held
        return held[0] if held else None

    def remove(self, args):
        del self.counts[args]
        self.deadlines.pop(args, None)

    def renew(self, args, deadline):
        if deadline is not None and args in self.deadlines:
            del self.deadlines[args]
            self.deadlines[args] = deadline

    def insert(self, args, count, deadline):
        if args in self.counts:
            if self.soft:
                self.renew(args, deadline)
            else:
                self.counts[args] += count
            return
        old = self.slot(self.key_of(args))
        if old is not None:
            self.remove(old)
        self.counts[args] = count
        if self.soft and deadline is not None:
            self.deadlines[args] = deadline

    def delete(self, args, count):
        if args in self.counts:
            if self.counts[args] > count:
                self.counts[args] -= count
            else:
                self.remove(args)

    def force_delete(self, args):
        if args in self.counts:
            self.remove(args)

    def bump_run(self, run, deadline):
        for index, (args, weight) in enumerate(run):
            if args not in self.counts:
                return index
            self.insert(args, weight, deadline)
        return len(run)

    def claim_due(self, now):
        due = [args for args, deadline in self.deadlines.items()
               if deadline <= now]
        for args in due:
            del self.deadlines[args]
        return due

    def clear(self):
        self.counts.clear()
        self.deadlines.clear()


@pytest.mark.parametrize("shape", sorted(TABLE_SHAPES))
@given(ops=table_ops)
# A renewal behind another dated row.
@example(ops=[("insert", 0, 1, True), ("insert", 2, 1, True),
              ("insert", 0, 1, True)])
@settings(deadline=None, max_examples=100)
def test_table_matches_a_reference_model(shape, ops):
    """Any sequence of the table's operations leaves it equal to the
    reference model: rows in the model's insertion order, the same
    counts, slots and deadline order; every maintained index
    equal to a rebuild from ``rows()`` (an index registered midway is
    built from the rows already stored); mutations return nothing.
    Deadlines are issued in step order, as one lifetime per table and a
    forward-only clock issue them."""
    table = Table("t", 3, **TABLE_SHAPES[shape])
    model = TableModel(table.key, table.lifetime != INFINITY)
    index_positions = [(0,), (2,), (1, 2), (2, 0)]
    live = {positions: table.index_for(positions)
            for positions in index_positions[:2]}
    for step, (op, *params) in enumerate(ops):
        if step == len(ops) // 2:
            for positions in index_positions[2:]:
                live[positions] = table.index_for(positions)
        known = sorted(model.counts)

        def row(pick):
            if pick < 8 or not known:
                return ALL_ROWS[pick % 8]
            return known[pick % len(known)]

        if op == "insert":
            pick, count, dated = params
            deadline = float(step) if dated else None
            assert table.insert(row(pick), count, deadline) is None
            model.insert(row(pick), count, deadline)
        elif op == "bump_run":
            run, dated = params
            deadline = float(step) if dated else None
            run = [(row(pick), weight) for pick, weight in run]
            assert (table.bump_run(*run_of(*run), 0, len(run), deadline)
                    == model.bump_run(run, deadline))
        elif op == "claim_due":
            now = float(step - params[0])
            assert table.claim_due(now) == model.claim_due(now)
        elif op == "clear":
            assert table.clear() is None
            model.clear()
        else:
            params = (row(params[0]), *params[1:])
            assert getattr(table, op)(*params) is None
            getattr(model, op)(*params)
        context = (step, op, params)
        assert table.rows() == list(model.counts), context
        assert list(table.rows_view()) == list(table.lookup((), ()))
        assert list(table.lookup((), ())) == table.rows()
        assert len(table) == len(model.counts)
        for args in ALL_ROWS:
            assert table.count(args) == model.counts.get(args, 0), context
            assert (args in table) == (args in model.counts)
        for key in {model.key_of(args) for args in ALL_ROWS}:
            assert table.get_by_key(key) == model.slot(key), context
        for positions, index in live.items():
            assert index is table.index_for(positions)  # stable object
            assert index == _reference_index(table, positions), (
                positions, context)
        assert list(table.deadlines.items()) == list(
            model.deadlines.items()), context
        due_times = list(table.deadlines.values())
        assert due_times == sorted(due_times)


def test_wrong_arity_row_raises_and_keeps_the_rows_before_it():
    """The arity check stays per row: earlier rows of the same run are
    committed (and indexed), exactly as sequential commits left them."""
    program = parse("""
        materialize(p, infinity, infinity, keys(1, 2)).
        materialize(q, infinity, infinity, keys(1, 2)).
        R1: q(@X, Y) :- #p(@X, Y).
    """)
    engine = PSNEngine(program, batch_size=8)
    engine.derive(Fact("p", ("a", 1)), 1)
    engine.derive(Fact("p", ("b", 2)), 1)
    engine.derive(Fact("p", ("c",)), 1)
    engine.derive(Fact("p", ("d", 4)), 1)
    with pytest.raises(SchemaError):
        engine.run()
    table = engine.db.table("p")
    assert sorted(table.rows()) == [("a", 1), ("b", 2)]
    assert set(table.lookup((0,), ("b",))) == {("b", 2)}


# ----------------------------------------------------------------------
# bump_run: the run-level entry for what changes no visibility
# ----------------------------------------------------------------------
def test_bump_run_stops_at_the_first_unstored_row_and_books_nothing_past_it():
    table = Table("p", 2)
    for row in (("a", 1), ("b", 2), ("d", 4)):
        table.insert(row)
    run = run_of(("a", 1), ("b", 2), ("c", 3), ("d", 4))
    assert table.bump_run(*run, 0, 4) == 2
    assert [table.count(args) for args in run[0]] == [2, 2, 0, 1]
    # From the middle of a run; an empty and an unstored-first range.
    assert table.bump_run(*run, 3, 4) == 4
    assert table.count(("d", 4)) == 2
    assert table.bump_run(*run, 2, 4) == 2
    assert table.bump_run(*run, 4, 4) == 4
    assert table.count(("d", 4)) == 2 and ("c", 3) not in table
    # Bumps move no row.
    assert table.rows() == [("a", 1), ("b", 2), ("d", 4)]


def test_bump_run_sums_whole_weights_on_a_hard_state_table():
    table = Table("link", 3, key=(0, 1))
    table.insert(("a", "b", 1), count=2)
    table.insert(("a", "c", 1))
    run = run_of((("a", "b", 1), 5), (("a", "c", 1), 3), (("a", "b", 1), 1))
    # A deadline means nothing to a hard-state table.
    assert table.bump_run(*run, 0, 3, deadline=9.0) == 3
    assert table.count(("a", "b", 1)) == 8
    assert table.count(("a", "c", 1)) == 4
    assert not table.deadlines


def test_bump_run_renews_and_leaves_a_claimed_row_claimed():
    table = Table("beacon", 3, key=(0, 1), lifetime=1.0)
    claimed, live, undated = ("a", "b", 1), ("a", "c", 1), ("a", "d", 1)
    table.insert(claimed, deadline=1.0)
    table.insert(live, deadline=2.0)
    table.insert(undated)                    # never comes due
    assert table.claim_due(1.0) == [claimed]
    run = run_of((claimed, 4), live, undated)
    assert table.bump_run(*run, 0, 3, deadline=5.0) == 3
    # Renewals: no count moves, whatever the weight; the claimed row is
    # not re-tracked, the undated one stays undated.
    assert [table.count(row) for row in (claimed, live, undated)] == [1, 1, 1]
    assert list(table.deadlines.items()) == [(live, 5.0)]
    assert table.claim_due(9.0) == [live]


def test_bump_run_keeps_the_deadline_dict_in_deadline_order():
    table = Table("beacon", 3, key=(0, 1), lifetime=1.0)
    rows = [("a", name, 1) for name in "bcdefg"]
    for index, row in enumerate(rows):
        table.insert(row, deadline=1.0 + index)
    assert table.claim_due(1.0) == [rows[0]]
    # Renew out of order, one row twice, the claimed row in between; a
    # fresh row ends the run with the rows behind it untouched.
    run = run_of(rows[4], rows[0], rows[2], rows[4], ("a", "z", 1), rows[1])
    assert table.bump_run(*run, 0, len(run[0]), deadline=9.0) == 4
    assert list(table.deadlines.items()) == [
        (rows[1], 2.0), (rows[3], 4.0), (rows[5], 6.0),
        (rows[2], 9.0), (rows[4], 9.0)]
    deadlines = list(table.deadlines.values())
    assert deadlines == sorted(deadlines)
    assert table.claim_due(6.0) == [rows[1], rows[3], rows[5]]
    # Without a deadline the run leaves the order alone.
    assert table.bump_run(*run, 2, 4) == 4
    assert list(table.deadlines.items()) == [(rows[2], 9.0), (rows[4], 9.0)]
    assert table.rows() == rows                # and moves no row


@settings(max_examples=150, deadline=None)
@given(
    soft=st.booleans(),
    stored=st.lists(st.integers(0, 7), unique=True, max_size=8),
    claim=st.integers(0, 4),
    run=st.lists(st.tuples(st.integers(0, 9), st.integers(1, 3)),
                 max_size=12),
    deadline=st.sampled_from([None, 50.0]),
)
def test_bump_run_is_insert_row_by_row_up_to_the_first_unstored_row(
        soft, stored, claim, run, deadline):
    def build():
        table = Table("p", 2, key=(0,), lifetime=1.0 if soft else INFINITY)
        for when, key in enumerate(stored):
            table.insert((key, "v"), deadline=float(when))
        table.claim_due(float(claim))
        return table

    heads, weights = run_of(*[((key, "v"), weight) for key, weight in run])
    one, by_row = build(), build()
    booked = one.bump_run(heads, weights, 0, len(heads), deadline=deadline)
    for expected, args in enumerate(heads):
        if args not in by_row:
            break
        by_row.insert(args, weights[expected], deadline)
    else:
        expected = len(heads)
    assert booked == expected
    assert one.rows() == by_row.rows()
    assert [one.count(args) for args in one.rows()] == [
        by_row.count(args) for args in by_row.rows()]
    assert list(one.deadlines.items()) == list(by_row.deadlines.items())
