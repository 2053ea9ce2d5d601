"""Table store tests: primary keys, derivation counts, replacement,
indexes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.engine.table import INFINITY, Table, projector
from repro.ndlog import parse


def test_insert_and_contains():
    t = Table("p", 2)
    assert t.insert(("a", 1)) == [(1, ("a", 1))]
    assert ("a", 1) in t
    assert len(t) == 1


def test_duplicate_insert_increments_count_no_delta():
    t = Table("p", 2)
    t.insert(("a", 1))
    assert t.insert(("a", 1)) == []
    assert t.count(("a", 1)) == 2
    assert len(t) == 1


def test_delete_respects_count():
    t = Table("p", 2)
    t.insert(("a", 1))
    t.insert(("a", 1))
    assert t.delete(("a", 1)) == []          # 2 -> 1, still visible
    assert t.delete(("a", 1)) == [(-1, ("a", 1))]
    assert ("a", 1) not in t


def test_delete_absent_is_noop():
    t = Table("p", 2)
    assert t.delete(("a", 1)) == []


def test_force_delete_ignores_count():
    t = Table("p", 2)
    t.insert(("a", 1))
    t.insert(("a", 1))
    assert t.force_delete(("a", 1)) == [(-1, ("a", 1))]
    assert len(t) == 0


def test_primary_key_replacement():
    """P2 semantics: a tuple with an existing key replaces the old one
    (how link-cost updates enter the system, Section 4)."""
    t = Table("link", 3, key=(0, 1))
    t.insert(("a", "b", 5))
    deltas = t.insert(("a", "b", 7))
    assert deltas == [(-1, ("a", "b", 5)), (1, ("a", "b", 7))]
    assert t.rows() == [("a", "b", 7)]


def test_replacement_ignores_old_count():
    t = Table("link", 3, key=(0, 1))
    t.insert(("a", "b", 5))
    t.insert(("a", "b", 5))
    deltas = t.insert(("a", "b", 7))
    assert (-1, ("a", "b", 5)) in deltas
    assert t.count(("a", "b", 5)) == 0


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


def test_timestamps():
    t = Table("p", 1)
    t.insert(("a",), ts=7)
    assert t.ts(("a",)) == 7
    assert t.ts(("zz",)) == -1
    t.restamp(("a",), 9)
    assert t.ts(("a",)) == 9


def test_duplicate_insert_refreshes_ts():
    """A re-inserted fact is a *refresh* (Section 4.2: soft-state facts
    "must be explicitly reinserted ... with a new TTL"), so the stored
    timestamp must track the latest (re-)insertion, not the first."""
    t = Table("p", 1)
    t.insert(("a",), ts=3)
    t.insert(("a",), ts=9)
    assert t.count(("a",)) == 2
    assert t.ts(("a",)) == 9
    # A refresh never rewinds: callers that omit ts (default 0) keep
    # the newest stamp.
    t.insert(("a",))
    assert t.ts(("a",)) == 9


def test_duplicate_insert_refresh_visible_to_ts_limit_consumers():
    """Regression: the stale timestamp made any timestamp filter
    treat a refreshed fact as old, and soft-state refreshes kept the
    original expiry."""
    t = Table("p", 2)
    t.insert(("a", 1), ts=1)
    t.insert(("b", 2), ts=2)
    t.insert(("a", 1), ts=5)
    fresh = [args for args in t.rows() if t.ts(args) > 2]
    assert fresh == [("a", 1)]


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
    a.register_index((0, 2))
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
    "fallback": dict(key=(0, 1), fallback=True),
}
values = st.integers(min_value=0, max_value=2)
table_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "delete", "force_delete", "supersede", "clear"]),
        st.tuples(values, values, values),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=40,
)


@pytest.mark.parametrize("shape", sorted(TABLE_SHAPES))
@given(ops=table_ops)
@settings(deadline=None, max_examples=60)
def test_maintained_indexes_equal_a_rebuild_from_rows(shape, ops):
    """After any sequence of mutations every maintained index -- and
    the key map -- equals one rebuilt from ``rows()``; an index
    registered midway is built from the rows already stored."""
    table = Table("t", 3, **TABLE_SHAPES[shape])
    index_positions = [(0,), (2,), (1, 2), (2, 0)]
    live = {positions: table.index_for(positions)
            for positions in index_positions[:2]}
    for step, (op, args, count) in enumerate(ops):
        if step == len(ops) // 2:
            for positions in index_positions[2:]:
                live[positions] = table.index_for(positions)
        if op == "insert":
            table.insert(args, ts=step, count=count)
        elif op == "delete":
            table.delete(args, count)
        elif op == "clear":
            table.clear()
        else:
            getattr(table, op)(args)
        for positions, index in live.items():
            assert index is table.index_for(positions)  # stable object
            assert index == _reference_index(table, positions), (
                positions, op, args)
        assert {table.key_of(args): args for args in table.rows()} == {
            tuple(args[i] for i in table.key): args for args in table.rows()
        } == table._rows
        assert set(table._counts) == set(table.rows())


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
def queue_rows(pred, *rows):
    """Queue rows ``(pred, args, weight, force, restore, trace)`` from
    ``args`` or ``(args, weight)`` entries."""
    out = []
    for row in rows:
        args, weight = row if isinstance(row[0], tuple) else (row, 1)
        out.append((pred, args, weight, False, False, None))
    return out


def test_bump_run_stops_at_the_first_unstored_row_and_books_nothing_past_it():
    table = Table("p", 2)
    for row in (("a", 1), ("b", 2), ("d", 4)):
        table.insert(row, ts=1)
    run = queue_rows("p", ("a", 1), ("b", 2), ("c", 3), ("d", 4))
    assert table.bump_run(run, 0, 4, ts=10) == 2
    assert [table.count(row[1]) for row in run] == [2, 2, 0, 1]
    assert [table.ts(row[1]) for row in run] == [11, 12, -1, 1]
    # From the middle of a run; an empty and an unstored-first range.
    assert table.bump_run(run, 3, 4, ts=20) == 4
    assert table.count(("d", 4)) == 2 and table.ts(("d", 4)) == 21
    assert table.bump_run(run, 2, 4, ts=30) == 2
    assert table.bump_run(run, 4, 4, ts=30) == 4
    assert table.count(("d", 4)) == 2 and ("c", 3) not in table
    assert len(table) == 3


def test_bump_run_sums_whole_weights_on_a_hard_state_table():
    table = Table("link", 3, key=(0, 1))
    table.insert(("a", "b", 1), ts=1, count=2)
    table.insert(("a", "c", 1), ts=2)
    run = queue_rows("link", (("a", "b", 1), 5), (("a", "c", 1), 3),
                     (("a", "b", 1), 1))
    # A deadline means nothing to a hard-state table.
    assert table.bump_run(run, 0, 3, ts=2, deadline=9.0) == 3
    assert table.count(("a", "b", 1)) == 8
    assert table.count(("a", "c", 1)) == 4
    assert table.ts(("a", "b", 1)) == 5 and table.ts(("a", "c", 1)) == 4
    assert not table.deadlines


def test_bump_run_renews_and_leaves_a_claimed_row_claimed():
    table = Table("beacon", 3, key=(0, 1), lifetime=1.0)
    claimed, live, undated = ("a", "b", 1), ("a", "c", 1), ("a", "d", 1)
    table.insert(claimed, ts=1, deadline=1.0)
    table.insert(live, ts=2, deadline=2.0)
    table.insert(undated, ts=3)              # never comes due
    assert table.claim_due(1.0) == [claimed]
    run = queue_rows("beacon", (claimed, 4), live, undated)
    assert table.bump_run(run, 0, 3, ts=3, deadline=5.0) == 3
    # Renewals: no count moves, whatever the weight; the claimed row is
    # stamped but not re-tracked, the undated one stays undated.
    assert [table.count(row) for row in (claimed, live, undated)] == [1, 1, 1]
    assert [table.ts(row) for row in (claimed, live, undated)] == [4, 5, 6]
    assert list(table.deadlines.items()) == [(live, 5.0)]
    assert table.claim_due(9.0) == [live]


def test_bump_run_never_rewinds_a_stamp():
    table = Table("p", 2)
    table.insert(("a", 1), ts=50)
    table.insert(("b", 2), ts=3)
    run = queue_rows("p", ("a", 1), ("b", 2))
    assert table.bump_run(run, 0, 2, ts=10) == 2
    assert table.ts(("a", 1)) == 50          # 11 would rewind it
    assert table.ts(("b", 2)) == 12
    assert table.count(("a", 1)) == 2        # the bump is booked anyway


def test_bump_run_keeps_the_deadline_dict_in_deadline_order():
    table = Table("beacon", 3, key=(0, 1), lifetime=1.0)
    rows = [("a", name, 1) for name in "bcdefg"]
    for index, row in enumerate(rows):
        table.insert(row, ts=index, deadline=1.0 + index)
    assert table.claim_due(1.0) == [rows[0]]
    # Renew out of order, one row twice, the claimed row in between; a
    # fresh row ends the run with the rows behind it untouched.
    run = queue_rows("beacon", rows[4], rows[0], rows[2], rows[4],
                     ("a", "z", 1), rows[1])
    assert table.bump_run(run, 0, len(run), ts=10, deadline=9.0) == 4
    assert list(table.deadlines.items()) == [
        (rows[1], 2.0), (rows[3], 4.0), (rows[5], 6.0),
        (rows[2], 9.0), (rows[4], 9.0)]
    deadlines = list(table.deadlines.values())
    assert deadlines == sorted(deadlines)
    assert table.claim_due(6.0) == [rows[1], rows[3], rows[5]]
    # Without a deadline the run stamps and leaves the order alone.
    assert table.bump_run(run, 2, 4, ts=20) == 4
    assert list(table.deadlines.items()) == [(rows[2], 9.0), (rows[4], 9.0)]
    assert table.ts(rows[2]) == 21 and table.ts(rows[4]) == 22


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
        for ts, key in enumerate(stored):
            table.insert((key, "v"), ts=ts, deadline=float(ts))
        table.claim_due(float(claim))
        return table

    rows = queue_rows("p", *[((key, "v"), weight) for key, weight in run])
    one, by_row = build(), build()
    booked = one.bump_run(rows, 0, len(rows), ts=100, deadline=deadline)
    ts = 100
    for expected, row in enumerate(rows):
        if row[1] not in by_row:
            break
        ts += 1
        assert by_row.insert(row[1], ts, row[2], deadline) == []
    else:
        expected = len(rows)
    assert booked == expected
    assert one._counts == by_row._counts and one._ts == by_row._ts
    assert list(one.deadlines.items()) == list(by_row.deadlines.items())
    assert one._rows == by_row._rows
