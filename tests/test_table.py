"""Table store tests: primary keys, derivation counts, replacement,
indexes."""

import pytest

from repro.errors import SchemaError
from repro.engine.table import Table


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
