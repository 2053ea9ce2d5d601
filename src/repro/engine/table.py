"""Materialized tables with primary keys, derivation counts, timestamps,
and lazily maintained secondary indexes.

Semantics follow P2 (Section 2 of the paper):

* every relation has a primary key; in the absence of a declaration the
  key is the full set of attributes;
* inserting a tuple whose key matches an existing tuple with *different*
  non-key attributes **replaces** it (this is how a link-cost update or a
  neighbour's new best-path advertisement supersedes the old value);
* re-inserting an identical tuple increments its *derivation count* (the
  count algorithm of [Gupta et al. 93], used in Section 4); a tuple is
  only removed when its count drops to zero;
* on a table with a finite ``materialize`` lifetime (soft state, Section
  4.2: "facts must be explicitly reinserted with their latest values and
  a new TTL") an identical re-insertion is a **renewal** instead: its
  deadline and timestamp move, its count does not (a row refreshed 200
  times holds count 1; one counted withdrawal removes it).  Such a table
  keeps its rows' deadlines itself, in deadline order: one lifetime per
  table and a forward-only clock issue them in non-decreasing order, so
  an insertion-ordered dict with pop-and-reinsert on renewal is already
  sorted and the due rows are a prefix (:meth:`Table.claim_due`).  The
  committer passes the deadline, the sweeper the time.

Storage is multiplicity-aware throughout: a table is a Z-set whose
entries are the stored tuples with positive integer weights (the
derivation counts), and a tuple is *visible* exactly while its weight
is positive.  :meth:`insert` and :meth:`delete` take a ``count`` so a
netted weighted delta commits as one arithmetic adjustment rather than
a run of unit bumps.

Mutating methods return the list of externally visible deltas
(``(sign, args)`` pairs) -- visibility *transitions*, always weight
``+-1`` -- which is exactly what the semi-naive engines propagate.

What changes no visibility has a run-level entry: :meth:`Table.bump_run`
takes a run of queue rows and books the stored rows at its head -- count
bumps, or renewals on a soft-state table -- in one loop, returning the
index of the first row that is not stored.  That is the commonest delta
a deployed soft-state node sees (every refresh round is all renewals),
and PSN's commit path calls it wherever a batch of fresh rows would
open; fresh rows, replacements and deletions still enter row by row
through :meth:`Table.insert` / :meth:`Table.delete` /
:meth:`Table.force_delete`.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import SchemaError

INFINITY = float("inf")


@lru_cache(maxsize=None)
def projector(positions: Tuple[int, ...]) -> Callable[[Tuple], Tuple]:
    """The function projecting a row onto ``positions``, always as a
    tuple (one position gives the 1-tuple the strand kernels probe
    with).  Built once per positions tuple and shared by every table,
    index and aggregate view in the process -- the cache is bounded by
    the distinct key / index signatures of the loaded programs."""
    if len(positions) == 1:
        position, = positions
        return lambda args: (args[position],)
    if not positions:
        return lambda args: ()
    return itemgetter(*positions)


class Table:
    """One stored relation."""

    def __init__(
        self,
        name: str,
        arity: int,
        key: Sequence[int] = (),
        lifetime: float = INFINITY,
        fallback: bool = False,
    ):
        if arity <= 0:
            raise SchemaError(f"table {name!r} must have positive arity")
        for position in key:
            if not 0 <= position < arity:
                raise SchemaError(
                    f"table {name!r}: key position {position} out of range"
                )
        self.name = name
        self.arity = arity
        #: 0-based key positions; empty declaration means "all attributes".
        self.key: Tuple[int, ...] = tuple(key) or tuple(range(arity))
        self.lifetime = lifetime
        self._full_key = self.key == tuple(range(arity))
        #: row -> primary-key value (the identity on a full-key table).
        self.key_of: Callable[[Tuple], Tuple] = (
            tuple if self._full_key else projector(self.key)
        )
        #: Shadow superseded slot versions so the latest outstanding one
        #: can be restored when the current row is withdrawn.  Only
        #: meaningful for keyed tables that rules derive into, where a
        #: slot aggregates independently-derived versions (a neighbour's
        #: successive advertisements); full-key or soft-state tables
        #: never shadow.
        self.fallback = (
            fallback and not self._full_key and lifetime == INFINITY
        )
        #: key value -> stored args
        self._rows: Dict[Tuple, Tuple] = {}
        #: args -> derivation count
        self._counts: Dict[Tuple, int] = {}
        #: args -> timestamp of (re-)insertion
        self._ts: Dict[Tuple, int] = {}
        #: args -> deadline, in deadline order; hard-state tables: None.
        self._deadlines = None if lifetime == INFINITY else {}
        #: Renewals committed so far (the engine adds them run by run).
        self.renewals = 0
        #: Rows displaced by a primary-key replacement, and the times an
        #: insert run committed its pending batch early because a row
        #: hit a slot the batch had touched (the engine adds both, batch
        #: by batch: ``PSNEngine._commit_insert_run``).
        self.replaced = 0
        self.run_splits = 0
        #: key value -> {superseded args -> derivation count}, in
        #: displacement order (most recent last).
        self._shadow: Dict[Tuple, Dict[Tuple, int]] = {}
        #: positions tuple -> (projector, value tuple -> set of args)
        self._indexes: Dict[
            Tuple[int, ...], Tuple[Callable, Dict[Tuple, Set[Tuple]]]
        ] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, args: Tuple) -> bool:
        return args in self._counts

    def rows(self) -> List[Tuple]:
        """All stored tuples (stable order not guaranteed)."""
        return list(self._rows.values())

    def count(self, args: Tuple) -> int:
        return self._counts.get(args, 0)

    def ts(self, args: Tuple) -> int:
        return self._ts.get(args, -1)

    def get_by_key(self, key_values: Tuple) -> Optional[Tuple]:
        """The stored tuple matching a primary-key value, if any."""
        return self._rows.get(key_values)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, args: Tuple, ts: int = 0, count: int = 1,
               deadline: Optional[float] = None) -> List[Tuple[int, Tuple]]:
        """Insert ``args``; return visible deltas.

        * brand-new tuple                -> ``[(+1, args)]``
        * duplicate derivation           -> ``[]`` (count incremented,
          or on a finite-lifetime table ``deadline`` renewed)
        * primary-key replacement        -> ``[(-1, old), (+1, args)]``

        A soft-state row committed without a ``deadline`` never comes
        due, and a renewal that carries none leaves the row's deadline
        and its place in the deadline order alone.
        """
        args = tuple(args)
        deadlines = self._deadlines
        if args in self._counts:
            # Duplicate derivation: bump the count, or on a soft-state
            # table renew the deadline (a row :meth:`claim_due` took
            # stays claimed: its queued delete wins).  Stamps only move
            # forward: callers that omit ``ts`` do not rewind one
            # (:meth:`restamp` reassigns by force).  A run of these
            # commits through :meth:`bump_run`, which books the same.
            if deadlines is None:
                self._counts[args] += count
            elif deadline is not None and args in deadlines:
                del deadlines[args]
                deadlines[args] = deadline
            if ts > self._ts.get(args, -1):
                self._ts[args] = ts
            return []
        if len(args) != self.arity:
            raise SchemaError(
                f"table {self.name!r}: arity {self.arity} but got {args!r}"
            )
        deltas: List[Tuple[int, Tuple]] = []
        key = self.key_of(args)
        old = self._rows.get(key)
        if old is not None:
            # Primary-key replacement: the old tuple is superseded outright
            # (its derivation count does not protect it -- the new value is
            # the current state of the world, e.g. an updated link cost).
            self._remove(old)
            deltas.append((-1, old))
        self._rows[key] = args
        self._counts[args] = count
        self._ts[args] = ts
        if deadline is not None and deadlines is not None:
            deadlines[args] = deadline
        for project, index in self._indexes.values():
            projected = project(args)
            bucket = index.get(projected)
            if bucket is None:
                index[projected] = {args}
            else:
                bucket.add(args)
        deltas.append((1, args))
        return deltas

    def bump_run(self, rows: Sequence[Tuple], start: int, stop: int,
                 ts: int = 0, deadline: Optional[float] = None) -> int:
        """Book the leading rows of the queue run ``rows[start:stop]``
        (``(pred, args, weight, ...)`` tuples) that are already stored,
        and return the index of the first one that is not (``stop`` if
        all are).  Nothing past that index is read.

        Each booked row is what :meth:`insert` does with a duplicate
        derivation, visible to nobody: a count bump of the row's whole
        weight, or on a finite-lifetime table a renewal -- the deadline
        moves to the back of the deadline order unless :meth:`claim_due`
        already took the row (or the row never held one), and a renewal
        that carries no ``deadline`` leaves deadline and order alone.
        The rows are stamped ``ts + 1``, ``ts + 2``, ... in run order,
        forward only.
        """
        counts, stamps, deadlines = self._counts, self._ts, self._deadlines
        if deadlines is None:
            for index in range(start, stop):
                row = rows[index]
                args = row[1]
                if args not in counts:
                    return index
                counts[args] += row[2]
                ts += 1
                if ts > stamps[args]:
                    stamps[args] = ts
            return stop
        renewing = deadline is not None
        for index in range(start, stop):
            args = rows[index][1]
            if args not in counts:
                return index
            if renewing and args in deadlines:
                del deadlines[args]
                deadlines[args] = deadline
            ts += 1
            if ts > stamps[args]:
                stamps[args] = ts
        return stop

    def delete(self, args: Tuple, count: int = 1) -> List[Tuple[int, Tuple]]:
        """Remove one (or ``count``) derivations of ``args``.

        Returns ``[(-1, args)]`` when the tuple disappears, else ``[]``.
        Deleting an absent tuple is a no-op (deletions may race with
        replacements in a distributed run).
        """
        args = tuple(args)
        current = self._counts.get(args)
        if current is None:
            return []
        if current > count:
            self._counts[args] = current - count
            return []
        self._remove(args)
        return [(-1, args)]

    def force_delete(self, args: Tuple) -> List[Tuple[int, Tuple]]:
        """Remove ``args`` entirely regardless of derivation count."""
        args = tuple(args)
        if args not in self._counts:
            return []
        self._remove(args)
        return [(-1, args)]

    # ------------------------------------------------------------------
    # Slot shadows (fallback tables only)
    # ------------------------------------------------------------------
    def supersede(self, args: Tuple) -> None:
        """Displace the stored tuple ``args`` into its key's shadow,
        preserving its derivation count: the version is still
        *outstanding* (whoever derived it has not withdrawn it), it is
        merely no longer the slot's current value."""
        args = tuple(args)
        count = self._counts.get(args)
        if count is None:
            return
        key = self.key_of(args)
        self._remove(args)
        bucket = self._shadow.setdefault(key, {})
        count += bucket.pop(args, 0)
        bucket[args] = count  # re-append: most recent displacement last

    def shadowed(self, args: Tuple) -> bool:
        """Whether ``args`` is a superseded-but-outstanding version."""
        args = tuple(args)
        bucket = self._shadow.get(self.key_of(args))
        return bucket is not None and args in bucket

    def shadow_discard(self, args: Tuple, count: int = 1) -> None:
        """Withdraw ``count`` derivations of a shadowed version (its
        producer retracted an advertisement that was never current)."""
        args = tuple(args)
        key = self.key_of(args)
        bucket = self._shadow.get(key)
        if bucket is None or args not in bucket:
            return
        remaining = bucket[args] - count
        if remaining > 0:
            bucket[args] = remaining
        else:
            del bucket[args]
            if not bucket:
                del self._shadow[key]

    def pop_fallback(self, key: Tuple) -> Optional[Tuple[Tuple, int]]:
        """Remove and return the most recently displaced outstanding
        version under ``key`` as ``(args, count)``, or ``None``."""
        bucket = self._shadow.get(key)
        if not bucket:
            return None
        args, count = bucket.popitem()
        if not bucket:
            del self._shadow[key]
        return args, count

    def absorb_shadow(self, args: Tuple) -> None:
        """Drop any shadow entry for ``args``: a version that was
        re-advertised while shadowed is current again and must not also
        linger as its own fallback.  The shadow is a *passive* stock of
        repair hints -- it never feeds live derivation counts (which
        stay exactly what the baseline count algorithm produces)."""
        args = tuple(args)
        key = self.key_of(args)
        bucket = self._shadow.get(key)
        if bucket is None:
            return
        bucket.pop(args, None)
        if not bucket:
            del self._shadow[key]

    def clear_shadow(self, key: Tuple) -> None:
        """Drop every shadowed version under ``key`` (forced deletes
        wipe the whole slot: nothing may resurrect)."""
        self._shadow.pop(key, None)

    @property
    def deadlines(self) -> Dict[Tuple, float]:
        """Live ``args -> deadline`` view of the rows holding one, in
        deadline order (do not mutate; empty on a hard-state table)."""
        return self._deadlines or {}

    def claim_due(self, now: float) -> List[Tuple]:
        """Take the rows with a deadline ``<= now`` out of the deadline
        order, earliest first.  They stay stored: the caller queues
        their deletion, and until it commits a claimed row can be
        neither claimed nor renewed again."""
        deadlines = self.deadlines
        due: List[Tuple] = []
        for args, deadline in deadlines.items():
            if deadline > now:
                break
            due.append(args)
        for args in due:
            del deadlines[args]
        return due

    def restamp(self, args: Tuple, ts: int) -> None:
        """Reassign a stored tuple's timestamp (used when pre-loaded rows
        are seeded into a PSN queue, so table and delta timestamps agree)."""
        args = tuple(args)
        if args in self._counts:
            self._ts[args] = ts

    def clear(self) -> None:
        self._rows.clear()
        self._counts.clear()
        self._ts.clear()
        self._shadow.clear()
        if self._deadlines is not None:
            self._deadlines.clear()
        for _, index in self._indexes.values():
            index.clear()

    def _remove(self, args: Tuple) -> None:
        del self._counts[args]
        self._ts.pop(args, None)
        if self._deadlines is not None:
            self._deadlines.pop(args, None)
        key = self.key_of(args)
        if self._rows.get(key) == args:
            del self._rows[key]
        for project, index in self._indexes.values():
            projected = project(args)
            bucket = index.get(projected)
            if bucket is not None:
                bucket.discard(args)
                if not bucket:
                    del index[projected]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def index_for(self, positions: Tuple[int, ...]) -> Dict[Tuple, Set[Tuple]]:
        """The live index dict on ``positions``, built if needed.

        The returned object is stable for the table's lifetime (inserts
        and removals mutate it in place, :meth:`clear` empties it), so
        compiled join plans may capture it directly.
        """
        positions = tuple(positions)
        entry = self._indexes.get(positions)
        return self._build_index(positions) if entry is None else entry[1]

    def rows_view(self):
        """Live view of the stored tuples (do not mutate the table while
        iterating it)."""
        return self._rows.values()

    def register_index(self, positions: Tuple[int, ...]) -> None:
        """Eagerly build (and from then on maintain) the hash index on
        ``positions``.  Compiled join plans pre-register every index
        they probe at engine construction, so the first delta does not
        pay the index-build cost mid-flight."""
        positions = tuple(positions)
        if not positions or positions in self._indexes:
            return
        self._build_index(positions)

    def _build_index(self, positions: Tuple[int, ...]) -> Dict[Tuple, Set[Tuple]]:
        index: Dict[Tuple, Set[Tuple]] = {}
        project = projector(positions)
        for args in self._rows.values():
            index.setdefault(project(args), set()).add(args)
        self._indexes[positions] = (project, index)
        return index

    def lookup(self, positions: Tuple[int, ...], values: Tuple) -> Iterable[Tuple]:
        """All tuples whose ``positions`` equal ``values``.

        Builds (and from then on maintains) a hash index on first use.
        """
        if not positions:
            return self._rows.values()
        entry = self._indexes.get(positions)
        index = self._build_index(positions) if entry is None else entry[1]
        return index.get(values, ())
