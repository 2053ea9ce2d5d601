"""Materialized tables with primary keys, derivation counts and lazily
maintained secondary indexes.

Semantics follow P2 (Section 2 of the paper):

* every relation has a primary key; in the absence of a declaration the
  key is the full set of attributes;
* inserting a tuple whose key matches an existing tuple with *different*
  non-key attributes **replaces** it (this is how a link-cost update or a
  neighbour's new best-path advertisement supersedes the old value).
  A slot keeps no earlier version: withdrawing the tuple it holds
  leaves it empty;
* re-inserting an identical tuple increments its *derivation count* (the
  count algorithm of [Gupta et al. 93], used in Section 4); a tuple is
  only removed when its count drops to zero;
* on a table with a finite ``materialize`` lifetime (soft state, Section
  4.2: "facts must be explicitly reinserted with their latest values and
  a new TTL") an identical re-insertion is a **renewal** instead: its
  deadline moves, its count does not (a row refreshed 200 times holds
  count 1; one counted withdrawal removes it).  Such a table
  keeps its rows' deadlines itself, in deadline order: one lifetime per
  table and a forward-only clock issue them in non-decreasing order, so
  an insertion-ordered dict with pop-and-reinsert on renewal is already
  sorted and the due rows are a prefix (:meth:`Table.claim_due`).  The
  committer passes the deadline, the sweeper the time.

Storage is a Z-set and nothing more: one insertion-ordered dict from
each stored tuple to its positive integer weight (the derivation
count), and a tuple is *visible* exactly while its weight is positive.
A keyed table (key narrower than the row) adds one *slot* dict from key
value to the row holding it; on a full-key table the row is its own key
and there is no second dict.  Rows carry no timestamp: PSN commits at
dequeue, so the table already is the "same or older" prefix of Section
3.3.2.  :meth:`insert` and :meth:`delete` take a ``count`` (positive:
anything else raises :class:`~repro.errors.SchemaError`) so a netted
weighted delta commits as one arithmetic adjustment rather than a run
of unit bumps.  Mutations return nothing; a caller that needs the
visibility transitions reads them off the table (:meth:`count`,
:meth:`get_by_key`) before it mutates.

What changes no visibility has a run-level entry: :meth:`Table.bump_run`
takes a queue run's heads and weights and books the stored rows at its
head -- count bumps, or renewals on a soft-state table -- in one loop,
returning the index of the first row that is not stored.  That is the
commonest delta a deployed soft-state node sees (every refresh round is
all renewals), and PSN's commit path calls it wherever a batch of fresh
rows would open.  A renewal there is one pop of the row's deadline and
one store of the new one (the pop finding a deadline is the proof the
row is stored), and :meth:`Table.insert` books a stored row the same
way; fresh rows, replacements and deletions still enter row by row
through :meth:`Table.insert` / :meth:`Table.delete` /
:meth:`Table.force_delete`.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.errors import SchemaError

INFINITY = float("inf")

#: What :attr:`Table.deadlines` reads on every hard-state table.
NO_DEADLINES: Mapping[Tuple, float] = MappingProxyType({})


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
        #: args -> derivation count, in insertion order: the table.
        #: ``counts`` is the same dict, for a caller that tests or
        #: counts a whole run of rows without a call per row (read it,
        #: never mutate it: ``in`` and :meth:`count` read it the same).
        self._counts: Dict[Tuple, int] = {}
        self.counts: Mapping[Tuple, int] = self._counts
        #: key value -> stored args; full-key tables: None.
        self._slots: Optional[Dict[Tuple, Tuple]] = (
            None if self._full_key else {}
        )
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
        #: positions tuple -> (projector, value tuple -> set of args)
        self._indexes: Dict[
            Tuple[int, ...], Tuple[Callable, Dict[Tuple, Set[Tuple]]]
        ] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, args: Tuple) -> bool:
        return args in self._counts

    def rows(self) -> List[Tuple]:
        """All stored tuples, in insertion order (a replacement moves
        its slot to the back)."""
        return list(self._counts)

    def count(self, args: Tuple) -> int:
        return self._counts.get(args, 0)

    def get_by_key(self, key_values: Tuple) -> Optional[Tuple]:
        """The stored tuple matching a primary-key value, if any."""
        slots = self._slots
        if slots is None:
            return key_values if key_values in self._counts else None
        return slots.get(key_values)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, args: Tuple, count: int = 1,
               deadline: Optional[float] = None) -> None:
        """Add ``count`` derivations of ``args``.

        A brand-new tuple is stored; a duplicate derivation bumps the
        count, or on a finite-lifetime table renews ``deadline``; a
        tuple whose primary key holds another row replaces that row.

        A soft-state row committed without a ``deadline`` never comes
        due, and a renewal that carries none leaves the row's deadline
        and its place in the deadline order alone.
        """
        if count <= 0:
            raise SchemaError(
                f"table {self.name!r}: insert count must be positive, "
                f"got {count!r}"
            )
        args = tuple(args)
        counts, deadlines = self._counts, self._deadlines
        if args in counts:
            # Duplicate derivation: bump the count, or on a soft-state
            # table renew the deadline -- the pop-and-store of
            # :meth:`bump_run`, which books a run of these (a row
            # :meth:`claim_due` took holds no deadline and stays
            # claimed: its queued delete wins).
            if deadlines is None:
                counts[args] += count
            elif (deadline is not None
                  and deadlines.pop(args, None) is not None):
                deadlines[args] = deadline
            return
        if len(args) != self.arity:
            raise SchemaError(
                f"table {self.name!r}: arity {self.arity} but got {args!r}"
            )
        slots = self._slots
        if slots is not None:
            key = self.key_of(args)
            old = slots.get(key)
            if old is not None:
                # Primary-key replacement: the old tuple is superseded
                # outright (its derivation count does not protect it --
                # the new value is the current state of the world, e.g.
                # an updated link cost).
                self._remove(old)
            slots[key] = args
        counts[args] = count
        if deadline is not None and deadlines is not None:
            deadlines[args] = deadline
        for project, index in self._indexes.values():
            projected = project(args)
            bucket = index.get(projected)
            if bucket is None:
                index[projected] = {args}
            else:
                bucket.add(args)

    def bump_run(self, heads: Sequence[Tuple], weights: Sequence[int],
                 start: int, stop: int, deadline: Optional[float] = None
                 ) -> int:
        """Book the leading rows ``heads[start:stop]`` of a queue run
        (``weights`` is the run's parallel list of weights) that are
        already stored, and return the index of the first one that is
        not (``stop`` if all are).  Nothing past that index is read.

        Each booked row is what :meth:`insert` does with a duplicate
        derivation, visible to nobody: a count bump of the row's whole
        weight, or on a finite-lifetime table a renewal -- the deadline
        moves to the back of the deadline order unless :meth:`claim_due`
        already took the row (or the row never held one), and a renewal
        that carries no ``deadline`` leaves deadline and order alone.

        A renewal costs two hash operations: popping the row's deadline
        (a row holding one is stored) and storing the new one, which
        re-inserts it at the back.  A row holding no deadline pays the
        pop and the test that it is stored; a renewal that carries no
        ``deadline``, only that test.
        """
        counts, deadlines = self._counts, self._deadlines
        if deadlines is None:
            for index in range(start, stop):
                args = heads[index]
                if args not in counts:
                    return index
                counts[args] += weights[index]
            return stop
        pop = deadlines.pop
        for index in range(start, stop):
            args = heads[index]
            if deadline is not None and pop(args, None) is not None:
                deadlines[args] = deadline
            elif args not in counts:
                return index
        return stop

    def delete(self, args: Tuple, count: int = 1) -> None:
        """Remove one (or ``count``) derivations of ``args``; the tuple
        goes when its count reaches zero.  Deleting an absent tuple is a
        no-op (deletions may race with replacements in a distributed
        run)."""
        if count <= 0:
            raise SchemaError(
                f"table {self.name!r}: delete count must be positive, "
                f"got {count!r}"
            )
        args = tuple(args)
        current = self._counts.get(args)
        if current is None:
            return
        if current > count:
            self._counts[args] = current - count
        else:
            self._remove(args)

    def force_delete(self, args: Tuple) -> None:
        """Remove ``args`` entirely regardless of derivation count."""
        args = tuple(args)
        if args in self._counts:
            self._remove(args)

    @property
    def deadlines(self) -> Mapping[Tuple, float]:
        """Live ``args -> deadline`` view of the rows holding one, in
        deadline order, so its first value is the earliest deadline (do
        not mutate).  A soft-state table returns its own dict, empty or
        not, so a view held from construction sees every later row; a
        hard-state table returns one shared read-only empty mapping."""
        deadlines = self._deadlines
        return NO_DEADLINES if deadlines is None else deadlines

    def claim_due(self, now: float) -> List[Tuple]:
        """Take the rows with a deadline ``<= now`` out of the deadline
        order, earliest first.  They stay stored: the caller queues
        their deletion, and until it commits a claimed row can be
        neither claimed nor renewed again."""
        deadlines = self._deadlines
        if deadlines is None:
            return []
        due: List[Tuple] = []
        for args, deadline in deadlines.items():
            if deadline > now:
                break
            due.append(args)
        for args in due:
            del deadlines[args]
        return due

    def clear(self) -> None:
        self._counts.clear()
        if self._slots is not None:
            self._slots.clear()
        if self._deadlines is not None:
            self._deadlines.clear()
        for _, index in self._indexes.values():
            index.clear()

    def _remove(self, args: Tuple) -> None:
        del self._counts[args]
        if self._deadlines is not None:
            self._deadlines.pop(args, None)
        if self._slots is not None:
            del self._slots[self.key_of(args)]
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
        return self._counts.keys()

    def _build_index(self, positions: Tuple[int, ...]) -> Dict[Tuple, Set[Tuple]]:
        index: Dict[Tuple, Set[Tuple]] = {}
        project = projector(positions)
        for args in self._counts:
            index.setdefault(project(args), set()).add(args)
        self._indexes[positions] = (project, index)
        return index

    def lookup(self, positions: Tuple[int, ...], values: Tuple) -> Iterable[Tuple]:
        """All tuples whose ``positions`` equal ``values``.

        Builds (and from then on maintains) a hash index on first use.
        """
        if not positions:
            return self._counts.keys()
        entry = self._indexes.get(positions)
        index = self._build_index(positions) if entry is None else entry[1]
        return index.get(values, ())
