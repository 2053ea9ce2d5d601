"""Incremental maintenance of aggregate rules (``min<>``, ``max<>``,
``count<>``, ``sum<>``, ``avg<>``).

Section 3.3.2 of the paper: "we utilize incremental fixpoint evaluation
techniques [27] that are amenable to pipelined query processing.  These
techniques can compute monotonic aggregates such as min, max and count
incrementally based on the current aggregate and each new input tuple."
Section 4 adds deletions: "the re-evaluation cost for min and max
aggregates are shown to be O(log n) time and O(n) space".

Semantics: the aggregate ranges over the *set* of distinct values derived
per group (set semantics, as everywhere in Datalog); duplicate
derivations of the same value are tracked with multiplicity counts so
that retractions only remove a value when its last derivation goes away.
Contributions arrive as Z-set entries -- an integer weight per tuple
(``+w`` adds ``w`` derivations, ``-w`` withdraws them), matching the
engines' weighted delta representation.
``count<*>`` counts derivations (multiplicity included), matching its use
as a derivation counter.

min/max retraction is the O(log n) structure of [27]: each group keeps a
heap with *lazy deletion* -- retractions never touch the heap, and
reads pop stale entries off the top until a live value surfaces.  A
group also keeps its extreme itself, so reading it is O(1): an insert
can only move it to the inserted value, and only the death of the
extreme's last derivation reads the heap.  The same structure backs
:class:`ArgExtremeView`'s witness promotion, with a total-order
tie-break key (:func:`order_key`) making the promoted witness
deterministic for values whose natural ordering admits ties; that heap
is built at a group's first witness death that leaves survivors (on a
cold start witnesses are only ever displaced, and the heap is never
read), so a change costs O(log n) amortized once a witness has died
and O(1) before.

**A view answers once per chunk.**  ``apply(contribution, weight) ->
deltas`` is the definition of a view and what the fixpoint engines call.
The pipelined engine feeds every firing -- a lone head or a run -- to
:meth:`apply_many` instead, which applies the contributions through
``apply`` in order and *adds* what they emit to the view's pending net
(head -> weight, first-seen order; a head was either current when the
chunk began or it was not, so its net is always -1, 0 or +1), and reads
the net once with :meth:`drain` when the chunk ends.  An update is
``{(old, -1), (new, +1)}`` inside one atomic batch and a non-linear
operator emits the output delta *of the batch*: a best path re-costed
by its neighbour retracts the best, promotes the runner-up, retracts
the runner-up and inserts the new best -- four transitions, two of them
on a value nobody may keep -- and leaves the chunk as one ``-old`` /
``+new`` pair; a best that leaves and returns within the chunk leaves
nothing.  ``changes`` counts the transitions, ``emitted`` what was
drained, so ``changes - emitted`` is the number of transient values
that never left a chunk.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import EvaluationError
from repro.engine.rules import AggregateInfo
from repro.engine.table import projector
from repro.ndlog.terms import ConstructedTuple

#: Rebuild a lazy-deletion heap when stale entries outnumber live ones
#: beyond this slack (bounds memory without amortized-cost cliffs).
_COMPACT_SLACK = 16


class _Rev:
    """Inverts the ordering of a wrapped key, turning heapq's min-heaps
    into max-heaps without assuming the values are negatable."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other) -> bool:
        return other.key < self.key

    def __eq__(self, other) -> bool:
        return other.key == self.key


class _TieBreak:
    """A heap member ordered by :func:`order_key` of its tuple, with the
    key built only when it is needed.  The tie-break is read only when
    two members tie on the value, and then the raw tuple comparison
    settles it whenever it does not raise: both orders are
    lexicographic and decide on the first differing element, which is
    then same-typed (numbers pool the same way), so they agree."""

    __slots__ = ("args",)

    def __init__(self, args: Tuple):
        self.args = args

    def __lt__(self, other) -> bool:
        try:
            return self.args < other.args
        except TypeError:
            return order_key(self.args) < order_key(other.args)

    def __eq__(self, other) -> bool:
        return self.args == other.args


def order_key(value):
    """A total-order key over the ground values NDlog tuples carry.

    Values of one type order naturally; across types, the type name
    decides (numbers are pooled so ``int`` and ``float`` compare
    numerically, as the engines' raw comparisons do).  Tuples and
    constructed tuples recurse, so path vectors with heterogeneous
    elements still get a stable, order-consistent key -- unlike the
    ``repr``-based tie-break this replaces, which broke for any type
    whose repr is not order-consistent with its values.  Types with no
    natural order at all fall back to their repr: for those any
    deterministic total order is as good as another, and the key must
    never raise mid-heap-push.
    """
    if isinstance(value, tuple):
        return ("tuple", tuple(order_key(v) for v in value))
    if isinstance(value, ConstructedTuple):
        return ("tuple:" + value.pred,
                tuple(order_key(v) for v in value.values))
    if isinstance(value, (int, float)):
        # bool included: raw comparisons treat True as 1, and the heap
        # order must agree with ArgExtremeView._better's raw ordering.
        return ("", value)
    if isinstance(value, (str, bytes)):
        return (type(value).__name__, value)
    return (type(value).__name__, repr(value))


def _uncovered(count: int, value, held: int) -> EvaluationError:
    return EvaluationError(
        f"retracting {count} derivation(s) of value {value!r}; "
        f"aggregate group holds {held}"
    )


class GroupState:
    """The multiset of values currently derived for one group.

    ``distinct`` controls ``count`` semantics: ``count<Var>`` counts
    distinct values (set semantics), ``count<*>`` counts derivations.

    For ``min``/``max`` the group keeps its extreme as ``best`` and
    mirrors the distinct values into a heap with lazy deletion:
    :meth:`add` pushes a value the first time it becomes live and moves
    ``best`` to it when it is better, :meth:`remove` leaves the heap
    untouched unless it withdraws the last derivation of ``best``, and
    then pops dead entries off the top until the best live value
    surfaces -- O(1) per read, O(log n) amortized per change.
    """

    __slots__ = ("func", "values", "total_multiplicity", "distinct", "_heap",
                 "best")

    def __init__(self, func: str, distinct: bool = False):
        self.func = func
        self.distinct = distinct
        self.values: Dict[object, int] = {}
        self.total_multiplicity = 0
        self._heap: Optional[List] = [] if func in ("min", "max") else None
        #: The live extreme of a ``min``/``max`` group (``None`` while
        #: the group is empty, and for every other function).
        self.best = None

    def add(self, value, count: int = 1) -> None:
        """Add ``count`` derivations of ``value`` (one weighted entry)."""
        current = self.values.get(value, 0)
        self.values[value] = current + count
        self.total_multiplicity += count
        if current == 0 and self._heap is not None:
            # Every live value keeps at least one heap entry; re-added
            # values are re-pushed (the stale twin is harmless -- it
            # reads as live for as long as the value is).
            best = self.best
            if self.func == "min":
                heapq.heappush(self._heap, value)
                if best is None or value < best:
                    self.best = value
            else:
                heapq.heappush(self._heap, _Rev(value))
                if best is None or value > best:
                    self.best = value

    def remove(self, value, count: int = 1) -> None:
        """Withdraw ``count`` derivations of ``value``."""
        current = self.values.get(value, 0)
        if current < count:
            raise _uncovered(count, value, current)
        self.withdraw(value, count, current)

    def withdraw(self, value, count: int, current: int) -> None:
        """:meth:`remove` past its check: ``current >= count`` is the
        number of derivations of ``value`` held."""
        if current == count:
            del self.values[value]
            # Lazy deletion: the heap entry stays until a read pops it.
            heap = self._heap
            if heap is not None:
                if len(heap) > 2 * len(self.values) + _COMPACT_SLACK:
                    self._rebuild_heap()
                if value == self.best:
                    # The extreme died: the next one is off the heap.
                    self.best = self._peek_extreme() if self.values else None
        else:
            self.values[value] = current - count
        self.total_multiplicity -= count

    def _rebuild_heap(self) -> None:
        if self.func == "min":
            self._heap = list(self.values)
        else:
            self._heap = [_Rev(v) for v in self.values]
        heapq.heapify(self._heap)

    def _peek_extreme(self):
        heap = self._heap
        values = self.values
        while heap:
            top = heap[0]
            value = top if self.func == "min" else top.key
            if value in values:
                return value
            heapq.heappop(heap)
        # Defensive: the push discipline guarantees a live entry exists.
        self._rebuild_heap()
        top = self._heap[0]
        return top if self.func == "min" else top.key

    def current(self):
        """The aggregate value, or ``None`` for an empty group."""
        if self._heap is not None:
            return self.best
        if not self.values:
            return None
        if self.func == "count":
            return len(self.values) if self.distinct else self.total_multiplicity
        if self.func == "sum":
            return sum(self.values)
        if self.func == "avg":
            return sum(self.values) / len(self.values)
        raise EvaluationError(f"unknown aggregate function {self.func!r}")


def _apply_many(self, contributions: Iterable[Tuple], weight: int,
                traces: Optional[Iterable] = None) -> None:
    """Apply a firing's uniformly weighted contributions in order and
    add what they emit to the pending net: a group whose value moves
    ``5 -> 3 -> 2`` before the next :meth:`drain` owes ``-head(5)`` and
    ``+head(2)`` with no trace of the intermediate ``3``.  ``traces``
    (traced firings only) holds each contribution's trace id; a head
    keeps that of the last contribution that moved it.  A contribution
    the view refuses raises out of ``apply`` with everything its
    predecessors emitted already booked."""
    pending = self.pending
    apply = self.apply
    if traces is None:
        # The loop of record: no zip, no second dict per contribution.
        for contribution in contributions:
            for delta_weight, head in apply(contribution, weight):
                pending[head] = pending.get(head, 0) + delta_weight
        return
    moved_by = self.moved_by
    for contribution, trace in zip(contributions, traces):
        for delta_weight, head in apply(contribution, weight):
            pending[head] = pending.get(head, 0) + delta_weight
            moved_by[head] = trace


def _drain(self) -> List[Tuple[int, Tuple, Optional[int]]]:
    """Hand over the pending net as ``(weight, head, trace)``, heads in
    first-seen order (a slot's ``-`` precedes its ``+``: the first head
    a group emits in a chunk is the retraction of the value it began
    with), zero nets dropped; nothing stays pending."""
    pending, self.pending = self.pending, {}
    moved_by = self.moved_by
    deltas = [(weight, head, moved_by.get(head))
              for head, weight in pending.items() if weight]
    moved_by.clear()
    self.emitted += len(deltas)
    return deltas


class AggregateView:
    """Maintains one aggregate head relation incrementally.

    ``apply`` takes a *contribution* (the head tuple with the aggregate
    position holding the input value) and an integer weight (``+w``
    derivations added, ``-w`` withdrawn), updates the group, and
    returns the visible deltas on the aggregate relation:
    ``[(-1, old_head), (+1, new_head)]`` when the group's value changes.
    A ``min``/``max`` group answers from its ``best``; its heap is read
    only when the extreme's last derivation was just withdrawn.  A
    retraction the group cannot cover is refused before anything is
    read or written.

    ``apply_many`` / ``drain`` are the chunk-level entry the pipelined
    engine uses (module docstring).  Both views bind them, like
    ``apply``, in their own class body: an outside-in tracer wraps a
    view's entry points by looking them up on the class itself.
    """

    def __init__(self, pred: str, info: AggregateInfo):
        self.pred = pred
        self.info = info
        self._group_of = projector(info.group_positions)
        self._extreme = info.func in ("min", "max")
        #: The head is ``group_key + (value,)`` when the group columns
        #: lead it in order and the value column follows them.
        arity = len(info.group_positions)
        self._appends = (tuple(info.group_positions) == tuple(range(arity))
                         and info.value_position == arity)
        self.groups: Dict[Tuple, GroupState] = {}
        #: Cumulative group-value transitions (pre-netting) -- a plain
        #: int bump per change, pulled into metrics snapshots as the
        #: view-churn counter.
        self.changes = 0
        #: Cumulative deltas handed over by :meth:`drain` (post-netting).
        self.emitted = 0
        #: head -> net weight of the transitions since the last
        #: :meth:`drain`, and (traced firings only) head -> trace id of
        #: the last contribution that moved it.
        self.pending: Dict[Tuple, int] = {}
        self.moved_by: Dict[Tuple, int] = {}

    def apply(self, contribution: Tuple, weight: int) -> List[Tuple[int, Tuple]]:
        info = self.info
        group_key = self._group_of(contribution)
        value = contribution[info.value_position]
        state = self.groups.get(group_key)
        if state is None:
            state = GroupState(info.func, distinct=bool(info.var))
            if weight > 0:
                self.groups[group_key] = state
        extreme = self._extreme
        if weight > 0:
            old = state.best if extreme else state.current()
            state.add(value, weight)
        else:
            # Refused before anything is read or written (an unknown
            # group by the empty state it never joins).
            held = state.values.get(value, 0)
            if held < -weight:
                raise _uncovered(-weight, value, held)
            old = state.best if extreme else state.current()
            state.withdraw(value, -weight, held)
        new = state.best if extreme else state.current()
        if not state.values:
            del self.groups[group_key]
        if old == new:
            return []
        deltas: List[Tuple[int, Tuple]] = []
        if old is not None:
            deltas.append((-1, self._head(group_key, old)))
        if new is not None:
            deltas.append((1, self._head(group_key, new)))
        self.changes += len(deltas)
        return deltas

    apply_many = _apply_many
    drain = _drain

    def _head(self, group_key: Tuple, value) -> Tuple:
        if self._appends:
            return group_key + (value,)
        info = self.info
        head: List[object] = [None] * (len(group_key) + 1)
        for position, group_value in zip(info.group_positions, group_key):
            head[position] = group_value
        head[info.value_position] = value
        return tuple(head)

    def current_rows(self) -> List[Tuple]:
        """All current aggregate facts (for from-scratch comparisons)."""
        return [
            self._head(group_key, state.current())
            for group_key, state in self.groups.items()
        ]


class ArgExtremeView:
    """Maintains one *witness tuple* per group: the tuple achieving the
    group's min (or max) value.

    This is the propagation side of aggregate selections (Section
    5.1.1): "each node only needs to propagate the most current shortest
    paths for each destination ... whenever a shorter path is derived".
    Ties deliberately keep the incumbent witness -- a same-cost
    alternative is *not* an improvement, so advertising it would only
    churn the network (the dominant cost on hop-count metrics, where
    ties abound).

    When the witness dies, the best survivor is promoted off a per-group
    heap with lazy deletion (O(log n), the structure of [27]) rather
    than an O(n) member rescan; ties on the value promote the tuple that
    is least under :func:`order_key`, a deterministic total order.  The
    heap is built (heapified over the live members) at the group's
    first witness death that leaves survivors, and kept from then on:
    a group whose witness is only ever displaced never builds one.
    """

    def __init__(self, pred: str, group_positions: Tuple[int, ...],
                 value_position: int, func: str = "min"):
        if func not in ("min", "max"):
            raise EvaluationError(f"argmin/argmax only: {func!r}")
        self.pred = pred
        self.group_positions = group_positions
        self.value_position = value_position
        self.func = func
        self._group_of = projector(tuple(group_positions))
        #: group -> {tuple: multiplicity}
        self.members: Dict[Tuple, Dict[Tuple, int]] = {}
        #: group -> current witness tuple
        self.winners: Dict[Tuple, Tuple] = {}
        #: group -> lazy-deletion heap of (value key, tie-breaking
        #: member), for the groups whose witness has died
        self._heaps: Dict[Tuple, List] = {}
        #: Cumulative witness transitions (pre-netting), deltas drained
        #: (post-netting) and the net in between: as on
        #: :class:`AggregateView`.
        self.changes = 0
        self.emitted = 0
        self.pending: Dict[Tuple, int] = {}
        self.moved_by: Dict[Tuple, int] = {}

    def _better(self, a, b) -> bool:
        return a < b if self.func == "min" else a > b

    def _entry(self, args: Tuple) -> Tuple:
        value_key = order_key(args[self.value_position])
        if self.func == "max":
            value_key = _Rev(value_key)
        return (value_key, _TieBreak(args))

    def apply(self, args: Tuple, weight: int) -> List[Tuple[int, Tuple]]:
        group = self._group_of(args)
        members = self.members.get(group)
        value = args[self.value_position]
        winner = self.winners.get(group)
        if weight > 0:
            if members is None:
                members = self.members[group] = {}
            count = members.get(args, 0)
            members[args] = count + weight
            if count == 0:
                heap = self._heaps.get(group)
                if heap is not None:
                    heapq.heappush(heap, self._entry(args))
            if winner is None:
                self.winners[group] = args
                self.changes += 1
                return [(1, args)]
            if self._better(value, winner[self.value_position]):
                self.winners[group] = args
                self.changes += 2
                return [(-1, winner), (1, args)]
            return []
        # Retraction of ``-weight`` derivations; one the group cannot
        # cover is refused before anything is written.
        drop = -weight
        current = members.get(args, 0) if members else 0
        if current < drop:
            raise EvaluationError(
                f"retracting {drop} derivation(s) of tuple {args!r}; "
                f"arg-{self.func} group holds {current}"
            )
        if current == drop:
            del members[args]
            # Any member death strands a heap entry; compact here, not
            # just on witness death -- non-winning alternatives that
            # flap under churn would otherwise grow the heap unboundedly.
            heap = self._heaps.get(group)
            if (heap is not None and members
                    and len(heap) > 2 * len(members) + _COMPACT_SLACK):
                self._heapify(group, members)
        else:
            members[args] = current - drop
        if args != winner or args in members:
            return []
        # The witness died: promote the best survivor off the heap.
        if not members:
            del self.members[group]
            del self.winners[group]
            self._heaps.pop(group, None)
            self.changes += 1
            return [(-1, args)]
        heap = self._heaps.get(group)
        if heap is None:
            heap = self._heapify(group, members)
        while heap[0][1].args not in members:
            heapq.heappop(heap)
        best = heap[0][1].args
        if len(heap) > 2 * len(members) + _COMPACT_SLACK:
            self._heapify(group, members)
        self.winners[group] = best
        self.changes += 2
        return [(-1, args), (1, best)]

    apply_many = _apply_many
    drain = _drain

    def _heapify(self, group: Tuple, members: Dict[Tuple, int]) -> List:
        """(Re)build ``group``'s heap over its live members."""
        heap = [self._entry(member) for member in members]
        heapq.heapify(heap)
        self._heaps[group] = heap
        return heap

    def current_rows(self) -> List[Tuple]:
        return list(self.winners.values())
