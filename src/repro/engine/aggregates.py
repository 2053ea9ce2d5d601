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

Every ``min``/``max`` lives in one structure, :class:`ArgExtremeView`:
the witness tuple achieving each group's extreme.  An aggregate
selection keeps its witnesses there, and a ``min<C>`` / ``max<C>``
head is the arg-extreme witness over its own contributions -- a group's
members are its distinct values, so no two tie and the witness *is*
the head (:func:`aggregate_view` picks the view).
:class:`AggregateView` keeps ``count``/``sum``/``avg``.  Retraction is
the O(log n) structure of [27]: each group keeps its witness itself,
so reading the extreme is O(1) (an insert can only move it to the
inserted member), and a heap with *lazy deletion* -- retractions never
touch it, and a read pops stale entries off the top until a live
member surfaces -- is built at the group's first witness death that
leaves survivors.  On a cold start witnesses are only ever displaced
and no heap is built; once one is, a change costs O(log n) amortized.
A total-order tie-break key (:func:`order_key`) makes the promoted
witness deterministic where values tie.

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
import operator
from functools import reduce
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import EvaluationError
from repro.engine.rules import AggregateInfo
from repro.engine.table import projector
from repro.ndlog.terms import ConstructedTuple

#: Rebuild a lazy-deletion heap when stale entries outnumber live ones
#: beyond this slack (bounds memory without amortized-cost cliffs).
_COMPACT_SLACK = 16


class _Member:
    """A heap entry: a group member ordered by its value (reversed on a
    max heap), ties by the whole tuple -- :func:`order_key` order, with
    the keys built only where a raw comparison raises.  Where it does
    not, the two orders agree: both are lexicographic and decide on the
    first differing element, which is then same-typed (numbers pool the
    same way)."""

    __slots__ = ("value", "args")
    #: Whether larger values come first (:class:`_MaxMember`).
    reverse = False

    def __init__(self, value, args: Tuple):
        self.value = value
        self.args = args

    def __lt__(self, other) -> bool:
        a, b = self.value, other.value
        if self.reverse:
            a, b = b, a
        try:
            if a != b:
                return a < b
        except TypeError:
            a, b = order_key(a), order_key(b)
            if a != b:
                return a < b
        try:
            return self.args < other.args
        except TypeError:
            return order_key(self.args) < order_key(other.args)


class _MaxMember(_Member):
    __slots__ = ()
    reverse = True


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
        # order must agree with ArgExtremeView.apply's raw comparison.
        return ("", value)
    if isinstance(value, (str, bytes)):
        return (type(value).__name__, value)
    return (type(value).__name__, repr(value))


def _uncovered(count: int, what, held: int) -> EvaluationError:
    return EvaluationError(
        f"retracting {count} derivation(s) of {what!r}; "
        f"the group holds {held}"
    )


class GroupState:
    """The multiset of values currently derived for one ``count`` /
    ``sum`` / ``avg`` group (``min``/``max`` are :class:`ArgExtremeView`'s).

    ``distinct`` controls ``count`` semantics: ``count<Var>`` counts
    distinct values (set semantics), ``count<*>`` counts derivations.
    """

    __slots__ = ("func", "values", "total_multiplicity", "distinct",
                 "total")

    def __init__(self, func: str, distinct: bool = False):
        self.func = func
        self.distinct = distinct
        self.values: Dict[object, int] = {}
        self.total_multiplicity = 0
        #: ``sum`` / ``avg``: the values added left to right (O(1) reads);
        #: ``None`` once a value leaves a non-``int`` total, re-added at
        #: the next read (``0.1 + 0.2 - 0.1 != 0.2``).
        self.total: Optional[object] = 0 if func in ("sum", "avg") else None

    def add(self, value, count: int = 1) -> None:
        """Add ``count`` derivations of ``value`` (one weighted entry)."""
        if self.total is not None and value not in self.values:
            self.total = self.total + value
        self.values[value] = self.values.get(value, 0) + count
        self.total_multiplicity += count

    def remove(self, value, count: int = 1) -> None:
        """Withdraw ``count`` derivations of ``value``; one the group
        cannot cover is refused before anything is written."""
        current = self.values.get(value, 0)
        if current < count:
            raise _uncovered(count, value, current)
        if current == count:
            del self.values[value]
            exact = isinstance(self.total, int) and isinstance(value, int)
            self.total = self.total - value if exact else None
        else:
            self.values[value] = current - count
        self.total_multiplicity -= count

    def current(self):
        """The aggregate value, or ``None`` for an empty group."""
        if not self.values:
            return None
        if self.func == "count":
            return len(self.values) if self.distinct else self.total_multiplicity
        if self.func in ("sum", "avg"):
            if self.total is None:
                self.total = reduce(operator.add, self.values, 0)
            if self.func == "sum":
                return self.total
            return self.total / len(self.values)
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


def aggregate_view(pred: str, info: AggregateInfo):
    """The view that keeps ``pred``'s aggregate head: for ``min<C>`` /
    ``max<C>`` the :class:`ArgExtremeView` over the head itself (the
    witness of a group of distinct values is its extreme), for the
    other functions an :class:`AggregateView`."""
    if info.func in ("min", "max"):
        return ArgExtremeView(pred, tuple(info.group_positions),
                              info.value_position, info.func)
    return AggregateView(pred, info)


class AggregateView:
    """Maintains one ``count`` / ``sum`` / ``avg`` head relation
    incrementally (:func:`aggregate_view` builds the view of any head).

    ``apply`` takes a *contribution* (the head tuple with the aggregate
    position holding the input value) and an integer weight (``+w``
    derivations added, ``-w`` withdrawn), updates the group, and
    returns the visible deltas on the aggregate relation:
    ``[(-1, old_head), (+1, new_head)]`` when the group's value changes.
    A retraction the group cannot cover is refused before anything is
    written.

    ``apply_many`` / ``drain`` are the chunk-level entry the pipelined
    engine uses (module docstring).  Both views bind them, like
    ``apply``, in their own class body: an outside-in tracer wraps a
    view's entry points by looking them up on the class itself.
    """

    def __init__(self, pred: str, info: AggregateInfo):
        if info.func in ("min", "max"):
            raise EvaluationError(
                f"{pred}: a {info.func}<> head is an ArgExtremeView "
                f"(build views with aggregate_view)")
        self.pred = pred
        self.info = info
        self._group_of = projector(info.group_positions)
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
        old = state.current()
        if weight > 0:
            state.add(value, weight)
        else:
            # An unknown group is refused by the empty state it never
            # joins.
            state.remove(value, -weight)
        new = state.current()
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


class _Witnessed:
    """One :class:`ArgExtremeView` group: its members with their
    multiplicities, the witness, and the lazy-deletion heap of
    :class:`_Member` entries (``None`` until the group's first witness
    death that leaves survivors)."""

    __slots__ = ("members", "witness", "heap")

    def __init__(self, witness: Tuple, weight: int):
        self.members: Dict[Tuple, int] = {witness: weight}
        self.witness = witness
        self.heap: Optional[List] = None


class ArgExtremeView:
    """Maintains one *witness tuple* per group: the tuple achieving the
    group's min (or max) value.  This is the one ``min``/``max``
    structure: it keeps every ``min<>``/``max<>`` head (whose witness is
    the head, :func:`aggregate_view`) and every aggregate selection.

    Aggregate selections are the propagation side of Section 5.1.1:
    "each node only needs to propagate the most current shortest
    paths for each destination ... whenever a shorter path is derived".
    Ties deliberately keep the incumbent witness -- a same-cost
    alternative is *not* an improvement, so advertising it would only
    churn the network (the dominant cost on hop-count metrics, where
    ties abound).

    When the witness dies, the best survivor is promoted off the
    group's heap with lazy deletion (O(log n), the structure of [27])
    rather than an O(n) member rescan; ties on the value promote the
    tuple that is least under :func:`order_key`, a deterministic total
    order.  The heap is built (heapified over the live members) at the
    group's first witness death that leaves survivors, and kept from
    then on: a group whose witness is only ever displaced never builds
    one.  ``groups`` maps a group to its :class:`_Witnessed` state.
    """

    def __init__(self, pred: str, group_positions: Tuple[int, ...],
                 value_position: int, func: str = "min"):
        if func not in ("min", "max"):
            raise EvaluationError(f"argmin/argmax only: {func!r}")
        self.pred = pred
        self.group_positions = group_positions
        self.value_position = value_position
        self.func = func
        self._min = func == "min"
        self._member = _Member if self._min else _MaxMember
        self._group_of = projector(tuple(group_positions))
        self.groups: Dict[Tuple, _Witnessed] = {}
        #: Cumulative witness transitions (pre-netting), deltas drained
        #: (post-netting) and the net in between: as on
        #: :class:`AggregateView`.
        self.changes = 0
        self.emitted = 0
        self.pending: Dict[Tuple, int] = {}
        self.moved_by: Dict[Tuple, int] = {}

    def apply(self, args: Tuple, weight: int) -> List[Tuple[int, Tuple]]:
        group = self._group_of(args)
        state = self.groups.get(group)
        if weight > 0:
            if state is None:
                self.groups[group] = _Witnessed(args, weight)
                self.changes += 1
                return [(1, args)]
            members = state.members
            count = members.get(args, 0)
            members[args] = count + weight
            if count:
                # A live member is no better than the witness already.
                return []
            position = self.value_position
            if state.heap is not None:
                heapq.heappush(state.heap, self._member(args[position], args))
            witness = state.witness
            if (args[position] < witness[position] if self._min
                    else args[position] > witness[position]):
                state.witness = args
                self.changes += 2
                return [(-1, witness), (1, args)]
            return []
        # Retraction of ``-weight`` derivations; one the group cannot
        # cover is refused before anything is written.
        drop = -weight
        held = state.members.get(args, 0) if state is not None else 0
        if held < drop:
            raise _uncovered(drop, args, held)
        members = state.members
        if held > drop:
            members[args] = held - drop
            return []
        del members[args]
        heap = state.heap
        if args != state.witness:
            # Any member death strands a heap entry; compact here, not
            # just on witness death -- non-winning alternatives that
            # flap under churn would otherwise grow the heap unboundedly.
            if (heap is not None
                    and len(heap) > 2 * len(members) + _COMPACT_SLACK):
                state.heap = self._heapify(members)
            return []
        if not members:
            del self.groups[group]
            self.changes += 1
            return [(-1, args)]
        # The witness died: promote the best survivor off the heap.
        if heap is None:
            heap = self._heapify(members)
        while heap[0].args not in members:
            heapq.heappop(heap)
        best = heap[0].args
        if len(heap) > 2 * len(members) + _COMPACT_SLACK:
            heap = self._heapify(members)
        state.heap = heap
        state.witness = best
        self.changes += 2
        return [(-1, args), (1, best)]

    apply_many = _apply_many
    drain = _drain

    def _heapify(self, members: Dict[Tuple, int]) -> List:
        """A heap over ``members``, the live members of a group."""
        position = self.value_position
        member = self._member
        heap = [member(args[position], args) for args in members]
        heapq.heapify(heap)
        return heap

    def current_rows(self) -> List[Tuple]:
        return [state.witness for state in self.groups.values()]
