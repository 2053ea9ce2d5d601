"""Derivation-provenance capture: the store and the per-engine recorder.

The engines prove *that* a tuple holds (Gupta-style derivation counts in
the PSN/BSN commit discipline); this module remembers *how*.  Every rule
firing is recorded as a :class:`Derivation` -- ``rule`` fired at ``node``
at ``time``, grounding ``head`` from the ground ``body`` facts -- and
external base-table changes are recorded as base counts.  The result is
a queryable derivation graph (:mod:`repro.provenance.query` builds
``why`` trees over it) and an independent count ledger
(:mod:`repro.provenance.audit` cross-checks it against the tables).

The store holds live support only.  Derivations are merged by ``(head,
rule, body, node)`` with a live count, so a burst that re-derives the
same join a thousand times costs one record and a counter; a record or
a base count that falls to zero is deleted, as a Z-set drops an entry
of weight zero.  A record holds its own head and body facts, so what
the store retains is bounded by what is live.

Lifecycle mirrors the commit discipline of :mod:`repro.engine.psn`:

* a ``+1`` firing increments the record's live count, a ``-1`` firing
  decrements it (deletion strands re-derive the same bindings while the
  dying fact is still visible, so the keys match exactly);
* a primary-key replacement or forced deletion kills *all* of a fact's
  live support at once (:meth:`ProvenanceStore.retract_fact`), exactly
  as the table drops the row regardless of its count;
* aggregate / arg-extreme view heads are exempt from that wholesale
  retraction (:attr:`ProvenanceStore.view_preds`): their ``-1`` table
  deltas are view *outputs*, while the underlying contributions live and
  die with their own +/- firings -- which is what lets a previously
  displaced aggregate value be re-promoted with its provenance intact;
* a ``-1`` with no live record to decrement is *floored* (counted in
  :attr:`ProvenanceStore.floored`), mirroring "a deletion of a fact that
  was superseded in the meantime commits as a no-op".

Every record gets a fresh id when it is created -- also a derivation
that died and is derived again -- so the highest id is the newest live
derivation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.facts import Fact


class Derivation:
    """One live derivation record: ``rule`` fired at ``node`` (``None``:
    centralized) at ``time``, grounding ``head`` from the ground
    ``body`` facts, ``count`` live times."""

    __slots__ = ("id", "rule", "head", "body", "node", "time", "count")

    def __init__(self, rec_id: int, rule: str, head: Fact,
                 body: Tuple[Fact, ...], node: Optional[str], time: float):
        self.id = rec_id
        self.rule = rule
        self.head = head
        self.body = body
        self.node = node
        self.time = time
        self.count = 1

    def __repr__(self) -> str:
        return (f"Derivation({self.id}, {self.rule}: {self.head!r} <- "
                f"{list(self.body)!r} @ {self.node}, count={self.count})")


class ProvenanceStore:
    """The derivation graph for one evaluation or one deployment.

    A deployment shares one store across all node runtimes (records are
    tagged with the firing node), so a tuple materialized at node X is
    traced through the rules and links that produced it at other nodes
    without any cross-node query protocol -- and without any lineage
    on the wire.
    """

    def __init__(self):
        #: head -> {(rule, body, node): live record}
        self._records: Dict[Fact, Dict[Tuple, Derivation]] = {}
        #: fact -> live base count
        self._base: Dict[Fact, int] = {}
        #: Aggregate / arg-extreme view head predicates: exempt from
        #: wholesale retraction (see module docstring).
        self.view_preds: set = set()
        self.floored = 0
        self.events = 0
        self._next_id = 1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_run(self, rule: str, pred: str, out: Sequence[Tuple],
                   sign: int, node: Optional[str] = None, time: float = 0.0,
                   dedup: bool = False) -> None:
        """Record one firing of ``rule``: ``out`` holds its ``(head args,
        body facts)`` pairs for head predicate ``pred``, each a signed
        derivation.  ``dedup=True`` gives set semantics (re-recording a
        live derivation does not bump its count) -- used by the
        iterate-to-fixpoint engines, which legitimately re-derive the
        same join every iteration."""
        self.events += len(out)
        records = self._records
        for args, body in out:
            head = Fact(pred, args)
            key = (rule, body, node)
            support = records.get(head)
            rec = None if support is None else support.get(key)
            if sign > 0:
                if rec is None:
                    if support is None:
                        support = records[head] = {}
                    support[key] = Derivation(self._next_id, rule, head,
                                              body, node, time)
                    self._next_id += 1
                elif not dedup:
                    rec.count += 1
            elif rec is None:
                self.floored += 1
            elif rec.count > 1:
                rec.count -= 1
            else:
                del support[key]
                if not support:
                    del records[head]

    def record(self, rule: str, head: Fact, body: Sequence[Fact], sign: int,
               node: Optional[str] = None, time: float = 0.0,
               dedup: bool = False) -> Optional[Derivation]:
        """Record one signed firing; returns its record while it is
        live (``None`` once its count is spent, or when floored)."""
        body = tuple(body)
        self.record_run(rule, head.pred, ((head.args, body),), sign,
                        node=node, time=time, dedup=dedup)
        return self._records.get(head, {}).get((rule, body, node))

    def record_base(self, fact: Fact, weight: int) -> None:
        """Record an external base-table change as a Z-set weight:
        ``+w`` base insertions or ``-w`` deletions in one event (a
        seeded multiplicity arrives as a single weighted call).  The
        live count clamps at zero, where the entry goes; the shortfall
        is floored exactly as the unit path floored each over-delete."""
        self.events += 1
        live = self._base.get(fact, 0) + weight
        if live > 0:
            self._base[fact] = live
        elif weight < 0:
            self.floored -= live
            self._base.pop(fact, None)

    def retract_fact(self, fact: Fact) -> None:
        """Kill all live support for ``fact`` (replacement / forced
        deletion dropped the row wholesale).  View-head predicates are
        exempt -- their support is managed purely by +/- firings."""
        if fact.pred in self.view_preds:
            return
        self._base.pop(fact, None)
        self._records.pop(fact, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def base_count(self, fact: Fact) -> int:
        return self._base.get(fact, 0)

    def live_records(self, fact: Fact) -> List[Derivation]:
        return list(self._records.get(fact, {}).values())

    def live_support(self, fact: Fact) -> int:
        """Live base count plus live derivation count for ``fact``."""
        return self._base.get(fact, 0) + sum(
            rec.count for rec in self._records.get(fact, {}).values())

    def derivations_of(self, pred: str, args: Tuple) -> List[Derivation]:
        """The live derivation records of ``pred(args)``."""
        return self.live_records(Fact(pred, tuple(args)))

    def known_facts(self):
        """Iterate ``(fact, live_support)`` over every fact the store
        holds support for (audit uses this for the orphan sweep)."""
        for fact in {**self._base, **self._records}:
            yield fact, self.live_support(fact)

    def stats(self) -> Dict[str, int]:
        return {
            "facts": len(self._base.keys() | self._records.keys()),
            "records": sum(map(len, self._records.values())),
            "events": self.events,
            "floored": self.floored,
        }

    # ------------------------------------------------------------------
    # Recorder factory
    # ------------------------------------------------------------------
    def recorder(self, node: Optional[str] = None,
                 clock: Optional[Callable[[], float]] = None,
                 dedup: bool = False) -> "ProvenanceRecorder":
        return ProvenanceRecorder(self, node=node, clock=clock, dedup=dedup)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"ProvenanceStore(facts={s['facts']}, records={s['records']}, "
            f"events={s['events']})"
        )


class ProvenanceRecorder:
    """One engine's (or node's) handle on a shared store.

    Binds the node name and clock once so the engine hot paths pass only
    what varies per firing.  The engines hold ``provenance=None`` when
    capture is off; every hook site is guarded by that single ``None``
    check, which is the entire cost of the feature when disabled.
    """

    __slots__ = ("store", "node", "clock", "dedup")

    def __init__(self, store: ProvenanceStore, node: Optional[str] = None,
                 clock: Optional[Callable[[], float]] = None,
                 dedup: bool = False):
        self.store = store
        self.node = node
        self.clock = clock
        self.dedup = dedup

    def now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def bind(self, clock: Optional[Callable[[], float]] = None,
             dedup: Optional[bool] = None) -> "ProvenanceRecorder":
        """A derived recorder on the same store with ``clock`` / ``dedup``
        overridden.  Engines bind their own clock and capture semantics
        through this instead of mutating the recorder they were handed,
        so one recorder can safely be shared across runs."""
        return ProvenanceRecorder(
            self.store,
            node=self.node,
            clock=self.clock if clock is None else clock,
            dedup=self.dedup if dedup is None else dedup,
        )

    def record_run(self, rule: str, pred: str, out: Sequence[Tuple],
                   sign: int) -> List[Tuple]:
        """Record one firing's ``(head args, body facts)`` pairs (what a
        capture kernel appends to ``out``) and return their head args."""
        self.store.record_run(rule, pred, out, sign, node=self.node,
                              time=self.now(), dedup=self.dedup)
        return [head for head, _body in out]

    def base(self, fact: Fact, weight: int) -> None:
        self.store.record_base(fact, weight)

    def retracted(self, fact: Fact) -> None:
        self.store.retract_fact(fact)

    def register_views(self, preds) -> None:
        self.store.view_preds.update(preds)
