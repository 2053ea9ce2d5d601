"""Derivation-provenance capture: the store and the per-engine recorder.

The engines prove *that* a tuple holds (Gupta-style derivation counts in
the PSN/BSN commit discipline); this module remembers *how*.  Every rule
firing is recorded as a :class:`Derivation` -- ``rule`` fired at ``node``
at ``time``, grounding ``head`` from the ground ``body`` facts -- and
external base-table changes are recorded as base events.  The result is
a queryable derivation graph (:mod:`repro.provenance.query` builds
``why`` trees over it) and an independent count ledger
(:mod:`repro.provenance.audit` cross-checks it against the tables).

Compactness: facts are interned once (an integer id per distinct ground
tuple) and derivations are merged by ``(head, rule, body, node)`` with a
live count, so a burst that re-derives the same join a thousand times
costs one record and a counter.

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
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.facts import Fact


class Derivation(NamedTuple):
    """One resolved provenance record (the public view of a record)."""

    id: int
    rule: Optional[str]          # ``None`` marks a base-table event
    head: Fact
    body: Tuple[Fact, ...]
    node: Optional[str]          # node whose strand fired (None: centralized)
    time: float
    count: int                   # live derivations merged into this record


class _Record:
    __slots__ = ("id", "rule", "head_id", "body_ids", "node", "time",
                 "count")

    def __init__(self, rec_id: int, rule: str, head_id: int,
                 body_ids: Tuple[int, ...], node: Optional[str], time: float):
        self.id = rec_id
        self.rule = rule
        self.head_id = head_id
        self.body_ids = body_ids
        self.node = node
        self.time = time
        self.count = 0


class ProvenanceStore:
    """The derivation graph for one evaluation or one deployment.

    A deployment shares one store across all node runtimes (records are
    tagged with the firing node), so a tuple materialized at node X is
    traced through the rules and links that produced it at other nodes
    without any cross-node query protocol -- and without any lineage
    on the wire.
    """

    def __init__(self):
        self._fact_ids: Dict[Fact, int] = {}
        self._facts: List[Fact] = []
        #: (head_id, rule, body_ids, node) -> record
        self._records: Dict[Tuple, _Record] = {}
        self._by_head: Dict[int, List[_Record]] = {}
        #: head_id -> live base-event count
        self._base: Dict[int, int] = {}
        #: Aggregate / arg-extreme view head predicates: exempt from
        #: wholesale retraction (see module docstring).
        self.view_preds: set = set()
        self.floored = 0
        self.events = 0
        self._next_id = 1

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def intern(self, fact: Fact) -> int:
        fid = self._fact_ids.get(fact)
        if fid is None:
            fid = len(self._facts)
            self._fact_ids[fact] = fid
            self._facts.append(fact)
        return fid

    def fact_of(self, fid: int) -> Fact:
        return self._facts[fid]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        rule: str,
        head: Fact,
        body: Sequence[Fact],
        sign: int,
        node: Optional[str] = None,
        time: float = 0.0,
        dedup: bool = False,
    ) -> Optional[int]:
        """Record one signed rule firing; returns the record id (``None``
        for a floored retraction).  ``dedup=True`` gives set semantics
        (re-recording a live derivation does not bump its count) -- used
        by the iterate-to-fixpoint engines, which legitimately re-derive
        the same join every iteration."""
        self.events += 1
        # Interning inlined: this runs once per rule firing, and the
        # method-call overhead of intern() is measurable there.
        fact_ids = self._fact_ids
        facts = self._facts
        head_id = fact_ids.get(head)
        if head_id is None:
            head_id = len(facts)
            fact_ids[head] = head_id
            facts.append(head)
        ids: List[int] = []
        for body_fact in body:
            fid = fact_ids.get(body_fact)
            if fid is None:
                fid = len(facts)
                fact_ids[body_fact] = fid
                facts.append(body_fact)
            ids.append(fid)
        body_ids = tuple(ids)
        key = (head_id, rule, body_ids, node)
        rec = self._records.get(key)
        if sign > 0:
            if rec is None:
                rec = _Record(self._next_id, rule, head_id, body_ids, node,
                              time)
                self._next_id += 1
                self._records[key] = rec
                self._by_head.setdefault(head_id, []).append(rec)
            elif dedup and rec.count > 0:
                return rec.id
            rec.count += 1
            return rec.id
        if rec is None or rec.count <= 0:
            self.floored += 1
            return None
        rec.count -= 1
        return rec.id

    def record_base(self, fact: Fact, weight: int, node: Optional[str] = None,
                    time: float = 0.0) -> None:
        """Record an external base-table change as a Z-set weight:
        ``+w`` base insertions or ``-w`` deletions in one event (a
        seeded multiplicity arrives as a single weighted call).  The
        live count clamps at zero; the shortfall is floored exactly as
        the unit path floored each over-delete."""
        self.events += 1
        fid = self.intern(fact)
        if weight > 0:
            self._base[fid] = self._base.get(fid, 0) + weight
        else:
            need = -weight
            live = self._base.get(fid, 0)
            take = min(live, need)
            self.floored += need - take
            if take:
                self._base[fid] = live - take

    def retract_fact(self, fact: Fact) -> None:
        """Kill all live support for ``fact`` (replacement / forced
        deletion dropped the row wholesale).  View-head predicates are
        exempt -- their support is managed purely by +/- firings."""
        if fact.pred in self.view_preds:
            return
        fid = self._fact_ids.get(fact)
        if fid is None:
            return
        if self._base.get(fid):
            self._base[fid] = 0
        for rec in self._by_head.get(fid, ()):
            rec.count = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def base_count(self, fact: Fact) -> int:
        fid = self._fact_ids.get(fact)
        return self._base.get(fid, 0) if fid is not None else 0

    def live_records(self, fact: Fact) -> List[_Record]:
        fid = self._fact_ids.get(fact)
        if fid is None:
            return []
        return [rec for rec in self._by_head.get(fid, ()) if rec.count > 0]

    def live_support(self, fact: Fact) -> int:
        """Live base events plus live derivation count for ``fact``."""
        fid = self._fact_ids.get(fact)
        if fid is None:
            return 0
        support = self._base.get(fid, 0)
        for rec in self._by_head.get(fid, ()):
            support += rec.count
        return support

    def derivations_of(self, pred: str, args: Tuple) -> List[Derivation]:
        """The live derivation records of ``pred(args)``."""
        return [self._resolve(rec)
                for rec in self.live_records(Fact(pred, tuple(args)))]

    def known_facts(self):
        """Iterate ``(fact, live_support)`` over every fact the store has
        seen (audit uses this for the orphan sweep)."""
        for fact, fid in self._fact_ids.items():
            support = self._base.get(fid, 0)
            for rec in self._by_head.get(fid, ()):
                support += rec.count
            yield fact, support

    def _resolve(self, rec: _Record) -> Derivation:
        return Derivation(
            id=rec.id,
            rule=rec.rule,
            head=self._facts[rec.head_id],
            body=tuple(self._facts[b] for b in rec.body_ids),
            node=rec.node,
            time=rec.time,
            count=rec.count,
        )

    def stats(self) -> Dict[str, int]:
        return {
            "facts": len(self._facts),
            "records": len(self._records),
            "live_records": sum(
                1 for r in self._records.values() if r.count > 0
            ),
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
            f"live={s['live_records']}, events={s['events']})"
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

    def record_fact(self, rule: str, head: Fact, body: Sequence[Fact],
                    sign: int) -> Optional[int]:
        """Record a firing by its ground body facts (what a capture
        kernel hands over, cache hits, synthesized derivations)."""
        return self.store.record(rule, head, body, sign, node=self.node,
                                 time=self.now(), dedup=self.dedup)

    def base(self, fact: Fact, weight: int) -> None:
        self.store.record_base(fact, weight, node=self.node, time=self.now())

    def retracted(self, fact: Fact) -> None:
        self.store.retract_fact(fact)

    def register_views(self, preds) -> None:
        self.store.view_preds.update(preds)
