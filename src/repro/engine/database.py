"""A database instance: the set of tables backing one NDlog program.

``Database.for_program`` derives the schema from the program text:

* arities come from predicate usage;
* primary keys come from ``materialize`` declarations when present;
* link relations (Definition 2) default to a key on their first two
  attributes (source and destination address), so a re-inserted link
  tuple with a new cost *replaces* the old one -- this is how link
  updates enter the system in Section 4;
* the head relation of an aggregate rule defaults to a key on its group
  attributes, so a changed aggregate value replaces the stale one;
* every other relation defaults to a key on all attributes (the paper's
  "in the absence of other information" rule).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.errors import SchemaError
from repro.ndlog.ast import Program
from repro.ndlog.functions import default_functions
from repro.engine.table import INFINITY, Table


class Database:
    def __init__(self, functions: Optional[dict] = None):
        self.tables: Dict[str, Table] = {}
        self.functions = dict(functions) if functions else default_functions()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_program(
        cls,
        program: Program,
        functions: Optional[dict] = None,
        extra_arities: Optional[Dict[str, int]] = None,
    ) -> "Database":
        db = cls(functions=functions)
        arities = program.predicates()
        if extra_arities:
            for pred, arity in extra_arities.items():
                if arities.setdefault(pred, arity) != arity:
                    raise SchemaError(f"conflicting arity for {pred!r}")

        link_preds = program.link_predicates()
        agg_keys: Dict[str, Tuple[int, ...]] = {}
        for rule in program.rules:
            agg = rule.head_aggregate()
            if agg is None:
                continue
            position, _spec = agg
            group = tuple(
                i for i in range(rule.head.arity) if i != position
            )
            existing = agg_keys.get(rule.head.pred)
            if existing is not None and existing != group:
                raise SchemaError(
                    f"inconsistent aggregate keys for {rule.head.pred!r}"
                )
            agg_keys[rule.head.pred] = group

        head_preds = {rule.head.pred for rule in program.rules}
        for pred, arity in arities.items():
            declared = program.materializations.get(pred)
            fallback = False
            if declared is not None:
                key = declared.key_indexes()
                lifetime = declared.lifetime
                # A declared key on a rule-derived relation makes each
                # slot a *latest advertisement* cell fed by independent
                # derivations; shadow superseded versions so withdrawing
                # the current one falls back to a still-outstanding
                # alternative instead of leaving the slot empty.
                fallback = pred in head_preds
            elif pred in agg_keys:
                key, lifetime = agg_keys[pred], INFINITY
            elif pred in link_preds and arity >= 2:
                key, lifetime = (0, 1), INFINITY
            else:
                key, lifetime = (), INFINITY
            db.tables[pred] = Table(pred, arity, key=key, lifetime=lifetime,
                                    fallback=fallback)

        # Declared-only tables (materialize without any rule usage).
        for pred, declared in program.materializations.items():
            if pred not in db.tables:
                if not declared.keys:
                    raise SchemaError(
                        f"materialize({pred!r}) without keys and without "
                        f"usage: arity unknown"
                    )
                arity = max(declared.keys)
                db.tables[pred] = Table(
                    pred, arity, key=declared.key_indexes(),
                    lifetime=declared.lifetime,
                )
        return db

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def table(self, pred: str) -> Table:
        try:
            return self.tables[pred]
        except KeyError:
            raise SchemaError(f"unknown relation {pred!r}") from None

    def load_facts(self, pred: str, rows: Iterable[Tuple]) -> None:
        """Bulk-load base tuples (timestamp 0, derivation count 1)."""
        table = self.table(pred)
        for row in rows:
            table.insert(tuple(row))

    def load_weighted(
        self, pred: str, entries: Iterable[Tuple[Tuple, int]]
    ) -> None:
        """Bulk-load a Z-set: ``(args, weight)`` entries with positive
        integer weights, stored as derivation counts in one shot."""
        table = self.table(pred)
        for row, weight in entries:
            if weight <= 0:
                raise SchemaError(
                    f"load_weighted({pred!r}): weight must be positive, "
                    f"got {weight!r} for {row!r}"
                )
            table.insert(tuple(row), count=weight)

    def rows(self, pred: str):
        return self.table(pred).rows()

    def snapshot(self) -> Dict[str, frozenset]:
        """Frozen view of all table contents, for comparisons in tests."""
        return {
            name: frozenset(table.rows()) for name, table in self.tables.items()
        }
