"""A database instance: the set of tables backing one NDlog program.

How a predicate is stored is decided once per program, by
:func:`program_schemas` (a deployment reads its artifact's one dict,
:attr:`repro.api.CompiledProgram.schemas`), and a :class:`Database`
builds one table per :class:`Schema`:

* arities come from predicate usage;
* primary keys come from ``materialize`` declarations when present;
* link relations (Definition 2) default to a key on their first two
  attributes (source and destination address), so a re-inserted link
  tuple with a new cost *replaces* the old one -- this is how link
  updates enter the system in Section 4;
* the head relation of an aggregate rule defaults to a key on its group
  attributes, so a changed aggregate value replaces the stale one;
* every other relation defaults to a key on all attributes (the paper's
  "in the absence of other information" rule);
* a predicate some rule body holds twice has its PSN runs capped at one
  delta (:mod:`repro.engine.psn`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Set, Tuple

from repro.errors import SchemaError
from repro.ndlog.ast import Program
from repro.ndlog.functions import default_functions
from repro.engine.table import INFINITY, Table, projector


class Schema(NamedTuple):
    """How one predicate is stored and committed."""

    arity: int
    #: 0-based primary-key positions: all of them when no narrower key
    #: applies.
    key: Tuple[int, ...]
    #: Seconds a row lives unrefreshed; ``INFINITY`` for hard state.
    lifetime: float
    #: Some rule body holds the predicate twice: a run longer than one
    #: delta would double- or under-count the self-join.
    single_delta: bool

    @property
    def key_of(self) -> Callable[[Tuple], Tuple]:
        """row -> primary-key value (:attr:`Table.key_of`)."""
        if self.key == tuple(range(self.arity)):
            return tuple
        return projector(self.key)


def program_schemas(program: Program) -> Dict[str, Schema]:
    """pred -> :class:`Schema` for every predicate ``program`` uses or
    declares, in usage order."""
    arities = program.predicates()
    link_preds = program.link_predicates()
    agg_keys: Dict[str, Tuple[int, ...]] = {}
    doubled: Set[str] = set()
    for rule in program.rules:
        body = [literal.pred for literal in rule.body_literals]
        doubled.update(pred for pred in body if body.count(pred) > 1)
        agg = rule.head_aggregate()
        if agg is None:
            continue
        position, _spec = agg
        group = tuple(i for i in range(rule.head.arity) if i != position)
        existing = agg_keys.get(rule.head.pred)
        if existing is not None and existing != group:
            raise SchemaError(
                f"inconsistent aggregate keys for {rule.head.pred!r}"
            )
        agg_keys[rule.head.pred] = group

    schemas: Dict[str, Schema] = {}
    for pred, arity in arities.items():
        declared = program.materializations.get(pred)
        if declared is not None:
            key, lifetime = declared.key_indexes(), declared.lifetime
        elif pred in agg_keys:
            key, lifetime = agg_keys[pred], INFINITY
        elif pred in link_preds and arity >= 2:
            key, lifetime = (0, 1), INFINITY
        else:
            key, lifetime = (), INFINITY
        schemas[pred] = Schema(arity, key or tuple(range(arity)), lifetime,
                               pred in doubled)

    # Declared-only tables (materialize without any rule usage).
    for pred, declared in program.materializations.items():
        if pred not in schemas:
            if not declared.keys:
                raise SchemaError(
                    f"materialize({pred!r}) without keys and without "
                    f"usage: arity unknown"
                )
            schemas[pred] = Schema(max(declared.keys), declared.key_indexes(),
                                   declared.lifetime, False)
    return schemas


def format_schemas(schemas: Mapping[str, Schema]) -> str:
    """The schemas as a table, one predicate per row, sorted by name."""
    header = ("pred", "arity", "key", "lifetime", "one-delta")
    cells = [header] + [
        (pred, str(schema.arity), ",".join(map(str, schema.key)),
         f"{schema.lifetime:g}", "yes" if schema.single_delta else "no")
        for pred, schema in sorted(schemas.items())
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        .rstrip()
        for row in cells
    )


class Database:
    def __init__(self, functions: Optional[dict] = None,
                 schemas: Mapping[str, Schema] = {}):
        self.tables: Dict[str, Table] = {
            pred: Table(pred, schema.arity, schema.key, schema.lifetime)
            for pred, schema in schemas.items()
        }
        self.functions = dict(functions) if functions else default_functions()

    @classmethod
    def for_program(cls, program: Program,
                    functions: Optional[dict] = None) -> "Database":
        """One table per predicate, as :func:`program_schemas` decides."""
        return cls(functions, program_schemas(program))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def table(self, pred: str) -> Table:
        try:
            return self.tables[pred]
        except KeyError:
            raise SchemaError(f"unknown relation {pred!r}") from None

    def load_facts(self, pred: str, rows: Iterable[Tuple]) -> None:
        """Bulk-load base tuples (derivation count 1 each)."""
        table = self.table(pred)
        for row in rows:
            table.insert(tuple(row))

    def rows(self, pred: str):
        return self.table(pred).rows()

    def snapshot(self) -> Dict[str, frozenset]:
        """Frozen view of all table contents, for comparisons in tests."""
        return {
            name: frozenset(table.rows()) for name, table in self.tables.items()
        }
