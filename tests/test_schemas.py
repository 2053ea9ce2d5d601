"""Per-predicate schemas: decided once per compiled artifact, read by
every table, engine run cap and transport key.

``tests/data/schemas.txt`` holds every builtin program's schemas, raw
and after ``aggsel`` + ``localize``.  It was generated from the tables
``Database.for_program`` built and the runs the engine capped before
the schema existed, so a change to how any predicate is stored fails
here.  When a builtin program changes on purpose, regenerate it:

    PYTHONPATH=src python tests/test_schemas.py > tests/data/schemas.txt
"""

import pathlib
import sys

import pytest

import repro
from repro.engine.database import Schema, format_schemas, program_schemas
from repro.engine.psn import PSNEngine
from repro.engine.table import INFINITY
from repro.errors import PlanError
from repro.lint import BUILTINS
from repro.ndlog import parse, programs
from repro.runtime import Cluster, LiveCluster
from repro.topology import build_overlay, transit_stub

GOLDEN = pathlib.Path(__file__).parent / "data" / "schemas.txt"


def render() -> str:
    out = []
    for name, builder in BUILTINS.items():
        for label, passes in (("raw", None),
                              ("aggsel+localize", ["aggsel", "localize"])):
            out.append(f"== {name} ({label}) ==")
            try:
                if passes is None:
                    schemas = program_schemas(builder())
                else:
                    schemas = repro.compile(builder(), passes=passes,
                                            lint="off").schemas
            except PlanError as exc:
                out.append(f"error: {type(exc).__name__}")
            else:
                out.append(format_schemas(schemas))
            out.append("")
    return "\n".join(out)


def test_builtin_schemas_match_the_golden():
    assert render() == GOLDEN.read_text()


def test_lifetimes_declared_only_tables_and_self_joins():
    schemas = program_schemas(parse("""
        materialize(beacon, 1.0, infinity, keys(1, 2)).
        materialize(lonely, 5, infinity, keys(2)).
        B1: seen(@D, S) :- #beacon(@S, @D, C).
    """))
    assert schemas == {
        "beacon": Schema(3, (0, 1), 1.0, False),
        "seen": Schema(2, (0, 1), INFINITY, False),
        "lonely": Schema(2, (1,), 5, False),
    }
    # A body holding tc twice caps tc's runs; edge's are not capped.
    engine = PSNEngine(programs.transitive_closure_nonlinear())
    assert engine._single_delta == {"tc"}


def test_a_deploy_derives_schemas_once_and_every_node_agrees():
    overlay = build_overlay(transit_stub(seed=3), n_nodes=16, degree=3,
                            seed=3)
    compiled = repro.compile(programs.shortest_path(),
                             passes=["aggsel", "localize"])
    derived = []

    def count(frame, event, _arg):
        if event == "call" and frame.f_code is program_schemas.__code__:
            derived.append(frame)

    sys.setprofile(count)
    try:
        cluster = compiled.deploy(topology=overlay)
    finally:
        sys.setprofile(None)
    assert len(cluster.nodes) == 16
    assert len(derived) == 1
    schemas = compiled.schemas
    assert cluster.compiled is compiled
    for node in cluster.nodes.values():
        assert list(node.db.tables) == list(schemas)
        for pred, table in node.db.tables.items():
            schema = schemas[pred]
            assert (table.arity, table.key, table.lifetime) == \
                (schema.arity, schema.key, schema.lifetime)
            assert cluster.key_of[pred] is table.key_of
        assert node._single_delta == {
            pred for pred, schema in schemas.items() if schema.single_delta
        }


@pytest.mark.parametrize("cls", [Cluster, LiveCluster])
def test_a_bare_program_is_refused(cls):
    overlay = build_overlay(transit_stub(seed=3), n_nodes=4, degree=2,
                            seed=3)
    with pytest.raises(PlanError, match=r"repro\.compile"):
        cls(overlay, programs.shortest_path())


if __name__ == "__main__":
    sys.stdout.write(render())
