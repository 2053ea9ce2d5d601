"""Tests for the compile/run/deploy facade and schema derivation."""

import pytest

import repro
from repro.engine import Database
from repro.errors import PlanError, SchemaError
from repro.ndlog import parse, programs

FIGURE2_LINKS = [
    ("a", "b", 5), ("b", "a", 5),
    ("a", "c", 1), ("c", "a", 1),
    ("c", "b", 1), ("b", "c", 1),
]


class TestCoreFacade:
    def test_run_centralized_from_source(self):
        result = repro.compile(programs.SHORTEST_PATH_SAFE).run(
            facts={"link": FIGURE2_LINKS},
        )
        assert ("a", "b", ("a", "c", "b"), 2) in result.rows("shortestPath")

    def test_run_centralized_all_engines_agree(self):
        compiled = repro.compile(programs.transitive_closure())
        outcomes = {
            engine: compiled.run(
                engine=engine, facts={"edge": [("x", "y"), ("y", "z")]},
            ).rows("tc")
            for engine in ("naive", "seminaive", "bsn", "psn")
        }
        assert len(set(outcomes.values())) == 1
        assert ("x", "z") in next(iter(outcomes.values()))

    def test_unknown_engine_rejected(self):
        with pytest.raises(PlanError):
            repro.compile(programs.transitive_closure()).run(engine="quantum")

    def test_compile_program_pipeline(self):
        program = repro.compile(
            programs.shortest_path(), passes=["aggsel", "localize"],
        ).program
        from repro.planner.localization import is_canonical

        assert is_canonical(program)
        assert "path__best" in program.predicates()

    def test_deploy_runs(self):
        deployment = repro.compile(
            programs.shortest_path(), passes=["aggsel"],
        ).deploy(n_nodes=10, degree=3, seed=4, metric="hopcount")
        deployment.advance()
        assert deployment.rows("shortestPath")


class TestSchemaDerivation:
    def test_link_relation_keyed_on_endpoints(self):
        db = Database.for_program(programs.shortest_path())
        assert db.table("link").key == (0, 1)

    def test_aggregate_head_keyed_on_group(self):
        db = Database.for_program(programs.shortest_path())
        assert db.table("spCost").key == (0, 1)

    def test_default_full_key(self):
        db = Database.for_program(programs.shortest_path())
        assert db.table("path").key == (0, 1, 2, 3, 4)

    def test_materialize_overrides(self):
        db = Database.for_program(programs.shortest_path_dynamic())
        assert db.table("path").key == (0, 1, 2)

    def test_finite_lifetime_recorded(self):
        program = parse(
            """
            materialize(beacon, 2.5, infinity, keys(1, 2)).
            B1: seen(@D, S) :- #beacon(@S, @D, C).
            """
        )
        db = Database.for_program(program)
        assert db.table("beacon").lifetime == 2.5

    def test_arity_conflict_rejected(self):
        program = parse("p(@S) :- q(@S).\nr(@S) :- q(@S, X).")
        with pytest.raises(SchemaError):
            Database.for_program(program)

    def test_unknown_table_access_raises(self):
        db = Database.for_program(programs.transitive_closure())
        with pytest.raises(SchemaError):
            db.table("nope")

    def test_snapshot(self):
        db = Database.for_program(programs.transitive_closure())
        db.load_facts("edge", [("a", "b")])
        snap = db.snapshot()
        assert snap["edge"] == frozenset({("a", "b")})
        assert snap["tc"] == frozenset()
