"""Tests for the ndlint static-analysis suite (src/repro/analysis).

Covers: the five analyses on canonical programs, the three
seeded-negative fixtures, the golden snapshot per builtin program, the
compile(..., lint=) front-door wiring, the CLI, and a Hypothesis
property (the analyzer never crashes and always names real rules) that
reuses the random program generator from test_pretty.py.
"""

import inspect
import pathlib

import pytest
from hypothesis import given, settings

from repro import api
from repro.analysis import ANALYSES, analyze
from repro.analysis.common import rule_name
from repro.analysis.typeinfer import FUNCTION_SIGNATURES
from repro.errors import StaticAnalysisError
from repro.ndlog import programs
from repro.ndlog.functions import INLINE, REGISTRY
from repro.ndlog.parser import parse
from repro.ndlog.pretty import format_analysis_report
from test_pretty import random_programs

DATA = pathlib.Path(__file__).parent / "data" / "lint"

BUILDERS = [
    "shortest_path",
    "shortest_path_safe",
    "shortest_path_dynamic",
    "distance_vector",
    "magic_dst",
    "magic_src_dst",
    "multi_query_magic",
    "reachability",
    "transitive_closure",
    "transitive_closure_nonlinear",
    "same_generation",
]


def fixture(name):
    return (DATA / name).read_text()


# ----------------------------------------------------------------------
# Analysis 1: type inference
# ----------------------------------------------------------------------
class TestTypes:
    def test_shipped_programs_have_no_type_conflicts(self):
        for name in BUILDERS:
            report = analyze(getattr(programs, name)(), passes=["types"])
            assert not report.diagnostics, (name, report.diagnostics)

    def test_address_value_conflict_is_nd101_error(self):
        # Column 3 of q is an address in A1 (shipped to in A2's head
        # via unification with @X) but fed arithmetic in A2.
        report = analyze("""
            A1: q(@S, D) :- #link(@S, D, C).
            A2: r(@D, C) :- q(@D, X), C := X + 1, #link(@D, Z, C2).
        """, passes=["types"])
        errors = report.by_code("ND101")
        assert errors and errors[0].severity == "error"

    def test_value_type_conflict_is_nd102_warning(self):
        # Column 2 of t carries a number in B1 and a path in B2.
        report = analyze("""
            B1: t(@S, C) :- #link(@S, D, C), C := 1 + 2.
            B2: t(@S, P) :- #link(@S, D, C), P := f_concatPath(link(@S, D, C), nil).
        """, passes=["types"])
        warnings = report.by_code("ND102")
        assert warnings and warnings[0].severity == "warning"

    def test_wrong_builtin_arity_is_nd103_error(self):
        # Without it the program compiles, lints clean, and dies mid-run
        # on "TypeError: f_member() missing 1 required positional
        # argument" from inside a kernel.
        source = """
            W1: ok(@S, B) :- #link(@S, D, C), P := f_init(D),
                             B := f_member(P).
            W2: ok(@S, B) :- #link(@S, D, C), B := f_size(f_init(D, S), 1).
        """
        report = analyze(source, passes=["types"])
        hits = report.by_code("ND103")
        assert [(d.severity, d.rule) for d in hits] == [
            ("error", "W1"), ("error", "W2"), ("error", "W2")]
        assert "f_member takes 2 argument(s), 1 given" in hits[0].message
        messages = " ".join(d.message for d in hits)
        assert "f_init takes 1 argument(s), 2 given" in messages
        assert "f_size takes 1 argument(s), 2 given" in messages
        with pytest.raises(StaticAnalysisError, match="ND103"):
            api.compile(source, lint="error")

    def test_signatures_and_templates_track_the_registry(self):
        """Drift guard: ND103 counts against ``FUNCTION_SIGNATURES``,
        the kernels inline from ``INLINE``; both must describe the
        functions ``REGISTRY`` actually holds."""
        assert set(FUNCTION_SIGNATURES) == set(REGISTRY)
        for name, func in REGISTRY.items():
            arity = len(inspect.signature(func).parameters)
            assert len(FUNCTION_SIGNATURES[name][0]) == arity, name
        assert INLINE
        for name, (declared_on, templates) in INLINE.items():
            assert REGISTRY[name] is declared_on, name
            arity = len(inspect.signature(declared_on).parameters)
            assert templates
            for template in templates:
                assert len(template.shapes) == arity, (name, template.shapes)

    def test_summary_reports_column_types(self):
        report = analyze(programs.shortest_path(), passes=["types"])
        table = report.summaries["types"]["columns"]
        assert table["path"][0] == "address"
        assert "number" in table["path"][4]


# ----------------------------------------------------------------------
# Analysis 2: termination
# ----------------------------------------------------------------------
class TestTermination:
    def test_divergent_fixture_flagged(self):
        report = analyze(fixture("divergent_path_growth.ndlog"))
        hits = report.by_code("ND201")
        assert len(hits) == 1
        assert hits[0].severity == "warning"
        assert hits[0].analysis == "termination"
        assert hits[0].rule == "C2"
        assert hits[0].hint

    def test_raw_shortest_path_diverges(self):
        report = analyze(programs.shortest_path(), passes=["termination"])
        assert report.by_code("ND201")

    def test_cycle_guard_bounds_recursion(self):
        report = analyze(programs.shortest_path_safe(),
                         passes=["termination"])
        assert not report.by_code("ND201")
        assert "cycle guard" in report.by_code("ND202")[0].message

    def test_constant_comparison_bounds_recursion(self):
        report = analyze(programs.distance_vector(), passes=["termination"])
        assert not report.by_code("ND201")
        assert "C < 16" in report.by_code("ND202")[0].message

    def test_aggsel_view_bounds_recursion(self):
        compiled = api.compile(programs.shortest_path(), lint="off")
        report = analyze(compiled, passes=["termination"])
        assert not report.by_code("ND201")
        assert "pruned view" in report.by_code("ND202")[0].message

    def test_nonrecursive_growth_not_flagged(self):
        report = analyze("""
            N1: out(@S, C) :- #link(@S, D, C1), C := C1 + 1.
        """, passes=["termination"])
        assert not report.diagnostics


# ----------------------------------------------------------------------
# Analysis 3: monotonicity
# ----------------------------------------------------------------------
class TestMonotonicity:
    def test_aggregate_views_reported(self):
        report = analyze(programs.shortest_path(),
                         passes=["monotonicity"])
        stories = report.summaries["monotonicity"]["deletion_soundness"]
        assert stories["path"] == "psn-delete-rederive"
        assert "group" in stories["spCost"]
        assert report.by_code("ND302")

    def test_recursive_argmin_view_gets_nd301(self):
        compiled = api.compile(programs.shortest_path(), lint="off")
        report = analyze(compiled, passes=["monotonicity"])
        hits = report.by_code("ND301")
        assert hits and hits[0].severity == "info"
        assert "psn" in hits[0].message

    def test_monotone_program_clean(self):
        report = analyze(programs.reachability(), passes=["monotonicity"])
        assert not report.diagnostics
        strata = report.summaries["monotonicity"]["strata"]
        assert all(row["monotone"] for row in strata)


# ----------------------------------------------------------------------
# Analysis 4: communication
# ----------------------------------------------------------------------
class TestCommunication:
    def test_broadcast_storm_fixture_flagged(self):
        report = analyze(fixture("broadcast_storm.ndlog"))
        hits = report.by_code("ND402")
        assert len(hits) == 1
        assert hits[0].severity == "warning"
        assert hits[0].analysis == "communication"
        assert hits[0].rule == "G2"

    def test_shortest_path_ships_unicast(self):
        report = analyze(programs.shortest_path(),
                         passes=["communication"])
        profiles = report.summaries["communication"]["profiles"]
        classes = {p["rule"]: p["class"] for p in profiles}
        assert classes["SP2a"] == "unicast"
        assert classes["SP2b"] == "unicast"
        assert classes["SP1"] == "local"

    def test_unlinked_destination_is_nd401(self):
        # The head ships to an address drawn from a stored relation,
        # not a link endpoint -- link-restriction violation shape.
        report = analyze(parse("""
            W1: out(@T, X) :- store(@S, T, X), #link(@S, D, C).
        """), passes=["communication"])
        hits = report.by_code("ND401")
        assert hits and hits[0].severity == "warning"

    def test_datalog_program_skipped(self):
        report = analyze("""
            P1: tc(X, Y) :- edge(X, Y).
        """, passes=["communication"])
        assert not report.diagnostics
        assert report.summaries["communication"]["located"] is False


# ----------------------------------------------------------------------
# Analysis 5: dead code
# ----------------------------------------------------------------------
class TestDeadCode:
    def test_dead_rule_fixture_flagged(self):
        report = analyze(fixture("dead_rule.ndlog"))
        assert {d.pred for d in report.by_code("ND501")} == \
            {"phantom", "alarm"}
        assert {d.rule for d in report.by_code("ND502")} == {"D1", "D2"}
        assert all(d.severity == "warning"
                   for d in report.by_code("ND501") + report.by_code("ND502"))

    def test_statically_false_condition(self):
        report = analyze("""
            F1: out(@S, C) :- #link(@S, D, C), 1 > 2.
        """, passes=["deadcode"])
        assert report.by_code("ND503")

    def test_unused_relation_is_info(self):
        report = analyze("""
            U1: keep(@S, D) :- #link(@S, D, C).
            U2: drop(@S, D) :- #link(@S, D, C).
            Query: keep(@S, D).
        """, passes=["deadcode"])
        hits = report.by_code("ND504")
        assert hits and hits[0].severity == "info"
        assert hits[0].pred == "drop"

    def test_shipped_programs_fully_derivable(self):
        for name in BUILDERS:
            report = analyze(getattr(programs, name)(),
                             passes=["deadcode"])
            assert not report.summaries["deadcode"]["underivable"], name


# ----------------------------------------------------------------------
# Golden snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    @pytest.mark.parametrize("name", BUILDERS)
    def test_report_matches_snapshot(self, name):
        """Pinned ndlint output per builtin program; regenerate with
        tests/data/lint/regen_lint_snapshots.py when analyses change."""
        report = analyze(getattr(programs, name)(), name=name)
        golden = (DATA / "snapshots" / f"{name}.txt").read_text()
        assert format_analysis_report(report) == golden.rstrip("\n")


# ----------------------------------------------------------------------
# Front door: compile(..., lint=...)
# ----------------------------------------------------------------------
class TestCompileWiring:
    def test_default_warn_mode_attaches_lazy_report(self):
        compiled = api.compile(programs.shortest_path())
        assert compiled.lint == "warn"
        assert compiled._analysis_report is None  # not computed yet
        report = compiled.diagnostics
        assert report.ok  # aggsel bounded the recursion
        assert compiled.diagnostics is report  # cached

    def test_error_mode_raises_on_divergent_program(self):
        with pytest.raises(StaticAnalysisError) as excinfo:
            api.compile(fixture("divergent_path_growth.ndlog"),
                        lint="error")
        assert "ND201" in str(excinfo.value)
        assert excinfo.value.report.by_code("ND201")

    def test_error_mode_accepts_all_shipped_programs(self):
        for name in BUILDERS:
            compiled = api.compile(getattr(programs, name)(), lint="error")
            assert compiled.diagnostics.ok, name

    def test_off_mode_disables_analysis(self):
        compiled = api.compile(programs.shortest_path(), lint="off")
        assert compiled.diagnostics is None

    def test_unknown_mode_rejected(self):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            api.compile(programs.shortest_path(), lint="loud")

    def test_explain_renders_diagnostics_section(self):
        compiled = api.compile(programs.shortest_path())
        text = compiled.explain(join_plans=False)
        assert "-- diagnostics --" in text
        assert "ND202" in text

    def test_recompile_flips_lint_without_mutating(self):
        compiled = api.compile(programs.shortest_path())
        derived = api.compile(compiled, lint="off")
        assert derived.lint == "off"
        assert compiled.lint == "warn"

    def test_extended_carries_lint_mode(self):
        compiled = api.compile(programs.shortest_path(), lint="off")
        assert compiled.extended(["localize"]).lint == "off"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_codes(self, capsys):
        from repro.lint import main

        assert main(["shortest_path"]) == 0
        assert main([str(DATA / "divergent_path_growth.ndlog")]) == 1
        # A target that fails validation fails to compile.
        assert main([str(DATA / "literal_free_rule.ndlog")]) == 2
        assert "L1: rule body has no literal" in capsys.readouterr().err

    def test_all_builtin_programs_pass(self, capsys):
        from repro.lint import main

        assert main(["--all", "--examples-dir",
                     "does-not-exist"]) == 0
        out = capsys.readouterr().out
        assert "shortest_path" in out

    def test_pass_subset_and_severity_filter(self, capsys):
        from repro.lint import main

        code = main(["shortest_path", "--raw",
                     "--passes", "termination",
                     "--severity", "warning"])
        out = capsys.readouterr().out
        assert code == 1  # raw shortest_path diverges without aggsel
        assert "ND201" in out
        assert "ND302" not in out  # monotonicity did not run

    def test_unknown_target_exits(self):
        from repro.lint import main

        with pytest.raises(SystemExit):
            main(["no_such_program"])


# ----------------------------------------------------------------------
# Robustness: the analyzer never crashes
# ----------------------------------------------------------------------
@given(program=random_programs())
@settings(deadline=None, max_examples=150)
def test_analyzer_never_crashes_and_names_real_rules(program):
    report = analyze(program)
    # ND001 is the internal-crash escape hatch; a well-behaved analyzer
    # never emits it, whatever the program shape.
    assert not report.by_code("ND001"), report.by_code("ND001")
    assert list(report.analyses) == list(ANALYSES)
    valid_rules = {""} | {rule_name(r) for r in program.rules}
    for diag in report:
        assert diag.rule in valid_rules
        assert diag.severity in ("info", "warning", "error")
        assert diag.code.startswith("ND")
        assert diag.message
