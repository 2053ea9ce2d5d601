"""NDlog validity checks (Definitions 1-6 of the paper)."""

import pytest

from repro.errors import NDlogValidationError
from repro.ndlog import check, parse, validate
from repro.ndlog.programs import (
    magic_src_dst,
    multi_query_magic,
    reachability,
    shortest_path,
    shortest_path_dynamic,
)
from repro.ndlog.validator import is_link_restricted, is_local_rule


def first_rule(source):
    return parse(source).rules[0]


def test_paper_program_is_valid():
    report = validate(shortest_path(), strict_address_types=False)
    assert report.ok, report.errors


def test_paper_rule_classification():
    """SP1, SP3, SP4 are local; SP2 is (non-local) link-restricted --
    exactly as stated in Section 2.1."""
    report = validate(shortest_path(), strict_address_types=False)
    assert set(report.local_rules) == {"SP1", "SP3", "SP4"}
    assert set(report.link_restricted_rules) == {"SP2"}


def test_canonical_programs_valid():
    for builder in (reachability, magic_src_dst, multi_query_magic,
                    shortest_path_dynamic):
        report = validate(builder(), strict_address_types=False)
        assert report.ok, (builder.__name__, report.errors)


def test_local_rule_definition():
    assert is_local_rule(first_rule("p(@S, X) :- q(@S, X), r(@S)."))
    assert not is_local_rule(first_rule("p(@D, X) :- q(@S, X), r(@D)."))


def test_link_restricted_example_from_paper():
    # "p(@D,...) :- #link(@S,@D,...), p1(@S,...), ..., pn(@S,...)."
    rule = first_rule(
        "p(@D, X) :- #link(@S, @D, C), p1(@S, X), p2(@S, X)."
    )
    assert is_link_restricted(rule)


def test_link_restricted_mixed_endpoints():
    # SP2 style: body predicates at both the source and destination.
    rule = first_rule(
        "p(@S, D, X) :- #link(@S, @Z, C), q(@Z, D, X)."
    )
    assert is_link_restricted(rule)


def test_not_link_restricted_without_link():
    rule = first_rule("p(@D, X) :- q(@S, X).")
    assert not is_link_restricted(rule)


def test_not_link_restricted_two_links():
    rule = first_rule(
        "p(@D, X) :- #link(@S, @D, C), #link(@D, @Z, C2), q(@S, X)."
    )
    assert not is_link_restricted(rule)


def test_not_link_restricted_third_party_location():
    rule = first_rule(
        "p(@D, X) :- #link(@S, @D, C), q(@W, X)."
    )
    assert not is_link_restricted(rule)


def test_constraint1_missing_location_specifier():
    report = validate(parse("p(S) :- q(S)."))
    assert not report.ok
    assert any("location specifier" in e for e in report.errors)


def test_constraint2_address_type_safety_strict():
    # S is used as an address in the head and as a plain value in q.
    program = parse("p(@S) :- q(@X, S).")
    report = validate(program, strict_address_types=True)
    assert any("address" in e for e in report.errors)
    relaxed = validate(program, strict_address_types=False)
    # Still fails link-restriction (non-local, no link), but not the
    # address check.
    assert not any("address and" in e for e in relaxed.errors)


def test_constraint3_derived_link_relation_rejected():
    program = parse(
        """
        bad(@S, @D, C) :- #link(@S, @D, C).
        p(@S, X) :- #bad(@S, @D, C), q(@D, X).
        """
    )
    report = validate(program, strict_address_types=False)
    assert any("must be stored" in e or "link relation" in e
               for e in report.errors)


def test_constraint4_non_link_restricted_rejected():
    program = parse("p(@D, X) :- q(@S, X).")
    report = validate(program, strict_address_types=False)
    assert any("link-restricted" in e for e in report.errors)


def test_negation_rejected():
    program = parse("p(@S) :- q(@S), !r(@S).")
    report = validate(program, strict_address_types=False)
    assert any("negation" in e for e in report.errors)


def test_aggregate_in_body_literal_rejected():
    # Construct via AST (the parser already refuses the syntax).
    from repro.ndlog.ast import Literal, Program, Rule
    from repro.ndlog.terms import AggregateSpec, Variable

    head = Literal("p", (Variable("S", location=True),))
    body = Literal("q", (Variable("S", location=True),
                         AggregateSpec("min", "C")))
    program = Program(rules=[Rule(head=head, body=(body,))])
    report = validate(program, strict_address_types=False)
    assert any("aggregate in rule body" in e for e in report.errors)


def test_unbound_head_variable_rejected():
    program = parse("p(@S, X) :- q(@S).")
    report = validate(program, strict_address_types=False)
    assert any("not bound" in e for e in report.errors)


def test_rule_without_a_body_literal_rejected():
    program = parse('L1: p(@X) :- X := "a". L2: p(@X) :- q(@X), X != "a".')
    report = validate(program)
    assert [e for e in report.errors if "no literal" in e] == [
        "L1: rule body has no literal (nothing drives the rule; "
        "state p as a fact)"]


def test_non_ground_fact_rejected():
    program = parse("p(@a, X).")
    report = validate(program, strict_address_types=False)
    assert any("not ground" in e for e in report.errors)


def test_check_raises_on_invalid():
    with pytest.raises(NDlogValidationError):
        check(parse("p(@D, X) :- q(@S, X)."))


def test_check_returns_program_on_valid():
    program = shortest_path()
    assert check(program) is program
