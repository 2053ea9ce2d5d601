"""Rule localization tests (Algorithm 2 / Claim 1)."""

import pytest

from repro.engine import Database, psn, seminaive
from repro.errors import PlanError
from repro.ndlog import parse, parse_rule
from repro.ndlog.programs import (
    magic_src_dst,
    multi_query_magic,
    reachability,
    shortest_path_safe,
)
from repro.ndlog.validator import validate
from repro.planner.localization import (
    head_is_local,
    is_canonical,
    localize,
    localize_rule,
    rule_execution_site,
)

FIGURE2_LINKS = [
    ("a", "b", 5), ("b", "a", 5),
    ("a", "c", 1), ("c", "a", 1),
    ("c", "b", 1), ("b", "c", 1),
    ("b", "d", 1), ("d", "b", 1),
    ("e", "a", 1), ("a", "e", 1),
]


def test_local_rule_untouched():
    rule = parse_rule("p(@S, X) :- q(@S, X).")
    assert localize_rule(rule, 0, {"p", "q"}) == [rule]


def test_single_hop_send_rule_untouched():
    # Body fully at @S, head at @D: already canonical (one link hop).
    rule = parse_rule("p(@D, X) :- #link(@S, @D, C), q(@S, X).")
    assert localize_rule(rule, 0, {"p", "q", "link"}) == [rule]


def test_sp2_splits_into_send_and_final():
    """The paper's SP2 -> SP2a + SP2b rewrite (Section 3.2)."""
    rule = parse_rule(
        "SP2: path(@S, @D, @Z, P, C) :- #link(@S, @Z, C1), "
        "path(@Z, @D, @Z2, P2, C2), C := C1 + C2, "
        "P := f_concatPath(link(@S, @Z, C1), P2)."
    )
    out = localize_rule(rule, 0, {"path", "link"})
    assert len(out) == 2
    send, final = out
    # Send rule: ships the link (with its cost) from @S to @Z -- the
    # paper's SP2a "linkD" rule.
    assert send.head.args[0].name == "Z"
    assert send.body_literals[0].pred == "link"
    assert rule_execution_site(send) == ("var", "S")
    assert not head_is_local(send)
    # Final rule executes at @Z and sends path tuples back to @S over
    # the reverse link (paper's SP2b).
    assert rule_execution_site(final) == ("var", "Z")
    assert final.head.pred == "path"
    assert final.head.args[0].name == "S"
    link_literals = [l for l in final.body_literals if l.link_literal]
    assert len(link_literals) == 1
    assert link_literals[0].args[0].name == "Z"  # reverse link at @Z


def test_localized_program_is_canonical():
    for builder in (shortest_path_safe, reachability, magic_src_dst,
                    multi_query_magic):
        localized = localize(builder())
        assert is_canonical(localized), builder.__name__
        report = validate(localized)
        assert report.ok, (builder.__name__, report.errors)


def test_original_sp_program_not_canonical():
    assert not is_canonical(shortest_path_safe())


def test_localization_preserves_semantics():
    """Claim 1: the rewritten program is equivalent."""
    for builder in (shortest_path_safe, reachability):
        program = builder()
        localized = localize(program)
        db1 = Database.for_program(program)
        db1.load_facts("link", FIGURE2_LINKS)
        db2 = Database.for_program(localized)
        db2.load_facts("link", FIGURE2_LINKS)
        r1 = psn.evaluate(program, db1)
        r2 = psn.evaluate(localized, db2)
        query = program.query.pred
        assert r1.rows(query) == r2.rows(query), builder.__name__


def test_localization_preserves_semantics_seminaive():
    program = shortest_path_safe()
    localized = localize(program)
    db1 = Database.for_program(program)
    db1.load_facts("link", FIGURE2_LINKS)
    db2 = Database.for_program(localized)
    db2.load_facts("link", FIGURE2_LINKS)
    r1 = seminaive.evaluate(program, db1)
    r2 = seminaive.evaluate(localized, db2)
    assert r1.rows("shortestPath") == r2.rows("shortestPath")


def test_top_down_rule_localizes():
    """SP2-SD: recursive literal at the link source, head at the dest."""
    rule = parse_rule(
        "SP2SD: pathDst(@D, @S, @Z, P, C) :- pathDst(@Z, @S, @Z1, P1, C1), "
        "#link(@Z, @D, C2), C := C1 + C2, "
        "P := f_concatPath(P1, link(@Z, @D, C2))."
    )
    out = localize_rule(rule, 0, {"pathDst", "link"})
    # Body is all at @Z (link source) and the head is at @D: this is a
    # single-hop send -- no split needed.
    assert out == [rule]


def test_non_link_restricted_rejected():
    rule = parse_rule("p(@D, X) :- q(@S, X).")
    with pytest.raises(PlanError):
        localize_rule(rule, 0, {"p", "q"})


def test_carried_variables_minimal():
    """The mid relation ships only variables the far side needs."""
    rule = parse_rule(
        "R: out(@D, X) :- #link(@S, @D, C), q(@S, X, Unused), r(@D, X)."
    )
    send, final = localize_rule(rule, 0, {"out", "q", "r", "link"})
    carried = {a.name for a in send.head.args if hasattr(a, "name")}
    assert "X" in carried
    assert "Unused" not in carried


def test_mid_relation_names_unique():
    program = parse(
        """
        A: p(@S, X) :- #link(@S, @D, C), q(@D, X).
        B: p(@S, X) :- #link(@S, @D, C), r(@D, X).
        """
    )
    localized = localize(program)
    mids = [r.head.pred for r in localized.rules if "_mid" in r.head.pred]
    assert len(set(mids)) == len(mids) // 2 or len(set(mids)) >= 2
