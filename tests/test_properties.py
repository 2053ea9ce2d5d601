"""Property-based tests (hypothesis) for the core invariants beside
the contract matrix (``test_contract.py``, Theorems 1 and 3):

* Theorem 2: the delta engines never repeat an inference;
* parser round-trip: pretty-printing then re-parsing is the identity;
* f_concatPath algebra.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import Database, bsn, psn, seminaive
from repro.ndlog import parse, pretty, programs
from repro.ndlog.functions import REGISTRY

SETTINGS = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)

nodes = st.integers(min_value=0, max_value=6).map(lambda i: f"n{i}")
edges = st.sets(st.tuples(nodes, nodes).filter(lambda e: e[0] != e[1]),
                min_size=1, max_size=16)


@given(edge_set=edges)
@settings(**SETTINGS)
def test_theorem2_inference_parity(edge_set):
    counts = set()
    for module in (seminaive, bsn, psn):
        program = programs.transitive_closure_nonlinear()
        db = Database.for_program(program)
        db.load_facts("edge", edge_set)
        counts.add(module.evaluate(program, db).inferences)
    assert len(counts) == 1


# ----------------------------------------------------------------------
# Parser round-trip
# ----------------------------------------------------------------------
CANONICAL_PROGRAMS = [
    programs.shortest_path,
    programs.shortest_path_safe,
    programs.shortest_path_dynamic,
    programs.magic_dst,
    programs.magic_src_dst,
    programs.multi_query_magic,
    programs.reachability,
    programs.distance_vector,
    programs.transitive_closure,
    programs.same_generation,
]


@given(builder=st.sampled_from(CANONICAL_PROGRAMS))
@settings(deadline=None, max_examples=len(CANONICAL_PROGRAMS))
def test_pretty_parse_roundtrip(builder):
    program = builder()
    text = pretty.format_program(program)
    again = parse(text)
    assert again.rules == program.rules
    assert again.facts == program.facts
    assert again.query == program.query
    assert again.materializations == program.materializations
    # Idempotence: printing the re-parse gives the same text.
    assert pretty.format_program(again) == text


# ----------------------------------------------------------------------
# f_concatPath algebra
# ----------------------------------------------------------------------
paths = st.lists(nodes, min_size=1, max_size=5).map(tuple)


@given(a=paths, b=paths, c=paths)
@settings(deadline=None, max_examples=60)
def test_concat_path_associative(a, b, c):
    concat = REGISTRY["f_concatPath"]
    assert concat(concat(a, b), c) == concat(a, concat(b, c))


@given(p=paths)
@settings(deadline=None, max_examples=30)
def test_concat_path_nil_identity(p):
    concat = REGISTRY["f_concatPath"]
    assert concat(p, ()) == p
    assert concat((), p) == p


@given(a=paths, b=paths)
@settings(deadline=None, max_examples=60)
def test_concat_path_junction_collapse(a, b):
    concat = REGISTRY["f_concatPath"]
    joined = concat(a, b)
    if a[-1] == b[0]:
        assert len(joined) == len(a) + len(b) - 1
    else:
        assert len(joined) == len(a) + len(b)
    assert joined[0] == a[0]
    assert joined[-1] == b[-1]
