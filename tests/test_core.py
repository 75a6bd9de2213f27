import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_grids, rand_graph
from mixedpages.core import (
    GridMatching,
    OrderedGraph,
    PageAssignment,
    PageKind,
    PageSpec,
    Relation,
    build_graph,
    canonicalize_pattern,
    classify_pair,
    conflict_masks,
    dump_assignment,
    dump_olg,
    dump_perm,
    grid_to_graph,
    parse_assignment,
    parse_olg,
    parse_perm,
    separation_cut,
    to_grid,
    validate_assignment,
)
from mixedpages.errors import (
    BadEdgeIdError,
    CoverageMismatchError,
    DuplicateEdgeError,
    InvalidInputError,
    MixedPagesError,
    NotMatchingError,
    NotSeparatedError,
    OutOfRangeError,
    ParseError,
)
from mixedpages.patterns import PatternKind, PatternWitness


class TestBuildGraph:
    def test_two_crossing_edges(self):
        g = build_graph(4, [(0, 2), (1, 3)])
        assert g.edges == ((0, 2), (1, 3))
        assert classify_pair(g, 0, 1).kind is Relation.CROSS

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(2, [(0, 1), (0, 1)])

    def test_duplicate_allowed_with_multi(self):
        g = build_graph(2, [(0, 1), (0, 1)], multi=True)
        assert g.m == 2

    def test_orientation_normalized(self):
        assert build_graph(4, [(3, 1)]).edges == ((1, 3),)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            build_graph(3, [(0, 3)])

    def test_loop_rejected(self):
        with pytest.raises(OutOfRangeError):
            build_graph(3, [(1, 1)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(OutOfRangeError, match="negative"):
            build_graph(-2, [])


class TestClassifyPair:
    def test_cross(self):
        g = build_graph(4, [(0, 2), (1, 3)])
        assert classify_pair(g, 0, 1).kind is Relation.CROSS

    def test_nest_records_outer_and_inner(self):
        g = build_graph(4, [(0, 3), (1, 2)])
        rel = classify_pair(g, 1, 0)
        assert rel.kind is Relation.NEST
        assert (rel.outer, rel.inner) == (0, 1)

    def test_shared_endpoint(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert classify_pair(g, 0, 1).kind is Relation.SHARED

    def test_disjoint(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert classify_pair(g, 0, 1).kind is Relation.DISJOINT

    def test_bad_edge_id(self):
        g = build_graph(4, [(0, 1)])
        with pytest.raises(BadEdgeIdError):
            classify_pair(g, 0, 1)
        with pytest.raises(BadEdgeIdError):
            classify_pair(g, 0, 0)

    def test_order_independent(self, rng):
        for _ in range(30):
            g = rand_graph(rng, 8, 10)
            for i in range(g.m):
                for j in range(g.m):
                    if i != j:
                        assert classify_pair(g, i, j).kind is classify_pair(g, j, i).kind

    def test_masks_agree_with_classify(self, rng):
        for _ in range(30):
            g = rand_graph(rng, 9, 12)
            cross, nest = conflict_masks(g)
            for i in range(g.m):
                for j in range(g.m):
                    if i == j:
                        continue
                    kind = classify_pair(g, i, j).kind
                    assert bool(cross[i] >> j & 1) == (kind is Relation.CROSS)
                    assert bool(nest[i] >> j & 1) == (kind is Relation.NEST)


class TestGrid:
    def test_twist_is_identity(self):
        assert to_grid(build_graph(4, [(0, 2), (1, 3)])).pi == (1, 2)

    def test_rainbow_is_reversal(self):
        assert to_grid(build_graph(4, [(0, 3), (1, 2)])).pi == (2, 1)

    def test_block_example(self):
        g = build_graph(8, [(0, 6), (1, 7), (2, 4), (3, 5)])
        assert to_grid(g).pi == (3, 4, 1, 2)

    def test_not_separated(self):
        with pytest.raises(NotSeparatedError):
            to_grid(build_graph(4, [(0, 1), (2, 3)]))

    def test_not_matching(self):
        with pytest.raises(NotMatchingError):
            to_grid(build_graph(3, [(0, 2), (1, 2)]))

    def test_cut_of_edgeless_graph_defaults_to_zero(self):
        assert separation_cut(build_graph(3, [])) == 0

    def test_grid_graph_round_trip(self):
        for grid in all_grids(4):
            assert to_grid(grid_to_graph(grid)).pi == grid.pi

    def test_cross_iff_increasing_exhaustive(self):
        # Separated matchings: crossing pairs are exactly the increasing
        # point pairs, nesting the decreasing ones (all grids m <= 5).
        for m in range(1, 6):
            for grid in all_grids(m):
                g = grid_to_graph(grid)
                pts = grid.points()
                for i in range(m):
                    for j in range(i + 1, m):
                        kind = classify_pair(g, i, j).kind
                        increasing = pts[i][1] < pts[j][1]
                        assert kind is (Relation.CROSS if increasing else Relation.NEST)

    def test_pi_must_be_permutation(self):
        with pytest.raises(NotMatchingError):
            GridMatching((1, 1))


class TestValidateAssignment:
    def test_twist_on_stack_violates(self):
        g = build_graph(4, [(0, 2), (1, 3)])
        a = PageAssignment(PageSpec.from_string("S"), (0, 0))
        violations = validate_assignment(g, a)
        assert len(violations) == 1
        assert (violations[0].e1, violations[0].e2) == (0, 1)

    def test_twist_on_queue_is_fine(self):
        g = build_graph(4, [(0, 2), (1, 3)])
        assert validate_assignment(g, PageAssignment(PageSpec.from_string("Q"), (0, 0))) == []

    def test_rainbow_on_queue_violates(self):
        g = build_graph(4, [(0, 3), (1, 2)])
        assert validate_assignment(g, PageAssignment(PageSpec.from_string("Q"), (0, 0)))

    def test_shared_endpoint_legal_on_both_kinds(self):
        g = build_graph(3, [(0, 2), (1, 2)])
        for spec in ("S", "Q"):
            assert validate_assignment(g, PageAssignment(PageSpec.from_string(spec), (0, 0))) == []

    def test_coverage_mismatch(self):
        g = build_graph(4, [(0, 2), (1, 3)])
        with pytest.raises(CoverageMismatchError):
            validate_assignment(g, PageAssignment(PageSpec.from_string("S"), (0,)))
        with pytest.raises(CoverageMismatchError):
            validate_assignment(g, PageAssignment(PageSpec.from_string("S"), (0, 1)))

    def test_edge_not_left_to_right_is_rejected(self):
        # Only a graph built by hand, bypassing build_graph, can hold one.
        g = OrderedGraph(4, ((0, 3), (2, 1)))
        with pytest.raises(InvalidInputError):
            validate_assignment(g, PageAssignment(PageSpec.from_string("S"), (0, 0)))

    def test_matches_pairwise_scan(self, rng):
        for _ in range(50):
            g = rand_graph(rng, 8, 8)
            k = rng.randint(1, 3)
            spec = PageSpec(tuple(rng.choice(list(PageKind)) for _ in range(k)))
            a = PageAssignment(spec, tuple(rng.randrange(k) for _ in range(g.m)))
            expected = []
            for i in range(g.m):
                for j in range(i + 1, g.m):
                    if a.page_of[i] != a.page_of[j]:
                        continue
                    kind = spec.kinds[a.page_of[i]]
                    rel = classify_pair(g, i, j).kind
                    if (kind is PageKind.STACK and rel is Relation.CROSS) or (
                        kind is PageKind.QUEUE and rel is Relation.NEST
                    ):
                        expected.append((a.page_of[i], i, j))
            got = [(v.page, v.e1, v.e2) for v in validate_assignment(g, a)]
            assert sorted(got) == sorted(expected)


class TestCanonicalize:
    def test_drops_isolated_vertices(self):
        assert canonicalize_pattern(build_graph(5, [(0, 4)])) == OrderedGraph(2, ((0, 1),))

    def test_reindexes_preserving_order(self):
        g = canonicalize_pattern(build_graph(6, [(1, 3), (2, 5)]))
        assert g == OrderedGraph(4, ((0, 2), (1, 3)))
        assert classify_pair(g, 0, 1).kind is Relation.CROSS

    def test_idempotent(self, rng):
        for _ in range(30):
            g = rand_graph(rng, 10, 6)
            once = canonicalize_pattern(g)
            assert canonicalize_pattern(once) == once

    def test_preserves_relations(self, rng):
        for _ in range(30):
            g = rand_graph(rng, 10, 7)
            canon = canonicalize_pattern(g)
            assert canon.m == g.m
            for i in range(g.m):
                for j in range(i + 1, g.m):
                    assert classify_pair(g, i, j).kind is classify_pair(canon, i, j).kind


class TestFormats:
    def test_parse_olg(self):
        g = parse_olg("4 2\n0 2\n1 3\n")
        assert g.edges == ((0, 2), (1, 3))

    def test_olg_round_trip(self, rng):
        for _ in range(20):
            g = rand_graph(rng, 9, 7)
            assert parse_olg(dump_olg(g)) == g

    def test_serialize_is_canonical_text(self):
        text = "4 2\n0 2\n1 3\n"
        assert dump_olg(parse_olg(text)) == text

    def test_perm_round_trip(self):
        grid = parse_perm("perm: 3 4 1 2")
        assert grid.pi == (3, 4, 1, 2)
        assert parse_perm(dump_perm(grid)).pi == grid.pi

    def test_assignment_round_trip(self):
        a = PageAssignment(PageSpec.from_string("SQ"), (0, 1, 0))
        back = parse_assignment(dump_assignment(a))
        assert back == a
        assert '"spec": ["S", "Q"]' in dump_assignment(a) or '"spec"' in dump_assignment(a)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_olg("4 2\n0 2\nbad line\n")
        assert err.value.line == 3
        with pytest.raises(ParseError) as err:
            parse_olg("nonsense header\n")
        assert err.value.line == 1

    def test_header_edge_count_checked(self):
        with pytest.raises(ParseError):
            parse_olg("4 3\n0 2\n1 3\n")

    # int() takes signs, underscores and non-ASCII digits, and str.isdigit
    # takes superscripts; none of them is a number in either format.
    @pytest.mark.parametrize("text, line", [
        ("1_1 1\n0 1\n", 1),
        ("+2 1\n0 1\n", 1),
        ("-3 0\n", 1),
        ("2 1\n+0 1\n", 2),
        ("2 1\n0 \u0661\n", 2),
        ("3 1\n\n0 \u00b2\n", 3),
        ("2 \uff11\n0 1\n", 1),
    ])
    def test_olg_numbers_are_ascii_digits(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_olg(text)
        assert err.value.line == line

    @pytest.mark.parametrize("text", [
        "perm: \u0662 +1", "perm: 2 +1", "perm: 1_0", "perm: -1", "perm: \u00b9",
    ])
    def test_perm_numbers_are_ascii_digits(self, text):
        with pytest.raises(ParseError) as err:
            parse_perm(text)
        assert err.value.line == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12))
def test_build_graph_never_produces_unsorted_edges(pairs):
    try:
        g = build_graph(10, pairs)
    except (OutOfRangeError, DuplicateEdgeError):
        return
    assert list(g.edges) == sorted(g.edges)
    assert all(u < v for u, v in g.edges)


# Fuzzing the parsers of outside input: every input either parses or raises
# a MixedPagesError, never another exception.
TOKENS = st.sampled_from(["0", "1", "2", "3", "7", "-1", "10", "x", "1.5", "perm:", ""])
LINES = st.lists(st.lists(TOKENS, max_size=3).map(" ".join), max_size=6).map("\n".join)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=8,
)


def parses_or_raises_package_error(parse, text):
    try:
        parse(text)
    except MixedPagesError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=40), LINES), st.booleans())
def test_parse_olg_fuzz(text, multi):
    parses_or_raises_package_error(lambda t: parse_olg(t, multi=multi), text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=40), LINES, LINES.map(lambda t: "perm: " + t)))
def test_parse_perm_fuzz(text):
    parses_or_raises_package_error(parse_perm, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.text(max_size=40),
    JSON.map(json.dumps),
    st.fixed_dictionaries({"spec": JSON, "pages": JSON}).map(json.dumps),
    st.fixed_dictionaries({
        "spec": st.lists(st.sampled_from(["S", "Q", "s", "X", 1]), max_size=3),
        "pages": st.lists(st.one_of(st.integers(-1, 3), st.floats(), st.text(max_size=2)), max_size=4),
    }).map(json.dumps),
))
def test_parse_assignment_fuzz(text):
    parses_or_raises_package_error(parse_assignment, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.text(max_size=40),
    JSON.map(json.dumps),
    st.fixed_dictionaries({
        "kind": st.sampled_from(["twist", "rainbow", "diamond", "thick-twist", "nope", 3]),
        "k": JSON,
        "t": JSON,
        "groups": st.one_of(JSON, st.lists(st.lists(JSON, max_size=3), max_size=3)),
    }).map(json.dumps),
))
def test_witness_from_json_fuzz(text):
    parses_or_raises_package_error(PatternWitness.from_json, text)


@pytest.mark.parametrize("parse", [parse_assignment, PatternWitness.from_json])
def test_json_parsers_reject_deep_nesting_and_infinity(parse):
    for text in ("[" * 100000, '{"spec": ["S"], "pages": [Infinity], "kind": "twist", '
                 '"k": Infinity, "t": 1, "groups": [[0]]}'):
        with pytest.raises(ParseError):
            parse(text)


# Strict integers and round trips: what the dump functions write parses back
# to an equal value, and a number that is not a JSON integer is refused.
@st.composite
def graphs(draw):
    n = draw(st.integers(0, 9))
    multi = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=not multi)) if pairs else []
    return build_graph(n, edges, multi=multi)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_olg_round_trips(g):
    assert parse_olg(dump_olg(g), multi=g.multi) == g


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9).flatmap(lambda m: st.permutations(list(range(1, m + 1)))))
def test_perm_round_trips(pi):
    grid = GridMatching(tuple(pi))
    assert parse_perm(dump_perm(grid)) == grid


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(list(PageKind)), max_size=4), st.lists(st.integers(-3, 9), max_size=6))
def test_assignment_round_trips(kinds, pages):
    a = PageAssignment(PageSpec(tuple(kinds)), tuple(pages))
    assert parse_assignment(dump_assignment(a)) == a


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(list(PatternKind)),
    st.integers(-2, 9),
    st.integers(-2, 9),
    st.lists(st.lists(st.integers(-2, 20), max_size=4), max_size=4),
)
def test_witness_round_trips(kind, k, t, groups):
    w = PatternWitness.of(kind, k, t, groups)
    assert PatternWitness.from_json(w.to_json()) == w


NOT_INTEGERS = st.one_of(st.booleans(), st.floats(), st.text(max_size=2), st.none(), st.just([1]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=4), NOT_INTEGERS, st.data())
def test_json_parsers_refuse_every_non_integer(numbers, bad, data):
    """A float, a boolean, a string, null or a list where an integer belongs
    is a ParseError, wherever it stands; without it the text parses."""
    spot = data.draw(st.integers(0, len(numbers)))
    spec = ["S"] * (len(numbers) + 1)
    good = numbers[:spot] + [0] + numbers[spot:]
    assert parse_assignment(json.dumps({"spec": spec, "pages": good})).page_of == tuple(good)
    with pytest.raises(ParseError):
        parse_assignment(json.dumps({"spec": spec, "pages": numbers[:spot] + [bad] + numbers[spot:]}))
    witness = {"kind": "twist", "k": 1, "t": 1, "groups": [good]}
    assert PatternWitness.from_json(json.dumps(witness)).edges == tuple(good)
    field = data.draw(st.sampled_from(["k", "t", "groups"]))
    if field == "groups":
        witness["groups"] = [numbers[:spot] + [bad] + numbers[spot:]]
    else:
        witness[field] = bad
    with pytest.raises(ParseError):
        PatternWitness.from_json(json.dumps(witness))


def test_json_parsers_refuse_what_int_would_take():
    with pytest.raises(ParseError):  # int() made this page_of=(1, 0)
        parse_assignment('{"spec": ["S", "Q"], "pages": [1.9, "0"]}')
    with pytest.raises(ParseError):  # and this page 1
        parse_assignment('{"spec": ["S"], "pages": [true]}')
    with pytest.raises(ParseError):  # a string was read as its letters
        parse_assignment('{"spec": "SQ", "pages": [0, 1]}')
    with pytest.raises(ParseError):  # int() made this k=2, t=1 and edges (0, 1)
        PatternWitness.from_json('{"kind": "twist", "k": 2.7, "t": true, "groups": [[0.9, "1"]]}')
