import pytest

from mixedpages.core import Relation, classify_pair, grid_to_graph, to_grid
from mixedpages.errors import BadParamsError, InternalError
from mixedpages.greene import FerrersDiagram, ferrers, lds_length, lis_length
from mixedpages.patterns import (
    PatternKind,
    largest_diamond,
    largest_square_thick,
    largest_thick_of_kind,
    witness_violations,
)
from mixedpages.constructions import (
    cover_with_twist,
    gen_2critical,
    gen_alternating_subdivision,
    gen_diamond,
    gen_k_critical,
    gen_sq_critical,
    gen_stack_critical,
    gen_thick_rainbow,
    gen_thick_twist,
    gen_tight_2k,
)
from mixedpages import solver


class TestGenPattern:
    def test_diamond_two(self):
        grid = gen_diamond(2)
        assert grid.pi == (3, 4, 1, 2)
        w = largest_diamond(grid)
        assert w.k == 2 and witness_violations(grid, w) == []

    def test_diamond_one_is_single_edge(self):
        assert gen_diamond(1).pi == (1,)

    def test_thick_twist_groups(self):
        g = gen_thick_twist(2, 3)
        assert g.m == 6
        w = largest_thick_of_kind(g, 2, PatternKind.THICK_TWIST)
        assert w.k == 3
        # three pairwise-crossing 2-rainbows
        for gi, grp in enumerate(w.groups):
            for a_i, a in enumerate(grp):
                for b in grp[a_i + 1:]:
                    assert classify_pair(g, a, b).kind is Relation.NEST
            for grp2 in w.groups[gi + 1:]:
                for a in grp:
                    for b in grp2:
                        assert classify_pair(g, a, b).kind is Relation.CROSS

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            gen_diamond(0)
        with pytest.raises(BadParamsError):
            gen_thick_twist(0, 2)


class TestTight2k:
    def test_k1(self):
        grid = gen_tight_2k(1)
        assert grid.m == 3
        assert solver.mixed_page_number(grid_to_graph(grid))[0] == 2

    def test_k2_shape(self):
        grid = gen_tight_2k(2)
        assert grid.m == 16 == 2 * 8 - 4 + 4
        assert ferrers(grid).square == 2
        assert lis_length(grid.pi) == 5  # height k^2 + 1
        assert lds_length(grid.pi) == 5  # width k^2 + 1

    def test_edge_count_formula(self):
        for k in (1, 2, 3):
            assert gen_tight_2k(k).m == 2 * k**3 - k**2 + 2 * k


class TestAlternatingSubdivision:
    def test_k2_permutation(self):
        grid = gen_alternating_subdivision(2)
        assert grid.pi == (6, 5, 8, 7, 2, 1, 4, 3, 14, 13, 16, 15, 10, 9, 12, 11)

    def test_k2_separation(self):
        grid = gen_alternating_subdivision(2)
        assert largest_diamond(grid, exact=True).k == 4
        assert largest_square_thick(grid).k == 2

    def test_k1_single_point(self):
        assert gen_alternating_subdivision(1).pi == (1,)

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            gen_alternating_subdivision(3)


class TestStackCritical:
    def test_c5_realization(self):
        g = gen_stack_critical(2, 5)
        assert g.m == 5
        # crossing graph is the 5-cycle: each arc crosses exactly its two
        # cyclic neighbours
        crossings = {
            frozenset((i, j))
            for i in range(5)
            for j in range(i + 1, 5)
            if classify_pair(g, i, j).kind is Relation.CROSS
        }
        assert len(crossings) == 5
        degree = [sum(1 for c in crossings if i in c) for i in range(5)]
        assert degree == [2] * 5
        assert solver.stack_number(g)[0] == 3

    def test_circulant_s3(self):
        g = gen_stack_critical(3, 7)
        crossings = sum(
            1
            for i in range(7)
            for j in range(i + 1, 7)
            if classify_pair(g, i, j).kind is Relation.CROSS
        )
        assert crossings == 14  # C(7; 1, 2) has 7*2 edges halved
        assert solver.criticality(g, ("sq", 3, 0)).critical

    def test_even_cycle_rejected(self):
        with pytest.raises(BadParamsError):
            gen_stack_critical(2, 4)
        with pytest.raises(BadParamsError):
            gen_stack_critical(3, 8)

    def test_complete_case(self):
        # n <= 2s-1 collapses to a complete crossing graph (a twist).
        g = gen_stack_critical(3, 4)
        assert solver.stack_number(g)[0] == 4

    def test_closed_form_realizes_the_circulant(self):
        # `gen_stack_critical` checks the crossing graph itself and raises
        # InternalError on a mismatch.
        cases = [(2, n) for n in range(3, 80, 2)]
        cases += [(s, r * s + 1) for s in range(3, 12) for r in range(1, 12)]
        assert len(cases) == 138
        for s, n in cases:
            assert gen_stack_critical(s, n).m == n

    def test_wrong_crossings_raise_internal_error(self, monkeypatch):
        from mixedpages import constructions

        monkeypatch.setattr(constructions, "_graph_from_arcs", lambda n, arcs, target: None)
        with pytest.raises(InternalError, match="cross wrongly"):
            gen_stack_critical(2, 5)


class TestTwoCritical:
    def test_r2_size_and_criticality(self):
        g = gen_2critical(2)
        assert g.n == 14 and g.m == 7
        assert solver.criticality(g, ("k", 2)).critical

    def test_r4_formula_instance(self):
        g = gen_2critical(4)
        assert g.n == 18 and g.m == 9
        assert set(g.edges) == {
            (0, 3), (2, 5), (4, 7), (6, 11), (1, 9),
            (8, 10), (12, 17), (13, 16), (14, 15),
        }
        assert solver.criticality(g, ("k", 2)).critical

    def test_arc_chain_variant_at_14_vertices_is_not_used(self):
        # The chained-arc edge set on 14 vertices fits one stack plus one
        # queue, so it cannot serve as the 2-critical base case.
        from mixedpages.core import build_graph

        chained = build_graph(
            14, [(0, 3), (2, 7), (1, 5), (4, 6), (8, 13), (9, 12), (10, 11)]
        )
        assert solver.mixed_page_number(chained)[0] == 2
        assert gen_2critical(2).edges != chained.edges

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            gen_2critical(3)
        with pytest.raises(BadParamsError):
            gen_2critical(0)


class TestInductiveFamilies:
    def test_cover_with_twist_covers_everything(self):
        g = gen_2critical(2)
        wrapped = cover_with_twist(g, 4)
        assert wrapped.m == g.m + 4
        twist = [e for e, (u, v) in enumerate(wrapped.edges) if u < 4 or v >= wrapped.n - 4]
        assert len(twist) == 4
        for t in twist:
            for e in range(wrapped.m):
                if e not in twist:
                    rel = classify_pair(wrapped, t, e)
                    assert rel.kind is Relation.NEST and rel.outer == t

    def test_k3_is_three_critical(self):
        g = gen_k_critical(3)
        assert g.m == 11
        assert solver.criticality(g, ("k", 3)).critical

    def test_base_case_passthrough(self):
        assert gen_k_critical(2).edges == gen_2critical(2).edges

    def test_sq_21_critical(self):
        g = gen_sq_critical(2, 1)
        assert g.m == 8
        assert solver.criticality(g, ("sq", 2, 1)).critical

    def test_sq_q0_is_stack_critical(self):
        assert gen_sq_critical(2, 0).edges == gen_stack_critical(2, 5).edges


def test_generators_have_separated_realizations():
    for grid in (gen_diamond(3), gen_tight_2k(2), gen_alternating_subdivision(2)):
        assert to_grid(grid_to_graph(grid)).pi == grid.pi
    g = gen_thick_rainbow(2, 3)
    assert to_grid(g).m == 6


@pytest.mark.parametrize("helper, lie, message", [
    ("lis_length", lambda pi: 0, "LIS"),
    ("lds_length", lambda pi: 0, "LDS"),
    ("ferrers", lambda grid: FerrersDiagram(()), "square"),
])
def test_tight_2k_check_raises_internal_error(monkeypatch, helper, lie, message):
    from mixedpages import greene

    monkeypatch.setattr(greene, helper, lie)
    with pytest.raises(InternalError, match=message):
        gen_tight_2k(2)


def test_tight_2k_edge_count_check_raises_internal_error(monkeypatch):
    from mixedpages import constructions

    real = constructions.GridMatching
    monkeypatch.setattr(
        constructions, "GridMatching", lambda pi: real(pi + (len(pi) + 1,))
    )
    with pytest.raises(InternalError, match="edges"):
        gen_tight_2k(2)
