import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_grids, brute_cover
from mixedpages.core import GridMatching, grid_to_graph, validate_assignment, PageKind
from mixedpages.errors import InternalError
from mixedpages.greene import (
    ChainFamily,
    FamilyKind,
    approx_mixed_layout,
    conjugate_partition,
    diamond_witness,
    ferrers,
    lds_length,
    lis_length,
    max_family,
    rsk_shape,
)
from mixedpages.patterns import witness_violations
from mixedpages.constructions import gen_tight_2k
from mixedpages import solver

# The 9-edge matching with Greene profile 5 + 3 + 1: lexicographically least
# permutation with that insertion shape, coverage verified by brute force.
FERRER_FIGURE_PERM = (1, 2, 4, 3, 6, 5, 9, 8, 7)


class TestRskShape:
    def test_identity(self):
        assert rsk_shape(GridMatching((1, 2, 3))) == (3,)

    def test_reversal(self):
        assert rsk_shape(GridMatching((3, 2, 1))) == (1, 1, 1)

    def test_two_blocks(self):
        # Brute force: one chain covers 2 elements, two cover all 4.
        grid = GridMatching((3, 4, 1, 2))
        assert brute_cover(grid, 1) == 2
        assert brute_cover(grid, 2) == 4
        assert rsk_shape(grid) == (2, 2)

    def test_prefix_sums_equal_brute_force_small(self):
        for m in range(1, 5):
            for grid in all_grids(m):
                diagram = ferrers(grid)
                c = list(diagram.c) + [grid.m] * m
                a = list(diagram.a) + [grid.m] * m
                for i in range(1, m + 1):
                    assert c[i - 1] == brute_cover(grid, i)
                    assert a[i - 1] == brute_cover(grid, i, antichains=True)

    def test_conjugate_is_involution(self):
        for rows in [(5, 3, 1), (3, 3), (1,), (4, 2, 2, 1)]:
            assert conjugate_partition(conjugate_partition(rows)) == rows


class TestFerrers:
    def test_block_example(self):
        d = ferrers(GridMatching((3, 4, 1, 2)))
        assert d.rows == (2, 2)
        assert d.square == 2
        assert d.c == (2, 4)
        assert d.a == (2, 4)

    def test_twist_has_square_one(self):
        for k in (1, 2, 4):
            d = ferrers(GridMatching(tuple(range(1, k + 1))))
            assert d.rows == (k,)
            assert d.square == 1

    def test_figure_profile_five_three_one(self):
        grid = GridMatching(FERRER_FIGURE_PERM)
        d = ferrers(grid)
        assert d.rows == (5, 3, 1)
        assert d.c == (5, 8, 9)
        assert d.square == 2
        assert brute_cover(grid, 1) == 5
        assert brute_cover(grid, 2) == 8
        assert brute_cover(grid, 3) == 9

    def test_width_and_height(self):
        d = ferrers(GridMatching((3, 4, 1, 2)))
        assert d.w == 2  # chains to cover everything
        assert d.h == 2  # antichains to cover everything


class TestMaxFamily:
    def test_chain_family_block_example(self):
        grid = GridMatching((3, 4, 1, 2))
        assert max_family(grid, FamilyKind.CHAINS, 1).covered == 2
        assert max_family(grid, FamilyKind.CHAINS, 2).covered == 4

    def test_antichains_cover_all_at_width(self):
        grid = GridMatching((2, 4, 1, 3))
        d = ferrers(grid)
        fam = max_family(grid, FamilyKind.ANTICHAINS, d.h)
        assert fam.covered == grid.m

    def test_covered_equals_prefix_sums_exhaustive(self):
        for m in range(1, 6):
            for grid in all_grids(m):
                d = ferrers(grid)
                for k in range(1, m + 1):
                    c_k = d.c[min(k, d.w) - 1] if d.w else 0
                    a_k = d.a[min(k, d.h) - 1] if d.h else 0
                    assert max_family(grid, FamilyKind.CHAINS, k).covered == c_k
                    assert max_family(grid, FamilyKind.ANTICHAINS, k).covered == a_k

    def test_parts_are_disjoint_monotone_sequences(self):
        grid = GridMatching((4, 1, 5, 2, 6, 3, 7))
        for kind in FamilyKind:
            fam = max_family(grid, kind, 3)
            seen = set()
            for part in fam.parts:
                assert not (set(part) & seen)
                seen |= set(part)
                pts = [grid.points()[e] for e in sorted(part, key=lambda e: e)]
                for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
                    assert x1 < x2
                    assert (y1 < y2) if kind is FamilyKind.CHAINS else (y1 > y2)

    def test_coverage_mismatch_is_an_internal_error(self, monkeypatch):
        from mixedpages import greene

        real = greene._network_simplex

        def off_by_one(*network):
            cost, flow = real(*network)
            return cost - 1, flow

        monkeypatch.setattr(greene, "_network_simplex", off_by_one)
        with pytest.raises(InternalError):
            max_family(GridMatching((3, 4, 1, 2)), FamilyKind.CHAINS, 1)

    def test_stuck_decomposition_is_an_internal_error(self, monkeypatch):
        from mixedpages import greene

        def no_flow(demand, sources, targets, capacity, weight):
            return 0, [0] * len(sources)

        monkeypatch.setattr(greene, "_network_simplex", no_flow)
        with pytest.raises(InternalError, match="stuck"):
            max_family(GridMatching((3, 4, 1, 2)), FamilyKind.CHAINS, 1)

    def test_infeasible_network_is_an_internal_error(self):
        from mixedpages import greene

        with pytest.raises(InternalError, match="artificial"):
            greene._network_simplex([-1, 1], [], [], [], [])

    @pytest.mark.parametrize(
        "network",
        [
            ([-1, 1], [0], [1], [0], [-1]),  # zero capacity
            ([-1, 1], [0, 1], [1, 1], [1, 1], [0, -1]),  # a loop
        ],
    )
    def test_edges_networkx_drops_are_rejected(self, network):
        """The pivots could repeat forever on them: here the zero-capacity
        edge would enter and leave again at every pass."""
        from mixedpages import greene

        with pytest.raises(ValueError, match="positive capacities and no loops"):
            greene._network_simplex(*network)


class TestInternalChecks:
    """Each consistency check in greene raises InternalError, which callers
    catch as a MixedPagesError, rather than a bare AssertionError."""

    def test_diamond_statistics_collision(self, monkeypatch):
        from mixedpages import greene

        monkeypatch.setattr(greene, "increasing_levels", lambda pts: [1] * len(pts))
        with pytest.raises(InternalError, match="bijection"):
            greene._diamond_matrix(GridMatching((3, 4, 1, 2)), [0, 1, 2, 3], 2, 2)

    def test_diamond_statistics_leave_a_hole(self):
        from mixedpages import greene

        # One element for a 1x2 matrix: no collision, one cell stays empty.
        with pytest.raises(InternalError, match="bijection"):
            greene._diamond_matrix(GridMatching((3, 4, 1, 2)), [0], 1, 2)

    def test_families_that_share_too_little(self, monkeypatch):
        from mixedpages import greene

        monkeypatch.setattr(
            greene, "max_family", lambda grid, kind, k: ChainFamily(kind, (), 0)
        )
        with pytest.raises(InternalError, match="share"):
            diamond_witness(GridMatching(FERRER_FIGURE_PERM))

    def test_families_that_fail_to_cover(self, monkeypatch):
        from mixedpages import greene

        monkeypatch.setattr(
            greene, "max_family", lambda grid, kind, k: ChainFamily(kind, (), 0)
        )
        with pytest.raises(InternalError, match="cover"):
            approx_mixed_layout(GridMatching((3, 4, 1, 2)))


def test_no_module_imports_networkx():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mixedpages

    code = (
        "import importlib, pkgutil, sys, mixedpages\n"
        "for mod in pkgutil.walk_packages(mixedpages.__path__, 'mixedpages.'):\n"
        "    importlib.import_module(mod.name)\n"
        "print('networkx' in sys.modules)\n"
    )
    src = str(Path(mixedpages.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


class TestDiamondWitness:
    def test_block_example_uses_all_points(self):
        grid = GridMatching((3, 4, 1, 2))
        w = diamond_witness(grid)
        assert w.k == 2
        assert sorted(w.edges) == [0, 1, 2, 3]
        assert witness_violations(grid, w) == []

    def test_twist_gives_single_edge(self):
        w = diamond_witness(GridMatching((1, 2, 3)))
        assert w.k == 1
        assert len(w.edges) == 1

    def test_tight_construction_has_square_witness(self):
        grid = gen_tight_2k(2)
        w = diamond_witness(grid)
        assert w.k == 2
        assert witness_violations(grid, w) == []

    def test_side_equals_square_and_predicate_holds(self):
        for m in range(1, 6):
            for grid in all_grids(m):
                w = diamond_witness(grid)
                assert w.k == ferrers(grid).square
                assert witness_violations(grid, w) == []

    def test_families_share_exactly_square_squared(self):
        for m in range(2, 6):
            for grid in all_grids(m):
                k = ferrers(grid).square
                chains = max_family(grid, FamilyKind.CHAINS, k)
                antichains = max_family(grid, FamilyKind.ANTICHAINS, k)
                shared = chains.covered_set() & antichains.covered_set()
                assert len(shared) == k * k


class TestApproxMixedLayout:
    def test_rainbow_is_one_stack(self):
        a = approx_mixed_layout(GridMatching((2, 1)))
        assert len(a.spec) == 1
        assert a.spec.kinds[0] is PageKind.STACK

    def test_block_example_bounded_and_valid(self):
        grid = GridMatching((3, 4, 1, 2))
        a = approx_mixed_layout(grid)
        assert len(a.spec) <= 4
        assert validate_assignment(grid_to_graph(grid), a) == []

    def test_valid_and_within_twice_square(self):
        for m in range(1, 6):
            for grid in all_grids(m):
                a = approx_mixed_layout(grid)
                assert validate_assignment(grid_to_graph(grid), a) == []
                assert len(a.spec) <= 2 * ferrers(grid).square

    def test_sandwich_against_solver_small(self):
        for m in range(1, 5):
            for grid in all_grids(m):
                square = ferrers(grid).square
                mn, _ = solver.mixed_page_number(grid_to_graph(grid))
                assert square <= mn <= 2 * square

    def test_empty_grid(self):
        a = approx_mixed_layout(GridMatching(()))
        assert len(a.spec) == 0 and a.page_of == ()


def test_lis_lds_lengths():
    assert lis_length((3, 4, 1, 2)) == 2
    assert lds_length((3, 4, 1, 2)) == 2
    assert lis_length((1, 2, 3)) == 3
    assert lds_length((1, 2, 3)) == 1


@settings(max_examples=80, deadline=None)
@given(st.permutations(list(range(1, 9))))
def test_random_perm_invariants(values):
    grid = GridMatching(tuple(values))
    diagram = ferrers(grid)
    assert sum(diagram.rows) == grid.m
    assert diagram.rows[0] == lis_length(grid.pi)
    assert diagram.w == lds_length(grid.pi)
    assert conjugate_partition(conjugate_partition(diagram.rows)) == diagram.rows
    w = diamond_witness(grid)
    assert w.k == diagram.square
    assert witness_violations(grid, w) == []
    a = approx_mixed_layout(grid)
    assert validate_assignment(grid_to_graph(grid), a) == []
    assert len(a.spec) <= 2 * diagram.square
