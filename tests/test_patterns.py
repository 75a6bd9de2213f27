from itertools import combinations

import pytest

from conftest import all_grids, rand_extremal_grid, rand_graph, rand_matching
from mixedpages.core import (
    GridMatching,
    Relation,
    build_graph,
    classify_pair,
    grid_to_graph,
)
from mixedpages.errors import InsufficientInputError
from mixedpages.greene import ferrers, lis_length, lds_length
from mixedpages.patterns import (
    PatternKind,
    PatternWitness,
    largest_diamond,
    largest_rainbow,
    largest_square_thick,
    largest_thick,
    largest_thick_of_kind,
    largest_twist,
    has_twist,
    thick_from_diamond,
    witness_violations,
)
from mixedpages.constructions import (
    gen_alternating_subdivision,
    gen_diamond,
    gen_thick_rainbow,
    gen_thick_twist,
)
from mixedpages import solver

# Realizes the figure where the true diamond beats the Ferrers square:
# largest diamond side 3, while the square is only 2x2.
SQUARE_VS_DIAMOND_PERM = (6, 7, 10, 8, 4, 5, 1, 2, 9, 3)


def brute_best_clique(g, relation: Relation) -> int:
    best = 0
    for size in range(1, g.m + 1):
        found = False
        for subset in combinations(range(g.m), size):
            if all(
                classify_pair(g, a, b).kind is relation
                for i, a in enumerate(subset)
                for b in subset[i + 1:]
            ):
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


class TestLargestRainbow:
    def test_three_rainbow(self):
        g = grid_to_graph(GridMatching((3, 2, 1)))
        w = largest_rainbow(g)
        assert w.k == 3 and w.kind is PatternKind.RAINBOW

    def test_twist_has_rainbow_one(self):
        assert largest_rainbow(grid_to_graph(GridMatching((1, 2, 3)))).k == 1

    def test_block_example_brute_forced(self):
        g = grid_to_graph(GridMatching((3, 4, 1, 2)))
        assert brute_best_clique(g, Relation.NEST) == 2
        w = largest_rainbow(g)
        assert w.k == 2
        assert witness_violations(g, w) == []

    def test_empty_graph(self):
        assert largest_rainbow(build_graph(3, [])).k == 0

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            g = rand_graph(rng, 9, 8)
            assert largest_rainbow(g).k == brute_best_clique(g, Relation.NEST)


class TestLargestTwist:
    def test_three_twist(self):
        assert largest_twist(grid_to_graph(GridMatching((1, 2, 3)))).k == 3

    def test_rainbow_has_twist_one(self):
        assert largest_twist(grid_to_graph(GridMatching((3, 2, 1)))).k == 1

    def test_block_example(self):
        assert largest_twist(GridMatching((3, 4, 1, 2))).k == 2

    def test_grid_fast_path_equals_generic(self, rng):
        for m in range(1, 6):
            for grid in all_grids(m):
                assert largest_twist(grid).k == largest_twist(grid_to_graph(grid)).k
                assert largest_rainbow(grid).k == lds_length(grid.pi)
                assert largest_twist(grid).k == lis_length(grid.pi)

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            g = rand_graph(rng, 9, 8)
            w = largest_twist(g)
            assert w.k == brute_best_clique(g, Relation.CROSS)
            assert witness_violations(g, w) == []

    def test_twist_lower_bounds_stack_number(self, rng):
        for _ in range(10):
            g = rand_matching(rng, 5)
            sn, _ = solver.stack_number(g)
            assert largest_twist(g).k <= sn

    def test_has_twist_finds_exact_size(self):
        g = grid_to_graph(GridMatching((1, 2, 3)))
        assert has_twist(g, 3) is not None
        assert has_twist(g, 4) is None

    def test_has_twist_deeper_than_the_recursion_limit(self):
        g = grid_to_graph(GridMatching(tuple(range(1, 1201))))
        assert has_twist(g, 1200) == tuple(range(1200))
        assert has_twist(g, 1201) is None


class TestLargestDiamond:
    def test_canonical_diamond(self):
        grid = gen_diamond(2)
        assert grid.pi == (3, 4, 1, 2)
        w = largest_diamond(grid)
        assert w.k == 2
        assert witness_violations(grid, w) == []

    def test_twist_has_no_two_diamond(self):
        w = largest_diamond(GridMatching((1, 2, 3)), exact=True)
        assert w.k == 1

    def test_fast_side_equals_ferrers_square(self):
        for m in range(1, 6):
            for grid in all_grids(m):
                assert largest_diamond(grid).k == ferrers(grid).square

    def test_exact_beats_square_on_figure_family(self):
        grid = GridMatching(SQUARE_VS_DIAMOND_PERM)
        assert largest_diamond(grid, exact=False).k == 2
        w = largest_diamond(grid, exact=True)
        assert w.k == 3
        assert witness_violations(grid, w) == []

    def test_exact_never_below_square(self):
        for grid in all_grids(4):
            exact = largest_diamond(grid, exact=True)
            assert exact.k >= ferrers(grid).square
            assert witness_violations(grid, exact) == []

    def test_exact_mode_respects_budget(self):
        from mixedpages.errors import SizeLimitError

        grid = GridMatching(SQUARE_VS_DIAMOND_PERM)
        with pytest.raises(SizeLimitError):
            largest_diamond(grid, exact=True, budget=3)


class TestLargestThick:
    def test_thick_twist_generator_detected(self):
        g = gen_thick_twist(2, 3)
        w = largest_thick(g, 2)
        assert w.kind is PatternKind.THICK_TWIST and w.k == 3
        assert witness_violations(g, w) == []

    def test_rainbow_is_one_thick_rainbow(self):
        g = grid_to_graph(GridMatching((3, 2, 1)))
        w = largest_thick(g, 1)
        assert w.kind is PatternKind.THICK_RAINBOW and w.k == 3

    def test_thick_rainbow_generator_detected(self):
        g = gen_thick_rainbow(3, 2)
        w = largest_thick_of_kind(g, 3, PatternKind.THICK_RAINBOW)
        assert w.k == 2
        assert witness_violations(g, w) == []

    def test_alternating_subdivision_square_thick(self):
        # The subdivision family separates diamonds from thick patterns:
        # diamond side 4 with largest square thick pattern only 2.
        g = gen_alternating_subdivision(2)
        assert largest_thick(g, 3).k == 2  # no 3-thick 3-pattern
        assert largest_square_thick(g).k == 2

    def test_disjoint_edges_raise_no_recursion_error(self):
        g = build_graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
        assert largest_thick(g, 1).k == 1
        assert largest_square_thick(g).k == 1

    def test_deep_groups_raise_no_recursion_error(self):
        # An 1100-rainbow is one 1100-thick twist group, found by one
        # falling pass from its outermost edge.
        g = build_graph(2200, [(i, 2199 - i) for i in range(1100)])
        w = largest_thick(g, 1100)
        assert (w.kind, w.k, w.t) == (PatternKind.THICK_TWIST, 1, 1100)
        assert largest_thick(g, 1101).k == 0

    def test_alternating_subdivision_has_wide_nonsquare_thick(self):
        # Fixing t=2 the family does contain a 2-thick 4-twist; the square
        # reading (t = k) is the bounded quantity.
        g = gen_alternating_subdivision(2)
        w = largest_thick(g, 2)
        assert w.k == 4
        assert witness_violations(g, w) == []


class TestThickFromDiamond:
    def test_extraction_at_stated_parameters(self):
        grid = gen_diamond(128)
        w = thick_from_diamond(grid, 2)
        assert w.k == 2 and w.t == 2
        assert witness_violations(grid, w) == []

    def test_single_edge_base_case(self):
        w = thick_from_diamond(gen_diamond(1), 1)
        assert w.k == 1 and len(w.edges) == 1

    def test_witness_survives_thick_recheck(self):
        grid = gen_diamond(16)
        w = thick_from_diamond(grid, 2)
        assert witness_violations(grid, w) == []
        # independent pairwise re-check through the graph view
        g = grid_to_graph(grid)
        for gi, grp in enumerate(w.groups):
            for grp2 in w.groups[gi + 1:]:
                for a in grp:
                    for b in grp2:
                        want = (
                            Relation.CROSS
                            if w.kind is PatternKind.THICK_TWIST
                            else Relation.NEST
                        )
                        assert classify_pair(g, a, b).kind is want

    def test_insufficient_points(self):
        with pytest.raises(InsufficientInputError):
            thick_from_diamond(GridMatching((1,)), 2)

    def test_non_extremal_grid_takes_the_flow_route(self, monkeypatch):
        """LIS * LDS != m, so the diamond comes from two maximum families;
        every round splits and the witness, thinner than the k asked for,
        passes its re-check."""
        import random

        from mixedpages import greene

        pi = list(range(1, 101))
        random.Random(0).shuffle(pi)
        grid = GridMatching(tuple(pi))
        assert lis_length(pi) * lds_length(pi) != grid.m
        kinds = []
        flow = greene.max_family

        def counted(grid, kind, k):
            kinds.append(kind)
            return flow(grid, kind, k)

        monkeypatch.setattr(greene, "max_family", counted)
        w = thick_from_diamond(grid, 2)
        assert len(kinds) == 2
        assert w.kind is PatternKind.THICK_TWIST and w.size == (1, 1)
        assert witness_violations(grid, w) == []

    def test_leaves_keep_the_sub_diamond_invariant(self):
        """The premise of the bisections in `_quadrant_split`: the diamond
        and every leaf of four rounds of the subdivision is square, its rows
        rise in id and value and its columns rise in id and fall in value.
        On gen_diamond, on random extremal grids and on the diamond matrices
        of random grids (the flow route)."""
        import random

        from mixedpages import greene
        from mixedpages.patterns import _quadrant_split

        def keeps_invariant(pi, matrix):
            rows = all(
                a < b and pi[a] < pi[b] for row in matrix for a, b in zip(row, row[1:])
            )
            columns = all(
                a < b and pi[a] > pi[b] for col in zip(*matrix) for a, b in zip(col, col[1:])
            )
            return rows and columns and all(len(row) == len(matrix) for row in matrix)

        rng = random.Random(33)
        grids = [gen_diamond(side) for side in (2, 3, 5, 8, 16, 33)]
        grids += [rand_extremal_grid(rng, *rng.sample(range(1, 20), 2)) for _ in range(30)]
        for m in (10, 30, 60, 100):
            grids += [GridMatching(tuple(rng.sample(range(1, m + 1), m))) for _ in range(4)]
        checked = 0
        for grid in grids:
            leaves = [greene.diamond_matrix(grid)]
            for depth in range(5):
                children = []
                for leaf in leaves:
                    assert keeps_invariant(grid.pi, leaf), (grid, depth)
                    checked += 1
                    try:
                        children += _quadrant_split(grid.pi, leaf)
                    except InsufficientInputError:
                        pass
                leaves = children
        assert checked > 300

    def test_round_without_a_quarter_pair_raises(self):
        """gen_diamond(8) at k=3 runs four rounds; one of them finds no
        opposite quadrant pair holding a quarter of a leaf."""
        with pytest.raises(InsufficientInputError, match="quarter"):
            thick_from_diamond(gen_diamond(8), 3)


class TestWitnessSerialization:
    def test_json_round_trip(self):
        w = largest_thick(gen_thick_twist(2, 3), 2)
        back = PatternWitness.from_json(w.to_json())
        assert back == w

    def test_witness_checker_flags_bad_groups(self):
        g = grid_to_graph(GridMatching((1, 2, 3)))
        fake = PatternWitness(PatternKind.RAINBOW, 2, 1, (0, 1), ((0, 1),))
        assert witness_violations(g, fake)
