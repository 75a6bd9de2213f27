"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized to finish in a few minutes.
"""

import random
from contextlib import contextmanager
from itertools import permutations

from conftest import (
    all_grids,
    brute_cover,
    brute_force_mixed_page_number,
    rand_graph,
    rand_matching,
)
from mixedpages.core import (
    GridMatching,
    grid_to_graph,
    to_grid,
    validate_assignment,
)
from mixedpages.errors import DepthExceededError
from mixedpages.greene import (
    FamilyKind,
    approx_mixed_layout,
    conjugate_partition,
    ferrers,
    max_family,
    rsk_shape,
)
from mixedpages.patterns import (
    PatternKind,
    largest_diamond,
    largest_rainbow,
    largest_square_thick,
    largest_thick,
    largest_twist,
    thick_from_diamond,
    witness_violations,
)
from mixedpages.constructions import (
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
from mixedpages.quotient import (
    interval_partition_by_twists,
    iterated_quotient_layout,
    quotient_graph,
    star_forests,
    subgraph,
    transfer_layout,
)
from mixedpages.enumeration import EnumFamily, conjecture_report, contains_pattern, find_critical
from mixedpages import solver


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num:02d}: PASS - {desc}")


def enumerate_matchings(m):
    from mixedpages.enumeration import enumerate_matchings as gen

    return gen(m)


def test_criterion_01_rainbow_identity():
    with criterion(1, "queue number equals largest rainbow, exactly"):
        count = 0
        for m in range(1, 5):
            for g in enumerate_matchings(m):
                q, a = solver.queue_number(g)
                assert q == largest_rainbow(g).k
                assert validate_assignment(g, a) == []
                count += 1
        assert count == 1 + 3 + 15 + 105
        rng = random.Random(1)
        for _ in range(200):
            g = rand_graph(rng, rng.randint(2, 10), rng.randint(1, 8))
            q, _ = solver.queue_number(g)
            assert q == largest_rainbow(g).k


def test_criterion_02_greene_conjugacy():
    with criterion(2, "RSK prefix sums = brute-force coverage; diagrams conjugate"):
        for m in range(1, 7):
            for grid in all_grids(m):
                shape = rsk_shape(grid)
                diagram = ferrers(grid)
                assert diagram.rows == shape
                assert conjugate_partition(conjugate_partition(shape)) == shape
                c = list(diagram.c) + [grid.m] * m
                a = list(diagram.a) + [grid.m] * m
                for i in range(1, m + 1):
                    assert c[i - 1] == brute_cover(grid, i)
                    assert a[i - 1] == brute_cover(grid, i, antichains=True)


def test_criterion_03_sandwich():
    with criterion(3, "square <= mn <= 2*square and valid approx on all m <= 7"):
        for m in range(1, 8):
            for pi in permutations(range(1, m + 1)):
                grid = GridMatching(pi)
                square = ferrers(grid).square
                g = grid_to_graph(grid)
                mn, _ = solver.mixed_page_number(g)
                assert square <= mn <= 2 * square
                a = approx_mixed_layout(grid)
                assert validate_assignment(g, a) == []
                assert len(a.spec) <= 2 * square


def test_criterion_04_diamond_lower_bound():
    with criterion(4, "mixed page number of the k-diamond is exactly k"):
        for k in (1, 2, 3):
            g = grid_to_graph(gen_diamond(k))
            mn, _ = solver.mixed_page_number(g)
            assert mn == k
        g3 = grid_to_graph(gen_diamond(3))
        for spec in solver.splits(2):
            assert not solver.feasible(g3, spec).feasible


def test_criterion_05_thick_patterns():
    with criterion(5, "k-thick k-twists and k-rainbows have mixed page number k"):
        for k in (1, 2, 3):
            assert solver.mixed_page_number(gen_thick_twist(k, k))[0] == k
            assert solver.mixed_page_number(gen_thick_rainbow(k, k))[0] == k


def test_criterion_06_tightness():
    with criterion(6, "gen_tight_2k(2): 16 edges, square 2, exact mn 4"):
        grid = gen_tight_2k(2)
        assert grid.m == 16
        assert ferrers(grid).square == 2
        g = grid_to_graph(grid)
        refuted = [solver.feasible(g, spec) for spec in solver.splits(3)]
        assert len(refuted) == 4 and all(r.status == "infeasible" for r in refuted)
        assert solver.mixed_page_number(g)[0] == 4
    with criterion(6, "gen_tight_2k(3): 51 edges, square 3, exact mn 6 at SSSQQQ"):
        grid = gen_tight_2k(3)
        assert grid.m == 51
        assert ferrers(grid).square == 3
        k, assignment = solver.mixed_page_number(grid_to_graph(grid))
        assert (k, str(assignment.spec)) == (6, "SSSQQQ")


def test_criterion_07_separation_family():
    with criterion(7, "alternating subdivision separates diamonds from thick patterns"):
        grid = gen_alternating_subdivision(2)
        assert grid.pi == (6, 5, 8, 7, 2, 1, 4, 3, 14, 13, 16, 15, 10, 9, 12, 11)
        assert largest_diamond(grid, exact=True).k == 4
        assert largest_square_thick(grid).k == 2
        assert largest_thick(grid, 3).k < 3


def test_criterion_08_subdivision_extraction():
    with criterion(8, "thick_from_diamond extracts a valid 2-thick pattern"):
        grid = gen_diamond(128)
        w = thick_from_diamond(grid, 2)
        assert w.k == 2 and w.t == 2
        assert w.kind in (PatternKind.THICK_TWIST, PatternKind.THICK_RAINBOW)
        assert witness_violations(grid, w) == []


def test_criterion_09_critical_constructions():
    with criterion(9, "all critical constructions pass solver criticality"):
        for s, n in ((2, 5), (2, 7), (3, 7)):
            assert solver.criticality(gen_stack_critical(s, n), ("sq", s, 0)).critical
        for r in range(2, 41, 2):
            assert solver.criticality(gen_2critical(r), ("k", 2)).critical
        assert solver.criticality(gen_k_critical(3), ("k", 3)).critical
        assert solver.criticality(gen_sq_critical(2, 1), ("sq", 2, 1)).critical


def test_criterion_10_paper_counts():
    with criterion(10, "separated criticals converge to 9 (k=1) and 20 ((1,1))"):
        counts = {}
        for max_edges in (7, 8):
            fam = EnumFamily("separated", max_edges, 5, 5)
            one = find_critical(fam, ("k", 1))
            oneone = find_critical(fam, ("sq", 1, 1))
            counts[max_edges] = (len(one.patterns), len(oneone.patterns))
            assert one.complete_up_to["max_edges"] == max_edges
        assert counts[7] == counts[8] == (9, 20)


def test_criterion_11_conjecture_report():
    with criterion(11, "matching criticals: internal consistency; counts vs 8/12"):
        rep = conjecture_report(6)
        assert rep["k1"]["consistent"] and rep["sq11"]["consistent"]
        for key in ("k1", "sq11"):
            patterns = rep[key]["patterns"]
            for i, p in enumerate(patterns):
                for q in patterns[i + 1:]:
                    assert not contains_pattern(p, q) and not contains_pattern(q, p)
        print(
            f"  conjecture counts at m<=6: k=1 found {rep['k1']['count']} "
            f"(conjectured 8, match={rep['k1']['matches']}); (1,1) found "
            f"{rep['sq11']['count']} (conjectured 12, match={rep['sq11']['matches']})"
        )
        assert rep["k1"]["count"] == 8
        assert rep["sq11"]["count"] == 12


def _check_star_forest_properties(h, layout):
    for p, members in enumerate(layout.pages()):
        if not members:
            continue
        forests = star_forests(h, members, layout.spec.kinds[p])
        assert len(forests) <= 6
        covered = sorted(e for f in forests for s in f.stars for e in s.edges)
        assert covered == sorted(members)
        for forest in forests:
            seen_vertices = set()
            for star in forest.stars:
                verts = {star.center}
                for e in star.edges:
                    u, v = h.edges[e]
                    leaf = v if u == star.center else u
                    verts.add(leaf)
                    assert (leaf < star.center) == (forest.side == "right")
                assert not (verts & seen_vertices)
                seen_vertices |= verts


def test_criterion_12_quotient_pipeline():
    with criterion(12, "quotient transfer always yields valid layouts"):
        rng = random.Random(12)
        instances = [rand_matching(rng, rng.randint(3, 40)) for _ in range(100)]
        instances += [
            grid_to_graph(gen_diamond(2)),
            grid_to_graph(gen_diamond(3)),
            gen_thick_twist(2, 2),
            gen_thick_twist(3, 3),
            gen_thick_rainbow(2, 2),
            gen_thick_rainbow(3, 3),
            grid_to_graph(gen_tight_2k(2)),
            grid_to_graph(gen_alternating_subdivision(2)),
            gen_stack_critical(2, 5),
            gen_stack_critical(3, 7),
            gen_2critical(2),
            gen_2critical(4),
            gen_k_critical(3),
            gen_sq_critical(2, 1),
        ]
        k = 3
        laid_out = 0
        for g in instances:
            part, _ = interval_partition_by_twists(g, k)
            for start, end in part.blocks():
                inside = [e for e, (u, v) in enumerate(g.edges) if start <= u and v < end]
                sub, _ = subgraph(g, inside)
                assert largest_twist(sub).k <= k + 1
            res = quotient_graph(g, part)
            _, hlayout = solver.mixed_page_number(res.h)
            _check_star_forest_properties(res.h, hlayout)
            a, _ = transfer_layout(g, part, hlayout, k)
            assert validate_assignment(g, a) == []
            try:
                a2 = iterated_quotient_layout(g, k)
                assert validate_assignment(g, a2) == []
                laid_out += 1
            except DepthExceededError as exc:
                assert witness_violations(g, exc.witness) == []
        assert laid_out >= 100


def test_criterion_13_solver_exactness_oracle():
    with criterion(13, "backtracking page numbers match brute-force enumeration"):
        for m in range(1, 5):
            for g in enumerate_matchings(m):
                assert solver.mixed_page_number(g)[0] == brute_force_mixed_page_number(g)
        rng = random.Random(13)
        for _ in range(1000):
            g = rand_graph(rng, rng.randint(2, 8), rng.randint(1, 5))
            assert solver.mixed_page_number(g)[0] == brute_force_mixed_page_number(g)
