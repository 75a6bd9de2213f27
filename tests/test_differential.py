"""Differential tests of the fast paths against the slow code they replace:
the explicit-stack, forward-checked search and the clique search against
their recursive originals (kept in recursive_oracle.py), the verdict
kernels of `solver.mode_verdict` on specs of at most two pages, and on pure
specs of separated patterns, against the search and the brute-force
oracle, and every kernel and `criticality` with its portfolio of splits
against the ordered loop over the splits they replaced (kept in
criticality_oracle.py), the page sweep of
validate_assignment against the plain pairwise scan, the in-package
network simplex of max_family against the networkx flow it replaced (kept in
flow_oracle.py) and against its own earlier bookkeeping (kept in
simplex_oracle.py), and the level-wise critical-pattern engine and its stream
of full matrices against the per-candidate check and combinations stream
they replaced (kept in critical_oracle.py), the explicit-stack
`_clique_of_size` against its recursive original, and the quotient layer
(incremental interval partition, lazy twist probe, one-sweep star-forest
check, Fenwick nesting depths) against the code it replaced (kept in
quotient_oracle.py), and the sweep-listed page violations, the conflict
masks that stop at an edge's end, the rainbow on nesting depths and the
one-pass diamond matrix against the pair scans and repeated passes they
replaced (kept in pair_scan_oracle.py), and the quadrant split that
classifies each element once against its closure-based original (kept in
quadrant_oracle.py), and `thick_from_diamond` with its diamond levels and
subdivision on the permutation against the points-based path it replaced
(kept in subdivision_oracle.py), and the LIS levels over values, the LIS
chain walked over them and the thick search on `_max_clique` against their
originals, and its group enumeration on an explicit stack against the
recursive one (kept in kernel_oracle.py), and the one transfer lift for
both page kinds against the mirrored stack-page and queue-page lifts it
replaced (kept in quotient_oracle.py), and the capped 3-coloring of the
stars of a page against the uncapped recursive search (kept in
quotient_oracle.py), and
the split verdicts of separated matchings (`greene.split_fits` and
Greene's bound) and of two-page splits (2-SAT) and the page and stack
numbers they give against the search, and the exact diamond search
on an explicit stack against its recursive original (kept in
recursive_oracle.py), and the per-level conflict tables of enumeration
against the pair scan of each candidate's own edges, and the candidate
stream that hands out the table ids, on flat per-cell walks and an explicit
stack, against the walks it replaced and the ids `_decide` mapped (kept in
stream_oracle.py), and the doubling loop of `gen_alternating_subdivision`
against its recursive build (kept in recursive_oracle.py)."""

import json
import math
import random
import signal
from contextlib import contextmanager
from itertools import permutations

import pytest

import critical_oracle
import criticality_oracle
import kernel_oracle
import pair_scan_oracle
import quadrant_oracle
import quotient_oracle
import recursive_oracle
import simplex_oracle
import stream_oracle
import subdivision_oracle
from conftest import brute_force_fits, rand_graph, rand_matching
from mixedpages import core, enumeration, greene, patterns, quotient, solver
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
from mixedpages.core import (
    GridMatching,
    OrderedGraph,
    PageAssignment,
    PageKind,
    PageSpec,
    Relation,
    Violation,
    build_graph,
    canonicalize_pattern,
    classify_pair,
    conflict_masks,
    grid_to_graph,
    nesting_depths,
    validate_assignment,
)
from mixedpages.errors import (
    BudgetExceededError,
    InsufficientInputError,
    InternalError,
    MixedPagesError,
    SizeLimitError,
)
from mixedpages.greene import FamilyKind, ferrers, max_family
from mixedpages.patterns import (
    PatternKind,
    _clique_of_size,
    _exact_diamond_matrix,
    _max_clique,
    largest_rainbow,
    witness_violations,
)
from mixedpages.solver import _solve_masks

KINDS = (PageKind.STACK, PageKind.QUEUE)


def rand_multigraph(rng, max_n, max_m):
    """Edges drawn with replacement: parallel edges and shared endpoints."""
    n = rng.randint(2, max_n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(
        n, [rng.choice(pairs) for _ in range(rng.randint(0, max_m))], multi=True
    )


def rand_spec(rng, max_pages):
    return PageSpec(tuple(rng.choice(KINDS) for _ in range(rng.randint(0, max_pages))))


def outcome(fn, *args):
    try:
        return fn(*args)
    except SizeLimitError:
        return "size limit"


def same_search_outcome(args, budget):
    """The forward-checked search against the plain recursive one: the same
    layout in the same item order whenever the oracle answers within the
    budget, never more nodes, a budget hit only where the oracle hits too,
    and where only the oracle runs out, the oracle's answer at no limit.
    Returns both results at the given budget."""
    got = _solve_masks(*args, budget)
    want = recursive_oracle._solve_masks(*args, budget)
    assert got[1] <= want[1]
    assert want[2] or not got[2]
    answer = want
    if want[2] and not got[2]:
        answer = recursive_oracle._solve_masks(*args, 10**9)
        assert not answer[2]
    if not got[2]:
        assert got[0] == answer[0]
        if got[0] is not None:
            assert list(got[0].items()) == list(answer[0].items())
    return got, want


def test_search_matches_recursive_oracle():
    rng = random.Random(11)
    saved = 0
    for _ in range(1500):
        g = rand_multigraph(rng, 13, 15)
        cross, nest = conflict_masks(g)
        active = [e for e in range(g.m) if rng.random() < 0.85]
        spec = rand_spec(rng, 4)
        budget = rng.choice([0, 1, 2, 3, 7, 30, 200, 10**6])
        got, want = same_search_outcome((cross, nest, active, spec), budget)
        saved += got[1] < want[1]
    assert saved > 50


def test_search_matches_oracle_on_larger_matchings():
    rng = random.Random(12)
    rescued = 0
    for _ in range(20):
        m = 18
        points = list(range(2 * m))
        rng.shuffle(points)
        g = build_graph(2 * m, [(points[2 * i], points[2 * i + 1]) for i in range(m)])
        cross, nest = conflict_masks(g)
        for spec in ("SS", "SQ", "QS", "QQ", "SSQ", "SQS"):
            spec = PageSpec.from_string(spec)
            budget = rng.choice([50, 10**6])
            got, want = same_search_outcome((cross, nest, list(range(m)), spec), budget)
            rescued += want[2] and not got[2]
    assert rescued > 0


def test_mixed_page_number_matches_unskipped_split_loop():
    """Splits below the twist (pure stack) or the rainbow (pure queue) are
    skipped; the answer and witness are those of a search of every split."""
    rng = random.Random(23)
    skipped = 0
    for i in range(300):
        g = rand_matching(rng, rng.randint(0, 10)) if i % 2 else rand_multigraph(rng, 10, 10)
        want = next(
            (k, res.assignment)
            for k in range(g.m + 1)
            for spec in solver.splits(k)
            if (res := solver.feasible(g, spec)).feasible
        )
        assert solver.mixed_page_number(g) == want
        skipped += want[0] > 1 and max(nesting_depths(g.edges)) > 1
    assert skipped > 20


MIXED_SPLITS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]


def search_verdicts(pi):
    """The search's verdict on each of MIXED_SPLITS for the separated
    matching of `pi`."""
    g = grid_to_graph(GridMatching(tuple(pi)))
    cross, nest = conflict_masks(g)
    verdicts = []
    for s, q in MIXED_SPLITS:
        page_of, _, hit = _solve_masks(cross, nest, list(range(g.m)), PageSpec.split(s, q), 10**9)
        assert not hit
        verdicts.append(page_of is not None)
    return verdicts


def test_split_fits_matches_search_on_every_small_permutation():
    """Every permutation with m <= 7, at every mixed split of at most four
    pages: the DP's verdict is the search's."""
    verdicts = set()
    for m in range(8):
        for pi in permutations(range(1, m + 1)):
            for (s, q), want in zip(MIXED_SPLITS, search_verdicts(pi)):
                assert greene.split_fits(pi, s, q, 10**9)[0] == want, (pi, s, q)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_split_fits_matches_search_on_random_permutations():
    """600 random permutations with m from 8 to 18.  The DP's verdict is the
    search's, and a budget one below the DP's node count is unknown."""
    rng = random.Random(41)
    verdicts = set()
    for _ in range(600):
        pi = list(range(1, rng.randint(8, 18) + 1))
        rng.shuffle(pi)
        for (s, q), want in zip(MIXED_SPLITS, search_verdicts(pi)):
            fits, nodes = greene.split_fits(pi, s, q, 10**9)
            assert fits == want, (pi, s, q)
            assert greene.split_fits(pi, s, q, nodes) == (fits, nodes)
            assert greene.split_fits(pi, s, q, nodes - 1) == (None, nodes)
            verdicts.add(want)
    assert verdicts == {True, False}


def search_only_page_number(g):
    """The mixed page number by searching every split in order."""
    return next(
        (k, res.assignment)
        for k in range(g.m + 1)
        for spec in solver.splits(k)
        if (res := solver.feasible(g, spec)).feasible
    )


def test_mixed_page_number_on_separated_matchings_matches_the_search():
    """Separated matchings take the verdicts and search one split; the page
    number, the split and every page are those of the search alone."""
    rng = random.Random(42)
    grids = [gen_tight_2k(1), gen_tight_2k(2), gen_diamond(3), gen_diamond(4),
             gen_alternating_subdivision(2)]
    for _ in range(150):
        pi = list(range(1, rng.randint(1, 14) + 1))
        rng.shuffle(pi)
        grids.append(GridMatching(tuple(pi)))
    mixed = 0
    for grid in grids:
        g = grid_to_graph(grid)
        assert solver._separated_rights(g) is not None
        k, assignment = solver.mixed_page_number(g)
        assert (k, assignment) == search_only_page_number(g)
        mixed += 0 < assignment.spec.q < k
    assert mixed > 50


def test_tiny_budgets_on_a_separated_matching_are_unknown_or_right():
    """Each budget below what the verdicts and the one search need raises
    BudgetExceededError; none returns a wrong answer."""
    g = grid_to_graph(gen_tight_2k(2))
    want = search_only_page_number(g)
    assert want[0] == 4
    outcomes = []
    for budget in range(120):
        try:
            outcomes.append(solver.mixed_page_number(g, budget) == want)
        except BudgetExceededError as exc:
            assert exc.nodes > budget
            outcomes.append(None)
    assert outcomes[0] is None and outcomes[-1] is True
    assert False not in outcomes
    # The SSQQ DP alone needs 83 states, so a smaller budget cannot answer.
    assert set(outcomes[:83]) == {None}


def search_only_stack_number(g):
    """The stack number by searching every stack count upward from 0."""
    return next(
        (s, res.assignment)
        for s in range(g.m + 1)
        if (res := solver.feasible(g, PageSpec.split(s, 0))).feasible
    )


def test_only_splits_that_fit_are_searched(monkeypatch):
    """On random matchings and multigraphs with up to 16 edges and on
    separated matchings with up to 20, `mixed_page_number` and
    `stack_number` give the page number, the split and every page of the
    searches alone.  Yet no search they run refutes a split of two pages
    (2-SAT decides those) or a split of a separated matching (the RSK
    shape, Greene's bound and the DP decide those)."""
    rng = random.Random(43)
    refuted = []
    real = solver._solve_masks

    def spy(cross, nest, active, spec, budget):
        page_of, nodes, hit = real(cross, nest, active, spec, budget)
        if page_of is None and not hit:
            refuted.append(str(spec))
        return page_of, nodes, hit

    monkeypatch.setattr(solver, "_solve_masks", spy)
    kinds = {"matching": 0, "multigraph": 0, "separated": 0}
    searched_three = 0
    for i in range(240):
        kind = ("matching", "multigraph", "separated")[i % 3]
        if kind == "matching":
            g = rand_matching(rng, rng.randint(0, 16))
        elif kind == "multigraph":
            g = rand_multigraph(rng, 12, 16)
        else:
            pi = list(range(1, rng.randint(1, 20) + 1))
            rng.shuffle(pi)
            g = grid_to_graph(GridMatching(tuple(pi)))
        want = search_only_page_number(g)
        refuted.clear()
        assert solver.mixed_page_number(g) == want
        if kind == "separated":
            assert refuted == []
        else:
            assert [spec for spec in refuted if len(spec) <= 2] == []
            searched_three += bool(refuted)
        if kind != "separated":
            want = search_only_stack_number(g)
            refuted.clear()
            assert solver.stack_number(g) == want
            assert [spec for spec in refuted if len(spec) <= 2] == []
        kinds[kind] += want[0] > 2
    # Most graphs need three pages or more, and some infeasible split of
    # three pages is still searched.
    assert min(kinds.values()) > 20 and searched_three > 0


def test_greene_bound_refutes_only_splits_that_do_not_fit():
    """Greene's bound read off the insertion shape: q increasing and s
    decreasing subsequences hold at most the values of the first q rows and
    the first s columns.  No split that it refutes is fitted by the DP, on
    every permutation with m <= 7 and on 600 random ones with m from 8 to
    18, at every mixed split of at most m pages.  The shape's first row is
    the LIS and its row count the LDS."""
    rng = random.Random(44)
    perms = [pi for m in range(8) for pi in permutations(range(1, m + 1))]
    for _ in range(600):
        pi = list(range(1, rng.randint(8, 18) + 1))
        rng.shuffle(pi)
        perms.append(tuple(pi))
    refuted = 0
    for pi in perms:
        m = len(pi)
        rows = greene.insertion_shape(pi)
        assert rows == greene.rsk_shape(GridMatching(pi))
        if m:
            assert rows[0] == greene.lis_length(pi) and len(rows) == greene.lds_length(pi)
        cols = greene.conjugate_partition(rows)
        for k in range(2, m + 1):
            for q in range(1, k):
                if sum(rows[:q]) + sum(cols[: k - q]) < m:
                    assert greene.split_fits(pi, k - q, q, 10**9)[0] is False, (pi, q)
                    refuted += 1
    assert refuted > 2000


SHORT_SPECS = [PageSpec.from_string(s) for s in ("", "S", "Q", "SS", "SQ", "QS", "QQ")]


def test_fits_matches_search_and_brute_force():
    """Specs of at most two pages, decided without search, on random graphs
    and multigraphs with random active subsets: the search's verdict and the
    brute-force oracle's, in 0 nodes and at a budget of 0."""
    rng = random.Random(31)
    verdicts = set()
    for i in range(600):
        if i % 3 == 0:
            g = rand_multigraph(rng, 10, 8)
        elif i % 3 == 1:
            g = rand_graph(rng, rng.randint(2, 10), rng.randint(0, 8))
        else:
            g = rand_graph(rng, 7, 9)
        cross, nest = conflict_masks(g)
        active = [e for e in range(g.m) if rng.random() < 0.8]
        sub = OrderedGraph(g.n, tuple([g.edges[e] for e in active]), g.multi)
        for spec in SHORT_SPECS:
            fits, nodes = solver.mode_verdict([spec])(cross, nest, active, 0)
            page_of, _, hit = _solve_masks(cross, nest, active, spec, 10**6)
            assert nodes == 0 and not hit
            assert fits == (page_of is not None) == brute_force_fits(sub, spec), (g, active, spec)
            verdicts.add((str(spec), fits))
    assert len(verdicts) == 2 * len(SHORT_SPECS), sorted(verdicts)


def test_fits_matches_search_on_larger_graphs():
    """Two-page verdicts on 18-edge matchings and denser multigraphs, where
    the brute-force oracle would take too long; with active subsets that
    leave out up to half the edges."""
    rng = random.Random(32)
    fits_seen = set()
    for i in range(120):
        g = rand_matching(rng, 18) if i % 2 else rand_multigraph(rng, 14, 24)
        cross, nest = conflict_masks(g)
        keep = rng.choice([0.5, 0.8, 1.0])
        active = [e for e in range(g.m) if rng.random() < keep]
        for spec in SHORT_SPECS[3:]:
            fits, nodes = solver.mode_verdict([spec])(cross, nest, active, 0)
            page_of, _, hit = _solve_masks(cross, nest, active, spec, 10**8)
            assert nodes == 0 and not hit
            assert fits == (page_of is not None), (g, active, spec)
            fits_seen.add(fits)
    assert fits_seen == {True, False}


def test_fits_passes_longer_specs_to_the_search():
    """A mode of one spec of three or more pages is one search of the masks
    restricted to the active edges, on the whole budget."""
    rng = random.Random(33)
    for _ in range(200):
        g = rand_multigraph(rng, 10, 10)
        cross, nest = conflict_masks(g)
        active = [e for e in range(g.m) if rng.random() < 0.8]
        live = sum(1 << e for e in active)
        mine = [mask & live for mask in cross], [mask & live for mask in nest]
        spec = PageSpec(tuple(rng.choice(KINDS) for _ in range(rng.randint(3, 4))))
        for budget in (0, 5, 10**6):
            page_of, nodes, hit = _solve_masks(*mine, active, spec, budget)
            want = None if hit else page_of is not None
            assert solver.mode_verdict([spec])(cross, nest, active, budget) == (want, nodes)


PURE_SPECS = [PageSpec.split(s, q) for pages in (2, 3, 4) for s, q in ((pages, 0), (0, pages))]


def rand_separated(rng, max_side, max_m):
    """A separated multigraph: every left endpoint before every right one,
    edges drawn with replacement, so with parallel edges and shared
    endpoints. One in three also holds the longest twist its sides allow,
    and one in three the longest rainbow."""
    left, right = rng.randint(1, max_side), rng.randint(1, max_side)
    pairs = [(u, left + v) for u in range(left) for v in range(right)]
    edges = [rng.choice(pairs) for _ in range(rng.randint(0, max_m))]
    planted = rng.randrange(3)
    if planted:
        side = min(left, right)
        edges += [(i, left + (i if planted == 1 else right - 1 - i)) for i in range(side)]
    return build_graph(left + right, edges, multi=True)


def test_chain_verdicts_match_the_search_on_pure_specs():
    """Pure specs of two to four pages on separated masks, decided by the
    longest chain along ascending ids in 0 nodes and at a budget of 0:
    the search's verdict. The masks are the cell tables of every shape up
    to 4 x 4 with random active cells (the masks name inactive cells, as a
    level table's do), and those of random separated multigraphs by
    `conflict_masks`, with random active subsets."""
    rng = random.Random(35)
    inputs = []
    for rows in range(1, 5):
        for cols in range(1, 5):
            cross, nest = enumeration._cell_table(rows, cols)
            for _ in range(12):
                keep = rng.choice([0.3, 0.6, 0.9])
                inputs.append((cross, nest, [e for e in range(rows * cols) if rng.random() < keep]))
    for _ in range(400):
        cross, nest = conflict_masks(rand_separated(rng, 8, 12))
        keep = rng.choice([0.5, 0.8, 1.0])
        inputs.append((cross, nest, [e for e in range(len(cross)) if rng.random() < keep]))
    verdicts = set()
    for cross, nest, active in inputs:
        for spec in PURE_SPECS:
            fits, nodes = solver.mode_verdict([spec], separated=True)(cross, nest, active, 0)
            page_of, _, hit = _solve_masks(cross, nest, active, spec, 10**7)
            assert nodes == 0 and not hit
            assert fits == (page_of is not None), (cross, nest, active, spec)
            verdicts.add((str(spec), fits))
    assert len(verdicts) == 2 * len(PURE_SPECS), sorted(verdicts)


@pytest.mark.parametrize("pages", [1, 2, 3])
def test_pure_critical_separated_patterns_are_the_twist_and_the_rainbow(monkeypatch, pages):
    """On separated patterns the fewest stacks is the longest twist and the
    fewest queues the longest rainbow, so the only critical pattern of s
    stacks is the (s + 1)-twist and that of q queues the (q + 1)-rainbow,
    all found without a search."""

    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(solver, "_solve_masks", no_search)
    family = enumeration.EnumFamily("separated", 8, 4, 4)
    n = 2 * (pages + 1)
    twist = tuple((i, pages + 1 + i) for i in range(pages + 1))
    rainbow = tuple((i, n - 1 - i) for i in range(pages + 1))
    for mode, want in ((("sq", pages, 0), twist), (("sq", 0, pages), rainbow)):
        result = enumeration.find_critical(family, mode)
        assert [p.edges for p in result.patterns] == [want], mode


def searched(specs, separated=False):
    """A `solver.mode_verdict` whose kernel searches every spec in order:
    the reference for the verdicts decided without search. It ignores
    `separated`, so the chain verdicts are compared with the search too."""

    def fits(cross, nest, active, budget):
        total = 0
        for spec in specs:
            page_of, nodes, hit = _solve_masks(cross, nest, active, spec, budget)
            total += nodes
            if hit:
                return None, total
            if page_of is not None:
                return True, total
        return False, total

    return fits


SWEEP = [enumeration.EnumFamily("separated", *bounds) for bounds in (
    (3, 3, 3), (4, 3, 3), (4, 3, 4), (4, 4, 4), (4, 4, 5), (4, 5, 5),
    (5, 3, 3), (5, 3, 4), (5, 4, 4), (5, 4, 5), (6, 3, 3),
)] + [enumeration.EnumFamily("matchings", m) for m in (3, 4, 5)]


def test_find_critical_matches_the_search_on_the_sweep(monkeypatch):
    """The families of the benchmark's enumerate sweep (but its largest,
    5x5 with 5 edges), in all four of its modes, give the same patterns and
    `scanned` with every verdict searched."""
    modes = [("k", 1), ("sq", 1, 1), ("sq", 2, 0), ("sq", 0, 2)]
    got = {
        (family, mode): enumeration.find_critical(family, mode)
        for family in SWEEP for mode in modes
    }
    monkeypatch.setattr(solver, "mode_verdict", searched)
    found = 0
    for (family, mode), result in got.items():
        want = enumeration.find_critical(family, mode)
        assert (result.patterns, result.scanned) == (want.patterns, want.scanned), (family, mode)
        found += len(want.patterns)
    assert found > 100


def test_criticality_matches_the_search(monkeypatch):
    rng = random.Random(34)
    graphs = list(enumeration.enumerate_matchings_up_to(4))
    graphs += [rand_multigraph(rng, 9, 8) for _ in range(100)]
    graphs += [gen_2critical(r) for r in (2, 4, 6, 8)]
    modes = [("k", 1), ("k", 2), ("sq", 1, 1), ("sq", 2, 0), ("sq", 0, 2)]
    got = [solver.criticality(g, mode) for g in graphs for mode in modes]
    monkeypatch.setattr(solver, "mode_verdict", searched)
    want = [solver.criticality(g, mode) for g in graphs for mode in modes]
    assert [(v.critical, v.reason) for v in got] == [(v.critical, v.reason) for v in want]
    assert all(v.nodes == 0 for v in got)
    assert sum(v.critical for v in want) > 10


def criterion_09_cases():
    """The constructions of acceptance criterion 09, each at its mode."""
    return (
        [(gen_stack_critical(s, n), ("sq", s, 0)) for s, n in ((2, 5), (2, 7), (3, 7))]
        + [(gen_2critical(r), ("k", 2)) for r in range(2, 41, 2)]
        + [(gen_k_critical(3, r), ("k", 3)) for r in range(2, 21, 2)]
        + [(gen_k_critical(4), ("k", 4)), (gen_sq_critical(2, 1), ("sq", 2, 1))]
    )


def test_criticality_matches_the_ordered_loop():
    """`criticality` on the mode kernels, with a portfolio of splits for
    each deletion, against the ordered loop over `splits` it replaced
    (kept in criticality_oracle.py): the same `critical`, and the same
    `reason` where the verdict is not critical, so a graph that fits names
    the same split and one with an infeasible deletion the same edge. The
    inputs are the constructions of criterion 09, also at the next and the
    previous page count, and random graphs of up to 14 edges at k = 3 and
    4: multigraphs, matchings, a 3-critical graph with edges added and a
    4-critical graph with edges taken out."""
    rng = random.Random(36)
    cases = criterion_09_cases()
    cases += [(g, (mode[0], mode[1] + step, *mode[2:])) for g, mode in cases[-12:]
              for step in (-1, 1)]
    k3, k4 = gen_k_critical(3), gen_k_critical(4)
    pairs = [(u, v) for u in range(k3.n) for v in range(u + 1, k3.n)]
    for i in range(120):
        if i % 4 == 0:
            g = rand_multigraph(rng, 9, 14)
        elif i % 4 == 1:
            g = rand_matching(rng, rng.randint(6, 14))
        elif i % 4 == 2:
            g = build_graph(k3.n, list(k3.edges) + rng.sample(pairs, rng.randint(1, 3)), True)
        else:
            g = build_graph(k4.n, rng.sample(k4.edges, 14))
        cases += [(g, ("k", 3)), (g, ("k", 4))]
    reasons = set()
    for g, mode in cases:
        got, want = solver.criticality(g, mode), criticality_oracle.criticality(g, mode)
        assert (got.critical, got.reason) == (want.critical, want.reason), (g, mode)
        reasons.add(want.reason.split()[0])
    assert reasons == {"critical", "feasible", "deleting"}


def test_mode_kernels_match_the_ordered_loop():
    """Each kernel of `solver.mode_verdict`, at every mode of up to four
    pages, against any() of the old one-spec `_fits` over the mode's specs,
    on random masks and active subsets, separated ones included. A verdict
    within the budget is the loop's; past it the answer is None, after at
    most budget + 1 nodes; specs of at most two pages count 0 nodes."""
    rng = random.Random(37)
    modes = [("k", k) for k in range(5)] + [("sq", s, q) for s in range(5) for q in range(5 - s)]
    inputs = []
    for i in range(160):
        if i % 2:
            g = rand_separated(rng, 6, 12 if i % 4 == 1 else 30)
        else:
            g = rand_multigraph(rng, 9, 12) if i % 4 else rand_matching(rng, rng.randint(2, 9))
        cross, nest = conflict_masks(g)
        active = [e for e in range(g.m) if rng.random() < 0.8]
        inputs.append((cross, nest, active, i % 2 == 1))
    for g in (gen_k_critical(3), gen_k_critical(4), gen_thick_twist(3, 3), gen_thick_rainbow(3, 3)):
        cross, nest = conflict_masks(g)
        for drop in range(4):
            inputs.append((cross, nest, sorted(rng.sample(range(g.m), g.m - drop)), False))
    verdicts = set()
    for cross, nest, active, separated in inputs:
        for mode in modes:
            specs = solver.mode_specs(mode)
            want = any(criticality_oracle._fits(cross, nest, active, spec, 10**7)[0]
                       for spec in specs)
            for flag in {False, separated}:
                fits = solver.mode_verdict(specs, flag)
                for budget in (0, 40, 10**7):
                    got, nodes = fits(cross, nest, active, budget)
                    if len(specs[0]) <= 2:
                        assert (got, nodes) == (want, 0), (mode, active)
                    elif got is None:
                        assert nodes == budget + 1, (mode, active, budget)
                    else:
                        assert got == want and nodes <= budget, (mode, active, budget)
                    verdicts.add((mode, got))
    assert {got for _, got in verdicts} == {True, False, None}
    assert all((mode, want) in verdicts for mode in modes[1:] for want in (True, False))


def test_clique_matches_recursive_oracle():
    rng = random.Random(13)
    for _ in range(600):
        g = rand_multigraph(rng, 12, 16)
        cross, nest = conflict_masks(g)
        for masks in (cross, nest, [c | q for c, q in zip(cross, nest)]):
            budget = rng.choice([1, 2, 3, 10, 10**6])
            assert outcome(_max_clique, masks, budget) == outcome(
                recursive_oracle._max_clique, masks, budget
            )


def test_clique_matches_oracle_on_random_dense_graphs():
    rng = random.Random(14)
    for _ in range(60):
        m = rng.randint(1, 40)
        masks = [0] * m
        density = rng.random()
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < density:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        assert _max_clique(masks, 10**6) == recursive_oracle._max_clique(masks, 10**6)


def pairwise_scan(g, a):
    out = []
    for p, members in enumerate(a.pages()):
        kind = a.spec.kinds[p]
        bad = Relation.CROSS if kind is PageKind.STACK else Relation.NEST
        for i, e1 in enumerate(members):
            for e2 in members[i + 1:]:
                if classify_pair(g, e1, e2).kind is bad:
                    out.append(Violation(p, kind, e1, e2))
    return out


def test_validation_matches_pairwise_scan():
    rng = random.Random(15)
    invalid = 0
    for _ in range(4000):
        g = rand_multigraph(rng, 9, 11)
        spec = PageSpec(tuple(rng.choice(KINDS) for _ in range(rng.randint(1, 3))))
        a = PageAssignment(spec, tuple(rng.randrange(len(spec)) for _ in range(g.m)))
        want = pairwise_scan(g, a)
        assert validate_assignment(g, a) == want
        invalid += bool(want)
    assert 500 < invalid < 3500



def valid_page(rng, m, stack):
    """A perfect matching on 2m vertices that is one valid page: closing
    the open edges last-in first-out gives no crossing, first-in first-out
    no nesting."""
    edges, open_, todo = [], [], m
    for v in range(2 * m):
        if todo and (not open_ or rng.random() < 0.5):
            open_.append(v)
            todo -= 1
        else:
            edges.append((open_.pop() if stack else open_.pop(0), v))
    return edges


def perturbed_page(rng, m, stack, swaps, merges):
    """A valid page with the right endpoints of `swaps` neighbouring edges
    (in left-endpoint order) exchanged, then `merges` random pairs of
    neighbouring vertices identified.  Identifying neighbours keeps every
    strict order between distinct vertices, so it adds no conflict; it makes
    shared endpoints and parallel edges, and a loop it makes is dropped."""
    edges = sorted(valid_page(rng, m, stack))
    for _ in range(swaps):
        k = rng.randrange(len(edges) - 1)
        (a, b), (c, d) = edges[k], edges[k + 1]
        edges[k], edges[k + 1] = (a, d), (min(b, c), max(b, c))
    n = 2 * m
    for _ in range(merges):
        w = rng.randrange(1, n)
        edges = [(u - (u >= w), v - (v >= w)) for u, v in edges]
        n -= 1
    return build_graph(n, [(u, v) for u, v in edges if u != v], multi=True)


def test_validation_matches_pairwise_scan_on_large_pages():
    rng = random.Random(21)
    counts = []
    for case in range(32):
        stack = case % 2 == 0
        g = perturbed_page(
            rng, rng.randint(100, 400), stack, rng.choice([0, 1, 3, 10, 30]), rng.randint(0, 150)
        )
        a = PageAssignment(PageSpec((KINDS[not stack],)), (0,) * g.m)
        want = pairwise_scan(g, a)
        assert validate_assignment(g, a) == want
        counts.append(len(want))
    assert min(counts) == 0 and 0 < max(counts) <= 60


def test_validation_matches_pairwise_scan_on_mixed_pages_of_multigraphs():
    rng = random.Random(22)
    for _ in range(300):
        g = rand_multigraph(rng, 30, 60)
        spec = rand_spec(rng, 3) or PageSpec((PageKind.STACK,))
        a = PageAssignment(spec, tuple(rng.randrange(len(spec)) for _ in range(g.m)))
        assert validate_assignment(g, a) == pairwise_scan(g, a)


def test_large_invalid_page_is_listed_without_classify_pair(monkeypatch):
    # 1,000 blocks of four vertices: a nested pair in each, a crossing pair
    # in three.  Listing the violations must not fall back to pair scans.
    crossing_blocks = {3, 500, 997}
    edges = []
    for i in range(1000):
        b = 4 * i
        edges += [(b, b + 2), (b + 1, b + 3)] if i in crossing_blocks else [(b, b + 3), (b + 1, b + 2)]
    g = build_graph(4000, edges)
    def no_pair_scan(*args):
        raise AssertionError("classify_pair was called")

    monkeypatch.setattr(core, "classify_pair", no_pair_scan)
    a = PageAssignment(PageSpec((PageKind.STACK,)), (0,) * g.m)
    assert validate_assignment(g, a) == [
        Violation(0, PageKind.STACK, 2 * i, 2 * i + 1) for i in sorted(crossing_blocks)
    ]
    queue = PageAssignment(PageSpec((PageKind.QUEUE,)), (0,) * g.m)
    assert len(validate_assignment(g, queue)) == 1000 - len(crossing_blocks)
    disjoint = build_graph(10000, [(2 * i, 2 * i + 1) for i in range(5000)])
    res = solver.feasible(disjoint, PageSpec((PageKind.STACK,)))
    assert res.feasible and res.nodes == 5001


def test_conflict_masks_match_all_pairs_loop():
    rng = random.Random(23)
    graphs = [rand_multigraph(rng, 12, 30) for _ in range(1500)]
    graphs += [rand_graph(rng, rng.randint(2, 40), rng.randint(0, 120)) for _ in range(300)]
    graphs += [rand_matching(rng, rng.randint(0, 60)) for _ in range(200)]
    graphs += [perturbed_page(rng, 60, rng.random() < 0.5, 5, 30) for _ in range(50)]
    for g in graphs:
        assert conflict_masks(g) == pair_scan_oracle.conflict_masks(g)


def test_largest_rainbow_matches_the_dp():
    rng = random.Random(24)
    graphs = [rand_multigraph(rng, 10, 20) for _ in range(800)]
    graphs += [rand_graph(rng, rng.randint(2, 60), rng.randint(0, 300)) for _ in range(150)]
    graphs += [rand_matching(rng, rng.randint(0, 150)) for _ in range(150)]
    graphs += [perturbed_page(rng, 150, False, 20, 40) for _ in range(20)]
    for g in graphs:
        got = largest_rainbow(g)
        assert got.k == pair_scan_oracle.largest_rainbow(g).k
        assert witness_violations(g, got) == []


def test_diamond_matrix_matches_the_four_pass_code():
    rng = random.Random(25)
    grids = [gen_diamond(k) for k in range(1, 9)]
    grids += [GridMatching(tuple(range(1, 13))), GridMatching(tuple(range(12, 0, -1)))]
    grids += [rand_grid(rng, rng.randint(1, 30)) for _ in range(80)]
    nonextremal = 0
    for grid in grids:
        assert greene.diamond_matrix(grid) == pair_scan_oracle.diamond_matrix(grid)
        nonextremal += greene.lis_length(grid.pi) * greene.lds_length(grid.pi) != grid.m
    assert nonextremal > 60


def test_exact_diamond_search_on_a_stack_matches_the_recursive_search():
    """The same matrix or None, and SizeLimitError at the same budgets, on
    random grids for sides 0 to 4."""
    rng = random.Random(26)
    seen = set()
    for _ in range(300):
        grid = rand_grid(rng, rng.randint(0, 14))
        for k in range(5):
            for budget in (0, 1, 4, 20, 100, 10**6):
                got = outcome(_exact_diamond_matrix, grid, k, budget)
                want = outcome(recursive_oracle._exact_diamond_matrix, grid, k, budget)
                assert got == want, (grid, k, budget)
                seen.add("size limit" if got == "size limit" else got is None)
    assert seen == {"size limit", True, False}


def test_exact_diamond_search_needs_no_recursion():
    """A side of 32 is 1,025 cells deep, past the recursion limit of the
    recursive search."""
    grid = gen_diamond(32)
    matrix = _exact_diamond_matrix(grid, 32, patterns.DEFAULT_SEARCH_BUDGET)
    assert len(matrix) == 32
    witness = patterns.PatternWitness.of(PatternKind.DIAMOND, 32, 32, matrix)
    assert witness_violations(grid, witness) == []


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_alternating_subdivision_matches_the_recursive_build(k):
    assert gen_alternating_subdivision(k) == recursive_oracle.alternating_subdivision(k)
    assert gen_alternating_subdivision(k).m == k**4


def test_quadrant_split_matches_the_closure_code():
    """Four rounds of the subdivision of thick_from_diamond, on diamonds and
    on the diamond matrices of random grids: the same leaves, and the same
    refusals where no opposite pair holds a quarter of the points."""
    rng = random.Random(26)
    grids = [gen_diamond(side) for side in (2, 3, 5, 8, 16, 33)]
    grids += [rand_grid(rng, m) for m in (10, 30, 60, 100, 200) for _ in range(4)]
    splits = refusals = 0
    for grid in grids:
        leaves = [greene.diamond_matrix(grid)]
        for _ in range(4):
            children = []
            for leaf in leaves:
                try:
                    want = quadrant_oracle._quadrant_split(grid, leaf)
                except InsufficientInputError:
                    with pytest.raises(InsufficientInputError):
                        patterns._quadrant_split(grid.pi, leaf)
                    refusals += 1
                    continue
                assert patterns._quadrant_split(grid.pi, leaf) == want
                splits += 1
                children += [child for child in want if child]
            leaves = children
    assert splits > 60 and refusals > 40


def test_lis_walk_matches_the_parent_links():
    """The chain walked back over the shared LIS levels is the chain of the
    patience sort's parent links, also with tied y values."""
    rng = random.Random(27)
    for _ in range(20000):
        n = rng.randint(0, 30)
        top = rng.choice((3, n, 3 * n)) or 1
        points = [(x, rng.randint(1, top)) for x in range(1, n + 1)]
        values = [y for _, y in points]
        assert patterns._lis_indices(values) == kernel_oracle._lis_indices(points)


def test_levels_over_values_match_the_points_kernel():
    """The LIS levels of a sequence of values are those the points-based
    kernel gave for the points (x, value), also with repeated and negative
    values, and an empty sequence has none."""
    rng = random.Random(29)
    for _ in range(5000):
        n = rng.randint(0, 40)
        top = rng.choice((1, 3, n + 1, 3 * n + 1))
        values = [rng.randint(-top, top) for _ in range(n)]
        points = list(enumerate(values, 1))
        assert core.increasing_levels(values) == kernel_oracle.increasing_levels(points)
        assert core.increasing_levels(tuple(values)) == core.increasing_levels(values)


def _thick_or_error(thick, grid, k):
    """The witness `thick(grid, k)` returns, or the type and message of the
    MixedPagesError it raises."""
    try:
        return thick(grid, k)
    except MixedPagesError as exc:
        return type(exc), str(exc)


def test_thick_from_diamond_matches_the_points_path():
    """The same witness, or the same error with the same message, as the
    points-based subdivision: on diamonds of side 1 to 40 at k = 1 to 4
    (the extremal route, no flow), and on random grids of up to 120 edges at
    k = 1 to 3 (the flow route, and the empty matching)."""
    cases = [(gen_diamond(side), k) for side in range(1, 41) for k in range(1, 5)]
    rng = random.Random(30)
    grids = [rand_grid(rng, m) for m in (0, 1, 2, 5, 9, 17, 30, 48, 64, 80, 100, 120)]
    grids += [rand_grid(rng, rng.randint(3, 120)) for _ in range(12)]
    cases += [(grid, k) for grid in grids for k in range(1, 4)]
    outcomes = {"witness": 0, "refused": 0}
    for grid, k in cases:
        got = _thick_or_error(patterns.thick_from_diamond, grid, k)
        assert got == _thick_or_error(subdivision_oracle.thick_from_diamond, grid, k), (grid, k)
        if isinstance(got, patterns.PatternWitness):
            assert witness_violations(grid, got) == []
            outcomes["witness"] += 1
        else:
            assert got[0] is InsufficientInputError
            outcomes["refused"] += 1
    assert min(outcomes.values()) > 20, outcomes


def test_thick_search_matches_the_recursive_clique():
    """The same largest k as the recursive clique search over the groups,
    with a witness of k groups of t edges that passes its re-check."""
    rng = random.Random(28)
    graphs = [rand_graph(rng, rng.randint(2, 10), rng.randint(0, 14)) for _ in range(150)]
    graphs += [rand_matching(rng, rng.randint(0, 14)) for _ in range(150)]
    found = 0
    for g in graphs:
        for t in (1, 2, 3):
            for kind in (PatternKind.THICK_TWIST, PatternKind.THICK_RAINBOW):
                got = patterns.largest_thick_of_kind(g, t, kind)
                assert got.k == kernel_oracle.largest_thick_of_kind(g, t, kind).k
                assert (got.kind, got.t, len(got.groups)) == (kind, t, got.k)
                assert all(len(group) == t for group in got.groups)
                assert witness_violations(g, got) == []
                found += got.k >= 2
    assert found > 300


def thick_or_limit(fn, g, t, kind, budget):
    try:
        return "ok", fn(g, t, kind, budget)
    except SizeLimitError as exc:
        return "size limit", str(exc)


def least_budget(fn, g, t, kind):
    """The smallest budget at which the search answers: its node count."""
    low, high = 0, 1
    while thick_or_limit(fn, g, t, kind, high)[0] == "size limit":
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if thick_or_limit(fn, g, t, kind, mid)[0] == "size limit":
            low = mid
        else:
            high = mid
    return high


def test_thick_groups_on_a_stack_match_the_recursive_grow():
    """The group enumeration on an explicit stack gives the recursive one's
    whole witness, counts the same nodes, and raises the same error at
    every small budget."""
    rng = random.Random(30)
    graphs = [rand_graph(rng, rng.randint(2, 10), rng.randint(0, 14)) for _ in range(60)]
    graphs += [rand_matching(rng, rng.randint(0, 14)) for _ in range(60)]
    old, new = kernel_oracle.thick_with_recursive_grow, patterns.largest_thick_of_kind
    outcomes = set()
    for g in graphs:
        for t in (1, 2, 3):
            for kind in (PatternKind.THICK_TWIST, PatternKind.THICK_RAINBOW):
                for budget in (0, 1, 3, 10, 30, 100, 300, patterns.DEFAULT_SEARCH_BUDGET):
                    want = thick_or_limit(old, g, t, kind, budget)
                    assert thick_or_limit(new, g, t, kind, budget) == want
                    outcomes.add(want[1].split(" exceeded")[0] if want[0] == "size limit" else "k")
                assert least_budget(new, g, t, kind) == least_budget(old, g, t, kind)
    assert outcomes == {"k", "thick group enumeration", "thick clique search"}


def rand_grid(rng, m):
    pi = list(range(1, m + 1))
    rng.shuffle(pi)
    return GridMatching(tuple(pi))


def test_max_family_matches_networkx_oracle():
    pytest.importorskip("networkx")
    import flow_oracle

    rng = random.Random(16)
    grids = [rand_grid(rng, m) for m in range(41)]
    # Many ties between equally good flows: one chain, one antichain, blocks.
    grids += [
        GridMatching(tuple(range(1, 21))),
        GridMatching(tuple(range(20, 0, -1))),
        gen_diamond(4),
        gen_tight_2k(2),
    ]
    for grid in grids:
        for kind in FamilyKind:
            for k in range(1, grid.m + 2):
                assert max_family(grid, kind, k) == flow_oracle.max_family(grid, kind, k)


def test_max_family_matches_networkx_oracle_at_m200():
    pytest.importorskip("networkx")
    import flow_oracle

    rng = random.Random(17)
    for _ in range(3):
        grid = rand_grid(rng, 200)
        square = ferrers(grid).square
        for kind in FamilyKind:
            for k in (1, square, 2 * square):
                assert max_family(grid, kind, k) == flow_oracle.max_family(grid, kind, k)


class Expired(Exception):
    pass


@contextmanager
def time_limit(seconds):
    """Fail rather than hang: pivots that repeat forever are a defect too.

    The failure is raised outside the handler, without the traceback of
    the interrupted frame, which pytest cannot always render."""

    def expire(signum, frame):
        raise Expired

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    expired = False
    try:
        yield
    except Expired:
        expired = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        pytest.fail(f"no result within {seconds} s", pytrace=False)


def test_network_simplex_matches_oracle_on_max_family_networks(monkeypatch):
    """Every network max_family builds, m from 1 to 200, both kinds, k from
    1 to the square + 2: the same (cost, flow), so the same family."""
    real = greene._network_simplex
    checked = []

    def both(*network):
        with time_limit(30):
            got = real(*network)
        assert got == simplex_oracle._network_simplex(*network)
        checked.append(network)
        return got

    monkeypatch.setattr(greene, "_network_simplex", both)
    rng = random.Random(18)
    for m in [*range(1, 61), 80, 120, 200]:
        grid = rand_grid(rng, m)
        square = ferrers(grid).square
        for kind in FamilyKind:
            for k in range(1, square + 3):
                max_family(grid, kind, k)
    assert len(checked) > 700


def rand_network(rng):
    """Parallel edges, capacities from 1 to large, negative weights and
    nodes of zero demand; about one in ten has demands that do not sum to
    0, and many more cannot be routed."""
    n = rng.randint(1, 9)
    sources = [rng.randrange(n) for _ in range(rng.randint(0, 25))] if n > 1 else []
    targets = [(u + rng.randrange(1, n)) % n for u in sources]
    capacity = [rng.choice((1, 2, 3, 5, 10**6)) for _ in sources]
    weight = [rng.choice((rng.randint(-9, 9), -(10**5), 10**5)) for _ in sources]
    demand = [0] * n
    for _ in range(rng.randint(0, 4)):
        u, v = rng.randrange(n), rng.randrange(n)
        units = rng.randint(1, 4)
        demand[u] -= units
        demand[v] += units
    if rng.random() < 0.1:
        demand[rng.randrange(n)] += 1
    return demand, sources, targets, capacity, weight


def test_network_simplex_matches_oracle_on_random_networks():
    rng = random.Random(19)
    outcomes = {"flow": 0, "infeasible": 0}
    for _ in range(3000):
        network = rand_network(rng)
        try:
            want = simplex_oracle._network_simplex(*network)
        except InternalError as exc:
            with time_limit(30), pytest.raises(InternalError) as got:
                greene._network_simplex(*network)
            assert str(got.value) == str(exc)
            outcomes["infeasible"] += 1
        else:
            with time_limit(30):
                assert greene._network_simplex(*network) == want
            outcomes["flow"] += 1
    assert min(outcomes.values()) > 300


MODES = [("k", 1), ("sq", 1, 1), ("sq", 2, 0), ("sq", 0, 2), ("k", 2)]
FAMILIES = [
    enumeration.EnumFamily("separated", 6, 4, 4),
    enumeration.EnumFamily("separated", 6, 2, 4),
    enumeration.EnumFamily("separated", 5, 4, 3),
    enumeration.EnumFamily("matchings", 5),
]


def test_separated_stream_matches_combinations_oracle():
    for rows in range(1, 6):
        for cols in range(1, 6):
            assert list(enumeration.enumerate_separated(rows, cols, 6)) == list(
                critical_oracle.enumerate_separated(rows, cols, 6)
            ), (rows, cols)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_find_critical_matches_per_candidate_oracle(family):
    for mode in MODES:
        want = critical_oracle.find_critical(family, mode)
        got = enumeration.find_critical(family, mode)
        assert got.patterns == want.patterns, mode
        assert got.scanned == want.scanned, mode


@pytest.mark.parametrize("mode", [("k", 1), ("sq", 3, 0)], ids=str)
def test_level_tables_give_each_candidate_its_own_masks(monkeypatch, mode):
    """Every candidate of every level, all solved (no level lookup-first),
    reaches its level's verdict kernel with ascending ids into the level's
    conflict table, and the kernel of a separated family is told so; the
    table's masks at those ids, restricted to them and indexed by edge
    position, are the pair scan's `core._conflict_masks`. Searched specs
    (three pages, not separated) are searched on masks that name no other
    id; the pure specs of separated families are decided by the chain
    test, which needs no restriction, and k=1 is never searched."""
    monkeypatch.setattr(enumeration, "LOOKUP_FIRST_SHARE", 2.0)
    real_decide, real_verdict, real_search = (
        enumeration._decide, solver.mode_verdict, solver._solve_masks)
    calls, searches = [], []

    def decide(edges, *args):
        calls.append([edges])
        return real_decide(edges, *args)

    def verdict(specs, separated=False):
        fits = real_verdict(specs, separated)

        def recorded(cross, nest, active, budget):
            calls[-1] += [cross, nest, list(active), separated]
            return fits(cross, nest, active, budget)

        return recorded

    def search(cross, nest, active, spec, budget):
        searches.append((cross, nest, list(active)))
        return real_search(cross, nest, active, spec, budget)

    monkeypatch.setattr(enumeration, "_decide", decide)
    monkeypatch.setattr(solver, "mode_verdict", verdict)
    monkeypatch.setattr(solver, "_solve_masks", search)
    families = [enumeration.EnumFamily("separated", 5, 5, 5),
                enumeration.EnumFamily("separated", 6, 3, 3),
                enumeration.EnumFamily("matchings", 6)]
    scanned = sum(enumeration.find_critical(family, mode).scanned for family in families)
    assert len(calls) == scanned > 13000
    assert {call[4] for call in calls} == {False, True}
    for edges, cross, nest, ids, separated in calls:
        assert all(a < b for a, b in zip(ids, ids[1:])), edges

        def by_position(mask):
            return sum(1 << i for i, e in enumerate(ids) if mask >> e & 1)

        got = [by_position(cross[e]) for e in ids], [by_position(nest[e]) for e in ids]
        assert got == core._conflict_masks(edges), edges
    searched_calls = [call for call in calls if mode[0] == "sq" and not call[4]]
    assert len(searches) == len(searched_calls)
    for cross, nest, active in searches:
        live = sum(1 << e for e in active)
        assert not any((cross[e] | nest[e]) & ~live for e in active), active


def test_conflict_tables_match_the_pair_scan_on_every_two_edges():
    """Each two entries of a level's table relate as the pair scan relates
    their two edges, also where they share an endpoint, which no matching
    and no separated pattern has twice."""
    def check(family, m, edges):
        cross, nest = family.conflict_table(m)
        ids = stream_oracle.table_ids(family, m, edges)
        assert sorted(ids) == ids == list(dict.fromkeys(ids))
        for i, (p, e) in enumerate(zip(edges, ids)):
            for q, f in zip(edges[i + 1:], ids[i + 1:]):
                (cross_pq, _), (nest_pq, _) = core._conflict_masks((p, q))
                want = (cross_pq >> 1, nest_pq >> 1)
                assert (cross[e] >> f & 1, nest[e] >> f & 1) == want, (p, q)
                assert (cross[f] >> e & 1, nest[f] >> e & 1) == want, (p, q)

    for m in range(1, 5):
        points = range(2 * m)
        check(enumeration.EnumFamily("matchings", m), m, [(a, b) for a in points for b in points if a < b])
    family = enumeration.EnumFamily("separated", 4, 4, 4)
    for rows in range(1, 5):
        for cols in range(1, 5):
            check(family, 4, [(r, rows + c) for r in range(rows) for c in range(cols)])


def assert_same_stream(family, m, got, want) -> int:
    """`got` yields the edge tuples of `want` in the same order, each with
    the ids of its edges in `family.conflict_table(m)` that the old mapping
    of `_decide` gives (looked up per row count, which sets its shift).
    Returns the number of candidates."""
    ids_of = {}
    count = 0
    for (edges, ids), old in zip(got, want, strict=True):
        assert edges == old
        rows = edges[-1][0] + 1 if family.shape == "separated" else 0
        if rows not in ids_of:
            # Every edge a level-m candidate with this many rows can have.
            if family.shape == "separated":
                every = [(r, rows + c) for r in range(rows) for c in range(min(family.max_cols, m))]
            else:
                every = [(a, b) for a in range(2 * m) for b in range(a + 1, 2 * m)]
            ids_of[rows] = dict(zip(every, stream_oracle.table_ids(family, m, every)))
        assert ids == tuple(map(ids_of[rows].__getitem__, edges)), edges
        count += 1
    return count


def test_stream_matches_the_old_walks_on_every_small_shape():
    """The levels of every shape up to 5 x 5 with at most 9 edges and of
    every matching with at most 6 edges are the old stream's, with the ids
    the old mapping gives; also where the family's bounds make the table
    narrower or wider than the level's shapes."""
    for bounds in ((9, 5, 5), (7, 5, 3), (7, 3, 5)):
        family = enumeration.EnumFamily("separated", *bounds)
        count = sum(
            assert_same_stream(family, m, family.level(m), stream_oracle.level(family, m))
            for m in range(1, family.max_edges + 1)
        )
        assert count > 5000
    family = enumeration.EnumFamily("matchings", 6)
    for m in range(1, 7):
        assert assert_same_stream(family, m, family.level(m), stream_oracle.level(family, m)) == (
            math.prod(range(1, 2 * m, 2))
        )
    assert list(enumeration._matching_level(0)) == [((), ())]


def test_full_matrices_match_the_old_walk_on_wide_shapes():
    """Single shapes with one or two rows or columns, in tables as wide as
    they are or wider: every level of a 30-cell line, and the first and
    last levels of a 2 x 12 and a 12 x 2 matrix (the middle ones are
    large). Levels that admit no full matrix yield nothing."""
    for rows, cols, levels in (
        (1, 30, range(1, 32)),
        (30, 1, range(1, 32)),
        (2, 12, [*range(1, 14), 23, 24, 25]),
        (12, 2, [*range(1, 14), 23, 24, 25]),
    ):
        for width in (cols, cols + 3):
            family = enumeration.EnumFamily("separated", 40, rows, width)
            for m in levels:
                got = enumeration._full_matrices(rows, cols, m, width)
                want = stream_oracle._full_matrices(rows, cols, m)
                # At a level of at least `width` edges the table is that wide.
                found = assert_same_stream(family, max(m, width), got, want)
                assert (found > 0) == (max(rows, cols) <= m <= rows * cols)


@pytest.mark.parametrize("family", [FAMILIES[1], FAMILIES[3]], ids=str)
def test_sharded_find_critical_matches_oracle(family):
    for mode in MODES:
        want = critical_oracle.find_critical(family, mode)
        got = enumeration.find_critical(family, mode, jobs=2)
        assert got.patterns == want.patterns, mode
        assert got.scanned == want.scanned, mode


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("resume_jobs", [1, 2])
def test_resume_after_level_three(tmp_path, monkeypatch, resume_jobs):
    family = enumeration.EnumFamily("separated", 6, 4, 4)
    path = str(tmp_path / "check.json")
    real = enumeration._write_checkpoint

    def stop_after_level_three(path, family, result, level, *table):
        real(path, family, result, level, *table)
        if level == 3:
            raise Interrupted

    monkeypatch.setattr(enumeration, "_write_checkpoint", stop_after_level_three)
    with pytest.raises(Interrupted):
        enumeration.find_critical(family, ("k", 1), checkpoint=path)
    monkeypatch.setattr(enumeration, "_write_checkpoint", real)
    with open(path) as fh:
        stopped = json.load(fh)
    assert stopped["level"]["edges"] == 3
    assert stopped["level"]["infeasible"]  # resuming without them would go wrong
    decided = []
    real_decide = enumeration._decide

    def counted(edges, *args):
        decided.append(len(edges))
        return real_decide(edges, *args)

    if resume_jobs == 1:
        monkeypatch.setattr(enumeration, "_decide", counted)
    resumed = enumeration.find_critical(family, ("k", 1), checkpoint=path, jobs=resume_jobs)
    monkeypatch.setattr(enumeration, "_decide", real_decide)
    whole = enumeration.find_critical(family, ("k", 1))
    assert resumed.patterns == whole.patterns
    assert resumed.scanned == whole.scanned
    if resume_jobs == 1:
        assert min(decided) == 4
        assert len(decided) == whole.scanned - stopped["manifest"]["scanned"]


def test_containment_on_a_stack_matches_the_recursive_search():
    """`contains_pattern` on an explicit stack answers as the recursive
    search it replaced, on random hosts with patterns cut out of them (with
    a vertex moved or an edge added half of the time) and random patterns."""
    rng = random.Random(41)
    answers = []
    for i in range(3000):
        if i % 2:
            host = rand_multigraph(rng, 10, 12)
        else:
            host = rand_graph(rng, rng.randint(0, 10), rng.randint(0, 14))
        if i % 3 and host.m:
            edges = rng.sample(host.edges, rng.randint(1, min(host.m, 6)))
            pattern = canonicalize_pattern(OrderedGraph(host.n, tuple(sorted(edges)), host.multi))
            if rng.random() < 0.5:
                pairs = [(u, v) for u in range(pattern.n + 1) for v in range(u + 1, pattern.n + 1)]
                pattern = build_graph(pattern.n + 1, [*pattern.edges, rng.choice(pairs)], multi=True)
        else:
            pattern = rand_graph(rng, rng.randint(0, 7), rng.randint(0, 6))
        want = recursive_oracle.contains_pattern(host, pattern)
        assert enumeration.contains_pattern(host, pattern) == want, (host, pattern)
        answers.append(want)
    assert 1000 < sum(answers) < 2000


def test_containment_of_a_large_pattern_needs_no_recursion():
    """600 disjoint edges contain themselves; the recursive search took one
    frame per vertex and raised RecursionError here."""
    g = build_graph(1200, [(2 * i, 2 * i + 1) for i in range(600)])
    assert enumeration.contains_pattern(g, g)
    assert not enumeration.contains_pattern(g, build_graph(1200, [(0, 2), *g.edges[2:]]))
    with pytest.raises(RecursionError):
        recursive_oracle.contains_pattern(g, g)


def recorded_choices(monkeypatch) -> list:
    """The lookup-first choice of every shard `find_critical` runs in-process."""
    choices = []
    real = enumeration._level_shard

    def recorded(args, report=None):
        choices.append(args[-1])
        return real(args, report)

    monkeypatch.setattr(enumeration, "_level_shard", recorded)
    return choices


@pytest.mark.parametrize("share", [0.0, 2.0])
def test_lookup_first_and_solve_first_match_the_oracle(monkeypatch, share):
    """Every level from the second lookup-first (share 0) or every level
    solve-first (share 2) gives the patterns and `scanned` of the
    per-candidate oracle, also in modes of three pages, whose candidates
    are searched."""
    monkeypatch.setattr(enumeration, "LOOKUP_FIRST_SHARE", share)
    choices = recorded_choices(monkeypatch)
    modes = MODES + [("sq", 3, 0), ("sq", 0, 3)]
    found = 0
    for family in FAMILIES:
        for mode in modes:
            want = critical_oracle.find_critical(family, mode)
            got = enumeration.find_critical(family, mode)
            assert (got.patterns, got.scanned) == (want.patterns, want.scanned), (family, mode)
            found += len(want.patterns)
    assert found == 64
    assert any(choices) == (share == 0.0) and not all(choices)


def test_checkpoint_keeps_the_level_choice(tmp_path, monkeypatch):
    """A checkpoint records the level's candidate count, so a resumed run
    makes the choice the whole run made; without the count it resumes
    solve-first. Both give the whole run's result."""
    family = enumeration.EnumFamily("separated", 6, 4, 4)
    path = tmp_path / "check.json"
    real = enumeration._write_checkpoint

    def stop_after_level_five(path, family, result, level, *table):
        real(path, family, result, level, *table)
        if level == 5:
            raise Interrupted

    choices = recorded_choices(monkeypatch)
    whole = enumeration.find_critical(family, ("k", 1))
    assert choices == [False] * 4 + [True] * 2  # level 4 is 73% infeasible
    monkeypatch.setattr(enumeration, "_write_checkpoint", stop_after_level_five)
    with pytest.raises(Interrupted):
        enumeration.find_critical(family, ("k", 1), checkpoint=str(path))
    monkeypatch.setattr(enumeration, "_write_checkpoint", real)
    stopped = json.loads(path.read_text())
    assert stopped["level"]["candidates"] == sum(1 for _ in family.level(5))
    for size, choice in ((stopped["level"]["candidates"], True), (None, False)):
        if size is None:
            del stopped["level"]["candidates"]
        path.write_text(json.dumps(stopped))
        choices.clear()
        resumed = enumeration.find_critical(family, ("k", 1), checkpoint=str(path))
        assert choices == [choice]
        assert (resumed.patterns, resumed.scanned) == (whole.patterns, whole.scanned)


def test_clique_of_size_matches_recursive_oracle():
    rng = random.Random(18)
    for _ in range(2500):
        m = rng.randint(0, 16)
        masks = [0] * m
        density = rng.random()
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < density:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        size = rng.randint(0, m + 1)
        budget = rng.randint(0, 200)
        assert outcome(_clique_of_size, masks, size, budget) == outcome(
            recursive_oracle._clique_of_size, masks, size, budget
        ), (masks, size, budget)


def test_nesting_depths_match_quadratic_dp():
    rng = random.Random(19)
    for _ in range(800):
        g = rand_multigraph(rng, 12, 18)
        assert solver.queue_layout(g) == quotient_oracle.queue_layout(g)
        ids = [e for e in range(g.m) if rng.random() < 0.7]
        assert quotient.queue_cover(g, ids) == quotient_oracle.queue_cover(g, ids)


def raised(fn, *args):
    """The result, or the type, message and witness of a package error."""
    try:
        return "ok", fn(*args)
    except MixedPagesError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


def partition_inputs(seed, count, max_m):
    """Random matchings with their multi quotients at k = 1, 2, 3: the
    quotients have parallel edges and several edges ending at one vertex."""
    rng = random.Random(seed)
    for _ in range(count):
        g = rand_matching(rng, rng.randint(0, max_m))
        yield g
        for k in (1, 2, 3):
            part, _ = quotient_oracle.interval_partition_by_twists(g, k)
            yield quotient.quotient_graph(g, part).h


def test_interval_partition_matches_whole_block_oracle():
    for g in partition_inputs(20, 250, 60):
        for k in (1, 2, 3):
            assert quotient.interval_partition_by_twists(g, k) == (
                quotient_oracle.interval_partition_by_twists(g, k)
            ), (g, k)


def test_interval_partition_neighbourhood_failure_is_internal(monkeypatch):
    g = build_graph(4, [(0, 2), (1, 3)])
    monkeypatch.setattr(quotient, "has_twist", lambda sub, size, budget: None)
    with pytest.raises(quotient.InternalError, match="escaped the clique search"):
        quotient.interval_partition_by_twists(g, 1)


def test_iterated_layout_matches_level_loop_oracle(monkeypatch):
    rng = random.Random(21)
    cases = [(rand_matching(rng, rng.randint(0, 60)), k) for _ in range(60) for k in (1, 2, 3)]
    cases += [(build_graph(0, []), 2), (build_graph(4, [(0, 2), (1, 3)]), 1)]
    new = [raised(quotient.iterated_quotient_layout_detailed, g, k) for g, k in cases]
    # The oracle lifts through the replaced star-forest check and queue cover.
    monkeypatch.setattr(quotient, "star_forests", quotient_oracle.star_forests)
    monkeypatch.setattr(quotient, "queue_cover", quotient_oracle.queue_cover)
    old = [raised(quotient_oracle.iterated_quotient_layout_detailed, g, k) for g, k in cases]
    assert new == old
    routes = [out[0] for out in new]
    assert routes.count("ok") > 100 and routes.count("DepthExceededError") > 30


def lift_outcome(fn, *args):
    """The assignment and the report fields that both transfers keep, or the
    type and message of a package error."""
    try:
        a, report = fn(*args)
    except MixedPagesError as exc:
        return type(exc).__name__, str(exc)
    return a, report.pages_used, report.ell, report.m_intra, report.k, report.branches


def mixed_layout(rng, h):
    """A valid layout of h with stacks and queues in random order: a random
    part of the edges on stacks, the rest on queues."""
    on_stacks = [e for e in range(h.m) if rng.random() < 0.5]
    on_queues = sorted(set(range(h.m)) - set(on_stacks))
    pages = [(PageKind.STACK, p) for p in quotient.bounded_twist_stack_cover(h, on_stacks)[0]]
    pages += [(PageKind.QUEUE, p) for p in quotient.queue_cover(h, on_queues)]
    rng.shuffle(pages)
    return PageAssignment.from_pages(pages, h.m)


def transfer_cases(monkeypatch):
    """Transfer inputs: the levels of iterated layouts of random matchings
    and of thick twists and rainbows at k = 1..4, and direct transfers of
    random mixed layouts over random partitions, plus rejected inputs."""
    rng = random.Random(29)
    cases = []
    real = quotient.transfer_layout

    def record(*args):
        cases.append(args)
        return real(*args)

    monkeypatch.setattr(quotient, "transfer_layout", record)
    graphs = [rand_matching(rng, rng.randint(0, 90)) for _ in range(25)]
    graphs += [gen(t, r) for gen in (gen_thick_twist, gen_thick_rainbow)
               for t in range(1, 5) for r in range(1, 5)]
    for g in graphs:
        for k in (1, 2, 3, 4):
            raised(quotient.iterated_quotient_layout_detailed, g, k)
    monkeypatch.undo()
    for _ in range(150):
        g = rand_matching(rng, rng.randint(0, 40))
        starts = sorted({0, *rng.sample(range(1, max(g.n, 1)), rng.randint(0, g.n // 3))})
        part = quotient.IntervalPartition(g.n, tuple(starts) if g.n else ())
        h = quotient.quotient_graph(g, part).h
        cases.append((g, part, mixed_layout(rng, h), rng.randint(1, 4)))
    g = gen_thick_twist(2, 3)
    part = quotient.IntervalPartition(g.n, tuple(range(g.n)))
    h = quotient.quotient_graph(g, part).h
    cases.append((g, part, PageAssignment(PageSpec.from_string("S"), (0,) * h.m), 2))
    cases.append((g, part, PageAssignment(PageSpec.from_string("S"), (0,)), 2))
    cases.append((build_graph(3, [(0, 2), (1, 2)]), quotient.IntervalPartition(3, tuple(range(3))),
                  PageAssignment(PageSpec.from_string("SS"), (0, 1)), 1))
    return cases


def test_transfer_matches_mirrored_lift(monkeypatch):
    """The one lift for both page kinds returns the pages, in order, of the
    transfer that wrote out the stack-page and queue-page lifts apart."""
    cases = transfer_cases(monkeypatch)
    branches = []
    for args in cases:
        got = lift_outcome(quotient.transfer_layout, *args)
        assert got == lift_outcome(quotient_oracle.mirrored_transfer_layout, *args), args[1:]
        branches.append(got[-1] if len(got) == 6 else {"error"})
    assert sum("stack-page-L" in b for b in branches) > 100
    assert sum("queue-page-B" in b for b in branches) > 50
    assert sum("error" in b for b in branches) == 3


def forests_or_error(fn, h, page, kind):
    try:
        return fn(h, page, kind)
    except Exception as exc:  # the oracle also fails on unknown ids
        return type(exc).__name__, str(exc)


def test_star_forests_match_pairwise_check():
    rng = random.Random(22)
    invalid = lone_bad_ids = 0
    for _ in range(3000):
        h = rand_multigraph(rng, 10, 14)
        page = [e for e in range(h.m) if rng.random() < 0.6]
        if rng.random() < 0.1:
            page.append(rng.choice([-1, h.m, *page[:1]]))
            rng.shuffle(page)
        for kind in KINDS:
            want = forests_or_error(quotient_oracle.star_forests, h, page, kind)
            if len(page) == 1 and not 0 <= page[0] < h.m:
                # The oracle trusts the id of a lone edge; the package rejects it.
                want = "BadEdgeIdError", f"no edge {page[0]}"
                lone_bad_ids += 1
            assert forests_or_error(quotient.star_forests, h, page, kind) == want
            invalid += want[:1] == ("InvalidPageError",)
    assert invalid > 1500 and lone_bad_ids > 0


def maximal_page(rng, n, kind):
    """A random maximal stack (queue) page on n vertices: every vertex pair,
    in random order, joins unless it crosses (nests with) an edge taken."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    edges = []
    for a, b in pairs:
        if kind is PageKind.STACK:
            clash = any(a < c < b < d or c < a < d < b for c, d in edges)
        else:
            clash = any(a < c and d < b or c < a and b < d for c, d in edges)
        if not clash:
            edges.append((a, b))
    return build_graph(n, sorted(edges))


def test_bounded_star_coloring_matches_the_recursive_search(monkeypatch):
    """Within its cap, the exact 3-coloring of `_color_stars` without
    recursion returns the colors of the uncapped recursive search, on dense
    pages where the search often recolors what greedy gave."""
    rng = random.Random(31)
    real = quotient._color_stars
    outcomes = []

    def both(stars):
        got = real(stars)
        with monkeypatch.context() as patch:
            patch.setattr(quotient, "COLOR_LIMIT", 0)
            greedy = real(stars)
        outcomes.append((got == quotient_oracle.recursive_color_stars(stars), got != greedy))
        return got

    monkeypatch.setattr(quotient, "_color_stars", both)
    for _ in range(300):
        kind = rng.choice(KINDS)
        h = maximal_page(rng, rng.randint(4, 30), kind)
        quotient.star_forests(h, range(h.m), kind)
    assert all(same for same, _ in outcomes)
    assert sum(recolored for _, recolored in outcomes) > 30


def test_star_split_matches_the_quadratic_one():
    """The heap degeneracy order and the star conflicts read off each vertex
    give the forests of the minimum scan and the pairwise star test, on
    random maximal pages of both kinds, and the same order and colors on
    random graphs and random stars."""
    rng = random.Random(42)
    for _ in range(150):
        kind = rng.choice(KINDS)
        h = maximal_page(rng, rng.randint(1, 60), kind)
        assert quotient.star_forests(h, range(h.m), kind) == quotient_oracle.star_forests(
            h, range(h.m), kind
        )
    for _ in range(300):
        g = rand_multigraph(rng, 14, 30)
        adj = {v: set() for v in range(g.n)}
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        vertices = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
        sub = {v: adj[v] for v in vertices}
        assert quotient._degeneracy_order(vertices, sub) == quotient_oracle._degeneracy_order(
            vertices, sub
        )
        stars = [(i, set(rng.sample(range(12), rng.randint(1, 4)))) for i in range(rng.randint(0, 25))]
        assert quotient._color_stars(stars) == quotient_oracle._color_stars(stars)


def test_large_outerplanar_page_needs_no_long_search():
    """A 600-vertex maximal outerplanar stack page on which the uncapped
    3-coloring searched for over a minute: the capped search gives up, and
    the greedy colors still make valid one-sided star forests."""
    rng = random.Random(5)
    n = 600
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    polygons = [(0, n - 1)]
    while polygons:  # triangulate the polygon a..b through a random apex c
        a, b = polygons.pop()
        if b - a > 1:
            c = rng.randrange(a + 1, b)
            edges |= {(a, c), (c, b)}
            polygons += [(a, c), (c, b)]
    h = build_graph(n, sorted(edges))
    assert h.m == 2 * n - 3
    with time_limit(10):
        forests = quotient.star_forests(h, range(h.m), PageKind.STACK)
    assert sorted(e for f in forests for s in f.stars for e in s.edges) == list(range(h.m))
    for forest in forests:
        seen = set()
        for star in forest.stars:
            leaves = {u if v == star.center else v for u, v in map(h.edges.__getitem__, star.edges)}
            assert all((leaf < star.center) == (forest.side == "right") for leaf in leaves)
            assert not seen & (leaves | {star.center})
            seen |= leaves | {star.center}
