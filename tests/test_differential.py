"""Differential tests of the fast paths against the slow code they replace:
the explicit-stack, forward-checked search and the clique search against
their recursive originals (kept in recursive_oracle.py), the page sweep of
validate_assignment against the plain pairwise scan, the in-package
network simplex of max_family against the networkx flow it replaced (kept in
flow_oracle.py), and the level-wise critical-pattern engine and its stream
of full matrices against the per-candidate check and combinations stream
they replaced (kept in critical_oracle.py), the explicit-stack
`_clique_of_size` against its recursive original, and the quotient layer
(incremental interval partition, lazy twist probe, one-sweep star-forest
check, Fenwick nesting depths) against the code it replaced (kept in
quotient_oracle.py)."""

import json
import random

import pytest

import critical_oracle
import quotient_oracle
import recursive_oracle
from conftest import rand_matching
from mixedpages import enumeration, quotient, solver
from mixedpages.constructions import gen_diamond, gen_tight_2k
from mixedpages.core import (
    GridMatching,
    PageAssignment,
    PageKind,
    PageSpec,
    Relation,
    Violation,
    build_graph,
    classify_pair,
    conflict_masks,
    nesting_depths,
    validate_assignment,
)
from mixedpages.errors import BudgetExceededError, MixedPagesError, SizeLimitError
from mixedpages.greene import FamilyKind, ferrers, max_family
from mixedpages.patterns import _clique_of_size, _max_clique
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


@pytest.mark.parametrize("family", [FAMILIES[1], FAMILIES[3]], ids=str)
def test_sharded_find_critical_matches_oracle(family):
    for mode in MODES:
        want = critical_oracle.find_critical(family, mode)
        got = enumeration.find_critical(family, mode, jobs=2)
        assert got.patterns == want.patterns, mode
        assert got.scanned == want.scanned, mode


@pytest.mark.parametrize("jobs", [1, 2])
def test_node_budget_matches_oracle(jobs):
    family = enumeration.EnumFamily("separated", 5, 3, 3)
    for node_budget in (0, 1, 40, 200):
        with pytest.raises(BudgetExceededError) as want:
            critical_oracle.find_critical(family, ("k", 1), node_budget=node_budget)
        with pytest.raises(BudgetExceededError) as got:
            enumeration.find_critical(family, ("k", 1), node_budget=node_budget, jobs=jobs)
        assert (str(got.value), got.value.nodes) == (str(want.value), want.value.nodes)
    total = critical_oracle.find_critical(family, ("k", 1)).scanned
    result = enumeration.find_critical(family, ("k", 1), node_budget=total, jobs=jobs)
    assert result.scanned == total


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("resume_jobs", [1, 2])
def test_resume_after_level_three(tmp_path, monkeypatch, resume_jobs):
    family = enumeration.EnumFamily("separated", 6, 4, 4)
    path = str(tmp_path / "check.json")
    real = enumeration._write_checkpoint

    def stop_after_level_three(path, family, result, level, infeasible):
        real(path, family, result, level, infeasible)
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

    def counted(g, *args):
        decided.append(g.m)
        return real_decide(g, *args)

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
