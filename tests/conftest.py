import random
from itertools import permutations, product

import pytest

from mixedpages.core import (
    GridMatching,
    OrderedGraph,
    PageAssignment,
    build_graph,
    validate_assignment,
)
from mixedpages.solver import splits


def rand_matching(rng: random.Random, m: int) -> OrderedGraph:
    points = list(range(2 * m))
    rng.shuffle(points)
    return build_graph(2 * m, [(points[2 * i], points[2 * i + 1]) for i in range(m)])


def rand_graph(rng: random.Random, n: int, m: int) -> OrderedGraph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, rng.sample(pairs, min(m, len(pairs))))


def all_grids(m: int):
    for pi in permutations(range(1, m + 1)):
        yield GridMatching(pi)


def chain_subsets(points):
    """Bitmasks of subsets that are chains (pairwise increasing)."""
    m = len(points)
    chains = []
    for mask in range(1, 1 << m):
        members = [i for i in range(m) if mask >> i & 1]
        ok = all(
            points[a][0] < points[b][0] and points[a][1] < points[b][1]
            for ai, a in enumerate(members)
            for b in members[ai + 1:]
        )
        if ok:
            chains.append(mask)
    return chains


def brute_cover(grid: GridMatching, i: int, antichains: bool = False) -> int:
    """Maximum elements coverable by i disjoint chains (antichains), by
    exhaustive search over chain subsets."""
    points = grid.points()
    if antichains:
        points = [(x, grid.m + 1 - y) for x, y in points]
    chains = chain_subsets(points)
    memo = {}

    def best(available: int, left: int) -> int:
        if left == 0 or available == 0:
            return 0
        key = (available, left)
        if key not in memo:
            top = 0
            for c in chains:
                if c & ~available == 0:
                    top = max(top, bin(c).count("1") + best(available & ~c, left - 1))
            memo[key] = top
        return memo[key]

    return best((1 << grid.m) - 1, i)


def brute_force_fits(g: OrderedGraph, spec) -> bool:
    """Independent oracle: does any assignment of g's edges to the spec's
    pages pass the page validity check?  Exponential in g.m."""
    return any(
        not validate_assignment(g, PageAssignment(spec, pages))
        for pages in product(range(len(spec)), repeat=g.m)
    )


def brute_force_mixed_page_number(g: OrderedGraph) -> int:
    """Independent oracle: enumerate every page assignment, smallest k first,
    and accept via the page validity check.

    Exponential; for cross-checking the backtracking solver on small
    instances only. m pages always suffice: one edge per page.
    """
    m = g.m
    for k in range(1, m):
        if any(brute_force_fits(g, spec) for spec in splits(k)):
            return k
    return m


@pytest.fixture
def rng():
    return random.Random(0)
