"""The pair scans and repeated passes that the sweep and level kernels
replaced, kept verbatim as oracles for the differential tests: the
all-pairs `conflict_masks`, the O(m^2) rainbow DP of `largest_rainbow`, and
`diamond_matrix` with its four LIS passes.  (The pairwise scan of
`validate_assignment` is `pairwise_scan` in test_differential.py.)

The package must return what these return; `largest_rainbow` only the
same size, since another chain of that size may come back.
"""

from __future__ import annotations

from kernel_oracle import increasing_levels as _increasing_levels
from mixedpages.core import GridMatching, OrderedGraph
from mixedpages.errors import InternalError
from mixedpages.greene import (
    FamilyKind,
    ferrers,
    lds_length,
    lis_length,
    max_family,
)
from mixedpages.patterns import PatternKind, PatternWitness, _as_graph, _single_group


def conflict_masks(g: OrderedGraph) -> tuple[list[int], list[int]]:
    """Per-edge bitmasks of crossing and nesting partners.

    Inlined comparisons instead of classify_pair; this sits on the hot path
    of the solver and of enumeration filters.
    """
    m = g.m
    edges = g.edges
    cross = [0] * m
    nest = [0] * m
    for i in range(m):
        u, v = edges[i]
        bit_i = 1 << i
        for j in range(i + 1, m):
            x, y = edges[j]
            if u == x or v == y or v == x:
                continue
            # Edges are sorted, so u < x here.
            if x < v:
                if y < v:
                    nest[i] |= 1 << j
                    nest[j] |= bit_i
                elif y > v:
                    cross[i] |= 1 << j
                    cross[j] |= bit_i
    return cross, nest


def largest_rainbow(g) -> PatternWitness:
    """Maximum pairwise-nesting set: longest chain of the nesting order."""
    g = _as_graph(g)
    order = sorted(range(g.m), key=lambda e: (g.edges[e][1] - g.edges[e][0], e))
    best_len = [1] * g.m
    parent = [-1] * g.m
    for pos, e in enumerate(order):
        u, v = g.edges[e]
        for f in order[:pos]:
            x, y = g.edges[f]
            if u < x and y < v and best_len[f] + 1 > best_len[e]:
                best_len[e] = best_len[f] + 1
                parent[e] = f
    if g.m == 0:
        return _single_group(PatternKind.RAINBOW, ())
    e = max(range(g.m), key=lambda e: (best_len[e], -e))
    chain = []
    while e != -1:
        chain.append(e)
        e = parent[e]
    return _single_group(PatternKind.RAINBOW, tuple(chain))


def _diamond_matrix(grid: GridMatching, elements: list[int], nrows: int, ncols: int):
    """Arrange nrows*ncols poset elements into a diamond matrix.

    Within the element set, the map (longest-decreasing-ending, longest-
    increasing-ending) is injective; with nrows*ncols elements and the two
    statistics bounded by nrows and ncols it is a bijection onto the full
    range, and reading it as a matrix gives increasing rows and decreasing
    columns.
    """
    pts = sorted(elements)
    coords = [(e + 1, grid.pi[e]) for e in pts]
    ups = _increasing_levels(coords)
    downs = _increasing_levels([(x, -y) for x, y in coords])
    matrix: list[list[int | None]] = [[None] * ncols for _ in range(nrows)]
    for e, u, d in zip(pts, ups, downs):
        if not (1 <= u <= ncols and 1 <= d <= nrows) or matrix[d - 1][u - 1] is not None:
            raise InternalError("diamond statistics are not a bijection")
        matrix[d - 1][u - 1] = e
    if any(cell is None for row in matrix for cell in row):
        raise InternalError("diamond statistics are not a bijection")
    return matrix


def diamond_matrix(grid: GridMatching) -> list[list[int]]:
    """Diamond of side equal to the Ferrers square, as a row-major matrix."""
    m = grid.m
    if m == 0:
        return []
    lis = lis_length(grid.pi)
    lds = lds_length(grid.pi)
    if lis * lds == m:
        # Extremal case: the whole matching is an lds x lis grid pattern,
        # so the square side is min(lis, lds) and no flow is needed.
        side = min(lis, lds)
        full = _diamond_matrix(grid, list(range(m)), lds, lis)
        return [row[:side] for row in full[:side]]
    side = ferrers(grid).square
    chains = max_family(grid, FamilyKind.CHAINS, side)
    antichains = max_family(grid, FamilyKind.ANTICHAINS, side)
    shared = sorted(chains.covered_set() & antichains.covered_set())
    if len(shared) != side * side:
        raise InternalError(
            f"maximum {side}-families share {len(shared)} != {side * side} elements"
        )
    return _diamond_matrix(grid, shared, side, side)
