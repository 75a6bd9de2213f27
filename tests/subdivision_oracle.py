"""`thick_from_diamond` as it was when the diamond levels and the
subdivision read (x, y) points, kept verbatim as the oracle for the
differential test: `_diamond_levels` builds the points and their mirror
images for the points-based `increasing_levels` (kept in kernel_oracle.py),
`_quadrant_split` sorts the grid's points on tuple keys, and the leaves are
placed and read through `grid.points()`.  `diamond_matrix` and
`_fill_matrix` are the package's as they were with it, so that the whole
path runs on the old kernel.

The package must return the same witness, or raise the same error with
the same message.
"""

from __future__ import annotations

import math

from kernel_oracle import increasing_levels
from mixedpages.core import GridMatching
from mixedpages.errors import BadParamsError, InsufficientInputError, InternalError
from mixedpages.greene import FamilyKind, ferrers, max_family
from mixedpages.patterns import PatternKind, PatternWitness


def _diamond_levels(grid: GridMatching, elements) -> tuple[list[int], list[int], list[int]]:
    """The elements sorted, with the longest increasing and the longest
    decreasing subsequence ending at each, within the element set."""
    pts = sorted(elements)
    coords = [(e + 1, grid.pi[e]) for e in pts]
    ups = increasing_levels(coords)
    downs = increasing_levels([(x, -y) for x, y in coords])
    return pts, ups, downs


def _fill_matrix(pts: list[int], ups: list[int], downs: list[int], nrows: int, ncols: int):
    """Place each element at row `down`, column `up`; the statistics must
    fill the nrows x ncols matrix exactly once."""
    matrix: list[list[int | None]] = [[None] * ncols for _ in range(nrows)]
    for e, u, d in zip(pts, ups, downs):
        if not (1 <= u <= ncols and 1 <= d <= nrows) or matrix[d - 1][u - 1] is not None:
            raise InternalError("diamond statistics are not a bijection")
        matrix[d - 1][u - 1] = e
    if any(cell is None for row in matrix for cell in row):
        raise InternalError("diamond statistics are not a bijection")
    return matrix


def _diamond_matrix(grid: GridMatching, elements: list[int], nrows: int, ncols: int):
    """Arrange nrows*ncols poset elements into a diamond matrix.

    Within the element set, the map (longest-decreasing-ending, longest-
    increasing-ending) is injective; with nrows*ncols elements and the two
    statistics bounded by nrows and ncols it is a bijection onto the full
    range, and reading it as a matrix gives increasing rows and decreasing
    columns.
    """
    return _fill_matrix(*_diamond_levels(grid, elements), nrows, ncols)


def diamond_matrix(grid: GridMatching) -> list[list[int]]:
    """Diamond of side equal to the Ferrers square, as a row-major matrix.

    One LIS pass each way over the whole matching gives LIS and LDS as the
    largest levels.  In the extremal case LIS * LDS = m the same levels fill
    the matrix; otherwise the two maximum families of the square's side
    (two min-cost flows) pick the elements, and their levels are taken.
    """
    m = grid.m
    if m == 0:
        return []
    pts, ups, downs = _diamond_levels(grid, range(m))
    lis, lds = max(ups), max(downs)
    if lis * lds == m:
        # Extremal case: the whole matching is an lds x lis grid pattern,
        # so the square side is min(lis, lds) and no flow is needed.
        side = min(lis, lds)
        full = _fill_matrix(pts, ups, downs, lds, lis)
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


def _lis_indices(points: list[tuple[int, int]]) -> list[int]:
    """Indices of one longest strictly-increasing subsequence (points by x).

    Walked back over `core.increasing_levels`, as `rainbow_chain` walks
    depths: from the end, take the first index whose level is the one still
    needed.  Points of one level never increase, so the last point of level
    l before a point of level l + 1 lies below it; O(m) after the kernel.
    """
    levels = increasing_levels(points)
    need = max(levels, default=0)
    chain = []
    for i in range(len(levels) - 1, -1, -1):
        if levels[i] == need:
            chain.append(i)
            need -= 1
    return chain[::-1]


def _lds_indices(points: list[tuple[int, int]]) -> list[int]:
    return _lis_indices([(x, -y) for x, y in points])


def _quadrant_split(pts: list[tuple[int, int]], matrix):
    """Split a diamond matrix into the preferred opposite-quadrant pair.

    pts are the points of the grid.  Each element is classified once, as
    2 if it is in the lower half by x plus 1 if it is in the lower half by
    y, and each row or column counts its members of a quadrant from that.
    """
    ids = [e for row in matrix for e in row]
    half = len(ids) // 2
    # Points have distinct x, so sorting them sorts by x.
    low_x = set(sorted(ids, key=pts.__getitem__)[:half])
    low_y = set(sorted(ids, key=lambda e: pts[e][1])[:half])
    quads = [[2 * (e in low_x) + (e in low_y) for e in row] for row in matrix]
    count = [sum(row.count(quad) for row in quads) for quad in range(4)]
    total = len(ids)
    diag_ok = 4 * min(count[3], count[0]) >= total
    anti_ok = 4 * min(count[2], count[1]) >= total
    if not diag_ok and not anti_ok:
        raise InsufficientInputError("no opposite quadrant pair holds a quarter of the points")

    def largest_square(members):
        """The largest side such that `side` lines hold at least `side`
        members each, and the first `side` such lines."""
        ranked = sorted(members, reverse=True)
        side = 0
        while side < len(ranked) and ranked[side] >= side + 1:
            side += 1
        return side, [i for i, n in enumerate(members) if n >= side][:side]

    q = len(matrix)
    if diag_ok:
        # Q11 holds row prefixes, Q22 row suffixes.
        side, rows = largest_square([row.count(3) for row in quads])
        first = [matrix[i][:side] for i in rows]
        side, rows = largest_square([row.count(0) for row in quads])
        second = [matrix[i][q - side:] for i in rows]
    else:
        # Q12 holds column prefixes, Q21 column suffixes.
        columns = list(zip(*quads))
        side, cols = largest_square([col.count(2) for col in columns])
        first = [[matrix[i][c] for c in cols] for i in range(side)]
        side, cols = largest_square([col.count(1) for col in columns])
        second = [[matrix[i][c] for c in cols] for i in range(q - side, q)]
    return first, second


def thick_from_diamond(grid: GridMatching, k: int) -> PatternWitness:
    """Extract a k-thick pattern from a large diamond by grid subdivision.

    Implements the recursive four-quadrant subdivision with h = 2*ceil(log2 k)
    rounds followed by an Erdos-Szekeres step on the permutation of the leaf
    squares.  Guaranteed to reach thickness k when the input holds a diamond
    of side k**7; otherwise the best achievable witness is returned.
    """
    if k < 1:
        raise BadParamsError("k must be positive")
    matrix = diamond_matrix(grid)
    if not matrix:
        raise InsufficientInputError("empty matching")
    rounds = 2 * math.ceil(math.log2(k)) if k > 1 else 0
    pts = grid.points()
    leaves = [matrix]
    for _ in range(rounds):
        nxt = []
        for leaf in leaves:
            first, second = _quadrant_split(pts, leaf)
            nxt.extend((first, second))
        leaves = nxt

    leaves.sort(key=lambda mat: min(pts[e][0] for row in mat for e in row))
    leaf_pts = [(i + 1, min(pts[e][1] for row in mat for e in row)) for i, mat in enumerate(leaves)]
    inc = _lis_indices(leaf_pts)
    dec = _lds_indices(leaf_pts)

    def assemble(seq, kind):
        if not seq:
            return PatternWitness.of(kind, 0, 0, [])
        take = min(k, len(seq))
        size = min(take, min(len(leaves[i]) for i in seq[:take]))
        chosen = seq[:size]
        groups = []
        for i in chosen:
            leaf = leaves[i]
            if kind is PatternKind.THICK_TWIST:
                groups.append([leaf[r][0] for r in range(size)])
            else:
                groups.append(leaf[0][:size])
        return PatternWitness.of(kind, size, size, groups)

    tw = assemble(inc, PatternKind.THICK_TWIST)
    rb = assemble(dec, PatternKind.THICK_RAINBOW)
    return tw if tw.k >= rb.k else rb
