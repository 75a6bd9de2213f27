"""The candidate stream of enumeration as it was before the walk handed out
conflict-table ids: `_full_matrices`, which rebuilt each candidate's edges
from its cells, and the recursive `_matching_level`, kept verbatim as
oracles for the differential tests, with the id mapping `_decide` applied
to each candidate's edges and the table offsets it read it from.

The package must yield the same edge tuples in the same order, each with
the ids this mapping gives.
"""

from __future__ import annotations

from typing import Iterator


def _matching_level(m: int) -> Iterator[tuple]:
    """The edge tuples of `enumerate_matchings(m)`. Each step pairs the
    smallest point left, so the edges come out sorted."""
    def pair_up(points: tuple[int, ...], edges: list[tuple[int, int]]):
        if not points:
            yield tuple(edges)
            return
        first, rest = points[0], points[1:]
        for i, second in enumerate(rest):
            edges.append((first, second))
            yield from pair_up(rest[:i] + rest[i + 1:], edges)
            edges.pop()

    yield from pair_up(tuple(range(2 * m)), [])


def _separated_level(max_rows: int, max_cols: int, m: int) -> Iterator[tuple]:
    """The edge tuples of the graphs of `enumerate_separated` with m edges."""
    for rows in range(1, min(m, max_rows) + 1):
        for cols in range(1, min(m, max_cols) + 1):
            if m <= rows * cols:
                yield from _full_matrices(rows, cols, m)


def _full_matrices(rows: int, cols: int, m: int) -> Iterator[tuple]:
    """The rows x cols matrices with m ones and no empty row or column, as
    sorted edge tuples.

    A depth-first walk over ascending cells that enters no branch without a
    full completion. Cells ascend, so the next cell lies at most one row
    below the last one, or a row would stay empty. The picks left after a
    cell must cover every row below it and every empty column; in the last
    row the empty columns must also lie right of the cell. The cells are
    sorted and distinct, and so are their edges.
    """
    size, full = rows * cols, (1 << cols) - 1
    edge = [(c // cols, rows + c % cols) for c in range(size)]
    cells = [0] * m
    covered = [0] * m  # covered[d]: the columns of cells[:d]
    start = [0] * m  # start[d]: the first cell still to try at depth d
    d = 0
    while d >= 0:
        left = m - 1 - d
        row = cells[d - 1] // cols if d else -1
        hi = min(size - 1 - left, (row + 2) * cols - 1)
        c = start[d]
        while c <= hi:
            r, col = divmod(c, cols)
            empty = full & ~(covered[d] | 1 << col)
            if left >= empty.bit_count() and (
                left >= rows - 1 - r if r < rows - 1 else not empty & ((1 << col) - 1)
            ):
                break
            c += 1
        else:
            d -= 1
            continue
        cells[d] = c
        start[d] = c + 1
        if left:
            d += 1
            covered[d] = full & ~empty
            start[d] = c + 1
        else:
            yield tuple([edge[x] for x in cells])


def level(family, m: int) -> Iterator[tuple]:
    """The edge tuples of `family.level(m)` as the old stream gave them."""
    if family.shape == "matchings":
        return _matching_level(m)
    return _separated_level(family.max_rows, family.max_cols, m)


def table_ids(family, m: int, edges: tuple) -> list[int]:
    """The ids of the sorted `edges` of a level-m candidate in the level's
    conflict table: `start` and `by_rows` as `EnumFamily.conflict_table`
    returned them, and the mapping `_decide` made of them."""
    if family.shape == "matchings":
        # The a(4m - a - 1)/2 pairs (x, y) with x < a come first, then
        # (a, b) at offset b - a - 1.
        start = [a * (4 * m - a - 3) // 2 - 1 for a in range(2 * m)]
        by_rows = False
    else:
        rows, cols = min(family.max_rows, m), min(family.max_cols, m)
        start, by_rows = [r * cols for r in range(rows)], True
    shift = edges[-1][0] + 1 if by_rows else 0
    return [start[u] + v - shift for u, v in edges]
