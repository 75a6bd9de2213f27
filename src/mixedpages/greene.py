"""Poset machinery for separated matchings: RSK shape, Ferrers diagrams,
maximum chain/antichain k-families, diamond witnesses, and the constructive
2-approximation for the mixed page number.

Edges of a grid matching are identified with their 0-based column index
throughout.  The poset order is e < f iff both grid coordinates increase.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

import networkx as nx

from .core import (
    GridMatching,
    PageAssignment,
    PageKind,
    PageSpec,
)
from .errors import InternalError
from .patterns import PatternKind, PatternWitness


def rsk_shape(grid: GridMatching) -> tuple[int, ...]:
    """Insertion-tableau shape of pi; prefix sums give max i-chain coverage."""
    rows: list[list[int]] = []
    for value in grid.pi:
        for row in rows:
            pos = bisect.bisect_right(row, value)
            if pos == len(row):
                row.append(value)
                value = -1
                break
            row[pos], value = value, row[pos]
        if value != -1:
            rows.append([value])
    return tuple(len(row) for row in rows)


def conjugate_partition(rows: tuple[int, ...]) -> tuple[int, ...]:
    if not rows:
        return ()
    return tuple(sum(1 for r in rows if r >= j) for j in range(1, rows[0] + 1))


@dataclass(frozen=True)
class FerrersDiagram:
    """Greene diagram: row lengths plus chain/antichain coverage prefix sums."""

    rows: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def c(self) -> tuple[int, ...]:
        out, total = [], 0
        for r in self.rows:
            total += r
            out.append(total)
        return tuple(out)

    @property
    def a(self) -> tuple[int, ...]:
        out, total = [], 0
        for r in conjugate_partition(self.rows):
            total += r
            out.append(total)
        return tuple(out)

    @property
    def w(self) -> int:
        return len(self.rows)

    @property
    def h(self) -> int:
        return self.rows[0] if self.rows else 0

    @property
    def square(self) -> int:
        return max((i for i, r in enumerate(self.rows, start=1) if r >= i), default=0)

    def ascii(self) -> str:
        lines = ["#" * r for r in self.rows]
        lines.append(f"c = {list(self.c)}")
        lines.append(f"a = {list(self.a)}")
        lines.append(f"square = {self.square}")
        return "\n".join(lines)


def ferrers(grid: GridMatching) -> FerrersDiagram:
    return FerrersDiagram(rsk_shape(grid))


class FamilyKind(Enum):
    CHAINS = "chains"
    ANTICHAINS = "antichains"


@dataclass(frozen=True)
class ChainFamily:
    kind: FamilyKind
    parts: tuple[tuple[int, ...], ...]
    covered: int

    def covered_set(self) -> set[int]:
        return {e for part in self.parts for e in part}


def _increasing_levels(points: list[tuple[int, int]]) -> list[int]:
    """Length of the longest increasing subsequence ending at each point.

    Points must be sorted by x; strict increase in both coordinates.
    """
    tails: list[int] = []
    levels = []
    for _, y in points:
        pos = bisect.bisect_left(tails, y)
        if pos == len(tails):
            tails.append(y)
        else:
            tails[pos] = y
        levels.append(pos + 1)
    return levels


def lis_length(pi) -> int:
    return max(_increasing_levels([(i, y) for i, y in enumerate(pi)]), default=0)


def lds_length(pi) -> int:
    return max(_increasing_levels([(i, -y) for i, y in enumerate(pi)]), default=0)


def _hasse_covers(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Cover pairs (i, j) of the dominance order on points sorted by x."""
    m = len(points)
    covers = []
    for i in range(m):
        _, yi = points[i]
        # smallest y above yi seen so far while scanning right blocks covers
        low = None
        for j in range(i + 1, m):
            _, yj = points[j]
            if yj > yi and (low is None or yj < low):
                covers.append((i, j))
                low = yj
    return covers


def max_family(grid: GridMatching, kind: FamilyKind, k: int) -> ChainFamily:
    """Maximum k-family of disjoint chains (antichains) by min-cost flow.

    Coverage equals the Greene prefix sum c_k (a_k); cross-checked against
    the RSK shape in the test suite.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if kind is FamilyKind.CHAINS:
        points = grid.points()
    else:
        points = [(x, grid.m + 1 - y) for x, y in grid.points()]
    m = len(points)
    if m == 0:
        return ChainFamily(kind, (), 0)

    g = nx.DiGraph()
    g.add_node("s", demand=-k)
    g.add_node("t", demand=k)
    g.add_edge("s", "t", capacity=k, weight=0)
    for i in range(m):
        g.add_edge("s", ("in", i), capacity=k, weight=0)
        g.add_edge(("in", i), ("rw", i), capacity=1, weight=-1)
        g.add_edge(("rw", i), ("out", i), capacity=1, weight=0)
        g.add_edge(("in", i), ("out", i), capacity=k, weight=0)
        g.add_edge(("out", i), "t", capacity=k, weight=0)
    for i, j in _hasse_covers(points):
        g.add_edge(("out", i), ("in", j), capacity=k, weight=0)

    cost, flow = nx.network_simplex(g)
    parts = []
    for _ in range(k):
        node = "s"
        chain = []
        while node != "t":
            for succ, units in flow[node].items():
                if units > 0:
                    flow[node][succ] -= 1
                    if isinstance(succ, tuple) and succ[0] == "rw":
                        chain.append(succ[1])
                    node = succ
                    break
            else:
                raise AssertionError("flow decomposition stuck")
        if chain:
            parts.append(tuple(chain))
    family = ChainFamily(kind, tuple(parts), -cost)
    if family.covered != sum(len(p) for p in parts):
        raise InternalError(
            f"flow covers {family.covered} elements, its chains hold "
            f"{sum(len(p) for p in parts)}"
        )
    return family


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
            raise AssertionError("diamond statistics are not a bijection")
        matrix[d - 1][u - 1] = e
    if any(cell is None for row in matrix for cell in row):
        raise AssertionError("diamond statistics are not a bijection")
    return matrix


def _matrix_witness(grid: GridMatching, matrix) -> PatternWitness:
    side = len(matrix)
    groups = tuple(tuple(row) for row in matrix)
    return PatternWitness(
        kind=PatternKind.DIAMOND,
        k=side,
        t=side,
        edges=tuple(e for row in groups for e in row),
        groups=groups,
    )


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
        raise AssertionError(
            f"maximum {side}-families share {len(shared)} != {side * side} elements"
        )
    return _diamond_matrix(grid, shared, side, side)


def diamond_witness(grid: GridMatching) -> PatternWitness:
    """A diamond of side equal to the Ferrers square (not always the maximum)."""
    if grid.m == 0:
        return PatternWitness(PatternKind.DIAMOND, 0, 0, (), ())
    return _matrix_witness(grid, diamond_matrix(grid))


def approx_mixed_layout(grid: GridMatching) -> PageAssignment:
    """Valid layout with at most 2*square pages: k stacks plus k queues.

    Stack pages come from a maximum antichain k-family, queue pages from a
    maximum chain k-family; the two families together cover every edge.
    Edges covered by both go to the stack side, which lets pure rainbows
    collapse to a single stack page.
    """
    m = grid.m
    if m == 0:
        return PageAssignment(PageSpec(()), ())
    k = ferrers(grid).square
    chains = max_family(grid, FamilyKind.CHAINS, k)
    antichains = max_family(grid, FamilyKind.ANTICHAINS, k)
    page_of: dict[int, int] = {}
    pages: list[tuple[PageKind, list[int]]] = []
    for part in antichains.parts:
        pages.append((PageKind.STACK, list(part)))
        for e in part:
            page_of[e] = len(pages) - 1
    for part in chains.parts:
        rest = [e for e in part if e not in page_of]
        if rest:
            pages.append((PageKind.QUEUE, rest))
            for e in rest:
                page_of[e] = len(pages) - 1
    if len(page_of) != m:
        raise AssertionError("chain and antichain families fail to cover the edges")
    return PageAssignment(
        PageSpec(tuple(kind for kind, _ in pages)),
        tuple(page_of[e] for e in range(m)),
    )
