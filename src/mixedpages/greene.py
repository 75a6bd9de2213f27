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
from itertools import chain
from math import ceil, sqrt

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
    return tuple([len(row) for row in rows])


def conjugate_partition(rows: tuple[int, ...]) -> tuple[int, ...]:
    if not rows:
        return ()
    return tuple([sum(1 for r in rows if r >= j) for j in range(1, rows[0] + 1)])


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


def _network_simplex(
    demand: list[int],
    sources: list[int],
    targets: list[int],
    capacity: list[int],
    weight: list[int],
) -> tuple[int, list[int]]:
    """Minimum-cost flow by the primal network simplex; returns (cost, flows).

    Nodes are 0..n-1 with n = len(demand) (negative demand is supply); edge
    e runs sources[e] -> targets[e].  Ported from NetworkX 3.x
    `network_simplex` (BSD-3-Clause; Kiraly & Kovacs 2012).  It makes the
    same pivots on the same numbering: an artificial root n joined to every
    node, block search for the entering edge with blocks of ceil(sqrt(E))
    edges (the first edge of least reduced cost in a block), the first
    minimum residual capacity over the reversed cycle for the leaving edge,
    and the same depth-first thread updates.  So it returns the very flow
    NetworkX returns, not merely one of the same cost.
    """
    n = len(demand)
    edges = len(sources)
    root = n
    src = list(sources)
    tgt = list(targets)
    for v, d in enumerate(demand):
        # Zero-demand nodes point towards the root: a strongly feasible tree.
        if d > 0:
            src.append(root)
            tgt.append(v)
        else:
            src.append(v)
            tgt.append(root)
    faux_inf = 3 * max(sum(capacity), sum(map(abs, weight)), sum(map(abs, demand))) or 1
    cap = list(capacity) + [faux_inf] * n
    wt = list(weight) + [faux_inf] * n
    flow = [0] * edges + [abs(d) for d in demand]
    pot = [faux_inf if d <= 0 else -faux_inf for d in demand] + [0]
    # The spanning tree: every node a child of the root, threaded 0..n-1.
    parent = [root] * n + [-1]
    parent_edge = list(range(edges, edges + n)) + [-1]
    size = [1] * n + [n + 1]
    next_dft = list(range(1, n + 1)) + [0]
    prev_dft = [root] + list(range(n))
    last_dft = list(range(n)) + [n - 1]

    block = ceil(sqrt(edges)) or 1
    blocks = (edges + block - 1) // block
    misses = 0
    f = 0
    while misses < blocks:
        # Entering edge: the first of least reduced cost in the next block.
        l = f + block
        if l <= edges:
            scan = range(f, l)
        else:
            l -= edges
            scan = chain(range(f, edges), range(l))
        f = l
        best = 0
        i = -1
        for e in scan:
            c = wt[e] - pot[src[e]] + pot[tgt[e]]
            if flow[e]:
                c = -c
            if c < best:
                best = c
                i = e
        if i < 0:
            misses += 1
            continue
        misses = 0
        if flow[i] == 0:
            p, q = src[i], tgt[i]
        else:
            p, q = tgt[i], src[i]

        # The cycle through i, oriented from p to q: down from the apex w
        # to p, edge i, then up from q to w.  Tree edges keep reduced cost
        # 0, so i is never one of them.
        a, b = p, q
        size_a, size_b = size[a], size[b]
        while a != b:
            while size_a < size_b:
                a = parent[a]
                size_a = size[a]
            while size_a > size_b:
                b = parent[b]
                size_b = size[b]
            if size_a == size_b and a != b:
                a = parent[a]
                size_a = size[a]
                b = parent[b]
                size_b = size[b]
        w = a
        cycle_nodes = [p]
        cycle_edges = []
        v = p
        while v != w:
            cycle_edges.append(parent_edge[v])
            v = parent[v]
            cycle_nodes.append(v)
        cycle_nodes.reverse()
        cycle_edges.reverse()
        cycle_edges.append(i)
        cycle_nodes.append(q)
        v = q
        while v != w:
            cycle_edges.append(parent_edge[v])
            v = parent[v]
            cycle_nodes.append(v)
        del cycle_nodes[-1]

        # Leaving edge: the first least residual capacity, read backwards.
        j = s = -1
        least = None
        for e, u in zip(reversed(cycle_edges), reversed(cycle_nodes)):
            r = cap[e] - flow[e] if src[e] == u else flow[e]
            if least is None or r < least:
                least, j, s = r, e, u
        if least:
            for e, u in zip(cycle_edges, cycle_nodes):
                if src[e] == u:
                    flow[e] += least
                else:
                    flow[e] -= least
        if i == j:
            continue
        t = tgt[j] if src[j] == s else src[j]
        if parent[t] != s:
            s, t = t, s
        if cycle_edges.index(i) > cycle_edges.index(j):
            p, q = q, p

        # Remove the tree edge (s, t): cut t's subtree out of the thread.
        size_t = size[t]
        prev_t = prev_dft[t]
        last_t = last_dft[t]
        next_last_t = next_dft[last_t]
        parent[t] = -1
        parent_edge[t] = -1
        next_dft[prev_t] = next_last_t
        prev_dft[next_last_t] = prev_t
        next_dft[last_t] = t
        prev_dft[t] = last_t
        while s != -1:
            size[s] -= size_t
            if last_dft[s] == last_t:
                last_dft[s] = prev_t
            s = parent[s]

        # Make q the root of its subtree by reversing the path up to t.
        path = []
        v = q
        while v != -1:
            path.append(v)
            v = parent[v]
        path.reverse()
        for a, b in zip(path, path[1:]):
            size_a = size[a]
            last_a = last_dft[a]
            prev_b = prev_dft[b]
            last_b = last_dft[b]
            next_last_b = next_dft[last_b]
            parent[a] = b
            parent[b] = -1
            parent_edge[a] = parent_edge[b]
            parent_edge[b] = -1
            size[a] = size_a - size[b]
            size[b] = size_a
            next_dft[prev_b] = next_last_b
            prev_dft[next_last_b] = prev_b
            next_dft[last_b] = b
            prev_dft[b] = last_b
            if last_a == last_b:
                last_dft[a] = prev_b
                last_a = prev_b
            prev_dft[a] = last_b
            next_dft[last_b] = a
            next_dft[last_a] = b
            prev_dft[b] = last_a
            last_dft[b] = last_a

        # Hang q's subtree below p by the entering edge i.
        last_p = last_dft[p]
        next_last_p = next_dft[last_p]
        size_q = size[q]
        last_q = last_dft[q]
        parent[q] = p
        parent_edge[q] = i
        next_dft[last_p] = q
        prev_dft[q] = last_p
        prev_dft[next_last_p] = last_q
        next_dft[last_q] = next_last_p
        v = p
        while v != -1:
            size[v] += size_q
            if last_dft[v] == last_p:
                last_dft[v] = last_q
            v = parent[v]

        # Shift the potentials of q's subtree so that i has reduced cost 0.
        if q == tgt[i]:
            d = pot[p] - wt[i] - pot[q]
        else:
            d = pot[p] + wt[i] - pot[q]
        v = q
        pot[v] += d
        while v != last_q:
            v = next_dft[v]
            pot[v] += d

    if any(flow[edges:]):
        raise InternalError("network simplex left flow on an artificial edge")
    del flow[edges:]
    return sum(w * x for w, x in zip(weight, flow)), flow


def max_family(grid: GridMatching, kind: FamilyKind, k: int) -> ChainFamily:
    """Maximum k-family of disjoint chains (antichains) by min-cost flow.

    Coverage equals the Greene prefix sum c_k (a_k); cross-checked against
    the RSK shape in the test suite.

    The network has a source 0 and a sink 1 and, for element i, the nodes
    in = 3i+2, rw = 3i+3 and out = 3i+4; rw splits off the unit-capacity,
    weight -1 arc that rewards covering i.  Edges are numbered by source
    node and, per node, in insertion order, which is the numbering the flow
    (and so the family it returns) depends on.
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

    covers: list[list[int]] = [[] for _ in range(m)]
    for i, j in _hasse_covers(points):
        covers[i].append(j)
    sources = [0] * (m + 1)
    targets = [1] + [3 * i + 2 for i in range(m)]
    capacity = [k] * (m + 1)
    weight = [0] * (m + 1)
    for i in range(m):
        node_in, node_rw, node_out = 3 * i + 2, 3 * i + 3, 3 * i + 4
        sources += (node_in, node_in, node_rw, node_out)
        targets += (node_rw, node_out, node_out, 1)
        capacity += (1, k, 1, k)
        weight += (-1, 0, 0, 0)
        for j in covers[i]:
            sources.append(node_out)
            targets.append(3 * j + 2)
            capacity.append(k)
            weight.append(0)
    demand = [-k, k] + [0] * (3 * m)
    cost, flow = _network_simplex(demand, sources, targets, capacity, weight)

    # Out-edges of node u are first_out[u] .. first_out[u + 1] - 1.
    first_out = [0] * (len(demand) + 1)
    for u in sources:
        first_out[u + 1] += 1
    for u in range(len(demand)):
        first_out[u + 1] += first_out[u]
    parts = []
    for _ in range(k):
        node = 0
        part = []
        while node != 1:
            for e in range(first_out[node], first_out[node + 1]):
                if flow[e] > 0:
                    flow[e] -= 1
                    node = targets[e]
                    if node % 3 == 0:
                        part.append(node // 3 - 1)
                    break
            else:
                raise InternalError("flow decomposition stuck")
        if part:
            parts.append(tuple(part))
    family = ChainFamily(kind, tuple(parts), -cost)
    if family.covered != sum(len(p) for p in parts):
        raise InternalError(
            f"flow covers {family.covered} elements, its chains hold "
            f"{sum(len(p) for p in parts)}"
        )
    return family


def _diamond_levels(grid: GridMatching, elements) -> tuple[list[int], list[int], list[int]]:
    """The elements sorted, with the longest increasing and the longest
    decreasing subsequence ending at each, within the element set."""
    pts = sorted(elements)
    coords = [(e + 1, grid.pi[e]) for e in pts]
    ups = _increasing_levels(coords)
    downs = _increasing_levels([(x, -y) for x, y in coords])
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
        raise InternalError("chain and antichain families fail to cover the edges")
    return PageAssignment(
        PageSpec(tuple([kind for kind, _ in pages])),
        tuple([page_of[e] for e in range(m)]),
    )
