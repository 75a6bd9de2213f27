"""Recursive solver and clique searches, the recursive ordered-subgraph
containment of enumeration, and the recursive quadrant construction of
`gen_alternating_subdivision`, as they were before the explicit-stack and
doubling-loop rewrites, kept verbatim as oracles for the differential
tests.

The package must return exactly what these return, node counts and budget
flags included.
"""

from __future__ import annotations

from mixedpages.core import GridMatching, OrderedGraph, PageKind, PageSpec
from mixedpages.errors import SizeLimitError


def _solve_masks(
    cross: list[int],
    nest: list[int],
    active: list[int],
    spec: PageSpec,
    budget: int,
) -> tuple[dict[int, int] | None, int, bool]:
    """Backtracking core over precomputed conflict masks.

    Only the edges listed in `active` are placed; masks may mention inactive
    edges, which simply never enter any page set.  Returns (page_of or None,
    nodes, budget_hit).
    """
    if not active:
        return {}, 0, False
    conflict = {e: bin(cross[e] | nest[e]).count("1") for e in active}
    order = sorted(active, key=lambda e: (-conflict[e], e))
    kinds = spec.kinds
    page_members = [0] * len(kinds)
    page_of: dict[int, int] = {}
    nodes = 0
    hit = False

    def place(pos: int) -> bool:
        nonlocal nodes, hit
        nodes += 1
        if nodes > budget:
            hit = True
            return False
        if pos == len(order):
            return True
        e = order[pos]
        opened = {PageKind.STACK: False, PageKind.QUEUE: False}
        for p, kind in enumerate(kinds):
            if page_members[p] == 0:
                # Same-kind empty pages are interchangeable: only the first
                # may be opened.
                if opened[kind]:
                    continue
                opened[kind] = True
            bad = cross[e] if kind is PageKind.STACK else nest[e]
            if bad & page_members[p]:
                continue
            page_members[p] |= 1 << e
            page_of[e] = p
            if place(pos + 1):
                return True
            page_members[p] &= ~(1 << e)
            del page_of[e]
            if hit:
                return False
        return False

    ok = place(0)
    return (page_of if ok else None), nodes, hit


def _max_clique(masks: list[int], budget: int) -> tuple[int, ...]:
    """Maximum clique via branch and bound with a greedy coloring bound."""
    m = len(masks)
    best: list[int] = []
    nodes = 0

    def color_bound(cands: list[int]) -> list[tuple[int, int]]:
        # (vertex, color) pairs, colors from 1; clique <= max color
        colors: list[int] = []
        classes: list[int] = []
        out = []
        for v in cands:
            for c, cls in enumerate(classes):
                if not (masks[v] & cls):
                    classes[c] |= 1 << v
                    out.append((v, c + 1))
                    break
            else:
                classes.append(1 << v)
                out.append((v, len(classes)))
        out.sort(key=lambda vc: vc[1])
        return out

    def expand(current: list[int], cands: list[int]):
        nonlocal nodes, best
        nodes += 1
        if nodes > budget:
            raise SizeLimitError(f"clique search exceeded {budget} nodes")
        colored = color_bound(cands)
        while colored:
            v, c = colored.pop()
            if len(current) + c <= len(best):
                return
            current.append(v)
            rest = [u for u, _ in colored if masks[v] >> u & 1]
            if not rest:
                if len(current) > len(best):
                    best = current[:]
            else:
                expand(current, rest)
            current.pop()

    order = sorted(range(m), key=lambda v: -bin(masks[v]).count("1"))
    if order:
        expand([], order)
    return tuple(sorted(best))


def _clique_of_size(masks: list[int], size: int, budget: int) -> tuple[int, ...] | None:
    """Some clique of exactly the given size, or None."""
    if size == 0:
        return ()
    m = len(masks)
    nodes = 0

    def expand(current: list[int], cands: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SizeLimitError(f"clique search exceeded {budget} nodes")
        if len(current) == size:
            return tuple(current)
        need = size - len(current)
        c = cands
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            if bin(cands).count("1") < need:
                return None
            current.append(v)
            found = expand(current, c & masks[v])
            current.pop()
            if found:
                return found
            cands &= ~(1 << v)
            if bin(cands).count("1") < need:
                return None
        return None

    return expand([], (1 << m) - 1)


def contains_pattern(g: OrderedGraph, pattern: OrderedGraph) -> bool:
    """Ordered-subgraph containment: an order-preserving injective vertex map
    sending every pattern edge to an edge of g."""
    if pattern.m > g.m or pattern.n > g.n:
        return False
    g_edges = set(g.edges)
    p_adj: list[list[int]] = [[] for _ in range(pattern.n)]
    for u, v in pattern.edges:
        p_adj[v].append(u)

    def extend(v: int, image: list[int]) -> bool:
        if v == pattern.n:
            return True
        lo = image[-1] + 1 if image else 0
        for target in range(lo, g.n - (pattern.n - v) + 1):
            if all((image[u], target) in g_edges for u in p_adj[v]):
                image.append(target)
                if extend(v + 1, image):
                    return True
                image.pop()
        return False

    return extend(0, [])


def _exact_diamond_matrix(grid: GridMatching, k: int, budget: int):
    """Some k x k diamond matrix in the grid, or None; backtracking search."""
    pts = grid.points()
    ids = sorted(range(grid.m), key=lambda e: pts[e][0])
    matrix = [[-1] * k for _ in range(k)]
    used = [False] * grid.m
    nodes = 0

    def fill(cell: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SizeLimitError(f"diamond search exceeded {budget} nodes")
        if cell == k * k:
            return True
        i, j = divmod(cell, k)
        xmin, ylo, yhi = 0, 0, grid.m + 1
        if j > 0:
            x, y = pts[matrix[i][j - 1]]
            xmin, ylo = max(xmin, x), max(ylo, y)
        if i > 0:
            x, y = pts[matrix[i - 1][j]]
            xmin, yhi = max(xmin, x), min(yhi, y)
        for e in ids:
            x, y = pts[e]
            if x <= xmin or used[e] or not ylo < y < yhi:
                continue
            matrix[i][j] = e
            used[e] = True
            if fill(cell + 1):
                return True
            used[e] = False
        matrix[i][j] = -1
        return False

    return [row[:] for row in matrix] if fill(0) else None


def alternating_subdivision(k: int) -> GridMatching:
    """Separation family: diamond side k^2 but largest thick pattern only k.

    Recursive quadrant construction picking the diagonal pair at odd levels
    and the anti-diagonal pair at even levels; k = 2**(h/4) with h the
    recursion depth, divisible by 4.
    """
    h = 4 * (k.bit_length() - 1)

    def build(level: int, size: int) -> list[int]:
        if size == 1:
            return [1]
        half = build(level + 1, size // 2)
        shifted = [v + size // 2 for v in half]
        return half + shifted if level % 2 == 1 else shifted + half

    return GridMatching(tuple(build(1, 2**h)))
