"""Generators for the explicit families used throughout: diamond patterns,
thick patterns, the 2k-tightness matching, the alternating subdivision
family, and the critical constructions.

Each generator is paired with post-generation checks or verification so
that correctness is enforced by checking, not trusted from the formulas.
"""

from __future__ import annotations

from .core import (
    GridMatching,
    OrderedGraph,
    build_graph,
    conflict_masks,
    grid_to_graph,
)
from .errors import BadParamsError, InternalError


def gen_diamond(k: int) -> GridMatching:
    """Canonical k-diamond: k blocks of k increasing values, blocks descending."""
    if k < 1:
        raise BadParamsError("k must be positive")
    pi = []
    for block in range(k):
        base = (k - 1 - block) * k
        pi.extend(base + j for j in range(1, k + 1))
    return GridMatching(tuple(pi))


def gen_thick_twist(t: int, k: int) -> OrderedGraph:
    """k pairwise-crossing t-rainbows as a separated matching."""
    if k < 1 or t < 1:
        raise BadParamsError("k and t must be positive")
    pi = []
    for block in range(k):
        pi.extend(block * t + (t - s) for s in range(t))
    return grid_to_graph(GridMatching(tuple(pi)))


def gen_thick_rainbow(t: int, k: int) -> OrderedGraph:
    """k pairwise-nesting t-twists as a separated matching."""
    if k < 1 or t < 1:
        raise BadParamsError("k and t must be positive")
    pi = []
    for block in range(k):
        base = (k - 1 - block) * t
        pi.extend(base + s + 1 for s in range(t))
    return grid_to_graph(GridMatching(tuple(pi)))


def gen_tight_2k(k: int) -> GridMatching:
    """Matching with largest diamond side k but mixed page number 2k.

    A k-thick (k^2+1)-twist (the k-thick k-twist extended to the top right)
    plus a k-thick (k(k-1)+1)-rainbow placed entirely left of and above it.
    """
    if k < 1:
        raise BadParamsError("k must be positive")
    twist_blocks = k * k + 1
    rainbow_blocks = k * (k - 1) + 1
    twist = []
    for block in range(twist_blocks):
        twist.extend(block * k + (k - s) for s in range(k))
    rainbow = []
    for block in range(rainbow_blocks):
        base = (rainbow_blocks - 1 - block) * k
        rainbow.extend(base + s + 1 for s in range(k))
    offset = k * twist_blocks
    grid = GridMatching(tuple(offset + v for v in rainbow) + tuple(twist))

    from .greene import ferrers, lds_length, lis_length

    if grid.m != 2 * k**3 - k**2 + 2 * k:
        raise InternalError(f"tight 2k matching has {grid.m} edges")
    if lis_length(grid.pi) != k * k + 1:
        raise InternalError(f"tight 2k matching has LIS {lis_length(grid.pi)}")
    if lds_length(grid.pi) != k * k + 1:
        raise InternalError(f"tight 2k matching has LDS {lds_length(grid.pi)}")
    if ferrers(grid).square != k:
        raise InternalError(f"tight 2k matching has square {ferrers(grid).square}")
    return grid


def gen_alternating_subdivision(k: int) -> GridMatching:
    """Separation family: diamond side k^2 but largest thick pattern only k.

    Quadrant construction picking the diagonal pair at odd levels and the
    anti-diagonal pair at even levels; k = 2**(h/4) with h the number of
    levels, divisible by 4. The permutation doubles from the innermost
    level, h, out to level 1: its two halves are the last one and a copy
    shifted above it, the shifted copy second at odd levels and first at
    even ones.
    """
    if k < 1 or k & (k - 1):
        raise BadParamsError("k must be a power of two")
    h = 4 * (k.bit_length() - 1)
    pi = [1]
    for level in range(h, 0, -1):
        shifted = [v + len(pi) for v in pi]
        pi = pi + shifted if level % 2 == 1 else shifted + pi
    return GridMatching(tuple(pi))


# Critical families


def _circulant_edges(n: int, s: int) -> set[frozenset[int]]:
    return {
        frozenset(((i, (i + j) % n)))
        for i in range(n)
        for j in range(1, s)
        if i != (i + j) % n
    }


def _graph_from_arcs(n: int, arcs: list[tuple[int, int]], target) -> OrderedGraph | None:
    """Build the matching and check its crossing graph matches `target` under
    the arc-label-to-edge-id map induced by edge sorting."""
    g = build_graph(2 * n, arcs)
    arc_of_edge = {tuple(sorted(arc)): i for i, arc in enumerate(arcs)}
    to_arc = [arc_of_edge[e] for e in g.edges]
    cross, _ = conflict_masks(g)
    got = {
        frozenset((to_arc[a], to_arc[b]))
        for a in range(g.m)
        for b in range(a + 1, g.m)
        if cross[a] >> b & 1
    }
    return g if got == target else None


def gen_stack_critical(s: int, n: int) -> OrderedGraph:
    """Matching whose crossing graph is the circulant C(n; 1..s-1).

    For s = 2 this is an odd cycle; for s >= 3 the cycle length must satisfy
    n = r*s + 1.  The realization is verified against the target conflict
    graph; a mismatch is an internal error.
    """
    if s < 2:
        raise BadParamsError("s must be at least 2")
    if s == 2:
        if n < 3 or n % 2 == 0:
            raise BadParamsError("s=2 needs an odd cycle length n >= 3")
    else:
        if n < s + 1 or (n - 1) % s != 0:
            raise BadParamsError("s>=3 needs n = r*s + 1 with r >= 1")

    target = _circulant_edges(n, s)
    if n <= 2 * s - 1:
        # The circulant is complete; an n-twist realizes it.
        arcs = [(i, n + i) for i in range(n)]
    else:
        # Chords of a circle on 2n points, cut open between 2n-1 and 0:
        # chord i runs from 2i to 2(i+s-1)+1 (mod 2n).  As n > 2s-1, it
        # crosses exactly the chords i-s+1..i-1 and i+1..i+s-1 (mod n), and
        # cutting the circle open keeps which chords interleave.
        arcs = []
        for i in range(n):
            a, b = 2 * i, (2 * (i + s - 1) + 1) % (2 * n)
            arcs.append((min(a, b), max(a, b)))
    g = _graph_from_arcs(n, arcs, target)
    if g is None:
        raise InternalError(f"the chords of C({n}; 1..{s - 1}) cross wrongly")
    return g


# Smallest (2-critical, 14-vertex, 7-edge) matching, found by exhaustive
# enumeration and verified by the solver.  The arc-chain construction below
# is only forcing for r >= 4: at r = 2 its long edge covers no crossing
# pair, and the instance actually fits on one stack plus one queue, so the
# base case substitutes this verified instance (see the decisions ledger).
_BASE_2CRITICAL = ((0, 3), (1, 4), (2, 9), (5, 8), (6, 13), (7, 12), (10, 11))


def gen_2critical(r: int) -> OrderedGraph:
    """A 2-critical matching G_r on 2(r+2)+6 vertices, r >= 2 even.

    For r >= 4: an odd-cycle arc block C, a single short edge x, and a
    3-rainbow R.  For r = 2 a verified 2-critical instance of the same size
    is returned instead (the formula instance is not critical there).
    """
    if r < 2 or r % 2 != 0:
        raise BadParamsError("r must be an even integer >= 2")
    if r == 2:
        return build_graph(14, list(_BASE_2CRITICAL))
    n = 2 * (r + 2) + 6
    c_edges = [(2 * i, 2 * i + 3) for i in range(r - 1)]
    c_edges.append((2 * r - 2, 2 * r + 3))
    c_edges.append((1, 2 * r + 1))
    x = (2 * r, 2 * r + 2)
    r_edges = [(n - 6, n - 1), (n - 5, n - 2), (n - 4, n - 3)]
    return build_graph(n, c_edges + [x] + r_edges)


def cover_with_twist(g: OrderedGraph, size: int) -> OrderedGraph:
    """Add a `size`-twist on fresh outer vertices covering all edges of g."""
    shifted = [(u + size, v + size) for u, v in g.edges]
    twist = [(i, size + g.n + i) for i in range(size)]
    return build_graph(g.n + 2 * size, shifted + twist)


def gen_k_critical(k: int, r: int = 2) -> OrderedGraph:
    """Inductive k-critical matching: start from G_r, then wrap each level
    j -> j+1 in a (j+2)-twist covering everything."""
    if k < 2:
        raise BadParamsError("k must be at least 2")
    g = gen_2critical(r)
    for level in range(2, k):
        g = cover_with_twist(g, level + 2)
    return g


def gen_sq_critical(s: int, q: int, n: int | None = None) -> OrderedGraph:
    """Inductive (s,q)-critical matching: stack-critical base wrapped in q
    successive (s+1)-twists covering everything."""
    if s < 2 or q < 0:
        raise BadParamsError("need s >= 2 and q >= 0")
    if n is None:
        n = 5 if s == 2 else 2 * s + 1
    g = gen_stack_critical(s, n)
    for _ in range(q):
        g = cover_with_twist(g, s + 1)
    return g


FAMILIES = {
    "diamond": gen_diamond,
    "thick-twist": lambda k, t=None: gen_thick_twist(k if t is None else t, k),
    "thick-rainbow": lambda k, t=None: gen_thick_rainbow(k if t is None else t, k),
    "tight2k": gen_tight_2k,
    "altsub": gen_alternating_subdivision,
    "stack": gen_stack_critical,
    "mixed2": gen_2critical,
    "kcritical": gen_k_critical,
    "sqcritical": gen_sq_critical,
}
