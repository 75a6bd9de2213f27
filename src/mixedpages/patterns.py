"""Detection and witness extraction for twists, rainbows, diamond patterns,
and thick patterns.

The edges of a twist, rainbow or thick pattern pairwise cross or nest, so
they share a point, where crossing and nesting are the two dominance orders
of the (u, v) pairs: the largest is a longest run, exact and polynomial,
with no budget.  Only `has_twist` and `largest_diamond(exact=True)` search,
and raise SizeLimitError past their node budget.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum

from .core import (
    MALFORMED_JSON,
    GridMatching,
    OrderedGraph,
    Relation,
    _json,
    classify_pair,
    conflict_masks,
    grid_to_graph,
    increasing_levels,
    nesting_depths,
)
from .errors import BadParamsError, InsufficientInputError, ParseError, SizeLimitError

DEFAULT_SEARCH_BUDGET = 10**7


class PatternKind(Enum):
    TWIST = "twist"
    RAINBOW = "rainbow"
    DIAMOND = "diamond"
    THICK_TWIST = "thick-twist"
    THICK_RAINBOW = "thick-rainbow"


@dataclass(frozen=True)
class PatternWitness:
    """Edge subset certifying a pattern; groups partition the edges.

    For twists and rainbows t = 1 and there is a single group.  For diamonds
    the groups are the k increasing rows.  For thick patterns the groups are
    the k sub-rainbows (thick twist) or sub-twists (thick rainbow).
    """

    kind: PatternKind
    k: int
    t: int
    edges: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> tuple[int, int]:
        return (self.k, self.t)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind.value,
                "k": self.k,
                "t": self.t,
                "groups": [list(g) for g in self.groups],
            }
        )

    @staticmethod
    def of(kind: PatternKind, k: int, t: int, groups) -> "PatternWitness":
        """The witness with these groups, each made a tuple, and with
        `edges` the groups flattened in order."""
        groups = tuple([tuple(grp) for grp in groups])
        return PatternWitness(kind, k, t, tuple([e for grp in groups for e in grp]), groups)

    @staticmethod
    def from_json(text: str) -> "PatternWitness":
        """Parse `to_json` output; malformed input, and numbers that are not
        JSON integers, raise ParseError."""
        try:
            data = json.loads(text)
            groups = [
                [_json(e, int) for e in _json(g, list)] for g in _json(data["groups"], list)
            ]
            kind, k, t = PatternKind(data["kind"]), _json(data["k"], int), _json(data["t"], int)
        except MALFORMED_JSON as exc:
            raise ParseError(f"bad witness JSON: {exc}", 1) from None
        return PatternWitness.of(kind, k, t, groups)


def _as_graph(host) -> OrderedGraph:
    return grid_to_graph(host) if isinstance(host, GridMatching) else host


def ids_out_of_range(witness: PatternWitness, m: int) -> bool:
    """Does a group of `witness` name an edge id outside 0..m-1?"""
    return any(not 0 <= e < m for grp in witness.groups for e in grp)


def witness_violations(host, witness: PatternWitness) -> list[str]:
    """Re-check a witness against its defining relations; empty iff valid."""
    g = _as_graph(host)
    out = []
    flat = [e for grp in witness.groups for e in grp]
    if sorted(flat) != sorted(set(flat)):
        out.append("groups overlap")
    if set(flat) != set(witness.edges):
        out.append("edge list disagrees with groups")
    if ids_out_of_range(witness, g.m):
        return out + ["edge id out of range"]

    def rel(e1, e2):
        return classify_pair(g, e1, e2).kind

    kind = witness.kind
    if kind in (PatternKind.TWIST, PatternKind.RAINBOW):
        want = Relation.CROSS if kind is PatternKind.TWIST else Relation.NEST
        for i, e1 in enumerate(witness.edges):
            for e2 in witness.edges[i + 1:]:
                if rel(e1, e2) is not want:
                    out.append(f"edges {e1},{e2} are not {want.value}ing")
    elif kind is PatternKind.DIAMOND:
        if not isinstance(host, GridMatching):
            out.append("diamond witness needs a grid matching host")
            return out
        k = witness.k
        if len(witness.groups) != k or any(len(gp) != k for gp in witness.groups):
            out.append("diamond groups are not k rows of k edges")
            return out
        pts = host.points()
        for i in range(k):
            for j in range(k):
                x, y = pts[witness.groups[i][j]]
                if j + 1 < k:
                    x2, y2 = pts[witness.groups[i][j + 1]]
                    if not (x < x2 and y < y2):
                        out.append(f"row {i} not increasing at column {j}")
                if i + 1 < k:
                    x2, y2 = pts[witness.groups[i + 1][j]]
                    if not (x < x2 and y > y2):
                        out.append(f"column {j} not decreasing at row {i}")
    else:
        inner = Relation.NEST if kind is PatternKind.THICK_TWIST else Relation.CROSS
        outer = Relation.CROSS if kind is PatternKind.THICK_TWIST else Relation.NEST
        for gi, grp in enumerate(witness.groups):
            for i, e1 in enumerate(grp):
                for e2 in grp[i + 1:]:
                    if rel(e1, e2) is not inner:
                        out.append(f"group {gi}: {e1},{e2} not {inner.value}ing")
        for gi, g1 in enumerate(witness.groups):
            for g2 in witness.groups[gi + 1:]:
                for e1 in g1:
                    for e2 in g2:
                        if rel(e1, e2) is not outer:
                            out.append(f"{e1},{e2} not {outer.value}ing across groups")
    return out


def _single_group(kind: PatternKind, edges: tuple[int, ...]) -> PatternWitness:
    return PatternWitness(kind, len(edges), 1, edges, (edges,))


def rainbow_chain(edges, depth) -> list[int]:
    """A largest rainbow of `edges`, outermost edge first, walked down
    their nesting depths as `core.nesting_depths` gives them.

    An edge of depth d > 1 holds an edge of depth d - 1 strictly inside
    it, so the chain starts at an edge of the largest depth and takes its
    next edge from one scan of the next lower depth: O(m).  On numbers
    that are not the nesting depths the chain can stop short.
    """
    if not depth:
        return []
    by_depth: list[list[int]] = [[] for _ in range(max(depth))]
    for e, d in enumerate(depth):
        by_depth[d - 1].append(e)
    e = by_depth[-1][0]
    chain = [e]
    for level in reversed(by_depth[:-1]):
        u, v = edges[e]
        e = next((f for f in level if u < edges[f][0] and edges[f][1] < v), None)
        if e is None:
            break
        chain.append(e)
    return chain


def largest_rainbow(g) -> PatternWitness:
    """Maximum pairwise-nesting set, outermost edge first.

    Built on `core.nesting_depths` (O(m log m)) and `rainbow_chain`.  The
    size is the largest rainbow; among rainbows of that size the chain may
    differ from the one earlier releases returned.
    """
    g = _as_graph(g)
    chain = rainbow_chain(g.edges, nesting_depths(g.edges))
    return _single_group(PatternKind.RAINBOW, tuple(chain))


def _clique_of_size(masks: list[int], size: int, budget: int) -> tuple[int, ...] | None:
    """Some clique of exactly the given size, or None.

    Depth-first on an explicit stack, so a clique of any size is found
    without recursion.  A node is one candidate set entered (the root
    included); each set tries its vertices lowest first, each with the
    higher candidates it is adjacent to, and gives up as soon as fewer
    candidates are left than the clique still needs.
    """
    if size == 0:
        return ()
    current: list[int] = []
    pending: list[int] = []  # per open set: its candidates above the vertex tried
    nodes = 0
    cands = (1 << len(masks)) - 1
    while True:
        nodes += 1
        if nodes > budget:
            raise SizeLimitError(f"clique search exceeded {budget} nodes")
        if len(current) == size:
            return tuple(current)
        # Try the lowest candidate of the entered set, else back up to the
        # nearest open set that still has enough candidates.
        while not cands or cands.bit_count() < size - len(current):
            if not pending:
                return None
            cands = pending.pop()
            current.pop()
        v = (cands & -cands).bit_length() - 1
        cands &= cands - 1
        pending.append(cands)
        current.append(v)
        cands &= masks[v]


def _twist_levels(stabbed: list[tuple[int, int, int]]) -> list[int]:
    """Sort `stabbed`, (u, -v, id) triples of edges that all hold one point
    strictly inside, and return the `core.increasing_levels` of their right
    endpoints: the largest twist ending at each.  Two such edges with u < x
    cross when v < y and nest when v > y; sorted by (u, -v), two that share
    a left endpoint never both join an increasing run."""
    stabbed.sort()
    return increasing_levels([-y for _, y, _ in stabbed])


def _later_partners(edges, cross: list[int], i: int) -> list[tuple[int, int, int]]:
    """The (u, -v, id) triples of the crossing partners of edge i with
    higher ids, in id order."""
    mask = cross[i] >> (i + 1)
    out = []
    j = i
    while mask:
        step = (mask & -mask).bit_length()
        j += step
        x, y = edges[j]
        out.append((x, -y, j))
        mask >>= step
    return out


def _twist_of_masks(edges, cross: list[int]) -> tuple[int, int]:
    """(size, first edge) of a largest twist of the sorted `edges` with
    crossing masks `cross`; (0, -1) without edges.

    Each edge i = (u, v) is tried as the first edge: its partners of higher
    id start after u, so they all hold v strictly inside (`_twist_levels`).
    In id order their right endpoints are in the order `_twist_levels` sorts
    them into unless two share a left endpoint, so only then are they
    sorted.  Edges go in decreasing order of partner count, and the first
    whose count cannot beat the best twist so far ends the loop.
    """
    m = len(cross)
    counts = [(cross[i] >> i).bit_count() for i in range(m)]
    rights = [v for _, v in edges]
    shared = len({u for u, _ in edges}) < m
    best, first = 0, -1
    for i in sorted(range(m), key=counts.__getitem__, reverse=True):
        if counts[i] < best:
            break
        if shared:
            levels = _twist_levels(_later_partners(edges, cross, i))
        else:
            mask = cross[i] >> (i + 1)
            ys = []
            j = i
            while mask:
                step = (mask & -mask).bit_length()
                j += step
                ys.append(rights[j])
                mask >>= step
            levels = increasing_levels(ys)
        size = max(levels, default=0)
        if size >= best:
            best, first = size + 1, i
    return best, first


def largest_twist(g) -> PatternWitness:
    """Maximum pairwise-crossing set, left endpoint first (`_twist_of_masks`);
    on a grid, the longest increasing subsequence of its permutation."""
    if isinstance(g, GridMatching):
        chain = _lis_indices(g.pi)
        return _single_group(PatternKind.TWIST, tuple(chain))
    cross, _ = conflict_masks(g)
    _, first = _twist_of_masks(g.edges, cross)
    if first < 0:
        return _single_group(PatternKind.TWIST, ())
    run = sorted(_later_partners(g.edges, cross, first))
    twist = [first, *[run[p][2] for p in _lis_indices([-y for _, y, _ in run])]]
    return _single_group(PatternKind.TWIST, tuple(twist))


def has_twist(g: OrderedGraph, size: int, budget: int = DEFAULT_SEARCH_BUDGET):
    """A twist of exactly `size` edges if one exists, else None."""
    cross, _ = conflict_masks(g)
    return _clique_of_size(cross, size, budget)


def _lis_indices(values) -> list[int]:
    """Indices of one longest strictly-increasing subsequence of `values`.

    Walked back over `core.increasing_levels`, as `rainbow_chain` walks
    depths: from the end, take the first index whose level is the one still
    needed.  Values of one level never increase, so the last value of level
    l before a value of level l + 1 lies below it; O(m) after the kernel.
    """
    levels = increasing_levels(values)
    need = max(levels, default=0)
    chain = []
    for i in range(len(levels) - 1, -1, -1):
        if levels[i] == need:
            chain.append(i)
            need -= 1
    return chain[::-1]


def _lds_indices(values) -> list[int]:
    return _lis_indices([-y for y in values])


# Diamond patterns


def _exact_diamond_matrix(grid: GridMatching, k: int, budget: int):
    """Some k x k diamond matrix in the grid, or None; backtracking search.

    Cells are filled in row-major order, each with the columns to the right
    of its left neighbour's and the rows between its left neighbour's and
    its upper neighbour's, tried left to right.  A node is one cell entered
    (the k*k+1-st is the full matrix), and more than `budget` nodes raise
    SizeLimitError.  The search runs on an explicit stack: `nxt[c]` is the
    column where cell c resumes, so the depth k*k + 1 needs no frames.
    """
    pi = grid.pi
    m = grid.m
    cells = k * k
    flat = [-1] * cells  # the matrix, row-major
    used = [False] * m
    nxt = [0] * cells
    rows = [(0, 0)] * cells  # the open row interval of each cell
    nodes = 0
    cell = 0
    while True:
        # Enter `cell`.
        nodes += 1
        if nodes > budget:
            raise SizeLimitError(f"diamond search exceeded {budget} nodes")
        if cell == cells:
            return [flat[i * k : i * k + k] for i in range(k)]
        start, ylo, yhi = 0, 0, m + 1
        if cell % k:
            left = flat[cell - 1]
            start, ylo = left + 1, pi[left]
        if cell >= k:
            up = flat[cell - k]
            start, yhi = max(start, up + 1), pi[up]
        rows[cell] = (ylo, yhi)
        nxt[cell] = start
        # Place the next candidate of `cell`, backing up while it has none.
        while True:
            ylo, yhi = rows[cell]
            for e in range(nxt[cell], m):
                if not used[e] and ylo < pi[e] < yhi:
                    flat[cell] = e
                    used[e] = True
                    nxt[cell] = e + 1
                    break
            else:
                cell -= 1
                if cell < 0:
                    return None
                used[flat[cell]] = False
                continue
            break
        cell += 1


def largest_diamond(
    grid: GridMatching, exact: bool = False, budget: int = DEFAULT_SEARCH_BUDGET
) -> PatternWitness:
    """Largest diamond pattern.

    With exact=False this is the Ferrers-square witness (a guaranteed diamond
    of side equal to the largest square, possibly not the global maximum);
    with exact=True the true maximum side is found by bounded search.
    """
    from . import greene

    if not exact:
        return greene.diamond_witness(grid)
    upper = min(
        greene.lis_length(grid.pi),
        greene.lds_length(grid.pi),
    )
    best = greene.diamond_matrix(grid)
    for k in range(len(best) + 1, upper + 1):
        found = _exact_diamond_matrix(grid, k, budget)
        if found is None:
            break
        best = found
    return PatternWitness.of(PatternKind.DIAMOND, len(best), len(best), best)


# Thick patterns


def _box_chain(edges, ids, t: int, sign: int) -> list[list[int]]:
    """The groups of a t-thick pattern with the most groups among the
    edges `ids`, which all hold one point strictly inside.

    Edge (u, v) is the point (u, sign * v); two with u < x cross when v < y
    and nest when v > y.  So a thick twist (sign 1) or rainbow (sign -1) is
    a chain of groups, each a falling run (x rises, y falls) spanning a box
    from its first point a to its last b, each box strictly below-left of
    the next.  One falling pass per a (`core.increasing_levels`) gives each
    b with a run of t points from a, and a sweep by x with a Fenwick prefix
    maximum over the boxes' tops the longest chain; O(n^2 log n).
    """
    pts = sorted(ids, key=lambda e: (edges[e][0], sign * edges[e][1]))
    xs = [edges[e][0] for e in pts]
    ys = [sign * edges[e][1] for e in pts]
    n = len(pts)
    boxes = []  # (first, last) point of a group's run
    for a in range(n):
        # Sorted by (x, y), the points after a with a lower y lie below-right
        # of it, and two of one x never both join a falling run.
        run = [a]
        if t > 1:
            run += [p for p in range(a + 1, n) if ys[p] < ys[a]]
        levels = increasing_levels([-ys[p] for p in run])
        boxes += [(a, p) for p, level in zip(run, levels) if level >= t]

    rank = {y: r for r, y in enumerate(sorted(set(ys)), start=1)}
    size = len(rank)
    tree = [(0, -1)] * (size + 1)  # (longest chain, its last box) over a range of tops
    chain = [(0, -1)] * len(boxes)  # (longest chain ending at a box, the box before)
    ends = sorted(range(len(boxes)), key=lambda i: xs[boxes[i][1]])
    done = 0
    for i in sorted(range(len(boxes)), key=lambda i: xs[boxes[i][0]]):
        a, b = boxes[i]
        # Enter every box that ends left of this one's start, at its top.
        while done < len(ends) and xs[boxes[ends[done]][1]] < xs[a]:
            f = ends[done]
            done += 1
            entry = (chain[f][0], f)
            pos = rank[ys[boxes[f][0]]]
            while pos <= size:
                if tree[pos] < entry:
                    tree[pos] = entry
                pos += pos & -pos
        # The longest chain among the boxes whose tops lie below this bottom.
        best = (0, -1)
        pos = rank[ys[b]] - 1
        while pos > 0:
            if tree[pos] > best:
                best = tree[pos]
            pos &= pos - 1
        chain[i] = (best[0] + 1, best[1])

    # Each box holds a falling run of t - 1 points after its first.
    groups = []
    i = max(range(len(boxes)), key=chain.__getitem__, default=-1)
    while i >= 0:
        a, b = boxes[i]
        inside = [p for p in range(a + 1, b + 1) if ys[b] <= ys[p] < ys[a]]
        run = [a, *[inside[j] for j in _lis_indices([-ys[p] for p in inside])]]
        groups.append([pts[p] for p in run[:t]])
        i = chain[i][1]
    return groups[::-1]


def largest_thick_of_kind(g, t: int, kind: PatternKind) -> PatternWitness:
    """Largest k with a t-thick k-twist (k-rainbow), exact and polynomial.

    The pattern's spans meet pairwise, so it lies in the edges (u, v) with
    u < r <= v for r its least right endpoint (`_box_chain`).  An r is
    skipped when no left endpoint lies between it and the right endpoint
    before it (its set is inside that one's), or when its set holds at most
    best * t edges.
    """
    if t < 1:
        raise BadParamsError("thickness must be positive")
    edges = _as_graph(g).edges
    sign = 1 if kind is PatternKind.THICK_TWIST else -1
    lefts = sorted([u for u, _ in edges])
    rights = sorted([v for _, v in edges])
    best: list[list[int]] = []
    seen = 0
    for r in sorted(set(rights)):
        # The edges with u < r, less those with v < r, which all have u < r.
        starts = bisect_left(lefts, r)
        if starts > seen and starts - bisect_left(rights, r) > len(best) * t:
            ids = [e for e, (u, v) in enumerate(edges) if u < r <= v]
            groups = _box_chain(edges, ids, t, sign)
            if len(groups) > len(best):
                best = groups
        seen = starts
    return PatternWitness.of(kind, len(best), t, best)


def largest_thick(g, t: int) -> PatternWitness:
    """Best of the two thick kinds; ties prefer the thick twist."""
    tw = largest_thick_of_kind(g, t, PatternKind.THICK_TWIST)
    rb = largest_thick_of_kind(g, t, PatternKind.THICK_RAINBOW)
    return tw if tw.k >= rb.k else rb


def largest_square_thick(g) -> PatternWitness:
    """Largest k such that a k-thick k-pattern (thickness equal to length)
    exists.  This is the quantity the thick-pattern page-number bounds are
    stated in; it is monotone in k since trimming groups of a larger square
    pattern yields a smaller one."""
    g = _as_graph(g)
    best = PatternWitness.of(PatternKind.THICK_TWIST, 0, 0, [])
    k = 1
    while k * k <= g.m:
        w = largest_thick(g, k)
        if w.k < k:
            break
        best = PatternWitness.of(w.kind, k, k, [grp[:k] for grp in w.groups[:k]])
        k += 1
    return best


# Subdivision extraction of thick patterns from diamond patterns


def _quadrant_split(pi, matrix):
    """Split a diamond matrix into the preferred opposite-quadrant pair.

    pi is the grid's permutation: element e sits at x = e + 1, y = pi[e].
    Rows rise in id and value, columns rise in id and fall in value (the
    sub-diamond invariant), so a row's lower halves by x and by y are
    prefixes, found by bisection at the cuts: the least id and the least
    value above the lower halves.  Down a column the lower half by x is a
    prefix and the lower half by y a suffix.
    """
    ids = [e for row in matrix for e in row]
    total = len(ids)
    half = total // 2
    x_cut = sorted(ids)[half]
    y_cut = sorted(map(pi.__getitem__, ids))[half]
    low = [(bisect_left(row, x_cut), bisect_left(row, y_cut, key=pi.__getitem__)) for row in matrix]
    both_low = sum(min(bounds) for bounds in low)
    # Each off-diagonal quadrant holds the lower half by x less Q11.
    diag_ok = 4 * min(both_low, total - 2 * half + both_low) >= total
    anti_ok = 4 * (half - both_low) >= total
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
        side, rows = largest_square([min(bounds) for bounds in low])
        first = [matrix[i][:side] for i in rows]
        side, rows = largest_square([q - max(bounds) for bounds in low])
        second = [matrix[i][q - side:] for i in rows]
    else:
        # Q12 holds column prefixes, Q21 column suffixes.  Per column, the
        # lengths of its lower half by x and its upper half by y (prefixes).
        ends = [
            (bisect_left(col, x_cut), bisect_right(col, -y_cut, key=lambda e: -pi[e]))
            for col in zip(*matrix)
        ]
        side, cols = largest_square([min(bounds) for bounds in ends])
        first = [[matrix[i][c] for c in cols] for i in range(side)]
        side, cols = largest_square([q - max(bounds) for bounds in ends])
        second = [[matrix[i][c] for c in cols] for i in range(q - side, q)]
    return first, second


def thick_from_diamond(grid: GridMatching, k: int) -> PatternWitness:
    """Extract a k-thick pattern from a large diamond by grid subdivision.

    Implements the recursive four-quadrant subdivision with h = 2*ceil(log2 k)
    rounds followed by an Erdos-Szekeres step on the permutation of the leaf
    squares.  Guaranteed to reach thickness k when the input holds a diamond
    of side k**7.  A round that finds no opposite quadrant pair holding a
    quarter of some leaf raises InsufficientInputError, as does an empty
    matching; when every round splits, the better of the thick twist and
    the thick rainbow the leaves give is returned, which may be thinner
    than k.  The subdivision reads only `grid.pi` and counts by bisection:
    each leaf keeps the diamond's rows rising in id and value and columns
    rising in id and falling in value, so it is ordered by its top-left id
    and read at its bottom-left value, the least in it.
    """
    from . import greene

    if k < 1:
        raise BadParamsError("k must be positive")
    matrix = greene.diamond_matrix(grid)
    if not matrix:
        raise InsufficientInputError("empty matching")
    rounds = 2 * math.ceil(math.log2(k)) if k > 1 else 0
    # A list: list.__getitem__, mapped and used as the bisection key in
    # _quadrant_split, is about twice as fast as the tuple's slot wrapper.
    pi = list(grid.pi)
    leaves = [matrix]
    for _ in range(rounds):
        nxt = []
        for leaf in leaves:
            nxt.extend(_quadrant_split(pi, leaf))
        leaves = nxt

    leaves.sort(key=lambda mat: mat[0][0])
    lows = [pi[mat[-1][0]] for mat in leaves]
    inc = _lis_indices(lows)
    dec = _lds_indices(lows)

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
