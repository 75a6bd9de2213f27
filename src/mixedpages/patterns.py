"""Detection and witness extraction for twists, rainbows, diamond patterns,
and thick patterns.

Exact twist and thick searches are NP-flavored; they take an explicit node
budget and raise SizeLimitError instead of silently degrading.
"""

from __future__ import annotations

import json
import math
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


def _color_classes(masks: list[int], cands: list[int]) -> list[tuple[int, int]]:
    """Greedy sequential coloring of `cands` in list order, as (vertex,
    color) pairs sorted by color (colors from 1, ties in list order); a
    clique among them has at most max-color vertices.

    Built one color class at a time, which for a symmetric relation gives
    the same classes as coloring vertex by vertex: a class takes, in list
    order, each uncolored vertex with no neighbour in the class so far.  A class stops as soon as
    no uncolored vertex outside the neighbourhoods of its members is left,
    so on a dense candidate set each class costs a few mask operations.
    """
    uncolored = 0
    for v in cands:
        uncolored |= 1 << v
    out = []
    color = 0
    first = 0
    size = len(cands)
    while uncolored:
        color += 1
        while not uncolored >> cands[first] & 1:
            first += 1
        v = cands[first]
        uncolored ^= 1 << v
        out.append((v, color))
        room = uncolored & ~masks[v]
        i = first + 1
        while room and i < size:
            u = cands[i]
            if room >> u & 1:
                uncolored ^= 1 << u
                out.append((u, color))
                room &= ~masks[u] & ~(1 << u)
            i += 1
    return out


def _max_clique(masks: list[int], budget: int) -> tuple[int, ...]:
    """Maximum clique via branch and bound with a greedy coloring bound.

    Depth-first on an explicit stack of colored candidate lists, so a clique
    of any size is found without recursion.  Branches take the candidate of
    highest color first and are cut when the color bound cannot beat the
    best clique so far.  Each expanded candidate list counts as one node.
    """
    order = sorted(range(len(masks)), key=lambda v: -masks[v].bit_count())
    if not order:
        return ()
    best: list[int] = []
    current: list[int] = []
    nodes = 1
    if nodes > budget:
        raise SizeLimitError(f"clique search exceeded {budget} nodes")
    frames = [_color_classes(masks, order)]
    while frames:
        colored = frames[-1]
        if colored:
            v, c = colored.pop()
            if len(current) + c > len(best):
                current.append(v)
                neighbours = masks[v]
                rest = [u for u, _ in colored if neighbours >> u & 1]
                if rest:
                    nodes += 1
                    if nodes > budget:
                        raise SizeLimitError(f"clique search exceeded {budget} nodes")
                    frames.append(_color_classes(masks, rest))
                    continue
                if len(current) > len(best):
                    best = current[:]
                current.pop()
                continue
        # The frame is exhausted or cut by its bound: return to the parent.
        frames.pop()
        if frames:
            current.pop()
    return tuple(sorted(best))


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


def largest_twist(g, budget: int = DEFAULT_SEARCH_BUDGET) -> PatternWitness:
    """Maximum pairwise-crossing set (exact maximum clique of the crossing
    relation); separated matchings use the longest-increasing fast path."""
    if isinstance(g, GridMatching):
        chain = _lis_indices(g.pi)
        return _single_group(PatternKind.TWIST, tuple(chain))
    cross, _ = conflict_masks(g)
    return _single_group(PatternKind.TWIST, _max_clique(cross, budget))


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


def largest_thick_of_kind(
    g, t: int, kind: PatternKind, budget: int = DEFAULT_SEARCH_BUDGET
) -> PatternWitness:
    """Largest k with a t-thick k-twist (k-rainbow); exact within budget."""
    if t < 1:
        raise BadParamsError("thickness must be positive")
    g = _as_graph(g)
    cross, nest = conflict_masks(g)
    inner = nest if kind is PatternKind.THICK_TWIST else cross
    outer = cross if kind is PatternKind.THICK_TWIST else nest
    groups: list[tuple[int, ...]] = []
    nodes = 0

    def words() -> int:
        # Each group gets a mask of one bit per group: n groups also count
        # the n * n // 64 machine words of their masks, so the budget bounds
        # their memory too.
        return len(groups) ** 2 // 64

    # The groups, depth-first on an explicit stack: a node is one candidate
    # set entered (the root included), which tries its edges lowest first,
    # each with the higher candidates it is inner-related to.
    members: list[int] = []
    pending: list[int] = []  # per open set: its candidates above the edge tried
    cands = (1 << g.m) - 1
    while True:
        nodes += 1
        if nodes + words() > budget:
            raise SizeLimitError(f"thick group enumeration exceeded {budget} nodes")
        if len(members) == t:
            groups.append(tuple(members))
            cands = 0
        while not cands and pending:
            cands = pending.pop()
            members.pop()
        if not cands:
            break
        e = (cands & -cands).bit_length() - 1
        cands &= cands - 1
        pending.append(cands)
        members.append(e)
        cands &= inner[e]

    # Two groups are compatible when every edge of one is outer-related to
    # every edge of the other, a symmetric relation; the largest compatible
    # set is a maximum clique.  Bitmasks over the groups: at[p][f] holds the
    # groups whose p-th edge is f, and fits[e] the groups inside outer[e].
    at = [[0] * g.m for _ in range(t)]
    for j, members in enumerate(groups):
        for p, f in enumerate(members):
            at[p][f] |= 1 << j
    fits = []
    for e in range(g.m):
        inside = (1 << len(groups)) - 1
        for by_edge in at:
            some = 0
            rest = outer[e]
            while rest:
                some |= by_edge[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
            inside &= some
        fits.append(inside)
    masks = []
    for members in groups:
        mask = fits[members[0]]
        for e in members[1:]:
            mask &= fits[e]
        masks.append(mask)
    try:
        best = _max_clique(masks, budget - nodes - words())
    except SizeLimitError:
        raise SizeLimitError(f"thick clique search exceeded {budget} nodes") from None
    return PatternWitness.of(kind, len(best), t, [groups[i] for i in best])


def largest_thick(g, t: int, budget: int = DEFAULT_SEARCH_BUDGET) -> PatternWitness:
    """Best of the two thick kinds; ties prefer the thick twist."""
    tw = largest_thick_of_kind(g, t, PatternKind.THICK_TWIST, budget)
    rb = largest_thick_of_kind(g, t, PatternKind.THICK_RAINBOW, budget)
    return tw if tw.k >= rb.k else rb


def largest_square_thick(g, budget: int = DEFAULT_SEARCH_BUDGET) -> PatternWitness:
    """Largest k such that a k-thick k-pattern (thickness equal to length)
    exists.  This is the quantity the thick-pattern page-number bounds are
    stated in; it is monotone in k since trimming groups of a larger square
    pattern yields a smaller one."""
    g = _as_graph(g)
    best = PatternWitness.of(PatternKind.THICK_TWIST, 0, 0, [])
    k = 1
    while k * k <= g.m:
        w = largest_thick(g, k, budget)
        if w.k < k:
            break
        best = PatternWitness.of(w.kind, k, k, [grp[:k] for grp in w.groups[:k]])
        k += 1
    return best


# Subdivision extraction of thick patterns from diamond patterns


def _quadrant_split(pi, matrix):
    """Split a diamond matrix into the preferred opposite-quadrant pair.

    pi is the grid's permutation: element e sits at x = e + 1, y = pi[e].
    Each element's quadrant code, 2 if it is in the lower half by x plus 1
    if it is in the lower half by y, is set once in a list over the ids,
    and each row or column counts its members of a quadrant from that.
    """
    ids = [e for row in matrix for e in row]
    half = len(ids) // 2
    code = [0] * len(pi)
    for e in sorted(ids)[:half]:
        code[e] = 2
    for e in sorted(ids, key=pi.__getitem__)[:half]:
        code[e] += 1
    quads = [list(map(code.__getitem__, row)) for row in matrix]
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
    of side k**7.  A round that finds no opposite quadrant pair holding a
    quarter of some leaf raises InsufficientInputError, as does an empty
    matching; when every round splits, the better of the thick twist and
    the thick rainbow the leaves give is returned, which may be thinner
    than k.  The subdivision reads only `grid.pi`.
    """
    from . import greene

    if k < 1:
        raise BadParamsError("k must be positive")
    matrix = greene.diamond_matrix(grid)
    if not matrix:
        raise InsufficientInputError("empty matching")
    rounds = 2 * math.ceil(math.log2(k)) if k > 1 else 0
    # A list, not the tuple: list.__getitem__, the sort key and the map
    # function below, is a plain method, about twice as fast as the tuple's
    # slot wrapper.
    pi = list(grid.pi)
    leaves = [matrix]
    for _ in range(rounds):
        nxt = []
        for leaf in leaves:
            nxt.extend(_quadrant_split(pi, leaf))
        leaves = nxt

    # A leaf is ordered by its least id (x = id + 1) and read at its least
    # value in pi.
    leaves.sort(key=lambda mat: min(map(min, mat)))
    lows = [min(min(map(pi.__getitem__, row)) for row in mat) for mat in leaves]
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
