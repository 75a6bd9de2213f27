"""The longest increasing chain, the clique search and the thick-pattern
search as they were before they moved onto the shared kernels, kept
verbatim as oracles for the differential tests: `_lis_indices` with its own
patience sort and parent links, `increasing_levels` as it was when it read
(x, y) points, `largest_thick_of_kind` with its recursive clique search
over the groups, `thick_with_recursive_grow`, the later search on
`_max_clique` that still enumerated the groups recursively, and
`_max_clique` (with its colouring `_color_classes`) and `thick_on_a_stack`,
the branch and bound and the group enumeration on an explicit stack that
the package ran before twists and thick patterns were read off stabbing
points.

The package must return the same chain as `_lis_indices`, the same levels
as `increasing_levels` given the points' y values, a twist of the size of
`_max_clique` over the crossing masks, and the same k as
`largest_thick_of_kind` and `thick_on_a_stack`; its witnesses may be other
cliques of that size, so they are checked with `witness_violations`
instead.  `thick_on_a_stack` must return the same witness as
`thick_with_recursive_grow`, or raise the same `SizeLimitError`, at every
budget.
"""

from __future__ import annotations

from mixedpages.core import conflict_masks
from mixedpages.errors import SizeLimitError
from mixedpages.patterns import (
    DEFAULT_SEARCH_BUDGET,
    PatternKind,
    PatternWitness,
    _as_graph,
)


def _lis_indices(points: list[tuple[int, int]]) -> list[int]:
    """Indices of one longest strictly-increasing subsequence (points by x)."""
    import bisect

    tails: list[int] = []
    tail_idx: list[int] = []
    parent = [-1] * len(points)
    for i, (_, y) in enumerate(points):
        pos = bisect.bisect_left(tails, y)
        if pos == len(tails):
            tails.append(y)
            tail_idx.append(i)
        else:
            tails[pos] = y
            tail_idx[pos] = i
        parent[i] = tail_idx[pos - 1] if pos else -1
    if not tails:
        return []
    out = []
    i = tail_idx[len(tails) - 1]
    while i != -1:
        out.append(i)
        i = parent[i]
    return out[::-1]


def increasing_levels(points) -> list[int]:
    """Length of the longest strictly increasing run of y values ending at
    each (x, y) point, in list order; the largest level is the LIS.

    Points must be sorted by x.  Patience sorting: `tails[l]` is the
    smallest y that ends a run of length l + 1 so far; O(m log m).
    """
    from bisect import bisect_left

    tails: list[int] = []
    levels = []
    for _, y in points:
        pos = bisect_left(tails, y)
        if pos == len(tails):
            tails.append(y)
        else:
            tails[pos] = y
        levels.append(pos + 1)
    return levels


def largest_thick_of_kind(
    g, t: int, kind: PatternKind, budget: int = DEFAULT_SEARCH_BUDGET
) -> PatternWitness:
    """Largest k with a t-thick k-twist (k-rainbow); exact within budget."""
    if t < 1:
        raise ValueError("thickness must be positive")
    g = _as_graph(g)
    cross, nest = conflict_masks(g)
    inner = nest if kind is PatternKind.THICK_TWIST else cross
    outer = cross if kind is PatternKind.THICK_TWIST else nest
    groups: list[tuple[tuple[int, ...], int, int]] = []
    nodes = 0

    def grow(members: list[int], cands: int, outer_common: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SizeLimitError(f"thick group enumeration exceeded {budget} nodes")
        if len(members) == t:
            mask = 0
            for e in members:
                mask |= 1 << e
            groups.append((tuple(members), mask, outer_common))
            return
        c = cands
        while c:
            e = (c & -c).bit_length() - 1
            c &= c - 1
            members.append(e)
            grow(members, c & inner[e], outer_common & outer[e])
            members.pop()

    grow([], (1 << g.m) - 1, (1 << g.m) - 1)

    # Maximum clique over groups under full pairwise outer compatibility.
    best: list[int] = []

    def compatible(i: int, j: int) -> bool:
        return groups[j][1] & ~groups[i][2] == 0

    def extend(chosen: list[int], cands: list[int]):
        nonlocal nodes, best
        nodes += 1
        if nodes > budget:
            raise SizeLimitError(f"thick clique search exceeded {budget} nodes")
        if not cands:
            if len(chosen) > len(best):
                best = chosen[:]
            return
        if len(chosen) + len(cands) <= len(best):
            return
        head, *rest = cands
        chosen.append(head)
        extend(chosen, [j for j in rest if compatible(head, j)])
        chosen.pop()
        extend(chosen, rest)

    extend([], list(range(len(groups))))
    chosen_groups = tuple(groups[i][0] for i in best)
    return PatternWitness(
        kind,
        len(best),
        t,
        tuple(e for grp in chosen_groups for e in grp),
        chosen_groups,
    )


def thick_with_recursive_grow(
    g, t: int, kind: PatternKind, budget: int = DEFAULT_SEARCH_BUDGET
) -> PatternWitness:
    """Largest k with a t-thick k-twist (k-rainbow); exact within budget."""
    if t < 1:
        raise ValueError("thickness must be positive")
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

    def grow(members: list[int], cands: int):
        nonlocal nodes
        nodes += 1
        if nodes + words() > budget:
            raise SizeLimitError(f"thick group enumeration exceeded {budget} nodes")
        if len(members) == t:
            groups.append(tuple(members))
            return
        c = cands
        while c:
            e = (c & -c).bit_length() - 1
            c &= c - 1
            members.append(e)
            grow(members, c & inner[e])
            members.pop()

    grow([], (1 << g.m) - 1)

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
    chosen_groups = tuple(groups[i] for i in best)
    return PatternWitness(
        kind,
        len(best),
        t,
        tuple(e for grp in chosen_groups for e in grp),
        chosen_groups,
    )


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


def thick_on_a_stack(
    g, t: int, kind: PatternKind, budget: int = DEFAULT_SEARCH_BUDGET
) -> PatternWitness:
    """Largest k with a t-thick k-twist (k-rainbow); exact within budget."""
    if t < 1:
        raise ValueError("thickness must be positive")
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
