"""The longest increasing chain and the thick-pattern search as they were
before they moved onto the shared kernels, kept verbatim as oracles for the
differential tests: `_lis_indices` with its own patience sort and parent
links, and `largest_thick_of_kind` with its recursive clique search over
the groups.

The package must return the same chain as `_lis_indices`, and the same k
as `largest_thick_of_kind`; its thick witness may be another clique of
that size, so it is checked with `witness_violations` instead.
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
