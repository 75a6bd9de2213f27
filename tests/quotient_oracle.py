"""The quotient layer as it was before the incremental interval partition,
kept verbatim as oracles for the differential tests: the partition that
searched the whole block for a twist at every vertex, the star-forest split
that checked its page pairwise, the level loop that probed the whole graph
for a twist before each partition, and the two quadratic nesting-depth DPs
of `queue_cover` and `solver.queue_layout`.

The package must return exactly what these return, errors included.
"""

from __future__ import annotations

from mixedpages import solver
from mixedpages.core import (
    OrderedGraph,
    PageAssignment,
    PageKind,
    PageSpec,
    Relation,
    classify_pair,
)
from mixedpages.errors import DepthExceededError, InvalidInputError, InvalidPageError
from mixedpages.patterns import DEFAULT_SEARCH_BUDGET, has_twist
from mixedpages.quotient import (
    IntervalPartition,
    Star,
    StarForest,
    _color_stars,
    _degeneracy_order,
    _nested_twists_witness,
    bounded_twist_stack_cover,
    quotient_graph,
    subgraph,
    transfer_layout,
)


def interval_partition_by_twists(
    g: OrderedGraph, k: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[IntervalPartition, list[tuple[int, ...] | None]]:
    """Greedy left-to-right minimal blocks each containing a (k+1)-twist.

    The last block may lack one.  Returns the partition and, per block, the
    defining twist (global edge ids) or None.  Since a vertex contributes at
    most one edge to any twist, no block can induce a (k+2)-twist.
    """
    if k < 1:
        raise InvalidInputError("k must be positive")
    starts = [0] if g.n else []
    twists: list[tuple[int, ...] | None] = []
    block_edges: list[int] = []
    by_right: dict[int, list[int]] = {}
    for e, (u, v) in enumerate(g.edges):
        by_right.setdefault(v, []).append(e)
    start = 0
    for v in range(g.n):
        for e in by_right.get(v, ()):
            if g.edges[e][0] >= start:
                block_edges.append(e)
        if not block_edges:
            continue
        sub, ids = subgraph(g, block_edges)
        found = has_twist(sub, k + 1, budget)
        if found is not None:
            twists.append(tuple(ids[e] for e in found))
            if v + 1 < g.n:
                starts.append(v + 1)
            start = v + 1
            block_edges = []
    if len(twists) < len(starts):
        twists.append(None)
    return IntervalPartition(g.n, tuple(starts)), twists


def star_forests(
    h: OrderedGraph, page_edges, kind: PageKind
) -> list[StarForest]:
    """Partition one valid page into at most six one-sided star forests.

    2-degeneracy elimination gives stars (each vertex keeps its successor
    edges); the stars are colored into few vertex-disjoint groups and each
    group is split by center side.
    """
    page_edges = sorted(page_edges)
    bad = Relation.CROSS if kind is PageKind.STACK else Relation.NEST
    for i, e1 in enumerate(page_edges):
        for e2 in page_edges[i + 1:]:
            if classify_pair(h, e1, e2).kind is bad:
                raise InvalidPageError(f"edges {e1},{e2} conflict on a {kind.value} page")
    if not page_edges:
        return []

    adj: dict[int, set[int]] = {}
    for e in page_edges:
        u, v = h.edges[e]
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    order = _degeneracy_order(sorted(adj), adj)
    pos = {v: i for i, v in enumerate(order)}

    star_edges: dict[int, list[int]] = {}
    for e in page_edges:
        u, v = h.edges[e]
        center = u if pos[u] < pos[v] else v
        star_edges.setdefault(center, []).append(e)

    centers = sorted(star_edges, key=lambda c: pos[c])
    span = []
    for c in centers:
        verts = {c}
        for e in star_edges[c]:
            u, v = h.edges[e]
            verts.add(v if u == c else u)
        span.append((c, verts))
    colors = _color_stars(span)

    forests: dict[tuple[int, str], list[Star]] = {}
    for (c, _), color in zip(span, colors):
        left_leaves = [e for e in star_edges[c] if (h.edges[e][0] if h.edges[e][1] == c else h.edges[e][1]) < c]
        right_leaves = [e for e in star_edges[c] if e not in left_leaves]
        if len(star_edges[c]) == 1:
            # Lone edge: orient its center to the right endpoint.
            e = star_edges[c][0]
            forests.setdefault((color, "right"), []).append(
                Star(h.edges[e][1], (e,))
            )
            continue
        if left_leaves:
            forests.setdefault((color, "right"), []).append(Star(c, tuple(left_leaves)))
        if right_leaves:
            forests.setdefault((color, "left"), []).append(Star(c, tuple(right_leaves)))
    return [
        StarForest(side, tuple(stars))
        for (_, side), stars in sorted(forests.items(), key=lambda kv: kv[0])
    ]


def queue_cover(g: OrderedGraph, edge_ids) -> list[list[int]]:
    """Partition into queues by nesting depth; uses exactly largest-rainbow
    many queues, which is optimal."""
    ids = sorted(edge_ids, key=lambda e: (g.edges[e][1] - g.edges[e][0], e))
    depth: dict[int, int] = {}
    for pos, e in enumerate(ids):
        u, v = g.edges[e]
        depth[e] = 1
        for f in ids[:pos]:
            x, y = g.edges[f]
            if u < x and y < v:
                depth[e] = max(depth[e], depth[f] + 1)
    levels: dict[int, list[int]] = {}
    for e in sorted(edge_ids):
        levels.setdefault(depth[e], []).append(e)
    return [levels[d] for d in sorted(levels)]


def iterated_quotient_layout_detailed(
    g: OrderedGraph,
    k: int,
    exact_limit: int = 16,
    budget: int = solver.DEFAULT_BUDGET,
):
    if not g.is_matching():
        raise InvalidInputError("iterated quotient layout needs a matching")
    levels = []
    current = g
    origin = list(range(g.m))
    while True:
        top_twist = has_twist(current, k + 1, DEFAULT_SEARCH_BUDGET)
        if top_twist is None:
            break
        partition, twists = interval_partition_by_twists(current, k)
        if len(levels) == k - 1:
            # A further contraction would exceed k quotient levels, which
            # certifies a thick rainbow via the nested-twist chain.
            raise DepthExceededError(
                f"more than {k} quotient levels needed",
                witness=_nested_twists_witness(
                    g, current, origin, partition, twists, top_twist, levels, k
                ),
            )
        qres = quotient_graph(current, partition)
        levels.append((current, partition, twists, origin))
        origin = [origin[qres.origins[e]] for e in range(qres.h.m)]
        current = qres.h

    if current.m <= exact_limit:
        _, top = solver.mixed_page_number(current, budget)
    else:
        stacks, _ = bounded_twist_stack_cover(current, range(current.m), budget=budget)
        page_of = {}
        for p, members in enumerate(stacks):
            for e in members:
                page_of[e] = p
        top = PageAssignment(
            PageSpec.split(len(stacks), 0),
            tuple(page_of[e] for e in range(current.m)),
        )

    reports = []
    layout = top
    for level_g, partition, _, _ in reversed(levels):
        layout, report = transfer_layout(level_g, partition, layout, k, budget=budget)
        reports.append(report)
    return layout, reports


def queue_layout(g: OrderedGraph) -> PageAssignment:
    """Optimal pure-queue layout by nesting depth; exact in polynomial time.

    Edges at the same nesting depth never nest, and the number of depths
    equals the largest rainbow, which is also a lower bound.
    """
    order = sorted(range(g.m), key=lambda e: (g.edges[e][1] - g.edges[e][0], e))
    depth = [1] * g.m
    for pos, e in enumerate(order):
        u, v = g.edges[e]
        for f in order[:pos]:
            x, y = g.edges[f]
            if u < x and y < v:
                depth[e] = max(depth[e], depth[f] + 1)
    q = max(depth, default=0)
    return PageAssignment(
        PageSpec.split(0, q), tuple(d - 1 for d in depth)
    )
