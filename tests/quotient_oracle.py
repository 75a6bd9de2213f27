"""The quotient layer as it was before the incremental interval partition,
kept verbatim as oracles for the differential tests: the partition that
searched the whole block for a twist at every vertex, the star-forest split
that checked its page pairwise, the level loop that probed the whole graph
for a twist before each partition, and the two quadratic nesting-depth DPs
of `queue_cover` and `solver.queue_layout`, and the transfer that wrote
out the lift of a stack page and of a queue page separately, as mirror
images (`mirrored_transfer_layout`, with its report that also listed the
L- and B-set covers; it runs on this module's star-forest split and queue
cover), and the exact 3-coloring of the star conflict graph that recursed
once per star with no node cap (`recursive_color_stars`), and the
degeneracy order that took the least remaining vertex by a scan at every
step and the star coloring that tested every pair of stars for a shared
vertex (`_degeneracy_order` and `_color_stars`, which this module's
`star_forests` runs on).

The package must return exactly what these return, errors included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from mixedpages import greene, solver
from mixedpages.core import (
    OrderedGraph,
    PageAssignment,
    PageKind,
    PageSpec,
    Relation,
    classify_pair,
    grid_edge_order,
    to_grid,
    validate_assignment,
)
from mixedpages.errors import (
    DepthExceededError,
    InternalError,
    InvalidInputError,
    InvalidPageError,
)
from mixedpages.patterns import DEFAULT_SEARCH_BUDGET, has_twist
from mixedpages.quotient import (
    COLOR_LIMIT,
    IntervalPartition,
    Star,
    StarForest,
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


def _degeneracy_order(vertices: list[int], adj: dict[int, set[int]]) -> list[int]:
    remaining = set(vertices)
    degree = {v: len(adj[v] & remaining) for v in remaining}
    removal = []
    while remaining:
        v = min(remaining, key=lambda u: (degree[u], u))
        removal.append(v)
        remaining.remove(v)
        for w in adj[v]:
            if w in remaining:
                degree[w] -= 1
    return removal[::-1]


def _color_stars(stars: list[tuple[int, set[int]]]) -> list[int]:
    """Proper coloring of the star conflict graph, aiming for 3 colors:
    greedy by descending conflict degree, then, if that needs a 4th color,
    an exact search for 3 colors, bounded by `COLOR_LIMIT`."""
    n = len(stars)
    conflicts: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if stars[i][1] & stars[j][1]:
                conflicts[i].add(j)
                conflicts[j].add(i)
    order = sorted(range(n), key=lambda i: -len(conflicts[i]))
    colors = [-1] * n
    for i in order:
        used = {colors[j] for j in conflicts[i] if colors[j] != -1}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    if max(colors, default=-1) < 3:
        return colors

    # Greedy needed a 4th color: look for a proper 3-coloring exactly,
    # depth-first along `order` without recursion, placing at most
    # COLOR_LIMIT colors.  A position tries the colors after the one it
    # holds; with none left it is cleared and the search backs up.
    exact = [-1] * n
    pos = placed = 0
    while 0 <= pos < n:
        i = order[pos]
        c = exact[i] + 1
        while c < 3 and any(exact[j] == c for j in conflicts[i]):
            c += 1
        if c == 3:
            exact[i] = -1
            pos -= 1
            continue
        placed += 1
        if placed > COLOR_LIMIT:
            return colors
        exact[i] = c
        pos += 1
    return exact if pos == n else colors


def recursive_color_stars(stars: list[tuple[int, set[int]]]) -> list[int]:
    """Proper coloring of the star conflict graph, aiming for 3 colors."""
    n = len(stars)
    conflicts: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if stars[i][1] & stars[j][1]:
                conflicts[i].add(j)
                conflicts[j].add(i)
    order = sorted(range(n), key=lambda i: -len(conflicts[i]))
    colors = [-1] * n
    for i in order:
        used = {colors[j] for j in conflicts[i] if colors[j] != -1}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    if max(colors, default=-1) < 3:
        return colors

    # Greedy needed a 4th color: look for a proper 3-coloring exactly.
    exact = [-1] * n

    def assign(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for c in range(3):
            if all(exact[j] != c for j in conflicts[i]):
                exact[i] = c
                if assign(pos + 1):
                    return True
                exact[i] = -1
        return False

    return exact if assign(0) else colors


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


@dataclass
class TransferReport:
    pages_used: int
    ell: int
    m_intra: int
    k: int
    l_covers: list[tuple[int, int, bool]] = field(default_factory=list)
    b_covers: list[tuple[int, int, bool]] = field(default_factory=list)
    branches: set[str] = field(default_factory=set)

    @property
    def bound(self) -> float:
        """Transfer bound with the (k+1)-based log term used on both branches."""
        k = self.k
        return 6 * self.ell * 2 * k**7 * (
            1 + 14 * (k + 1) * math.log2(k + 1) + k
        ) + 2 * self.m_intra


def mirrored_transfer_layout(
    g: OrderedGraph,
    partition: IntervalPartition,
    layout_h: PageAssignment,
    k: int,
    budget: int = solver.DEFAULT_BUDGET,
) -> tuple[PageAssignment, TransferReport]:
    """Lift a valid layout of the quotient to a valid layout of the matching.

    Follows the transfer proof: shared pages for intra-interval edges, then
    per quotient page and per one-sided star forest a separated sub-layout
    for every star, with stack reuse and the L/B splitting of the per-star
    queues/stacks.  The output is validated unconditionally.
    """
    if not g.is_matching():
        raise InvalidInputError("transfer needs a matching")
    qres = quotient_graph(g, partition)
    h = qres.h
    if len(layout_h.page_of) != h.m:
        raise InvalidInputError("quotient layout does not cover the quotient")
    if validate_assignment(h, layout_h):
        raise InvalidInputError("quotient layout is invalid")

    pages: list[tuple[PageKind, list[int]]] = []

    def new_page(kind: PageKind, edges: list[int]) -> int:
        pages.append((kind, list(edges)))
        return len(pages) - 1

    # Intra-interval edges: a pool of m stacks plus m queues shared by all
    # intervals, where m is the worst interval page count.
    intra_by_block: dict[int, list[int]] = {}
    for e in qres.intra:
        intra_by_block.setdefault(partition.block_of(g.edges[e][0]), []).append(e)
    block_layouts = []
    m_intra = 0
    for block, ids in sorted(intra_by_block.items()):
        sub, idmap = subgraph(g, ids)
        _, assignment = solver.mixed_page_number(sub, budget)
        block_layouts.append((idmap, assignment))
        m_intra = max(m_intra, len(assignment.spec))
    stack_pool = [new_page(PageKind.STACK, []) for _ in range(m_intra)]
    queue_pool = [new_page(PageKind.QUEUE, []) for _ in range(m_intra)]
    for idmap, assignment in block_layouts:
        next_stack = 0
        next_queue = 0
        for p, members in enumerate(assignment.pages()):
            if not members:
                continue
            if assignment.spec.kinds[p] is PageKind.STACK:
                slot, next_stack = stack_pool[next_stack], next_stack + 1
            else:
                slot, next_queue = queue_pool[next_queue], next_queue + 1
            pages[slot][1].extend(idmap[e] for e in members)

    report = TransferReport(
        pages_used=0, ell=len(layout_h.spec), m_intra=m_intra, k=k
    )

    # Inter-interval edges, one quotient page and one star forest at a time.
    for p, members in enumerate(layout_h.pages()):
        if not members:
            continue
        kind = layout_h.spec.kinds[p]
        for forest in star_forests(h, members, kind):
            star_stacks: list[list[list[int]]] = []
            star_queues: list[list[list[int]]] = []
            for star in forest.stars:
                ids = [qres.origins[e] for e in star.edges]
                sub, idmap = subgraph(g, ids)
                grid = to_grid(sub)
                alpha = greene.approx_mixed_layout(grid)
                col_to_global = [idmap[e] for e in grid_edge_order(sub)]
                stacks, queues = [], []
                for q, page in enumerate(alpha.pages()):
                    bucket = stacks if alpha.spec.kinds[q] is PageKind.STACK else queues
                    bucket.append([col_to_global[e] for e in page])
                star_stacks.append(stacks)
                star_queues.append(queues)

            if kind is PageKind.STACK:
                # Stars do not cross: their alpha-stacks share pages.
                for i in range(max((len(s) for s in star_stacks), default=0)):
                    new_page(
                        PageKind.STACK,
                        [e for s in star_stacks for e in (s[i] if i < len(s) else [])],
                    )
                for j in range(max((len(q) for q in star_queues), default=0)):
                    report.branches.add("stack-page-L")
                    l_set, rest = [], []
                    for qs in star_queues:
                        twist = sorted(
                            qs[j] if j < len(qs) else [], key=lambda e: g.edges[e][0]
                        )
                        l_set.extend(twist[:k])
                        rest.extend(twist[k:])
                    stacks, exact = bounded_twist_stack_cover(g, l_set, budget)
                    report.l_covers.append((len(l_set), len(stacks), exact))
                    for page in stacks:
                        new_page(PageKind.STACK, page)
                    for page in queue_cover(g, rest):
                        new_page(PageKind.QUEUE, page)
            else:
                # Stars do not nest: their alpha-queues share pages.
                for i in range(max((len(q) for q in star_queues), default=0)):
                    new_page(
                        PageKind.QUEUE,
                        [e for q in star_queues for e in (q[i] if i < len(q) else [])],
                    )
                for j in range(max((len(s) for s in star_stacks), default=0)):
                    report.branches.add("queue-page-B")
                    b_set, rest = [], []
                    for ss in star_stacks:
                        rainbow = sorted(
                            ss[j] if j < len(ss) else [], key=lambda e: g.edges[e][0]
                        )
                        b_set.extend(rainbow[-k:])
                        rest.extend(rainbow[:-k])
                    for page in queue_cover(g, b_set):
                        new_page(PageKind.QUEUE, page)
                    stacks, exact = bounded_twist_stack_cover(g, rest, budget)
                    report.b_covers.append((len(rest), len(stacks), exact))
                    for page in stacks:
                        new_page(PageKind.STACK, page)

    kinds = []
    page_of: dict[int, int] = {}
    kept = 0
    for kind, members in pages:
        if not members:
            continue
        kinds.append(kind)
        for e in members:
            if e in page_of:
                raise InternalError(f"transfer assigned edge {e} twice")
            page_of[e] = kept
        kept += 1
    if len(page_of) != g.m:
        raise InternalError("transfer missed some edges")
    assignment = PageAssignment(PageSpec(tuple(kinds)), tuple([page_of[e] for e in range(g.m)]))
    bad = validate_assignment(g, assignment)
    if bad:
        raise InternalError(f"transfer produced an invalid layout: {bad[:3]}")
    report.pages_used = kept
    return assignment, report

