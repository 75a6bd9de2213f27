"""Interval partitions, quotient graphs, star-forest decompositions, and the
constructive transfer of a quotient layout back to the original matching,
plus the iterated-quotient driver.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .core import (
    OrderedGraph,
    PageAssignment,
    PageKind,
    Relation,
    _page_sweeps,
    classify_pair,
    conflict_masks,
    grid_edge_order,
    nesting_depths,
    to_grid,
    validate_assignment,
)
from .errors import (
    BadEdgeIdError,
    BudgetExceededError,
    DepthExceededError,
    InternalError,
    InvalidInputError,
    InvalidPageError,
)
from .patterns import (
    DEFAULT_SEARCH_BUDGET,
    PatternKind,
    PatternWitness,
    _twist_levels,
    has_twist,
)
from . import greene, solver

# Edge sets up to this size are covered by exact solves; larger ones by
# first-fit stacks (`bounded_twist_stack_cover`, the top quotient).
EXACT_LIMIT = 16
# Colors the exact 3-coloring of `_color_stars` may place before it gives up
# and keeps the greedy coloring.
COLOR_LIMIT = 10**5


@dataclass(frozen=True)
class IntervalPartition:
    """Consecutive vertex blocks covering 0..n-1; starts[0] is always 0."""

    n: int
    starts: tuple[int, ...]

    def __post_init__(self):
        if self.n > 0 and (not self.starts or self.starts[0] != 0):
            raise InvalidInputError("first interval must start at vertex 0")
        if list(self.starts) != sorted(set(self.starts)) or (
            self.starts and self.starts[-1] >= max(self.n, 1)
        ):
            raise InvalidInputError(f"bad interval starts {self.starts}")

    def blocks(self) -> list[tuple[int, int]]:
        """Half-open (start, end) pairs."""
        ends = list(self.starts[1:]) + [self.n]
        return list(zip(self.starts, ends))

    def block_of(self, v: int) -> int:
        return bisect_right(self.starts, v) - 1


def subgraph(g: OrderedGraph, edge_ids) -> tuple[OrderedGraph, list[int]]:
    """Subgraph on the same vertex set; returns it with sub->global id map."""
    ids = sorted(edge_ids, key=lambda e: g.edges[e])
    return OrderedGraph(g.n, tuple([g.edges[e] for e in ids]), g.multi), ids


def interval_partition_by_twists(
    g: OrderedGraph, k: int
) -> tuple[IntervalPartition, list[tuple[int, ...] | None]]:
    """Greedy left-to-right minimal blocks each containing a (k+1)-twist.

    The last block may lack one.  Returns the partition and, per block, the
    defining twist (global edge ids) or None.  Since a vertex contributes at
    most one edge to any twist, no block can induce a (k+2)-twist.

    The block grows one vertex v at a time, and before v joins it holds no
    (k+1)-twist.  A twist that appears with v therefore has an edge e = (a, v)
    ending at v.  The new edges share v and never cross one another, so the
    other k edges all cross e: they are block edges (x, y) with x < a < y < v.
    Edges that all contain the point a cross exactly when both endpoints
    increase, so the test is a longest increasing subsequence.  A vertex
    that brings no edge costs nothing; one that does costs O(b log b) per
    distinct left endpoint of its new edges, for a block of b edges.  Only
    the vertex that closes a block runs the clique search over the whole
    block (`has_twist`), which picks the reported twist.
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
        lefts = set()
        for e in by_right.get(v, ()):
            if g.edges[e][0] >= start:
                block_edges.append(e)
                lefts.add(g.edges[e][0])
        if not any(_twist_through(g, block_edges, a, v, k) for a in lefts):
            continue
        sub, ids = subgraph(g, block_edges)
        found = has_twist(sub, k + 1, DEFAULT_SEARCH_BUDGET)
        if found is None:
            raise InternalError(
                f"a {k + 1}-twist through vertex {v} escaped the clique search"
            )
        twists.append(tuple([ids[e] for e in found]))
        if v + 1 < g.n:
            starts.append(v + 1)
        start = v + 1
        block_edges = []
    if len(twists) < len(starts):
        twists.append(None)
    return IntervalPartition(g.n, tuple(starts)), twists


def _twist_through(g: OrderedGraph, block_edges: list[int], a: int, v: int, k: int) -> bool:
    """Do the block edges that cross (a, v) hold a k-twist?  Every block
    edge ends at or before v, so these are the edges with x < a < y < v,
    which all hold the point a strictly inside (`patterns._twist_levels`)."""
    stabbed = []
    for e in block_edges:
        x, y = g.edges[e]
        if x < a < y < v:
            stabbed.append((x, -y, e))
    return len(stabbed) >= k and max(_twist_levels(stabbed)) >= k


@dataclass(frozen=True)
class QuotientResult:
    h: OrderedGraph
    origins: tuple[int, ...]  # h edge id -> g edge id
    intra: tuple[int, ...]  # g edge ids dropped by the contraction


def quotient_graph(g: OrderedGraph, partition: IntervalPartition) -> QuotientResult:
    """Contract each interval; inter-block edges keep their identity as
    parallel edges of the multi quotient, intra-block edges are set aside."""
    if partition.n != g.n:
        raise InvalidInputError("partition does not match the vertex count")
    inter = []
    intra = []
    for e, (u, v) in enumerate(g.edges):
        bu, bv = partition.block_of(u), partition.block_of(v)
        if bu == bv:
            intra.append(e)
        else:
            inter.append(((bu, bv), e))
    inter.sort()
    h = OrderedGraph(len(partition.starts), tuple([p for p, _ in inter]), multi=True)
    return QuotientResult(h, tuple([e for _, e in inter]), tuple(intra))


# Star forests


@dataclass(frozen=True)
class Star:
    center: int
    edges: tuple[int, ...]


@dataclass(frozen=True)
class StarForest:
    side: str  # "right": centers right of all leaves; "left": centers left
    stars: tuple[Star, ...]


def _degeneracy_order(vertices: list[int], adj: dict[int, set[int]]) -> list[int]:
    """The reverse of the order that removes, one at a time, the remaining
    vertex of least (remaining degree, vertex).

    A heap holds an entry per vertex and degree.  Degrees only drop, so a
    vertex's entry with its current degree pops before its older ones,
    which are skipped once it is removed.  O(m log n), where taking the
    least remaining vertex at each step took O(n^2).
    """
    remaining = set(vertices)
    degree = {v: len(adj[v] & remaining) for v in remaining}
    heap = [(d, v) for v, d in degree.items()]
    heapify(heap)
    removal = []
    while heap:
        _, v = heappop(heap)
        if v not in remaining:
            continue
        removal.append(v)
        remaining.remove(v)
        for w in adj[v]:
            if w in remaining:
                degree[w] -= 1
                heappush(heap, (degree[w], w))
    return removal[::-1]


def _color_stars(stars: list[tuple[int, set[int]]]) -> list[int]:
    """Proper coloring of the star conflict graph, aiming for 3 colors:
    greedy by descending conflict degree, then, if that needs a 4th color,
    an exact search for 3 colors, bounded by `COLOR_LIMIT`.

    Two stars conflict when they share a vertex; the conflicts are read off
    the stars at each vertex, so their cost is the number of conflicting
    pairs, not of all pairs.
    """
    n = len(stars)
    at: dict[int, list[int]] = {}
    for i, (_, verts) in enumerate(stars):
        for w in verts:
            at.setdefault(w, []).append(i)
    conflicts: list[set[int]] = [set() for _ in range(n)]
    for group in at.values():
        for i in group:
            conflicts[i].update(group)
    for i in range(n):
        conflicts[i].discard(i)
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
    # held[3 * i + c] counts the neighbours of star i that hold color c,
    # kept up to date on every place and clear, so a color is tested in
    # O(1) rather than by a scan of the neighbours.
    exact = [-1] * n
    held = [0] * (3 * n)
    near = [[3 * j for j in conflicts[i]] for i in range(n)]
    pos = placed = 0
    while 0 <= pos < n:
        i = order[pos]
        old = exact[i]
        if old >= 0:
            for j in near[i]:
                held[j + old] -= 1
        c = old + 1
        while c < 3 and held[3 * i + c]:
            c += 1
        if c == 3:
            exact[i] = -1
            pos -= 1
            continue
        placed += 1
        if placed > COLOR_LIMIT:
            return colors
        exact[i] = c
        for j in near[i]:
            held[j + c] += 1
        pos += 1
    return exact if pos == n else colors


def star_forests(
    h: OrderedGraph, page_edges, kind: PageKind
) -> list[StarForest]:
    """Partition one valid page into one-sided star forests.

    2-degeneracy elimination gives stars (each vertex keeps its successor
    edges); the stars are colored into few vertex-disjoint groups and each
    group is split by center side, so three colors give at most six forests.
    `_color_stars` finds three on random maximal stack pages of up to 30
    vertices, but maximal queue pages of that size can need up to 11
    forests, and a page too large for its exact search keeps the greedy
    colors.  Validity is decided by one sweep of the page (as in
    `validate_assignment`); only a failed sweep, or a repeated or unknown
    edge id, runs the pairwise scan that names the offending pair.
    An unknown id always raises `BadEdgeIdError`, also on a one-edge page.
    """
    page_edges = sorted(page_edges)
    ids_ok = not page_edges or (0 <= page_edges[0] and page_edges[-1] < h.m)
    ids_ok = ids_ok and all(e1 < e2 for e1, e2 in zip(page_edges, page_edges[1:]))
    if not (ids_ok and _page_sweeps(h.edges, page_edges, kind is PageKind.STACK)):
        bad = Relation.CROSS if kind is PageKind.STACK else Relation.NEST
        for i, e1 in enumerate(page_edges):
            for e2 in page_edges[i + 1:]:
                if classify_pair(h, e1, e2).kind is bad:
                    raise InvalidPageError(f"edges {e1},{e2} conflict on a {kind.value} page")
        if not ids_ok:  # a one-edge page: the scan has no pair to reject
            raise BadEdgeIdError(f"no edge {page_edges[0]}")
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


# Page-cover subroutines


def queue_cover(g: OrderedGraph, edge_ids) -> list[list[int]]:
    """Partition into queues by nesting depth; uses exactly largest-rainbow
    many queues, which is optimal."""
    ids = sorted(edge_ids)
    levels: dict[int, list[int]] = {}
    for e, d in zip(ids, nesting_depths([g.edges[e] for e in ids])):
        levels.setdefault(d, []).append(e)
    return [levels[d] for d in sorted(levels)]


def bounded_twist_stack_cover(
    g: OrderedGraph,
    edge_ids,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> tuple[list[list[int]], bool]:
    """Cover an edge set by stacks: exact up to `EXACT_LIMIT` edges,
    first-fit beyond.

    Stands in for the bounded-twist coloring subroutine; the returned flag
    reports which route ran (True for the exact one).
    """
    ids = sorted(edge_ids)
    if not ids:
        return [], True
    sub, idmap = subgraph(g, ids)
    if len(ids) <= EXACT_LIMIT:
        try:
            _, assignment = solver.stack_number(sub, budget)
            return (
                [[idmap[e] for e in page] for page in assignment.pages() if page],
                True,
            )
        except BudgetExceededError:
            pass
    cross, _ = conflict_masks(sub)
    order = sorted(range(sub.m), key=lambda e: (-cross[e].bit_count(), e))
    stacks: list[tuple[int, list[int]]] = []  # (mask, members)
    for e in order:
        for i, (mask, members) in enumerate(stacks):
            if not cross[e] & mask:
                stacks[i] = (mask | 1 << e, members + [e])
                break
        else:
            stacks.append((1 << e, [e]))
    return [[idmap[e] for e in members] for _, members in stacks], False


# Layout transfer (quotient to original)


@dataclass
class TransferReport:
    pages_used: int
    ell: int
    m_intra: int
    k: int
    branches: set[str] = field(default_factory=set)

    @property
    def bound(self) -> float:
        """Transfer bound with the (k+1)-based log term used on both branches."""
        k = self.k
        return 6 * self.ell * 2 * k**7 * (
            1 + 14 * (k + 1) * math.log2(k + 1) + k
        ) + 2 * self.m_intra


def transfer_layout(
    g: OrderedGraph,
    partition: IntervalPartition,
    layout_h: PageAssignment,
    k: int,
    budget: int = solver.DEFAULT_BUDGET,
) -> tuple[PageAssignment, TransferReport]:
    """Lift a valid layout of the quotient to a valid layout of the matching.

    Follows the transfer proof: intra-interval edges share a pool of pages,
    and each quotient page is split into one-sided star forests whose stars
    get separated sub-layouts.  One lift serves both page kinds, a queue
    page being a stack page mirrored (twists and rainbows swapped).  The
    stars' sub-layout pages of the page's kind share pages.  Of their j-th
    pages of the other kind, sorted by left endpoint (descending on a queue
    page), the first k edges per star form the L-set (the B-set on a queue
    page) and go to pages of the page's kind, the rest to the other kind.
    The output is validated unconditionally.
    """
    if not g.is_matching():
        raise InvalidInputError("transfer needs a matching")
    if k < 1:
        raise InvalidInputError("k must be positive")
    qres = quotient_graph(g, partition)
    h = qres.h
    if len(layout_h.page_of) != h.m:
        raise InvalidInputError("quotient layout does not cover the quotient")
    if validate_assignment(h, layout_h):
        raise InvalidInputError("quotient layout is invalid")

    # Intra-interval edges: the i-th stack (queue) page of each interval's
    # own layout joins the i-th shared intra stack (queue) page, so at most
    # m stacks and m queues, m the worst interval page count.
    intra_by_block: dict[int, list[int]] = {}
    for e in qres.intra:
        intra_by_block.setdefault(partition.block_of(g.edges[e][0]), []).append(e)
    intra: dict[PageKind, list[list[int]]] = {PageKind.STACK: [], PageKind.QUEUE: []}
    m_intra = 0
    for block, ids in sorted(intra_by_block.items()):
        sub, idmap = subgraph(g, ids)
        _, assignment = solver.mixed_page_number(sub, budget)
        m_intra = max(m_intra, len(assignment.spec))
        used = {PageKind.STACK: 0, PageKind.QUEUE: 0}
        for kind, members in zip(assignment.spec.kinds, assignment.pages()):
            if members:
                shared = intra[kind]
                if used[kind] == len(shared):
                    shared.append([])
                shared[used[kind]].extend(idmap[e] for e in members)
                used[kind] += 1
    pages = [(kind, edges) for kind, shared in intra.items() for edges in shared]

    report = TransferReport(
        pages_used=0, ell=len(layout_h.spec), m_intra=m_intra, k=k
    )

    # Inter-interval edges, one quotient page and one star forest at a time.
    for p, members in enumerate(layout_h.pages()):
        if not members:
            continue
        kind = layout_h.spec.kinds[p]
        stack_page = kind is PageKind.STACK
        other = PageKind.QUEUE if stack_page else PageKind.STACK
        for forest in star_forests(h, members, kind):
            own: list[list[list[int]]] = []  # per star, its alpha pages of `kind`
            rest: list[list[list[int]]] = []  # and of `other`
            for star in forest.stars:
                ids = [qres.origins[e] for e in star.edges]
                sub, idmap = subgraph(g, ids)
                grid = to_grid(sub)
                alpha = greene.approx_mixed_layout(grid)
                col_to_global = [idmap[e] for e in grid_edge_order(sub)]
                own.append([])
                rest.append([])
                for q, page in enumerate(alpha.pages()):
                    bucket = own if alpha.spec.kinds[q] is kind else rest
                    bucket[-1].append([col_to_global[e] for e in page])

            for i in range(max((len(s) for s in own), default=0)):
                pages.append((kind, [e for s in own for e in (s[i] if i < len(s) else [])]))
            for j in range(max((len(s) for s in rest), default=0)):
                report.branches.add("stack-page-L" if stack_page else "queue-page-B")
                head, tail = [], []
                for s in rest:
                    piece = sorted(
                        s[j] if j < len(s) else [],
                        key=lambda e: g.edges[e][0],
                        reverse=not stack_page,
                    )
                    head.extend(piece[:k])
                    tail.extend(piece[k:])
                for cover_kind, ids in ((kind, head), (other, tail)):
                    if cover_kind is PageKind.STACK:
                        cover, _ = bounded_twist_stack_cover(g, ids, budget)
                    else:
                        cover = queue_cover(g, ids)
                    pages.extend((cover_kind, page) for page in cover)

    assignment = PageAssignment.from_pages(pages, g.m)
    bad = validate_assignment(g, assignment)
    if bad:
        raise InternalError(f"transfer produced an invalid layout: {bad[:3]}")
    report.pages_used = len(assignment.spec)
    return assignment, report


def iterated_quotient_layout(
    g: OrderedGraph,
    k: int,
    budget: int = solver.DEFAULT_BUDGET,
) -> PageAssignment:
    """Contract (k+1)-twist intervals until no (k+1)-twist remains, lay out
    the top quotient, and unwind through transfer_layout.

    More than k contraction levels certify a k-thick rainbow, which is
    raised as DepthExceededError carrying the witness.
    """
    assignment, _ = iterated_quotient_layout_detailed(g, k, budget)
    return assignment


def iterated_quotient_layout_detailed(
    g: OrderedGraph,
    k: int,
    budget: int = solver.DEFAULT_BUDGET,
):
    """`iterated_quotient_layout` with the per-level `TransferReport`s,
    outermost level last.

    Each level partitions the current graph with
    `interval_partition_by_twists` and contracts it.  The levels stop when
    the first block holds no (k+1)-twist: that block is then the whole
    graph, so the graph has no (k+1)-twist and its layout is the top
    quotient's.  If the graph still holds one after k-1 contractions,
    DepthExceededError is raised; only then is a (k+1)-twist of the whole
    current graph searched for, as the top of the witness chain.
    """
    if not g.is_matching():
        raise InvalidInputError("iterated quotient layout needs a matching")
    levels = []
    current = g
    origin = list(range(g.m))
    while True:
        partition, twists = interval_partition_by_twists(current, k)
        if not twists or twists[0] is None:
            break
        if len(levels) == k - 1:
            # A further contraction would exceed k quotient levels, which
            # certifies a thick rainbow via the nested-twist chain.
            top_twist = has_twist(current, k + 1, DEFAULT_SEARCH_BUDGET)
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

    if current.m <= EXACT_LIMIT:
        _, top = solver.mixed_page_number(current, budget)
    else:
        stacks, _ = bounded_twist_stack_cover(current, range(current.m), budget)
        top = PageAssignment.from_pages(
            [(PageKind.STACK, page) for page in stacks], current.m
        )

    reports = []
    layout = top
    for level_g, partition, _, _ in reversed(levels):
        layout, report = transfer_layout(level_g, partition, layout, k, budget)
        reports.append(report)
    return layout, reports


def _nested_twists_witness(g, current, origin, partition, twists, top_twist, levels, k):
    """Thick-rainbow witness from the chain of nested (k+1)-twists.

    Each level's twist nests, after trimming to its first k edges, above the
    interval holding the next one; untrimmed groups are kept whenever the
    nesting already holds, which yields thickness k+1 on inputs like the
    thick rainbows themselves.
    """
    chain: list[list[int]] = []

    def push(graph, origin_map, twist_ids) -> int:
        ordered = sorted(twist_ids, key=lambda e: graph.edges[e][0])
        chain.append([origin_map[e] for e in ordered])
        return graph.edges[ordered[-1]][0]

    u = push(current, origin, top_twist)
    block_twist = twists[partition.block_of(u)]
    if block_twist is not None and set(block_twist) != set(top_twist):
        u = push(current, origin, block_twist)
    for level_g, _, level_twists, level_origin in reversed(levels):
        inner = level_twists[u]
        if inner is None:
            break
        u = push(level_g, level_origin, inner)

    def nests_above(outer: int, inner: int) -> bool:
        return classify_pair(g, outer, inner).kind is Relation.NEST and (
            g.edges[outer][0] < g.edges[inner][0]
        )

    for i in range(len(chain) - 1):
        while len(chain[i]) > k and not all(
            nests_above(a, b) for a in chain[i] for b in chain[i + 1]
        ):
            chain[i].pop()
    t = min(len(grp) for grp in chain)
    return PatternWitness.of(
        PatternKind.THICK_RAINBOW, len(chain), t, [grp[:t] for grp in chain]
    )
