"""Interval partitions, quotient graphs, star-forest decompositions, and the
constructive transfer of a quotient layout back to the original matching,
plus the iterated-quotient driver and the degree reduction via edge coloring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import (
    OrderedGraph,
    PageAssignment,
    PageKind,
    PageSpec,
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
    _lis_indices,
    has_twist,
)
from . import greene, solver


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

    @staticmethod
    def singletons(n: int) -> "IntervalPartition":
        return IntervalPartition(n, tuple(range(n)))

    @staticmethod
    def whole(n: int) -> "IntervalPartition":
        return IntervalPartition(n, (0,) if n else ())

    def blocks(self) -> list[tuple[int, int]]:
        """Half-open (start, end) pairs."""
        ends = list(self.starts[1:]) + [self.n]
        return list(zip(self.starts, ends))

    def block_of(self, v: int) -> int:
        import bisect

        return bisect.bisect_right(self.starts, v) - 1


def subgraph(g: OrderedGraph, edge_ids) -> tuple[OrderedGraph, list[int]]:
    """Subgraph on the same vertex set; returns it with sub->global id map."""
    ids = sorted(edge_ids, key=lambda e: g.edges[e])
    return OrderedGraph(g.n, tuple([g.edges[e] for e in ids]), g.multi), ids


def interval_partition_by_twists(
    g: OrderedGraph, k: int, budget: int = DEFAULT_SEARCH_BUDGET
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
    block (`has_twist`, with `budget`), which picks the reported twist.
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
        found = has_twist(sub, k + 1, budget)
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
    edge ends at or before v, so these are the edges with x < a < y < v."""
    stabbed = []
    for e in block_edges:
        x, y = g.edges[e]
        if x < a < y < v:
            stabbed.append((x, y))
    if len(stabbed) < k:
        return False
    # Equal left endpoints in decreasing right order: two edges that share a
    # vertex never both join a strictly increasing run.
    stabbed.sort(key=lambda xy: (xy[0], -xy[1]))
    return len(_lis_indices(stabbed)) >= k


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


def star_forests(
    h: OrderedGraph, page_edges, kind: PageKind
) -> list[StarForest]:
    """Partition one valid page into at most six one-sided star forests.

    2-degeneracy elimination gives stars (each vertex keeps its successor
    edges); the stars are colored into few vertex-disjoint groups and each
    group is split by center side.  Validity is decided by one sweep of the
    page (as in `validate_assignment`); only a failed sweep, or a repeated or
    unknown edge id, runs the pairwise scan that names the offending pair.
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
    exact_limit: int = 16,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> tuple[list[list[int]], bool]:
    """Cover an edge set by stacks: exact for small sets, first-fit beyond.

    Stands in for the bounded-twist coloring subroutine; the transfer page
    bound is only asserted when the exact route ran.
    """
    ids = sorted(edge_ids)
    if not ids:
        return [], True
    sub, idmap = subgraph(g, ids)
    if len(ids) <= exact_limit:
        try:
            _, assignment = solver.stack_number(sub, budget)
            return (
                [[idmap[e] for e in page] for page in assignment.pages() if page],
                True,
            )
        except BudgetExceededError:
            pass
    cross, _ = conflict_masks(sub)
    order = sorted(range(sub.m), key=lambda e: (-bin(cross[e]).count("1"), e))
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


def transfer_layout(
    g: OrderedGraph,
    partition: IntervalPartition,
    layout_h: PageAssignment,
    k: int,
    exact_limit: int = 16,
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
                    stacks, exact = bounded_twist_stack_cover(
                        g, l_set, exact_limit, budget
                    )
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
                    stacks, exact = bounded_twist_stack_cover(
                        g, rest, exact_limit, budget
                    )
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


def iterated_quotient_layout(
    g: OrderedGraph,
    k: int,
    exact_limit: int = 16,
    budget: int = solver.DEFAULT_BUDGET,
) -> PageAssignment:
    """Contract (k+1)-twist intervals until no (k+1)-twist remains, lay out
    the top quotient, and unwind through transfer_layout.

    More than k contraction levels certify a k-thick rainbow, which is
    raised as DepthExceededError carrying the witness.
    """
    assignment, _ = iterated_quotient_layout_detailed(g, k, exact_limit, budget)
    return assignment


def iterated_quotient_layout_detailed(
    g: OrderedGraph,
    k: int,
    exact_limit: int = 16,
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

    if current.m <= exact_limit:
        _, top = solver.mixed_page_number(current, budget)
    else:
        stacks, _ = bounded_twist_stack_cover(
            current, range(current.m), exact_limit, budget
        )
        page_of = {}
        for p, members in enumerate(stacks):
            for e in members:
                page_of[e] = p
        top = PageAssignment(
            PageSpec.split(len(stacks), 0),
            tuple([page_of[e] for e in range(current.m)]),
        )

    reports = []
    layout = top
    for level_g, partition, _, _ in reversed(levels):
        layout, report = transfer_layout(
            level_g, partition, layout, k, exact_limit, budget
        )
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
    groups = tuple(tuple(grp[:t]) for grp in chain)
    return PatternWitness(
        PatternKind.THICK_RAINBOW,
        len(groups),
        t,
        tuple(e for grp in groups for e in grp),
        tuple(groups),
    )


# Degree reduction: proper edge coloring into matchings


def edge_color(g: OrderedGraph) -> list[list[int]]:
    """Proper edge coloring with at most Delta+1 colors, returned as a
    partition of edge ids into matchings.

    Plain greedy (smallest color free at both endpoints) is used when it
    happens to stay within Delta+1, which it does on paths and stars; the
    fan-rotation recoloring guarantees the bound otherwise.
    """
    if g.multi:
        raise InvalidInputError("edge coloring expects a simple graph")
    delta = g.max_degree()
    if g.m == 0:
        return []
    used = [set() for _ in range(g.n)]
    greedy: dict[int, list[int]] = {}
    top = 0
    for e, (u, v) in enumerate(g.edges):
        c = 1
        while c in used[u] or c in used[v]:
            c += 1
        used[u].add(c)
        used[v].add(c)
        greedy.setdefault(c, []).append(e)
        top = max(top, c)
    if top <= delta + 1:
        return [greedy[c] for c in sorted(greedy)]
    return _fan_rotation_color(g, delta)


def _free_color(used: dict[int, int], palette) -> int:
    """The first color of the palette that `used` does not hold."""
    for c in palette:
        if c not in used:
            return c
    raise InternalError("no free color within Delta+1")


def _fan_rotation_color(g: OrderedGraph, delta: int) -> list[list[int]]:
    palette = range(1, delta + 2)
    color: dict[tuple[int, int], int] = {}
    incident: dict[int, dict[int, int]] = {v: {} for v in range(g.n)}  # v -> color -> other

    def free(v: int) -> int:
        return _free_color(incident[v], palette)

    def set_color(u: int, v: int, c: int | None):
        old = color.pop((min(u, v), max(u, v)), None)
        if old is not None:
            del incident[u][old]
            del incident[v][old]
        if c is not None:
            color[(min(u, v), max(u, v))] = c
            incident[u][c] = v
            incident[v][c] = u

    def get_color(u: int, v: int) -> int | None:
        return color.get((min(u, v), max(u, v)))

    for u, v in g.edges:
        # Maximal fan of u starting at v.
        fan = [v]
        seen = {v}
        while True:
            last = fan[-1]
            grown = False
            for c, w in sorted(incident[u].items()):
                if w not in seen and c not in incident[last]:
                    fan.append(w)
                    seen.add(w)
                    grown = True
                    break
            if not grown:
                break
        c = free(u)
        d = free(fan[-1])
        if c != d and d in incident[u]:
            # Invert the cd path starting at u (first edge colored d); this
            # frees d at u without disturbing c/d-freeness elsewhere.
            path = [u]
            want = d
            while want in incident[path[-1]]:
                path.append(incident[path[-1]][want])
                want = c if want == d else d
            for i in range(len(path) - 1):
                set_color(path[i], path[i + 1], None)
            want = c
            for i in range(len(path) - 1):
                set_color(path[i], path[i + 1], want)
                want = c if want == d else d

        # First fan prefix that is still a fan and ends where d is free.
        w_idx = None
        for i, x in enumerate(fan):
            if i > 0:
                ci = get_color(u, x)
                if ci is None or ci in incident[fan[i - 1]]:
                    break
            if d not in incident[x]:
                w_idx = i
                break
        if w_idx is None:
            raise InternalError("fan rotation failed to find a target")
        shifted = [get_color(u, fan[i + 1]) for i in range(w_idx)]
        for i in range(w_idx + 1):
            if get_color(u, fan[i]) is not None:
                set_color(u, fan[i], None)
        for i in range(w_idx):
            set_color(u, fan[i], shifted[i])
        set_color(u, fan[w_idx], d)

    out: dict[int, list[int]] = {}
    for e, (a, b) in enumerate(g.edges):
        out.setdefault(color[(a, b)], []).append(e)
    matchings = [out[c] for c in sorted(out)]
    for matching in matchings:
        seen = set()
        for e in matching:
            a, b = g.edges[e]
            if a in seen or b in seen:
                raise InternalError(f"color class {matching} is not a matching")
            seen.update((a, b))
    if len(matchings) > delta + 1:
        raise InternalError(f"{len(matchings)} colors exceed Delta+1 = {delta + 1}")
    return matchings
