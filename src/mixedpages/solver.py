"""Exact feasibility and page numbers by pruned backtracking, and
verdicts without search where the vertex order makes them polynomial.

For a fixed vertex order, specs of at most two pages are decided in
polynomial time: one page holds no conflicting pair, and two pages are a
2-SAT instance (two stacks: the crossing graph is bipartite; two queues: the
nesting graph is).  `mode_verdict` decides them without search, in 0
nodes.  With three or more pages the decision is NP-hard in general, so
every search carries a node budget and reports "unknown" (budget_hit) rather
than a wrong verdict when it runs out; where any of several splits will do,
`mode_verdict` searches them as a portfolio.  Callers that need a layout,
not only a verdict (`feasible`, `mixed_page_number`, `stack_number`),
search one split at a time.  `mixed_page_number` and `stack_number` search
a split of two pages only once 2-SAT (`_two_pages`) fits it, so no
two-page split they search is infeasible.

The exceptions are separated graphs, where every left endpoint precedes
every right one.  On their sorted edges crossing and nesting are strict
partial orders, so a pure split (all stacks or all queues) of any size
fits exactly when no chain is longer than its page count: `mode_verdict`
decides such a spec of a separated pattern without search when its caller
says the masks are separated.  On a separated matching every two edges cross
or nest, and a split of s stacks and q queues is a partition of its
permutation into s decreasing and q increasing subsequences, polynomial
for fixed s and q.  `mixed_page_number` decides every split of such an
input without search (the RSK shape, Greene's bound and
`greene.split_fits`) and searches only the first split that fits, for its
layout.  The shape and 2-SAT count 0 nodes against a budget; only the DP's
states and the searches' nodes count.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .core import (
    OrderedGraph,
    PageAssignment,
    PageKind,
    PageSpec,
    conflict_masks,
    nesting_depths,
    validate_assignment,
)
from .errors import BudgetExceededError, InternalError, InvalidInputError, SizeLimitError
from .patterns import _max_clique, rainbow_chain

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class SolveResult:
    feasible: bool
    assignment: PageAssignment | None
    nodes: int
    budget_hit: bool

    @property
    def status(self) -> str:
        if self.feasible:
            return "feasible"
        return "unknown" if self.budget_hit else "infeasible"


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

    The search runs on an explicit stack.  Edges are placed in order of
    descending conflict degree, each tried on the pages in index order; a
    node is one placement attempt (plus the root), and the budget is checked
    before success, so `nodes` is exact and at most budget + 1.  Same-kind
    empty pages are interchangeable, so only the first empty page of a kind
    may be opened.  Pages of one kind are therefore opened in index order
    and closed in reverse, so the used pages of a kind are always a prefix
    of that kind's pages: an empty page is the first empty one of its kind
    exactly when the previous page of its kind is in use.

    Forward checking (Haralick & Elliott, 1980): `barred[p]` is the union of
    the conflict masks of the edges on page p (`cross` on a stack, `nest` on
    a queue), the edges that can never join p below this point.  An empty
    page bars nothing, so once a placement would leave every page in use,
    the AND of all `barred` masks over the active edges is tested; if it is
    non-zero, some unplaced edge fits on no page in any completion, and the
    attempt counts as one node whose subtree is skipped.  A placed edge is
    never barred from its own page, so the test needs no mask of unplaced
    edges.  Only subtrees without a complete layout are cut, so the first
    layout found, its dict order and every verdict within the budget are
    those of the plain search, and `nodes` never exceeds its count.
    """
    if not active:
        return {}, 0, False
    # Descending conflict degree, then ascending id: every id is below m.
    m = len(cross)
    order = sorted(active, key=lambda e: e - (cross[e] | nest[e]).bit_count() * m)
    count = len(order)
    stack = PageKind.STACK
    is_stack = [kind is stack for kind in spec.kinds]
    npages = len(is_stack)
    prev_same = []  # the previous page of the same kind, or -1
    last_stack = last_queue = -1
    for p, st in enumerate(is_stack):
        if st:
            prev_same.append(last_stack)
            last_stack = p
        else:
            prev_same.append(last_queue)
            last_queue = p
    # bad[p][d]: the edges that page p must not hold for order[d] to join it.
    on_stack = [cross[e] for e in order]
    on_queue = [nest[e] for e in order]
    bad = [on_stack if st else on_queue for st in is_stack]
    bits = [1 << e for e in order]
    everyone = sum(bits)
    members = [0] * npages
    barred = [0] * npages
    barred_before = [0] * count  # barred[page_at[d]] before order[d] joined
    empty = npages
    page_at = [0] * count
    last = count - 1
    nodes = 1
    if nodes > budget:
        return None, nodes, True
    depth = 0
    p = 0
    while True:
        while p < npages:
            held = members[p]
            if held:
                if not bad[p][depth] & held:
                    break
            else:
                before = prev_same[p]
                if before < 0 or members[before]:
                    break
            p += 1
        if p < npages:
            nodes += 1
            if nodes > budget:
                return None, nodes, True
            page_at[depth] = p
            if depth == last:
                return dict(zip(order, page_at)), nodes, False
            old = barred[p]  # `held` is still members[p] from the scan
            barred[p] = old | bad[p][depth]
            if not held:
                empty -= 1
            if not empty:
                common = everyone
                for mask in barred:
                    common &= mask
                if common:
                    barred[p] = old
                    if not held:
                        empty += 1
                    p += 1
                    continue
            members[p] = held | bits[depth]
            barred_before[depth] = old
            depth += 1
            p = 0
        else:
            depth -= 1
            if depth < 0:
                return None, nodes, False
            p = page_at[depth]
            held = members[p] ^ bits[depth]
            members[p] = held
            barred[p] = barred_before[depth]
            if not held:
                empty += 1
            p += 1


# The portfolio's first per-spec node budget, and its growth per round.
PORTFOLIO_START = 64
PORTFOLIO_GROWTH = 4


def mode_verdict(specs: list[PageSpec], separated: bool = False):
    """The verdict kernel of a mode whose specs all have one page count: a
    callable fits(cross, nest, active, budget) -> (fits, nodes) that says
    whether the `active` edges fit on some spec of `specs`.

    fits is None when the searches ran out of budget.  `active` lists
    distinct edge ids, in ascending order when `separated` is set.  The
    kernel is picked here, once per mode, and never per call:
    - zero pages: fits exactly when `active` is empty;
    - one page: no two active edges conflict on it (`cross` on a stack,
      `nest` on a queue), and with a stack and a queue to choose from (k=1)
      one pass that stops once it has seen both a crossing and a nesting;
    - two pages: 2-SAT (`_two_pages`) over the live edges, only for the
      specs that no chain test decides (see below);
    - three or more pages: a budget portfolio of searches (`_portfolio`)
      over the masks restricted to the live ids, so that a search orders
      the edges by their conflicts among the active ones.
    Specs of at most two pages count 0 nodes and never read the budget.
    With three or more pages, `budget` bounds the total nodes of one call,
    summed over every spec and round.

    `separated` says that the masks are those of a separated graph, every
    left endpoint before every right one, whose ids ascend with its edges
    in sorted order.  Then a pure spec (all stacks or all queues) of two or
    more pages fits exactly when the active edges hold no chain of
    len(spec) + 1 along ascending ids, each edge in the `cross` (stacks) or
    `nest` (queues) mask of the next (`_chain_free`).  This is decided
    first, without search, in 0 nodes.

    Proof.  Take ids f < e with edges (u, v) and (x, y), so u <= x, and
    both left endpoints lie before both right ones.  If they share an
    endpoint, they neither cross nor nest.  Otherwise u < x, and they
    cross when v < y and nest when v > y.  So along
    ascending ids crossing means both endpoints ascend and nesting means
    the left ones ascend and the right ones descend, and both are
    transitive: each is a strict partial order on the edges.  A stack is an
    antichain of the crossing order and a queue one of the nesting order,
    and by Mirsky's theorem ("A dual of Dilworth's decomposition theorem",
    Amer. Math. Monthly 1971) the fewest antichains that cover a partial
    order is the size of its longest chain.
    """
    pages = len(specs[0].kinds)
    stack = PageKind.STACK
    if not pages:
        return _no_pages
    if pages == 1:
        if len({spec.kinds for spec in specs}) == 2:
            return _stack_or_queue
        bar_cross = specs[0].kinds[0] is stack

        def one_page(cross, nest, active, budget):
            return _chain_free(cross if bar_cross else nest, active, 1), 0

        return one_page
    chains, rest = [], []
    for spec in specs:
        kinds = spec.kinds
        if separated and kinds.count(kinds[0]) == pages:
            chains.append(kinds[0] is stack)
        else:
            rest.append(spec)
    if not rest:

        def chained(cross, nest, active, budget):
            for bar_cross in chains:
                if _chain_free(cross if bar_cross else nest, active, pages):
                    return True, 0
            return False, 0

        return chained
    if pages > 2:

        def searched(cross, nest, active, budget):
            for bar_cross in chains:
                if _chain_free(cross if bar_cross else nest, active, pages):
                    return True, 0
            live = 0
            for e in active:
                live |= 1 << e
            cross = [mask & live for mask in cross]
            nest = [mask & live for mask in nest]
            return _portfolio(cross, nest, active, rest, budget)

        return searched
    pairs = [(spec.kinds[0] is stack, spec.kinds[1] is stack) for spec in rest]

    def any_two_pages(cross, nest, active, budget):
        for bar_cross in chains:
            if _chain_free(cross if bar_cross else nest, active, 2):
                return True, 0
        live = 0
        for e in active:
            live |= 1 << e
        for first, second in pairs:
            if _two_pages(cross if first else nest, cross if second else nest, live):
                return True, 0
        return False, 0

    return any_two_pages


def _no_pages(cross, nest, active, budget):
    return not active, 0


def _stack_or_queue(cross, nest, active, budget):
    """k=1: the active edges fit on a stack or on a queue unless they hold
    both a crossing and a nesting pair."""
    seen = 0
    crossed = nested = False
    for e in active:
        if cross[e] & seen:
            if nested:
                return False, 0
            crossed = True
        if nest[e] & seen:
            if crossed:
                return False, 0
            nested = True
        seen |= 1 << e
    return True, 0


def _portfolio(
    cross: list[int], nest: list[int], active: list[int], specs: list[PageSpec], budget: int
) -> tuple[bool | None, int]:
    """Does some spec lay the `active` edges out?  Returns (fits, nodes).

    A round robin of searches over the specs still open (Luby, Sinclair &
    Zuckerman, "Optimal speedup of Las Vegas algorithms", IPL 1993, as an
    algorithm portfolio in the sense of Gomes & Selman, Artif. Intell.
    2001): each spec is searched afresh on a budget of PORTFOLIO_START
    nodes, which grows by PORTFOLIO_GROWTH every round.  A spec refuted
    within its budget is dropped, and the first layout found settles
    "fits".  A spec left on its own gets the rest of the budget, since a
    restart would only repeat its nodes.  Past `budget` nodes in total the
    answer is None.  So a deletion that fits one split is not held up by
    the refutation of the splits before it, which is where an ordered loop
    spends its nodes.
    """
    todo = list(specs)
    total = 0
    cap = PORTFOLIO_START
    while todo:
        for spec in todo[:]:
            room = budget - total
            page_of, nodes, hit = _solve_masks(
                cross, nest, active, spec, room if len(todo) == 1 else min(cap, room)
            )
            total += nodes
            if page_of is not None:
                return True, total
            if not hit:
                todo.remove(spec)
            elif total > budget:
                return None, total
        cap *= PORTFOLIO_GROWTH
    return False, total


def _chain_free(bar: list[int], active: list[int], pages: int) -> bool:
    """Do the edges of `active`, listed in ascending order, hold no chain
    of pages + 1 edges along ascending ids, each in the `bar` mask of the
    next?  At two pages that is: no active edge bars both an active edge
    below it and one above it.

    One pass in id order: `ends[j]` holds the edges passed so far whose
    longest chain, ending at them, has j + 1 edges.  An edge's longest
    chain has one edge more than the longest among those of the edges it
    bars.  The sets hold only active edges below the current one, so the
    masks may name edges outside `active`.  At one page the order of
    `active` does not matter: the masks are symmetric, so the later of two
    conflicting edges finds the earlier one.
    """
    ends = [0] * pages
    top = pages - 1
    for e in active:
        mask = bar[e]
        if mask & ends[top]:
            return False
        j = top - 1
        while j >= 0 and not mask & ends[j]:
            j -= 1
        ends[j + 1] |= 1 << e
    return True


def _two_pages(bar0: list[int], bar1: list[int], free: int) -> bool:
    """Do the edges in the bitmask `free` split over two pages, where edge e
    bars the edges in bar0[e] from page 0 and those in bar1[e] from page 1?
    Both relations must be symmetric, as the conflict masks are.

    2-SAT by propagation (Even, Itai & Shamir, SIAM J. Comput. 1976): put the
    lowest free edge on page 0 and propagate what that forces; on a clash,
    put it on page 1 instead; if both clash, there is no split.  A
    propagation without a clash assigns a closed set: each assigned edge has
    forced onto the other page every edge it bars from its own page, so an
    edge left free is barred by an assigned edge at most from the page the
    assigned edge is not on, which constrains nothing.  So the assignment
    is kept, and the rest is decided on its own.
    """
    while free:
        start = free & -free
        placed = _force(bar0, bar1, free, start, 0) or _force(
            bar0, bar1, free, 0, start
        )
        if not placed:
            return False
        free &= ~placed
    return True


def _force(bar0: list[int], bar1: list[int], free: int, new0: int, new1: int) -> int:
    """Put the edges of `new0` on page 0 and those of `new1` on page 1, then
    every free edge this forces, until nothing more is forced.  Returns the
    edges placed, or 0 if some edge is forced onto both pages."""
    on0 = on1 = 0
    while new0 | new1:
        on0 |= new0
        on1 |= new1
        if on0 & on1:
            return 0
        to1 = 0
        while new0:
            low = new0 & -new0
            to1 |= bar0[low.bit_length() - 1]
            new0 ^= low
        to0 = 0
        while new1:
            low = new1 & -new1
            to0 |= bar1[low.bit_length() - 1]
            new1 ^= low
        new0 = to0 & free & ~on0
        new1 = to1 & free & ~on1
    return on0 | on1


def _feasible_masks(
    g: OrderedGraph,
    cross: list[int],
    nest: list[int],
    spec: PageSpec,
    budget: int,
) -> SolveResult:
    """`feasible` over conflict masks the caller has already built."""
    m = g.m
    page_of, nodes, hit = _solve_masks(cross, nest, list(range(m)), spec, budget)
    if page_of is not None:
        assignment = PageAssignment(spec, tuple([page_of[e] for e in range(m)]))
        if validate_assignment(g, assignment):
            raise InternalError(f"search returned an invalid layout on {spec}")
        return SolveResult(True, assignment, nodes, False)
    return SolveResult(False, None, nodes, hit)


def feasible(
    g: OrderedGraph, spec: PageSpec, budget: int = DEFAULT_BUDGET
) -> SolveResult:
    """Exact decision: does g admit a layout on exactly the given pages?

    Edges are placed in order of descending conflict degree; among pages of
    the same kind a new (empty) page may only be opened in index order.
    """
    cross, nest = conflict_masks(g)
    return _feasible_masks(g, cross, nest, spec, budget)


def _twist_bound(cross: list[int], budget: int) -> int:
    """Size of the largest twist, or 0 if the clique search runs out.

    A twist of size w needs w stacks when there is no queue, so every
    pure-stack split with fewer stacks is infeasible without search.
    """
    try:
        return len(_max_clique(cross, budget))
    except SizeLimitError:
        return 0


def splits(k: int) -> list[PageSpec]:
    """All stack/queue splits of k pages, in the order (k,0), (k-1,1), ..."""
    return [PageSpec.split(k - q, q) for q in range(k + 1)]


def _separated_rights(g: OrderedGraph) -> list[int] | None:
    """The right endpoints in left-endpoint order if g is a separated
    matching with at least one edge, else None.  Linear on edges sorted by
    left endpoint, as `build_graph` leaves them."""
    edges = g.edges
    if g.multi or not edges or max(edges)[0] >= min(map(itemgetter(1), edges)):
        return None
    m = len(edges)
    if len(set(map(itemgetter(0), edges))) < m or len(set(map(itemgetter(1), edges))) < m:
        return None
    return [v for _, v in sorted(edges)]


def mixed_page_number(
    g: OrderedGraph, budget: int = DEFAULT_BUDGET
) -> tuple[int, PageAssignment]:
    """Smallest k such that some split s+q=k is feasible, with a witness.

    The splits of each k are tried in the order of `splits`, and the first
    one found feasible gives the layout.  A split is searched only if no
    verdict without search refutes it:
    - pure-stack splits with fewer stacks than the largest twist, and
      pure-queue splits with fewer queues than the largest rainbow, are
      infeasible (a pure-queue split with enough queues always fits);
    - a split of two pages is 2-SAT (`_two_pages`), so only one that fits
      is searched, on any graph.

    On a separated matching (a simple matching with every left endpoint
    before every right one, and at least one edge) no infeasible split is
    searched.  There a stack is a decreasing and a queue an increasing
    subsequence of the right endpoints read in left-endpoint order.  One
    RSK insertion shape of that sequence gives the largest twist (its first
    row) and the largest rainbow (its row count), so the two skips decide
    every pure split.  It also gives Greene's bound: q increasing
    subsequences hold at most the values of the first q rows, and s
    decreasing ones those of the first s columns, so a mixed split whose
    rows and columns hold fewer than m values between them is infeasible.  A
    mixed split of three or more pages that passes it is decided by
    `greene.split_fits`, a DP whose states grow with s + q and whose
    expanded states count against `budget`; the shape test and 2-SAT count
    0 nodes.  Only the first split these verdicts call feasible is
    searched, for its layout: the split and the layout are the ones the
    searches alone would give, and a search that refutes a split a verdict
    fits is an InternalError.  A DP or a search that runs out marks its
    split unknown, and a k with an unknown split and none feasible raises
    BudgetExceededError.
    """
    m = g.m
    cross, nest = conflict_masks(g)
    rights = _separated_rights(g)
    if rights is None:
        omega = _twist_bound(cross, budget)
        rainbow = max(nesting_depths(g.edges), default=0)
    else:
        # Imported here, not with the module: solver's other callers, such
        # as enumeration, never need greene, and it would add about a
        # quarter to their import time.
        from .greene import conjugate_partition, insertion_shape, split_fits

        rows = insertion_shape(rights)
        cols = conjugate_partition(rows)
        omega, rainbow = rows[0], len(rows)
    everyone = (1 << m) - 1
    total_nodes = 0
    for k in range(m + 1):
        unknown = False
        for q in range(k + 1):
            s = k - q
            if (not q and k < omega) or (not s and k < rainbow):
                continue
            if k == 2:
                if not _two_pages(cross if s else nest, nest if q else cross, everyone):
                    continue
            elif rights is not None and s and q:
                if sum(rows[:q]) + sum(cols[:s]) < m:
                    continue
                fits, nodes = split_fits(rights, s, q, budget)
                total_nodes += nodes
                if not fits:
                    unknown = unknown or fits is None
                    continue
            spec = PageSpec.split(s, q)
            res = _feasible_masks(g, cross, nest, spec, budget)
            total_nodes += res.nodes
            if res.feasible:
                return k, res.assignment
            if (k == 2 or rights is not None) and not res.budget_hit:
                raise InternalError(f"search refutes {spec}, which the verdicts fit")
            unknown = unknown or res.budget_hit
        if unknown:
            raise BudgetExceededError(
                f"mixed page number at k={k} undecided", nodes=total_nodes
            )
    raise InternalError("a graph always fits on one page per edge")


def stack_number(
    g: OrderedGraph, budget: int = DEFAULT_BUDGET
) -> tuple[int, PageAssignment]:
    """Exact stack number, searching upward from the largest twist.

    Two stacks are 2-SAT (`_two_pages` on the crossing masks, 0 nodes), so
    two stacks are searched only when they fit, for the layout, and a
    search that refutes them is an InternalError.
    """
    cross, nest = conflict_masks(g)
    total_nodes = 0
    for s in range(_twist_bound(cross, budget), g.m + 1):
        if s == 2 and not _two_pages(cross, cross, (1 << g.m) - 1):
            continue
        res = _feasible_masks(g, cross, nest, PageSpec.split(s, 0), budget)
        total_nodes += res.nodes
        if res.feasible:
            return s, res.assignment
        if res.budget_hit:
            raise BudgetExceededError(f"stack number at s={s} undecided", nodes=total_nodes)
        if s == 2:
            raise InternalError("search refutes SS, which 2-SAT fits")
    raise InternalError("a graph always fits on one stack per edge")


def queue_layout(g: OrderedGraph) -> PageAssignment:
    """Optimal pure-queue layout by nesting depth; exact in polynomial time.

    Edges at the same nesting depth never nest, and the number of depths
    equals the largest rainbow, which is also a lower bound.  An edge's
    page is its depth less one.
    """
    depth = nesting_depths(g.edges)
    q = max(depth, default=0)
    return PageAssignment(
        PageSpec.split(0, q), tuple(d - 1 for d in depth)
    )


def queue_number(g: OrderedGraph) -> tuple[int, PageAssignment]:
    """Exact queue number; equals the largest rainbow (checked).

    The layout's pages are the nesting depths less one, so a rainbow chain
    is walked from them without a second depth pass.  The chain is checked
    edge by edge, each strictly inside the one before: a rainbow of as many
    edges as the layout has pages is a lower bound that does not rest on
    the depths, and validating the layout gives the upper bound.
    """
    a = queue_layout(g)
    q = len(a.spec)
    chain = [g.edges[e] for e in rainbow_chain(g.edges, [p + 1 for p in a.page_of])]
    if len(chain) != q or any(
        not (u < x and y < v) for (u, v), (x, y) in zip(chain, chain[1:])
    ):
        raise InternalError(f"{q} queue levels but no rainbow of {q} edges")
    if validate_assignment(g, a):
        raise InternalError("queue layout by nesting depth is invalid")
    return q, a


@dataclass(frozen=True)
class CriticalityVerdict:
    critical: bool
    reason: str
    nodes: int


def mode_specs(mode: tuple) -> list[PageSpec]:
    """The page specs of a criticality mode: ('sq', s, q) is the one split
    of s stacks and q queues, ('k', k) every split of k pages.  Counts are
    ints >= 0 (not bools); any other mode raises InvalidInputError."""
    match mode:
        case ("sq", s, q) if type(s) is type(q) is int and min(s, q) >= 0:
            return [PageSpec.split(s, q)]
        case ("k", k) if type(k) is int and k >= 0:
            return splits(k)
    raise InvalidInputError(
        f"bad criticality mode {mode!r}: want ('k', k) or ('sq', s, q) with counts >= 0"
    )


def criticality(
    g: OrderedGraph, mode: tuple, budget: int = DEFAULT_BUDGET
) -> CriticalityVerdict:
    """Check (s,q)-criticality (mode ('sq', s, q)) or k-criticality (('k', k)).

    Critical means: infeasible as stated, while every single-edge deletion is
    feasible (at the same (s,q), or at some split of k).  Deletions reuse the
    conflict masks of the full graph.  Only verdicts are needed, so every
    check goes through a `mode_verdict` kernel: specs of at most two pages
    (every mode with s + q <= 2 or k <= 2) are decided without search, and
    only searches of three or more pages count nodes and can exhaust the
    budget.  The full graph is checked one spec at a time in `splits`
    order, so "feasible at" names the first split that fits.  Each
    deletion, in edge order, is one call of the mode's kernel, which at
    three or more pages searches the splits as a portfolio, so "deleting
    edge" names the first deletion that fits no split.  `budget` bounds the
    total nodes of one verdict, summed over every spec and round of the
    mode: of the full graph's checks together, and of each deletion.  Even
    on a separated graph the pure specs are searched, not decided by the
    chain test, so this check stays independent of enumeration's verdicts.
    """
    specs = mode_specs(mode)
    total = 0
    cross, nest = conflict_masks(g)

    def decide(fits, active: list[int], room: int) -> bool:
        nonlocal total
        verdict, nodes = fits(cross, nest, active, room)
        total += nodes
        if verdict is None:
            raise BudgetExceededError("criticality check undecided", nodes=total)
        return verdict

    everything = list(range(g.m))
    for spec in specs:
        if decide(mode_verdict([spec]), everything, budget - total):
            return CriticalityVerdict(False, f"feasible at {spec}", total)
    if g.m == 0:
        return CriticalityVerdict(False, "edgeless", total)
    fits = mode_verdict(specs)
    for e in range(g.m):
        if not decide(fits, everything[:e] + everything[e + 1:], budget):
            return CriticalityVerdict(
                False, f"deleting edge {e} stays infeasible", total
            )
    return CriticalityVerdict(True, "critical", total)
