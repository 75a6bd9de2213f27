"""Exact feasibility and page numbers by pruned backtracking.

The decision problems are NP-hard in general, so every search carries a node
budget and reports "unknown" (budget_hit) rather than a wrong verdict when it
runs out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    OrderedGraph,
    PageAssignment,
    PageKind,
    PageSpec,
    conflict_masks,
    nesting_depths,
    validate_assignment,
)
from .errors import BudgetExceededError, InternalError, SizeLimitError
from .patterns import _max_clique, largest_rainbow

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


def _feasible_masks(
    g: OrderedGraph,
    cross: list[int],
    nest: list[int],
    spec: PageSpec,
    budget: int,
) -> SolveResult:
    """`feasible` over conflict masks the caller has already built."""
    m = g.m
    if m == 0:
        return SolveResult(True, PageAssignment(spec, ()), 0, False)
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


def mixed_page_number(
    g: OrderedGraph, budget: int = DEFAULT_BUDGET
) -> tuple[int, PageAssignment]:
    """Smallest k such that some split s+q=k is feasible, with a witness.

    Pure-stack splits with fewer stacks than the largest twist, and
    pure-queue splits with fewer queues than the largest rainbow, are
    skipped unsearched; they are infeasible.
    """
    cross, nest = conflict_masks(g)
    omega = _twist_bound(cross, budget)
    rainbow = max(nesting_depths(g.edges), default=0)
    total_nodes = 0
    for k in range(g.m + 1):
        unknown = False
        for spec in splits(k):
            if (spec.q == 0 and k < omega) or (spec.s == 0 and k < rainbow):
                continue
            res = _feasible_masks(g, cross, nest, spec, budget)
            total_nodes += res.nodes
            if res.feasible:
                return k, res.assignment
            unknown = unknown or res.budget_hit
        if unknown:
            raise BudgetExceededError(
                f"mixed page number at k={k} undecided", nodes=total_nodes
            )
    raise InternalError("a graph always fits on one page per edge")


def stack_number(
    g: OrderedGraph, budget: int = DEFAULT_BUDGET
) -> tuple[int, PageAssignment]:
    """Exact stack number, searching upward from the largest twist."""
    cross, nest = conflict_masks(g)
    total_nodes = 0
    for s in range(_twist_bound(cross, budget), g.m + 1):
        res = _feasible_masks(g, cross, nest, PageSpec.split(s, 0), budget)
        total_nodes += res.nodes
        if res.feasible:
            return s, res.assignment
        if res.budget_hit:
            raise BudgetExceededError(f"stack number at s={s} undecided", nodes=total_nodes)
    raise InternalError("a graph always fits on one stack per edge")


def queue_layout(g: OrderedGraph) -> PageAssignment:
    """Optimal pure-queue layout by nesting depth; exact in polynomial time.

    Edges at the same nesting depth never nest, and the number of depths
    equals the largest rainbow, which is also a lower bound.
    """
    depth = nesting_depths(g.edges)
    q = max(depth, default=0)
    return PageAssignment(
        PageSpec.split(0, q), tuple(d - 1 for d in depth)
    )


def queue_number(g: OrderedGraph) -> tuple[int, PageAssignment]:
    """Exact queue number; equals the largest rainbow (checked)."""
    a = queue_layout(g)
    q = len(a.spec)
    rainbow = largest_rainbow(g).k
    if q != rainbow:
        raise InternalError(f"{q} queue levels but a largest rainbow of {rainbow}")
    if validate_assignment(g, a):
        raise InternalError("queue layout by nesting depth is invalid")
    return q, a


@dataclass(frozen=True)
class CriticalityVerdict:
    critical: bool
    reason: str
    nodes: int


def criticality(
    g: OrderedGraph, mode: tuple, budget: int = DEFAULT_BUDGET
) -> CriticalityVerdict:
    """Check (s,q)-criticality (mode ('sq', s, q)) or k-criticality (('k', k)).

    Critical means: infeasible as stated, while every single-edge deletion is
    feasible (at the same (s,q), or at some split of k).  Deletions reuse the
    conflict masks of the full graph.
    """
    total = 0
    cross, nest = conflict_masks(g)

    if mode[0] == "sq":
        _, s, q = mode
        specs = [PageSpec.split(s, q)]
    elif mode[0] == "k":
        specs = splits(mode[1])
    else:
        raise ValueError(f"bad criticality mode {mode!r}")

    def decide(active: list[int], spec: PageSpec) -> bool:
        nonlocal total
        page_of, nodes, hit = _solve_masks(cross, nest, active, spec, budget)
        total += nodes
        if hit:
            raise BudgetExceededError("criticality check undecided", nodes=total)
        return page_of is not None

    everything = list(range(g.m))
    for spec in specs:
        if decide(everything, spec):
            return CriticalityVerdict(False, f"feasible at {spec}", total)
    if g.m == 0:
        return CriticalityVerdict(False, "edgeless", total)
    for e in range(g.m):
        active = [f for f in everything if f != e]
        if not any(decide(active, spec) for spec in specs):
            return CriticalityVerdict(
                False, f"deleting edge {e} stays infeasible", total
            )
    return CriticalityVerdict(True, "critical", total)
