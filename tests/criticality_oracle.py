"""Verdicts as they were before the mode kernels of `solver.mode_verdict`,
kept verbatim as the oracle for the differential tests: `_fits`, which
decided one spec, and `criticality`, which tried the specs of the mode in
`splits` order for the full graph and for every deletion.

The package must give the same `critical`, and the same `reason` where the
verdict is not critical.
"""

from __future__ import annotations

from mixedpages.core import PageKind, PageSpec, OrderedGraph, conflict_masks
from mixedpages.errors import BudgetExceededError
from mixedpages.solver import (
    DEFAULT_BUDGET,
    CriticalityVerdict,
    _chain_free,
    _solve_masks,
    _two_pages,
    mode_specs,
)


def _fits(
    cross: list[int],
    nest: list[int],
    active: list[int],
    spec: PageSpec,
    budget: int,
    separated: bool = False,
) -> tuple[bool | None, int]:
    """Verdict only: do the `active` edges fit on the spec's pages?

    Returns (fits, nodes), where fits is None when the search ran out of
    budget.  `active` lists distinct edge ids, in ascending order when
    `separated` is set.  Specs with at most two pages are decided without
    search; they count 0 nodes and never consult the budget.  One page fits
    when no active edge has an active conflict of its kind (`cross` on a
    stack, `nest` on a queue); two pages go to `_two_pages`.  Specs with
    three or more pages go to `_solve_masks`, and `budget` bounds only that
    search.

    `separated` says that the masks are those of a separated graph, every
    left endpoint before every right one, whose ids ascend with its edges
    in sorted order.  Then a pure spec (all stacks or all queues) of two or
    more pages fits exactly when the active edges hold no chain of
    len(spec) + 1 along ascending ids, each edge in the `cross` (stacks) or
    `nest` (queues) mask of the next (`_chain_free`).  This is decided
    without search, in 0 nodes, and never reads the budget.

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
    kinds = spec.kinds
    pages = len(kinds)
    stack = PageKind.STACK
    if separated and pages > 1 and kinds.count(kinds[0]) == pages:
        return _chain_free(cross if kinds[0] is stack else nest, active, pages), 0
    if pages > 2:
        page_of, nodes, hit = _solve_masks(cross, nest, active, spec, budget)
        return (None if hit else page_of is not None), nodes
    if not kinds:
        return not active, 0
    bar0 = cross if kinds[0] is stack else nest
    m = len(cross)
    if len(active) == m:  # distinct ids, so every edge: no mask to apply
        if pages == 1:
            return not any(bar0), 0
        live = (1 << m) - 1
    else:
        live = 0
        for e in active:
            live |= 1 << e
        if pages == 1:
            # A loop: any() over a generator costs more on the few edges
            # of an enumeration candidate, which comes here once per spec.
            for e in active:
                if bar0[e] & live:
                    return False, 0
            return True, 0
    return _two_pages(bar0, cross if kinds[1] is stack else nest, live), 0


def criticality(
    g: OrderedGraph, mode: tuple, budget: int = DEFAULT_BUDGET
) -> CriticalityVerdict:
    """Check (s,q)-criticality (mode ('sq', s, q)) or k-criticality (('k', k)).

    Critical means: infeasible as stated, while every single-edge deletion is
    feasible (at the same (s,q), or at some split of k).  Deletions reuse the
    conflict masks of the full graph.  Only verdicts are needed, so each
    check goes through `_fits`: specs of at most two pages (every mode with
    s + q <= 2 or k <= 2) are decided without search, and only searches of
    three or more pages count nodes and can exhaust the budget.  Even on a
    separated graph the pure specs take this generic path, not the chain
    test, so this check stays independent of enumeration's verdicts.
    """
    specs = mode_specs(mode)
    total = 0
    cross, nest = conflict_masks(g)

    def decide(active: list[int], spec: PageSpec) -> bool:
        nonlocal total
        fits, nodes = _fits(cross, nest, active, spec, budget)
        total += nodes
        if fits is None:
            raise BudgetExceededError("criticality check undecided", nodes=total)
        return fits

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
