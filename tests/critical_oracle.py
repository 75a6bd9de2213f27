"""Critical-pattern mining as it was before the level-wise engine, kept
verbatim as the oracle for the differential tests: the combinations stream
of separated patterns, the per-candidate check with containment pruning and
deletion solves, and the sequential loop of `find_critical` (without its
checkpoint and progress output, which do not change the result).

The package must return exactly what these return: the same graphs in the
same order, the same patterns and the same `scanned` count.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from mixedpages import solver
from mixedpages.core import OrderedGraph, build_graph, canonicalize_pattern
from mixedpages.enumeration import (
    CriticalSet,
    EnumFamily,
    _bounds,
    contains_pattern,
    enumerate_matchings_up_to,
)
from mixedpages.errors import BudgetExceededError


def enumerate_separated(
    max_rows: int, max_cols: int, max_edges: int
) -> Iterator[OrderedGraph]:
    """All separated bipartite patterns: 0-1 matrices without empty rows or
    columns, emitted in order of edge count.

    Rows are the left vertices, columns the right ones, so every matrix is
    its own canonical form and no cross-grid deduplication is needed.
    """
    for m in range(1, max_edges + 1):
        for rows in range(1, min(m, max_rows) + 1):
            for cols in range(1, min(m, max_cols) + 1):
                if m > rows * cols:
                    continue
                for cells in combinations(range(rows * cols), m):
                    row_seen = [False] * rows
                    col_seen = [False] * cols
                    for c in cells:
                        row_seen[c // cols] = True
                        col_seen[c % cols] = True
                    if not (all(row_seen) and all(col_seen)):
                        continue
                    yield build_graph(
                        rows + cols,
                        [(c // cols, rows + c % cols) for c in cells],
                    )


def stream(family: EnumFamily) -> Iterator[OrderedGraph]:
    if family.shape == "matchings":
        return enumerate_matchings_up_to(family.max_edges)
    return enumerate_separated(family.max_rows, family.max_cols, family.max_edges)


def _is_critical_candidate(g: OrderedGraph, specs, budget: int, known) -> bool:
    """Full criticality decision for one candidate.

    Feasible candidates (the vast majority) are rejected by a single solver
    call.  Infeasible candidates that properly contain a known critical
    pattern are skipped as non-minimal: a spare edge plus the contained
    pattern keeps some deletion infeasible.
    """
    from mixedpages.core import conflict_masks

    m = g.m
    if m < 2:
        return False
    cross, nest = conflict_masks(g)
    everything = list(range(m))

    def solvable(active, spec) -> bool:
        page_of, _, hit = solver._solve_masks(cross, nest, active, spec, budget)
        if hit:
            raise BudgetExceededError("criticality check undecided")
        return page_of is not None

    if any(solvable(everything, spec) for spec in specs):
        return False
    if any(found.m < m and contains_pattern(g, found) for found in known):
        return False
    for e in range(m):
        active = everything[:e] + everything[e + 1:]
        if not any(solvable(active, spec) for spec in specs):
            return False
    return True


def find_critical(
    family: EnumFamily,
    mode: tuple,
    budget: int = solver.DEFAULT_BUDGET,
    node_budget: int | None = None,
) -> CriticalSet:
    specs = solver.mode_specs(mode)
    result = CriticalSet(parameters=mode)
    result.complete_up_to = _bounds(family)
    for g in stream(family):
        result.scanned += 1
        if node_budget is not None and result.scanned > node_budget:
            raise BudgetExceededError("enumeration budget exceeded", nodes=result.scanned)
        if _is_critical_candidate(g, specs, budget, result.patterns):
            result.patterns.append(canonicalize_pattern(g))
    result.patterns.sort(key=lambda p: (p.m, p.n, p.edges))
    return result
