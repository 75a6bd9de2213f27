"""Canonical enumeration of ordered matchings and separated graphs, and
critical-pattern mining over them.

Enumeration is complete only up to the configured bounds; every result set
carries those bounds as `complete_up_to`, since no a-priori size bound for
the critical patterns is available.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from .core import OrderedGraph, build_graph, canonicalize_pattern, dump_olg
from .errors import BudgetExceededError, ParseError
from . import solver


def enumerate_matchings(m: int) -> Iterator[OrderedGraph]:
    """All ordered perfect matchings on 2m points; (2m-1)!! of them."""
    def pair_up(points: tuple[int, ...], edges: list[tuple[int, int]]):
        if not points:
            yield build_graph(2 * m, edges)
            return
        first, rest = points[0], points[1:]
        for i, second in enumerate(rest):
            edges.append((first, second))
            yield from pair_up(rest[:i] + rest[i + 1:], edges)
            edges.pop()

    yield from pair_up(tuple(range(2 * m)), [])


def enumerate_matchings_up_to(max_m: int) -> Iterator[OrderedGraph]:
    for m in range(1, max_m + 1):
        yield from enumerate_matchings(m)


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


def contains_pattern(g: OrderedGraph, pattern: OrderedGraph) -> bool:
    """Ordered-subgraph containment: an order-preserving injective vertex map
    sending every pattern edge to an edge of g."""
    if pattern.m > g.m or pattern.n > g.n:
        return False
    g_edges = set(g.edges)
    p_adj: list[list[int]] = [[] for _ in range(pattern.n)]
    for u, v in pattern.edges:
        p_adj[v].append(u)

    def extend(v: int, image: list[int]) -> bool:
        if v == pattern.n:
            return True
        lo = image[-1] + 1 if image else 0
        for target in range(lo, g.n - (pattern.n - v) + 1):
            if all((image[u], target) in g_edges for u in p_adj[v]):
                image.append(target)
                if extend(v + 1, image):
                    return True
                image.pop()
        return False

    return extend(0, [])


@dataclass(frozen=True)
class EnumFamily:
    shape: str  # "matchings" | "separated"
    max_edges: int
    max_rows: int = 0
    max_cols: int = 0

    def stream(self) -> Iterator[OrderedGraph]:
        if self.shape == "matchings":
            return enumerate_matchings_up_to(self.max_edges)
        if self.shape == "separated":
            return enumerate_separated(self.max_rows, self.max_cols, self.max_edges)
        raise ValueError(f"unknown family shape {self.shape!r}")


@dataclass
class CriticalSet:
    parameters: tuple
    patterns: list[OrderedGraph] = field(default_factory=list)
    complete_up_to: dict = field(default_factory=dict)
    scanned: int = 0
    runtime: float = 0.0

    def to_manifest(self) -> dict:
        return {
            "parameters": list(self.parameters),
            "count": len(self.patterns),
            "complete_up_to": self.complete_up_to,
            "scanned": self.scanned,
            "runtime": round(self.runtime, 3),
        }


def _modes_specs(mode: tuple):
    from .core import PageSpec

    if mode[0] == "sq":
        return [PageSpec.split(mode[1], mode[2])]
    if mode[0] == "k":
        return solver.splits(mode[1])
    raise ValueError(f"bad criticality mode {mode!r}")


def _is_critical_candidate(g: OrderedGraph, specs, budget: int, known) -> bool:
    """Full criticality decision for one candidate.

    Feasible candidates (the vast majority) are rejected by a single solver
    call.  Infeasible candidates that properly contain a known critical
    pattern are skipped as non-minimal: a spare edge plus the contained
    pattern keeps some deletion infeasible.
    """
    from .core import conflict_masks

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
    checkpoint: str | None = None,
    progress: bool = False,
    jobs: int = 1,
) -> CriticalSet:
    """Filter the enumeration stream through the criticality check.

    The stream is ordered by edge count, so found patterns are complete
    below the current candidate size.  With jobs > 1 the stream is sharded
    round-robin over worker processes; the merge is an order-insensitive
    union, so the result is identical to a sequential run.  A checkpoint
    file makes an interrupted sequential run resumable.
    """
    import time

    if jobs > 1:
        return _find_critical_sharded(family, mode, budget, jobs)

    specs = _modes_specs(mode)
    result = CriticalSet(parameters=mode)
    result.complete_up_to = _bounds(family)
    started = time.monotonic()
    skip = 0
    if checkpoint:
        skip = _load_checkpoint(checkpoint, family, mode, result)
    for g in family.stream():
        result.scanned += 1
        if result.scanned <= skip:
            continue
        if node_budget is not None and result.scanned > node_budget:
            raise BudgetExceededError("enumeration budget exceeded", nodes=result.scanned)
        if _is_critical_candidate(g, specs, budget, result.patterns):
            result.patterns.append(canonicalize_pattern(g))
            if checkpoint:
                result.runtime = time.monotonic() - started
                _write_checkpoint(checkpoint, family, result)
        if progress and result.scanned % 100000 == 0:
            print(
                f"scanned {result.scanned}, found {len(result.patterns)}",
                file=sys.stderr,
            )
        if checkpoint and result.scanned % 50000 == 0:
            result.runtime = time.monotonic() - started
            _write_checkpoint(checkpoint, family, result)
    result.patterns.sort(key=lambda p: (p.m, p.n, p.edges))
    result.runtime = time.monotonic() - started
    if checkpoint:
        _write_checkpoint(checkpoint, family, result)
    return result


def _bounds(family: EnumFamily) -> dict:
    bounds = {"max_edges": family.max_edges}
    if family.shape == "separated":
        bounds.update({"max_rows": family.max_rows, "max_cols": family.max_cols})
    return bounds


def _shard_worker(args):
    family, mode, budget, jobs, shard = args
    specs = _modes_specs(mode)
    found = []
    scanned = 0
    # Pruning uses only patterns this shard has seen; that is sound because
    # the deletion scan alone already decides criticality.
    for index, g in enumerate(family.stream()):
        if index % jobs != shard:
            continue
        scanned += 1
        if _is_critical_candidate(g, specs, budget, found):
            found.append(canonicalize_pattern(g))
    return scanned, [dump_olg(p) for p in found]


def _find_critical_sharded(family, mode, budget, jobs) -> CriticalSet:
    import time
    from multiprocessing import Pool

    from .core import parse_olg

    started = time.monotonic()
    with Pool(jobs) as pool:
        shards = pool.map(
            _shard_worker, [(family, mode, budget, jobs, shard) for shard in range(jobs)]
        )
    merged = sorted({text for _, chunk in shards for text in chunk})
    result = CriticalSet(parameters=mode)
    result.patterns = [parse_olg(text) for text in merged]
    result.patterns.sort(key=lambda p: (p.m, p.n, p.edges))
    result.complete_up_to = _bounds(family)
    result.scanned = sum(scanned for scanned, _ in shards)
    result.runtime = time.monotonic() - started
    return result


def _write_checkpoint(path: str, family: EnumFamily, result: CriticalSet):
    """Write beside `path`, then rename over it: a write that fails or is
    cut short leaves the previous checkpoint whole."""
    data = {
        "family": {
            "shape": family.shape,
            **_bounds(family),
        },
        "manifest": result.to_manifest(),
        "patterns": [dump_olg(p) for p in result.patterns],
    }
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(data, fh, indent=2)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _load_checkpoint(path: str, family: EnumFamily, mode, result: CriticalSet) -> int:
    if not os.path.exists(path):
        return 0
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"checkpoint {path}: {exc.msg}", exc.lineno) from None
    try:
        manifest = data["manifest"]
        same_run = data["family"] == {
            "shape": family.shape,
            **_bounds(family),
        } and manifest["parameters"] == list(mode)
        scanned, patterns = manifest["scanned"], data["patterns"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"checkpoint {path} is malformed: {exc!r}", 1) from None
    if not same_run:
        return 0
    if not isinstance(scanned, int) or not isinstance(patterns, list):
        raise ParseError(f"checkpoint {path} has a malformed manifest", 1)
    from .core import parse_olg

    result.patterns = [parse_olg(olg) for olg in patterns]
    return scanned


def conjecture_report(max_m: int, budget: int = solver.DEFAULT_BUDGET) -> dict:
    """Scan non-separated matchings up to max_m edges for the 1-critical and
    (1,1)-critical patterns and compare the counts with the conjectured
    8 and 12.

    The report also re-verifies every found pattern and checks that each set
    is an antichain under pattern containment.
    """
    one_critical = find_critical(
        EnumFamily("matchings", max_m), ("k", 1), budget
    )
    one_one_critical = find_critical(
        EnumFamily("matchings", max_m), ("sq", 1, 1), budget
    )

    def consistent(found: list[OrderedGraph], mode: tuple) -> bool:
        for p in found:
            if not solver.criticality(p, mode, budget).critical:
                return False
        for i, p in enumerate(found):
            for q in found[i + 1:]:
                if contains_pattern(p, q) or contains_pattern(q, p):
                    return False
        return True

    return {
        "max_m": max_m,
        "k1": {
            "count": len(one_critical.patterns),
            "conjectured": 8,
            "matches": len(one_critical.patterns) == 8,
            "patterns": one_critical.patterns,
            "consistent": consistent(one_critical.patterns, ("k", 1)),
        },
        "sq11": {
            "count": len(one_one_critical.patterns),
            "conjectured": 12,
            "matches": len(one_one_critical.patterns) == 12,
            "patterns": one_one_critical.patterns,
            "consistent": consistent(one_one_critical.patterns, ("sq", 1, 1)),
        },
    }
