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
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from typing import Iterator

from .core import MALFORMED_JSON, OrderedGraph, _conflict_masks, _json, dump_olg, parse_olg
from .errors import BudgetExceededError, InvalidInputError, ParseError
from . import solver


# A level is decided lookup-first when more than this share of the
# candidates of the level below was infeasible.
LOOKUP_FIRST_SHARE = 0.5


def _graph(edges: tuple) -> OrderedGraph:
    """The graph of a stream edge tuple, which is sorted and leaves no vertex
    isolated: its vertices run up to its largest endpoint."""
    return OrderedGraph(max([v for _, v in edges], default=-1) + 1, edges)


def enumerate_matchings(m: int) -> Iterator[OrderedGraph]:
    """All ordered perfect matchings on 2m points; (2m-1)!! of them."""
    for edges, _ in _matching_level(m):
        yield _graph(edges)


def _matching_level(m: int) -> Iterator[tuple[tuple, tuple]]:
    """The edge tuples of `enumerate_matchings(m)`, each with its ids in
    the level's conflict table: pair (a, b) of the 2m points has the id
    start[a] + b, its place among the pairs in sorted order.

    A depth-first walk on an explicit stack. Each step pairs the smallest
    point left, `free[d]` holds the points left at depth d and `todo[d]`
    the partners still to try there, so the edges come out sorted. The
    last pair is forced: the step before it yields the candidate.
    """
    if m < 2:
        yield (((0, 1),), (0,)) if m else ((), ())
        return
    n = 2 * m
    # The a(4m - a - 1)/2 pairs (x, y) with x < a come first, then (a, b)
    # at offset b - a - 1.
    start = [a * (4 * m - a - 3) // 2 - 1 for a in range(n)]
    pair = [[(a, b) for b in range(n)] for a in range(n)]
    out, ids = [None] * m, [0] * m
    free, todo = [0] * m, [0] * m
    free[0], todo[0] = (1 << n) - 1, (1 << n) - 2
    d, last = 0, m - 2
    while d >= 0:
        rest = todo[d]
        if not rest:
            d -= 1
            continue
        low = rest & -rest
        todo[d] = rest ^ low
        points = free[d]
        a, b = (points & -points).bit_length() - 1, low.bit_length() - 1
        out[d], ids[d] = pair[a][b], start[a] + b
        points ^= 1 << a | low
        if d < last:
            d += 1
            free[d], todo[d] = points, points & points - 1
            continue
        a, b = (points & -points).bit_length() - 1, points.bit_length() - 1
        out[-1], ids[-1] = pair[a][b], start[a] + b
        yield tuple(out), tuple(ids)


def enumerate_matchings_up_to(max_m: int) -> Iterator[OrderedGraph]:
    for m in range(1, max_m + 1):
        yield from enumerate_matchings(m)


def enumerate_separated(
    max_rows: int, max_cols: int, max_edges: int
) -> Iterator[OrderedGraph]:
    """All separated bipartite patterns: 0-1 matrices without empty rows or
    columns, up to the given size, in order of edge count.

    Within one edge count m the shapes come rows first, then columns, and
    each shape's matrices in the order of `combinations(range(rows * cols),
    m)` over the cells numbered row by row; only full matrices are
    generated. Rows are the left vertices, columns the right ones, so every
    matrix is its own canonical form and no cross-grid deduplication is
    needed.
    """
    for m in range(1, max_edges + 1):
        for edges, _ in _separated_level(max_rows, max_cols, m):
            yield _graph(edges)


def _separated_level(max_rows: int, max_cols: int, m: int) -> Iterator[tuple[tuple, tuple]]:
    """The edge tuples of the graphs of `enumerate_separated` with m edges,
    each with its ids in the level's conflict table, whose matrix has
    min(max_cols, m) columns."""
    width = min(max_cols, m)
    for rows in range(1, min(m, max_rows) + 1):
        for cols in range(1, width + 1):
            if m <= rows * cols:
                yield from _full_matrices(rows, cols, m, width)


def _full_matrices(rows: int, cols: int, m: int, width: int) -> Iterator[tuple[tuple, tuple]]:
    """The rows x cols matrices with m ones and no empty row or column, as
    sorted edge tuples, each with its ids r * width + c in the conflict
    table of a matrix `width` columns wide.

    A depth-first walk over ascending cells that enters no branch without a
    full completion. Cells ascend, so the next cell lies at most one row
    below the last one, or a row would stay empty. The picks left after a
    cell must cover every row below it and every empty column; in the last
    row the empty columns must also lie right of the cell. The cells are
    sorted and distinct, and so are their edges.

    Each cell's column bit, rows below, reach (the last cell the pick after
    it may take), edge and id are read off flat tables, and the edges and
    ids of the cells picked so far are kept along the walk. The last pick
    lies in the last row and fills the last empty column, if one is left:
    the step before it yields the candidates.
    """
    size, full = rows * cols, (1 << cols) - 1
    if m < 2:  # one edge: the 1 x 1 matrix
        if m and size == 1:
            yield ((0, 1),), (0,)
        return
    grid = [divmod(x, cols) for x in range(size)]
    bit = [1 << c for _, c in grid]
    below = [rows - 1 - r for r, _ in grid]
    reach = [(r + 2) * cols - 1 for r, _ in grid]
    edge = [(r, rows + c) for r, c in grid]
    ident = [r * width + c for r, c in grid]
    base = size - cols  # the first cell of the last row
    out, ids = [None] * m, [0] * m
    covered = [0] * m  # covered[d]: the columns of the cells picked before depth d
    start = [0] * m  # start[d]: the first cell still to try at depth d
    stop = [0] * m  # stop[d]: the last cell depth d may take
    stop[0] = min(size - m, cols - 1)
    d, last = 0, m - 2
    while d >= 0:
        left, seen, c, hi = m - 1 - d, covered[d], start[d], stop[d]
        while c <= hi:
            empty = full & ~(seen | bit[c])
            if left >= empty.bit_count() and (
                left >= below[c] if below[c] else not empty & bit[c] - 1
            ):
                break
            c += 1
        else:
            d -= 1
            continue
        start[d] = c + 1
        out[d], ids[d] = edge[c], ident[c]
        if d < last:
            d += 1
            covered[d], start[d], stop[d] = full & ~empty, c + 1, min(size - left, reach[c])
            continue
        for x in (base + empty.bit_length() - 1,) if empty else range(max(c + 1, base), size):
            out[-1], ids[-1] = edge[x], ident[x]
            yield tuple(out), tuple(ids)


def contains_pattern(g: OrderedGraph, pattern: OrderedGraph) -> bool:
    """Ordered-subgraph containment: an order-preserving injective vertex map
    sending every pattern edge to an edge of g.

    A depth-first search on an explicit stack, so patterns of any size end
    without a RecursionError: `image` maps the first pattern vertices, and
    the next one tries the vertices of g from `target` on, leaving room for
    the pattern vertices after it. Each tried vertex must be adjacent to the
    images of the pattern vertex's left neighbours. With no vertex left to
    try, the search backs up and the vertex before moves one further right.
    """
    if pattern.m > g.m or pattern.n > g.n:
        return False
    g_edges = set(g.edges)
    p_adj: list[list[int]] = [[] for _ in range(pattern.n)]
    for u, v in pattern.edges:
        p_adj[v].append(u)
    image: list[int] = []
    target = 0
    while len(image) < pattern.n:
        v = len(image)
        last = g.n - (pattern.n - v)
        while target <= last and not all((image[u], target) in g_edges for u in p_adj[v]):
            target += 1
        if target <= last:
            image.append(target)
            target += 1
        elif image:
            target = image.pop() + 1
        else:
            return False
    return True


@dataclass(frozen=True)
class EnumFamily:
    """Ordered matchings or separated patterns up to the bounds, which are
    ints >= 0; any other shape or bound raises InvalidInputError."""

    shape: str  # "matchings" | "separated"
    max_edges: int
    max_rows: int = 0
    max_cols: int = 0

    def __post_init__(self):
        if self.shape not in ("matchings", "separated"):
            raise InvalidInputError(f"unknown family shape {self.shape!r}")
        for bound in (self.max_edges, self.max_rows, self.max_cols):
            if type(bound) is not int or bound < 0:
                raise InvalidInputError(f"family bounds must be integers >= 0, got {bound!r}")

    @property
    def widest(self) -> int:
        """The most vertices a graph of the family can have."""
        m = self.max_edges
        if self.shape == "matchings":
            return 2 * m
        return min(self.max_rows, m) + min(self.max_cols, m)

    def conflict_table(self, m: int) -> tuple[list[int], list[int]]:
        """The crossing and nesting masks of every edge that the stream's
        graphs with m edges can have, over fixed ids: (cross, nest). The
        stream hands out each candidate's ids with its edges (`level`).
        Sorted edges get ascending ids, and two edges conflict in the graph
        exactly when their ids do in the table.

        A separated edge is a cell of the level's widest matrix, cell
        (r, c) under the id r * min(max_cols, m) + c (`_cell_table`, linear
        in the cells where a pair scan over them would be quadratic, as on
        a 1 x 255 family). A matching edge is one of the pairs of its 2m
        points, numbered in sorted order; whether two pairs cross or nest
        depends on their four endpoints alone, so the pairs' table is the
        conflict masks of the graph of all of them, by `_conflict_masks`.
        """
        if self.shape == "matchings":
            return _conflict_masks([(a, b) for a in range(2 * m) for b in range(a + 1, 2 * m)])
        return _cell_table(min(self.max_rows, m), min(self.max_cols, m))

    def stream(self) -> Iterator[OrderedGraph]:
        """The family's graphs, level by level in edge count."""
        for m in range(1, self.max_edges + 1):
            for edges, _ in self.level(m):
                yield _graph(edges)

    def level(self, m: int) -> Iterator[tuple[tuple, tuple]]:
        """The edge tuples of the stream's graphs with exactly m edges, in
        stream order, each with the ascending ids of its edges in
        `conflict_table(m)`: (edges, ids)."""
        if self.shape == "matchings":
            return _matching_level(m)
        return _separated_level(self.max_rows, self.max_cols, m)


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


_IDENTITY = bytes(range(256))


def _drop_table(lo: int, hi: int) -> bytes:
    """The `bytes.translate` table that closes the gaps left by dropping
    vertices lo < hi: the vertices above lo move down by one, and those
    above hi by one more. Dropping 255 moves nothing: no vertex lies above
    it."""
    return _IDENTITY[:lo + 1] + _IDENTITY[lo:hi] + _IDENTITY[hi - 1:254]


def _has_infeasible_deletion(edges: tuple, key: bytes, below: set) -> bool:
    """Is the table key of some one-edge deletion of a graph without
    isolated vertices in `below`? `key` is the graph's own key: the
    endpoints of its edges, flattened, as bytes.

    Deleting an edge keeps the order of the others. Only an endpoint left
    without edges drops out, and the vertices above it move down by one.
    """
    for i, (u, v) in enumerate(edges):
        rest = key[:2 * i] + key[2 * i + 2:]
        drop_u, drop_v = key.count(u) == 1, key.count(v) == 1
        if drop_u or drop_v:
            rest = rest.translate(
                _drop_table(u if drop_u else v, v if drop_u and drop_v else 255)
            )
        if rest in below:
            return True
    return False


def _cell_table(rows: int, cols: int) -> tuple[list[int], list[int]]:
    """The crossing and nesting masks of the cells of a rows x cols matrix
    as edges of a separated pattern, cell (r, c) under the id r * cols + c.

    Row r is left vertex r and column c a right vertex, so cell (r, c)
    crosses the cells strictly up-left and down-right of it, nests with
    those strictly up-right and down-left, and shares a vertex with the
    rest of its row and column. Each side is a block of rows ANDed with a
    block of columns: O(rows * cols) big-int operations. The shapes of a
    level with at most rows rows and cols columns are the top-left blocks
    of the matrix, and their cells keep their relations there.
    """
    full = (1 << rows * cols) - 1
    column = sum(1 << r * cols for r in range(rows))  # the cells of column 0
    cross, nest = [], []
    for r in range(rows):
        up = (1 << r * cols) - 1
        down = full >> (r + 1) * cols << (r + 1) * cols
        for c in range(cols):
            left = ((1 << c) - 1) * column
            right = full ^ ((2 << c) - 1) * column
            cross.append(up & left | down & right)
            nest.append(up & right | down & left)
    return cross, nest


def _decide(
    edges: tuple, ids: tuple, table, specs, budget: int, below: set, infeasible: set,
    lookup_first: bool, separated: bool,
) -> bool:
    """Decide the candidate with these sorted edges, and add its key to
    `infeasible` when no spec lays it out. True when it is critical: it is
    infeasible and none of its one-edge deletions is in `below`, the
    infeasible keys of the level one edge down. The deletion of a single
    edge is the empty graph, which every spec lays out, so a single edge is
    critical exactly at the modes of zero pages.

    Feasibility is monotone under edge deletion and every deletion is in the
    level below, so a deletion missing from `below` is feasible, and one in
    `below` makes the candidate infeasible. A key is the flattened edge list
    of the canonical form, as bytes; stream graphs are canonical.

    Solve-first tries the specs in order and looks the deletions up only
    for an infeasible candidate. `lookup_first` looks them up before the
    solve, and a candidate with an infeasible deletion is not solved. Both
    give the same verdicts and keys, except that lookup-first skips the
    search, and so any budget error, of such a candidate.

    The conflict masks are not built per candidate: `table` is the level's
    `EnumFamily.conflict_table`, `ids` are the edges' ids there as the
    stream handed them out, and no two edges are compared. Only the verdict is
    needed, so every spec goes through `solver._fits` with these ids as
    the active edges. `separated` says that the table is a separated
    family's, whose ids r * W + c ascend with the sorted edges, so
    `_fits` decides a pure spec (all stacks or all queues) by its longest
    chain, without search: a mode all of whose specs are pure needs no
    restricted masks. Specs of at most two pages AND the masks with the
    live ids and are decided without search too. The other specs of three
    or more pages (the mixed ones, and on matchings every one) are
    searched. A search orders the edges by conflict degree, so when a mode
    (all specs of a mode have one page count) has a spec to search, the
    masks are first restricted to the live ids; as the ids ascend with the
    edges, a search's order, nodes and budget are those of the
    candidate's own masks. The budget bounds only these searches.
    """
    if lookup_first:
        key = bytes(sum(edges, ()))
        if _has_infeasible_deletion(edges, key, below):
            infeasible.add(key)
            return False
    cross, nest = table
    if len(specs[0].kinds) > 2 and not (
        separated and all(s.kinds.count(s.kinds[0]) == len(s.kinds) for s in specs)
    ):
        live = sum(1 << e for e in ids)
        cross = [mask & live for mask in cross]
        nest = [mask & live for mask in nest]
    for spec in specs:
        fits, _ = solver._fits(cross, nest, ids, spec, budget, separated)
        if fits is None:
            raise BudgetExceededError("criticality check undecided")
        if fits:
            return False
    if not lookup_first:
        key = bytes(sum(edges, ()))
    infeasible.add(key)
    return lookup_first or not _has_infeasible_deletion(edges, key, below)


def find_critical(
    family: EnumFamily,
    mode: tuple,
    budget: int = solver.DEFAULT_BUDGET,
    checkpoint: str | None = None,
    progress: bool = False,
    jobs: int = 1,
) -> CriticalSet:
    """The critical patterns of the family's stream for `mode`, level by
    level in edge count.

    Each candidate is decided once, by `_decide`, from its edge tuple; a
    graph is built only for a critical one. Its conflict masks are read off
    the level's conflict table (`EnumFamily.conflict_table`, built once per
    level and shard, sized by the level and not by the family's bounds) at
    the ids the stream hands out with its edges (`EnumFamily.level`), so
    no candidate pays for a pair scan or an id lookup. At modes of at most two pages
    (k <= 2, s + q <= 2) no candidate is searched, nor at pure splits (all
    stacks or all queues) of a separated family, which are decided by their
    longest twist or rainbow (`solver._fits`). `budget` bounds only the
    searches left: the mixed splits of three or more pages, and on
    matchings also the pure ones. An infeasible candidate enters its
    level's table of infeasible canonical keys, and it is critical exactly
    when none of its one-edge deletions is in the table of the level below.
    So at the modes of zero pages the single edge is critical: its deletion
    is the empty graph, which no table holds. Only two key tables are alive
    at a time, and none outlives the call.
    `scanned` counts the candidates. The mode is checked, by
    `solver.mode_specs`, before the checkpoint is read.

    A level whose level below had more than `LOOKUP_FIRST_SHARE` of its
    candidates infeasible is decided lookup-first: a candidate with a
    deletion in the table below is infeasible by monotonicity and is not
    solved. The choice changes no result; it is made once per level, from
    the table below and that level's candidate count, so every shard makes
    the same one.

    A finished level is the unit of every other feature:
    - `checkpoint`: after each level the file records that level's edge
      count, its candidate count, `scanned`, the patterns so far and the
      level's infeasible keys; a run with the same family and mode resumes
      at the next level (solve-first if the file has no candidate count).
    - `jobs`: the candidates of each level are sharded by index modulo
      `jobs`, and the tables and patterns are merged before the next level.
      `jobs` only decides where the shards run: in-process for one job,
      over worker processes for more. The result is the same.
    - `progress`: a line on stderr per level, empty levels included, and
      with one job one per 100000 candidates.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be at least 1, got {jobs}")
    if family.widest > 256:
        raise InvalidInputError(
            f"patterns of up to {family.widest} vertices: the level tables store vertices as bytes"
        )
    specs = solver.mode_specs(mode)
    result = CriticalSet(parameters=mode, complete_up_to=_bounds(family))
    started = time.monotonic()
    done, below, size = 0, set(), None  # size: the candidates of level `done`
    if checkpoint:
        done, below, size = _load_checkpoint(checkpoint, family, mode, result)

    def report(count: int, found: list) -> None:
        scanned = result.scanned + count
        if scanned % 100000 == 0:
            print(f"scanned {scanned}, found {len(result.patterns) + len(found)}", file=sys.stderr)

    with _workers(jobs) as pool:
        for level in range(done + 1, family.max_edges + 1):
            lookup_first = bool(size) and len(below) > LOOKUP_FIRST_SHARE * size
            tasks = [(family, specs, budget, level, jobs, shard, below, lookup_first)
                     for shard in range(jobs)]
            if pool is None:
                shards = [_level_shard(tasks[0], report if progress else None)]
            else:
                shards = pool.map(_level_shard, tasks)
            size = sum(count for count, *_ in shards)
            result.scanned += size
            result.patterns.extend(p for _, _, found in shards for p in found)
            below = shards[0][1]
            for _, keys, _ in shards[1:]:
                below |= keys
            result.patterns.sort(key=lambda p: (p.m, p.n, p.edges))
            result.runtime = time.monotonic() - started
            if progress:
                print(
                    f"level {level}: scanned {result.scanned}, found {len(result.patterns)}",
                    file=sys.stderr,
                )
            if checkpoint:
                _write_checkpoint(checkpoint, family, result, level, below, size)
    result.runtime = time.monotonic() - started
    return result


def _workers(jobs: int):
    """A pool of `jobs` worker processes, started fresh since the caller may
    have threads; none for a single job, whose levels run in-process."""
    if jobs == 1:
        return nullcontext()
    from multiprocessing import get_context

    return get_context("spawn").Pool(jobs)


def _level_shard(args, report=None):
    """One worker's share of a level: the candidates whose index in the level
    is `shard` modulo `jobs`. Returns the number decided, their infeasible
    keys and the critical ones. The level's conflict table is built here,
    once, for `_decide`; it lives as long as the call. `lookup_first` is
    the level's choice for `_decide`. `report`, if given, sees the count
    and the critical ones after each decided candidate."""
    family, specs, budget, level, jobs, shard, below, lookup_first = args
    table = family.conflict_table(level)
    separated = family.shape == "separated"
    count, infeasible, found = 0, set(), []
    for index, (edges, ids) in enumerate(family.level(level)):
        if index % jobs == shard:
            count += 1
            if _decide(edges, ids, table, specs, budget, below, infeasible, lookup_first,
                       separated):
                found.append(_graph(edges))
            if report:
                report(count, found)
    return count, infeasible, found


def _bounds(family: EnumFamily) -> dict:
    bounds = {"max_edges": family.max_edges}
    if family.shape == "separated":
        bounds.update({"max_rows": family.max_rows, "max_cols": family.max_cols})
    return bounds


def _write_checkpoint(
    path: str,
    family: EnumFamily,
    result: CriticalSet,
    level: int,
    infeasible: set,
    candidates: int,
):
    """Write beside `path`, then rename over it: a write that fails or is
    cut short leaves the previous checkpoint whole."""
    data = {
        "family": {
            "shape": family.shape,
            **_bounds(family),
        },
        "manifest": result.to_manifest(),
        "patterns": [dump_olg(p) for p in result.patterns],
        "level": {
            "edges": level,
            "candidates": candidates,
            "infeasible": sorted(key.hex() for key in infeasible),
        },
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


def _load_checkpoint(
    path: str, family: EnumFamily, mode, result: CriticalSet
) -> tuple[int, set, int | None]:
    """The finished level, its infeasible keys and its candidate count (None
    in a checkpoint written without it) from a checkpoint of the same
    family and mode, with `result` restored to that level; (0, empty, None)
    when there is no such checkpoint."""
    if not os.path.exists(path):
        return 0, set(), None
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"checkpoint {path}: {exc.msg}", exc.lineno) from None
    try:
        manifest, table = data["manifest"], data["level"]
        same_run = data["family"] == {
            "shape": family.shape,
            **_bounds(family),
        } and manifest["parameters"] == list(mode)
        scanned, level = _json(manifest["scanned"], int), _json(table["edges"], int)
        size = _json(table["candidates"], int) if "candidates" in table else None
        olgs = [_json(olg, str) for olg in _json(data["patterns"], list)]
        below = {bytes.fromhex(key) for key in _json(table["infeasible"], list)}
    except MALFORMED_JSON as exc:
        raise ParseError(f"checkpoint {path} has a malformed manifest: {exc!r}", 1) from None
    if not same_run:
        return 0, set(), None
    result.patterns = [parse_olg(olg) for olg in olgs]
    result.scanned = scanned
    return level, below, size


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
