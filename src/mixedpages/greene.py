"""Poset machinery for separated matchings: RSK shape, Ferrers diagrams,
maximum chain/antichain k-families, diamond witnesses, and the constructive
2-approximation for the mixed page number.

Edges of a grid matching are identified with their 0-based column index
throughout.  The poset order is e < f iff both grid coordinates increase.
A diamond matrix comes from one LIS pass: its columns are LIS levels and
its rows chains, and an extremal matching needs no flow for it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from math import ceil, sqrt
from operator import le, lt

from .core import (
    GridMatching,
    PageAssignment,
    PageKind,
    increasing_levels,
)
from .errors import BadParamsError, InternalError
from .patterns import PatternKind, PatternWitness


def insertion_shape(values) -> tuple[int, ...]:
    """Shape of the RSK insertion tableau of a sequence of distinct ints
    (Schensted row insertion).  By Greene's theorem (1974) the first i rows
    hold as many values as the largest union of i increasing subsequences,
    and the first j columns as many as that of j decreasing ones; so the
    first row is the longest increasing subsequence and the row count the
    longest decreasing one."""
    rows: list[list[int]] = []
    for value in values:
        for row in rows:
            pos = bisect.bisect_right(row, value)
            if pos == len(row):
                row.append(value)
                break
            row[pos], value = value, row[pos]
        else:
            rows.append([value])
    return tuple([len(row) for row in rows])


def rsk_shape(grid: GridMatching) -> tuple[int, ...]:
    """Insertion-tableau shape of pi; prefix sums give max i-chain coverage."""
    return insertion_shape(grid.pi)


def conjugate_partition(rows: tuple[int, ...]) -> tuple[int, ...]:
    if not rows:
        return ()
    return tuple([sum(1 for r in rows if r >= j) for j in range(1, rows[0] + 1)])


@dataclass(frozen=True)
class FerrersDiagram:
    """Greene diagram: row lengths plus chain/antichain coverage prefix sums."""

    rows: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def c(self) -> tuple[int, ...]:
        out, total = [], 0
        for r in self.rows:
            total += r
            out.append(total)
        return tuple(out)

    @property
    def a(self) -> tuple[int, ...]:
        out, total = [], 0
        for r in conjugate_partition(self.rows):
            total += r
            out.append(total)
        return tuple(out)

    @property
    def w(self) -> int:
        return len(self.rows)

    @property
    def h(self) -> int:
        return self.rows[0] if self.rows else 0

    @property
    def square(self) -> int:
        return max((i for i, r in enumerate(self.rows, start=1) if r >= i), default=0)

    def ascii(self) -> str:
        lines = ["#" * r for r in self.rows]
        lines.append(f"c = {list(self.c)}")
        lines.append(f"a = {list(self.a)}")
        lines.append(f"square = {self.square}")
        return "\n".join(lines)


def ferrers(grid: GridMatching) -> FerrersDiagram:
    return FerrersDiagram(rsk_shape(grid))


class FamilyKind(Enum):
    CHAINS = "chains"
    ANTICHAINS = "antichains"


@dataclass(frozen=True)
class ChainFamily:
    kind: FamilyKind
    parts: tuple[tuple[int, ...], ...]
    covered: int

    def covered_set(self) -> set[int]:
        return {e for part in self.parts for e in part}


def lis_length(pi) -> int:
    return max(increasing_levels(pi), default=0)


def lds_length(pi) -> int:
    return max(increasing_levels([-y for y in pi]), default=0)


def split_layout(pi, s: int, q: int, budget: int) -> tuple[list[int] | bool | None, int]:
    """Split `pi`, distinct positive ints, into s decreasing and q
    increasing subsequences.  On a separated matching these are s stacks
    and q queues.  Returns (page_of, nodes): page_of[t] is the page of
    pi[t], stacks 0..s-1 holding decreasing and queues s..s+q-1 increasing
    subsequences; False when no split exists, and None when the states to
    expand exceed `budget`.  A node is one state expanded.

    A left-to-right DP (the problem is polynomial for fixed s and q: Kézdy,
    Snevily & Wang, JCTA 1996).  A state is one tuple: the sorted last
    values of the q increasing subsequences, then those of the s decreasing
    ones, each decreasing value y stored as top - y.  So both parts ascend,
    an unused subsequence of either kind reads 0, and a smaller value is
    never worse.  A value x has two moves: onto the increasing subsequence
    whose last value is the largest below x, and onto the decreasing one
    whose last value is the smallest above x, that is the largest stored
    value below top - x.  Any other move of x leaves a state that the move
    of its kind dominates, pointwise <=, so these two are enough.  After
    each step the dominated states are dropped: a lexicographic sort puts
    every state after the states that dominate it, and one sweep keeps the
    states that no kept state dominates.  The sweep tries the last kept
    state first: it is the nearest in that order, so a repeated state is
    dropped at once.  The two children of one state each raise a slot that
    the other keeps, so neither dominates the other, and a step from a
    single state keeps both without a sweep.

    A move writes x into the slot whose value it replaces, and that slot
    keeps its place in the sorted tuple, since x lies between its old value
    and the next one.  So a slot is one subsequence throughout: slot i < q
    is queue s + i, and slot i >= q is stack i - q.  Each step keeps only
    one int per kept state, its parent's index times s + q plus the slot
    of its move (carried through the sort at the end of the child tuple),
    and the walk back from a final state reads every value's page off
    these.
    """
    k = q + s
    top = max(pi, default=0) + 1
    states = [(0,) * k]
    steps = []
    nodes = 0
    for x in pi:
        nodes += len(states)
        if nodes > budget:
            return None, nodes
        flipped = top - x
        children = []
        base = -1  # the parent's index times k, less one
        for state in states:
            i = bisect.bisect_left(state, x, 0, q)
            if i:
                children.append(state[: i - 1] + (x,) + state[i:] + (base + i,))
            j = bisect.bisect_left(state, flipped, q)
            if j > q:
                children.append(state[: j - 1] + (flipped,) + state[j:] + (base + j,))
            base += k
        if not children:
            return False, nodes
        if len(states) == 1:
            states = [child[:k] for child in children]
            steps.append([child[k] for child in children])
            continue
        children.sort()
        states = []
        kept = []
        for child in children:
            # `other` has no move slot, so map stops before the child's.
            for other in reversed(states):
                if all(map(le, other, child)):
                    break
            else:
                states.append(child[:k])
                kept.append(child[k])
        steps.append(kept)
    page_of = [0] * len(steps)
    n = 0
    for t in range(len(steps) - 1, -1, -1):
        n, slot = divmod(steps[t][n], k)
        page_of[t] = s + slot if slot < q else slot - q
    return page_of, nodes


def _hasse_covers(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Cover pairs (i, j) of the dominance order on points sorted by x with
    y values 1..m.  The least y above y_i so far blocks covers of i, and
    after y_i + 1 none can follow."""
    ys = [y for _, y in points]
    covers = []
    for i, yi in enumerate(ys):
        low = len(ys) + 1
        for j in range(i + 1, len(ys)):
            yj = ys[j]
            if yi < yj < low:
                covers.append((i, j))
                if yj == yi + 1:
                    break
                low = yj
    return covers


def _network_simplex(
    demand: list[int],
    sources: list[int],
    targets: list[int],
    capacity: list[int],
    weight: list[int],
) -> tuple[int, list[int]]:
    """Minimum-cost flow by the primal network simplex; returns (cost, flows).

    Nodes are 0..n-1 with n = len(demand) (negative demand is supply); edge
    e runs sources[e] -> targets[e].  Capacities must be positive and no
    edge a loop: NetworkX drops such edges before it pivots, and on them
    the pivots can repeat forever, so they raise ValueError.

    Ported from NetworkX 3.x `network_simplex` (BSD-3-Clause; Kiraly &
    Kovacs 2012).  What stays the same is every pivot: the same numbering
    (an artificial root n joined to every node, its edges after the real
    ones), block pricing of the entering edge (blocks of ceil(sqrt(E))
    real edges, the first edge of least reduced cost in a block), the
    leaving edge (the first least residual capacity over the cycle, read
    from the apex down to q, then the entering edge, then up to the apex)
    and the depth-first thread updates.  So it returns the very flow
    NetworkX returns, not merely one of the same cost.

    What differs is the bookkeeping around the pivots.  The tree keeps node
    depths instead of subtree sizes: the apex of the cycle is found by
    depth, and the depths of a moved subtree are reset in the thread walk
    that shifts its potentials, so no walk to the root updates sizes.  The
    leaving edge is found from the two paths collected on the way up to
    the apex, without building, reversing and searching a cycle list.
    Pricing reads one (weight, tail, head) tuple per real edge, stored
    reversed and with the weight negated while the edge carries flow.
    """
    if min(capacity, default=1) < 1 or any(u == v for u, v in zip(sources, targets)):
        raise ValueError("network simplex needs positive capacities and no loops")
    n = len(demand)
    edges = len(sources)
    root = n
    src = list(sources)
    tgt = list(targets)
    for v, d in enumerate(demand):
        # Zero-demand nodes point towards the root: a strongly feasible tree.
        if d > 0:
            src.append(root)
            tgt.append(v)
        else:
            src.append(v)
            tgt.append(root)
    faux_inf = 3 * max(sum(capacity), sum(map(abs, weight)), sum(map(abs, demand))) or 1
    cap = list(capacity) + [faux_inf] * n
    wt = list(weight) + [faux_inf] * n
    flow = [0] * edges + [abs(d) for d in demand]
    pot = [faux_inf if d <= 0 else -faux_inf for d in demand] + [0]
    # The reduced cost of real edge e, negated if it carries flow, is
    # w - pot[a] + pot[b] for (w, a, b) = price[e].  No flow at the start.
    price = list(zip(weight, sources, targets))
    # The spanning tree: every node a child of the root, threaded 0..n-1.
    parent = [root] * n + [-1]
    parent_edge = list(range(edges, edges + n)) + [-1]
    depth = [1] * n + [0]
    next_dft = list(range(1, n + 1)) + [0]
    prev_dft = [root] + list(range(n))
    last_dft = list(range(n)) + [n - 1]

    block = ceil(sqrt(edges)) or 1
    blocks = (edges + block - 1) // block
    misses = 0
    f = 0
    while misses < blocks:
        # Entering edge: the first of least reduced cost in the next block.
        l = f + block
        if l <= edges:
            scan = enumerate(price[f:l], f)
        else:
            l -= edges
            scan = chain(enumerate(price[f:], f), enumerate(price[:l]))
        f = l
        best = 0
        i = -1
        for e, (w, a, b) in scan:
            c = w - pot[a] + pot[b]
            if c < best:
                best = c
                i = e
        if i < 0:
            misses += 1
            continue
        misses = 0
        if flow[i]:
            p, q = tgt[i], src[i]
        else:
            p, q = src[i], tgt[i]

        # The cycle through i runs from p by i to q, up from q to the apex
        # w and down from w to p.  Collect both paths bottom-up: below_p
        # holds p and its ancestors under w, below_q the same for q.  Tree
        # edges keep reduced cost 0, so i is never one of them.
        below_p = []
        below_q = []
        a, b = p, q
        depth_a, depth_b = depth[a], depth[b]
        while depth_a > depth_b:
            below_p.append(a)
            a = parent[a]
            depth_a -= 1
        while depth_b > depth_a:
            below_q.append(b)
            b = parent[b]
            depth_b -= 1
        while a != b:
            below_p.append(a)
            a = parent[a]
            below_q.append(b)
            b = parent[b]

        # Leaving edge: the first least residual capacity, read backwards
        # from w: down the q side, then i, then up the p side.  No residual
        # is below 0, so the first 0 ends the scan.  t is the lower end of
        # the leaving tree edge (-1 if i leaves) and path the list it is in.
        least = faux_inf + 1
        t = -1
        path = below_q
        for index in range(len(below_q) - 1, -1, -1):
            c = below_q[index]
            e = parent_edge[c]
            r = cap[e] - flow[e] if src[e] == c else flow[e]
            if r < least:
                least, t, t_index = r, c, index
                if not r:
                    break
        else:
            r = cap[i] - flow[i] if src[i] == p else flow[i]
            if r < least:
                least, t = r, -1
            if least:
                for index, c in enumerate(below_p):
                    e = parent_edge[c]
                    r = flow[e] if src[e] == c else cap[e] - flow[e]
                    if r < least:
                        least, t, t_index, path = r, c, index, below_p
                        if not r:
                            break
        if least:
            for c in below_p:
                e = parent_edge[c]
                flow[e] += -least if src[e] == c else least
            for c in below_q:
                e = parent_edge[c]
                flow[e] += least if src[e] == c else -least
            flow[i] += least if src[i] == p else -least
            for e in [parent_edge[c] for c in below_p + below_q] + [i]:
                if e < edges:
                    if flow[e]:
                        price[e] = (-wt[e], tgt[e], src[e])
                    else:
                        price[e] = (wt[e], src[e], tgt[e])
        if t < 0:
            continue
        s = parent[t]
        if path is below_p:
            p, q = q, p

        # Remove the tree edge (s, t): cut t's subtree out of the thread.
        # The ancestors whose subtree ends where t's does form an unbroken
        # run up from s: each subtree on the way holds the one below it.
        prev_t = prev_dft[t]
        last_t = last_dft[t]
        next_last_t = next_dft[last_t]
        parent[t] = -1
        parent_edge[t] = -1
        next_dft[prev_t] = next_last_t
        prev_dft[next_last_t] = prev_t
        next_dft[last_t] = t
        prev_dft[t] = last_t
        while s != -1 and last_dft[s] == last_t:
            last_dft[s] = prev_t
            s = parent[s]

        # Make q the root of its subtree by reversing the path up to t.
        path = path[t_index::-1]
        for a, b in zip(path, path[1:]):
            last_a = last_dft[a]
            prev_b = prev_dft[b]
            last_b = last_dft[b]
            next_last_b = next_dft[last_b]
            parent[a] = b
            parent[b] = -1
            parent_edge[a] = parent_edge[b]
            parent_edge[b] = -1
            next_dft[prev_b] = next_last_b
            prev_dft[next_last_b] = prev_b
            next_dft[last_b] = b
            prev_dft[b] = last_b
            if last_a == last_b:
                last_dft[a] = prev_b
                last_a = prev_b
            prev_dft[a] = last_b
            next_dft[last_b] = a
            next_dft[last_a] = b
            prev_dft[b] = last_a
            last_dft[b] = last_a

        # Hang q's subtree below p by the entering edge i; as in the cut,
        # the ancestors that end where p's subtree ends are a run up from p.
        last_p = last_dft[p]
        next_last_p = next_dft[last_p]
        last_q = last_dft[q]
        parent[q] = p
        parent_edge[q] = i
        next_dft[last_p] = q
        prev_dft[q] = last_p
        prev_dft[next_last_p] = last_q
        next_dft[last_q] = next_last_p
        v = p
        while v != -1 and last_dft[v] == last_p:
            last_dft[v] = last_q
            v = parent[v]

        # Shift the potentials of q's subtree so that i has reduced cost 0,
        # and reset its depths: on the thread a parent precedes its children.
        if q == tgt[i]:
            d = pot[p] - wt[i] - pot[q]
        else:
            d = pot[p] + wt[i] - pot[q]
        v = q
        pot[v] += d
        depth[v] = depth[p] + 1
        while v != last_q:
            v = next_dft[v]
            pot[v] += d
            depth[v] = depth[parent[v]] + 1

    if any(flow[edges:]):
        raise InternalError("network simplex left flow on an artificial edge")
    del flow[edges:]
    return sum(w * x for w, x in zip(weight, flow)), flow


def max_family(grid: GridMatching, kind: FamilyKind, k: int) -> ChainFamily:
    """Maximum k-family of disjoint chains (antichains) by min-cost flow.

    Coverage equals the Greene prefix sum c_k (a_k); cross-checked against
    the RSK shape in the test suite.

    The network has a source 0 and a sink 1 and, for element i, the nodes
    in = 3i+2, rw = 3i+3 and out = 3i+4; rw splits off the unit-capacity,
    weight -1 arc that rewards covering i.  Edges are numbered by source
    node and, per node, in insertion order, which is the numbering the flow
    (and so the family it returns) depends on.
    """
    if k < 1:
        raise BadParamsError("k must be positive")
    if kind is FamilyKind.CHAINS:
        points = grid.points()
    else:
        points = [(x, grid.m + 1 - y) for x, y in grid.points()]
    m = len(points)
    if m == 0:
        return ChainFamily(kind, (), 0)

    covers: list[list[int]] = [[] for _ in range(m)]
    for i, j in _hasse_covers(points):
        covers[i].append(j)
    sources = [0] * (m + 1)
    targets = [1] + [3 * i + 2 for i in range(m)]
    capacity = [k] * (m + 1)
    weight = [0] * (m + 1)
    for i in range(m):
        node_in, node_rw, node_out = 3 * i + 2, 3 * i + 3, 3 * i + 4
        sources += (node_in, node_in, node_rw, node_out)
        targets += (node_rw, node_out, node_out, 1)
        capacity += (1, k, 1, k)
        weight += (-1, 0, 0, 0)
        for j in covers[i]:
            sources.append(node_out)
            targets.append(3 * j + 2)
            capacity.append(k)
            weight.append(0)
    demand = [-k, k] + [0] * (3 * m)
    cost, flow = _network_simplex(demand, sources, targets, capacity, weight)

    # Out-edges of node u are first_out[u] .. first_out[u + 1] - 1.
    first_out = [0] * (len(demand) + 1)
    for u in sources:
        first_out[u + 1] += 1
    for u in range(len(demand)):
        first_out[u + 1] += first_out[u]
    parts = []
    for _ in range(k):
        node = 0
        part = []
        while node != 1:
            for e in range(first_out[node], first_out[node + 1]):
                if flow[e] > 0:
                    flow[e] -= 1
                    node = targets[e]
                    if node % 3 == 0:
                        part.append(node // 3 - 1)
                    break
            else:
                raise InternalError("flow decomposition stuck")
        if part:
            parts.append(tuple(part))
    family = ChainFamily(kind, tuple(parts), -cost)
    if family.covered != sum(len(p) for p in parts):
        raise InternalError(
            f"flow covers {family.covered} elements, its chains hold "
            f"{sum(len(p) for p in parts)}"
        )
    return family


def _level_rows(pi, ids) -> list[list[int]] | None:
    """The diamond matrix of `ids`, ascending ids of the permutation `pi`,
    if LIS * LDS = len(ids) (an Erdős–Szekeres extremal set), else None.

    One LIS pass: an element's level is its column, its rank by id within
    the level its row.  Accepted when the levels are equally large and
    every row rises in id and value: then the rows are chains covering the
    set and each level a decreasing run as long, so LDS = rows.  On an
    extremal set the rank is the LDS ending at the element, so the matrix
    is the grid pattern's.
    """
    values = list(map(pi.__getitem__, ids))
    levels = increasing_levels(values)
    # A stable sort, so columns rise in id.  Every level up to the largest
    # occurs, so the columns are the levels when each holds a single level.
    order = sorted(range(len(ids)), key=levels.__getitem__)
    nrows, rest = divmod(len(ids), levels[order[-1]])
    if rest:
        return None
    columns = [order[i : i + nrows] for i in range(0, len(order), nrows)]
    if any(levels[column[0]] != levels[column[-1]] for column in columns):
        return None
    heights = [list(map(values.__getitem__, column)) for column in columns]
    for lines in (columns, heights):
        if not all(all(map(lt, a, b)) for a, b in zip(lines, lines[1:])):
            return None
    return [list(map(ids.__getitem__, row)) for row in zip(*columns)]


def diamond_matrix(grid: GridMatching) -> list[list[int]]:
    """Diamond of side equal to the Ferrers square, as a row-major matrix
    whose rows rise in id and value and columns rise in id, fall in value.

    An extremal matching (LIS * LDS = m) is its own LDS x LIS diamond, built
    from one LIS pass with no flow.  Otherwise two maximum families of the
    square's side (min-cost flows) pick the elements, arranged the same way.
    """
    m = grid.m
    if m == 0:
        return []
    pi = list(grid.pi)  # list.__getitem__ maps faster than the tuple's
    full = _level_rows(pi, list(range(m)))
    if full is not None:
        side = min(len(full), len(full[0]))
        return [row[:side] for row in full[:side]]
    side = ferrers(grid).square
    chains = max_family(grid, FamilyKind.CHAINS, side)
    antichains = max_family(grid, FamilyKind.ANTICHAINS, side)
    shared = sorted(chains.covered_set() & antichains.covered_set())
    if len(shared) != side * side:
        raise InternalError(
            f"maximum {side}-families share {len(shared)} != {side * side} elements"
        )
    matrix = _level_rows(pi, shared)
    if matrix is None or len(matrix) != side:
        raise InternalError("diamond statistics are not a bijection")
    return matrix


def diamond_witness(grid: GridMatching) -> PatternWitness:
    """A diamond of side equal to the Ferrers square (not always the maximum)."""
    matrix = diamond_matrix(grid)
    return PatternWitness.of(PatternKind.DIAMOND, len(matrix), len(matrix), matrix)


def approx_mixed_layout(grid: GridMatching) -> PageAssignment:
    """Valid layout with at most 2*square pages: k stacks plus k queues.

    Stack pages come from a maximum antichain k-family, queue pages from a
    maximum chain k-family; the two families together cover every edge.
    Edges covered by both go to the stack side, which lets pure rainbows
    collapse to a single stack page.
    """
    m = grid.m
    if m == 0:
        return PageAssignment.from_pages([], 0)
    k = ferrers(grid).square
    chains = max_family(grid, FamilyKind.CHAINS, k)
    antichains = max_family(grid, FamilyKind.ANTICHAINS, k)
    on_stacks = antichains.covered_set()
    pages = [(PageKind.STACK, part) for part in antichains.parts]
    for part in chains.parts:
        pages.append((PageKind.QUEUE, [e for e in part if e not in on_stacks]))
    return PageAssignment.from_pages(pages, m)
