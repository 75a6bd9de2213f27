"""Ordered-graph data model: edge classification, layout validation, grids, I/O.

Vertices of an ordered graph are 0..n-1 and the index order *is* the layout
order, so no separate order array is carried around.

On the layout paths the package builds small tuples from lists, as in
`tuple([f(x) for x in xs])`, not from generators.  CPython allocates a
tuple built from a generator at a guessed length and resizes it, so it is
not taken from the free list of its final length, yet when freed it parks
there; only a full garbage collection empties those lists.  Code that
makes little cyclic garbage rarely runs one, so with generators the free
lists, and the peak memory of a long run, grow pass after pass.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import groupby

from .errors import (
    BadEdgeIdError,
    CoverageMismatchError,
    DuplicateEdgeError,
    InternalError,
    InvalidInputError,
    NotMatchingError,
    NotSeparatedError,
    OutOfRangeError,
    ParseError,
)


class Relation(Enum):
    CROSS = "cross"
    NEST = "nest"
    SHARED = "shared"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class EdgeRelation:
    """Relation of an unordered edge pair; for NEST, outer/inner are edge ids."""

    kind: Relation
    outer: int | None = None
    inner: int | None = None


class PageKind(Enum):
    STACK = "S"
    QUEUE = "Q"


@dataclass(frozen=True)
class OrderedGraph:
    """Graph with a fixed linear vertex order given by the vertex indices."""

    n: int
    edges: tuple[tuple[int, int], ...]
    multi: bool = False

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_matching(self) -> bool:
        seen = set()
        for u, v in self.edges:
            if u in seen or v in seen:
                return False
            seen.add(u)
            seen.add(v)
        return True


def build_graph(n: int, edges, multi: bool = False) -> OrderedGraph:
    """Normalize edges to u < v and sorted order; reject bad input."""
    if n < 0:
        raise OutOfRangeError(f"negative vertex count {n}")
    norm = []
    for u, v in edges:
        if u == v:
            raise OutOfRangeError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
        norm.append((u, v) if u < v else (v, u))
    norm.sort()
    if not multi:
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise DuplicateEdgeError(f"duplicate edge {a}")
    return OrderedGraph(n, tuple(norm), multi)


def classify_pair(g: OrderedGraph, e1: int, e2: int) -> EdgeRelation:
    """Classify an edge pair as crossing, nesting, sharing a vertex, or disjoint."""
    if not (0 <= e1 < g.m and 0 <= e2 < g.m) or e1 == e2:
        raise BadEdgeIdError(f"bad edge pair ({e1},{e2})")
    a, b = g.edges[e1], g.edges[e2]
    if a[0] in b or a[1] in b:
        return EdgeRelation(Relation.SHARED)
    (u, v), (x, y) = (a, b) if a[0] < b[0] else (b, a)
    outer, inner = (e1, e2) if a[0] < b[0] else (e2, e1)
    if x < v < y:
        return EdgeRelation(Relation.CROSS)
    if y < v:
        return EdgeRelation(Relation.NEST, outer=outer, inner=inner)
    return EdgeRelation(Relation.DISJOINT)


def conflict_masks(g: OrderedGraph) -> tuple[list[int], list[int]]:
    """Per-edge bitmasks of crossing and nesting partners."""
    return _conflict_masks(g.edges)


def _conflict_masks(edges) -> tuple[list[int], list[int]]:
    """`conflict_masks` of a sorted edge tuple.

    Edges are sorted, so the inner loop stops at the first later edge that
    starts at or after v: it and every edge after it share v or lie to the
    right.  The work is O(m + overlapping pairs), not all pairs.  Inlined
    comparisons instead of classify_pair; this sits on the hot path of the
    solver.  Enumeration reads its candidates' masks off per-level tables
    instead (`enumeration.EnumFamily.conflict_table`).
    """
    m = len(edges)
    cross = [0] * m
    nest = [0] * m
    for i in range(m):
        u, v = edges[i]
        bit_i = 1 << i
        for j in range(i + 1, m):
            x, y = edges[j]
            if x >= v:
                break
            # Here u <= x < v.
            if u == x or v == y:
                continue
            if y < v:
                nest[i] |= 1 << j
                nest[j] |= bit_i
            else:
                cross[i] |= 1 << j
                cross[j] |= bit_i
    return cross, nest


def nesting_depths(edges) -> list[int]:
    """Nesting depth of each (u, v) pair: 1 + the deepest pair nested
    strictly inside it (x > u and y < v), so depths start at 1.

    Pairs at one depth never nest, and the largest depth is the largest
    rainbow.  Left endpoints are taken in decreasing groups: a group first
    reads a Fenwick prefix maximum over the right endpoints of the pairs
    strictly to its right, then enters its own depths; O(m log m).
    """
    depth = [0] * len(edges)
    size = max((v for _, v in edges), default=-1) + 1
    tree = [0] * (size + 1)  # tree[i] covers right endpoints below i
    order = sorted(range(len(edges)), key=lambda i: -edges[i][0])
    for _, group in groupby(order, key=lambda i: edges[i][0]):
        group = list(group)
        for i in group:
            best = 0
            pos = edges[i][1]
            while pos > 0:
                if tree[pos] > best:
                    best = tree[pos]
                pos &= pos - 1
            depth[i] = best + 1
        for i in group:
            pos = edges[i][1] + 1
            while pos <= size:
                if tree[pos] < depth[i]:
                    tree[pos] = depth[i]
                pos += pos & -pos
    return depth


def increasing_levels(values) -> list[int]:
    """Length of the longest strictly increasing subsequence ending at each
    value, in sequence order; the largest level is the LIS.

    The kernel reads the values alone: for points sorted by x, pass their
    y values, and their negations for decreasing runs (a permutation such
    as `GridMatching.pi` goes in as it is).  Patience sorting (Schensted
    1961): `tails[l]` is the smallest value that ends a run of length
    l + 1 so far; O(m log m).
    """
    tails: list[int] = []
    levels = []
    for y in values:
        pos = bisect_left(tails, y)
        if pos == len(tails):
            tails.append(y)
        else:
            tails[pos] = y
        levels.append(pos + 1)
    return levels


@dataclass(frozen=True)
class PageSpec:
    """Ordered list of page kinds; s stacks and q queues in some order."""

    kinds: tuple[PageKind, ...]

    @staticmethod
    def from_string(text: str) -> "PageSpec":
        return PageSpec(tuple(PageKind(c) for c in text.upper()))

    @staticmethod
    def split(s: int, q: int) -> "PageSpec":
        return PageSpec((PageKind.STACK,) * s + (PageKind.QUEUE,) * q)

    @property
    def s(self) -> int:
        return sum(1 for k in self.kinds if k is PageKind.STACK)

    @property
    def q(self) -> int:
        return sum(1 for k in self.kinds if k is PageKind.QUEUE)

    def __len__(self) -> int:
        return len(self.kinds)

    def __str__(self) -> str:
        return "".join(k.value for k in self.kinds)


@dataclass(frozen=True)
class PageAssignment:
    """Map from edge index to page index against a declared page spec."""

    spec: PageSpec
    page_of: tuple[int, ...]

    def pages(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.spec.kinds]
        for e, p in enumerate(self.page_of):
            out[p].append(e)
        return out

    @staticmethod
    def from_pages(pages, m: int) -> "PageAssignment":
        """The assignment of edges 0..m-1 to the nonempty `(kind, members)`
        pages, in order; an edge placed twice or never is an internal error."""
        kinds = []
        page_of: dict[int, int] = {}
        for kind, members in pages:
            if not members:
                continue
            for e in members:
                if e in page_of:
                    raise InternalError(f"pages hold edge {e} twice")
                page_of[e] = len(kinds)
            kinds.append(kind)
        if len(page_of) != m:
            raise InternalError(f"pages missed some of the {m} edges they must cover")
        return PageAssignment(PageSpec(tuple(kinds)), tuple([page_of[e] for e in range(m)]))


@dataclass(frozen=True)
class Violation:
    page: int
    kind: PageKind
    e1: int
    e2: int


def _page_sweeps(edges, members: list[int], stack: bool) -> bool:
    """One sweep of a page over the vertex order (Heath & Rosenberg 1992).

    At each vertex the edges ending there are closed first, then the edges
    starting there are opened: longest first onto a stack, shortest first
    into a queue.  Every close must remove an edge ending at the current
    vertex: a stack closes LIFO and fails exactly when the page holds a
    crossing pair, a queue closes FIFO and fails exactly when it holds a
    nesting pair.  A page with an edge not of the form u < v fails, and
    `_page_violations` rejects it.
    """
    events = []
    for e in members:
        u, v = edges[e]
        if not u < v:
            return False
        events.append((v, 0, 0, e))
        events.append((u, 1, -v if stack else v, e))
    events.sort()
    held: list[int] = []
    head = 0
    for vertex, opening, _, e in events:
        if opening:
            held.append(e)
        elif stack:
            if edges[held.pop()][1] != vertex:
                return False
        else:
            if edges[held[head]][1] != vertex:
                return False
            head += 1
    return True


def _page_violations(edges, members: list[int], stack: bool) -> list[tuple[int, int]]:
    """The crossing pairs of a stack page or the nesting pairs of a queue
    page, as sorted (smaller id, larger id) pairs; O(m log m + conflicts).

    The sweep of `_page_sweeps` with an explicit open list, linked in
    opening order.  At each vertex the closing edges leave in the order a
    valid page would take them, last opened first from a stack and first
    opened first from a queue, so every edge that shares an endpoint with e
    has left before e closes or is not open yet.  When e = (u, v) closes at
    v, every open edge opened after e crosses it on a stack (u < x < v < y),
    and every open edge opened before e nests it in a queue (x < u, v < y).
    """
    for e in members:
        u, v = edges[e]
        if not u < v:
            raise InvalidInputError(f"edge {e} = ({u},{v}) is not of the form u < v")
    opened = sorted(
        members, key=lambda e: (edges[e][0], -edges[e][1] if stack else edges[e][1], e)
    )
    k = len(opened)
    closes = sorted(range(k), key=lambda i: (edges[opened[i]][1], -i if stack else i))
    nxt = list(range(1, k + 1))  # k: no later edge
    prv = list(range(-1, k - 1))  # -1: no earlier edge
    n_open = 0
    pairs = []
    for i in closes:
        e = opened[i]
        v = edges[e][1]
        while n_open < k and edges[opened[n_open]][0] < v:
            n_open += 1
        if stack:
            j = nxt[i]
            while j < n_open:
                f = opened[j]
                pairs.append((e, f) if e < f else (f, e))
                j = nxt[j]
        else:
            j = prv[i]
            while j >= 0:
                f = opened[j]
                pairs.append((e, f) if e < f else (f, e))
                j = prv[j]
        before, after = prv[i], nxt[i]
        if before >= 0:
            nxt[before] = after
        if after < k:
            prv[after] = before
    pairs.sort()
    return pairs


def check_coverage(g: OrderedGraph, a: PageAssignment) -> None:
    """Raise CoverageMismatchError unless `a` puts each edge of g, and no
    other, on one of its pages."""
    if len(a.page_of) != g.m:
        raise CoverageMismatchError(
            f"assignment covers {len(a.page_of)} edges, graph has {g.m}"
        )
    for e, p in enumerate(a.page_of):
        if not 0 <= p < len(a.spec):
            raise CoverageMismatchError(f"edge {e} mapped to missing page {p}")


def validate_assignment(g: OrderedGraph, a: PageAssignment) -> list[Violation]:
    """Empty iff no stack page holds a crossing pair and no queue a nesting pair.

    Each page is checked by one sweep.  A page whose sweep fails has its
    violations listed by the same sweep with an explicit open list, in the
    order of the pairwise scan (by page, then by edge ids), at a cost of
    O(m log m + violations), not of all pairs.
    """
    check_coverage(g, a)
    violations = []
    for p, (members, kind) in enumerate(zip(a.pages(), a.spec.kinds)):
        stack = kind is PageKind.STACK
        if not _page_sweeps(g.edges, members, stack):
            pairs = _page_violations(g.edges, members, stack)
            violations.extend([Violation(p, kind, e1, e2) for e1, e2 in pairs])
    return violations


# Grid representation of separated matchings


@dataclass(frozen=True)
class GridMatching:
    """Permutation view of a separated matching: pi[col-1] = row, both 1-based."""

    pi: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.pi)

    def points(self) -> list[tuple[int, int]]:
        return [(x + 1, y) for x, y in enumerate(self.pi)]

    def __post_init__(self):
        if sorted(self.pi) != list(range(1, len(self.pi) + 1)):
            raise NotMatchingError(f"pi {self.pi} is not a permutation of 1..m")


def separation_cut(g: OrderedGraph) -> int:
    """Cut position c with every edge satisfying u < c <= v; 0 for edgeless."""
    if not g.edges:
        return 0
    max_left = max(u for u, _ in g.edges)
    min_right = min(v for _, v in g.edges)
    if max_left >= min_right:
        raise NotSeparatedError(
            f"left endpoint {max_left} not before right endpoint {min_right}"
        )
    return max_left + 1


def to_grid(g: OrderedGraph) -> GridMatching:
    """Grid representation; columns ordered by left, rows by right endpoints."""
    if not g.is_matching():
        raise NotMatchingError("grid representation needs a matching")
    separation_cut(g)
    by_left = sorted(range(g.m), key=lambda e: g.edges[e][0])
    right_rank = {
        e: r + 1
        for r, e in enumerate(sorted(range(g.m), key=lambda e: g.edges[e][1]))
    }
    return GridMatching(tuple([right_rank[e] for e in by_left]))


def grid_to_graph(grid: GridMatching) -> OrderedGraph:
    """Canonical separated matching on 2m vertices realizing the permutation."""
    m = grid.m
    return build_graph(2 * m, [(x - 1, m + y - 1) for x, y in grid.points()])


def grid_edge_order(g: OrderedGraph) -> list[int]:
    """Edge ids of g in grid column order (by left endpoint)."""
    return sorted(range(g.m), key=lambda e: g.edges[e][0])


def canonicalize_pattern(g: OrderedGraph) -> OrderedGraph:
    """Drop isolated vertices and reindex, preserving the order."""
    used = sorted({v for e in g.edges for v in e})
    index = {v: i for i, v in enumerate(used)}
    return OrderedGraph(
        len(used),
        tuple(sorted((index[u], index[v]) for u, v in g.edges)),
        g.multi,
    )


# Text formats: .olg graphs, `perm:` lines, assignment JSON


def _text_int(token: str) -> int:
    """`token` if it is ASCII digits; `int()` also takes signs, `_` and other digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{token!r} is not a number")
    return int(token)


def parse_olg(text: str, multi: bool = False) -> OrderedGraph:
    """Parse the `.olg` format: `n m` header then one `u v` pair per line."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected 'n m', got {lines[0]!r}", 1)
    try:
        n, m = _text_int(head[0]), _text_int(head[1])
    except ValueError:
        raise ParseError(f"bad header {lines[0]!r}", 1) from None
    edges = []
    lineno = 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            edges.append((_text_int(parts[0]), _text_int(parts[1])))
        except ValueError:
            raise ParseError(f"bad edge {line!r}", lineno) from None
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}", lineno)
    return build_graph(n, edges, multi=multi)


def dump_olg(g: OrderedGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_perm(text: str) -> GridMatching:
    """Parse `perm: p1 p2 ... pm` (values 1-based)."""
    line = text.strip()
    if not line.startswith("perm:"):
        raise ParseError("expected 'perm:' prefix", 1)
    try:
        values = tuple(_text_int(t) for t in line[len("perm:"):].split())
    except ValueError:
        raise ParseError(f"bad permutation values in {line!r}", 1) from None
    try:
        return GridMatching(values)
    except NotMatchingError as exc:
        raise ParseError(str(exc), 1) from None


def dump_perm(grid: GridMatching) -> str:
    return "perm: " + " ".join(str(v) for v in grid.pi) + "\n"


def dump_assignment(a: PageAssignment) -> str:
    return json.dumps(
        {"spec": [k.value for k in a.spec.kinds], "pages": list(a.page_of)}
    )


# What `json.loads` and reading its fields with int() and the enums raise on
# malformed input: int() of a JSON Infinity overflows, deep nesting recurses.
MALFORMED_JSON = (
    json.JSONDecodeError, KeyError, ValueError, TypeError, OverflowError, RecursionError
)


def _json(value, kind: type):
    """`value` if it is a JSON value of type `kind` (int, str or list).
    `int()` would also take 1.9, "0" and true, and a string or an object
    would be iterated as a list; here they raise ValueError, which the
    parsers report."""
    if type(value) is not kind:
        raise ValueError(f"{value!r} is not a JSON {kind.__name__}")
    return value


def parse_assignment(text: str) -> PageAssignment:
    """Parse `dump_assignment` output: page kinds as "S"/"Q" strings and
    pages as JSON integers; anything else raises ParseError."""
    try:
        data = json.loads(text)
        spec = PageSpec(tuple([PageKind(c) for c in _json(data["spec"], list)]))
        pages = tuple([_json(p, int) for p in _json(data["pages"], list)])
    except MALFORMED_JSON as exc:
        raise ParseError(f"bad assignment JSON: {exc}", 1) from None
    return PageAssignment(spec, pages)
