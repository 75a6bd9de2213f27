"""`greene.max_family` as it was before the in-package network simplex,
on `networkx.network_simplex`, kept verbatim as the oracle for the
differential tests.

The package must return exactly the family this returns: the same parts in
the same order, not merely one of the same coverage.
"""

from __future__ import annotations

import networkx as nx

from mixedpages.core import GridMatching
from mixedpages.errors import InternalError
from mixedpages.greene import ChainFamily, FamilyKind, _hasse_covers


def max_family(grid: GridMatching, kind: FamilyKind, k: int) -> ChainFamily:
    """Maximum k-family of disjoint chains (antichains) by min-cost flow.

    Coverage equals the Greene prefix sum c_k (a_k); cross-checked against
    the RSK shape in the test suite.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if kind is FamilyKind.CHAINS:
        points = grid.points()
    else:
        points = [(x, grid.m + 1 - y) for x, y in grid.points()]
    m = len(points)
    if m == 0:
        return ChainFamily(kind, (), 0)

    g = nx.DiGraph()
    g.add_node("s", demand=-k)
    g.add_node("t", demand=k)
    g.add_edge("s", "t", capacity=k, weight=0)
    for i in range(m):
        g.add_edge("s", ("in", i), capacity=k, weight=0)
        g.add_edge(("in", i), ("rw", i), capacity=1, weight=-1)
        g.add_edge(("rw", i), ("out", i), capacity=1, weight=0)
        g.add_edge(("in", i), ("out", i), capacity=k, weight=0)
        g.add_edge(("out", i), "t", capacity=k, weight=0)
    for i, j in _hasse_covers(points):
        g.add_edge(("out", i), ("in", j), capacity=k, weight=0)

    cost, flow = nx.network_simplex(g)
    parts = []
    for _ in range(k):
        node = "s"
        chain = []
        while node != "t":
            for succ, units in flow[node].items():
                if units > 0:
                    flow[node][succ] -= 1
                    if isinstance(succ, tuple) and succ[0] == "rw":
                        chain.append(succ[1])
                    node = succ
                    break
            else:
                raise AssertionError("flow decomposition stuck")
        if chain:
            parts.append(tuple(chain))
    family = ChainFamily(kind, tuple(parts), -cost)
    if family.covered != sum(len(p) for p in parts):
        raise InternalError(
            f"flow covers {family.covered} elements, its chains hold "
            f"{sum(len(p) for p in parts)}"
        )
    return family
