"""`greene._network_simplex` as it was before it kept node depths and found
the leaving edge on the walk to the apex, kept verbatim as the oracle for
the differential tests.

It keeps subtree sizes, builds the cycle as a list and reads it backwards.
The package must return exactly the `(cost, flow)` this returns on every
network, and raise the same error where this raises.
"""

from __future__ import annotations

from itertools import chain
from math import ceil, sqrt

from mixedpages.errors import InternalError


def _network_simplex(
    demand: list[int],
    sources: list[int],
    targets: list[int],
    capacity: list[int],
    weight: list[int],
) -> tuple[int, list[int]]:
    """Minimum-cost flow by the primal network simplex; returns (cost, flows).

    Nodes are 0..n-1 with n = len(demand) (negative demand is supply); edge
    e runs sources[e] -> targets[e].  Ported from NetworkX 3.x
    `network_simplex` (BSD-3-Clause; Kiraly & Kovacs 2012).  It makes the
    same pivots on the same numbering: an artificial root n joined to every
    node, block search for the entering edge with blocks of ceil(sqrt(E))
    edges (the first edge of least reduced cost in a block), the first
    minimum residual capacity over the reversed cycle for the leaving edge,
    and the same depth-first thread updates.  So it returns the very flow
    NetworkX returns, not merely one of the same cost.
    """
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
    # The spanning tree: every node a child of the root, threaded 0..n-1.
    parent = [root] * n + [-1]
    parent_edge = list(range(edges, edges + n)) + [-1]
    size = [1] * n + [n + 1]
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
            scan = range(f, l)
        else:
            l -= edges
            scan = chain(range(f, edges), range(l))
        f = l
        best = 0
        i = -1
        for e in scan:
            c = wt[e] - pot[src[e]] + pot[tgt[e]]
            if flow[e]:
                c = -c
            if c < best:
                best = c
                i = e
        if i < 0:
            misses += 1
            continue
        misses = 0
        if flow[i] == 0:
            p, q = src[i], tgt[i]
        else:
            p, q = tgt[i], src[i]

        # The cycle through i, oriented from p to q: down from the apex w
        # to p, edge i, then up from q to w.  Tree edges keep reduced cost
        # 0, so i is never one of them.
        a, b = p, q
        size_a, size_b = size[a], size[b]
        while a != b:
            while size_a < size_b:
                a = parent[a]
                size_a = size[a]
            while size_a > size_b:
                b = parent[b]
                size_b = size[b]
            if size_a == size_b and a != b:
                a = parent[a]
                size_a = size[a]
                b = parent[b]
                size_b = size[b]
        w = a
        cycle_nodes = [p]
        cycle_edges = []
        v = p
        while v != w:
            cycle_edges.append(parent_edge[v])
            v = parent[v]
            cycle_nodes.append(v)
        cycle_nodes.reverse()
        cycle_edges.reverse()
        cycle_edges.append(i)
        cycle_nodes.append(q)
        v = q
        while v != w:
            cycle_edges.append(parent_edge[v])
            v = parent[v]
            cycle_nodes.append(v)
        del cycle_nodes[-1]

        # Leaving edge: the first least residual capacity, read backwards.
        j = s = -1
        least = None
        for e, u in zip(reversed(cycle_edges), reversed(cycle_nodes)):
            r = cap[e] - flow[e] if src[e] == u else flow[e]
            if least is None or r < least:
                least, j, s = r, e, u
        if least:
            for e, u in zip(cycle_edges, cycle_nodes):
                if src[e] == u:
                    flow[e] += least
                else:
                    flow[e] -= least
        if i == j:
            continue
        t = tgt[j] if src[j] == s else src[j]
        if parent[t] != s:
            s, t = t, s
        if cycle_edges.index(i) > cycle_edges.index(j):
            p, q = q, p

        # Remove the tree edge (s, t): cut t's subtree out of the thread.
        size_t = size[t]
        prev_t = prev_dft[t]
        last_t = last_dft[t]
        next_last_t = next_dft[last_t]
        parent[t] = -1
        parent_edge[t] = -1
        next_dft[prev_t] = next_last_t
        prev_dft[next_last_t] = prev_t
        next_dft[last_t] = t
        prev_dft[t] = last_t
        while s != -1:
            size[s] -= size_t
            if last_dft[s] == last_t:
                last_dft[s] = prev_t
            s = parent[s]

        # Make q the root of its subtree by reversing the path up to t.
        path = []
        v = q
        while v != -1:
            path.append(v)
            v = parent[v]
        path.reverse()
        for a, b in zip(path, path[1:]):
            size_a = size[a]
            last_a = last_dft[a]
            prev_b = prev_dft[b]
            last_b = last_dft[b]
            next_last_b = next_dft[last_b]
            parent[a] = b
            parent[b] = -1
            parent_edge[a] = parent_edge[b]
            parent_edge[b] = -1
            size[a] = size_a - size[b]
            size[b] = size_a
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

        # Hang q's subtree below p by the entering edge i.
        last_p = last_dft[p]
        next_last_p = next_dft[last_p]
        size_q = size[q]
        last_q = last_dft[q]
        parent[q] = p
        parent_edge[q] = i
        next_dft[last_p] = q
        prev_dft[q] = last_p
        prev_dft[next_last_p] = last_q
        next_dft[last_q] = next_last_p
        v = p
        while v != -1:
            size[v] += size_q
            if last_dft[v] == last_p:
                last_dft[v] = last_q
            v = parent[v]

        # Shift the potentials of q's subtree so that i has reduced cost 0.
        if q == tgt[i]:
            d = pot[p] - wt[i] - pot[q]
        else:
            d = pot[p] + wt[i] - pot[q]
        v = q
        pot[v] += d
        while v != last_q:
            v = next_dft[v]
            pot[v] += d

    if any(flow[edges:]):
        raise InternalError("network simplex left flow on an artificial edge")
    del flow[edges:]
    return sum(w * x for w, x in zip(weight, flow)), flow
