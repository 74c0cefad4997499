"""Brute-force oracles for exact frustration.

``enumerate_frustration`` is the gauge-fixed enumeration that
``frustration_exact`` ran before its cost-tensor kernel: per component, every
one of the k^(m-1) exponent vectors (first vertex pinned to 0) is decoded by
div/mod in big-endian order, its edge differences are gathered and priced, and
the first minimum in that order wins. It prices a difference j with the
kernel's symmetric table 2 sin(pi min(j, k-j) / k), and sums each row along
its own axis, so two vectors whose edges cost the same get the same float.

``lex_first_min_count`` counts frustrated edges in integers. On unit weights
with k in {2, 3} every frustrated edge costs the same, so its lexicographically
first minimizer carries no rounding at all.
"""

import itertools

import numpy as np

from conftest import components_of

CHUNK = 1 << 15


def _local_edges(g, comp, mask):
    pos = {u: i for i, u in enumerate(comp)}
    return [(pos[int(g.eu[e])], pos[int(g.ev[e])], int(e))
            for e in g.induced_edge_indices(mask) if int(g.eu[e]) in pos]


def enumerate_frustration(g, mask):
    """(value, {vertex: exponent}, evaluations) by full gauge-fixed enumeration."""
    k = g.group_order
    j = np.arange(k)
    dist = 2.0 * np.sin(np.pi * np.minimum(j, k - j) / k)
    total, evaluations, assignment = 0.0, 0, {}
    for comp in components_of(g, mask):
        edges = _local_edges(g, comp, mask)
        m = len(comp)
        if m == 1 or not edges or k == 1:
            assignment.update(dict.fromkeys(comp, 0))
            evaluations += 1
            continue
        le_u = np.array([e[0] for e in edges])
        le_v = np.array([e[1] for e in edges])
        le_s = g.sig[[e[2] for e in edges]]
        le_w = g.ew[[e[2] for e in edges]]
        size = k ** (m - 1)
        radix = k ** np.arange(m - 2, -1, -1, dtype=np.int64)
        best_val, best_idx = np.inf, -1
        for lo in range(0, size, CHUNK):
            idx = np.arange(lo, min(lo + CHUNK, size), dtype=np.int64)
            exps = np.zeros((len(idx), m), dtype=np.int64)
            exps[:, 1:] = (idx[:, None] // radix[None, :]) % k
            diffs = (exps[:, le_u] - exps[:, le_v] - le_s[None, :]) % k
            cost = (dist[diffs] * le_w[None, :]).sum(axis=1)
            i = int(np.argmin(cost))
            if cost[i] < best_val:
                best_val, best_idx = float(cost[i]), lo + i
        evaluations += size
        total += best_val
        exps = [0] + [int((best_idx // int(r)) % k) for r in radix]
        assignment.update(zip(comp, exps))
    return total, assignment, evaluations


def lex_first_min_count(g, mask):
    """(frustrated edge count, {vertex: exponent}) of the lexicographically first
    assignment that frustrates the fewest induced edges, first vertex of each
    component pinned to 0."""
    k = g.group_order
    count, assignment = 0, {}
    for comp in components_of(g, mask):
        edges = _local_edges(g, comp, mask)
        best = None
        for free in itertools.product(range(k), repeat=len(comp) - 1):
            a = (0,) + free
            c = sum((a[u] - a[v] - int(g.sig[e])) % k != 0 for u, v, e in edges)
            if best is None or c < best[0]:
                best = (c, a)
        count += best[0]
        assignment.update(zip(comp, best[1]))
    return count, assignment
