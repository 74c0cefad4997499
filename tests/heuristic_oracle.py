"""Restart-by-restart oracle for the cyclic coordinate-descent heuristic.

``heuristic_cyclic`` is the one-restart-at-a-time ``_heuristic_cyclic`` that
``frustration_heuristic`` ran before its restarts became the rows of
arrays: per restart, a Python loop over vertices and sweeps, and a generator
sum for the cost. ``heuristic_frustration`` drives it over the components of
a subset the way ``frustration_heuristic`` does, with one rng shared by the
components in order. A component that ``balance_oracle.dfs_balance`` finds
balanced, as a graph of its own, takes its trivializing switching at cost 0
instead of the descent, after the draws the descent would have made.
"""

import math

import numpy as np

from balance_oracle import dfs_balance
from frustration_oracle import _local_edges
from magneto import build_graph

_SWEEP_TOL = 1e-12
_MAX_SWEEPS = 500


def heuristic_cyclic(g, comp_verts, edges, restarts, rng):
    """Coordinate descent over exponents; returns (cost, exponent dict)."""
    k = g.group_order
    pos = {u: i for i, u in enumerate(comp_verts)}
    m = len(comp_verts)
    dist = 2.0 * np.sin(np.pi * np.arange(k) / k)
    # incident[i] = (neighbor positions, oriented signature exponents, weights)
    incident = [[] for _ in range(m)]
    for lu, lv, idx in edges:
        s, w = int(g.sig[idx]), float(g.ew[idx])
        incident[lu].append((lv, s, w))
        incident[lv].append((lu, -s, w))
    inc = [
        (np.array([t[0] for t in lst], dtype=np.int64),
         np.array([t[1] for t in lst], dtype=np.int64),
         np.array([t[2] for t in lst]))
        for lst in incident
    ]

    def cost_of(a):
        return sum(
            dist[(a[lu] - a[lv] - int(g.sig[idx])) % k] * float(g.ew[idx])
            for lu, lv, idx in edges
        )

    best_cost, best_a = math.inf, np.zeros(m, dtype=np.int64)
    for r in range(max(1, restarts)):
        a = np.zeros(m, dtype=np.int64) if r == 0 else rng.integers(0, k, size=m)
        prev = cost_of(a)
        for _ in range(_MAX_SWEEPS):
            for i in range(m):
                nb, se, wt = inc[i]
                if len(nb) == 0:
                    a[i] = 0
                    continue
                local = ((np.arange(k)[:, None] - a[nb][None, :] - se[None, :]) % k)
                a[i] = int(np.argmin(np.cumsum(dist[local] * wt, axis=1)[:, -1]))
            cur = cost_of(a)
            if prev - cur < _SWEEP_TOL:
                break
            prev = cur
        cur = cost_of(a)
        if cur < best_cost:
            best_cost, best_a = cur, a.copy()
    return best_cost, {u: int(best_a[pos[u]]) for u in comp_verts}


def heuristic_frustration(g, mask, restarts, seed):
    """(value, {vertex: exponent}) of the heuristic on a cyclic-group subset."""
    rng = np.random.default_rng(seed)
    total, assignment = 0.0, {}
    for comp in g.components_of(mask):
        edges = _local_edges(g, comp, mask)
        if len(comp) == 1 or not edges:
            assignment[comp[0]] = 0
            continue
        balanced, tau = dfs_balance(build_graph(len(comp), [
            (lu, lv, float(g.ew[e]), g.signature_element(e)) for lu, lv, e in edges
        ]))
        if balanced:
            for _ in range(1, max(1, restarts)):
                rng.integers(0, g.group_order, size=len(comp))
            cost, vals = 0.0, {u: tau[i].exponent for i, u in enumerate(comp)}
        else:
            cost, vals = heuristic_cyclic(g, comp, edges, restarts, rng)
        total += cost
        assignment.update(vals)
    return total, assignment
