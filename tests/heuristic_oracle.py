"""Restart-by-restart oracles for the coordinate-descent heuristic.

``heuristic_cyclic`` and ``heuristic_circle`` are the one-restart-at-a-time
descents over S^1_k and S^1 that ``frustration_heuristic`` ran before its
restarts became the rows of arrays: per restart, a Python loop over vertices
and sweeps, and a generator sum for the cost. ``heuristic_circle`` is the
last of them to leave the library, as it stood there; it weighs each
vertex's neighbour targets s_uv tau(v), then its own angle.
``heuristic_frustration`` drives them over the components of a subset the
way ``frustration_heuristic`` does, with one rng shared by the components in
order. A cyclic component that ``balance_oracle.dfs_balance`` finds
balanced, as a graph of its own, takes its trivializing switching at cost 0
instead of the descent, after the draws the descent would have made; an S^1
component always descends.
"""

import math

import numpy as np

from balance_oracle import dfs_balance
from frustration_oracle import _local_edges
from magneto import build_graph
from magneto.groups import TWO_PI

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


def _circle_incidence(g, edges, m):
    """(lu, lv, e) arrays of the local edges of a component of m vertices, in
    storage order, and per vertex the (neighbours, signatures from it,
    weights) arrays of its edges in that order, a signature negated at its
    edge's upper end."""
    incident = [[] for _ in range(m)]
    for lu, lv, idx in edges:
        s, w = float(g.sig[idx]), float(g.ew[idx])
        incident[lu].append((lv, s, w))
        incident[lv].append((lu, -s, w))
    arrays = tuple(np.array(col) for col in zip(*edges))
    return arrays, [tuple(np.array(col) for col in zip(*lst)) for lst in incident]


def heuristic_circle(g, edges, incident, restarts, rng):
    """Coordinate descent over angles; returns (cost, local angles). ``edges``
    and ``incident`` are arrays as ``magneto.frustration._incidence`` gives
    them, which ``_circle_incidence`` builds here edge by edge."""
    m = len(incident)
    lu, lv, e = edges
    terms = list(zip(lu.tolist(), lv.tolist(), g.sig[e].tolist(), g.ew[e].tolist()))
    inc = [list(zip(*(col.tolist() for col in cols))) for cols in incident]

    def cost_of(theta):
        return sum(2.0 * abs(math.sin((theta[a] - theta[b] - s) / 2.0)) * w for a, b, s, w in terms)

    best_cost, best_t = math.inf, np.zeros(m)
    for r in range(max(1, restarts)):
        theta = np.zeros(m) if r == 0 else rng.uniform(0, 2 * np.pi, size=m)
        prev = cost_of(theta)
        for _ in range(_MAX_SWEEPS):
            for i in range(m):
                # the l1 coordinate minimizer sits at one of the neighbor targets
                # s_uv * tau(v) (the summands are concave away from their corners);
                # no list is empty, since the component is connected
                cands = [theta[v] + s for v, s, _ in inc[i]] + [theta[i]]
                costs = [
                    sum(2.0 * abs(math.sin((c - theta[v] - s) / 2.0)) * w
                        for v, s, w in inc[i])
                    for c in cands
                ]
                theta[i] = cands[int(np.argmin(costs))] % (2 * np.pi)
            cur = cost_of(theta)
            if prev - cur < _SWEEP_TOL:
                break
            prev = cur
        cur = cost_of(theta)
        if cur < best_cost:
            best_cost, best_t = cur, theta.copy()
    return best_cost, best_t


def heuristic_frustration(g, mask, restarts, seed):
    """(value, {vertex: exponent or angle in [0, 2pi)}) of the heuristic on a subset."""
    rng = np.random.default_rng(seed)
    total, assignment = 0.0, {}
    for comp in g.components_of(mask):
        edges = _local_edges(g, comp, mask)
        if len(comp) == 1 or not edges:
            assignment[comp[0]] = 0
            continue
        if g.group_kind == "circle":
            edges, incident = _circle_incidence(g, edges, len(comp))
            cost, theta = heuristic_circle(g, edges, incident, restarts, rng)
            total += cost
            assignment.update({u: float(theta[i]) % TWO_PI for i, u in enumerate(comp)})
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
