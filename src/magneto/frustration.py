"""Frustration index: the l1 gauge-optimization problem over switchings.

``frustration_exact`` enumerates the gauge-fixed search space (one vertex per
connected component of the induced subgraph is pinned to 1, which leaves the
cost invariant). ``frustration_heuristic`` is greedy coordinate descent and
only ever yields an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MagnetoError
from .graph import MagneticGraph, SwitchingAssignment
from .groups import CIRCLE, CYCLIC, GroupElement

DEFAULT_BUDGET = 10**7
_CHUNK = 1 << 15
_SWEEP_TOL = 1e-12
_MAX_SWEEPS = 500


@dataclass(frozen=True)
class FrustrationResult:
    value: float
    minimizer: SwitchingAssignment
    exact: bool
    evaluations: int


def frustration_cycle_oracle(sigma: GroupElement) -> float:
    """Closed form for a unit-weight cycle with signature product sigma: |1 - sigma|."""
    return sigma.dist_to_one()


def l1_switch_cost(g: MagneticGraph, subset, tau: SwitchingAssignment) -> float:
    """Sum over induced edges of w_uv * |tau(u) - s_uv tau(v)|."""
    mask = g.as_mask(subset)
    g._check_tau_group(tau)
    total = 0.0
    for idx in g.induced_edge_indices(mask):
        u, v = int(g.eu[idx]), int(g.ev[idx])
        s = g.signature_element(int(idx))
        if g.group_kind == CYCLIC:
            # |xi^a - xi^(s+b)| = 2 sin(pi ((a-b-s) mod k)/k), exact
            d = (tau[u].exponent - tau[v].exponent - s.exponent) % g.group_order
            term = 2.0 * math.sin(math.pi * d / g.group_order)
        else:
            term = abs(tau[u].value() - s.value() * tau[v].value())
        total += float(g.ew[idx]) * term
    return total


def _component_local_edges(g, comp, mask):
    """Edges of the induced subgraph restricted to one component, in local indices."""
    pos = {u: i for i, u in enumerate(comp)}
    in_comp = set(comp)
    out = []
    for idx in g.induced_edge_indices(mask):
        u, v = int(g.eu[idx]), int(g.ev[idx])
        if u in in_comp:
            out.append((pos[u], pos[v], idx))
    return out


def frustration_exact(g: MagneticGraph, subset, budget: int = DEFAULT_BUDGET) -> FrustrationResult:
    """Global minimum of the l1 switch cost over tau: V1 -> S^1_k.

    Ties are broken toward the lexicographically smallest exponent vector in
    vertex order. Raises CONTINUOUS_GROUP for S^1 and BUDGET_EXCEEDED when the
    gauge-fixed space k^(|V1|-c) is larger than ``budget``; past those checks
    the result is computed once per graph and subset.
    """
    if g.group_kind == CIRCLE:
        raise MagnetoError("CONTINUOUS_GROUP", "exact frustration requires a cyclic group")
    mask = g.as_mask(subset)
    k = g.group_order
    comps = g.components_of(mask)
    n_sub = sum(len(c) for c in comps)
    if k ** max(n_sub - len(comps), 0) > budget:
        raise MagnetoError(
            "BUDGET_EXCEEDED",
            f"gauge-fixed space {k}^{n_sub - len(comps)} exceeds budget {budget}",
        )
    return g.memo(("frustration_exact", mask), lambda: _solve_exact(g, mask, comps))


def _solve_exact(g: MagneticGraph, mask: int, comps: list) -> FrustrationResult:
    k = g.group_order
    dist = 2.0 * np.sin(np.pi * np.arange(k) / k)
    total = 0.0
    evaluations = 0
    assignment = {}
    for comp in comps:
        edges = _component_local_edges(g, comp, mask)
        m = len(comp)
        if m == 1 or not edges or k == 1:
            for u in comp:
                assignment[u] = 0
            evaluations += 1
            continue
        le_u = np.array([e[0] for e in edges])
        le_v = np.array([e[1] for e in edges])
        le_s = g.sig[[e[2] for e in edges]]
        le_w = g.ew[[e[2] for e in edges]]
        size = k ** (m - 1)
        # big-endian mixed radix: index argmin == lexicographically first minimizer
        radix = k ** np.arange(m - 2, -1, -1, dtype=np.int64) if m > 1 else None
        best_val, best_idx = math.inf, -1
        for lo in range(0, size, _CHUNK):
            hi = min(lo + _CHUNK, size)
            idx = np.arange(lo, hi, dtype=np.int64)
            exps = np.zeros((hi - lo, m), dtype=np.int64)
            exps[:, 1:] = (idx[:, None] // radix[None, :]) % k
            diffs = (exps[:, le_u] - exps[:, le_v] - le_s[None, :]) % k
            cost = dist[diffs] @ le_w
            j = int(np.argmin(cost))
            if cost[j] < best_val:
                best_val, best_idx = float(cost[j]), lo + j
        evaluations += size
        total += best_val
        exps = [0] + [int((best_idx // int(r)) % k) for r in radix]
        for u, e in zip(comp, exps):
            assignment[u] = e
    verts = sorted(assignment)
    tau = SwitchingAssignment.from_exponents(verts, [assignment[u] for u in verts], k)
    return FrustrationResult(total, tau, True, evaluations)


def _heuristic_cyclic(g, comp_verts, edges, restarts, rng):
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
                a[i] = int(np.argmin(dist[local] @ wt))
            cur = cost_of(a)
            if prev - cur < _SWEEP_TOL:
                break
            prev = cur
        cur = cost_of(a)
        if cur < best_cost:
            best_cost, best_a = cur, a.copy()
    return best_cost, {u: int(best_a[pos[u]]) for u in comp_verts}


def _heuristic_circle(g, comp_verts, edges, restarts, rng):
    pos = {u: i for i, u in enumerate(comp_verts)}
    m = len(comp_verts)
    incident = [[] for _ in range(m)]
    for lu, lv, idx in edges:
        s, w = float(g.sig[idx]), float(g.ew[idx])
        incident[lu].append((lv, s, w))
        incident[lv].append((lu, -s, w))

    def cost_of(theta):
        return sum(
            2.0 * abs(math.sin((theta[lu] - theta[lv] - float(g.sig[idx])) / 2.0)) * float(g.ew[idx])
            for lu, lv, idx in edges
        )

    best_cost, best_t = math.inf, np.zeros(m)
    for r in range(max(1, restarts)):
        theta = np.zeros(m) if r == 0 else rng.uniform(0, 2 * np.pi, size=m)
        prev = cost_of(theta)
        for _ in range(_MAX_SWEEPS):
            for i in range(m):
                if not incident[i]:
                    theta[i] = 0.0
                    continue
                # the l1 coordinate minimizer sits at one of the neighbor targets
                # s_uv * tau(v) (the summands are concave away from their corners)
                cands = [theta[lv] + s for lv, s, _ in incident[i]] + [theta[i]]
                costs = [
                    sum(2.0 * abs(math.sin((c - theta[lv] - s) / 2.0)) * w
                        for lv, s, w in incident[i])
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
    return best_cost, {u: float(best_t[pos[u]]) for u in comp_verts}


def frustration_heuristic(
    g: MagneticGraph, subset, restarts: int = 8, seed: int = 0
) -> FrustrationResult:
    """Coordinate-descent upper bound on the frustration index."""
    mask = g.as_mask(subset)
    rng = np.random.default_rng(seed)
    comps = g.components_of(mask)
    total = 0.0
    assignment = {}
    evaluations = 0
    for comp in comps:
        edges = _component_local_edges(g, comp, mask)
        if len(comp) == 1 or not edges:
            assignment[comp[0]] = 0 if g.group_kind == CYCLIC else 0.0
            continue
        if g.group_kind == CYCLIC:
            cost, vals = _heuristic_cyclic(g, comp, edges, restarts, rng)
        else:
            cost, vals = _heuristic_circle(g, comp, edges, restarts, rng)
        total += cost
        assignment.update(vals)
        evaluations += max(1, restarts) * len(comp)
    verts = sorted(assignment)
    if g.group_kind == CYCLIC:
        tau = SwitchingAssignment.from_exponents(verts, [assignment[u] for u in verts], g.group_order)
    else:
        tau = SwitchingAssignment.from_angles(verts, [assignment[u] for u in verts])
    return FrustrationResult(total, tau, False, evaluations)
