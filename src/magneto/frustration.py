"""Frustration index: the l1 gauge-optimization problem over switchings.

``frustration_exact`` searches the gauge-fixed space exhaustively (one vertex
per connected component of the induced subgraph is pinned to 1, which leaves
the cost invariant): per component, a cost tensor over its last vertices is
built from broadcast edge tables for every assignment of the vertices before
them. ``frustration_heuristic`` is greedy coordinate descent and only ever
yields an upper bound. Its restarts are the rows of arrays, in blocks of
bounded size, that every sweep updates at once; each row's per-vertex step
stays a (k, deg) @ (deg,) matmul, since on unit weights the BLAS rounding of
that product breaks ties, and perfbench's check of h_upper on the c4 x c4
torus depends on those ties. ``frustrated_cycle_packing`` bounds the index
from below: a greedy packing of edge-disjoint frustrated cycles, each of
which costs every switching at least its least weight times |1 - sigma(C)|.
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


def _dist_table(k: int) -> np.ndarray:
    """|1 - xi^j| for j = 0..k-1. It equals |1 - xi^(k-j)| as a float too,
    so exact ties stay ties."""
    j = np.arange(k)
    return 2.0 * np.sin(np.pi * np.minimum(j, k - j) / k)


def _solve_exact(g: MagneticGraph, mask: int, comps: tuple) -> FrustrationResult:
    k = g.group_order
    dist = _dist_table(k)
    total = 0.0
    evaluations = 0
    assignment = {}
    for comp in comps:
        edges = _component_local_edges(g, comp, mask)
        m = len(comp)
        if m == 1 or not edges or k == 1:
            assignment.update(dict.fromkeys(comp, 0))
            evaluations += 1
            continue
        value, exps = _solve_component(g, dist, m, edges)
        evaluations += k ** (m - 1)
        total += value
        assignment.update(zip(comp, exps))
    verts = sorted(assignment)
    tau = SwitchingAssignment.from_exponents(verts, [assignment[u] for u in verts], k)
    return FrustrationResult(total, tau, True, evaluations)


def _solve_component(g, dist, m, edges):
    """(cost, exponents) of the lexicographically first minimizer of one
    component in local vertex order, local vertex 0 pinned to 0.

    The last q vertices, with k^q <= _CHUNK (q >= 1), span a cost tensor; the
    h = m - q vertices before them form a prefix, whose k^(h-1) assignments
    (vertex 0 pinned) are enumerated in big-endian order. An edge inside the
    tensor adds a k x k table, once per component; an edge from the prefix
    into the tensor adds a length-k vector along one axis, and an edge inside
    the prefix a scalar, per prefix. Each cost is summed in one fixed edge
    order, the tensor's edges first, so assignments whose edges cost the same
    floats cost the same float; summing the vectors of one axis first would
    not keep that. The C-order argmin of a tensor is its big-endian first
    minimum, and a later prefix wins only when strictly cheaper. Prefixes go
    in blocks of _CHUNK // k, so an edge's per-prefix terms never take more
    than about _CHUNK floats.
    """
    k = len(dist)
    q = 1
    while q < m - 1 and k ** (q + 1) <= _CHUNK:
        q += 1
    h = m - q
    radix = k ** np.arange(h - 2, -1, -1, dtype=np.int64)
    b = np.arange(k)
    tensor = np.zeros((k,) * q)
    crossing = []  # (lu, lv, s, w) of the edges with an end in the prefix
    for lu, lv, idx in edges:  # graphs store u < v, so lu < lv
        s, w = int(g.sig[idx]), float(g.ew[idx])
        if lu < h:
            crossing.append((lu, lv, s, w))
        else:
            shape = [1] * q
            shape[lu - h] = shape[lv - h] = k
            tensor += (w * dist[(b[:, None] - b - s) % k]).reshape(shape)
    best, best_exps = math.inf, None
    n_pre = k ** (h - 1)
    block = max(1, _CHUNK // k)  # prefixes per block: k * block <= _CHUNK floats per edge
    for lo in range(0, n_pre, block):
        pre = np.zeros((min(block, n_pre - lo), h), dtype=np.int64)
        pre[:, 1:] = (np.arange(lo, lo + len(pre), dtype=np.int64)[:, None] // radix) % k
        terms = []
        for lu, lv, s, w in crossing:
            if lv < h:
                terms.append(w * dist[(pre[:, lu] - pre[:, lv] - s) % k])
            else:
                shape = [len(pre)] + [1] * q
                shape[lv - h + 1] = k
                terms.append((w * dist[(pre[:, lu, None] - b - s) % k]).reshape(shape))
        for r in range(len(pre)):
            cost = tensor.copy()
            for term in terms:
                cost += term[r]
            i = int(np.argmin(cost))
            if cost.flat[i] < best:
                best = float(cost.flat[i])
                best_exps = list(pre[r]) + list(np.unravel_index(i, cost.shape))
    return best, [int(e) for e in best_exps]


def _heuristic_cyclic(g, comp_verts, edges, restarts, rng):
    """Coordinate descent over exponents; returns (cost, exponent dict).

    The max(1, restarts) starts are the rows of arrays of at most about
    _CHUNK // (k * deg + edges) rows each: row 0 is all zeros, row r >= 1 is
    drawn from ``rng`` in row order. A Gauss-Seidel sweep moves vertex i, in
    every row of the block still active, to the first minimizer of its local
    cost: a (k, deg) @ (deg,) product on the row's own C-contiguous slice, so
    the BLAS rounds every row as it would round that row alone. A row drops
    out once a sweep lowers its cost, summed sequentially in edge order, by
    less than _SWEEP_TOL; the first row of least final cost wins.
    """
    k = g.group_order
    m = len(comp_verts)
    dist = 2.0 * np.sin(np.pi * np.arange(k) / k)
    b = np.arange(k)[:, None]
    # incident[i] = (neighbor positions, oriented signature exponents, weights);
    # no list is empty, since the component is connected
    incident = [[] for _ in range(m)]
    for lu, lv, idx in edges:
        s, w = int(g.sig[idx]), float(g.ew[idx])
        incident[lu].append((lv, s, w))
        incident[lv].append((lu, -s, w))
    # inc[i] = (neighbor positions, (b - s) mod k as a (k, deg) table, weights)
    inc = [
        (np.array([t[0] for t in lst], dtype=np.int64),
         (b - np.array([t[1] for t in lst], dtype=np.int64)) % k,
         np.array([t[2] for t in lst]))
        for lst in incident
    ]
    lu, lv, eidx = (np.array(col, dtype=np.int64) for col in zip(*edges))
    sig, w = g.sig[eidx].astype(np.int64), g.ew[eidx]

    def costs_of(rows):
        return np.cumsum(dist[(rows[:, lu] - rows[:, lv] - sig) % k] * w, axis=1)[:, -1]

    def descend(a):
        """Sweep the rows of ``a`` in place; return their final costs."""
        active = np.arange(len(a))
        prev = costs_of(a)
        for _ in range(_MAX_SWEEPS):
            sub = a[active]
            for i, (nb, off, wt) in enumerate(inc):
                # off - a[nb] lies in (-k, k), and dist[j - k] is dist[j]. The
                # lookup inherits the strided layout of sub[:, None, nb] (a
                # slice beside an index array), so it is copied to C order
                local = np.ascontiguousarray(dist[off - sub[:, None, nb]])
                sub[:, i] = (local @ wt).argmin(axis=1)
            a[active] = sub
            cur = costs_of(sub)
            going = prev[active] - cur >= _SWEEP_TOL
            prev[active] = cur
            active = active[going]
            if not len(active):
                break
        return prev

    total = max(1, restarts)
    # each row holds k * deg floats per vertex step and one per edge in costs_of
    block = max(1, _CHUNK // (k * max(len(nb) for nb, _, _ in inc) + len(edges)))
    best_cost, best_a = math.inf, None
    for start in range(0, total, block):
        rows = [np.zeros(m, dtype=np.int64)] if start == 0 else []
        rows += [rng.integers(0, k, size=m)
                 for _ in range(max(1, start), min(total, start + block))]
        a = np.array(rows)
        costs = descend(a)
        r = int(np.argmin(costs))
        if costs[r] < best_cost:
            best_cost, best_a = float(costs[r]), a[r]
    return best_cost, {u: int(best_a[i]) for i, u in enumerate(comp_verts)}


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
    """Coordinate-descent upper bound on the frustration index, computed once per
    graph, subset, restart count and seed. Each solve seeds its own rng, so a
    kept result is the one a fresh graph gives."""
    mask = g.as_mask(subset)
    return g.memo(("frustration_heuristic", mask, restarts, seed),
                  lambda: _solve_heuristic(g, mask, restarts, seed))


def _solve_heuristic(g: MagneticGraph, mask: int, restarts: int, seed: int) -> FrustrationResult:
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


@dataclass(frozen=True)
class PackedCycle:
    vertices: tuple  # in walk order; an edge joins the last vertex to the first
    mask: int
    value: float  # least weight on the cycle times |1 - sigma(C)|


def frustrated_cycle_packing(g: MagneticGraph) -> tuple:
    """Edge-disjoint frustrated cycles whose values bound iota from below.

    For a cycle C inside S, sum over its edges of w |tau(u) - s tau(v)| is at
    least min_C w |1 - sigma(C)| by the triangle inequality along C, so
    iota(S) is at least the sum of the values of the packed cycles whose
    vertices all lie in S. The packing is greedy: it repeatedly takes a
    shortest frustrated cycle among the remaining edges, then removes that
    cycle's edges. Computed once per graph; empty for S^1 and for k = 1.
    """
    if g.group_kind != CYCLIC or g.group_order < 2:
        return ()
    return g.memo("cycle_packing", lambda: _pack_cycles(g))


def _pack_cycles(g):
    k = g.group_order
    dist = _dist_table(k)
    sig = g.sig.tolist()
    # arcs[u]: (neighbour, edge index, signature exponent from u), in adjacency order
    arcs = [[(v, idx, sig[idx] if stored else -sig[idx] % k) for v, idx, stored in nbrs]
            for nbrs in g.adjacency()]
    packing = []
    while True:
        walk = _shortest_frustrated_walk(arcs, k)
        if walk is None or len(set(walk[0])) < len(walk[0]):  # the second cannot happen
            return tuple(packing)
        verts, edges, sigma = walk
        mask = sum(1 << u for u in verts)
        packing.append(PackedCycle(tuple(verts), mask, float(g.ew[edges].min() * dist[sigma])))
        cut = set(edges)
        arcs = [[arc for arc in out if arc[1] not in cut] for out in arcs]


def _shortest_frustrated_walk(arcs, k):
    """(vertices, edge indices, sigma) of a shortest closed walk along
    ``arcs`` whose signature xi^sigma is not 1, or None; ties go to the lowest
    root, then to BFS order.

    A shortest one over all roots is a simple cycle: a repeated vertex would
    split it into two shorter closed walks whose signatures multiply to its
    own, so one of them would be frustrated.
    """
    best, limit = None, len(arcs) + 1  # a simple cycle has at most n edges
    for root in range(len(arcs)):
        walk = _frustrated_walk_from(arcs, k, root, limit)
        if walk is not None:
            best, limit = walk, len(walk[1])
    return best


def _frustrated_walk_from(arcs, k, root, limit):
    """The first frustrated closed walk at ``root`` with fewer than ``limit``
    edges, in the BFS order of the (vertex, exponent) states of the k-fold
    cover from (root, 0), or None."""
    parent = {(root, 0): None}
    frontier = [(root, 0)]
    for _ in range(limit - 1):
        nxt = []
        for state in frontier:
            u, e = state
            for v, idx, s in arcs[u]:
                f = (e + s) % k
                if v == root and f:
                    verts, edges = [u], [idx]
                    while parent[state] is not None:
                        state, via = parent[state]
                        verts.append(state[0])
                        edges.append(via)
                    return verts[::-1], edges[::-1], f
                if (v, f) not in parent:
                    parent[(v, f)] = (state, idx)
                    nxt.append((v, f))
        frontier = nxt
    return None
