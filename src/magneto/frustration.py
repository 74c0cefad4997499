"""Frustration index: the l1 gauge-optimization problem over switchings.

A switching is an array over the vertices, as ``MagneticGraph.switch`` takes
it; a result's ``minimizer`` on a subset S is one, read-only, that holds 0
(the identity) outside S: int64 exponents for the exact solver and the
heuristic over S^1_k, angles in [0, 2pi) for the heuristic over S^1.

One exact kernel, ``_eliminate``, serves ``frustration_exact`` and the
value-only ``_frustration_values``: min-sum variable elimination over the
exponents. Each set pins its first vertex to 1, which leaves the cost
invariant, and its other vertices are eliminated in reverse label order, the
edge tables added in place to one cost array of at most k^(|S|-1) floats per
set, far fewer on sparse sets. Both run it one component at a time and sum
a set's values in component order, so they give the same float:
``frustration_exact`` decodes the lexicographically first minimizer from the
arrays of its steps, and ``_frustration_values`` runs it on blocks of
same-size components of many sets.
``frustration_heuristic`` and the value-only ``_heuristic_values`` run greedy
coordinate descent, an upper bound only, exact (0) on the S^1_k components
that a spanning-tree test finds balanced. One descent, ``_coordinate_descent``,
serves S^1_k and S^1: its restarts are rows of arrays, in bounded blocks,
that every sweep updates at once, and only the edge cost, the values a
vertex step weighs and the random starts depend on the group. Each row's
per-vertex step sums its local costs in a fixed order, so the ties that unit
weights make, and the h_upper that perfbench checks on the c4 x c4 torus, do
not depend on how a BLAS build rounds. ``frustrated_cycle_packing`` bounds
the index from below: a greedy packing of edge-disjoint frustrated cycles,
each of which costs every switching at least its least weight times
|1 - sigma(C)|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import MagnetoError
from .graph import MagneticGraph, _tree_spread
from .groups import CIRCLE, CYCLIC, TWO_PI, GroupElement

DEFAULT_BUDGET = 10**7
_CHUNK = 1 << 15
_SWEEP_TOL = 1e-12
_MAX_SWEEPS = 500


@dataclass(frozen=True)
class FrustrationResult:
    value: float
    minimizer: np.ndarray  # read-only switching on the subset, 0 outside it
    exact: bool
    evaluations: int


def frustration_cycle_oracle(sigma: GroupElement) -> float:
    """Closed form for a unit-weight cycle with signature product sigma: |1 - sigma|."""
    return sigma.dist_to_one()


def l1_switch_cost(g: MagneticGraph, subset, tau) -> float:
    """Sum over induced edges, in storage order, of w_uv * |tau(u) - s_uv tau(v)|,
    for a switching ``tau`` as ``MagneticGraph.switch`` takes it."""
    mask = g.as_mask(subset)
    tau, sig, w = g._switching(tau).tolist(), g.sig.tolist(), g.ew.tolist()
    total = 0.0
    for idx in g.induced_edge_indices(mask).tolist():
        u, v = int(g.eu[idx]), int(g.ev[idx])
        if g.group_kind == CYCLIC:
            # |xi^a - xi^(s+b)| = 2 sin(pi ((a-b-s) mod k)/k), exact
            d = (tau[u] - tau[v] - sig[idx]) % g.group_order
            term = 2.0 * math.sin(math.pi * d / g.group_order)
        else:
            term = abs(cmath.exp(1j * tau[u]) - cmath.exp(1j * sig[idx]) * cmath.exp(1j * tau[v]))
        total += w[idx] * term
    return total


def frustration_exact(g: MagneticGraph, subset, budget: int = DEFAULT_BUDGET) -> FrustrationResult:
    """Global minimum of the l1 switch cost over tau: V1 -> S^1_k.

    Ties are broken toward the lexicographically smallest exponent vector in
    vertex order. Raises CONTINUOUS_GROUP for S^1 and BUDGET_EXCEEDED when the
    gauge-fixed space k^(|V1|-c) is larger than ``budget``, which also bounds
    the kernel's largest array, k^(|C|-1) floats for a component C; past those
    checks the result is computed once per graph and subset.
    """
    _check_cyclic(g)
    mask = g.as_mask(subset)
    comps = g.components(g.indicator(mask)[None])[1]
    _check_budget(g.group_order, int(comps.sum()), len(comps), budget)
    return g.memo(("frustration_exact", mask), lambda: _solve_exact(g, comps))


def _check_cyclic(g: MagneticGraph) -> None:
    if g.group_kind == CIRCLE:
        raise MagnetoError("CONTINUOUS_GROUP", "exact frustration requires a cyclic group")


def _check_budget(k: int, size: int, n_comps: int, budget: int) -> None:
    """BUDGET_EXCEEDED when the gauge-fixed space k^(|S| - c(S)) of a set of
    ``size`` vertices and ``n_comps`` components is larger than ``budget``."""
    if k ** max(size - n_comps, 0) > budget:
        raise MagnetoError(
            "BUDGET_EXCEEDED", f"gauge-fixed space {k}^{size - n_comps} exceeds budget {budget}"
        )


def _check_sets(g: MagneticGraph, members: np.ndarray, budget: int) -> tuple:
    """The checks of ``frustration_exact`` on each of a block of nonempty
    sets, given as rows of booleans over the vertices, in row order, so the
    first row that fails them raises what ``frustration_exact`` raises; then
    the block's (owner, comps), as ``MagneticGraph.components`` gives them."""
    _check_cyclic(g)
    owner, comps = g.components(members)
    n_comps = np.bincount(owner, minlength=len(members))
    for size, c in zip(members.sum(axis=1).tolist(), n_comps.tolist()):
        _check_budget(g.group_order, size, c, budget)
    return owner, comps


def _frustration_values(g: MagneticGraph, members: np.ndarray, budget: int) -> np.ndarray:
    """The exact frustration index of each set, given as rows of booleans over
    the vertices, nonempty and distinct: values alone, with no minimizer and
    nothing kept in the graph's memo, each the float ``frustration_exact``
    gives.

    ``_check_sets`` runs first, on every row. The sets' components of each
    size s > 1 go to ``_eliminate`` in blocks of max(1, _CHUNK // k^(s-1)),
    and each set sums its components' values in component order, as
    ``_solve_exact`` does; a single vertex costs 0.
    """
    if not len(members):
        return np.zeros(0)
    owner, comps = _check_sets(g, members, budget)
    k = g.group_order
    sizes, comp_values = comps.sum(axis=1), np.zeros(len(comps))
    for s in sorted(set(sizes.tolist()) - {1}):
        same = np.flatnonzero(sizes == s)
        block = max(1, _CHUNK // k ** (s - 1))
        for lo in range(0, len(same), block):
            part = same[lo:lo + block]
            comp_values[part] = _eliminate(g, comps[part])
    # bincount adds each set's values from 0.0 in owner order, as _solve_exact sums
    return np.bincount(owner, weights=comp_values, minlength=len(members))


def _eliminate(g: MagneticGraph, members: np.ndarray, steps: list | None = None) -> np.ndarray:
    """Least switch cost of each of a block of sets of one size s, given as
    rows of booleans over the vertices, by min-sum variable elimination.

    A set names its vertices 0..s-1 in label order and pins vertex 0 to the
    exponent 0. The block shares one cost array: a leading axis over the sets,
    then an axis per live vertex, highest first. Vertices j = s-1, ..., 1 go
    in turn. The vertices i > 0 below j that share an edge with j in some set
    of the block, and j itself, join the array if they are not on it yet, as
    axes of length 1 that the first table along each widens to k. The tables
    of the edges (i, j) are added in increasing i, in place once the array
    has its full shape, each zero in the sets without that edge; then the min
    over j's axis is taken. So every entry sums its edge costs in one order
    that does not depend on the rest of the block, and a set gets the same
    float alone and in any block. The largest array holds at most k^(s-1)
    entries per set, and the peak is about that array and its min. With
    ``steps`` a list, each step's (live vertices, array before the min) is
    appended to it.
    """
    k, n_sets = g.group_order, len(members)
    if k == 1:
        return np.zeros(n_sets)  # every edge costs |1 - 1| = 0
    pos = np.cumsum(members, axis=1) - 1
    s = int(pos[0, -1]) + 1
    r, e = np.nonzero(members[:, g.eu] & members[:, g.ev])
    # the pairs (i, j) of local vertices that an edge joins in some set of the
    # block, as i * s + j in increasing order (i < j, as the graph stores u < v);
    # edge[r, p] is the edge of the p-th pair in set r, or g.m for none
    pairs, which = np.unique(pos[r, g.eu[e]] * s + pos[r, g.ev[e]], return_inverse=True)
    edge = np.full((n_sets, len(pairs)), g.m)
    edge[r, which] = e
    tab = _edge_costs(g)
    lower = [[] for _ in range(s)]  # lower[j]: (i, p) of the pairs (i, j), i increasing
    for p, key in enumerate(pairs.tolist()):
        i, j = divmod(key, s)
        lower[j].append((i, p))
    # the tables index tab by a_i - a_j mod k: diff[a_j, a_i] for an edge between
    # unpinned vertices (a key of at least s; their arrays hold k^2 entries per
    # set anyway), pin[a_j] for an edge from the pinned vertex, a_0 = 0
    b = np.arange(k)
    diff = (b - b[:, None]) % k if len(pairs) and pairs[-1] >= s else None
    pin = -b % k
    cost, axes = np.zeros(n_sets), []
    for j in range(s - 1, 0, -1):
        joined = sorted(set(axes).union([i for i, _ in lower[j]], [j]) - {0}, reverse=True)
        short = set(joined) - set(axes)  # axes of length 1 until a table covers them
        cost = cost.reshape([n_sets] + [1 if a in short else k for a in joined])
        axes = joined
        for i, p in lower[j]:
            shape = [n_sets, k] + [1] * (len(axes) - 1)
            if i:
                shape[1 + axes.index(i)] = k
                table = tab[edge[:, p, None, None], diff].reshape(shape)
            else:
                table = tab[edge[:, p, None], pin].reshape(shape)
            if short & {i, j}:
                cost = cost + table
                short -= {i, j}
            else:
                cost += table
        if steps is not None:
            steps.append((axes, cost))
        cost, axes = cost.min(axis=1), axes[1:]
    return cost


def _edge_costs(g: MagneticGraph) -> np.ndarray:
    """tab[e, d] = w_e |1 - xi^(d - s_e)|: edge e's cost when its lower end's
    exponent exceeds the other's by d; the last row, for no edge, is zero.
    Built once per graph."""
    def build():
        k = g.group_order
        tab = np.zeros((g.m + 1, k))
        tab[:-1] = g.ew[:, None] * _dist_table(k)[(np.arange(k) - g.sig[:, None]) % k]
        return tab

    return g.memo("edge_costs", build)


def _dist_table(k: int) -> np.ndarray:
    """|1 - xi^j| for j = 0..k-1. It equals |1 - xi^(k-j)| as a float too,
    so exact ties stay ties."""
    j = np.arange(k)
    return 2.0 * np.sin(np.pi * np.minimum(j, k - j) / k)


def _solve_exact(g: MagneticGraph, comps: np.ndarray) -> FrustrationResult:
    """``_eliminate`` per component row, then a forward decode: vertex j = 1,
    2, ... takes the first exponent that reaches the least entry of its step's
    array, given the exponents of the vertices below it. That is the
    lexicographically first minimizer, since exact ties stay float ties."""
    k = g.group_order
    total, evaluations, exps = 0.0, 0, np.zeros(g.n, dtype=np.int64)
    for comp in comps:
        steps = []
        total += float(_eliminate(g, comp[None], steps)[0])
        local = [0] * int(comp.sum())
        for axes, cost in reversed(steps):
            local[axes[0]] = int(np.argmin(cost[(0, slice(None)) + tuple(local[a] for a in axes[1:])]))
        exps[comp] = local
        evaluations += k ** (len(local) - 1)
    exps.flags.writeable = False
    return FrustrationResult(total, exps, True, evaluations)


def _incidence(g: MagneticGraph, comp: np.ndarray) -> tuple:
    """(edges, incident) of a component row, its vertices numbered 0, 1, ...
    in label order: edges = (local ends lu, lv, edge indices) in storage
    order, and incident[i] = (neighbours, signatures from i, weights) of the
    edges at vertex i, in storage order (an edge's signature is negated at
    its upper end)."""
    e = np.flatnonzero(comp[g.eu] & comp[g.ev])
    pos = np.cumsum(comp) - 1
    lu, lv = pos[g.eu[e]], pos[g.ev[e]]
    # both ends of each edge in turn, stably sorted: each vertex's edges in storage order
    ends = np.column_stack((lu, lv)).ravel()
    order = np.argsort(ends, kind="stable")
    nb, sig, w = (np.column_stack(c).ravel()[order]
                  for c in ((lv, lu), (g.sig[e], -g.sig[e]), (g.ew[e], g.ew[e])))
    cut = np.searchsorted(ends[order], np.arange(pos[-1] + 2)).tolist()
    return (lu, lv, e), [(nb[a:b], sig[a:b], w[a:b]) for a, b in zip(cut, cut[1:])]


def _coordinate_descent(g, edges, incident, restarts, rng):
    """Coordinate descent on a connected component, over exponents for S^1_k
    and angles for S^1; returns (cost, local values).

    The max(1, restarts) starts are the rows of arrays of at most about
    _CHUNK // (width * deg + edges) rows each, width being the number of
    values a vertex step weighs: row 0 is all zeros, row r >= 1 is drawn from
    ``rng`` in row order. A Gauss-Seidel sweep moves vertex i, in every row
    of the block still active, to the first minimizer of its local cost,
    summed sequentially over its incident edges, so that every row breaks its
    ties as it would alone, on any BLAS build. Over S^1_k it weighs the k
    exponents; over S^1 the neighbour targets s_uv tau(v), in incidence order,
    then the vertex's own angle: the summands are concave away from their
    corners, so the l1 coordinate minimizer sits at a target. A row drops
    out once a sweep lowers its cost, summed sequentially in edge order, by
    less than _SWEEP_TOL; the first row of least final cost wins.
    """
    lu, lv, e = edges
    sig, w = g.sig[e], g.ew[e]
    # no list is empty, since the component is connected
    deg = max(len(nb) for nb, _, _ in incident)
    if g.group_kind == CYCLIC:
        k = width = g.group_order
        dist = 2.0 * np.sin(np.pi * np.arange(k) / k)
        # inc[i] = (neighbor positions, the (k, deg) table of (b - s) mod k over
        # the exponents b, weights)
        inc = [(nb, (np.arange(k)[:, None] - s) % k, wt) for nb, s, wt in incident]

        def edge_costs(rows):
            return dist[(rows[:, lu] - rows[:, lv] - sig) % k] * w

        def sweep(sub):
            for i, (nb, off, wt) in enumerate(inc):
                # off - a[nb] lies in (-k, k), and dist[j - k] is dist[j]
                local = np.cumsum(dist[off - sub[:, None, nb]] * wt, axis=2)[:, :, -1]
                sub[:, i] = local.argmin(axis=1)

        def draw(size):
            return rng.integers(0, k, size=size)
    else:
        width = deg + 1

        def price(x):
            return 2.0 * np.abs(np.sin(x / 2.0))

        def edge_costs(rows):
            return price(rows[:, lu] - rows[:, lv] - sig) * w

        def sweep(sub):
            rows = np.arange(len(sub))
            for i, (nb, s, wt) in enumerate(incident):
                cands = np.concatenate((sub[:, nb] + s, sub[:, i, None]), axis=1)
                local = np.cumsum(price(cands[:, :, None] - sub[:, None, nb] - s) * wt,
                                  axis=2)[:, :, -1]
                sub[:, i] = cands[rows, local.argmin(axis=1)] % TWO_PI

        def draw(size):
            return rng.uniform(0, TWO_PI, size=size)

    def costs_of(rows):
        return np.cumsum(edge_costs(rows), axis=1)[:, -1]

    def descend(a):
        """Sweep the rows of ``a`` in place; return their final costs."""
        active = np.arange(len(a))
        prev = costs_of(a)
        for _ in range(_MAX_SWEEPS):
            sub = a[active]
            sweep(sub)
            a[active] = sub
            cur = costs_of(sub)
            going = prev[active] - cur >= _SWEEP_TOL
            prev[active] = cur
            active = active[going]
            if not len(active):
                break
        return prev

    total = max(1, restarts)
    # each row holds width * deg floats per vertex step and one per edge in costs_of
    block = max(1, _CHUNK // (width * deg + len(e)))
    best_cost, best_a = math.inf, None
    for start in range(0, total, block):
        rows = [np.zeros(len(incident), dtype=sig.dtype)] if start == 0 else []
        rows += [draw(len(incident)) for _ in range(max(1, start), min(total, start + block))]
        a = np.array(rows)
        costs = descend(a)
        r = int(np.argmin(costs))
        if costs[r] < best_cost:
            best_cost, best_a = float(costs[r]), a[r]
    return best_cost, best_a


def frustration_heuristic(
    g: MagneticGraph, subset, restarts: int = 8, seed: int = 0
) -> FrustrationResult:
    """Coordinate-descent upper bound on the frustration index, computed once per
    graph, subset, restart count and seed: ``_heuristic_values`` on the one
    set, plus the switching it finds. Each solve seeds its own rng, so a kept
    result is the one a fresh graph gives."""
    mask = g.as_mask(subset)

    def solve():
        solved = []
        value = float(_heuristic_values(g, g.indicator(mask)[None], restarts, seed, solved)[0])
        found = np.zeros(g.n, dtype=g.sig.dtype)
        for comp, local in solved:
            found[comp] = local
        if g.group_kind == CIRCLE:
            found %= TWO_PI  # the descent's np.remainder can round an angle up to 2pi
        found.flags.writeable = False
        evaluations = max(1, restarts) * sum(len(local) for _, local in solved)
        return FrustrationResult(value, found, False, evaluations)

    return g.memo(("frustration_heuristic", mask, restarts, seed), solve)


def _heuristic_values(g: MagneticGraph, members: np.ndarray, restarts: int, seed: int,
                      solved: list | None = None) -> np.ndarray:
    """The heuristic frustration of each set, given as rows of booleans over
    the vertices, with nothing kept in the graph's memo. One pass finds every
    set's components; each set then seeds its own rng and sums its
    components' costs in order. A lone vertex costs 0 and draws nothing; a
    balanced S^1_k component costs 0 after the draws the descent would make.
    With ``solved`` a list, each solved component's (row, local values) goes
    on it."""
    owner, comps = g.components(members)
    bounds = np.searchsorted(owner, np.arange(len(members) + 1)).tolist()
    sizes = comps.sum(axis=1).tolist()
    values = np.zeros(len(members))
    for i in range(len(members)):
        rng = np.random.default_rng(seed)
        for c in range(bounds[i], bounds[i + 1]):
            if sizes[c] == 1:
                continue
            edges, incident = _incidence(g, comps[c])
            lu, lv, e = edges
            if g.group_kind == CYCLIC:  # the balanced shortcut is S^1_k's alone
                local, _, bad = _tree_spread(sizes[c], lu, lv, g.sig[e], g.group_order)
            if g.group_kind == CIRCLE or len(bad):
                cost, local = _coordinate_descent(g, edges, incident, restarts, rng)
            else:
                for _ in range(max(1, restarts) - 1):
                    rng.integers(0, g.group_order, size=sizes[c])
                cost = 0.0
            values[i] += cost
            if solved is not None:
                solved.append((comps[c], local))
    return values


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
    floor = [0] * g.n
    packing = []
    while True:
        walk = _shortest_frustrated_walk(arcs, k, floor)
        if walk is None:
            return tuple(packing)
        verts, edges, sigma = walk
        mask = sum(1 << u for u in verts)
        packing.append(PackedCycle(tuple(verts), mask, float(g.ew[edges].min() * dist[sigma])))
        cut = set(edges)
        arcs = [[arc for arc in out if arc[1] not in cut] for out in arcs]


def _shortest_frustrated_walk(arcs, k, floor):
    """(vertices, edge indices, sigma) of a shortest closed walk along
    ``arcs`` whose signature xi^sigma is not 1, or None; ties go to the lowest
    root, then to BFS order.

    A shortest one over all roots is a simple cycle: a repeated vertex would
    split it into two shorter closed walks whose signatures multiply to its
    own, so one of them would be frustrated.

    ``floor[root]`` is a lower bound on the length of the root's shortest
    frustrated closed walk, updated in place from each BFS: the length of the
    walk it finds, or the limit it searched under if it finds none. Arcs are
    only ever removed between calls, which never shortens a walk, so a root
    whose floor reaches the current limit would find none and is skipped.
    """
    best, limit = None, len(arcs) + 1  # a simple cycle has at most n edges
    for root in range(len(arcs)):
        if floor[root] >= limit:
            continue
        walk = _frustrated_walk_from(arcs, k, root, limit)
        if walk is not None:
            best, limit = walk, len(walk[1])
        floor[root] = limit
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
