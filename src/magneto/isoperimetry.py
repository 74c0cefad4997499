"""Signed Cheeger and isoperimetric constants by exhaustive subset search.

The constant is defined operationally as the minimum over nonempty subsets of
(frustration + boundary) / volume^((delta-1)/delta), so balanced graphs give 0.
The quotient at V seeds a threshold, and three array passes drop each subset
one of whose lower bounds on its quotient exceeds it. There are four bounds,
three of them in every mode; the exact searches' own shares the cycle
bound's pass:

- the boundary bound boundary / volume^e, since frustration is nonnegative;
- the cycle bound (packed + boundary) / volume^e, where packed sums
  min_C w |1 - sigma(C)| over the graph's packed edge-disjoint frustrated
  cycles C that lie inside S (``frustrated_cycle_packing``);
- in an exact search only, with the cycle bound, the complement bound
  (iota(V) - J(V \\ S) + (1 - A_k) boundary) / volume^e, since an optimal
  switching of S extends to V at a known expected cost
  (``_complement_numerators``); it needs the exact iota(V);
- the spectral bound (lambda_1(L_S) vol / 2 + boundary) / volume^e. With
  f = tau 1_S every edge term |tau(u) - s tau(v)| is at most 2, and
  |x| >= x^2 / 2 there, so frustration(S) >= lambda_1(L_S) vol(S) / 2, where
  L_S is the mu-normalised magnetic Laplacian of the subgraph induced on S.

Each prunes only subsets whose bound strictly exceeds the threshold, so no tie
is dropped, and a heuristic frustration is at least the true one, so none
changes a heuristic search either. One search serves a tuple of deltas: it
builds the subset tables once, runs each delta's passes on its own threshold,
computes the parts of the bounds that do not depend on delta (lambda_1(L_S)
among them) once per subset, and values the subsets left for any delta in one
batch. V is valued alone, for the thresholds, by value
(``_frustration_values``, the float ``frustration_exact`` gives) in an exact
search, unless the graph keeps V's ``frustration_exact`` result; the other
survivors (all other subsets when profiled) are valued in one batch, as
``frustration_exact`` or ``frustration_heuristic`` would, keeping nothing per
subset. The first minimizer in increasing popcount, then increasing bitmask
value, is kept. A heuristic search reports the least of max(cycle bound,
spectral bound), at most the constant it finds, as a certified lower bound on
the constant. A search is kept per graph, delta and mode, past the checks it
makes first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import MagnetoError
from .frustration import (
    _CHUNK,
    DEFAULT_BUDGET,
    _dist_table,
    _frustration_values,
    _heuristic_values,
    frustrated_cycle_packing,
    frustration_exact,
    frustration_heuristic,
)
from .graph import MagneticGraph, cartesian_product_many
from .groups import CIRCLE, GroupElement
from .spectral import magnetic_laplacian

DEFAULT_SUBSET_LIMIT = 14
# eigvalsh returns the eigenvalues of a matrix within about n * eps * ||L|| of
# its own; the spectral bound gives up _EIG_SLACK times that
_EIG_SLACK = 64


@dataclass(frozen=True)
class CutReport:
    subset: tuple  # sorted vertex ids
    frustration: float
    boundary: float
    volume: float
    objective: float


@dataclass(frozen=True)
class SearchStats:
    """What a search did with each nonempty subset; the last four sum to the first."""

    subsets: int
    pruned_boundary: int
    pruned_cycles: int  # by the cycle bound, or in an exact search the complement bound
    pruned_spectral: int
    evaluated: int  # quotient formed: every filter survivor, or every subset when profiled


@dataclass(frozen=True)
class IsoperimetricResult:
    delta: float  # math.inf for the Cheeger constant
    constant: float
    argmin: CutReport
    lower_bound: float  # certified; equals constant when exact
    stats: SearchStats
    profile: Optional[tuple] = None  # shared by every caller of a kept search
    exact: bool = True  # False when any subset used heuristic frustration


def _volume_exponent(delta: float) -> float:
    if delta == math.inf:
        return 1.0
    return (delta - 1.0) / delta


def _subset_tables(g: MagneticGraph):
    """Boundary, volume and popcount (uint8) of every subset, indexed by its
    mask, the empty one included.

    Volume and popcount double once per vertex u in ascending order: a mask
    whose top bit is u gets the entry of the mask without it plus mu(u),
    resp. 1. Each edge (u < v), in
    storage order, adds its weight through the two strided views of the masks
    that hold exactly one of bits u and v. So every entry sums its terms in
    ascending vertex and storage order, leaving out only zeros.
    """
    vol, pop = np.zeros(1), np.zeros(1, dtype=np.uint8)
    for m in g.mu.tolist():
        vol, pop = np.concatenate((vol, vol + m)), np.concatenate((pop, pop + 1))
    bnd = np.zeros(1 << g.n)
    for u, v, w in zip(g.eu.tolist(), g.ev.tolist(), g.ew.tolist()):
        # axes: the bits above v, bit v, the bits between, bit u, the bits below u
        cut = bnd.reshape(-1, 2, 1 << (v - u - 1), 2, 1 << u)
        cut[:, 0, :, 1] += w
        cut[:, 1, :, 0] += w
    return bnd, vol, pop


def _in_popcount_order(masks, pop) -> np.ndarray:
    """Increasing masks, stably sorted on their popcounts (a radix sort of
    uint8): in increasing popcount, then increasing mask."""
    return masks[np.argsort(pop[masks], kind="stable")]


def _spectral_halves(g: MagneticGraph, masks, pop) -> np.ndarray:
    """max(lambda_1(L_S) - tol, 0) / 2 per subset mask, which does not depend
    on delta: (half vol + boundary) / vol^exponent is the spectral bound on
    the subset's quotient.

    The subsets of one size |S| share batches of |S| x |S| matrices L_S, in
    blocks of at most _CHUNK // n^2 subsets: the rows and columns of S
    gathered from the strict lower triangle of the whole graph's Laplacian,
    which is all eigvalsh reads off the diagonal, with the degrees of the
    induced subgraph on the diagonal. eigvalsh solves each matrix of a batch
    on its own, so a subset gets the same float in any batch.
    ||L_S|| <= 2 d_mu sets tol.
    """
    n = g.n
    tol = _EIG_SLACK * n * np.finfo(float).eps * 2.0 * g.max_mu_degree()
    lower = np.tril(magnetic_laplacian(g), -1)  # the mu-scaled -A^s below the diagonal
    weights = np.zeros((n, n))
    weights[g.eu, g.ev] = weights[g.ev, g.eu] = g.ew
    lam = np.empty(len(masks))
    block = max(1, _CHUNK // (n * n))
    for size in range(1, n + 1):
        same = np.flatnonzero(pop == size)
        diag = np.arange(size)
        for lo in range(0, len(same), block):
            rows = same[lo:lo + block]
            bits = (masks[rows, None] >> np.arange(n)) & 1 == 1
            # row-major, so each row's vertices ascend and the lower triangle
            # of -A^s lands in the lower triangle of L_S
            verts = np.nonzero(bits)[1].reshape(len(rows), size)
            sub = (verts[:, :, None], verts[:, None, :])
            lap = lower[sub]
            # induced degrees: the weights to neighbours inside S
            lap[:, diag, diag] = weights[sub].sum(axis=2) / g.mu[verts]
            lam[rows] = np.linalg.eigvalsh(lap)[:, 0]
    return 0.5 * np.maximum(lam - tol, 0.0)


def _packed_sums(g: MagneticGraph, masks) -> np.ndarray:
    """The summed values of the graph's packed frustrated cycles that lie
    inside each subset mask, a lower bound on its frustration."""
    packed = np.zeros(len(masks))
    for cycle in frustrated_cycle_packing(g):
        packed += cycle.value * (masks & cycle.mask == cycle.mask)
    return packed


def _complement_numerators(g: MagneticGraph, masks, bnd, full_value: float) -> np.ndarray:
    """iota(V) - J(U) + (1 - A_k) boundary per subset mask S, with U = V \\ S,
    a lower bound on iota(S) + boundary(S) over S^1_k, given the exact
    iota(V).

    Extend an optimal switching of S to U by tau = 1 or by a uniform random
    switching of U, and rotate the extension by a uniform xi^r. Then S's
    edges cost iota(S), U's cost J(U) = min(sum w_e |1 - sigma_e|, A_k sum
    w_e) over the edges inside U, and each crossing edge costs A_k w in
    expectation, where A_k = mean_j |1 - xi^j| = (2/k) cot(pi / 2k). So
    iota(V) <= iota(S) + J(U) + A_k boundary(S). Its terms nearly cancel on
    some subsets, and iota(V), iota(S), J(U) and the boundary each sum at
    most n + m rounded terms: the bound gives up 2 (n + m) eps times the
    sum of its terms' magnitudes.
    """
    dist = _dist_table(g.group_order)
    a = float(dist.mean())
    free = g.full_mask() ^ masks
    switched, total = np.zeros(len(masks)), np.zeros(len(masks))
    for u, v, w, cost in zip(g.eu.tolist(), g.ev.tolist(), g.ew.tolist(),
                             (g.ew * dist[g.sig]).tolist()):
        ends = 1 << u | 1 << v
        inside = free & ends == ends
        switched += cost * inside
        total += w * inside
    inner = np.minimum(switched, a * total)
    slack = 2 * (g.n + g.m) * np.finfo(float).eps
    return full_value - inner + (1.0 - a) * bnd - slack * (full_value + inner + a * bnd)


def _scalar_powers(vol, exponent: float) -> np.ndarray:
    """vol ** exponent, one scalar power at a time. numpy's array power and
    its scalar power round apart in a few percent of cases; the search forms
    its quotients with the scalar one, so a bound equal to a quotient in exact
    arithmetic cannot exceed it as a float."""
    return np.array([v ** exponent for v in vol])


def _marks(parts, size: int) -> np.ndarray:
    """``size`` booleans, True at each mask of a list of mask arrays: the
    union of the arrays is its flatnonzero, and the places of one array's
    masks in an array that holds them are the flatnonzero of its marks
    there. (np.union1d imports numpy.ma, and it and np.searchsorted run
    code that a search touches nowhere else: about 1.1 MB and 0.3 MB of
    peak RSS on numpy 2.4.)"""
    seen = np.zeros(size, dtype=bool)
    for part in parts:
        seen[part] = True
    return seen


def _search(g, deltas, heuristic, budget, restarts, seed, profile) -> tuple:
    """One result per delta of a tuple of distinct ones, from one subset
    lattice. Each delta's passes run on its own threshold and exponent; the
    parts of the bounds that do not depend on delta, and the subsets' values,
    are computed once per mask, each the float a one-delta search gives."""
    bnd, vol, pop = _subset_tables(g)
    size, full = 1 << g.n, g.full_mask()
    if heuristic:
        full_value = frustration_heuristic(g, full, restarts, seed).value
    elif ("frustration_exact", full) in g._memo:  # V's kept solve: the same float
        full_value = frustration_exact(g, full, budget).value
    else:
        full_value = float(_frustration_values(g, g.indicator(full)[None], budget)[0])
    exponents = [_volume_exponent(delta) for delta in deltas]
    # The quotient at V (boundary 0) seeds each threshold. Its passes over the
    # nonempty masks, in increasing order, drop the subsets whose boundary
    # bound, then cycle bound (in an exact search, the larger of it and the
    # complement bound), then spectral bound exceeds it; its slack absorbs
    # the bounds' rounding. A subset the boundary pass drops has a quotient
    # above the quotient at V, so in a heuristic search the least of
    # max(cycle bound, spectral bound) over the boundary survivors (V among
    # them) is a lower bound on the constant. A subset the cycle pass drops
    # has a cycle bound above the threshold, which V's bounds do not exceed,
    # so the spectral bound is not needed there.
    thresholds = [float(full_value / vol[-1] ** e) * (1 + 1e-9) for e in exponents]
    survivors = []
    for e, threshold in zip(exponents, thresholds):
        ratio = vol[1:] ** e
        np.divide(bnd[1:], ratio, out=ratio)
        survivors.append(1 + np.flatnonzero(ratio <= threshold))
        del ratio
    union = np.flatnonzero(_marks(survivors, size))
    cycle = _packed_sums(g, union) + bnd[union]
    if not heuristic:
        complement = _complement_numerators(g, union, bnd[union], full_value)
    powers, bounds, kept = [], [], []
    for s, e, threshold in zip(survivors, exponents, thresholds):
        at = np.flatnonzero(_marks([s], size)[union])
        powers.append(_scalar_powers(vol[s], e))
        bounds.append(cycle[at] / powers[-1])
        if not heuristic:
            np.maximum(bounds[-1], complement[at] / powers[-1], out=bounds[-1])
        kept.append(np.flatnonzero(bounds[-1] <= threshold))
    checked = np.flatnonzero(_marks([s[k] for s, k in zip(survivors, kept)], size))
    half = _spectral_halves(g, checked, pop[checked])
    left = []
    for s, k, p, b, threshold in zip(survivors, kept, powers, bounds, thresholds):
        masks = s[k]
        at = np.flatnonzero(_marks([masks], size)[checked])
        spectral = (half[at] * vol[masks] + bnd[masks]) / p[k]
        b[k] = np.maximum(b[k], spectral)
        left.append(masks[spectral <= threshold])

    # one batch values the subsets left for any delta (every subset when
    # profiled), in increasing popcount, then increasing mask, an order that
    # each delta's own subsets keep; V's value is the threshold's
    valued = _in_popcount_order(np.arange(1, size) if profile
                                else np.flatnonzero(_marks(left, size)), pop)
    values = np.full(len(valued), full_value)
    rest = valued != full
    members = (valued[rest, None] >> np.arange(g.n)) & 1 == 1
    values[rest] = (_heuristic_values(g, members, restarts, seed) if heuristic
                    else _frustration_values(g, members, budget))
    del members
    results = []
    for delta, e, s, k, own, b in zip(deltas, exponents, survivors, kept, left, bounds):
        at = slice(None) if profile else np.flatnonzero(_marks([own], size)[valued])
        masks, vals = valued[at], values[at]
        quot = (vals + bnd[masks]) / _scalar_powers(vol[masks], e)

        def cut(i, masks=masks, vals=vals, quot=quot):
            mask = int(masks[i])
            return CutReport(tuple(g.mask_vertices(mask)), float(vals[i]), float(bnd[mask]),
                             float(vol[mask]), float(quot[i]))

        argmin = cut(int(np.argmin(quot)))
        pruned = (0, 0, 0) if profile else (size - 1 - len(s), len(s) - len(k), len(k) - len(own))
        stats = SearchStats(size - 1, *pruned, len(masks))
        # a bound equal to the minimal quotient in exact arithmetic can round
        # above it, so a heuristic lower bound is capped at the constant found
        lower_bound = min(float(b.min()), argmin.objective) if heuristic else argmin.objective
        results.append(IsoperimetricResult(
            delta, argmin.objective, argmin, lower_bound, stats,
            tuple(map(cut, range(len(masks)))) if profile else None, exact=not heuristic))
    return tuple(results)


def cheeger_constant(
    g: MagneticGraph,
    heuristic: bool = False,
    subset_limit: int = DEFAULT_SUBSET_LIMIT,
    budget: int = DEFAULT_BUDGET,
    restarts: int = 8,
    seed: int = 0,
    profile: bool = False,
) -> IsoperimetricResult:
    """1-way signed Cheeger constant h = min (iota + boundary) / volume, which
    is the isoperimetric constant c_inf: the search of
    ``isoperimetric_constant(g, math.inf, ...)``, kept under the same key."""
    return isoperimetric_constant(
        g, math.inf, heuristic, subset_limit, budget, restarts, seed, profile
    )


def isoperimetric_constant(
    g: MagneticGraph,
    delta: float,
    heuristic: bool = False,
    subset_limit: int = DEFAULT_SUBSET_LIMIT,
    budget: int = DEFAULT_BUDGET,
    restarts: int = 8,
    seed: int = 0,
    profile: bool = False,
) -> IsoperimetricResult:
    """Best constant c_delta with iota + boundary >= c_delta vol^((delta-1)/delta)."""
    return _constants(g, (delta,), heuristic, subset_limit, budget, restarts, seed, profile)[0]


def _constants(
    g: MagneticGraph,
    deltas: tuple,
    heuristic: bool = False,
    subset_limit: int = DEFAULT_SUBSET_LIMIT,
    budget: int = DEFAULT_BUDGET,
    restarts: int = 8,
    seed: int = 0,
    profile: bool = False,
) -> tuple:
    """``isoperimetric_constant`` for each of a tuple of deltas, in its order,
    from one search over the subset lattice for the deltas not yet kept. It
    gives and raises what one-delta calls in turn would: the deltas before
    the first one that is not > 1 are searched, and then that one raises
    BAD_DELTA. Each result is kept under its one-delta key.
    """
    bad = next((i for i, d in enumerate(deltas) if not d > 1.0), None)
    keys = [("search", d, heuristic, budget, restarts, seed, profile) for d in deltas[:bad]]
    if keys:
        if g.n == 0:
            raise MagnetoError("EMPTY_GRAPH", "no nonempty subsets")
        limit = min(subset_limit, 59)  # numpy sizes no table of 2^n floats past n = 59
        if g.n > limit:
            raise MagnetoError("BUDGET_EXCEEDED", f"{g.n} vertices exceed subset limit {limit}")
        if g.group_kind == CIRCLE and not heuristic:
            raise MagnetoError("CONTINUOUS_GROUP", "exact search needs a cyclic group")
        new = [key for key in dict.fromkeys(keys) if key not in g._memo]
        if new:
            found = _search(g, tuple(key[1] for key in new), heuristic, budget, restarts, seed,
                            profile)
            g._memo.update(zip(new, found))
    if bad is not None:
        raise MagnetoError("BAD_DELTA", f"delta must be > 1, got {deltas[bad]}")
    return tuple(g._memo[key] for key in keys)


@dataclass(frozen=True)
class ProductAdditivityReport:
    factor_constants: list
    product_constant: float
    lower: float
    upper: float
    holds: bool
    upper_bound_mode: bool  # True when heuristic frustration was used on the product


def verify_product_additivity(
    factors: Sequence[MagneticGraph],
    heuristic: bool = False,
    subset_limit: int = DEFAULT_SUBSET_LIMIT,
    product_subset_limit: int = 20,
    budget: int = DEFAULT_BUDGET,
    restarts: int = 8,
    seed: int = 0,
) -> ProductAdditivityReport:
    """Check (1/3) sum h(G_j) <= h(product) <= 3 sum h(G_j).

    With ``heuristic=True`` the product-side frustrations come from coordinate
    descent, making h(product) an upper bound. Such a bound certifies the
    upper inequality only, and below the lower side it certifies a violation
    of the lower one; ``holds`` is True when it lies inside the sandwich.
    """
    hs = [
        cheeger_constant(f, subset_limit=subset_limit, budget=budget).constant
        for f in factors
    ]
    product = cartesian_product_many(list(factors))
    hp = cheeger_constant(
        product,
        heuristic=heuristic,
        subset_limit=product_subset_limit,
        budget=budget,
        restarts=restarts,
        seed=seed,
    ).constant
    lower, upper = sum(hs) / 3.0, 3.0 * sum(hs)
    holds = lower - 1e-9 <= hp <= upper + 1e-9
    return ProductAdditivityReport(hs, hp, lower, upper, holds, heuristic)


def torus_cheeger_bounds(
    cycle_lengths: Sequence[int], cycle_signatures: Sequence[GroupElement]
):
    """Certified interval for h of a product of unit cycles: (1/3) S <= h <= 3 S
    with S = sum |1 - sigma_j| / n_j."""
    if len(cycle_lengths) != len(cycle_signatures):
        raise MagnetoError("BAD_SIZE", "need one signature product per cycle")
    for n in cycle_lengths:
        if n < 3:
            raise MagnetoError("BAD_SIZE", "cycle lengths must be >= 3")
    s = sum(sig.dist_to_one() / n for n, sig in zip(cycle_lengths, cycle_signatures))
    return s / 3.0, 3.0 * s
