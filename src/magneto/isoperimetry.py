"""Signed Cheeger and isoperimetric constants by exhaustive subset search.

The constant is defined operationally as the minimum over nonempty subsets of
(frustration + boundary) / volume^((delta-1)/delta), so balanced graphs give 0.
Subsets are visited in increasing popcount, then increasing bitmask value, and
the first minimizer is kept. The quotient at V seeds the threshold, and three
lower bounds on a subset's quotient skip its frustration solve when they
already exceed it:

- the boundary bound boundary / volume^e, since frustration is nonnegative;
- the cycle bound (packed + boundary) / volume^e, where packed sums
  min_C w |1 - sigma(C)| over the graph's packed edge-disjoint frustrated
  cycles C that lie inside S (``frustrated_cycle_packing``);
- the spectral bound (lambda_1(L_S) vol / 2 + boundary) / volume^e. With
  f = tau 1_S every edge term |tau(u) - s tau(v)| is at most 2, and
  |x| >= x^2 / 2 there, so frustration(S) >= lambda_1(L_S) vol(S) / 2, where
  L_S is the mu-normalised magnetic Laplacian of the subgraph induced on S.

Each prunes only subsets whose bound strictly exceeds the threshold, so no
tie is dropped, and a heuristic frustration is at least the true one, so
none changes a heuristic search either. A heuristic search reports the least
of max(cycle bound, spectral bound) as a certified lower bound on the
constant.
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
    pruned_cycles: int
    pruned_spectral: int
    evaluated: int  # frustration solved (or looked up) and quotient formed


@dataclass(frozen=True)
class IsoperimetricResult:
    delta: float  # math.inf for the Cheeger constant
    constant: float
    argmin: CutReport
    lower_bound: float  # certified; equals constant when exact
    stats: SearchStats
    profile: Optional[list] = None
    exact: bool = True  # False when any subset used heuristic frustration


def _volume_exponent(delta: float) -> float:
    if delta == math.inf:
        return 1.0
    return (delta - 1.0) / delta


def _subset_tables(g: MagneticGraph):
    """Boundary, volume and popcount for every nonempty subset mask. The bits
    are boolean arrays, one byte per subset and vertex; a weight times a bit
    is the weight or 0.0."""
    n = g.n
    masks = np.arange(1, 1 << n, dtype=np.int64)
    bits = [(masks >> u) & 1 == 1 for u in range(n)]
    vol = sum(g.mu[u] * bits[u] for u in range(n))
    bnd = np.zeros(len(masks))
    for idx in range(g.m):
        u, v = int(g.eu[idx]), int(g.ev[idx])
        bnd += g.ew[idx] * (bits[u] != bits[v])
    pop = sum(bits)
    return masks, bnd, vol, pop


def _spectral_bounds(g: MagneticGraph, masks, pop, bnd, vol, exponent: float) -> np.ndarray:
    """(max(lambda_1(L_S) - tol, 0) vol / 2 + boundary) / vol^exponent per
    subset mask, a lower bound on its quotient.

    The subsets of one size |S| share batches of |S| x |S| matrices L_S, in
    blocks of at most _CHUNK // n^2 subsets: the rows and columns of S
    gathered from the strict lower triangle of the whole graph's Laplacian,
    which is all eigvalsh reads off the diagonal, with the degrees of the
    induced subgraph on the diagonal.
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
    return (0.5 * np.maximum(lam - tol, 0.0) * vol + bnd) / _scalar_powers(vol, exponent)


def _cycle_bounds(g: MagneticGraph, masks, bnd, vol, exponent: float) -> np.ndarray:
    """(packed + boundary) / vol^exponent per subset mask, a lower bound on
    its quotient, where packed sums the values of the graph's packed
    frustrated cycles that lie inside the subset."""
    packed = np.zeros(len(masks))
    for cycle in frustrated_cycle_packing(g):
        packed += cycle.value * (masks & cycle.mask == cycle.mask)
    return (packed + bnd) / _scalar_powers(vol, exponent)


def _scalar_powers(vol, exponent: float) -> np.ndarray:
    """vol ** exponent, one scalar power at a time. numpy's array power and
    its scalar power round apart in a few percent of cases; the search forms
    its quotients with the scalar one, so a bound equal to a quotient in exact
    arithmetic cannot exceed it as a float."""
    return np.array([v ** exponent for v in vol])


def _minimize_quotient(
    g: MagneticGraph,
    delta: float,
    heuristic: bool,
    subset_limit: int,
    budget: int,
    restarts: int,
    seed: int,
    profile: bool,
) -> IsoperimetricResult:
    if g.n == 0:
        raise MagnetoError("EMPTY_GRAPH", "no nonempty subsets")
    if g.n > subset_limit:
        raise MagnetoError(
            "BUDGET_EXCEEDED", f"{g.n} vertices exceed subset limit {subset_limit}"
        )
    if g.group_kind == CIRCLE and not heuristic:
        raise MagnetoError("CONTINUOUS_GROUP", "exact search needs a cyclic group")

    def frustration_of(mask):
        if heuristic:
            return frustration_heuristic(g, mask, restarts=restarts, seed=seed)
        return frustration_exact(g, mask, budget=budget)

    exponent = _volume_exponent(delta)
    masks, bnd, vol, pop = _subset_tables(g)
    order = np.lexsort((masks, pop))
    # quotient at V (boundary 0) seeds the pruning threshold
    seed_quot = float(frustration_of(g.full_mask()).value / vol[-1] ** exponent)
    # Three array passes drop the subsets whose boundary bound, then cycle
    # bound, then spectral bound exceeds the threshold; the slack keeps a
    # superset of the loop's survivors, and the loop's test still decides. A
    # subset the boundary pass drops has a quotient above seed_quot, the
    # quotient at V, so the least of max(cycle bound, spectral bound) over
    # the boundary survivors (V among them) is a lower bound on the constant.
    # A subset the cycle pass drops has a cycle bound above the threshold,
    # which V's bounds do not exceed, so the spectral bound is not needed
    # there. Only an exact profiled search needs no bound.
    threshold = seed_quot * (1 + 1e-9)
    survivors = order[bnd[order] / vol[order] ** exponent <= threshold]
    bounds = None
    pruned_cycles = pruned_spectral = 0
    if heuristic or not profile:
        s_masks, s_pop, s_bnd, s_vol = (a[survivors] for a in (masks, pop, bnd, vol))
        bounds = _cycle_bounds(g, s_masks, s_bnd, s_vol, exponent)
        kept = np.arange(len(survivors)) if profile else np.flatnonzero(bounds <= threshold)
        spectral = _spectral_bounds(
            g, s_masks[kept], s_pop[kept], s_bnd[kept], s_vol[kept], exponent
        )
        bounds[kept] = np.maximum(bounds[kept], spectral)
        if not profile:
            order = survivors[kept[spectral <= threshold]]
            pruned_cycles = len(survivors) - len(kept)
            pruned_spectral = len(kept) - len(order)

    best = math.inf
    argmin = None
    evaluated = 0
    reports = [] if profile else None
    for i in order:
        mask = int(masks[i])
        lb = bnd[i] / vol[i] ** exponent
        if not profile and lb > min(best, seed_quot):
            continue
        evaluated += 1
        fr = frustration_of(mask)
        quot = float((fr.value + bnd[i]) / vol[i] ** exponent)
        cut = CutReport(
            tuple(g.mask_vertices(mask)), fr.value, float(bnd[i]), float(vol[i]), quot
        )
        if profile:
            reports.append(cut)
        if quot < best:
            best, argmin = quot, cut
    pruned_boundary = len(masks) - pruned_cycles - pruned_spectral - evaluated
    stats = SearchStats(len(masks), pruned_boundary, pruned_cycles, pruned_spectral, evaluated)
    lower_bound = float(bounds.min()) if heuristic else best
    return IsoperimetricResult(
        delta, best, argmin, lower_bound, stats, reports, exact=not heuristic
    )


def cheeger_constant(
    g: MagneticGraph,
    heuristic: bool = False,
    subset_limit: int = DEFAULT_SUBSET_LIMIT,
    budget: int = DEFAULT_BUDGET,
    restarts: int = 8,
    seed: int = 0,
    profile: bool = False,
) -> IsoperimetricResult:
    """1-way signed Cheeger constant h = min (iota + boundary) / volume."""
    return _minimize_quotient(
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
    if not delta > 1.0:
        raise MagnetoError("BAD_DELTA", f"delta must be > 1, got {delta}")
    return _minimize_quotient(
        g, delta, heuristic, subset_limit, budget, restarts, seed, profile
    )


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
