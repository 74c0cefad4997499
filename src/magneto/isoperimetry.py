"""Signed Cheeger and isoperimetric constants by exhaustive subset search.

The constant is defined operationally as the minimum over nonempty subsets of
(frustration + boundary) / volume^((delta-1)/delta), so balanced graphs give 0.
The quotient at V seeds a threshold, and three array passes, the same in
every mode, drop each subset one of whose lower bounds on its quotient
exceeds it:

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
none changes a heuristic search either. V is solved alone, for the threshold;
the other survivors (all other subsets when profiled) are valued in one batch,
as ``frustration_exact`` or ``frustration_heuristic`` would, keeping nothing
per subset. The first minimizer in increasing popcount, then increasing
bitmask value, is kept. A heuristic search reports the least of max(cycle
bound, spectral bound) as a certified lower bound on the constant. A search
is kept per graph and mode, past the checks it makes first.
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
    pruned_cycles: int
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


def _search(g, delta, heuristic, budget, restarts, seed, profile) -> IsoperimetricResult:
    exponent = _volume_exponent(delta)
    bnd, vol, pop = _subset_tables(g)
    full_value = (frustration_heuristic(g, g.full_mask(), restarts, seed) if heuristic
                  else frustration_exact(g, g.full_mask(), budget)).value
    # The quotient at V (boundary 0) seeds the threshold. Three array passes
    # over the nonempty masks, in increasing order, drop the subsets whose
    # boundary bound, then cycle bound, then spectral bound exceeds it; its
    # slack absorbs the bounds' rounding. A subset the boundary pass drops has
    # a quotient above the quotient at V, so the least of max(cycle bound,
    # spectral bound) over the boundary survivors (V among them) is a lower
    # bound on the constant. A subset the cycle pass drops has a cycle bound
    # above the threshold, which V's bounds do not exceed, so the spectral
    # bound is not needed there.
    threshold = float(full_value / vol[-1] ** exponent) * (1 + 1e-9)
    ratio = vol[1:] ** exponent
    np.divide(bnd[1:], ratio, out=ratio)
    survivors = 1 + np.flatnonzero(ratio <= threshold)
    del ratio
    s_pop, s_bnd, s_vol = (a[survivors] for a in (pop, bnd, vol))
    bounds = _cycle_bounds(g, survivors, s_bnd, s_vol, exponent)
    kept = np.flatnonzero(bounds <= threshold)
    spectral = _spectral_bounds(g, survivors[kept], s_pop[kept], s_bnd[kept], s_vol[kept], exponent)
    bounds[kept] = np.maximum(bounds[kept], spectral)
    left = survivors[kept[spectral <= threshold]]
    masks = _in_popcount_order(np.arange(1, 1 << g.n) if profile else left, pop)

    # V's value is the threshold's, if V survived the filters
    values = np.full(len(masks), full_value)
    rest = masks != g.full_mask()
    members = (masks[rest, None] >> np.arange(g.n)) & 1 == 1
    values[rest] = (_heuristic_values(g, members, restarts, seed) if heuristic
                    else _frustration_values(g, members, budget))
    quot = (values + bnd[masks]) / _scalar_powers(vol[masks], exponent)

    def cut(i):
        mask = int(masks[i])
        return CutReport(tuple(g.mask_vertices(mask)), float(values[i]), float(bnd[mask]),
                         float(vol[mask]), float(quot[i]))

    argmin = cut(int(np.argmin(quot)))
    subsets = (1 << g.n) - 1
    pruned = (0, 0, 0) if profile else (
        subsets - len(survivors), len(survivors) - len(kept), len(kept) - len(left))
    stats = SearchStats(subsets, *pruned, len(masks))
    lower_bound = float(bounds.min()) if heuristic else argmin.objective
    return IsoperimetricResult(delta, argmin.objective, argmin, lower_bound, stats,
                               tuple(map(cut, range(len(masks)))) if profile else None,
                               exact=not heuristic)


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
    if not delta > 1.0:
        raise MagnetoError("BAD_DELTA", f"delta must be > 1, got {delta}")
    if g.n == 0:
        raise MagnetoError("EMPTY_GRAPH", "no nonempty subsets")
    limit = min(subset_limit, 59)  # numpy sizes no table of 2^n floats past n = 59
    if g.n > limit:
        raise MagnetoError("BUDGET_EXCEEDED", f"{g.n} vertices exceed subset limit {limit}")
    if g.group_kind == CIRCLE and not heuristic:
        raise MagnetoError("CONTINUOUS_GROUP", "exact search needs a cyclic group")
    return g.memo(("search", delta, heuristic, budget, restarts, seed, profile),
                  lambda: _search(g, delta, heuristic, budget, restarts, seed, profile))


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
