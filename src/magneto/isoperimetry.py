"""Signed Cheeger and isoperimetric constants by exhaustive subset search.

The constant is defined operationally as the minimum over nonempty subsets of
(frustration + boundary) / volume^((delta-1)/delta), so balanced graphs give 0.
Subsets are visited in increasing popcount, then increasing bitmask value, and
the first minimizer is kept. Since frustration is nonnegative, any subset whose
boundary/volume quotient already exceeds the best value seen so far can be
skipped without evaluating its frustration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import MagnetoError
from .frustration import (
    DEFAULT_BUDGET,
    frustration_exact,
    frustration_heuristic,
)
from .graph import MagneticGraph, cartesian_product_many
from .groups import CIRCLE, GroupElement

DEFAULT_SUBSET_LIMIT = 14


@dataclass(frozen=True)
class CutReport:
    subset: tuple  # sorted vertex ids
    frustration: float
    boundary: float
    volume: float
    objective: float


@dataclass(frozen=True)
class IsoperimetricResult:
    delta: float  # math.inf for the Cheeger constant
    constant: float
    argmin: CutReport
    profile: Optional[list] = None
    exact: bool = True  # False when any subset used heuristic frustration


def _volume_exponent(delta: float) -> float:
    if delta == math.inf:
        return 1.0
    return (delta - 1.0) / delta


def _subset_tables(g: MagneticGraph):
    """Boundary, volume and popcount for every nonempty subset mask."""
    n = g.n
    masks = np.arange(1, 1 << n, dtype=np.int64)
    bits = [((masks >> u) & 1).astype(np.float64) for u in range(n)]
    vol = sum(g.mu[u] * bits[u] for u in range(n))
    bnd = np.zeros(len(masks))
    for idx in range(g.m):
        u, v = int(g.eu[idx]), int(g.ev[idx])
        bnd += g.ew[idx] * np.abs(bits[u] - bits[v])
    pop = sum(bits)
    return masks, bnd, vol, pop


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
        if heuristic:  # deterministic: the heuristic seeds its own rng
            return g.memo(("frustration_heuristic", mask, restarts, seed),
                          lambda: frustration_heuristic(g, mask, restarts=restarts, seed=seed))
        return frustration_exact(g, mask, budget=budget)

    exponent = _volume_exponent(delta)
    masks, bnd, vol, pop = _subset_tables(g)
    order = np.lexsort((masks, pop))
    # quotient at V (boundary 0) seeds the pruning threshold
    seed_quot = float(frustration_of(g.full_mask()).value / vol[-1] ** exponent)
    if not profile:
        # one array pass drops most subsets the loop would skip; the slack keeps
        # a superset of the loop's survivors, and the loop's test still decides
        order = order[bnd[order] / vol[order] ** exponent <= seed_quot * (1 + 1e-9)]

    best = math.inf
    argmin = None
    reports = [] if profile else None
    for i in order:
        mask = int(masks[i])
        lb = bnd[i] / vol[i] ** exponent
        if not profile and lb > min(best, seed_quot):
            continue
        fr = frustration_of(mask)
        quot = float((fr.value + bnd[i]) / vol[i] ** exponent)
        cut = CutReport(
            tuple(g.mask_vertices(mask)), fr.value, float(bnd[i]), float(vol[i]), quot
        )
        if profile:
            reports.append(cut)
        if quot < best:
            best, argmin = quot, cut
    return IsoperimetricResult(delta, best, argmin, reports, exact=not heuristic)


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
