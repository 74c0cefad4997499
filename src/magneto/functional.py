"""Truncation functions, averaging lemmas, coarea integral and Sobolev checks.

Vertex functions are plain complex numpy arrays of length n.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MagnetoError
from .frustration import DEFAULT_BUDGET, frustration_exact
from .graph import MagneticGraph
from .groups import CIRCLE, CYCLIC, TWO_PI
from .isoperimetry import cheeger_constant, isoperimetric_constant

_SAT_TOL = 1e-9
_DISK_TOL = 1e-12


def _check_t(t: float) -> None:
    if not (0.0 < t <= 1.0):
        raise MagnetoError("BAD_T", f"t must lie in (0, 1], got {t}")


def sector_function(z: complex, t: float, theta: float, k: int) -> complex:
    """Discretize z to the k-th root of unity of its sector, zero inside |z| < t."""
    _check_t(t)
    if abs(z) > 1.0 + _DISK_TOL:
        raise MagnetoError("OUT_OF_DISK", "z must lie in the closed unit disk")
    if abs(z) < t:
        return 0j
    alpha = (cmath.phase(z) - theta) % TWO_PI
    j = int(alpha * k / TWO_PI) % k
    return cmath.exp(2j * math.pi * j / k)


def radial_function(z: complex, t: float) -> complex:
    """z/|z| outside the open disk of radius t, zero inside."""
    _check_t(t)
    if abs(z) > 1.0 + _DISK_TOL:
        raise MagnetoError("OUT_OF_DISK", "z must lie in the closed unit disk")
    if abs(z) < t:
        return 0j
    return z / abs(z)


def key_average_cyclic_batch(z1, z2, k: int) -> np.ndarray:
    """Exact (t, theta)-average of the sector-function discrepancy, vectorized.

    With r1 >= r2, x = ((arg z1 - arg z2) mod 2pi) k / 2pi, m = floor(x) and
    phi = x - m, the two sector indices differ by m for a fraction 1 - phi of
    all theta and by m + 1 for the rest, so the average is
    r2 [(1 - phi) d(m) + phi d(m + 1)] + (r1 - r2) with d(j) = 2 sin(pi j / k).
    """
    z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
    z2 = np.atleast_1d(np.asarray(z2, dtype=complex))
    swap = np.abs(z2) > np.abs(z1)
    z1, z2 = np.where(swap, z2, z1), np.where(swap, z1, z2)
    r1, r2 = np.abs(z1), np.abs(z2)
    x = ((np.angle(z1) - np.angle(z2)) % TWO_PI) * k / TWO_PI
    m = np.floor(x)
    phi = x - m
    m = m.astype(np.int64) % k
    dist = 2.0 * np.sin(np.pi * np.arange(k) / k)
    return r2 * ((1.0 - phi) * dist[m] + phi * dist[(m + 1) % k]) + (r1 - r2)


def key_average_cyclic(z1: complex, z2: complex, k: int) -> float:
    """(1/2pi) int int |Y_{t,theta}(z1) - Y_{t,theta}(z2)| dt dtheta, <= 3|z1-z2|."""
    if abs(z1) > 1.0 + _DISK_TOL or abs(z2) > 1.0 + _DISK_TOL:
        raise MagnetoError("OUT_OF_DISK", "points must lie in the closed unit disk")
    return float(key_average_cyclic_batch([z1], [z2], k)[0])


def key_average_circle(z1: complex, z2: complex) -> float:
    """Exact int_0^1 |X_t(z1) - X_t(z2)| dt, always <= 2 |z1 - z2|."""
    return float(key_average_circle_batch([z1], [z2])[0])


def key_average_circle_batch(z1, z2) -> np.ndarray:
    z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
    z2 = np.atleast_1d(np.asarray(z2, dtype=complex))
    r1, r2 = np.abs(z1), np.abs(z2)
    swap = r2 > r1
    z1, z2 = np.where(swap, z2, z1), np.where(swap, z1, z2)
    r1, r2 = np.abs(z1), np.abs(z2)
    hi = np.where(r1 > 0, np.divide(z1, np.where(r1 > 0, r1, 1.0)), 0)
    lo = np.where(r2 > 0, np.divide(z2, np.where(r2 > 0, r2, 1.0)), 0)
    out = np.abs(hi - lo) * r2 + (r1 - r2)
    out[r2 == 0.0] = r1[r2 == 0.0]
    out[r1 == 0.0] = 0.0
    return out


def normalize_vertex_function(f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    top = float(np.max(np.abs(f))) if len(f) else 0.0
    if top == 0.0:
        raise MagnetoError("ZERO_FUNCTION", "cannot normalize the zero function")
    return f / top


def coarea_lhs(g: MagneticGraph, f, budget: int = DEFAULT_BUDGET) -> float:
    """Exact integral over t of [iota(superlevel) + boundary(superlevel)].

    Requires max |f| = 1; the superlevel sets are {|f| >= t} (closed). Edge uv
    is cut exactly for t in (min, max] of |f(u)|, |f(v)|, so the boundary term
    integrates to sum_uv w_uv ||f(u)| - |f(v)||; the frustration term is
    constant between consecutive distinct values of |f|.
    """
    f = np.asarray(f, dtype=complex)
    absf = np.abs(f)
    if abs(float(np.max(absf)) - 1.0) > _DISK_TOL:
        raise MagnetoError("NOT_NORMALIZED", "coarea integrand requires max|f| = 1")
    total = float(np.sum(g.ew * np.abs(absf[g.eu] - absf[g.ev])))
    prev = 0.0
    for t in sorted(set(float(a) for a in absf if a > 0.0)):
        mask = sum(1 << u for u in range(g.n) if absf[u] >= t)
        total += (t - prev) * frustration_exact(g, mask, budget=budget).value
        prev = t
    return total


def signed_gradient_norm(g: MagneticGraph, f, p: float = 1.0) -> float:
    """Sum over edges of w_uv |f(u) - s_uv f(v)|^p (orientation invariant)."""
    f = np.asarray(f, dtype=complex)
    s = g.signature_values()
    diffs = np.abs(f[g.eu] - s * f[g.ev])
    return float(np.sum(g.ew * diffs**p))


def measure_norm(g: MagneticGraph, f, r: float = 1.0) -> float:
    """(sum_u |f(u)|^r mu(u))^{1/r}."""
    f = np.asarray(f, dtype=complex)
    return float(np.sum(np.abs(f) ** r * g.mu) ** (1.0 / r))


def _sobolev_factor(g: MagneticGraph) -> float:
    # the coarea/key-lemma constant: 3 for cyclic signatures, 2 for S^1
    return 2.0 if g.group_kind == CIRCLE else 3.0


@dataclass(frozen=True)
class QuotientReport:
    p: float
    q: float
    numerator: float
    denominator: float
    quotient: float
    bound_low: float
    bound_high: float
    satisfied: bool


def _make_report(p, q, num, den, bound_low) -> QuotientReport:
    quot = num / den
    return QuotientReport(
        p, q, num, den, quot, bound_low, math.inf, quot >= bound_low - _SAT_TOL
    )


def verify_sobolev(
    g: MagneticGraph,
    f,
    mode: str,
    p: float = 2.0,
    delta: Optional[float] = None,
    c_delta: Optional[float] = None,
    h: Optional[float] = None,
) -> QuotientReport:
    """Check one of the Sobolev inequalities on a concrete function.

    Modes: ``iso_p1`` and ``iso_general`` need (delta, c_delta); ``cheeger_p1``
    and ``cheeger_p`` need h. The reported quotient is gradient/norm, so the
    inequality reads quotient >= bound_low.
    """
    f = np.asarray(f, dtype=complex)
    if not np.any(f):
        raise MagnetoError("ZERO_FUNCTION", "f must be nonzero")
    factor = _sobolev_factor(g)
    if mode in ("iso_p1", "iso_general"):
        if delta is None or c_delta is None:
            raise MagnetoError("BAD_EXPONENTS", "iso modes need delta and c_delta")
        if c_delta <= 0.0:
            raise MagnetoError("ZERO_CONSTANT", "c_delta must be positive")
    if mode in ("cheeger_p1", "cheeger_p"):
        if h is None:
            raise MagnetoError("BAD_EXPONENTS", "cheeger modes need h")
        if h <= 0.0:
            raise MagnetoError("ZERO_CONSTANT", "h must be positive")

    # at delta = inf (c_inf = h) the exponents take their limits q = 1 and q = p
    if mode == "iso_p1":
        q = 1.0 if delta == math.inf else delta / (delta - 1.0)
        num = signed_gradient_norm(g, f, 1.0)
        den = measure_norm(g, f, q)
        return _make_report(1.0, q, num, den, c_delta / factor)

    if mode == "iso_general":
        if not 1.0 <= p < delta:
            raise MagnetoError("BAD_EXPONENTS", f"need 1 <= p < delta, got p={p}")
        if delta == math.inf:
            q = ratio = p
        else:
            q, ratio = delta * p / (delta - p), (delta - 1.0) * p / (delta - p)
        dmu = g.max_mu_degree()
        dmu_pow = 1.0 if p == 1.0 else dmu ** (1.0 - 1.0 / p)
        c_big = 2.0 * dmu_pow * ratio * factor / c_delta
        num = signed_gradient_norm(g, f, p) ** (1.0 / p)
        den = measure_norm(g, f, q)
        return _make_report(p, q, num, den, 1.0 / c_big)

    if mode == "cheeger_p1":
        num = signed_gradient_norm(g, f, 1.0)
        den = float(np.sum(np.abs(f) * g.mu))
        return _make_report(1.0, 1.0, num, den, h / factor)

    if mode == "cheeger_p":
        if p < 1.0:
            raise MagnetoError("BAD_EXPONENTS", f"need p >= 1, got {p}")
        dmu = g.max_mu_degree()
        dmu_pow = 1.0 if p == 1.0 else dmu ** (1.0 - 1.0 / p)
        c_big = 2.0 * p * dmu_pow * factor / h
        num = signed_gradient_norm(g, f, p) ** (1.0 / p)
        den = measure_norm(g, f, p)
        return _make_report(p, p, num, den, 1.0 / c_big)

    raise MagnetoError("BAD_MODE", f"unknown mode {mode!r}")


def extremal_certificate(
    g: MagneticGraph, delta: float = math.inf, budget: int = DEFAULT_BUDGET, **kw
) -> np.ndarray:
    """f = indicator of the optimal cut times its optimal switching.

    The L1 quotient of this function equals the Cheeger constant exactly
    (resp. the delta-quotient equals c_delta).
    """
    res = isoperimetric_constant(g, delta, budget=budget, **kw)
    subset = res.argmin.subset
    fr = frustration_exact(g, subset, budget=budget)
    f = np.zeros(g.n, dtype=complex)
    for u in subset:
        f[u] = fr.minimizer[u].value()
    return f


def quotient_infimum_search(
    g: MagneticGraph,
    p: float = 1.0,
    q: float = 1.0,
    budget: int = 400,
    seed: int = 0,
    warm_start=None,
):
    """Gradient-free descent on grad_p / norm_q; returns an upper bound on the inf.

    Warm starts at the extremal certificate, then applies accepted coordinate
    perturbations with a shrinking scale.
    """
    if warm_start is None:
        warm_start = extremal_certificate(g)
    f = np.array(warm_start, dtype=complex)

    def quotient(x):
        den = measure_norm(g, x, q)
        if den == 0.0:
            return math.inf
        return signed_gradient_norm(g, x, p) ** (1.0 / p) / den

    best_f, best_q = f.copy(), quotient(f)
    rng = np.random.default_rng(seed)
    scale = 0.5
    cur_f, cur_q = best_f.copy(), best_q
    for _ in range(budget):
        u = int(rng.integers(g.n))
        trial = cur_f.copy()
        trial[u] += scale * (rng.normal() + 1j * rng.normal())
        tq = quotient(trial)
        if tq < cur_q:
            cur_f, cur_q = trial, tq
            if tq < best_q:
                best_f, best_q = trial.copy(), tq
        else:
            scale = max(scale * 0.99, 1e-4)
    return best_f, best_q


def complex_power(z: complex, alpha: float) -> complex:
    """z |z|^{alpha-1}: raises the modulus to alpha, keeps the argument."""
    if alpha < 1.0:
        raise MagnetoError("BAD_ALPHA", f"alpha must be >= 1, got {alpha}")
    if z == 0:
        return 0j
    return z * abs(z) ** (alpha - 1.0)


def bernoulli_check(z1: complex, z2: complex, alpha: float, tol: float = 1e-12) -> bool:
    """|z1^a - z2^a| <= a |z1 - z2| (|z1|^{a-1} + |z2|^{a-1})."""
    return bool(bernoulli_check_batch([z1], [z2], alpha, tol)[0])


def bernoulli_check_batch(z1, z2, alpha: float, tol: float = 1e-12) -> np.ndarray:
    if alpha < 1.0:
        raise MagnetoError("BAD_ALPHA", f"alpha must be >= 1, got {alpha}")
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    r1, r2 = np.abs(z1), np.abs(z2)
    p1 = np.where(r1 > 0, z1 * r1 ** (alpha - 1.0), 0)
    p2 = np.where(r2 > 0, z2 * r2 ** (alpha - 1.0), 0)
    lhs = np.abs(p1 - p2)
    rhs = alpha * np.abs(z1 - z2) * (r1 ** (alpha - 1.0) + r2 ** (alpha - 1.0))
    return lhs <= rhs + tol
