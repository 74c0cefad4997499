"""Truncation functions, averaging lemmas, coarea integral and Sobolev checks.

Vertex functions are plain complex numpy arrays of length n. The coarea
integral, the norms and the Sobolev checks also take a stack of them along the
last axis and then give one value, or one verdict, per function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MagnetoError
from .frustration import DEFAULT_BUDGET, _frustration_values, frustration_exact
from .graph import MagneticGraph
from .groups import CIRCLE, TWO_PI, _check_order
from .isoperimetry import isoperimetric_constant

_SAT_TOL = 1e-9
_DISK_TOL = 1e-12
_BERNOULLI_TOL = 1e-12


def _check_t(t: float) -> None:
    if not (0.0 < t <= 1.0):
        raise MagnetoError("BAD_T", f"t must lie in (0, 1], got {t}")


def sector_function(z: complex, t: float, theta: float, k: int) -> complex:
    """Discretize z to the k-th root of unity of its sector, zero inside |z| < t."""
    _check_t(t)
    _check_order(k)
    if not abs(z) <= 1.0 + _DISK_TOL:  # NaN fails too
        raise MagnetoError("OUT_OF_DISK", "z must lie in the closed unit disk")
    if abs(z) < t:
        return 0j
    alpha = (cmath.phase(z) - theta) % TWO_PI
    j = int(alpha * k / TWO_PI) % k
    return cmath.exp(2j * math.pi * j / k)


def radial_function(z: complex, t: float) -> complex:
    """z/|z| outside the open disk of radius t, zero inside."""
    _check_t(t)
    if not abs(z) <= 1.0 + _DISK_TOL:  # NaN fails too
        raise MagnetoError("OUT_OF_DISK", "z must lie in the closed unit disk")
    if abs(z) < t:
        return 0j
    return z / abs(z)


def _check_disk(r1, r2) -> None:
    """OUT_OF_DISK unless every modulus is at most 1 (up to _DISK_TOL). A NaN
    modulus fails too: max propagates it, and NaN <= 1 is false."""
    top = 1.0 + _DISK_TOL
    if not (r1.max(initial=0.0) <= top and r2.max(initial=0.0) <= top):
        raise MagnetoError("OUT_OF_DISK", "points must lie in the closed unit disk")


def key_average_cyclic_batch(z1, z2, k: int) -> np.ndarray:
    """Exact (t, theta)-average of the sector-function discrepancy, vectorized.

    With r1 >= r2, x = ((arg z1 - arg z2) mod 2pi) k / 2pi, m = floor(x) and
    phi = x - m, the two sector indices differ by m for a fraction 1 - phi of
    all theta and by m + 1 for the rest, so the average is
    r2 [(1 - phi) d(m) + phi d(m + 1)] + (r1 - r2) with d(j) = 2 sin(pi j / k).
    """
    _check_order(k)
    z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
    z2 = np.atleast_1d(np.asarray(z2, dtype=complex))
    r1, r2 = np.abs(z1), np.abs(z2)
    _check_disk(r1, r2)
    swap = r2 > r1
    z1, z2 = np.where(swap, z2, z1), np.where(swap, z1, z2)
    r1, r2 = np.maximum(r1, r2), np.minimum(r1, r2)  # the moduli of the swapped points
    x = ((np.angle(z1) - np.angle(z2)) % TWO_PI) * k / TWO_PI
    m = np.floor(x)
    phi = x - m
    m = m.astype(np.int64) % k
    dist = 2.0 * np.sin(np.pi * np.arange(k) / k)
    return r2 * ((1.0 - phi) * dist[m] + phi * dist[(m + 1) % k]) + (r1 - r2)


def key_average_cyclic(z1: complex, z2: complex, k: int) -> float:
    """(1/2pi) int int |Y_{t,theta}(z1) - Y_{t,theta}(z2)| dt dtheta, <= 3|z1-z2|."""
    return float(key_average_cyclic_batch([z1], [z2], k)[0])


def key_average_circle(z1: complex, z2: complex) -> float:
    """Exact int_0^1 |X_t(z1) - X_t(z2)| dt, always <= 2 |z1 - z2|."""
    return float(key_average_circle_batch([z1], [z2])[0])


def key_average_circle_batch(z1, z2) -> np.ndarray:
    z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
    z2 = np.atleast_1d(np.asarray(z2, dtype=complex))
    r1, r2 = np.abs(z1), np.abs(z2)
    _check_disk(r1, r2)
    swap = r2 > r1
    z1, z2 = np.where(swap, z2, z1), np.where(swap, z1, z2)
    r1, r2 = np.maximum(r1, r2), np.minimum(r1, r2)  # the moduli of the swapped points
    hi = np.where(r1 > 0, np.divide(z1, np.where(r1 > 0, r1, 1.0)), 0)
    lo = np.where(r2 > 0, np.divide(z2, np.where(r2 > 0, r2, 1.0)), 0)
    out = np.abs(hi - lo) * r2 + (r1 - r2)
    out[r2 == 0.0] = r1[r2 == 0.0]
    out[r1 == 0.0] = 0.0
    return out


def normalize_vertex_function(f) -> np.ndarray:
    """f / max|f|, for one vertex function or each of a stack of them along the
    last axis; ZERO_FUNCTION if one of them is zero."""
    f = np.asarray(f, dtype=complex)
    top = np.max(np.abs(f), axis=-1, keepdims=True, initial=0.0)
    if np.any(top == 0.0):
        raise MagnetoError("ZERO_FUNCTION", "cannot normalize the zero function")
    return f / top


def _per_function(x):
    """A float for one vertex function, the array of values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _root(x, r: float):
    """x^(1/r) as an array operation even for one value: numpy's array power
    may round differently from its scalar one, and one function must get what
    its row of a stack gets."""
    return _per_function(np.power(np.atleast_1d(x), 1.0 / r).reshape(np.shape(x)))


def coarea_lhs(g: MagneticGraph, f, budget: int = DEFAULT_BUDGET):
    """Exact integral over t of [iota(superlevel) + boundary(superlevel)], for
    one vertex function (a float) or each row of a stack of them (an array).

    Requires max |f| = 1; the superlevel sets are {|f| >= t} (closed). Edge uv
    is cut exactly for t in (min, max] of |f(u)|, |f(v)|, so the boundary term
    integrates to sum_uv w_uv ||f(u)| - |f(v)||; the frustration term is
    constant between consecutive distinct values of |f|, and it is added level
    by level in increasing order. The superlevel sets of all rows are solved
    together, each distinct set once. Errors are those of the row-by-row
    computation: the first row, then the first level of it, that fails.
    """
    absf = np.abs(g._vertex_function(f))
    rows = np.atleast_2d(absf)
    unnormalized = np.flatnonzero(np.abs(np.max(rows, axis=1, initial=0.0) - 1.0) > _DISK_TOL)
    if len(unnormalized):  # the rows before it raise their own errors first
        rows = rows[:unnormalized[0]]
    srt = np.sort(rows, axis=1)
    prev = np.zeros_like(srt)
    prev[:, 1:] = srt[:, :-1]
    level = srt > prev  # the distinct positive values of |f| (NaN is none)
    r, j = np.nonzero(level)
    members = rows[r] >= srt[r, j, None]
    # the distinct sets in order of first appearance, as the row-by-row
    # computation meets them
    distinct, which = _distinct_rows(members)
    iota = np.zeros(srt.shape)
    iota[r, j] = _frustration_values(g, distinct, budget)[which]
    if len(unnormalized):
        raise MagnetoError("NOT_NORMALIZED", "coarea integrand requires max|f| = 1")
    boundary = np.sum(g.ew * np.abs(np.take(rows, g.eu, axis=1) - np.take(rows, g.ev, axis=1)),
                      axis=1)
    # a NaN of |f| is no level: its step, NaN, must not reach the sum
    terms = np.column_stack([boundary, np.where(level, srt - prev, 0.0) * iota])
    total = np.cumsum(terms, axis=1)[:, -1]  # summed in order, as the levels rise
    return float(total[0]) if absf.ndim == 1 else total


def _distinct_rows(members: np.ndarray) -> tuple:
    """(distinct, which) of a stack of boolean rows: its distinct rows in order
    of first appearance, and the index among them of each row's own."""
    packed = np.packbits(members, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.argsort(first)
    return members[first[rank]], np.argsort(rank)[which]


def _coarea_switch_bound(g: MagneticGraph, rows: np.ndarray) -> np.ndarray:
    """An upper bound on ``coarea_lhs`` of each of a stack of normalized vertex
    functions, given by their moduli |f| as rows: iota of each level set
    bounded by the cost of the switching tau = 1, the sum over its edges of
    w_uv |1 - s_uv|. Edge uv lies inside {|f| >= t} exactly for
    t <= min(|f(u)|, |f(v)|), so those costs integrate to
    sum_uv w_uv |1 - s_uv| min(|f(u)|, |f(v)|); the boundary term is the
    one ``coarea_lhs`` integrates. O(m) per row, and no solve."""
    a, b = np.take(rows, g.eu, axis=1), np.take(rows, g.ev, axis=1)
    switch_costs = np.abs(1.0 - g.signature_values())
    return np.sum(g.ew * (np.abs(a - b) + switch_costs * np.minimum(a, b)), axis=1)


def signed_gradient_norm(g: MagneticGraph, f, p: float = 1.0):
    """Sum over edges of w_uv |f(u) - s_uv f(v)|^p (orientation invariant), for
    one vertex function or each of a stack of them along the last axis."""
    f = g._vertex_function(f)
    s = g.signature_values()
    # np.take returns each function's entries contiguous, so np.sum sums every
    # row of a stack in the order it sums one function alone
    diffs = np.abs(np.take(f, g.eu, axis=-1) - s * np.take(f, g.ev, axis=-1))
    return _per_function(np.sum(g.ew * diffs**p, axis=-1))


def measure_norm(g: MagneticGraph, f, r: float = 1.0):
    """(sum_u |f(u)|^r mu(u))^{1/r}, for one vertex function or each of a stack
    of them along the last axis."""
    if not r > 0.0:  # NaN too
        raise MagnetoError("BAD_EXPONENTS", f"need r > 0, got {r}")
    f = np.ascontiguousarray(g._vertex_function(f))  # rows contiguous, as for one function
    return _root(np.sum(np.abs(f) ** r * g.mu, axis=-1), r)


def _sobolev_factor(g: MagneticGraph) -> float:
    # the coarea/key-lemma constant: 3 for cyclic signatures, 2 for S^1
    return 2.0 if g.group_kind == CIRCLE else 3.0


@dataclass(frozen=True)
class QuotientReport:
    """One check; for a stack of functions, ``numerator``, ``denominator``,
    ``quotient`` and ``satisfied`` are arrays with one entry per function."""

    p: float
    q: float
    numerator: float
    denominator: float
    quotient: float
    bound_low: float
    satisfied: bool


def _make_report(p, q, num, den, bound_low) -> QuotientReport:
    quot = num / den
    return QuotientReport(p, q, num, den, quot, bound_low, quot >= bound_low - _SAT_TOL)


def verify_sobolev(
    g: MagneticGraph,
    f,
    mode: str,
    p: float = 2.0,
    delta: Optional[float] = None,
    c_delta: Optional[float] = None,
    h: Optional[float] = None,
) -> QuotientReport:
    """Check one of the Sobolev inequalities on a concrete function, or on each
    of a stack of them along the last axis.

    Modes: ``iso_p1`` and ``iso_general`` need (delta, c_delta); ``cheeger_p1``
    and ``cheeger_p`` need h, and since h is c_inf they are ``iso_p1`` and
    ``iso_general`` at delta = inf with c_delta = h (``cheeger_p`` first checks
    p >= 1). The reported quotient is gradient/norm, so the inequality reads
    quotient >= bound_low.
    """
    f = np.ascontiguousarray(g._vertex_function(f))
    if not np.all(np.any(f, axis=-1)):
        raise MagnetoError("ZERO_FUNCTION", "f must be nonzero")
    factor = _sobolev_factor(g)
    if mode in ("cheeger_p1", "cheeger_p"):
        if h is None:
            raise MagnetoError("BAD_EXPONENTS", "cheeger modes need h")
        if h <= 0.0:
            raise MagnetoError("ZERO_CONSTANT", "h must be positive")
        if mode == "cheeger_p" and p < 1.0:
            raise MagnetoError("BAD_EXPONENTS", f"need p >= 1, got {p}")
        mode = "iso_p1" if mode == "cheeger_p1" else "iso_general"
        delta, c_delta = math.inf, h
    if mode in ("iso_p1", "iso_general"):
        if delta is None or c_delta is None:
            raise MagnetoError("BAD_EXPONENTS", "iso modes need delta and c_delta")
        if c_delta <= 0.0:
            raise MagnetoError("ZERO_CONSTANT", "c_delta must be positive")

    # at delta = inf the exponents take their limits q = 1 and q = p
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
        num = _root(signed_gradient_norm(g, f, p), p)
        den = measure_norm(g, f, q)
        return _make_report(p, q, num, den, 1.0 / c_big)

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
    tau = frustration_exact(g, subset, budget=budget).minimizer
    f = np.zeros(g.n, dtype=complex)
    for u in subset:
        f[u] = cmath.exp(2j * math.pi * int(tau[u]) / g.group_order)
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
    if not alpha >= 1.0:  # NaN too
        raise MagnetoError("BAD_ALPHA", f"alpha must be >= 1, got {alpha}")
    if z == 0:
        return 0j
    return z * abs(z) ** (alpha - 1.0)


def bernoulli_check(z1: complex, z2: complex, alpha: float) -> bool:
    """|z1^a - z2^a| <= a |z1 - z2| (|z1|^{a-1} + |z2|^{a-1}), within _BERNOULLI_TOL."""
    return bool(bernoulli_check_batch([z1], [z2], alpha)[0])


def bernoulli_check_batch(z1, z2, alpha: float) -> np.ndarray:
    if not alpha >= 1.0:
        raise MagnetoError("BAD_ALPHA", f"alpha must be >= 1, got {alpha}")
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    r1, r2 = np.abs(z1), np.abs(z2)
    p1 = np.where(r1 > 0, z1 * r1 ** (alpha - 1.0), 0)
    p2 = np.where(r2 > 0, z2 * r2 ** (alpha - 1.0), 0)
    lhs = np.abs(p1 - p2)
    rhs = alpha * np.abs(z1 - z2) * (r1 ** (alpha - 1.0) + r2 ** (alpha - 1.0))
    return lhs <= rhs + _BERNOULLI_TOL
