"""Magnetic Laplacian, Hermitian eigendecomposition and heat-kernel checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MagnetoError
from .graph import MagneticGraph


@dataclass(frozen=True)
class Tolerances:
    hermitian: float = 1e-12
    residual: float = 1e-9
    pointwise: float = 1e-10
    entrywise: float = 1e-12
    semigroup: float = 1e-9
    heat_eq_step: float = 1e-5
    heat_eq_rel: float = 1e-6


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # orthonormal columns
    residual: float


@dataclass(frozen=True)
class HeatKernel:
    t: float
    matrix: np.ndarray


def magnetic_laplacian(g: MagneticGraph, signed: bool = True) -> np.ndarray:
    """Normalized magnetic Laplacian D_mu^{-1/2} (D - A^s) D_mu^{-1/2}.

    ``signed=False`` replaces the signature by 1 (the unsigned comparison
    operator used in the Kato and domination inequalities).
    """
    n = g.n
    lap = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(lap, g.degrees() / g.mu)
    s = g.signature_values() if signed else np.ones(g.m)
    scale = np.sqrt(g.mu)
    off = -g.ew * s / (scale[g.eu] * scale[g.ev])
    # the graph is simple, so no position repeats; adding onto the zeros (not
    # assigning) turns a -0.0 imaginary part into +0.0, as a per-edge loop does
    lap[g.eu, g.ev] += off
    lap[g.ev, g.eu] += np.conj(off)
    return lap


def eigendecomposition(h: np.ndarray) -> SpectralData:
    """Full spectrum of a complex Hermitian matrix, ascending, with orthonormal eigenvectors."""
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    if float(np.abs(h - h.conj().T).max(initial=0.0)) > DEFAULT_TOL.hermitian * scale:
        raise MagnetoError("NOT_HERMITIAN", "matrix is not Hermitian within tolerance")
    lam, vecs = np.linalg.eigh(h)
    residual = float(np.abs(h @ vecs - vecs * lam[None, :]).max(initial=0.0))
    return SpectralData(lam, vecs, residual)


def spectral_data(g: MagneticGraph, signed: bool = True) -> SpectralData:
    return eigendecomposition(magnetic_laplacian(g, signed=signed))


def eigenvalues(g: MagneticGraph, signed: bool = True) -> np.ndarray:
    """Ascending eigenvalues of ``magnetic_laplacian(g, signed)``, solved once
    per graph and signedness (the same complex ``eigh`` as ``spectral_data``);
    the array is read-only. Only these n floats are kept, never the n x n
    eigenvectors."""

    return g.memo(("eigenvalues", bool(signed)),
                  lambda: _read_only(spectral_data(g, signed=signed).eigenvalues))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _decay(eigenvalues: np.ndarray, t: float) -> np.ndarray:
    """e^{-lambda t} for t >= 0. A round-off eigenvalue below 0 counts as 0, so
    the factor cannot overflow; lambda t may overflow to inf at huge t, where
    e^{-inf} = 0 is the limit."""
    with np.errstate(over="ignore"):
        return np.exp(-np.maximum(eigenvalues, 0.0) * t)


def heat_kernel(g: MagneticGraph, t: float, signed: bool = True) -> HeatKernel:
    """K_t = sum_j e^{-lambda_j t} P_j, computed from the full spectrum on every
    call; the graph keeps no n x n kernel."""
    if not math.isfinite(t):
        raise MagnetoError("NONFINITE_TIME", f"t must be finite, got {t}")
    if t < 0:
        raise MagnetoError("NEGATIVE_TIME", f"t must be >= 0, got {t}")
    sd = spectral_data(g, signed=signed)
    k = (sd.eigenvectors * _decay(sd.eigenvalues, t)[None, :]) @ sd.eigenvectors.conj().T
    return HeatKernel(t, 0.5 * (k + k.conj().T))


def heat_kernel_properties_check(g: MagneticGraph, t: float, a: float) -> dict:
    """Verify the basic heat-kernel identities at one (t, a) pair."""
    if not 0 <= a <= t:
        raise MagnetoError("NEGATIVE_TIME", "need 0 <= a <= t")
    k_t = heat_kernel(g, t).matrix
    k_a = heat_kernel(g, a).matrix
    k_rest = heat_kernel(g, t - a).matrix
    scale = max(1.0, float(np.abs(k_t).max()))
    tol = DEFAULT_TOL
    report = {}
    report["semigroup"] = float(np.abs(k_a @ k_rest - k_t).max()) <= tol.semigroup * scale
    lap = magnetic_laplacian(g)
    if t >= tol.heat_eq_step:
        k_plus = heat_kernel(g, t + tol.heat_eq_step).matrix
        k_minus = heat_kernel(g, t - tol.heat_eq_step).matrix
        deriv = (k_plus - k_minus) / (2.0 * tol.heat_eq_step)
        rhs = -lap @ k_t
        denom = max(float(np.abs(rhs).max()), 1.0)
        report["heat_equation"] = float(np.abs(deriv - rhs).max()) <= tol.heat_eq_rel * denom
    else:
        report["heat_equation"] = True  # step larger than t; skipped
    k_plain = heat_kernel(g, t, signed=False).matrix
    sqrt_mu = np.sqrt(g.mu)
    report["unsigned_positive"] = float(k_plain.real.min(initial=0.0)) >= -tol.entrywise and \
        float(np.abs(k_plain.imag).max(initial=0.0)) <= tol.entrywise
    report["fixes_sqrt_mu"] = bool(np.allclose(k_plain @ sqrt_mu, sqrt_mu, atol=tol.semigroup))
    report["ok"] = all(v for key, v in report.items() if key != "ok")
    return report


def positivity_check(g: MagneticGraph, lam: float, f) -> bool:
    """Resolvent positivity: (Delta + lam)^{-1} f >= 0 for real f >= 0."""
    if lam <= 0:
        raise MagnetoError("BAD_LAMBDA", "lambda must be positive")
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise MagnetoError("BAD_INPUT", "positivity check needs f >= 0")
    sd = spectral_data(g, signed=False)
    coeffs = sd.eigenvectors.conj().T @ f
    sol = sd.eigenvectors @ (coeffs / (sd.eigenvalues + lam))
    return bool(np.min(sol.real, initial=0.0) >= -DEFAULT_TOL.pointwise)


def kato_check(g: MagneticGraph, f) -> np.ndarray:
    """Pointwise |f| Delta|f| <= Re(Delta_sigma f conj(f)) for one vertex function
    or a stack of them along the last axis; one verdict per function."""
    f = np.asarray(f, dtype=complex)
    absf = np.abs(f)
    lhs = absf * (absf @ magnetic_laplacian(g, signed=False).T).real
    rhs = ((f @ magnetic_laplacian(g, signed=True).T) * np.conj(f)).real
    return np.all(lhs <= rhs + DEFAULT_TOL.pointwise, axis=-1)


def domination_check(g: MagneticGraph, t: float, f) -> np.ndarray:
    """|e^{-t Delta_sigma} f| <= e^{-t Delta} |f| and |K^s_t| <= K_t entrywise, for
    one vertex function or a stack of them along the last axis; one verdict per
    function."""
    f = np.asarray(f, dtype=complex)
    k_signed = heat_kernel(g, t, signed=True).matrix
    k_plain = heat_kernel(g, t, signed=False).matrix
    tol = DEFAULT_TOL.pointwise
    vec_ok = np.all(np.abs(f @ k_signed.T) <= (np.abs(f) @ k_plain.T).real + tol, axis=-1)
    ent_ok = np.all(np.abs(k_signed) <= k_plain.real + tol)
    return vec_ok & ent_ok


def trace_bound_constant(delta: float, c_delta: float, d_mu: float) -> float:
    """C_delta = (72 delta d_mu)^{delta/2} c_delta^{-delta} ((delta-1)/(delta-2))^delta."""
    if not 2.0 < delta < math.inf:
        raise MagnetoError("BAD_DELTA", f"trace bound requires finite delta > 2, got {delta}")
    if c_delta <= 0:
        raise MagnetoError("ZERO_CONSTANT", "c_delta must be positive (unbalanced graph)")
    return (72.0 * delta * d_mu) ** (delta / 2.0) / c_delta**delta * \
        ((delta - 1.0) / (delta - 2.0)) ** delta


def trace_bound_check(g: MagneticGraph, delta: float, c_delta: float, t_grid) -> dict:
    """Heat-trace bound sum_j e^{-lambda_j t} <= C_delta vol / t^{delta/2},
    plus the per-vertex diagonal bound K_t(u,u) <= C_delta mu(u) / t^{delta/2}.
    Its eigendecomposition also fills the graph's eigenvalue memo, so a later
    ``eigenvalues(g)`` does not solve again."""
    c_big = trace_bound_constant(delta, c_delta, g.max_mu_degree())
    t_grid = tuple(t_grid)
    for t in t_grid:
        if not math.isfinite(t):
            raise MagnetoError("NONFINITE_TIME", f"t must be finite, got {t}")
        if t <= 0:
            raise MagnetoError("BAD_DELTA", "t grid must be positive")
    vol = g.volume(g.full_mask())
    sd = spectral_data(g)
    # the eigenvalue memo takes its values from this solve when it has none
    g.memo(("eigenvalues", True), lambda: _read_only(sd.eigenvalues))
    entries = []
    ok = True
    for t in t_grid:
        decay = _decay(sd.eigenvalues, t)
        lhs = float(np.sum(decay))
        rhs = c_big * vol / t ** (delta / 2.0)
        diag = (np.abs(sd.eigenvectors) ** 2) @ decay
        diag_ok = bool(np.all(diag <= c_big * g.mu / t ** (delta / 2.0) + DEFAULT_TOL.pointwise))
        good = lhs <= rhs + DEFAULT_TOL.pointwise and diag_ok
        ok = ok and good
        entries.append({"t": float(t), "trace": lhs, "bound": rhs, "ok": good})
    return {"ok": ok, "constant": c_big, "entries": entries}


def eigenvalue_lower_bound_check(g: MagneticGraph, delta: float, c_delta: float,
                                 k_index: int) -> dict:
    """lambda_k >= (delta / 2e) (k / (C_delta vol))^{2/delta}."""
    if not 1 <= k_index <= g.n:
        raise MagnetoError("BAD_INDEX", f"k must lie in 1..{g.n}")
    c_big = trace_bound_constant(delta, c_delta, g.max_mu_degree())
    vol = g.volume(g.full_mask())
    bound = (delta / (2.0 * math.e)) * (k_index / (c_big * vol)) ** (2.0 / delta)
    lam_k = float(eigenvalues(g)[k_index - 1])
    return {"ok": lam_k >= bound - DEFAULT_TOL.pointwise, "lambda_k": lam_k, "bound": bound}
