"""Magnetic Laplacian, Hermitian eigendecomposition and heat-kernel checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MagnetoError
from .graph import MagneticGraph


_HERMITIAN_TOL = 1e-12
_POINTWISE_TOL = 1e-10
_ENTRYWISE_TOL = 1e-12
_SEMIGROUP_TOL = 1e-9
_HEAT_EQ_STEP = 1e-5
_HEAT_EQ_REL = 1e-6


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # orthonormal columns


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
    if float(np.abs(h - h.conj().T).max(initial=0.0)) > _HERMITIAN_TOL * scale:
        raise MagnetoError("NOT_HERMITIAN", "matrix is not Hermitian within tolerance")
    lam, vecs = np.linalg.eigh(h)
    return SpectralData(lam, vecs)


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


def _check_finite(t: float, name: str = "t") -> None:
    if not math.isfinite(t):
        raise MagnetoError("NONFINITE_TIME", f"{name} must be finite, got {t}")


def _check_time(t: float) -> None:
    _check_finite(t)
    if t < 0:
        raise MagnetoError("NEGATIVE_TIME", f"t must be >= 0, got {t}")


def heat_kernel(g: MagneticGraph, t: float, signed: bool = True) -> np.ndarray:
    """The Hermitian n x n array K_t = sum_j e^{-lambda_j t} P_j, computed from
    the full spectrum on every call; the graph keeps no n x n kernel."""
    _check_time(t)
    return _heat_kernel(spectral_data(g, signed=signed), t)


def _heat_kernel(sd: SpectralData, t: float) -> np.ndarray:
    k = (sd.eigenvectors * _decay(sd.eigenvalues, t)[None, :]) @ sd.eigenvectors.conj().T
    return 0.5 * (k + k.conj().T)


def heat_kernel_properties_check(g: MagneticGraph, t: float, a: float) -> dict:
    """Verify the basic heat-kernel identities at one (t, a) pair; one solve per Laplacian."""
    _check_finite(t)
    _check_finite(a, "a")
    if not 0 <= a <= t:
        raise MagnetoError("NEGATIVE_TIME", "need 0 <= a <= t")
    lap = magnetic_laplacian(g)
    signed, plain = eigendecomposition(lap), spectral_data(g, signed=False)
    k_t, k_a, k_rest = (_heat_kernel(signed, s) for s in (t, a, t - a))
    scale = max(1.0, float(np.abs(k_t).max()))
    report = {}
    report["semigroup"] = float(np.abs(k_a @ k_rest - k_t).max()) <= _SEMIGROUP_TOL * scale
    if t >= _HEAT_EQ_STEP:
        k_plus = _heat_kernel(signed, t + _HEAT_EQ_STEP)
        k_minus = _heat_kernel(signed, t - _HEAT_EQ_STEP)
        deriv = (k_plus - k_minus) / (2.0 * _HEAT_EQ_STEP)
        rhs = -lap @ k_t
        denom = max(float(np.abs(rhs).max()), 1.0)
        report["heat_equation"] = float(np.abs(deriv - rhs).max()) <= _HEAT_EQ_REL * denom
    else:
        report["heat_equation"] = True  # step larger than t; skipped
    k_plain = _heat_kernel(plain, t)
    sqrt_mu = np.sqrt(g.mu)
    report["unsigned_positive"] = float(k_plain.real.min(initial=0.0)) >= -_ENTRYWISE_TOL and \
        float(np.abs(k_plain.imag).max(initial=0.0)) <= _ENTRYWISE_TOL
    report["fixes_sqrt_mu"] = bool(np.allclose(k_plain @ sqrt_mu, sqrt_mu, atol=_SEMIGROUP_TOL))
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
    return bool(np.min(sol.real, initial=0.0) >= -_POINTWISE_TOL)


def kato_check(g: MagneticGraph, f) -> np.ndarray:
    """Pointwise |f| Delta|f| <= Re(Delta_sigma f conj(f)) for one vertex function
    or a stack of them along the last axis; one verdict per function."""
    f = np.asarray(f, dtype=complex)
    absf = np.abs(f)
    lhs = absf * (absf @ magnetic_laplacian(g, signed=False).T).real
    rhs = ((f @ magnetic_laplacian(g, signed=True).T) * np.conj(f)).real
    return np.all(lhs <= rhs + _POINTWISE_TOL, axis=-1)


def domination_check(g: MagneticGraph, t, f) -> np.ndarray:
    """|e^{-t Delta_sigma} f| <= e^{-t Delta} |f| and |K^s_t| <= K_t entrywise, at
    each time in ``t`` (a number or an array of them) for one vertex function
    or a stack of them along the last axis: verdicts of shape
    ``np.shape(t) + f.shape[:-1]``. All times take their kernels from one
    solve of each Laplacian, signed and unsigned."""
    times = np.asarray(t, dtype=float)
    for s in times.flat:
        _check_time(s)
    return _domination_verdicts(spectral_data(g, signed=True), spectral_data(g, signed=False),
                                times, f)


def _domination_verdicts(signed: SpectralData, plain: SpectralData, times: np.ndarray, f):
    """``domination_check``'s verdicts from the solves of the signed and the
    unsigned Laplacian, at checked times, so a caller with many stacks of
    functions solves each Laplacian once."""
    f = np.asarray(f, dtype=complex)
    verdicts = []
    for s in times.flat:
        k_signed, k_plain = _heat_kernel(signed, s), _heat_kernel(plain, s)
        vec_ok = np.all(np.abs(f @ k_signed.T) <= (np.abs(f) @ k_plain.T).real + _POINTWISE_TOL,
                        axis=-1)
        ent_ok = np.all(np.abs(k_signed) <= k_plain.real + _POINTWISE_TOL)
        verdicts.append(vec_ok & ent_ok)
    return np.array(verdicts, dtype=bool).reshape(times.shape + f.shape[:-1])


def trace_bound_constant(delta: float, c_delta: float, d_mu: float) -> float:
    """C_delta = (72 delta d_mu)^{delta/2} c_delta^{-delta} ((delta-1)/(delta-2))^delta."""
    if not 2.0 < delta < math.inf:
        raise MagnetoError("BAD_DELTA", f"trace bound requires finite delta > 2, got {delta}")
    if not math.isfinite(c_delta):
        raise MagnetoError("NONFINITE_CONSTANT", f"c_delta must be finite, got {c_delta}")
    if c_delta <= 0:
        raise MagnetoError("ZERO_CONSTANT", "c_delta must be positive (unbalanced graph)")
    return (72.0 * delta * d_mu) ** (delta / 2.0) / c_delta**delta * \
        ((delta - 1.0) / (delta - 2.0)) ** delta


def _volume_and_d_mu(g: MagneticGraph) -> tuple:
    """(vol(V), d_mu) of the graph, computed once per graph."""
    return g.memo("volume_and_d_mu", lambda: (g.volume(g.full_mask()), g.max_mu_degree()))


def trace_bound_check(g: MagneticGraph, delta: float, c_delta: float, t_grid) -> dict:
    """Heat-trace bound sum_j e^{-lambda_j t} <= C_delta vol / t^{delta/2},
    plus the per-vertex diagonal bound K_t(u,u) <= C_delta mu(u) / t^{delta/2}.
    Its eigendecomposition also fills the graph's eigenvalue memo, so a later
    ``eigenvalues(g)`` does not solve again."""
    vol, d_mu = _volume_and_d_mu(g)
    c_big = trace_bound_constant(delta, c_delta, d_mu)
    t_grid = tuple(t_grid)
    for t in t_grid:
        _check_finite(t)
        if t <= 0:
            raise MagnetoError("BAD_DELTA", "t grid must be positive")
    sd = spectral_data(g)
    # the eigenvalue memo takes its values from this solve when it has none
    g.memo(("eigenvalues", True), lambda: _read_only(sd.eigenvalues))
    weights = np.abs(sd.eigenvectors) ** 2  # K_t(u, u) = weights @ e^{-lambda t}
    entries = []
    ok = True
    for t in t_grid:
        decay = _decay(sd.eigenvalues, t)
        lhs = float(np.sum(decay))
        rhs = c_big * vol / t ** (delta / 2.0)
        diag_ok = bool(np.all(weights @ decay <= c_big * g.mu / t ** (delta / 2.0) + _POINTWISE_TOL))
        good = lhs <= rhs + _POINTWISE_TOL and diag_ok
        ok = ok and good
        entries.append({"t": float(t), "trace": lhs, "bound": rhs, "ok": good})
    return {"ok": ok, "constant": c_big, "entries": entries}


def eigenvalue_lower_bound_check(g: MagneticGraph, delta: float, c_delta: float,
                                 k_index: int) -> dict:
    """lambda_k >= (delta / 2e) (k / (C_delta vol))^{2/delta}."""
    if not 1 <= k_index <= g.n:
        raise MagnetoError("BAD_INDEX", f"k must lie in 1..{g.n}")
    vol, d_mu = _volume_and_d_mu(g)
    c_big = trace_bound_constant(delta, c_delta, d_mu)
    bound = (delta / (2.0 * math.e)) * (k_index / (c_big * vol)) ** (2.0 / delta)
    lam_k = float(eigenvalues(g)[k_index - 1])
    return {"ok": lam_k >= bound - _POINTWISE_TOL, "lambda_k": lam_k, "bound": bound}
