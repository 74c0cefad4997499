"""Eager oracles for the spectral module.

``eager_residual`` is the residual as ``eigendecomposition`` computed it on
every call before it became a lazy property: max |H V - V Lambda| over the
complex ``eigh`` of H. ``domination_per_t`` is the domination check as it ran
before it took all its times from one solve: two ``heat_kernel`` calls, and
so two eigendecompositions, for one time t.
"""

import numpy as np

from magneto.spectral import DEFAULT_TOL, heat_kernel


def eager_residual(h):
    h = np.asarray(h, dtype=complex)
    lam, vecs = np.linalg.eigh(h)
    return float(np.abs(h @ vecs - vecs * lam[None, :]).max(initial=0.0))


def domination_per_t(g, t, f):
    f = np.asarray(f, dtype=complex)
    k_signed = heat_kernel(g, t, signed=True).matrix
    k_plain = heat_kernel(g, t, signed=False).matrix
    tol = DEFAULT_TOL.pointwise
    vec_ok = np.all(np.abs(f @ k_signed.T) <= (np.abs(f) @ k_plain.T).real + tol, axis=-1)
    ent_ok = np.all(np.abs(k_signed) <= k_plain.real + tol)
    return vec_ok & ent_ok
