"""Oracles for the spectral module.

``residual`` is max |H V - V Lambda| over the eigenpairs of a decomposition of
H. ``domination_per_t`` is the domination check as it ran before it took all
its times from one solve: two ``heat_kernel`` calls, and so two
eigendecompositions, for one time t, with the checks' pointwise tolerance.
"""

import numpy as np

from magneto.spectral import heat_kernel


def residual(h, sd):
    h = np.asarray(h, dtype=complex)
    vecs = sd.eigenvectors
    return float(np.abs(h @ vecs - vecs * sd.eigenvalues[None, :]).max(initial=0.0))


def domination_per_t(g, t, f):
    f = np.asarray(f, dtype=complex)
    k_signed = heat_kernel(g, t, signed=True)
    k_plain = heat_kernel(g, t, signed=False)
    tol = 1e-10
    vec_ok = np.all(np.abs(f @ k_signed.T) <= (np.abs(f) @ k_plain.T).real + tol, axis=-1)
    ent_ok = np.all(np.abs(k_signed) <= k_plain.real + tol)
    return vec_ok & ent_ok
