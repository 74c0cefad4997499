"""Per-edge loop oracle for ``magnetic_laplacian``.

``loop_laplacian`` is the fill that ``magnetic_laplacian`` ran before its
fancy-index fill: the diagonal d(u)/mu(u), then one Python step per edge that
adds -w s / sqrt(mu(u) mu(v)) at (u, v) and its conjugate at (v, u), both onto
zeros.
"""

import numpy as np


def loop_laplacian(g, signed=True):
    n = g.n
    lap = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(lap, g.degrees() / g.mu)
    s = g.signature_values() if signed else np.ones(g.m)
    scale = np.sqrt(g.mu)
    for idx in range(g.m):
        u, v = int(g.eu[idx]), int(g.ev[idx])
        off = -g.ew[idx] * s[idx] / (scale[u] * scale[v])
        lap[u, v] += off
        lap[v, u] += np.conj(off)
    return lap
