"""Level-by-level oracle for ``coarea_lhs``.

``levelwise_coarea_lhs`` is the sum that ``coarea_lhs`` ran before its boundary
term took its closed form: for each distinct positive value t of |f|, in
increasing order, the superlevel set {|f| >= t} contributes (t - previous t)
times its frustration plus its boundary measure. It checks max |f| = 1 first
and solves each level with ``frustration_exact`` under ``budget``, so it
raises what the one-function ``coarea_lhs`` raised, in the same order.

``exact_coarea_violations`` is the count that ``verify --suite coarea`` made
before it certified trials by a switch bound: every row of a block goes to
``coarea_lhs``, every level set of it solved exactly.
"""

import numpy as np

from magneto import MagnetoError, coarea_lhs, frustration_exact, functional, signed_gradient_norm
from magneto.frustration import DEFAULT_BUDGET


def levelwise_coarea_lhs(g, f, budget=DEFAULT_BUDGET):
    absf = np.abs(np.asarray(f, dtype=complex))
    if abs(float(np.max(absf)) - 1.0) > 1e-12:
        raise MagnetoError("NOT_NORMALIZED", "coarea integrand requires max|f| = 1")
    total = 0.0
    prev = 0.0
    for t in sorted(set(float(a) for a in absf if a > 0.0)):
        mask = 0
        for u in range(g.n):
            if absf[u] >= t:
                mask |= 1 << u
        iota = frustration_exact(g, mask, budget=budget).value
        total += (t - prev) * (iota + g.boundary_measure(mask))
        prev = t
    return total


def exact_coarea_violations(g, fs, budget=DEFAULT_BUDGET):
    """How many rows of ``fs``, normalized vertex functions, have a coarea
    integral above ``_sobolev_factor`` * ||grad_sigma f||_1 + 1e-9."""
    lhs = coarea_lhs(g, fs, budget=budget)
    rhs = functional._sobolev_factor(g) * signed_gradient_norm(g, fs, 1.0)
    return int(np.count_nonzero(lhs > rhs + 1e-9))
