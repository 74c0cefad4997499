"""Level-by-level oracle for ``coarea_lhs``.

``levelwise_coarea_lhs`` is the sum that ``coarea_lhs`` ran before its boundary
term took its closed form: for each distinct positive value t of |f|, in
increasing order, the superlevel set {|f| >= t} contributes (t - previous t)
times its frustration plus its boundary measure.
"""

import numpy as np

from magneto import frustration_exact


def levelwise_coarea_lhs(g, f):
    absf = np.abs(np.asarray(f, dtype=complex))
    total = 0.0
    prev = 0.0
    for t in sorted(set(float(a) for a in absf if a > 0.0)):
        mask = 0
        for u in range(g.n):
            if absf[u] >= t:
                mask |= 1 << u
        iota = frustration_exact(g, mask).value
        total += (t - prev) * (iota + g.boundary_measure(mask))
        prev = t
    return total
