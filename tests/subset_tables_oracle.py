"""Per-vertex bit-array oracle for ``isoperimetry._subset_tables``.

``bit_array_tables`` builds the tables that the subset search built before
they were filled through strided views: one boolean array per vertex over the
nonempty masks 1..2^n - 1, the volume as the sum over vertices in ascending
order of mu(u) times its bits, the boundary as zeros plus each edge's weight
times the bits where its ends differ, in storage order, and the popcount as
the sum of the bits. The search visited them in the order of a full
``np.lexsort((masks, pop))``: increasing popcount, then increasing mask.
"""

import numpy as np


def bit_array_tables(g):
    """(masks, bnd, vol, pop) over the nonempty masks, in mask order."""
    n = g.n
    masks = np.arange(1, 1 << n, dtype=np.int64)
    bits = [(masks >> u) & 1 == 1 for u in range(n)]
    vol = sum(g.mu[u] * bits[u] for u in range(n))
    bnd = np.zeros(len(masks))
    for idx in range(g.m):
        u, v = int(g.eu[idx]), int(g.ev[idx])
        bnd += g.ew[idx] * (bits[u] != bits[v])
    pop = sum(bits)
    return masks, bnd, vol, pop
