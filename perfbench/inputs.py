"""Seeded input generator for the benchmark, independent of the test suite.

Graphs are plain dicts in magneto's JSON schema. Every workload part starts
from fixed base graphs drawn from ``BASE_SEED``. The run seed then makes a
variant of each base graph: it relabels the vertices, applies a random gauge
switching and shuffles and re-orients the edge list. Frustration, the Cheeger
and isoperimetric constants and the magnetic spectrum are invariant under
those maps, so the golden values recorded for the base graphs hold for every
seed while the program's inputs differ from seed to seed.
"""

from __future__ import annotations

import math

import numpy as np

BASE_SEED = 20200521


def random_connected(rng, n: int, k: int, m: int) -> dict:
    """Random spanning tree plus extra edges up to ``m`` edges, signatures in S^1_k.

    Weights and measures are uniform on [0.5, 2], so minimizing cuts are unique.
    """
    pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    seen = set(pairs)
    while len(pairs) < m:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    edges = [[u, v, float(rng.uniform(0.5, 2.0)), int(rng.integers(0, k))] for u, v in pairs]
    measure = [float(x) for x in rng.uniform(0.5, 2.0, size=n)]
    return {"n": n, "group": {"kind": "cyclic", "k": k}, "edges": edges, "measure": measure}


def cycle(n: int, k: int, j: int, mu: float = 1.0) -> dict:
    """Unit-weight cycle 0-1-...-(n-1)-0 whose closing edge carries xi^j in S^1_k."""
    edges = [[i, i + 1, 1.0, 0] for i in range(n - 1)] + [[n - 1, 0, 1.0, j]]
    return {"n": n, "group": {"kind": "cyclic", "k": k}, "edges": edges, "measure": [mu] * n}


def variant(graph: dict, rng) -> tuple[dict, list]:
    """Relabelled, gauge-switched copy of ``graph`` and the map base vertex -> new vertex.

    With ``rng=None`` the graph is returned unchanged with the identity map.
    """
    n, k = graph["n"], graph["group"]["k"]
    if rng is None:
        return graph, list(range(n))
    perm = [int(x) for x in rng.permutation(n)]
    tau = rng.integers(0, k, size=n)
    edges = []
    for u, v, w, s in graph["edges"]:
        s = int((tau[u] + s - tau[v]) % k)  # the switching of MagneticGraph.switch
        if rng.random() < 0.5:
            edges.append([perm[u], perm[v], w, s])
        else:
            edges.append([perm[v], perm[u], w, (-s) % k])
    edges = [edges[i] for i in rng.permutation(len(edges))]
    measure = [0.0] * n
    for u, mu in enumerate(graph["measure"]):
        measure[perm[u]] = mu
    return {"n": n, "group": {"kind": "cyclic", "k": k}, "edges": edges, "measure": measure}, perm


def disk_pairs(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Point pairs uniform in the closed unit disk."""
    def points():
        r = np.sqrt(rng.uniform(0.0, 1.0, size=count))
        return r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=count))
    return points(), points()


def key_average_closed_form(z1, z2, k: int) -> np.ndarray:
    """Exact theta-average of the sector-function discrepancy.

    With r1 >= r2, x = ((arg z1 - arg z2) mod 2pi) k / 2pi, m = floor(x) and
    phi = x - m, the two sector indices differ by m with probability 1 - phi
    and by m + 1 with probability phi, so the average is
    r2 [(1 - phi) d(m) + phi d(m + 1)] + (r1 - r2) with d(j) = 2 sin(pi j / k).
    """
    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    swap = np.abs(z2) > np.abs(z1)
    z1, z2 = np.where(swap, z2, z1), np.where(swap, z1, z2)
    r1, r2 = np.abs(z1), np.abs(z2)
    x = ((np.angle(z1) - np.angle(z2)) % (2.0 * math.pi)) * k / (2.0 * math.pi)
    m = np.floor(x)
    phi = x - m
    m = m.astype(np.int64) % k
    d = 2.0 * np.sin(np.pi * np.arange(k) / k)
    return r2 * ((1.0 - phi) * d[m] + phi * d[(m + 1) % k]) + (r1 - r2)


def magnetic_cycle_spectrum(n: int, k: int, j: int) -> list:
    """Ascending spectrum of the unit cycle with mu = degree = 2 and flux xi^j.

    It is switching-equivalent to the circulant with uniform phase
    a = 2 pi j / (k n) per edge, whose eigenvalues are 1 - cos(2 pi m / n + a).
    """
    a = 2.0 * math.pi * j / (k * n)
    return sorted(1.0 - math.cos(2.0 * math.pi * m / n + a) for m in range(n))
