"""Shared graph builders and helpers for the test suite."""

import math
import tracemalloc
import warnings

import numpy as np

from magneto import GroupElement, build_graph

# A failing @given test makes hypothesis import this module, and libcst
# through it, to suggest a patch; libcst's DeprecationWarning, an error under
# the suite's filters, would then replace the test's report with an
# INTERNALERROR. Imported here once, with that warning ignored, it is cached.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass


def cycle_graph(n, k, j, weight=1.0, mu=None):
    """Unit cycle 0-1-...-(n-1)-0 whose last edge carries xi^j in S^1_k."""
    one = GroupElement.identity("cyclic", k)
    edges = [(i, i + 1, weight, one) for i in range(n - 1)]
    edges.append((n - 1, 0, weight, GroupElement.cyclic(j, k)))
    return build_graph(n, edges, mu)


def circle_cycle(n, angles, weight=1.0, mu=None):
    """Cycle with S^1 signatures, one angle per edge (i, i+1 mod n)."""
    edges = [
        (i, (i + 1) % n, weight, GroupElement.circle(a)) for i, a in enumerate(angles)
    ]
    return build_graph(n, edges, mu)


def k2_graph(k, j):
    """Single edge carrying xi^j (always a tree, hence balanced)."""
    return build_graph(2, [(0, 1, 1.0, GroupElement.cyclic(j, k))])


def random_graph(rng, n, k, force_trivial_signature=False):
    """Connected random graph: random spanning tree plus a few extra edges."""
    pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    seen = set(pairs)
    for _ in range(int(rng.integers(1, n + 1))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    edges = []
    for u, v in pairs:
        j = 0 if force_trivial_signature else int(rng.integers(0, k))
        w = float(rng.uniform(0.5, 2.0))
        edges.append((u, v, w, GroupElement.cyclic(j, k)))
    mu = rng.uniform(0.5, 2.0, size=n)
    return build_graph(n, edges, mu)


def random_circle_graph(rng, n):
    """Connected random graph as ``random_graph`` draws it, with S^1 angles
    from U(0, 2pi) in place of exponents."""
    pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    for _ in range(int(rng.integers(1, n + 1))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) not in pairs:
            pairs.append((u, v))
    return build_graph(n, [(u, v, float(rng.uniform(0.5, 2.0)),
                            GroupElement.circle(float(rng.uniform(0.0, 2.0 * math.pi))))
                           for u, v in pairs], rng.uniform(0.5, 2.0, size=n))


def k4_union(triangle=False):
    """Two relabelled copies, on {4, 5, 3, 7} and {6, 0, 2, 1}, of one K4 at
    k = 2 with weights drawn from U(0.1, 3) and random signatures
    (``np.random.default_rng(0)``, the 139th draw of a permutation, weights
    and exponents). h is attained at either copy, and at their union in
    exact arithmetic; solved as one array, the union comes out 2 ulp below
    the sum of the copies' values, so a search that valued it so would
    report the union as the first minimizer. With ``triangle``, a
    frustrated triangle of weight 10 on vertices 8, 9 and 10 makes the union
    a proper subset."""
    weights = [0.15181242198214057, 1.2078075209232335, 1.0064213491962892,
               0.33299178513126526, 2.3712503916272585, 1.7583917742422202]
    exponents = [1, 1, 0, 0, 1, 0]
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges = [(min(c[a], c[b]), max(c[a], c[b]), w, GroupElement.cyclic(j, 2))
             for c in ((4, 5, 3, 7), (6, 0, 2, 1))
             for (a, b), w, j in zip(pairs, weights, exponents)]
    if triangle:
        edges += [(8, 9, 10.0, GroupElement.cyclic(0, 2)), (9, 10, 10.0, GroupElement.cyclic(0, 2)),
                  (8, 10, 10.0, GroupElement.cyclic(1, 2))]
    return build_graph(11 if triangle else 8, edges)


def k3k4_union():
    """A K3 and a K4 on a random relabelling of 7 vertices at k = 3, with
    weights from U(0.1, 3) rounded to 3 places and random signatures
    (``np.random.default_rng(11)``)."""
    rng = np.random.default_rng(11)
    perm = rng.permutation(7).tolist()
    edges = []
    for clique in (perm[:3], perm[3:]):
        for a, u in enumerate(clique):
            for v in clique[a + 1:]:
                w = round(float(rng.uniform(0.1, 3.0)), 3)
                edges.append((min(u, v), max(u, v), w, GroupElement.cyclic(int(rng.integers(0, 3)), 3)))
    return build_graph(7, edges)


def circle_union(rng):
    """A triangle and a 4-cycle, disjoint, on a permutation of 7 vertices
    drawn from ``rng``, with weights from U(0.5, 2) and S^1 angles from
    U(0, 2pi), drawn edge by edge after it."""
    perm = rng.permutation(7).tolist()
    ring = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    return build_graph(7, [(perm[u], perm[v], float(rng.uniform(0.5, 2.0)),
                            GroupElement.circle(float(rng.uniform(0.0, 2.0 * math.pi))))
                           for u, v in ring])


def random_unbalanced_graph(rng, n_max=7, k_max=4):
    while True:
        n = int(rng.integers(3, n_max + 1))
        k = int(rng.integers(2, k_max + 1))
        g = random_graph(rng, n, k)
        if not g.is_balanced()[0]:
            return g


def components_of(g, mask):
    """Connected components (sorted vertex tuples) of the subgraph induced on
    ``mask``, in increasing order of their least vertex, from
    ``MagneticGraph.components``."""
    comps = g.components(g.indicator(mask)[None])[1]
    return tuple(tuple(np.flatnonzero(comp).tolist()) for comp in comps)


def random_vertex_function(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def sorted_eigs(g, signed=True):
    from magneto import spectral_data

    return np.sort(spectral_data(g, signed=signed).eigenvalues)


def peak_bytes(solve):
    """The tracemalloc peak of one call of ``solve``."""
    tracemalloc.start()
    try:
        solve()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_report_matches(got, want, where):
    """A CLI report matches its record key for key: ints, bools, strings and
    subsets exactly, floats within 1e-12 relative."""
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12), where
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_report_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_report_matches(a, b, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where
