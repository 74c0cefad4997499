import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarea_oracle import levelwise_coarea_lhs
from conftest import circle_cycle, cycle_graph, random_graph, random_unbalanced_graph
from key_quadrature_oracle import key_average_quadrature, quadrature_bound
from magneto import (
    GroupElement,
    MagnetoError,
    bernoulli_check,
    build_graph,
    cheeger_constant,
    coarea_lhs,
    complex_power,
    extremal_certificate,
    isoperimetric_constant,
    key_average_circle,
    key_average_cyclic,
    measure_norm,
    normalize_vertex_function,
    quotient_infimum_search,
    radial_function,
    sector_function,
    signed_gradient_norm,
    verify_sobolev,
)
from magneto.functional import (
    bernoulli_check_batch,
    key_average_circle_batch,
    key_average_cyclic_batch,
)


def test_sector_function_basics():
    # z = 1 sits in the first sector for theta = 0
    assert sector_function(1.0, 0.5, 0.0, 4) == pytest.approx(1.0)
    # quarter-turn rotation moves it one sector up (k = 4)
    assert sector_function(1j, 0.5, 0.0, 4) == pytest.approx(1j)
    # small modulus is truncated to zero
    assert sector_function(0.1 + 0.1j, 0.5, 0.0, 4) == 0j
    with pytest.raises(MagnetoError):
        sector_function(0.5, 0.0, 0.0, 4)
    with pytest.raises(MagnetoError):
        sector_function(2.0, 0.5, 0.0, 4)


def test_radial_function():
    assert radial_function(0.5j, 0.2) == pytest.approx(1j)
    assert radial_function(0.1j, 0.2) == 0j
    with pytest.raises(MagnetoError):
        radial_function(1.5, 0.5)


def test_key_average_circle_matches_quadrature():
    rng = np.random.default_rng(41)
    ts = (np.arange(20000) + 0.5) / 20000
    for _ in range(20):
        z1 = complex(*rng.uniform(-0.7, 0.7, 2))
        z2 = complex(*rng.uniform(-0.7, 0.7, 2))
        vals = np.abs(
            np.array([radial_function(z1, t) for t in ts])
            - np.array([radial_function(z2, t) for t in ts])
        )
        assert key_average_circle(z1, z2) == pytest.approx(vals.mean(), abs=1e-3)
        assert key_average_circle(z1, z2) <= 2.0 * abs(z1 - z2) + 1e-12


def test_key_average_circle_batch_matches_scalar():
    rng = np.random.default_rng(43)
    z1 = rng.uniform(-0.7, 0.7, 50) + 1j * rng.uniform(-0.7, 0.7, 50)
    z2 = rng.uniform(-0.7, 0.7, 50) + 1j * rng.uniform(-0.7, 0.7, 50)
    batch = key_average_circle_batch(z1, z2)
    for i in range(50):
        assert batch[i] == pytest.approx(key_average_circle(z1[i], z2[i]), abs=1e-14)


def test_key_average_cyclic_matches_dense_quadrature():
    rng = np.random.default_rng(47)
    k = 3
    n_grid = 400
    ts = (np.arange(n_grid) + 0.5) / n_grid
    thetas = (np.arange(n_grid) + 0.5) * 2.0 * math.pi / n_grid
    for _ in range(3):
        z1 = complex(*rng.uniform(-0.7, 0.7, 2))
        z2 = complex(*rng.uniform(-0.7, 0.7, 2))
        acc = 0.0
        for th in thetas:
            for t in ts:
                acc += abs(sector_function(z1, t, th, k) - sector_function(z2, t, th, k))
        dense = acc / (n_grid * n_grid)
        fast = key_average_cyclic(z1, z2, k)
        assert fast == pytest.approx(dense, abs=2e-2)
        assert fast <= 3.0 * abs(z1 - z2) + 1e-12


def test_key_average_cyclic_degenerate_cases():
    assert key_average_cyclic(0j, 0j, 4) == 0.0
    # against a zero point the t-integral is exactly |z1|
    assert key_average_cyclic(0.6, 0j, 4) == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(MagnetoError):
        key_average_cyclic(2.0, 0j, 4)


def test_key_average_cyclic_matches_quadrature_oracle():
    rng = np.random.default_rng(53)
    r = np.sqrt(rng.uniform(0.0, 1.0, (2, 300)))
    z1, z2 = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (2, 300)))
    for k in (2, 3, 4, 6):
        exact = key_average_cyclic_batch(z1, z2, k)
        for n_theta in (1024, 4096):
            gap = np.abs(exact - key_average_quadrature(z1, z2, k, n_theta)).max()
            assert gap <= quadrature_bound(k, n_theta), (k, n_theta, gap)


def test_normalize_vertex_function():
    f = normalize_vertex_function([1j, -2.0, 0.5])
    assert np.max(np.abs(f)) == pytest.approx(1.0)
    with pytest.raises(MagnetoError) as err:
        normalize_vertex_function([0.0, 0.0])
    assert err.value.code == "ZERO_FUNCTION"


def test_coarea_requires_normalization():
    g = cycle_graph(4, 2, 1)
    with pytest.raises(MagnetoError) as err:
        coarea_lhs(g, [0.5, 0.5, 0.5, 0.5])
    assert err.value.code == "NOT_NORMALIZED"


def test_coarea_on_extremal_certificate():
    g = cycle_graph(4, 2, 1)
    f = extremal_certificate(g)
    # |f| = 1 everywhere: the superlevel integral is just iota(V) + 0
    assert coarea_lhs(g, f) == pytest.approx(2.0, abs=1e-12)
    assert signed_gradient_norm(g, f, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_coarea_inequality_random():
    rng = np.random.default_rng(53)
    for _ in range(10):
        g = random_graph(rng, 6, 3)
        f = normalize_vertex_function(rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
        assert coarea_lhs(g, f) <= 3.0 * signed_gradient_norm(g, f, 1.0) + 1e-9


@st.composite
def coarea_cases(draw):
    """(graph, f) with max |f| = 1. The moduli come from a short list that
    holds 0 and 1, so |f| has ties and zeros, and may have one level only."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 7))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1]), max_size=2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v, float(rng.uniform(0.5, 2.0)), GroupElement.cyclic(int(rng.integers(k)), k))
             for u, v in sorted(pairs)]
    g = build_graph(n, edges, rng.uniform(0.5, 2.0, size=n))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)) + [0.0, 1.0]
    moduli = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    moduli[draw(st.integers(0, n - 1))] = 1.0
    return g, moduli * np.exp(1j * rng.uniform(0.0, math.tau, size=n))


@settings(max_examples=100, deadline=None)
@given(case=coarea_cases())
def test_closed_form_coarea_matches_the_levelwise_oracle(case):
    g, f = case
    assert coarea_lhs(g, f) == pytest.approx(levelwise_coarea_lhs(g, f), rel=1e-12, abs=0.0)


def test_gradient_norm_orientation_invariant():
    a = build_graph(2, [(0, 1, 1.5, GroupElement.cyclic(1, 4))])
    b = build_graph(2, [(1, 0, 1.5, GroupElement.cyclic(3, 4))])
    f = np.array([1.0 + 0.3j, -0.2 + 1j])
    for p in (1.0, 2.0, 3.0):
        assert signed_gradient_norm(a, f, p) == pytest.approx(
            signed_gradient_norm(b, f, p), abs=1e-12
        )


def test_measure_norm():
    g = cycle_graph(3, 2, 0, mu=[1.0, 2.0, 3.0])
    f = np.array([1.0, 1.0, 1.0])
    assert measure_norm(g, f, 1.0) == pytest.approx(6.0)
    assert measure_norm(g, f, 2.0) == pytest.approx(math.sqrt(6.0))


def test_certificate_quotient_equals_cheeger():
    rng = np.random.default_rng(59)
    for _ in range(10):
        g = random_unbalanced_graph(rng, n_max=6, k_max=4)
        h = cheeger_constant(g).constant
        f = extremal_certificate(g)
        quot = signed_gradient_norm(g, f, 1.0) / measure_norm(g, f, 1.0)
        assert quot == pytest.approx(h, abs=1e-9)


def test_certificate_for_finite_delta():
    g = cycle_graph(4, 2, 1)
    res = isoperimetric_constant(g, 3.0)
    f = extremal_certificate(g, 3.0)
    quot = signed_gradient_norm(g, f, 1.0) / measure_norm(g, f, 1.5)
    assert quot == pytest.approx(res.constant, abs=1e-9)


def test_verify_sobolev_modes_and_errors():
    g = cycle_graph(4, 2, 1)
    h = cheeger_constant(g).constant
    c3 = isoperimetric_constant(g, 3.0).constant
    rng = np.random.default_rng(61)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    for rep in [
        verify_sobolev(g, f, "iso_p1", delta=3.0, c_delta=c3),
        verify_sobolev(g, f, "iso_general", p=2.0, delta=3.0, c_delta=c3),
        verify_sobolev(g, f, "cheeger_p1", h=h),
        verify_sobolev(g, f, "cheeger_p", p=2.0, h=h),
    ]:
        assert rep.satisfied
        assert rep.quotient == pytest.approx(rep.numerator / rep.denominator)
    # delta = inf takes the limits q = 1 and q = p, where c_inf = h
    assert verify_sobolev(g, f, "iso_p1", delta=math.inf, c_delta=h) == \
        verify_sobolev(g, f, "cheeger_p1", h=h)
    assert verify_sobolev(g, f, "iso_general", p=2.0, delta=math.inf, c_delta=h) == \
        verify_sobolev(g, f, "cheeger_p", p=2.0, h=h)

    with pytest.raises(MagnetoError) as err:
        verify_sobolev(g, f, "iso_p1")
    assert err.value.code == "BAD_EXPONENTS"
    with pytest.raises(MagnetoError) as err:
        verify_sobolev(g, f, "iso_general", p=5.0, delta=3.0, c_delta=c3)
    assert err.value.code == "BAD_EXPONENTS"
    with pytest.raises(MagnetoError) as err:
        verify_sobolev(g, f, "cheeger_p1", h=0.0)
    assert err.value.code == "ZERO_CONSTANT"
    with pytest.raises(MagnetoError) as err:
        verify_sobolev(g, np.zeros(4), "cheeger_p1", h=h)
    assert err.value.code == "ZERO_FUNCTION"
    with pytest.raises(MagnetoError) as err:
        verify_sobolev(g, f, "nope", h=h)
    assert err.value.code == "BAD_MODE"


def test_circle_graphs_use_factor_two():
    g = circle_cycle(3, [0.1, 0.2, 0.3])
    f = np.array([1.0, 0.5j, -0.25])
    rep = verify_sobolev(g, f, "cheeger_p1", h=0.4)
    assert rep.bound_low == pytest.approx(0.4 / 2.0)


def test_quotient_search_stays_above_lower_bound():
    g = cycle_graph(5, 3, 1)
    h = cheeger_constant(g).constant
    f, q = quotient_infimum_search(g, p=1.0, q=1.0, budget=300, seed=2)
    assert q <= h + 1e-9  # warm start is the certificate
    assert q >= h / 3.0 - 1e-9


def test_complex_power_and_bernoulli():
    assert complex_power(0j, 2.5) == 0j
    z = 0.5 * cmath.exp(1j * 0.7)
    w = complex_power(z, 3.0)
    assert abs(w) == pytest.approx(0.125)
    assert cmath.phase(w) == pytest.approx(0.7)
    with pytest.raises(MagnetoError):
        complex_power(1.0, 0.5)

    assert bernoulli_check(0.3 + 0.4j, -0.5j, 1.0)
    rng = np.random.default_rng(67)
    z1 = rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
    z2 = rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
    for alpha in (1.0, 1.5, 2.0, 3.7):
        assert bool(np.all(bernoulli_check_batch(z1, z2, alpha)))
    with pytest.raises(MagnetoError):
        bernoulli_check_batch(z1, z2, 0.9)
