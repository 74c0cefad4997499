import cmath
import dataclasses
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
    frustration_exact,
    graph_from_json,
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
from magneto.frustration import DEFAULT_BUDGET
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


@pytest.mark.parametrize("z", [2.0, 1.0 + 1e-9, complex(math.nan, 0.0), complex(math.inf, 0.0)])
def test_points_outside_the_disk_and_a_nan_alpha_are_rejected(z):
    for call in (
        lambda: key_average_cyclic(z, 0.5, 3),
        lambda: key_average_cyclic(0.5j, z, 3),
        lambda: key_average_cyclic_batch([0.5, z], [0.5, 0.5j], 3),
        lambda: key_average_cyclic_batch([0.5, 0.5j], [0.5, z], 3),
        lambda: key_average_circle(z, 0.5),
        lambda: key_average_circle(0.5j, z),
        lambda: key_average_circle_batch([0.5, z], [0.5, 0.5j]),
        lambda: key_average_circle_batch([0.5, 0.5j], [0.5, z]),
        lambda: sector_function(z, 0.5, 0.0, 4),
        lambda: radial_function(z, 0.5),
    ):
        with pytest.raises(MagnetoError) as err:
            call()
        assert err.value.code == "OUT_OF_DISK"
    for call in (
        lambda: complex_power(z, math.nan),
        lambda: bernoulli_check(z, 0.5, math.nan),
        lambda: bernoulli_check_batch([z], [0.5], math.nan),
    ):
        with pytest.raises(MagnetoError) as err:
            call()
        assert err.value.code == "BAD_ALPHA"


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
    # a stack fails at its first failing row
    circle = circle_cycle(3, [0.1, 0.2, 0.3])
    for graph, rows, code in [(g, [[1, 0.5, 0, 1], [0.5] * 4], "NOT_NORMALIZED"),
                              (circle, [[0.5] * 3, [1, 0.5, 0]], "NOT_NORMALIZED"),
                              (circle, [[1, 0.5, 0], [0.5] * 3], "CONTINUOUS_GROUP")]:
        with pytest.raises(MagnetoError) as err:
            coarea_lhs(graph, rows)
        assert err.value.code == code
    assert coarea_lhs(circle, np.zeros((0, 3))).shape == (0,)


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
    """(graph, stack of f, budget). Each row has max |f| = 1, but for at most
    one row scaled by 1/2. The moduli come from a short list that holds 0 and
    1, so |f| has ties and zeros, and may have one level only; few edges make
    disconnected level sets; at k = 5, n = 8, the sets of 8 vertices exceed
    _CHUNK; the small budgets fail some sets and pass others."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1]), max_size=2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v, float(rng.uniform(0.5, 2.0)), GroupElement.cyclic(int(rng.integers(k)), k))
             for u, v in sorted(pairs)]
    g = build_graph(n, edges, rng.uniform(0.5, 2.0, size=n))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)) + [0.0, 1.0]
    rows = draw(st.integers(1, 4))
    moduli = np.array(draw(st.lists(st.lists(st.sampled_from(levels), min_size=n, max_size=n),
                                    min_size=rows, max_size=rows)))
    moduli[np.arange(rows), draw(st.lists(st.integers(0, n - 1), min_size=rows,
                                          max_size=rows))] = 1.0
    if draw(st.booleans()):
        moduli[draw(st.integers(0, rows - 1))] *= 0.5
    budget = draw(st.sampled_from([DEFAULT_BUDGET, 10, 100]))
    return g, moduli * np.exp(1j * rng.uniform(0.0, math.tau, size=moduli.shape)), budget


@settings(max_examples=150, deadline=None)
@given(case=coarea_cases())
def test_closed_form_coarea_matches_the_levelwise_oracle(case):
    # row by row, the oracle gives each value or raises the first error
    g, fs, budget = case
    expected = []
    try:
        for f in fs:
            expected.append(levelwise_coarea_lhs(g, f, budget))
    except MagnetoError as exc:
        for f in (fs, fs[len(expected)]):  # the stack, and its failing row alone
            with pytest.raises(MagnetoError) as err:
                coarea_lhs(g, f, budget)
            assert (err.value.code, err.value.message) == (exc.code, exc.message)
        return
    got = coarea_lhs(g, fs, budget)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert [coarea_lhs(g, f, budget) for f in fs] == got.tolist()


def test_coarea_solves_sets_past_the_chunk_alone_and_keeps_nothing():
    # at k = 5 the 8-vertex sets need 5^7 > _CHUNK floats: they are solved
    # alone, still without frustration_exact and its memo, and the budget
    # check sees them first
    rng = np.random.default_rng(71)
    g = random_graph(rng, 8, 5)
    fs = normalize_vertex_function(rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8)))
    fs[3, 2] = 0.0  # one row's support has 7 vertices
    got = coarea_lhs(g, fs)
    assert got == pytest.approx([levelwise_coarea_lhs(g, f) for f in fs], rel=1e-12, abs=0.0)
    fresh = graph_from_json(g.to_json())
    coarea_lhs(fresh, fs)
    # graph-wide entries only (the edge tables): no key per mask
    assert all(isinstance(key, str) for key in fresh._memo)
    # |f| = 1 on every vertex: the integral is iota(V), the value frustration_exact gives
    assert coarea_lhs(fresh, np.ones(8)) == frustration_exact(fresh, fresh.full_mask()).value
    with pytest.raises(MagnetoError) as err:
        coarea_lhs(fresh, fs, budget=5**6)
    assert err.value.message == "gauge-fixed space 5^7 exceeds budget 15625"


def test_coarea_on_many_vertices_and_a_small_support():
    # n > 64: the level sets are boolean rows, not machine-word bitmasks
    rng = np.random.default_rng(73)
    n = 70
    edges = [(u, (u + 1) % n, float(rng.uniform(0.5, 2.0)),
              GroupElement.cyclic(int(rng.integers(3)), 3)) for u in range(n)]
    edges += [(u, u + 5, 1.0, GroupElement.cyclic(1, 3)) for u in range(60, 65)]
    g = build_graph(n, edges)
    fs = np.zeros((3, n), dtype=complex)
    support = [0, 1, 2, 60, 61, 65, 69]
    fs[:, support] = rng.choice([0.25, 0.5, 1.0], size=(3, len(support)))
    fs[:, 65] = 1.0
    assert coarea_lhs(g, fs) == pytest.approx([levelwise_coarea_lhs(g, f) for f in fs],
                                              rel=1e-12, abs=0.0)


def test_stacked_norms_and_checks_equal_the_per_function_calls():
    # n and m of 8 or more, where np.sum adds one function's terms pairwise
    rng = np.random.default_rng(79)
    g = random_graph(rng, 11, 3)
    h = cheeger_constant(g).constant
    c3 = isoperimetric_constant(g, 3.0).constant
    for rows in (1, 5):
        # column-major, so the stacked sums cannot rely on the caller's layout
        fs = np.asfortranarray(rng.normal(size=(rows, g.n)) + 1j * rng.normal(size=(rows, g.n)))
        normalized = normalize_vertex_function(fs)
        assert [normalize_vertex_function(f).tolist() for f in fs] == normalized.tolist()
        assert [coarea_lhs(g, f) for f in normalized] == coarea_lhs(g, normalized).tolist()
        for p in (1.0, 1.5, 2.0):
            assert [signed_gradient_norm(g, f, p) for f in fs] == \
                signed_gradient_norm(g, fs, p).tolist()
            assert [measure_norm(g, f, p) for f in fs] == measure_norm(g, fs, p).tolist()
        for kw in [dict(mode="iso_p1", delta=3.0, c_delta=c3),
                   dict(mode="iso_general", p=2.0, delta=3.0, c_delta=c3),
                   dict(mode="cheeger_p1", h=h), dict(mode="cheeger_p", p=1.5, h=h),
                   dict(mode="cheeger_p1", h=100.0)]:
            stacked = verify_sobolev(g, fs, **kw)
            for i, f in enumerate(fs):
                one = verify_sobolev(g, f, **kw)
                assert isinstance(one.satisfied, bool)
                assert one == dataclasses.replace(
                    stacked, numerator=stacked.numerator[i], denominator=stacked.denominator[i],
                    quotient=stacked.quotient[i], satisfied=bool(stacked.satisfied[i]))
    with pytest.raises(MagnetoError) as err:
        normalize_vertex_function([[1.0, 0.0], [0.0, 0.0]])
    assert err.value.code == "ZERO_FUNCTION"


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


def _report_fields(rep):
    """A report's fields as lists, which compare with == for a stack too."""
    return [np.asarray(x).tolist() for x in dataclasses.astuple(rep)]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.e, 3.7])
def test_cheeger_modes_are_the_iso_modes_at_delta_inf(p):
    # delta = inf takes the limits q = 1 and q = p, where c_inf = h
    rng = np.random.default_rng(71)
    graphs = [cycle_graph(5, 3, 1, mu=[1.0, 2.0, 0.5, 1.5, 1.0]), random_graph(rng, 7, 4),
              circle_cycle(4, [0.3, 1.1, 2.0, 0.0])]
    for g in graphs:
        h = 0.37
        for f in (rng.normal(size=g.n) + 1j * rng.normal(size=g.n),
                  rng.normal(size=(6, g.n)) + 1j * rng.normal(size=(6, g.n))):
            iso_p1 = verify_sobolev(g, f, "iso_p1", delta=math.inf, c_delta=h)
            iso_general = verify_sobolev(g, f, "iso_general", p=p, delta=math.inf, c_delta=h)
            assert _report_fields(verify_sobolev(g, f, "cheeger_p1", h=h)) == \
                _report_fields(iso_p1)
            assert _report_fields(verify_sobolev(g, f, "cheeger_p", p=p, h=h)) == \
                _report_fields(iso_general)


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
def test_cheeger_p_needs_a_finite_p_of_at_least_one(p):
    g = cycle_graph(4, 2, 1)
    with pytest.raises(MagnetoError) as err:
        verify_sobolev(g, np.ones(4), "cheeger_p", p=p, h=0.5)
    assert err.value.code == "BAD_EXPONENTS"


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


def test_quotient_search_improves_a_poor_warm_start():
    g = cycle_graph(5, 3, 1)
    start = np.array([1.0, -1.0, 1.0, -1.0, 1.0], dtype=complex)
    q_start = signed_gradient_norm(g, start, 1.0) / measure_norm(g, start, 1.0)
    f, q = quotient_infimum_search(g, budget=50, seed=0, warm_start=start)
    assert q < q_start
    assert q == signed_gradient_norm(g, f, 1.0) / measure_norm(g, f, 1.0)


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
