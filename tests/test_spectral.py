import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magneto.spectral
from conftest import cycle_graph, random_graph, random_vertex_function, sorted_eigs
from laplacian_oracle import loop_laplacian
from spectral_oracle import domination_per_t, residual
from magneto import (
    MagnetoError,
    domination_check,
    eigendecomposition,
    eigenvalue_lower_bound_check,
    heat_kernel,
    heat_kernel_properties_check,
    isoperimetric_constant,
    kato_check,
    magnetic_laplacian,
    positivity_check,
    spectral_data,
    trace_bound_check,
    trace_bound_constant,
)
from magneto.graph import MagneticGraph
from magneto.groups import CIRCLE, CYCLIC, TWO_PI


def c4_minus(mu=None):
    return cycle_graph(4, 2, 1, mu=mu)


def flux_ring():
    # perfbench's spectral_lemma ring up to gauge: n = 120, flux 2/5, mu = 2
    return cycle_graph(120, 5, 2, mu=[2.0] * 120)


@pytest.fixture
def no_solve(monkeypatch):
    def refuse(h):
        raise AssertionError("bad arguments are rejected before any eigensolve")

    monkeypatch.setattr(magneto.spectral, "eigendecomposition", refuse)


def test_c4_minus_spectrum():
    # unit measure: Laplacian is 2I - A^s with antiperiodic boundary, so the
    # eigenvalues are 2 - 2cos(pi(2m+1)/4) = 2 -/+ sqrt(2), each twice
    lam = sorted_eigs(c4_minus())
    expected = sorted([2 - math.sqrt(2)] * 2 + [2 + math.sqrt(2)] * 2)
    assert np.allclose(lam, expected, atol=1e-12)


def test_laplacian_is_hermitian_and_residual_small():
    rng = np.random.default_rng(71)
    for _ in range(10):
        g = random_graph(rng, 7, 4)
        h = magnetic_laplacian(g)
        assert np.abs(h - h.conj().T).max() < 1e-12
        sd = spectral_data(g)
        assert residual(h, sd) < 1e-9
        gram = sd.eigenvectors.conj().T @ sd.eigenvectors
        assert np.abs(gram - np.eye(g.n)).max() < 1e-9
    h = magnetic_laplacian(flux_ring())
    assert residual(h, eigendecomposition(h)) < 1e-9


@st.composite
def laplacian_graphs(draw):
    """Graph on 1..9 vertices with a cyclic or circle signature. Edges have any
    density and are stored in either orientation; weights and measures are all
    1, uniform on [0.5, 2], or log-uniform on [1e-3, 1e3]. Circle angles are
    often multiples of pi/2, whose signature values have zero parts."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    pairs = [(u, v) if rng.random() < 0.5 else (v, u)
             for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    m = len(pairs)
    if draw(st.booleans()):
        kind, order = CYCLIC, draw(st.integers(2, 6))
        sig = rng.integers(0, order, size=m)
    else:
        kind, order = CIRCLE, None
        sig = np.where(rng.random(m) < 0.5, rng.integers(0, 4, size=m) * (TWO_PI / 4),
                       rng.uniform(0.0, TWO_PI, size=m))
    spread = draw(st.sampled_from(["unit", "near", "wide"]))

    def draw_scales(size):
        if spread == "unit":
            return np.ones(size)
        if spread == "near":
            return rng.uniform(0.5, 2.0, size)
        return 10.0 ** rng.uniform(-3.0, 3.0, size)

    eu = [u for u, _ in pairs]
    ev = [v for _, v in pairs]
    return MagneticGraph(n, eu, ev, draw_scales(m), kind, order, sig, draw_scales(n))


@settings(max_examples=200, deadline=None)
@given(g=laplacian_graphs())
def test_laplacian_matches_the_loop_oracle(g):
    for signed in (True, False):
        lap, want = magnetic_laplacian(g, signed=signed), loop_laplacian(g, signed=signed)
        assert lap.shape == want.shape and lap.dtype == want.dtype
        assert lap.tobytes() == want.tobytes()


def test_spectrum_in_envelope():
    rng = np.random.default_rng(73)
    for _ in range(20):
        g = random_graph(rng, 7, 4)
        lam = sorted_eigs(g)
        assert lam[0] >= -1e-9
        assert lam[-1] <= 2.0 * g.max_mu_degree() + 1e-9


def test_spectrum_switching_invariant():
    rng = np.random.default_rng(79)
    for _ in range(10):
        g = random_graph(rng, 6, 4)
        tau = rng.integers(0, 4, g.n)
        assert np.allclose(sorted_eigs(g), sorted_eigs(g.switch(tau)), atol=1e-9)


def test_zero_eigenvalue_iff_balanced():
    rng = np.random.default_rng(83)
    for trivial in (True, False):
        for _ in range(10):
            g = random_graph(rng, 6, 3, force_trivial_signature=trivial)
            balanced, _ = g.is_balanced()
            lam1 = sorted_eigs(g)[0]
            assert (lam1 < 1e-9) == balanced


def test_normalized_and_random_walk_laplacians_are_similar():
    rng = np.random.default_rng(89)
    g = random_graph(rng, 6, 4)
    sym = magnetic_laplacian(g)
    root = np.sqrt(g.mu)
    walk = np.diag(1.0 / root) @ sym @ np.diag(root)  # = D_mu^{-1} (D - A^s)
    lam_walk = np.sort(np.linalg.eigvals(walk).real)
    assert np.allclose(np.sort(spectral_data(g).eigenvalues), lam_walk, atol=1e-9)


def test_eigendecomposition_rejects_non_hermitian():
    with pytest.raises(MagnetoError) as err:
        eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert err.value.code == "NOT_HERMITIAN"


def test_eigendecomposition_handles_degenerate_clusters():
    # 3-fold degenerate complex Hermitian matrix
    q, _ = np.linalg.qr(np.random.default_rng(97).normal(size=(4, 4))
                        + 1j * np.random.default_rng(98).normal(size=(4, 4)))
    h = q @ np.diag([1.0, 1.0, 1.0, 5.0]) @ q.conj().T
    sd = eigendecomposition(h)
    assert np.allclose(sd.eigenvalues, [1, 1, 1, 5], atol=1e-9)
    assert residual(h, sd) < 1e-9


def test_heat_kernel_identity_at_zero():
    g = c4_minus()
    k0 = heat_kernel(g, 0.0)
    assert np.allclose(k0, np.eye(4), atol=1e-12)
    k = heat_kernel(g, 0.7)
    assert type(k) is np.ndarray and k.shape == (4, 4) and np.array_equal(k, k.conj().T)
    with pytest.raises(MagnetoError):
        heat_kernel(g, -1.0)


def test_heat_kernel_properties():
    rng = np.random.default_rng(101)
    for _ in range(5):
        g = random_graph(rng, 6, 3)
        for t in (0.0, 1e-7, 0.1, 1.0, 10.0):
            rep = heat_kernel_properties_check(g, t, t / 2.0)
            assert rep["ok"], rep


def test_heat_equation_is_checked_at_every_time(monkeypatch):
    # an eigensolve with doubled eigenvalues keeps the semigroup law, but its
    # kernels solve dK/dt = -2LK; the exact derivative sees that at any t > 0
    g = random_graph(np.random.default_rng(107), 6, 3)
    assert heat_kernel_properties_check(g, 1e-6, 0.0)["heat_equation"]
    solve = magneto.spectral.eigendecomposition

    def doubled(h):
        sd = solve(h)
        return magneto.spectral.SpectralData(2.0 * sd.eigenvalues, sd.eigenvectors)

    monkeypatch.setattr(magneto.spectral, "eigendecomposition", doubled)
    rep = heat_kernel_properties_check(g, 1e-6, 0.0)
    assert rep["semigroup"] and rep["heat_equation"] is False


def test_positivity_of_resolvent():
    rng = np.random.default_rng(103)
    g = random_graph(rng, 6, 3)
    f = np.abs(rng.normal(size=6))
    assert positivity_check(g, 0.5, f)
    with pytest.raises(MagnetoError):
        positivity_check(g, 0.0, f)
    with pytest.raises(MagnetoError):
        positivity_check(g, 1.0, -f)


def test_kato_and_domination():
    rng = np.random.default_rng(107)
    for _ in range(10):
        g = random_graph(rng, 6, 4)
        f = random_vertex_function(rng, g.n)
        assert kato_check(g, f)
        for t in (0.1, 1.0, 10.0):
            assert domination_check(g, t, f)


@pytest.mark.parametrize("trials", [0, 1, 7])
def test_stacked_checks_give_the_single_function_verdicts(trials):
    # one stack of rows, one verdict per row; a NaN entry fails both checks
    rng = np.random.default_rng(109)
    g = random_graph(rng, 6, 4)
    fs = rng.normal(size=(trials, g.n)) + 1j * rng.normal(size=(trials, g.n))
    fs[trials // 2:, 0] = np.nan
    for check in (lambda f: kato_check(g, f), lambda f: domination_check(g, 1.0, f)):
        verdicts = check(fs)
        assert verdicts.shape == (trials,) and verdicts.dtype == bool
        single = [check(f) for f in fs]
        assert all(np.ndim(v) == 0 for v in single)
        assert verdicts.tolist() == [bool(v) for v in single]
        assert verdicts.tolist() == [i < trials // 2 for i in range(trials)]


@pytest.mark.parametrize("times", [0.5, (0.1, 1.0, 10.0), ((0.0, 0.1), (1.0, 10.0)), ()])
def test_domination_verdicts_match_the_per_t_checks(times, monkeypatch):
    rng = np.random.default_rng(113)
    g = random_graph(rng, 6, 4)
    fs = rng.normal(size=(5, g.n)) + 1j * rng.normal(size=(5, g.n))
    fs[3, 0] = np.nan  # a failing row
    want = np.array([domination_per_t(g, t, fs) for t in np.ravel(times)],
                    dtype=bool).reshape(np.shape(times) + (5,))
    solves = []
    solve = magneto.spectral.eigendecomposition
    monkeypatch.setattr(magneto.spectral, "eigendecomposition",
                        lambda h: solves.append(1) or solve(h))
    got = domination_check(g, times, fs)
    assert len(solves) == 2  # one per Laplacian, signed and unsigned
    assert got.dtype == bool and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(domination_check(g, times, fs[2]), want[..., 2])


@pytest.mark.parametrize("check, times, code", [
    (heat_kernel_properties_check, (math.nan, 0.5), "NONFINITE_TIME"),
    (heat_kernel_properties_check, (1.0, math.nan), "NONFINITE_TIME"),
    (heat_kernel_properties_check, (1.0, math.inf), "NONFINITE_TIME"),
    (heat_kernel_properties_check, (-math.inf, -1.0), "NONFINITE_TIME"),
    (heat_kernel_properties_check, (1.0, 2.0), "NEGATIVE_TIME"),
    (domination_check, ((1.0, math.nan), np.ones(4)), "NONFINITE_TIME"),
    (domination_check, ((1.0, -0.5), np.ones(4)), "NEGATIVE_TIME"),
], ids=["t=nan", "a=nan", "a=inf", "t=-inf", "a>t", "domination nan", "domination t<0"])
def test_bad_heat_kernel_times_are_rejected_before_solving(check, times, code, no_solve):
    with pytest.raises(MagnetoError) as err:
        check(c4_minus(), *times)
    assert err.value.code == code


@pytest.mark.parametrize("c_delta", [math.nan, math.inf, -math.inf])
def test_nonfinite_c_delta_is_rejected_before_solving(c_delta, no_solve):
    g = c4_minus()
    for call in (lambda: trace_bound_constant(3.0, c_delta, 2.0),
                 lambda: trace_bound_check(g, 3.0, c_delta, (1.0,)),
                 lambda: eigenvalue_lower_bound_check(g, 3.0, c_delta, 1)):
        with pytest.raises(MagnetoError) as err:
            call()
        assert err.value.code == "NONFINITE_CONSTANT"


def test_trace_bound_constant_formula():
    val = trace_bound_constant(3.0, 0.5, 2.0)
    expected = (72.0 * 3.0 * 2.0) ** 1.5 / 0.5**3 * (2.0 / 1.0) ** 3
    assert val == pytest.approx(expected)
    for delta in (2.0, math.inf, math.nan):
        with pytest.raises(MagnetoError) as err:
            trace_bound_constant(delta, 0.5, 2.0)
        assert err.value.code == "BAD_DELTA"
    with pytest.raises(MagnetoError):
        trace_bound_constant(3.0, 0.0, 2.0)


def test_trace_and_eigenvalue_bounds_on_c4_minus():
    g = c4_minus()
    c3 = isoperimetric_constant(g, 3.0).constant
    rep = trace_bound_check(g, 3.0, c3, (0.01, 0.1, 1.0, 10.0, 100.0))
    assert rep["ok"]
    assert len(rep["entries"]) == 5
    for k in range(1, 5):
        out = eigenvalue_lower_bound_check(g, 3.0, c3, k)
        assert out["ok"]
        assert out["lambda_k"] >= out["bound"] - 1e-10
    with pytest.raises(MagnetoError):
        eigenvalue_lower_bound_check(g, 3.0, c3, 5)


@pytest.mark.parametrize("t_grid, code", [
    ((1.0, math.nan), "NONFINITE_TIME"),
    ((math.inf,), "NONFINITE_TIME"),
    ((0.0,), "BAD_DELTA"),
    ((1.0, -1.0), "BAD_DELTA"),
])
def test_trace_bound_rejects_bad_times_before_solving(t_grid, code, no_solve):
    with pytest.raises(MagnetoError) as err:
        trace_bound_check(c4_minus(), 3.0, 0.5, t_grid)
    assert err.value.code == code


def test_trace_bound_at_large_t_is_finite():
    # a balanced graph's lowest eigenvalue comes out just below 0
    rep = trace_bound_check(cycle_graph(5, 3, 0), 3.0, 0.5, (1e20,))
    assert rep["entries"][0]["trace"] == pytest.approx(1.0, abs=1e-12)


def test_import_does_not_load_scipy():
    import magneto

    src = os.path.dirname(os.path.dirname(os.path.abspath(magneto.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import magneto, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
