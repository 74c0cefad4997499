"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test additionally prints its own verdict line.
"""

import math
import time

import numpy as np
import pytest

from circulant_fixture import magnetic_cycle_spectrum
from conftest import (
    circle_cycle,
    cycle_graph,
    k2_graph,
    random_graph,
    random_unbalanced_graph,
    random_vertex_function,
    sorted_eigs,
)
from magneto import (
    cheeger_constant,
    coarea_lhs,
    domination_check,
    eigenvalue_lower_bound_check,
    extremal_certificate,
    frustration_exact,
    frustration_heuristic,
    heat_kernel_properties_check,
    isoperimetric_constant,
    kato_check,
    measure_norm,
    normalize_vertex_function,
    quotient_infimum_search,
    signed_gradient_norm,
    spectral_data,
    trace_bound_check,
    verify_product_additivity,
    verify_sobolev,
)
from magneto.functional import (
    bernoulli_check_batch,
    key_average_circle_batch,
    key_average_cyclic_batch,
)

N_RANGE = range(3, 9)
K_CHOICES = (2, 3, 4, 6)


def _report(number, label):
    print(f"ACCEPTANCE {number:02d} ({label}): PASS")


def _corpus(seed=2024, count=20):
    rng = np.random.default_rng(seed)
    return [random_unbalanced_graph(rng, n_max=7, k_max=4) for _ in range(count)], rng


def _disk_points(rng, count):
    r = np.sqrt(rng.uniform(0.0, 1.0, count))
    a = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * a)


def test_criterion_01_cycle_frustration_oracle():
    start = time.monotonic()
    for n in N_RANGE:
        for k in K_CHOICES:
            for j in range(k):
                g = cycle_graph(n, k, j)
                val = frustration_exact(g, g.full_mask()).value
                assert abs(val - 2.0 * math.sin(math.pi * j / k)) < 1e-12, (n, k, j)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"frustration sweep took {elapsed:.1f}s"
    _report(1, "cycle frustration oracle")


def test_criterion_02_cycle_cheeger_oracle():
    start = time.monotonic()
    for n in N_RANGE:
        for k in K_CHOICES:
            for j in range(k):
                g = cycle_graph(n, k, j)
                res = cheeger_constant(g)
                assert abs(res.constant - 2.0 * math.sin(math.pi * j / k) / n) < 1e-12
                if j != 0:
                    assert res.argmin.subset == tuple(range(n)), (n, k, j)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"cheeger sweep took {elapsed:.1f}s"
    _report(2, "cycle cheeger oracle")


def test_criterion_03_variational_sandwich():
    rng = np.random.default_rng(303)
    for i in range(50):
        g = random_unbalanced_graph(rng, n_max=7, k_max=4)
        h = cheeger_constant(g).constant
        f = extremal_certificate(g)
        quot = signed_gradient_norm(g, f, 1.0) / measure_norm(g, f, 1.0)
        assert abs(quot - h) < 1e-9, i
        _, best = quotient_infimum_search(g, p=1.0, q=1.0, budget=200, seed=i)
        assert best >= h / 3.0 - 1e-9, i
    # S^1 signatures on cycles: closed-form h = 2|sin(flux/2)|/n, factor 2
    for i in range(50):
        n = int(rng.integers(3, 8))
        while True:
            angles = rng.uniform(0.0, 2.0 * math.pi, n)
            flux = float(np.sum(angles))
            if abs(math.sin(flux / 2.0)) > 0.1:
                break
        g = circle_cycle(n, angles)
        h = 2.0 * abs(math.sin(flux / 2.0)) / n
        heur = frustration_heuristic(g, g.full_mask(), restarts=8, seed=i)
        assert heur.value <= 2.0 * abs(math.sin(flux / 2.0)) + 1e-9
        warm = np.exp(1j * heur.minimizer)
        _, best = quotient_infimum_search(
            g, p=1.0, q=1.0, budget=200, seed=i, warm_start=warm
        )
        assert best >= h / 2.0 - 1e-9, i
    _report(3, "variational sandwich")


def test_criterion_04_coarea_property():
    graphs, rng = _corpus()
    violations = 0
    for g in graphs:
        for _ in range(50):
            f = normalize_vertex_function(random_vertex_function(rng, g.n))
            if coarea_lhs(g, f) > 3.0 * signed_gradient_norm(g, f, 1.0) + 1e-9:
                violations += 1
    assert violations == 0
    _report(4, "coarea property")


def test_criterion_05_sobolev_suite():
    graphs, rng = _corpus()
    violations = 0
    for delta in (2.5, 3.0, 4.0):
        for g in graphs:
            h = cheeger_constant(g).constant
            c_delta = isoperimetric_constant(g, delta).constant
            for _ in range(50):
                f = random_vertex_function(rng, g.n)
                reports = [
                    verify_sobolev(g, f, "iso_p1", delta=delta, c_delta=c_delta),
                    verify_sobolev(g, f, "iso_general", p=2.0, delta=delta, c_delta=c_delta),
                    verify_sobolev(g, f, "cheeger_p1", h=h),
                    verify_sobolev(g, f, "cheeger_p", p=2.0, h=h),
                ]
                violations += sum(not r.satisfied for r in reports)
    assert violations == 0
    _report(5, "sobolev suite")


def test_criterion_06_key_lemmas():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    total = 100_000
    z1 = _disk_points(rng, total)
    z2 = _disk_points(rng, total)
    gap = np.abs(z1 - z2)

    circle = key_average_circle_batch(z1, z2)
    assert np.all(circle <= 2.0 * gap + 1e-12)

    for k in K_CHOICES:
        vals = key_average_cyclic_batch(z1, z2, k)
        assert np.all(vals <= 3.0 * gap + 1e-9), k
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"key lemma sweep took {elapsed:.1f}s"
    _report(6, "key averaging lemmas")


def test_criterion_07_complex_bernoulli():
    rng = np.random.default_rng(707)
    z1 = _disk_points(rng, 100_000) * rng.uniform(0.0, 2.0, 100_000)
    z2 = _disk_points(rng, 100_000) * rng.uniform(0.0, 2.0, 100_000)
    for alpha in (1.0, 1.5, 2.0, 3.7):
        assert bool(np.all(bernoulli_check_batch(z1, z2, alpha))), alpha
    _report(7, "complex bernoulli")


def test_criterion_08_product_additivity():
    start = time.monotonic()
    c3 = cycle_graph(3, 2, 1)
    c4 = cycle_graph(4, 2, 1)
    k2 = k2_graph(2, 1)

    rep = verify_product_additivity([c3, c4], product_subset_limit=12)
    assert rep.holds and not rep.upper_bound_mode
    assert rep.factor_constants[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep.factor_constants[1] == pytest.approx(0.5, abs=1e-12)

    rep = verify_product_additivity(
        [c3, c3, k2], heuristic=True, product_subset_limit=18, restarts=4
    )
    assert rep.holds and rep.upper_bound_mode
    assert sum(rep.factor_constants) == pytest.approx(4.0 / 3.0, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"product additivity took {elapsed:.1f}s"
    _report(8, "product additivity")


def test_criterion_09_spectral_envelope():
    rng = np.random.default_rng(909)
    for i in range(200):
        g = random_graph(rng, int(rng.integers(3, 8)), int(rng.integers(2, 5)),
                         force_trivial_signature=(i % 4 == 0))
        lam = sorted_eigs(g)
        assert lam[0] >= -1e-9 and lam[-1] <= 2.0 * g.max_mu_degree() + 1e-9
        tau = rng.integers(0, g.group_order, g.n)
        assert np.allclose(lam, sorted_eigs(g.switch(tau)), atol=1e-9)
        balanced, _ = g.is_balanced()
        assert (lam[0] < 1e-9) == balanced, i
    _report(9, "spectral envelope")


def test_criterion_10_heat_kernel_suite():
    rng = np.random.default_rng(1010)
    violations = 0
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(3, 8)), int(rng.integers(2, 5)))
        f = random_vertex_function(rng, g.n)
        if not kato_check(g, f):
            violations += 1
        for t in (0.1, 1.0, 10.0):
            if not heat_kernel_properties_check(g, t, t / 2.0)["ok"]:
                violations += 1
            if not domination_check(g, t, f):
                violations += 1
    assert violations == 0
    _report(10, "heat kernel suite")


def test_criterion_11_trace_and_eigenvalue_bounds():
    g = cycle_graph(4, 2, 1)
    c3 = isoperimetric_constant(g, 3.0).constant
    assert c3 == pytest.approx(0.7937005, abs=1e-6)
    rep = trace_bound_check(g, 3.0, c3, (0.01, 0.1, 1.0, 10.0, 100.0))
    assert rep["ok"], rep
    for k in range(1, 5):
        assert eigenvalue_lower_bound_check(g, 3.0, c3, k)["ok"], k
    _report(11, "trace and eigenvalue bounds")


def test_criterion_12_magnetic_cycle_spectrum():
    for n in N_RANGE:
        for k in K_CHOICES:
            for j in range(k):
                g = cycle_graph(n, k, j, mu=[2.0] * n)
                lam = np.sort(spectral_data(g).eigenvalues)
                closed = magnetic_cycle_spectrum(n, k, j)
                assert np.allclose(lam, closed, atol=1e-9), (n, k, j)
    _report(12, "magnetic cycle spectrum")
