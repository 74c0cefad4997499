"""Exact frustration is computed once per graph and subset, heuristic
frustration once per graph, subset, restart count and seed, and eigenvalues
once per graph and signedness. Heat kernels are not kept: the verify suites
ask for each one once."""

import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import magneto.frustration
import magneto.spectral
from conftest import random_graph, random_unbalanced_graph
from magneto import (
    MagnetoError,
    cheeger_constant,
    eigenvalue_lower_bound_check,
    frustration_exact,
    frustration_heuristic,
    graph_from_json,
    isoperimetric_constant,
    spectral_data,
)
from magneto.cli import main


def test_verify_all_solves_each_subset_once(tmp_path, monkeypatch):
    g = random_graph(np.random.default_rng(11), 10, 3)
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    solves = Counter()
    solve = magneto.frustration._solve_exact

    def counted(graph, mask, comps):
        solves[mask] += 1
        return solve(graph, mask, comps)

    monkeypatch.setattr(magneto.frustration, "_solve_exact", counted)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["verify", str(path), "--suite", "all", "--trials", "5"])
    assert code == 0
    assert solves[g.full_mask()] == 1
    assert max(solves.values()) == 1


def test_memoized_results_match_a_fresh_graph():
    g = random_graph(np.random.default_rng(4), 7, 3)

    def fresh():
        return graph_from_json(g.to_json())

    heuristic = {"heuristic": True, "restarts": 1, "seed": 5, "profile": True}
    profiles = []
    # the heuristic runs first: its entries must not stand in for exact ones
    for kw in (heuristic, dict(heuristic, seed=6), {"profile": True}):
        first = cheeger_constant(g, **kw).profile
        assert cheeger_constant(g, **kw).profile == first  # all memo hits
        assert cheeger_constant(fresh(), **kw).profile == first
        profiles.append(first)
    assert profiles[0] != profiles[2]  # the heuristic is not exact on this graph
    isoperimetric_constant(g, 3.0)
    for mask in range(1, 1 << g.n):
        assert frustration_exact(g, mask) == frustration_exact(fresh(), mask)


def test_heuristic_frustration_is_kept_per_subset_restarts_and_seed():
    g = random_unbalanced_graph(np.random.default_rng(6), 8, 4)
    first = frustration_heuristic(g, g.full_mask(), restarts=2, seed=3)
    assert frustration_heuristic(g, g.full_mask(), restarts=2, seed=3) is first
    assert frustration_heuristic(g, list(range(g.n)), restarts=2, seed=3) is first
    others = [frustration_heuristic(g, g.full_mask(), restarts=r, seed=s)
              for r, s in ((2, 4), (3, 3))]
    assert all(res is not first for res in others)
    assert frustration_heuristic(g, g.full_mask() >> 1, restarts=2, seed=3) is not first
    fresh = graph_from_json(g.to_json())
    for (r, s), res in zip(((2, 3), (2, 4), (3, 3)), [first] + others):
        assert frustration_heuristic(fresh, fresh.full_mask(), restarts=r, seed=s) == res


def test_memo_keeps_the_budget_check():
    g = random_graph(np.random.default_rng(2), 6, 3)
    frustration_exact(g, g.full_mask())
    with pytest.raises(MagnetoError) as err:
        frustration_exact(g, g.full_mask(), budget=1)
    assert err.value.code == "BUDGET_EXCEEDED"


def test_components_are_found_once_per_mask(monkeypatch):
    # a memo hit skips the component search, and a smaller budget still fails
    g = random_graph(np.random.default_rng(3), 7, 3)
    searches = Counter()
    find = g._find_components

    def counted(mask):
        searches[mask] += 1
        return find(mask)

    monkeypatch.setattr(g, "_find_components", counted)
    for _ in range(3):
        for mask in range(1, 1 << g.n):
            frustration_exact(g, mask)
    assert set(searches) == set(range(1, 1 << g.n))
    assert max(searches.values()) == 1
    comps = g.components_of(g.full_mask())
    assert comps == (tuple(range(g.n)),) and comps is g.components_of(g.full_mask())
    with pytest.raises(MagnetoError) as err:
        frustration_exact(g, g.full_mask(), budget=3 ** (g.n - 1) - 1)
    assert err.value.code == "BUDGET_EXCEEDED"
    assert searches[g.full_mask()] == 1


def counted_eigendecompositions(monkeypatch):
    solves = []
    solve = magneto.spectral.eigendecomposition

    def counted(h):
        solves.append(1)
        return solve(h)

    monkeypatch.setattr(magneto.spectral, "eigendecomposition", counted)
    return solves


def test_domination_suite_solves_each_heat_kernel_once(tmp_path, monkeypatch):
    g = random_graph(np.random.default_rng(8), 8, 3)
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    solves = counted_eigendecompositions(monkeypatch)
    kernels = []
    heat_kernel = magneto.spectral.heat_kernel

    def counted(graph, t, signed=True):
        kernels.append((t, signed))
        return heat_kernel(graph, t, signed=signed)

    monkeypatch.setattr(magneto.spectral, "heat_kernel", counted)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["verify", str(path), "--suite", "domination", "--trials", "5"])
    assert code == 0
    assert len(solves) == 6  # t in (0.1, 1, 10), signed and unsigned
    assert sorted(kernels) == sorted({(t, signed) for t in (0.1, 1.0, 10.0)
                                      for signed in (True, False)})


def test_eigenvalues_are_solved_once_and_read_only(monkeypatch):
    g = random_graph(np.random.default_rng(12), 9, 4)
    solves = counted_eigendecompositions(monkeypatch)
    lam = magneto.spectral.eigenvalues(g)
    assert magneto.spectral.eigenvalues(g) is lam
    assert len(solves) == 1
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        lam[0] = 1.0
    plain = magneto.spectral.eigenvalues(g, signed=False)
    assert len(solves) == 2
    assert not np.array_equal(lam, plain)
    for signed, values in ((True, lam), (False, plain)):
        assert np.array_equal(values, spectral_data(g, signed=signed).eigenvalues)


def test_all_k_eigenvalue_bounds_solve_once(monkeypatch):
    g = random_unbalanced_graph(np.random.default_rng(13), 9, 4)
    c3 = isoperimetric_constant(g, 3.0).constant
    solves = counted_eigendecompositions(monkeypatch)
    with pytest.raises(MagnetoError) as err:
        eigenvalue_lower_bound_check(g, 3.0, c3, g.n + 1)
    assert err.value.code == "BAD_INDEX"
    assert not solves  # a bad k costs no solve and fills no memo
    warm = [eigenvalue_lower_bound_check(g, 3.0, c3, k) for k in range(1, g.n + 1)]
    assert len(solves) == 1
    lam = spectral_data(g).eigenvalues
    for k, rep in enumerate(warm, start=1):
        assert rep == eigenvalue_lower_bound_check(graph_from_json(g.to_json()), 3.0, c3, k)
        assert rep["lambda_k"] == lam[k - 1]


def test_trace_suite_solves_once(tmp_path, monkeypatch):
    g = random_unbalanced_graph(np.random.default_rng(14), 9, 3)
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    solves = counted_eigendecompositions(monkeypatch)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        main(["verify", str(path), "--suite", "trace"])
    assert "eigenvalue_ok" in out.getvalue()  # not skipped as balanced
    assert len(solves) == 1  # the trace check's solve fills the eigenvalue memo


def test_trace_check_fills_the_eigenvalue_memo_from_its_solve(monkeypatch):
    g = random_unbalanced_graph(np.random.default_rng(15), 8, 3)
    c3 = isoperimetric_constant(g, 3.0).constant
    solves = counted_eigendecompositions(monkeypatch)
    magneto.spectral.trace_bound_check(g, 3.0, c3, (1.0,))
    lam = magneto.spectral.eigenvalues(g)
    assert len(solves) == 1
    assert not lam.flags.writeable
    assert np.array_equal(lam, spectral_data(graph_from_json(g.to_json())).eigenvalues)
    magneto.spectral.trace_bound_check(g, 3.0, c3, (1.0,))  # a full memo stays as it is
    assert magneto.spectral.eigenvalues(g) is lam
