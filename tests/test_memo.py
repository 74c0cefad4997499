"""Exact frustration is computed once per graph and subset, heuristic
frustration once per graph, subset, restart count and seed, eigenvalues once
per graph and signedness, vol(V) and d_mu once per graph, and a subset search
once per graph and mode (delta, heuristic, budget, restarts, seed, profile).
A search keeps the frustration of V alone: it values its other subsets in one
batch, exact or heuristic. Connected components are found afresh on every
call, and heat kernels are not kept: the heat-kernel and domination checks
take all of their kernels from one solve of each Laplacian."""

import io
import math
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import magneto.cli
import magneto.frustration
import magneto.functional
import magneto.isoperimetry
import magneto.spectral
from conftest import random_graph, random_unbalanced_graph
from magneto import (
    MagnetoError,
    cheeger_constant,
    eigenvalue_lower_bound_check,
    frustration_exact,
    frustration_heuristic,
    graph_from_json,
    heat_kernel_properties_check,
    isoperimetric_constant,
    normalize_vertex_function,
    spectral_data,
)
from magneto.cli import _coarea_violations, main
from magneto.frustration import DEFAULT_BUDGET
from magneto.graph import MagneticGraph


def test_verify_all_solves_each_subset_once(tmp_path, monkeypatch):
    g = random_graph(np.random.default_rng(11), 10, 3)
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    solves = Counter()
    solve = magneto.frustration._solve_exact

    def counted(graph, comps):
        solves[graph.as_mask(np.flatnonzero(comps.any(axis=0)))] += 1
        return solve(graph, comps)

    monkeypatch.setattr(magneto.frustration, "_solve_exact", counted)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["verify", str(path), "--suite", "all", "--trials", "5"])
    assert code == 0
    assert solves[g.full_mask()] == 1
    assert max(solves.values()) == 1


def test_coarea_suite_solves_and_keeps_nothing(tmp_path, monkeypatch):
    # the tau = 1 bound certifies every random trial on an n = 10, k = 3
    # graph, so no level set is solved. On a balanced graph switched by tau,
    # f = tau has gradient 0 but a positive bound: that block is not
    # certified, and its level sets go to the value-only kernel
    g = random_graph(np.random.default_rng(11), 10, 3)
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    calls = []
    values = magneto.frustration._frustration_values

    def counted(*args):
        calls.append(args)
        return values(*args)

    for module in (magneto.frustration, magneto.functional):
        monkeypatch.setattr(module, "_frustration_values", counted)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["verify", str(path), "--suite", "coarea", "--trials", "20"])
    assert code == 0
    assert not calls
    rng = np.random.default_rng(5)
    tau = rng.integers(0, 3, size=10)
    switched = random_graph(rng, 10, 3, force_trivial_signature=True).switch(tau)
    fs = np.exp(2j * np.pi * tau / 3) * np.ones((4, 10))
    fs[1:] *= rng.uniform(0.1, 1.0, size=(3, 10))
    assert _coarea_violations(switched, normalize_vertex_function(fs), DEFAULT_BUDGET) == 0
    assert len(calls) == 1 and calls[0][0] is switched
    # graph-wide entries only (the edge tables): no key per mask
    assert all(isinstance(key, str) for key in switched._memo)


def test_coarea_suite_checks_each_distinct_support_once(tmp_path, monkeypatch):
    # a drawn row is nonzero at every vertex, so the 100 supports of a block
    # are one set, V, and the checks of the exact solve run on it once
    g = random_graph(np.random.default_rng(11), 10, 3)
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    checked = []
    check = magneto.cli._check_sets

    def counted(graph, members, budget):
        checked.append(members.tolist())
        return check(graph, members, budget)

    monkeypatch.setattr(magneto.cli, "_check_sets", counted)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["verify", str(path), "--suite", "coarea", "--trials", "100"])
    assert code == 0
    assert checked == [[[True] * 10]]


def fields(res):
    """A ``FrustrationResult`` as plain values that ``==`` compares, minimizer included."""
    return res.value, res.minimizer.tolist(), res.exact, res.evaluations


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
        assert fields(frustration_exact(g, mask)) == fields(frustration_exact(fresh(), mask))


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
        assert fields(frustration_heuristic(fresh, fresh.full_mask(), restarts=r, seed=s)) == \
            fields(res)


def test_memo_keeps_the_budget_check():
    # V of the connected graph is one component, so its gauge-fixed space is
    # 3^(n-1), and a memo hit still checks it against the budget
    g = random_graph(np.random.default_rng(2), 6, 3)
    assert g.components_of(g.full_mask()) == (tuple(range(g.n)),)
    first = frustration_exact(g, g.full_mask())
    for budget in (1, 3 ** (g.n - 1) - 1):
        with pytest.raises(MagnetoError) as err:
            frustration_exact(g, g.full_mask(), budget=budget)
        assert err.value.code == "BUDGET_EXCEEDED"
    assert frustration_exact(g, g.full_mask(), budget=3 ** (g.n - 1)) is first


def test_verify_all_runs_one_search_per_delta(tmp_path, monkeypatch):
    # the Sobolev suite's h and c_3, the trace suite's c_3 and the product
    # suite's two h: two distinct searches, each building its tables once
    g = random_unbalanced_graph(np.random.default_rng(16), 9, 3)
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    tables = []
    subset_tables = magneto.isoperimetry._subset_tables

    def counted(graph):
        tables.append(graph)
        return subset_tables(graph)

    monkeypatch.setattr(magneto.isoperimetry, "_subset_tables", counted)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["verify", str(path), "--suite", "all", "--trials", "5"])
    assert code == 0
    assert len(tables) == 2 and tables[0] is tables[1]


def test_a_repeated_search_returns_the_kept_result():
    g = random_unbalanced_graph(np.random.default_rng(17), 8, 4)
    h = cheeger_constant(g)
    assert cheeger_constant(g) is h
    assert isoperimetric_constant(g, math.inf) is h  # the same search
    c3 = isoperimetric_constant(g, 3.0, profile=True)
    assert isoperimetric_constant(g, 3.0, profile=True) is c3
    assert isinstance(c3.profile, tuple) and h.profile is None


def test_a_kept_search_still_checks_the_subset_limit_and_budget():
    g = random_graph(np.random.default_rng(18), 7, 3)
    first = cheeger_constant(g)
    for kw in ({"subset_limit": g.n - 1}, {"budget": 3 ** (g.n - 1) - 1}):
        errors = []
        for graph in (g, graph_from_json(g.to_json())):
            with pytest.raises(MagnetoError) as err:
                cheeger_constant(graph, **kw)
            errors.append((err.value.code, err.value.message))
        assert errors[0] == errors[1]
        assert errors[0][0] == "BUDGET_EXCEEDED"
    assert cheeger_constant(g) is first  # a failed search keeps nothing


def test_search_modes_do_not_share_entries():
    # heuristic modes first: an entry they left must not answer an exact search
    g = random_unbalanced_graph(np.random.default_rng(19), 8, 4)
    modes = [{"heuristic": True, "restarts": 1, "seed": 5},
             {"heuristic": True, "restarts": 1, "seed": 6},
             {"heuristic": True, "restarts": 2, "seed": 5},
             {"heuristic": True, "restarts": 1, "seed": 5, "profile": True},
             {}, {"profile": True}, {"seed": 5}, {"restarts": 1}]
    kept = [cheeger_constant(g, **kw) for kw in modes]
    assert len({id(res) for res in kept}) == len(modes)
    for kw, res in zip(modes, kept):
        assert cheeger_constant(g, **kw) is res
        assert res == cheeger_constant(graph_from_json(g.to_json()), **kw)
        assert res.exact is not kw.get("heuristic", False)
        assert (res.profile is None) is not kw.get("profile", False)


def counted_eigendecompositions(monkeypatch):
    solves = []
    solve = magneto.spectral.eigendecomposition

    def counted(h):
        solves.append(1)
        return solve(h)

    monkeypatch.setattr(magneto.spectral, "eigendecomposition", counted)
    return solves


def test_domination_suite_solves_each_heat_kernel_once(tmp_path, monkeypatch):
    # its kernels at t in (0.1, 1, 10) come from one solve of each Laplacian
    g = random_graph(np.random.default_rng(8), 8, 3)
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    solves = counted_eigendecompositions(monkeypatch)
    kernels = []
    heat_kernel = magneto.spectral._heat_kernel

    def counted(sd, t):
        kernels.append((float(t), sd))
        return heat_kernel(sd, t)

    monkeypatch.setattr(magneto.spectral, "_heat_kernel", counted)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["verify", str(path), "--suite", "domination", "--trials", "5"])
    assert code == 0
    assert len(solves) == 2  # signed and unsigned
    spectra = {id(sd) for _, sd in kernels}
    assert len(spectra) == 2
    assert sorted((t, id(sd)) for t, sd in kernels) == sorted(
        (t, sd) for t in (0.1, 1.0, 10.0) for sd in spectra)


def test_domination_suite_solves_each_laplacian_once_per_call(tmp_path, monkeypatch):
    # 20000 trials at n = 10 are 4 blocks of at most 2^16 entries
    g = random_graph(np.random.default_rng(11), 10, 3)
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    solves = counted_eigendecompositions(monkeypatch)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["verify", str(path), "--suite", "domination", "--trials", "20000"])
    assert code == 0
    assert len(solves) == 2  # signed and unsigned


def test_heat_kernel_check_solves_each_laplacian_once(monkeypatch):
    # its five signed kernels come from one solve, its unsigned one from another
    g = random_graph(np.random.default_rng(19), 8, 3)
    solves = counted_eigendecompositions(monkeypatch)
    for t, a in ((1.0, 0.5), (1e-6, 0.0)):  # with and without the heat-equation step
        solves.clear()
        assert heat_kernel_properties_check(g, t, a)["ok"]
        assert len(solves) == 2
    solves.clear()
    with pytest.raises(MagnetoError) as err:
        heat_kernel_properties_check(g, math.inf, 1.0)
    assert err.value.code == "NONFINITE_TIME"
    assert not solves


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


def test_all_k_checks_read_volume_and_d_mu_once(monkeypatch):
    g = random_unbalanced_graph(np.random.default_rng(13), 9, 4)
    c3 = isoperimetric_constant(g, 3.0).constant
    reads = Counter()
    for name in ("volume", "max_mu_degree"):
        def counted(self, *args, name=name, method=getattr(MagneticGraph, name)):
            reads[name] += 1
            return method(self, *args)

        monkeypatch.setattr(MagneticGraph, name, counted)
    trace = magneto.spectral.trace_bound_check(g, 3.0, c3, (0.1, 1.0))
    warm = [eigenvalue_lower_bound_check(g, 3.0, c3, k) for k in range(1, g.n + 1)]
    assert reads == {"volume": 1, "max_mu_degree": 1}
    fresh = graph_from_json(g.to_json())
    assert trace == magneto.spectral.trace_bound_check(fresh, 3.0, c3, (0.1, 1.0))
    for k, rep in enumerate(warm, start=1):
        assert rep == eigenvalue_lower_bound_check(graph_from_json(g.to_json()), 3.0, c3, k)


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
