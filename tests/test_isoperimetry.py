import dataclasses
import math

import numpy as np
import pytest

import magneto.isoperimetry
from conftest import cycle_graph, k2_graph, random_graph
from magneto import (
    GroupElement,
    MagnetoError,
    SwitchingAssignment,
    cheeger_constant,
    isoperimetric_constant,
    torus_cheeger_bounds,
    verify_product_additivity,
)


def c4_minus():
    return cycle_graph(4, 2, 1)


def test_c4_minus_cheeger():
    res = cheeger_constant(c4_minus())
    assert res.constant == pytest.approx(0.5, abs=1e-12)
    assert res.argmin.subset == (0, 1, 2, 3)
    assert res.argmin.frustration == pytest.approx(2.0, abs=1e-12)
    assert res.argmin.boundary == 0.0
    assert res.exact


def test_c4_minus_isoperimetric_delta3():
    res = isoperimetric_constant(c4_minus(), 3.0)
    assert res.constant == pytest.approx(2.0 / 4.0 ** (2.0 / 3.0), abs=1e-12)
    assert res.delta == 3.0


def test_delta_infinity_is_cheeger():
    g = c4_minus()
    assert isoperimetric_constant(g, math.inf).constant == cheeger_constant(g).constant


def test_balanced_graphs_give_zero():
    g = k2_graph(2, 1)  # a single flipped edge is a tree, hence balanced
    res = cheeger_constant(g)
    assert res.constant == 0.0
    assert res.argmin.subset == (0, 1)
    assert isoperimetric_constant(g, 2.0).constant == 0.0


def test_bad_delta_rejected():
    g = c4_minus()
    for delta in (1.0, 0.5, -3.0):
        with pytest.raises(MagnetoError) as err:
            isoperimetric_constant(g, delta)
        assert err.value.code == "BAD_DELTA"


def test_subset_limit_guard():
    g = cycle_graph(6, 2, 1)
    with pytest.raises(MagnetoError) as err:
        cheeger_constant(g, subset_limit=5)
    assert err.value.code == "BUDGET_EXCEEDED"


def test_profile_covers_every_nonempty_subset():
    g = cycle_graph(4, 2, 1)
    res = cheeger_constant(g, profile=True)
    assert len(res.profile) == 2**4 - 1
    best = min(c.objective for c in res.profile)
    assert best == pytest.approx(res.constant, abs=1e-12)


def test_pruned_and_profiled_runs_agree():
    # the last graph is balanced: the pruning threshold is 0 there
    rng = np.random.default_rng(29)
    graphs = [random_graph(rng, 6, 3) for _ in range(10)]
    graphs.append(random_graph(rng, 6, 3, force_trivial_signature=True))
    for delta in (math.inf, 3.0):
        for heuristic in (False, True):
            kw = {"heuristic": heuristic, "restarts": 2, "seed": 1}
            for g in graphs:
                fast = isoperimetric_constant(g, delta, **kw)
                slow = isoperimetric_constant(g, delta, profile=True, **kw)
                assert fast.constant == slow.constant
                assert fast.argmin.subset == slow.argmin.subset
            assert fast.constant == 0.0


def test_switching_invariance_of_cheeger():
    rng = np.random.default_rng(31)
    for _ in range(8):
        g = random_graph(rng, 6, 3)
        base = cheeger_constant(g).constant
        tau = SwitchingAssignment.from_exponents(range(g.n), rng.integers(0, 3, g.n), 3)
        assert cheeger_constant(g.switch(tau)).constant == pytest.approx(base, abs=1e-12)


def test_cut_structure_dominated_by_measure_scaling():
    # doubling mu doubles volumes, halving h for a frustration-dominated cut
    g1 = cycle_graph(4, 2, 1, mu=[1.0] * 4)
    g2 = cycle_graph(4, 2, 1, mu=[2.0] * 4)
    assert cheeger_constant(g2).constant == pytest.approx(
        cheeger_constant(g1).constant / 2.0, abs=1e-12
    )


def test_product_additivity_exact_small():
    rep = verify_product_additivity([cycle_graph(3, 2, 1), k2_graph(2, 0)])
    assert rep.holds
    assert not rep.upper_bound_mode
    total = sum(rep.factor_constants)
    assert rep.lower == pytest.approx(total / 3.0)
    assert rep.upper == pytest.approx(3.0 * total)
    assert rep.lower - 1e-12 <= rep.product_constant <= rep.upper + 1e-12


def test_product_additivity_heuristic_flag():
    rep = verify_product_additivity(
        [cycle_graph(3, 2, 1), k2_graph(2, 0)], heuristic=True, restarts=4
    )
    assert rep.upper_bound_mode
    assert rep.holds


@pytest.mark.parametrize("heuristic", [False, True])
def test_product_constant_below_the_lower_side_fails(heuristic, monkeypatch):
    # exact or an upper bound, h(product) below the lower side proves h < lower
    factors = [cycle_graph(3, 2, 1), k2_graph(2, 0)]
    rep = verify_product_additivity(factors, heuristic=heuristic, restarts=4)
    assert rep.holds

    def too_low(g, **kw):
        res = cheeger_constant(g, **kw)
        if g.n == 6:
            return dataclasses.replace(res, constant=rep.lower / 2.0)
        return res

    monkeypatch.setattr(magneto.isoperimetry, "cheeger_constant", too_low)
    low = verify_product_additivity(factors, heuristic=heuristic, restarts=4)
    assert low.product_constant < low.lower
    assert not low.holds
    assert low.upper_bound_mode is heuristic


def test_torus_bounds_formula():
    sigs = [GroupElement.cyclic(1, 2), GroupElement.cyclic(1, 4)]
    lo, hi = torus_cheeger_bounds([4, 6], sigs)
    s = 2.0 / 4.0 + math.sqrt(2.0) / 6.0
    assert lo == pytest.approx(s / 3.0, abs=1e-12)
    assert hi == pytest.approx(3.0 * s, abs=1e-12)
    with pytest.raises(MagnetoError):
        torus_cheeger_bounds([4], sigs)
    with pytest.raises(MagnetoError):
        torus_cheeger_bounds([2], [sigs[0]])


def test_torus_bounds_contain_enumerated_value():
    c3 = cycle_graph(3, 2, 1)
    c4 = cycle_graph(4, 2, 1)
    from magneto import cartesian_product

    h = cheeger_constant(cartesian_product(c3, c4), subset_limit=12).constant
    lo, hi = torus_cheeger_bounds(
        [3, 4], [GroupElement.cyclic(1, 2), GroupElement.cyclic(1, 2)]
    )
    assert lo - 1e-12 <= h <= hi + 1e-12
