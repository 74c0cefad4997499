import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magneto.frustration
from conftest import circle_cycle, cycle_graph, random_graph
from frustration_oracle import enumerate_frustration, lex_first_min_count
from magneto import (
    GroupElement,
    MagnetoError,
    SwitchingAssignment,
    build_graph,
    cartesian_product,
    frustration_cycle_oracle,
    frustration_exact,
    frustration_heuristic,
    l1_switch_cost,
)


def test_cycle_oracle_closed_form():
    assert frustration_cycle_oracle(GroupElement.cyclic(1, 2)) == 2.0
    assert frustration_cycle_oracle(GroupElement.cyclic(0, 5)) == 0.0
    assert frustration_cycle_oracle(GroupElement.cyclic(1, 4)) == pytest.approx(
        math.sqrt(2.0), abs=1e-15
    )


def test_exact_matches_cycle_oracle_small():
    for n in (3, 4, 5):
        for k in (2, 3, 4):
            for j in range(k):
                g = cycle_graph(n, k, j)
                res = frustration_exact(g, g.full_mask())
                assert res.exact
                assert abs(res.value - 2.0 * math.sin(math.pi * j / k)) < 1e-12


def test_triangle_all_minus_one():
    minus = GroupElement.cyclic(1, 2)
    g = build_graph(3, [(0, 1, 1.0, minus), (1, 2, 1.0, minus), (0, 2, 1.0, minus)])
    res = frustration_exact(g, g.full_mask())
    # one edge must stay frustrated: |1-(-1)| = 2
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_minimizer_cost_equals_reported_value():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_graph(rng, 6, 4)
        res = frustration_exact(g, g.full_mask())
        assert l1_switch_cost(g, g.full_mask(), res.minimizer) == pytest.approx(
            res.value, abs=1e-12
        )


def test_balanced_graph_has_zero_frustration():
    g = build_graph(
        3,
        [
            (0, 1, 1.0, GroupElement.cyclic(1, 3)),
            (1, 2, 1.0, GroupElement.cyclic(1, 3)),
            (0, 2, 1.0, GroupElement.cyclic(2, 3)),
        ],
    )
    assert g.is_balanced()[0]
    assert frustration_exact(g, g.full_mask()).value == 0.0


def test_subsets_inducing_forests_are_free():
    g = cycle_graph(6, 4, 1)
    for subset in ([0], [0, 1], [0, 1, 2], [0, 2, 4]):
        assert frustration_exact(g, subset).value == 0.0


def test_weights_scale_the_index():
    g = cycle_graph(5, 3, 1, weight=2.5)
    res = frustration_exact(g, g.full_mask())
    assert res.value == pytest.approx(2.5 * 2.0 * math.sin(math.pi / 3), abs=1e-12)


def test_switching_invariance():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_graph(rng, 6, 4)
        base = frustration_exact(g, g.full_mask()).value
        tau = SwitchingAssignment.from_exponents(range(g.n), rng.integers(0, 4, g.n), 4)
        assert frustration_exact(g.switch(tau), g.full_mask()).value == pytest.approx(
            base, abs=1e-12
        )


def test_lexicographic_tie_break_pins_first_vertex():
    g = cycle_graph(4, 2, 0)  # balanced: all-zero tau is the lex-smallest optimum
    res = frustration_exact(g, g.full_mask())
    assert all(res.minimizer[u].exponent == 0 for u in range(4))


def test_budget_and_group_errors():
    g = cycle_graph(6, 4, 1)
    with pytest.raises(MagnetoError) as err:
        frustration_exact(g, g.full_mask(), budget=10)
    assert err.value.code == "BUDGET_EXCEEDED"
    c = circle_cycle(4, [0.0, 0.0, 0.0, 1.0])
    with pytest.raises(MagnetoError) as err:
        frustration_exact(c, c.full_mask())
    assert err.value.code == "CONTINUOUS_GROUP"


def test_heuristic_upper_bounds_exact_and_hits_cycles():
    rng = np.random.default_rng(17)
    for _ in range(15):
        g = random_graph(rng, 6, 4)
        exact = frustration_exact(g, g.full_mask()).value
        heur = frustration_heuristic(g, g.full_mask(), restarts=8, seed=1)
        assert not heur.exact
        assert heur.value >= exact - 1e-12
    for n in (3, 5, 8):
        for k in (2, 3, 4, 6):
            for j in range(k):
                g = cycle_graph(n, k, j)
                heur = frustration_heuristic(g, g.full_mask(), restarts=8, seed=0)
                assert heur.value == pytest.approx(
                    2.0 * math.sin(math.pi * j / k), abs=1e-9
                )


def test_heuristic_circle_reaches_cycle_optimum():
    # flux pi/2 concentrated on one edge; optimum is |1 - i| = sqrt(2)
    g = circle_cycle(4, [0.0, 0.0, 0.0, math.pi / 2.0])
    res = frustration_heuristic(g, g.full_mask(), restarts=8, seed=0)
    assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-9)
    cost = l1_switch_cost(g, g.full_mask(), res.minimizer)
    assert cost == pytest.approx(res.value, abs=1e-9)


def test_disconnected_subsets_add_componentwise():
    # two disjoint unbalanced triangles inside one graph
    minus = GroupElement.cyclic(1, 2)
    one = GroupElement.identity("cyclic", 2)
    edges = [(0, 1, 1.0, minus), (1, 2, 1.0, one), (0, 2, 1.0, one),
             (3, 4, 1.0, minus), (4, 5, 1.0, one), (3, 5, 1.0, one)]
    g = build_graph(6, edges)
    assert frustration_exact(g, g.full_mask()).value == pytest.approx(4.0, abs=1e-12)


# largest n <= 9 per k that keeps the oracle's k^(n-1) enumeration small
MAX_N = {2: 9, 3: 9, 4: 8, 5: 7, 6: 6}


@st.composite
def weighted_subsets(draw):
    """(graph, mask) with signatures, edges and subset from hypothesis and
    weights and measures uniform on [0.5, 2], so exact ties are the ones the
    group's symmetry makes."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(2, MAX_N[k]))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1]), min_size=1, max_size=2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v, float(rng.uniform(0.5, 2.0)), GroupElement.cyclic(draw(st.integers(0, k - 1)), k))
             for u, v in sorted(pairs)]
    g = build_graph(n, edges, rng.uniform(0.5, 2.0, size=n))
    return g, draw(st.integers(1, g.full_mask()))


@settings(max_examples=300, deadline=None)
@given(case=weighted_subsets(), chunk=st.sampled_from([1, 8, 100, 1 << 15]))
def test_exact_matches_the_enumeration_oracle(case, chunk):
    # small chunks split components into enumerated prefixes and a tensor
    g, mask = case
    with mock.patch.object(magneto.frustration, "_CHUNK", chunk):
        res = frustration_exact(g, mask)
    value, assignment, evaluations = enumerate_frustration(g, mask)
    assert {u: res.minimizer[u].exponent for u in assignment} == assignment
    assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert res.evaluations == evaluations


def _unit_graph(rng, n, k):
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        pairs.add((u, v))
    return build_graph(n, [(u, v, 1.0, GroupElement.cyclic(int(rng.integers(0, k)), k))
                           for u, v in sorted(pairs)])


def _unit_cases():
    cases = [cycle_graph(n, k, j) for n in range(3, 10) for k in (2, 3) for j in range(k)]
    c3 = [cycle_graph(3, 3, j) for j in range(3)]
    cases += [cartesian_product(a, b) for a in c3 for b in c3]
    rng = np.random.default_rng(404)
    cases += [_unit_graph(rng, int(rng.integers(2, 10)), int(rng.integers(2, 4)))
              for _ in range(150)]
    return cases


@pytest.mark.parametrize("chunk", [1 << 15, 9])
def test_exact_ties_go_to_the_lexicographically_first_minimizer(chunk):
    # unit weights with k in {2, 3}: every frustrated edge costs the same, so
    # minimizers are exact ties, counted in integers by the oracle
    x = {2: 2.0, 3: 2.0 * math.sin(math.pi / 3)}
    with mock.patch.object(magneto.frustration, "_CHUNK", chunk):
        for g in _unit_cases():
            mask = g.full_mask()
            res = magneto.frustration._solve_exact(g, mask, g.components_of(mask))
            count, assignment = lex_first_min_count(g, mask)
            assert {u: res.minimizer[u].exponent for u in assignment} == assignment
            assert res.value == pytest.approx(count * x[g.group_order], rel=1e-12)

