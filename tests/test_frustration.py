import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magneto.frustration
from conftest import (
    circle_cycle,
    components_of,
    cycle_graph,
    k2_graph,
    k3k4_union,
    k4_union,
    peak_bytes,
    random_circle_graph,
    random_graph,
)
from frustration_oracle import enumerate_frustration, lex_first_min_count
from heuristic_oracle import heuristic_frustration
from magneto import (
    GroupElement,
    MagnetoError,
    build_graph,
    cartesian_product,
    cheeger_constant,
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
    # an edge from a pinned vertex takes a table of k floats, never k x k
    edge = k2_graph(10**6, 12345)
    assert frustration_exact(edge, edge.full_mask()).value == 0.0
    assert frustration_exact(edge, edge.full_mask()).minimizer[1] == 10**6 - 12345


def test_weights_scale_the_index():
    g = cycle_graph(5, 3, 1, weight=2.5)
    res = frustration_exact(g, g.full_mask())
    assert res.value == pytest.approx(2.5 * 2.0 * math.sin(math.pi / 3), abs=1e-12)


def test_switching_invariance():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_graph(rng, 6, 4)
        base = frustration_exact(g, g.full_mask()).value
        tau = rng.integers(0, 4, g.n)
        assert frustration_exact(g.switch(tau), g.full_mask()).value == pytest.approx(
            base, abs=1e-12
        )


def test_lexicographic_tie_break_pins_first_vertex():
    g = cycle_graph(4, 2, 0)  # balanced: all-zero tau is the lex-smallest optimum
    res = frustration_exact(g, g.full_mask())
    assert res.minimizer.tolist() == [0, 0, 0, 0]


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


def test_heuristic_gives_balanced_components_zero():
    # a random gauge switches the trivial signature away; coordinate descent
    # alone stopped in local minima on each of these graphs (h > 0.19)
    for seed in (0, 4, 5):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(4, 9)), int(rng.integers(3, 7))
        g = random_graph(rng, n, k, force_trivial_signature=True)
        g = g.switch(rng.integers(0, k, size=n))
        res = frustration_heuristic(g, g.full_mask(), restarts=2, seed=1)
        assert res.value == 0.0 and l1_switch_cost(g, g.full_mask(), res.minimizer) == 0.0
        assert cheeger_constant(g, heuristic=True, restarts=2, seed=1).constant == 0.0
        assert cheeger_constant(g).constant == 0.0


def test_heuristic_circle_angles_lie_below_two_pi():
    # the descent moves vertex 1 to (0 - 1e-17) mod 2pi, which rounds to 2pi
    g = build_graph(4, [(0, 1, 1.0, GroupElement.circle(1e-17)),
                        (0, 2, 1.0, GroupElement.circle(0.0)), (0, 3, 1.0, GroupElement.circle(0.0))])
    assert frustration_heuristic(g, g.full_mask(), restarts=1).minimizer.tolist() == [0.0] * 4


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
def weighted_graphs(draw):
    """Graphs with signatures and edges from hypothesis, relabelled by a
    hypothesis permutation, and weights and measures uniform on [0.5, 2], so
    exact ties are the ones the group's symmetry makes."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(2, MAX_N[k]))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1]), min_size=1, max_size=2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v, float(rng.uniform(0.5, 2.0)), GroupElement.cyclic(draw(st.integers(0, k - 1)), k))
             for u, v in sorted(pairs)]
    return relabelled(build_graph(n, edges, rng.uniform(0.5, 2.0, size=n)),
                      draw(st.permutations(range(n))))


@st.composite
def weighted_subsets(draw):
    """(graph, mask): a ``weighted_graphs`` graph and a nonempty subset."""
    g = draw(weighted_graphs())
    return g, draw(st.integers(1, g.full_mask()))


def relabelled(g, perm):
    """g with vertex u renamed perm[u]: the same graph, eliminated in another
    vertex order, so with other array widths."""
    k = g.group_order
    edges = [(perm[u], perm[v], w, GroupElement.cyclic(s, k))
             for u, v, w, s in zip(g.eu.tolist(), g.ev.tolist(), g.ew.tolist(), g.sig.tolist())]
    return build_graph(g.n, edges, g.mu[np.argsort(perm)])


@settings(max_examples=300, deadline=None)
@given(case=weighted_subsets())
def test_exact_matches_the_enumeration_oracle(case):
    g, mask = case
    res = frustration_exact(g, mask)
    value, assignment, evaluations = enumerate_frustration(g, mask)
    assert {u: int(res.minimizer[u]) for u in assignment} == assignment
    assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert res.evaluations == evaluations


@settings(max_examples=60, deadline=None)
@given(g=weighted_graphs())
@example(g=k4_union())
@example(g=k4_union(triangle=True))
@example(g=k3k4_union())
def test_values_of_all_subsets_in_one_call_match_frustration_exact(g):
    # a set's components are solved in blocks of components of one size and
    # summed in order, as frustration_exact does, so the floats are equal on
    # the disconnected sets of the disjoint unions too
    masks = np.arange(1, 1 << g.n)
    members = (masks[:, None] >> np.arange(g.n)) & 1 == 1
    values = magneto.frustration._frustration_values(g, members, 10**7)
    assert values.tolist() == [frustration_exact(g, mask).value for mask in masks.tolist()]


def test_the_empty_set_has_no_components_and_costs_nothing():
    for g in (cycle_graph(4, 3, 1), build_graph(0, [])):
        assert components_of(g, 0) == ()
        res = frustration_exact(g, 0)
        assert (res.value, res.evaluations, res.minimizer.tolist()) == (0.0, 0, [0] * g.n)
    owner, comps = build_graph(0, []).components(np.zeros((2, 0), dtype=bool))
    assert owner.shape == (0,) and comps.shape == (0, 0)


@st.composite
def heuristic_cases(draw):
    """(graph, mask) on n <= 12 vertices, unit or uniform [0.5, 2] weights; the
    subset is any nonempty one, so it may induce several components."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(2, 12))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1]), min_size=1, max_size=3 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = draw(st.booleans())
    edges = [(u, v, 1.0 if unit else float(rng.uniform(0.5, 2.0)),
              GroupElement.cyclic(draw(st.integers(0, k - 1)), k))
             for u, v in sorted(pairs)]
    g = build_graph(n, edges)
    return g, draw(st.integers(1, g.full_mask()))


@settings(max_examples=200, deadline=None)
@given(case=heuristic_cases(), restarts=st.integers(0, 8), seed=st.integers(0, 2**64))
def test_heuristic_matches_the_restart_by_restart_oracle(case, restarts, seed):
    # unit weights tie local costs, so this also pins the tie-breaking
    g, mask = case
    res = frustration_heuristic(g, mask, restarts=restarts, seed=seed)
    value, assignment = heuristic_frustration(g, mask, restarts, seed)
    assert res.value == value
    assert {u: int(res.minimizer[u]) for u in assignment} == assignment
    assert not res.minimizer[~g.indicator(mask)].any()  # 0 outside the subset
    assert l1_switch_cost(g, mask, res.minimizer) == pytest.approx(res.value, rel=1e-12, abs=0.0)


@st.composite
def circle_heuristic_cases(draw):
    """(graph, mask) with S^1 signatures on n <= 9 vertices, unit or uniform
    [0.5, 2] weights; each angle a multiple of pi/2, where local costs tie, or
    uniform on [0, 2pi). The subset is any nonempty one, so it may induce
    several components."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1]), min_size=1, max_size=3 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = draw(st.booleans())
    right = draw(st.booleans())
    edges = [(u, v, 1.0 if unit else float(rng.uniform(0.5, 2.0)),
              GroupElement.circle(draw(st.integers(0, 3)) * math.pi / 2 if right
                                  else float(rng.uniform(0.0, 2.0 * math.pi))))
             for u, v in sorted(pairs)]
    g = build_graph(n, edges)
    return g, draw(st.integers(1, g.full_mask()))


@settings(max_examples=300, deadline=None)
@given(case=circle_heuristic_cases(), restarts=st.integers(0, 8), seed=st.integers(0, 2**64))
@example(case=(circle_cycle(4, [0.0, 0.0, 0.0, math.pi / 2]), 0b1111), restarts=8, seed=0)
def test_circle_heuristic_matches_the_restart_by_restart_oracle(case, restarts, seed):
    # the rows' descent over angles gives the floats and the ties of the
    # interpreted one, restart by restart
    g, mask = case
    res = frustration_heuristic(g, mask, restarts=restarts, seed=seed)
    value, assignment = heuristic_frustration(g, mask, restarts, seed)
    assert res.value == value
    assert {u: float(res.minimizer[u]) for u in assignment} == assignment
    assert not res.minimizer[~g.indicator(mask)].any()  # 0 outside the subset


def test_heuristic_breaks_dense_unit_ties_like_the_oracle():
    # vertices of degree >= 4 with unit weights: local costs tie, and a sum in
    # another order, such as a BLAS product, breaks some of them the other way
    rng = np.random.default_rng(0)
    for t in range(40):
        n, k = int(rng.integers(6, 11)), int(rng.integers(3, 7))
        g = build_graph(n, [(u, v, 1.0, GroupElement.cyclic(int(rng.integers(0, k)), k))
                            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7])
        res = frustration_heuristic(g, g.full_mask(), restarts=4, seed=t)
        value, assignment = heuristic_frustration(g, g.full_mask(), 4, t)
        assert res.value == value
        assert {u: int(res.minimizer[u]) for u in assignment} == assignment


@pytest.mark.parametrize("chunk", [1, 60, 1 << 15])
def test_heuristic_restart_blocks_match_the_oracle(chunk):
    # small chunks split the restarts into blocks of one or a few rows, over
    # exponents and over angles
    rng, circle_rng = np.random.default_rng(5), np.random.default_rng(6)
    with mock.patch.object(magneto.frustration, "_CHUNK", chunk):
        for t in range(6):
            for g in (random_graph(rng, 7, int(rng.integers(2, 7))),
                      random_circle_graph(circle_rng, 7)):
                res = frustration_heuristic(g, g.full_mask(), restarts=30, seed=t)
                value, assignment = heuristic_frustration(g, g.full_mask(), 30, t)
                assert res.value == value
                assert {u: res.minimizer[u].item() for u in assignment} == assignment


def test_a_balanced_component_makes_the_draws_of_the_descent():
    # the path 0-1-2 is balanced and costs 0 without a descent, but it draws
    # what its descent would, so the frustrated component after it starts from
    # other rows than it does alone, and here ends lower
    k = 4
    edges = [(0, 1, 1), (1, 2, 3), (3, 4, 0), (3, 5, 0), (4, 6, 1), (4, 8, 2), (5, 6, 0),
             (5, 8, 3), (5, 9, 2), (6, 7, 1), (6, 8, 2), (6, 9, 0), (7, 8, 3), (7, 9, 2)]
    g = build_graph(10, [(u, v, 1.0, GroupElement.cyclic(s, k)) for u, v, s in edges])
    masks = [g.full_mask(), g.full_mask() & ~1]
    values = [frustration_heuristic(g, mask, restarts=3, seed=0).value for mask in masks]
    assert values == [heuristic_frustration(g, mask, 3, 0)[0] for mask in masks]
    assert values[0] < frustration_heuristic(g, g.full_mask() & ~7, restarts=3, seed=0).value
    members = np.array([g.indicator(mask) for mask in masks])
    assert magneto.frustration._heuristic_values(g, members, 3, 0).tolist() == values


def test_heuristic_memory_does_not_grow_with_restarts():
    # rows are swept in blocks of about _CHUNK // (width * deg + edges), the
    # width k over S^1_k and deg + 1 over S^1, so many restarts cost time, not
    # memory
    for g in (cycle_graph(8, 3, 1), circle_cycle(8, [0.3, 1.1, 0.0, 2.0, 0.7, 0.0, 0.0, 1.5])):
        peaks = [peak_bytes(lambda r=restarts: frustration_heuristic(g, g.full_mask(), restarts=r,
                                                                     seed=1))
                 for restarts in (3000, 30000)]
        assert peaks[1] < 1.5 * peaks[0]


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


@pytest.mark.parametrize("seed", [1 << 15, 9])
def test_exact_ties_go_to_the_lexicographically_first_minimizer(seed):
    # unit weights with k in {2, 3}: every frustrated edge costs the same, so
    # minimizers are exact ties, counted in integers by the oracle; each graph
    # goes in its own vertex order and in a random one drawn from the seed
    x = {2: 2.0, 3: 2.0 * math.sin(math.pi / 3)}
    rng = np.random.default_rng(seed)
    for base in _unit_cases():
        for g in (base, relabelled(base, rng.permutation(base.n).tolist())):
            mask = g.full_mask()
            comps = np.array([g.indicator(comp) for comp in components_of(g, mask)])
            res = magneto.frustration._solve_exact(g, comps)
            count, assignment = lex_first_min_count(g, mask)
            assert {u: int(res.minimizer[u]) for u in assignment} == assignment
            assert res.value == pytest.approx(count * x[g.group_order], rel=1e-12)


def test_a_sparse_component_keeps_small_arrays():
    # a 14-cycle at k = 3 has 3^13 gauge-fixed assignments, but no step's
    # array holds more than 3^2 entries
    g = cycle_graph(14, 3, 1)
    frustration_exact(cycle_graph(5, 3, 1), 31)  # lazy imports and first-call caches
    assert peak_bytes(lambda: frustration_exact(g, g.full_mask())) < 64 * 1024
    assert frustration_exact(g, g.full_mask()).value == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_a_dense_component_peaks_at_about_one_array():
    # K_10 at k = 4: the first step's array has 4^9 entries. The tables are
    # added to it in place, so the peak stays near one such array, not two:
    # its min adds a k-th, and a minimizer's kept steps add up to a (k-1)-th
    n, k = 10, 4
    rng = np.random.default_rng(9)
    g = build_graph(n, [(u, v, float(rng.uniform(0.5, 2.0)), GroupElement.cyclic(int(rng.integers(k)), k))
                        for u in range(n) for v in range(u + 1, n)])
    array = k ** (n - 1) * 8
    members = np.ones((1, n), dtype=bool)
    value = magneto.frustration._frustration_values(g, members, 10**7)[0]
    assert peak_bytes(lambda: frustration_exact(g, g.full_mask())) < 1.5 * array
    assert peak_bytes(lambda: magneto.frustration._frustration_values(g, members, 10**7)) \
        < 1.5 * array
    assert frustration_exact(g, g.full_mask()).value == value
