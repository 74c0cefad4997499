import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balance_oracle import dfs_balance
from components_oracle import dfs_components
from conftest import circle_cycle, cycle_graph, k2_graph, random_graph
from magneto import (
    GroupElement,
    MagnetoError,
    build_graph,
    cartesian_product,
    cartesian_product_many,
    graph_from_json,
    l1_switch_cost,
)
from magneto.groups import ANGLE_TOL, TWO_PI

ONE2 = GroupElement.identity("cyclic", 2)
MINUS = GroupElement.cyclic(1, 2)


def test_build_validation_errors():
    cases = [
        (2, [(0, 0, 1.0, ONE2)], None, "SELF_LOOP"),
        (2, [(0, 1, 0.0, ONE2)], None, "NONPOSITIVE_WEIGHT"),
        (2, [(0, 1, 1.0, ONE2), (1, 0, 1.0, ONE2)], None, "DUPLICATE_EDGE"),
        (2, [(0, 2, 1.0, ONE2)], None, "BAD_ENDPOINT"),
        (2, [(0, 1, 1.0, ONE2)], [1.0], "BAD_MEASURE"),
        (2, [(0, 1, 1.0, ONE2)], [1.0, 0.0], "NONPOSITIVE_MEASURE"),
        (2, [(0, 1, math.nan, ONE2)], None, "NONFINITE_WEIGHT"),
        (2, [(0, 1, math.inf, ONE2)], None, "NONFINITE_WEIGHT"),
        (2, [(0, 1, -math.inf, ONE2)], None, "NONFINITE_WEIGHT"),
        (2, [(0, 1, 1.0, ONE2)], [1.0, math.nan], "NONFINITE_MEASURE"),
        (2, [(0, 1, 1.0, ONE2)], [math.inf, 1.0], "NONFINITE_MEASURE"),
        (2, [(0, 1, 1.0, ONE2), (0, 1, 1.0, GroupElement.cyclic(0, 3))], None, "MIXED_GROUPS"),
    ]
    for n, edges, mu, code in cases:
        with pytest.raises(MagnetoError) as err:
            build_graph(n, edges, mu)
        assert err.value.code == code


def test_mixed_groups_rejected():
    with pytest.raises(MagnetoError) as err:
        build_graph(3, [(0, 1, 1.0, ONE2), (1, 2, 1.0, GroupElement.circle(0.0))])
    assert err.value.code == "MIXED_GROUPS"


def test_reversed_orientation_gives_inverse_signature():
    g = build_graph(3, [(2, 0, 1.0, GroupElement.cyclic(1, 4)), (0, 1, 1.0, GroupElement.cyclic(0, 4))])
    s = g.signature(2, 0)
    assert s.isclose(GroupElement.cyclic(1, 4))
    assert g.signature(0, 2).isclose(GroupElement.cyclic(3, 4))


def test_boundary_is_symmetric_under_complement():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 6, 3)
    full = g.full_mask()
    for mask in range(1, full):
        assert g.boundary_measure(mask) == pytest.approx(
            g.boundary_measure(full ^ mask), abs=1e-12
        )


def test_volume_and_degrees():
    g = cycle_graph(4, 2, 1, weight=2.0, mu=[1.0, 2.0, 3.0, 4.0])
    assert g.volume([0, 2]) == 4.0
    assert g.volume(g.full_mask()) == 10.0
    assert np.allclose(g.degrees(), 4.0)
    assert g.max_mu_degree() == 4.0  # vertex 0: degree 4, mu 1


def test_graph_arrays_are_read_only():
    mu = np.array([1.0, 2.0, 3.0])
    g = build_graph(3, [(0, 1, 1.0, ONE2), (1, 2, 2.0, MINUS)], mu)
    for arr in (g.eu, g.ev, g.ew, g.sig, g.mu, g.degrees()):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    mu[0] = 5.0  # the caller's array is copied, not frozen
    assert g.mu[0] == 1.0


def test_subset_measures_beyond_64_vertices():
    g = build_graph(80, [(i, i + 1, 1.0, ONE2) for i in range(79)], np.arange(1.0, 81.0))
    mask = (1 << 70) | (1 << 71) | (1 << 3)
    assert list(g.indicator(mask).nonzero()[0]) == [3, 70, 71]
    assert g.volume(mask) == 4.0 + 71.0 + 72.0
    assert g.boundary_measure(mask) == 4.0
    assert list(g.induced_edge_indices(mask)) == [70]


def test_switch_composes_like_the_group_action():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 6, 4)
    t1, t2 = rng.integers(0, 4, 6), rng.integers(0, 4, 6)
    combined = t1 + t2  # the exponents of t2(u) t1(u)
    a = g.switch(t1).switch(t2)
    b = g.switch(combined)
    assert np.array_equal(a.sig, b.sig)


def test_switch_requires_full_domain_and_matching_group():
    g = cycle_graph(3, 2, 1)
    with pytest.raises(MagnetoError) as err:
        g.switch([0, 1])
    assert err.value.code == "INCOMPLETE_ASSIGNMENT"
    with pytest.raises(MagnetoError) as err:
        g.switch([0.0, 0.5, 1.0])  # angles on a cyclic graph
    assert err.value.code == "WRONG_GROUP"
    assert build_graph(0, []).switch([]).n == 0  # numpy reads [] as floats


def test_switch_on_a_circle_graph():
    # s^tau(u, v) = tau(u) s(u, v) tau(v)^{-1}; cycle signatures stay
    g = circle_cycle(4, [0.3, 1.1, 2.0, 0.0])
    angles = [0.5, 2.0, 4.0, 6.0]
    switched = g.switch(angles)
    assert switched.group_kind == "circle"
    for idx in range(g.m):
        u, v = int(g.eu[idx]), int(g.ev[idx])
        want = GroupElement.circle(angles[u] + g.sig[idx] - angles[v])
        assert switched.signature_element(idx).isclose(want)
    assert switched.cycle_signature([0, 1, 2, 3]).isclose(g.cycle_signature([0, 1, 2, 3]))
    assert np.array_equal(g.switch(np.zeros(4)).sig, g.sig)


def test_cycle_signature_invariant_under_switching():
    rng = np.random.default_rng(11)
    g = cycle_graph(5, 6, 4)
    cyc = list(range(5))
    before = g.cycle_signature(cyc)
    tau = rng.integers(0, 6, 5)
    after = g.switch(tau).cycle_signature(cyc)
    assert before.isclose(after)
    assert before.exponent == 4


def test_cycle_signature_rejects_non_cycles():
    g = cycle_graph(4, 2, 1)
    with pytest.raises(MagnetoError):
        g.cycle_signature([0, 1])
    with pytest.raises(MagnetoError):
        g.cycle_signature([0, 1, 3])  # (1,3) is not an edge


def test_trees_are_balanced():
    g = build_graph(4, [(0, 1, 1.0, MINUS), (1, 2, 1.0, MINUS), (1, 3, 1.0, MINUS)])
    balanced, tau = g.is_balanced()
    assert balanced
    switched = g.switch(tau)
    assert np.all(switched.sig == 0)
    assert k2_graph(2, 1).is_balanced()[0]


def test_unbalanced_cycle_reports_a_bad_cycle():
    g = cycle_graph(5, 4, 3)
    balanced, cycle = g.is_balanced()
    assert not balanced
    assert not g.cycle_signature(cycle).is_identity()


def test_balance_matches_frustration_of_whole_graph():
    from magneto import frustration_exact

    rng = np.random.default_rng(19)
    for _ in range(20):
        g = random_graph(rng, 6, 3)
        balanced, _ = g.is_balanced()
        iota = frustration_exact(g, g.full_mask()).value
        assert balanced == (iota < 1e-12)


def test_product_counts_weights_and_measure():
    g1 = cycle_graph(3, 2, 1, mu=[1.0, 2.0, 3.0])
    g2 = k2_graph(2, 0)
    p = cartesian_product(g1, g2)
    assert p.n == 6
    assert p.m == g1.n * g2.m + g2.n * g1.m
    assert np.allclose(np.sort(p.mu), np.sort(np.outer(g1.mu, g2.mu).ravel()))
    # the copy of g2 at g1-vertex u is weighted by mu_1(u)
    w_edge_01 = p.ew[(p.eu == 0) & (p.ev == 1)]
    assert w_edge_01 == pytest.approx(1.0)
    w_edge_45 = p.ew[(p.eu == 4) & (p.ev == 5)]
    assert w_edge_45 == pytest.approx(3.0)


def test_product_many_is_associative_in_size():
    g = cycle_graph(3, 2, 1)
    p = cartesian_product_many([g, g, k2_graph(2, 1)])
    assert p.n == 18
    with pytest.raises(MagnetoError):
        cartesian_product_many([])


def test_json_round_trip_cyclic_and_circle():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 6, 4)
    h = graph_from_json(g.to_json())
    assert h.n == g.n and h.group_order == g.group_order
    assert np.array_equal(h.sig, g.sig)
    assert np.allclose(h.ew, g.ew) and np.allclose(h.mu, g.mu)

    angles = [0.3, 1.2, 2 * math.pi - 0.1]
    from conftest import circle_cycle

    c = circle_cycle(3, angles)
    c2 = graph_from_json(c.to_json())
    assert c2.group_kind == "circle"
    assert np.allclose(c2.sig, c.sig, atol=1e-12)


def test_json_rejects_unknown_group():
    with pytest.raises(MagnetoError) as err:
        graph_from_json(json.dumps({"n": 2, "group": {"kind": "torus"}, "edges": []}))
    assert err.value.code == "BAD_GROUP"


@st.composite
def graphs_and_sets(draw):
    """A graph on 0 to 10 vertices with hypothesis's edges and a list of
    vertex sets, the empty set and repeats allowed."""
    n = draw(st.integers(0, 10))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1]), max_size=2 * n)) if n > 1 else set()
    g = build_graph(n, [(u, v, 1.0, ONE2) for u, v in sorted(pairs)])
    return g, draw(st.lists(st.integers(0, g.full_mask()), min_size=1, max_size=20))


@settings(max_examples=200, deadline=None)
@given(case=graphs_and_sets())
def test_components_match_the_dfs_oracle(case):
    # each set's components come in a run, by least vertex, in increasing set order
    g, masks = case
    members = (np.array(masks, dtype=np.int64)[:, None] >> np.arange(g.n)) & 1 == 1
    owner, comps = g.components(members)
    assert np.all(np.diff(owner) >= 0) and len(owner) == len(comps)
    found = [[] for _ in masks]
    for r, comp in zip(owner.tolist(), comps):
        found[r].append(tuple(np.flatnonzero(comp).tolist()))
    assert [tuple(c) for c in found] == [dfs_components(g, m) for m in masks]
    assert [g.components_of(m) for m in masks] == [dfs_components(g, m) for m in masks]


@settings(max_examples=200, deadline=None)
@given(case=graphs_and_sets())
def test_adding_a_vertex_never_lowers_size_minus_components(case):
    # a vertex that joins d components of S adds d to |S| - c(S): the budget
    # check that passes on a set passes on each of its subsets
    g, masks = case
    members = (np.array(masks, dtype=np.int64)[:, None] >> np.arange(g.n)) & 1 == 1
    grown = members[:, None, :] | np.eye(g.n, dtype=bool)  # grown[r, v] = S_r + v
    rows = np.concatenate([members, grown.reshape(len(masks) * g.n, g.n)])
    owner = g.components(rows)[0]
    rank = rows.sum(axis=1) - np.bincount(owner, minlength=len(rows))
    assert np.all(rank[len(masks):].reshape(len(masks), g.n) >= rank[:len(masks), None])


@st.composite
def balance_cases(draw):
    """A graph on 0 to 8 vertices, often disconnected with isolated vertices,
    over S^1_k or S^1. Its signatures are drawn, or are potential differences
    p(u) - p(v) (balanced), one edge perhaps changed. An angle is a multiple
    of 2pi / 2^16, so a cycle's signature is 1 up to rounding or lies far
    beyond ANGLE_TOL from it, and no verdict sits at the tolerance."""
    n = draw(st.integers(0, 8))
    pairs = sorted(draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                .filter(lambda p: p[0] < p[1]), max_size=2 * n))) if n > 1 else []
    k = draw(st.sampled_from([None, 1, 2, 3, 5]))  # None: the circle group
    steps = k or 1 << 16
    value = st.integers(0, steps - 1)
    if draw(st.booleans()):
        pot = draw(st.lists(value, min_size=n, max_size=n))
        exps = [pot[u] - pot[v] for u, v in pairs]
        if pairs and draw(st.booleans()):
            exps[draw(st.integers(0, len(pairs) - 1))] += draw(value)
    else:
        exps = draw(st.lists(value, min_size=len(pairs), max_size=len(pairs)))
    sig = [GroupElement.cyclic(e, k) if k else GroupElement.circle(e * TWO_PI / steps)
           for e in exps]
    return build_graph(n, [(u, v, 1.0, s) for (u, v), s in zip(pairs, sig)])


@settings(max_examples=300, deadline=None)
@given(g=balance_cases())
@example(g=build_graph(0, []))
@example(g=build_graph(3, []))
@example(g=build_graph(2, [(0, 1, 1.0, GroupElement.circle(1e-17))]))  # -1e-17 mod 2pi rounds to 2pi
def test_balance_matches_the_dfs_oracle(g):
    balanced, found = g.is_balanced()
    want, oracle = dfs_balance(g)
    assert balanced == want
    if not balanced:
        # a closed walk of distinct edges (cycle_signature checks it) that is frustrated
        assert not g.cycle_signature(found).is_identity()
        return
    roots = [comp[0] for comp in g.components_of(g.full_mask())]
    assert found.shape == (g.n,) and found[roots].tolist() == [0] * len(roots)
    if g.group_kind == "cyclic":
        assert found.dtype == np.int64
        assert found.tolist() == [t.exponent for t in oracle]
        assert l1_switch_cost(g, g.full_mask(), found) == 0.0
    else:
        assert found.dtype == np.float64 and np.all((0 <= found) & (found < TWO_PI))
        d = (found[g.eu] - found[g.ev] - g.sig) % TWO_PI
        assert np.all(np.minimum(d, TWO_PI - d) <= ANGLE_TOL)
