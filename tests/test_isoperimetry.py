import dataclasses
import json
import math
import pathlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magneto.isoperimetry
from conftest import (
    circle_cycle,
    circle_union,
    cycle_graph,
    k2_graph,
    k3k4_union,
    k4_union,
    peak_bytes,
    random_graph,
)
from frustration_oracle import enumerate_frustration
from packing_oracle import all_roots_packing
from subset_tables_oracle import bit_array_tables
from magneto import (
    GroupElement,
    MagnetoError,
    build_graph,
    cartesian_product_many,
    cheeger_constant,
    frustration_exact,
    frustration_heuristic,
    graph_from_json,
    isoperimetric_constant,
    spectral_data,
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


@st.composite
def search_graphs(draw, n_max):
    """(graph, balance) on 2..n_max vertices with k in 2..5: edges of any
    density, mostly over a random spanning tree. Weights and measures are all
    1 (many exact ties), uniform on [0.5, 2], or log-uniform on [1e-3, 1e3].
    ``balance`` is "none" for random signatures, "trivial" for the trivial
    signature, and "gauged" for the trivial signature switched by a random
    gauge, which need not be trivial."""
    k = draw(st.integers(2, 5))
    n = draw(st.sampled_from(range(2, n_max + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    pairs = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    if draw(st.sampled_from([True, True, True, False])):  # connected
        pairs |= {(int(rng.integers(0, v)), v) for v in range(1, n)}
    pairs = sorted(pairs)
    balance = draw(st.sampled_from(["none", "none", "none", "trivial", "gauged"]))
    tau = rng.integers(0, k, size=n) if balance == "gauged" else np.zeros(n, dtype=int)
    sig = [int(rng.integers(0, k)) if balance == "none" else int(tau[u] - tau[v])
           for u, v in pairs]
    spread = draw(st.sampled_from(["unit", "near", "wide"]))

    def draw_scales(size):
        if spread == "unit":
            return np.ones(size)
        if spread == "near":
            return rng.uniform(0.5, 2.0, size)
        return 10.0 ** rng.uniform(-3.0, 3.0, size)

    weights = draw_scales(len(pairs))
    edges = [(u, v, float(w), GroupElement.cyclic(j, k))
             for (u, v), w, j in zip(pairs, weights, sig)]
    return build_graph(n, edges, draw_scales(n)), balance


# c_3 is attained at a singleton with frustration 0, where the spectral bound
# equals the quotient in exact arithmetic; numpy's array power put the bound
# 2 ulps above the quotient's scalar power
SINGLETON_TIE = graph_from_json(
    '{"n": 7, "group": {"kind": "cyclic", "k": 4}, "edges": ['
    '[0, 4, 17.578159628917707, 2], [0, 5, 0.0010167123559906, 0], '
    '[0, 6, 1.0475717863872476, 3], [1, 2, 0.41687160372402976, 1], '
    '[1, 3, 0.016577422898493142, 0], [1, 4, 0.08905449955472924, 2], '
    '[2, 3, 68.75305272369604, 3], [2, 4, 0.07919769181348528, 3], '
    '[3, 5, 0.007838473622123537, 3], [3, 6, 15.52644187844697, 1], '
    '[4, 6, 0.4912070649483007, 0]], "measure": [62.178028238985014, '
    '0.02588801453900706, 0.08292928593813456, 62.990804683221576, '
    '1.1025767582615116, 1.0922197076340874, 0.026131525907200956]}')


@settings(max_examples=50, deadline=None)
@given(case=search_graphs(7))
@example(case=(random_graph(np.random.default_rng(29), 6, 3, force_trivial_signature=True),
               "trivial"))
@example(case=(SINGLETON_TIE, "none"))
@example(case=(k4_union(), "none"))
def test_pruned_and_profiled_runs_agree(case):
    # a profiled search prunes nothing; on a balanced graph the exact
    # threshold is 0, and so is the heuristic one on the trivial signature,
    # where its all-zero start costs 0, while coordinate descent need not
    # find a random gauge
    g, balance = case
    for delta in (math.inf, 3.0):
        exact_h = None
        for heuristic in (False, True):
            kw = {"heuristic": heuristic, "restarts": 2, "seed": 1}
            fast = isoperimetric_constant(g, delta, **kw)
            slow = isoperimetric_constant(g, delta, profile=True, **kw)
            assert fast.constant == slow.constant
            assert fast.argmin.subset == slow.argmin.subset
            assert fast.lower_bound == slow.lower_bound
            assert slow.stats == magneto.isoperimetry.SearchStats(
                2**g.n - 1, 0, 0, 0, 2**g.n - 1)
            stats = fast.stats
            assert stats.pruned_boundary + stats.pruned_cycles + stats.pruned_spectral \
                + stats.evaluated == stats.subsets
            if heuristic:
                assert 0.0 <= fast.lower_bound <= exact_h
                assert fast.constant == 0.0 or balance != "trivial"
            else:
                assert fast.lower_bound == fast.constant
                assert fast.constant == 0.0 or balance == "none"
                exact_h = fast.constant


def nonempty_tables(g):
    """(masks, bnd, vol, pop) of the search's tables over the nonempty masks."""
    bnd, vol, pop = magneto.isoperimetry._subset_tables(g)
    return np.arange(1, 1 << g.n), bnd[1:], vol[1:], pop[1:]


def check_tables_against_the_oracle(g):
    # every float bit for bit; and any set of survivors, in mask order, in
    # the loop's order, which was the full sort's order restricted to them
    masks, bnd, vol, pop = bit_array_tables(g)
    tab_bnd, tab_vol, tab_pop = magneto.isoperimetry._subset_tables(g)
    assert (tab_bnd[0], tab_vol[0], tab_pop[0]) == (0.0, 0.0, 0)
    assert tab_bnd[1:].tobytes() == bnd.tobytes()
    assert tab_vol[1:].tobytes() == vol.tobytes()
    assert tab_pop.dtype == np.uint8 and np.array_equal(tab_pop[1:], pop)
    order = np.lexsort((masks, pop))
    ratio = bnd / vol
    for keep in (ratio >= 0.0, ratio <= np.median(ratio), pop % 3 == 1):
        assert np.array_equal(magneto.isoperimetry._in_popcount_order(masks[keep], tab_pop),
                              masks[order][keep[order]])


@settings(max_examples=50, deadline=None)
@given(case=search_graphs(10))
def test_subset_tables_match_the_bit_array_oracle(case):
    check_tables_against_the_oracle(case[0])


@pytest.mark.parametrize("graph", ["torus", "random18"])
def test_subset_tables_match_the_bit_array_oracle_at_scale(graph):
    g = torus()[0] if graph == "torus" else random_graph(np.random.default_rng(18), 18, 3)
    check_tables_against_the_oracle(g)


def c3c3k2():
    return cartesian_product_many([cycle_graph(3, 2, 1), cycle_graph(3, 2, 1), k2_graph(2, 1)])


def test_an_exact_search_at_n18_keeps_small_tables():
    # 2^18 subsets: the boundary and volume tables take 2 MiB each; one
    # boolean array per vertex and a full sort took the peak to 16 MiB
    cheeger_constant(cycle_graph(5, 2, 1))  # lazy imports and first-call caches
    g = c3c3k2()
    assert peak_bytes(lambda: cheeger_constant(g, subset_limit=18)) < 12 * 2**20
    assert cheeger_constant(g, subset_limit=18).constant == 1.3333333333333333


def induced_lambda_1(g, mask):
    """Least eigenvalue of the Laplacian of the subgraph induced on ``mask``,
    built as a graph of its own."""
    verts = g.mask_vertices(mask)
    pos = {u: i for i, u in enumerate(verts)}
    edges = [(pos[int(g.eu[e])], pos[int(g.ev[e])], float(g.ew[e]), g.signature_element(int(e)))
             for e in g.induced_edge_indices(mask)]
    sub = build_graph(len(verts), edges, g.mu[verts])
    return float(spectral_data(sub).eigenvalues[0])


@settings(max_examples=40, deadline=None)
@given(case=search_graphs(8))
def test_spectral_bound_lies_below_frustration(case):
    # iota(S) >= lambda_1(L_S) vol(S) / 2 on every subset S; the search's
    # bound, with boundary 0 and exponent 1, is (lambda_1 - tol) / 2 or 0
    g, _ = case
    masks, _, vol, pop = nonempty_tables(g)
    half = magneto.isoperimetry._spectral_bounds(g, masks, pop, np.zeros(len(masks)), vol, 1.0)
    d_mu = g.max_mu_degree()
    for mask, h, v in zip(masks.tolist(), half, vol):
        iota = enumerate_frustration(g, mask)[0]
        lam = induced_lambda_1(g, mask)
        assert 0.5 * lam * v <= iota + 1e-12 * d_mu * v
        assert h * v <= iota + 1e-12 * d_mu * v
        assert 0.5 * lam - 1e-12 * d_mu <= h <= max(0.5 * lam, 0.0)


def no_spectral_bound(g, masks, pop, bnd, vol, exponent):
    return np.full(len(masks), -np.inf)


def no_cycles():
    """The search without the cycle filter: an empty packing, so that a test
    sees the spectral filter alone."""
    return mock.patch.object(magneto.isoperimetry, "frustrated_cycle_packing", lambda g: ())


def torus():
    """The benchmark's c4 x c4 torus (k = 4) and its heuristic search options."""
    c4 = cycle_graph(4, 4, 1)
    return cartesian_product_many([c4, c4]), {"heuristic": True, "subset_limit": 16,
                                               "restarts": 4}


def test_spectral_filter_keeps_the_torus_search():
    # the heuristic torus search without the cycle filter, with and without
    # the spectral one; at delta = 3 the filter prunes none of its subsets
    g, kw = torus()
    with no_cycles():
        fast = cheeger_constant(g, **kw)
        with mock.patch.object(magneto.isoperimetry, "_spectral_bounds", no_spectral_bound):
            slow = cheeger_constant(torus()[0], **kw)
    assert (fast.stats.pruned_spectral, slow.stats.pruned_spectral) == (120, 0)
    assert fast.constant == slow.constant
    assert fast.argmin == slow.argmin


@pytest.fixture(scope="module")
def c3c3k2_searches():
    """Every search on criterion 08's product c3 x c3 x K2 (n = 18), on one
    graph object so that the four share its frustration memo."""
    g = c3c3k2()
    return {(heuristic, delta): isoperimetric_constant(
                g, delta, heuristic=heuristic, subset_limit=18, restarts=4)
            for heuristic in (False, True) for delta in (math.inf, 3.0)}


@pytest.mark.parametrize("heuristic", [False, True])
@pytest.mark.parametrize("delta", [math.inf, 3.0])
def test_spectral_filter_keeps_the_c3c3k2_search(c3c3k2_searches, heuristic, delta):
    # the boundary-pruned search, without the spectral filter, gave these
    # constants, all attained at V with frustration 24 and volume 18
    res = c3c3k2_searches[(heuristic, delta)]
    assert res.constant == {math.inf: 1.3333333333333333, 3.0: 3.4943218589451956}[delta]
    assert res.argmin.subset == tuple(range(18))
    assert res.argmin.frustration == 24.0


def test_spectral_filter_prunes_most_c3c3k2_subsets(c3c3k2_searches):
    # 7,578 subsets pass the boundary test; solving each was the old cost.
    # Without the cycle filter, the spectral one drops most of them
    g = c3c3k2()
    with no_cycles():
        res = cheeger_constant(g, subset_limit=18)
    assert res.constant == c3c3k2_searches[(False, math.inf)].constant
    stats = res.stats
    assert stats.subsets == 2**18 - 1
    assert stats.pruned_cycles == 0
    assert stats.subsets - stats.pruned_boundary <= 7578
    assert stats.pruned_spectral >= 7000
    assert stats.pruned_boundary + stats.pruned_cycles + stats.pruned_spectral \
        + stats.evaluated == stats.subsets


@pytest.mark.parametrize("heuristic", [False, True])
@pytest.mark.parametrize("delta", [math.inf, 3.0])
def test_cycle_filter_solves_only_v_on_c3c3k2(c3c3k2_searches, heuristic, delta):
    # the 12 triangles pack edge-disjointly, 2 each, and sum to iota(V) = 24,
    # so the cycle bound reaches the constant at V and exceeds it elsewhere
    res = c3c3k2_searches[(heuristic, delta)]
    assert res.stats.evaluated == 1
    assert res.stats.pruned_spectral == 0
    assert res.lower_bound == res.constant


def verify_all_inputs(monkeypatch):
    """The two graphs of perfbench's verify_all workload (n = 10, k = 3)."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    import workloads

    return [graph_from_json(json.dumps(d)) for d in workloads.base_graphs("verify_all").values()]


def _counted_solves(monkeypatch):
    """A Counter of the masks that ``_solve_exact`` is called on from now on."""
    solves = Counter()
    solve = magneto.frustration._solve_exact

    def counted(graph, comps):
        solves[graph.as_mask(np.flatnonzero(comps.any(axis=0)))] += 1
        return solve(graph, comps)

    monkeypatch.setattr(magneto.frustration, "_solve_exact", counted)
    return solves


def test_an_exact_search_solves_only_v_on_its_own(monkeypatch):
    # the survivors get their values from one batch; only V, for the
    # threshold, is solved on its own, once
    graphs = verify_all_inputs(monkeypatch) + [cycle_graph(8, 3, 1), k4_union(triangle=True)]
    solves = _counted_solves(monkeypatch)
    for g in graphs:
        for delta in (math.inf, 3.0, 1.5):
            solves.clear()
            isoperimetric_constant(graph_from_json(g.to_json()), delta)
            assert solves == {g.full_mask(): 1}


def test_a_profiled_exact_search_solves_only_v_and_keeps_no_subset(monkeypatch):
    # every subset is valued in the batch, which keeps nothing in the memo
    g = k4_union(triangle=True)
    solves = _counted_solves(monkeypatch)
    res = cheeger_constant(g, profile=True)
    assert len(res.profile) == 2**g.n - 1
    assert solves == {g.full_mask(): 1}
    kept = [key for key in g._memo if key[0] in ("frustration_exact", "frustration_heuristic")]
    assert kept == [("frustration_exact", g.full_mask())]


def heuristic_search_cases():
    """A random graph at k = 4, a disjoint union at k = 3, and a disjoint
    union of a triangle and a 4-cycle with S^1 signatures, relabelled."""
    rng = np.random.default_rng(23)
    circle = circle_union(rng)
    return [random_graph(rng, 8, 4), k3k4_union(), circle]


@pytest.mark.parametrize("restarts, seed", [(8, 0), (2, 3)])
def test_a_profiled_heuristic_search_values_each_subset_as_its_own_solve(restarts, seed):
    # each subset's batch value seeds its own rng, as a solve of it alone does
    for g in heuristic_search_cases():
        res = cheeger_constant(g, heuristic=True, restarts=restarts, seed=seed, profile=True)
        assert len(res.profile) == 2**g.n - 1
        fresh = graph_from_json(g.to_json())
        for cut in res.profile:
            assert cut.frustration == frustration_heuristic(fresh, cut.subset, restarts, seed).value


def test_a_profiled_heuristic_search_keeps_no_subset():
    # V is solved on its own for the threshold; the batch keeps nothing
    for g in heuristic_search_cases():
        res = cheeger_constant(g, heuristic=True, restarts=2, seed=1, profile=True)
        assert len(res.profile) == 2**g.n - 1
        kept = [key for key in g._memo if key[0] in ("frustration_exact", "frustration_heuristic")]
        assert kept == [("frustration_heuristic", g.full_mask(), 2, 1)]


def test_a_disconnected_near_tie_keeps_the_first_minimizer():
    # the union of the K4 copies ties either copy in exact arithmetic; the
    # batch sums its copies' values in order, as its own solve does, so the
    # copy that comes first stays the first minimizer
    g = k4_union(triangle=True)
    res = cheeger_constant(g)
    assert res.argmin == cheeger_constant(g, profile=True).argmin
    assert res.argmin.subset == (3, 4, 5, 7)
    copies = [frustration_exact(g, c).value for c in ((3, 4, 5, 7), (0, 1, 2, 6))]
    assert frustration_exact(g, range(8)).value == copies[0] + copies[1]


def test_cycle_filter_solves_only_v_on_the_torus():
    # the 4 rows and 4 columns of the torus each carry |1 - i| = sqrt 2
    g, kw = torus()
    packing = magneto.isoperimetry.frustrated_cycle_packing(g)
    assert sorted(len(c.vertices) for c in packing) == [4] * 8
    fast = cheeger_constant(g, **kw)
    with no_cycles():
        slow = cheeger_constant(torus()[0], **kw)
    assert fast.stats.evaluated == 1
    assert fast.constant == slow.constant
    assert fast.argmin == slow.argmin
    assert fast.argmin.subset == tuple(range(16))
    assert fast.lower_bound == fast.constant
    assert slow.lower_bound < fast.lower_bound


def packed_bound(packing, mask):
    return sum(c.value for c in packing if mask & c.mask == c.mask)


@settings(max_examples=40, deadline=None)
@given(case=search_graphs(7))
def test_cycle_bound_lies_below_frustration(case):
    # on every subset S, the packed cycles inside S sum to at most iota(S);
    # a graph has a frustrated cycle to pack exactly when it is unbalanced
    g, _ = case
    packing = magneto.isoperimetry.frustrated_cycle_packing(g)
    assert (not packing) == g.is_balanced()[0]
    masks, _, vol, _ = nonempty_tables(g)
    bound = magneto.isoperimetry._cycle_bounds(g, masks, np.zeros(len(masks)), vol, 1.0) * vol
    for mask, b in zip(masks.tolist(), bound):
        iota = enumerate_frustration(g, mask)[0]
        assert b == pytest.approx(packed_bound(packing, mask), rel=1e-15, abs=0.0)
        assert b <= iota * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(case=search_graphs(8))
def test_packed_cycles_are_simple_disjoint_and_frustrated(case):
    g, _ = case
    edge_of = {frozenset((int(u), int(v))): e for e, (u, v) in enumerate(zip(g.eu, g.ev))}
    used = set()
    lengths = []
    for cycle in magneto.isoperimetry.frustrated_cycle_packing(g):
        verts = cycle.vertices
        assert len(verts) >= 3 and len(set(verts)) == len(verts)
        assert cycle.mask == g.as_mask(verts)
        sigma = g.cycle_signature(verts)  # raises unless consecutive vertices are adjacent
        assert not sigma.is_identity()
        edges = {edge_of[frozenset((u, verts[(i + 1) % len(verts)]))]
                 for i, u in enumerate(verts)}
        assert len(edges) == len(verts) and not edges & used
        used |= edges
        assert cycle.value == pytest.approx(min(g.ew[list(edges)]) * sigma.dist_to_one(),
                                            rel=1e-12)
        lengths.append(len(verts))
    # removing edges never shortens the shortest frustrated cycle
    assert lengths == sorted(lengths)


DENSE_UNIT = build_graph(8, [(u, v, 1.0, GroupElement.cyclic((u * v) % 3, 3))
                             for u in range(8) for v in range(u + 1, 8)])


@settings(max_examples=60, deadline=None)
@given(case=search_graphs(9))
@example(case=(DENSE_UNIT, "none"))
def test_packing_equals_the_all_roots_oracle(case):
    # a root skipped for its bound would have found no shorter walk, so the
    # packing, ties included, is the one that searched from every root
    g, _ = case
    assert magneto.isoperimetry.frustrated_cycle_packing(g) == all_roots_packing(g)


def test_packing_skips_settled_roots_on_the_torus():
    # 8 packed 4-cycles and a last round that finds none: 9 rounds of 16
    # roots from scratch, 39 searches with the roots' bounds kept
    calls = []
    walk_from = magneto.frustration._frustrated_walk_from

    def counted(*args):
        calls.append(args[2])
        return walk_from(*args)

    with mock.patch.object(magneto.frustration, "_frustrated_walk_from", counted):
        packing = magneto.isoperimetry.frustrated_cycle_packing(torus()[0])
        assert len(calls) == 39
        calls.clear()
        with mock.patch("packing_oracle._frustrated_walk_from", counted):
            assert all_roots_packing(torus()[0]) == packing
        assert len(calls) == 144


def test_circle_and_trivial_groups_pack_nothing():
    circle = circle_cycle(4, [0.0, 0.0, 0.0, math.pi / 2.0])
    assert magneto.isoperimetry.frustrated_cycle_packing(circle) == ()
    res = cheeger_constant(circle, heuristic=True, restarts=2)
    assert res.stats.pruned_cycles == 0
    assert 0.0 <= res.lower_bound <= res.constant
    trivial = cycle_graph(4, 1, 0)
    assert magneto.isoperimetry.frustrated_cycle_packing(trivial) == ()
    assert cheeger_constant(trivial).constant == 0.0


def test_heuristic_lower_bound_certifies_the_product_lower_side(c3c3k2_searches):
    # lambda_1 / 2 = 1 at V, above the additivity lower side (1/3)(2/3 + 2/3 + 0)
    res = c3c3k2_searches[(True, math.inf)]
    assert not res.exact
    assert 4.0 / 9.0 <= res.lower_bound <= res.constant
    assert c3c3k2_searches[(False, math.inf)].lower_bound == res.constant


def test_switching_invariance_of_cheeger():
    rng = np.random.default_rng(31)
    for _ in range(8):
        g = random_graph(rng, 6, 3)
        base = cheeger_constant(g).constant
        tau = rng.integers(0, 3, g.n)
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
