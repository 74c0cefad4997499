"""All-roots oracle for ``frustration.frustrated_cycle_packing``.

``all_roots_packing`` is the greedy packing as it ran before the BFS kept a
lower bound per root: for every cycle it packs, it runs
``_frustrated_walk_from`` from every root in turn, under the length of the
shortest walk found so far, takes the shortest walk (ties to the lowest root,
then to BFS order), and removes its edges.
"""

from magneto.frustration import PackedCycle, _dist_table, _frustrated_walk_from


def all_roots_walk(arcs, k):
    best, limit = None, len(arcs) + 1  # a simple cycle has at most n edges
    for root in range(len(arcs)):
        walk = _frustrated_walk_from(arcs, k, root, limit)
        if walk is not None:
            best, limit = walk, len(walk[1])
    return best


def all_roots_packing(g):
    """The packing of a graph over S^1_k with k >= 2, as a tuple of PackedCycle."""
    k = g.group_order
    dist = _dist_table(k)
    sig = g.sig.tolist()
    arcs = [[(v, idx, sig[idx] if stored else -sig[idx] % k) for v, idx, stored in nbrs]
            for nbrs in g.adjacency()]
    packing = []
    while True:
        walk = all_roots_walk(arcs, k)
        if walk is None:
            return tuple(packing)
        verts, edges, sigma = walk
        mask = sum(1 << u for u in verts)
        packing.append(PackedCycle(tuple(verts), mask, float(g.ew[edges].min() * dist[sigma])))
        cut = set(edges)
        arcs = [[arc for arc in out if arc[1] not in cut] for out in arcs]
