"""Depth-first oracle for ``MagneticGraph.components``.

``dfs_components`` is ``components_of`` as it was before the batched finder:
a depth-first search along the adjacency lists from each vertex of the set,
in increasing order, that no earlier component holds.
"""


def dfs_components(g, mask):
    """Components (sorted vertex tuples) of the subgraph induced on ``mask``,
    in order of their least vertex."""
    verts = g.mask_vertices(mask)
    seen = set()
    comps = []
    adj = g.adjacency()
    for root in verts:
        if root in seen:
            continue
        comp = []
        stack = [root]
        seen.add(root)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v, _, _ in adj[u]:
                if (mask >> v) & 1 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)
