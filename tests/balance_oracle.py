"""Per-edge depth-first balance test over ``GroupElement`` products: the
oracle that ``MagneticGraph.is_balanced``, a breadth-first array spread over a
spanning forest, is checked against.

``dfs_balance`` walks each component from its least vertex, gives every
vertex it reaches along an edge (u, v) the product tau(u) s_uv, and then
tests every edge off the tree one at a time. The switching it returns is the
inverse of those products, which makes every edge cost 0 in
``l1_switch_cost``, each root at 1; for a cyclic group the spanning tree
fixes it, so it is the one ``is_balanced`` returns.
"""

from magneto import GroupElement
from magneto.groups import ANGLE_TOL


def dfs_balance(g):
    """``(True, tau)`` with tau a list of one ``GroupElement`` per vertex, or
    ``(False, cycle)`` with the fundamental cycle, as a vertex list, of the
    first edge off the tree, in storage order, whose switched signature is not
    1 within ``ANGLE_TOL``."""
    adj = g.adjacency()
    tau, parent = {}, {}
    for root in range(g.n):
        if root in tau:
            continue
        tau[root] = GroupElement.identity(g.group_kind, g.group_order or 1)
        parent[root] = None
        stack = [root]
        while stack:
            u = stack.pop()
            for v, idx, stored in adj[u]:
                if v in tau:
                    continue
                # trivialize tree edge: tau(v) = tau(u) * s_uv
                tau[v] = tau[u] * g.signature_element(idx, reverse=not stored)
                parent[v] = u
                stack.append(v)
    for idx in range(g.m):
        u, v = int(g.eu[idx]), int(g.ev[idx])
        if parent.get(v) == u or parent.get(u) == v:
            continue
        if not (tau[u] * g.signature_element(idx) * tau[v].inverse()).is_identity(ANGLE_TOL):
            return False, _fundamental_cycle(u, v, parent)
    return True, [tau[u].inverse() for u in range(g.n)]


def _fundamental_cycle(u, v, parent):
    anc_u = []
    a = u
    while a is not None:
        anc_u.append(a)
        a = parent.get(a)
    pos = {x: i for i, x in enumerate(anc_u)}
    path_v = []
    b = v
    while b not in pos:
        path_v.append(b)
        b = parent.get(b)
    # u -> ... -> common ancestor -> ... -> v, closed by the edge (v, u)
    return anc_u[: pos[b] + 1] + list(reversed(path_v))
