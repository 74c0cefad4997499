"""Weighted magnetic graphs with vertex measures.

Vertices are dense integers 0..n-1 and vertex subsets are int bitmasks of
any width, which keeps exhaustive subset enumeration cheap. Graphs are
immutable after construction (their arrays are read-only); ``switch`` and
``cartesian_product`` return new graphs.

A switching tau is a numpy array of length n in the convention of the
signature array ``sig``: int64 exponents mod k for S^1_k, float angles for
S^1. ``is_balanced`` gives one, or a frustrated cycle, from one breadth-first
spread over a spanning forest, ``_tree_spread``, which the frustration
heuristic's balanced shortcut also runs.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import MagnetoError
from .groups import ANGLE_TOL, CIRCLE, CYCLIC, TWO_PI, GroupElement


class MagneticGraph:
    """Simple undirected weighted graph with a unit-modulus edge signature.

    Edges are stored once with canonical orientation u < v; querying the
    reversed orientation yields the inverse signature.
    """

    def __init__(self, n, eu, ev, ew, group_kind, group_order, sig, mu):
        self.n = int(n)
        self.eu = np.array(eu, dtype=np.int64)
        self.ev = np.array(ev, dtype=np.int64)
        self.ew = np.array(ew, dtype=np.float64)
        self.group_kind = group_kind
        self.group_order = group_order  # None for the circle group
        # integer exponents for cyclic, angles in [0, 2pi) for circle
        if group_kind == CYCLIC:
            self.sig = np.asarray(sig, dtype=np.int64) % group_order
        else:
            self.sig = np.asarray(sig, dtype=np.float64) % TWO_PI
        self.mu = np.array(mu, dtype=np.float64)
        # all five are copies of the caller's data; frozen, they keep the memo valid
        for arr in (self.eu, self.ev, self.ew, self.sig, self.mu):
            arr.flags.writeable = False
        self._memo = {}

    def memo(self, key, compute):
        """``compute()``, evaluated once per graph and ``key``."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- basic accessors ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.ew)

    def signature_values(self) -> np.ndarray:
        """Complex signature values for the stored orientation."""
        if self.group_kind == CYCLIC:
            return np.exp(2j * np.pi * self.sig / self.group_order)
        return np.exp(1j * self.sig)

    def signature_element(self, idx: int, reverse: bool = False) -> GroupElement:
        if self.group_kind == CYCLIC:
            g = GroupElement.cyclic(int(self.sig[idx]), self.group_order)
        else:
            g = GroupElement.circle(float(self.sig[idx]))
        return g.inverse() if reverse else g

    def signature(self, u: int, v: int) -> GroupElement:
        """Signature of the oriented edge (u, v); s(v,u) = s(u,v)^{-1}."""
        for idx, (a, b) in enumerate(zip(self.eu, self.ev)):
            if (a, b) == (u, v):
                return self.signature_element(idx)
            if (a, b) == (v, u):
                return self.signature_element(idx, reverse=True)
        raise MagnetoError("NO_SUCH_EDGE", f"no edge between {u} and {v}")

    def adjacency(self):
        """Per-vertex list of (neighbor, edge index, oriented-as-stored flag)."""
        return self.memo("adjacency", self._build_adjacency)

    def _build_adjacency(self):
        adj = [[] for _ in range(self.n)]
        for idx in range(self.m):
            u, v = int(self.eu[idx]), int(self.ev[idx])
            adj[u].append((v, idx, True))
            adj[v].append((u, idx, False))
        return tuple(tuple(nbrs) for nbrs in adj)

    def degrees(self) -> np.ndarray:
        return self.memo("degrees", self._build_degrees)

    def _build_degrees(self) -> np.ndarray:
        deg = np.zeros(self.n)
        np.add.at(deg, self.eu, self.ew)
        np.add.at(deg, self.ev, self.ew)
        deg.flags.writeable = False
        return deg

    def max_mu_degree(self) -> float:
        if self.n == 0:
            raise MagnetoError("EMPTY_GRAPH", "d_mu undefined on the empty graph")
        return float(np.max(self.degrees() / self.mu))

    # -- subsets ------------------------------------------------------------

    def as_mask(self, subset) -> int:
        if isinstance(subset, (int, np.integer)):
            mask = int(subset)
        else:
            mask = 0
            for u in subset:
                mask |= 1 << int(u)
        if mask >> self.n:
            raise MagnetoError("BAD_SUBSET", "subset contains out-of-range vertices")
        return mask

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def mask_vertices(self, mask: int) -> list:
        return [u for u in range(self.n) if (mask >> u) & 1]

    def indicator(self, subset) -> np.ndarray:
        """Boolean vertex array of a subset, for any n."""
        mask = self.as_mask(subset)
        packed = np.frombuffer(mask.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(packed, count=self.n, bitorder="little").astype(bool)

    def boundary_measure(self, subset) -> float:
        ind = self.indicator(subset)
        return float(np.sum(self.ew[ind[self.eu] != ind[self.ev]]))

    def volume(self, subset) -> float:
        return float(np.dot(self.mu, self.indicator(subset)))

    def induced_edge_indices(self, mask: int) -> np.ndarray:
        ind = self.indicator(mask)
        return np.nonzero(ind[self.eu] & ind[self.ev])[0]

    def components_of(self, mask: int) -> tuple:
        """Connected components (sorted vertex tuples) of the induced subgraph,
        in increasing order of their least vertex."""
        comps = self.components(self.indicator(mask)[None])[1]
        return tuple(tuple(np.flatnonzero(comp).tolist()) for comp in comps)

    def components(self, members: np.ndarray) -> tuple:
        """(owner, comps) of the subgraphs induced on a block of vertex sets,
        given as rows of booleans: comps[i], a row of booleans, is a component
        of set owner[i], and each set's components come in a run, by
        increasing least vertex, the sets in increasing order. A round starts
        a component of each set at its least vertex not yet placed, then adds
        the neighbours left in the set to the components that grew in the
        last step until none grows."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[self.eu, self.ev] = adj[self.ev, self.eu] = True
        rows = np.flatnonzero(members.any(axis=1))
        left, owners, comps = members[rows], [rows[:0]], [members[:0]]
        while len(rows):
            comp = np.zeros_like(left)
            comp[np.arange(len(rows)), left.argmax(axis=1)] = True
            live, part, near = np.arange(len(rows)), comp, left
            while True:
                grown = part | part @ adj & near
                more = (grown != part).any(axis=1)
                growing = np.count_nonzero(more)
                if growing < len(live):
                    comp[live] = part  # final for the rows that stopped
                    if not growing:
                        break
                    live, grown, near = live[more], grown[more], near[more]
                part = grown
            owners.append(rows)
            comps.append(comp)
            left &= ~comp
            more = left.any(axis=1)
            rows, left = rows[more], left[more]
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        return owner[order], np.concatenate(comps)[order]

    def _vertex_function(self, f, dtype=complex) -> np.ndarray:
        """A vertex function from a caller, or a stack of them along the last
        axis, as an array of ``dtype``, checked to hold one value per vertex."""
        f = np.asarray(f, dtype=dtype)
        if f.shape[-1:] != (self.n,):
            raise MagnetoError("BAD_SIZE",
                               f"f must have one value per vertex, {self.n}, got shape {f.shape}")
        return f

    # -- gauge transformations ----------------------------------------------

    def _switching(self, tau) -> np.ndarray:
        """A switching from a caller, checked and reduced: a value per vertex in
        the signature's convention, integer exponents mod k or finite angles,
        returned mod k or mod 2pi."""
        tau = np.asarray(tau)
        if tau.shape != (self.n,):
            raise MagnetoError("INCOMPLETE_ASSIGNMENT",
                               f"tau must have one value per vertex, {self.n}, got shape {tau.shape}")
        # an empty list comes as floats, yet holds no value outside the group
        if tau.size and tau.dtype.kind not in ("iu" if self.group_kind == CYCLIC else "iuf"):
            raise MagnetoError("WRONG_GROUP", f"switching values of dtype {tau.dtype} "
                               "are not in the graph's group")
        if not np.all(np.isfinite(tau)):
            raise MagnetoError("NONFINITE_ANGLE", "switching angles must be finite")
        return tau.astype(self.sig.dtype) % (self.group_order or TWO_PI)

    def switch(self, tau) -> "MagneticGraph":
        """New graph with s^tau(u,v) = tau(u) s(u,v) tau(v)^{-1}, for a switching
        tau as the module docstring gives it, checked by ``_switching``."""
        tau = self._switching(tau)
        sig = (tau[self.eu] + self.sig - tau[self.ev]) % (self.group_order or TWO_PI)
        return MagneticGraph(
            self.n, self.eu, self.ev, self.ew, self.group_kind, self.group_order, sig, self.mu
        )

    def cycle_signature(self, cycle: Sequence[int]) -> GroupElement:
        """Signature product along a closed walk of distinct edges."""
        if len(cycle) < 3:
            raise MagnetoError("NOT_A_CYCLE", "a cycle needs at least 3 vertices")
        edge_lookup = {}
        for idx in range(self.m):
            edge_lookup[(int(self.eu[idx]), int(self.ev[idx]))] = (idx, False)
            edge_lookup[(int(self.ev[idx]), int(self.eu[idx]))] = (idx, True)
        total = GroupElement.identity(self.group_kind, self.group_order or 1)
        used = set()
        for i in range(len(cycle)):
            u, v = int(cycle[i]), int(cycle[(i + 1) % len(cycle)])
            if (u, v) not in edge_lookup:
                raise MagnetoError("NOT_A_CYCLE", f"({u},{v}) is not an edge")
            idx, rev = edge_lookup[(u, v)]
            if idx in used:
                raise MagnetoError("NOT_A_CYCLE", "repeated edge in cycle")
            used.add(idx)
            total = total * self.signature_element(idx, reverse=rev)
        return total

    def is_balanced(self):
        """Spanning-forest gauge test, by ``_tree_spread``.

        Returns ``(True, tau)`` with the switching that makes every edge cost
        0 in ``l1_switch_cost``, each component's least vertex at 0 (so
        ``switch(-tau)`` makes every signature 1), or ``(False, cycle)`` with
        the fundamental cycle of the first edge, in storage order, that it
        does not make cost 0; that cycle's signature is not 1.
        """
        tau, up, bad = _tree_spread(self.n, self.eu, self.ev, self.sig, self.group_order or TWO_PI)
        if not len(bad):
            return True, tau
        u, v, up = int(self.eu[bad[0]]), int(self.ev[bad[0]]), up.tolist()
        anc_u = [u]
        while up[anc_u[-1]] >= 0:
            anc_u.append(up[anc_u[-1]])
        pos = {x: i for i, x in enumerate(anc_u)}
        path_v = []
        b = v
        while b not in pos:
            path_v.append(b)
            b = up[b]
        # u -> ... -> common ancestor -> ... -> v, closed by the edge (v, u)
        return False, anc_u[: pos[b] + 1] + path_v[::-1]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.group_kind == CYCLIC:
            group = {"kind": "cyclic", "k": self.group_order}
            sigs = [int(s) for s in self.sig]
        else:
            group = {"kind": "circle"}
            sigs = [float(a) / TWO_PI for a in self.sig]  # turns
        edges = [
            [int(u), int(v), float(w), s]
            for u, v, w, s in zip(self.eu, self.ev, self.ew, sigs)
        ]
        return {"n": self.n, "group": group, "edges": edges, "measure": [float(x) for x in self.mu]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _tree_spread(n: int, eu, ev, sig, modulus) -> tuple:
    """(tau, up, bad) of the graph on vertices 0..n-1 with edges (eu[i], ev[i])
    and signatures sig[i], integer exponents mod an integer ``modulus`` k or
    angles mod 2pi.

    Each component is rooted at its least vertex, at 0, and a breadth-first
    spread gives each vertex v it reaches along an edge (u, v) the value tau(v)
    = tau(u) - s_uv, so that the edge costs 0: tau(u) = s_uv tau(v). up[v] is
    the vertex it was reached from, -1 at a root. bad lists, in storage order,
    the edges whose tau(u) - tau(v) - s_uv is not 0 mod ``modulus``: exactly for
    exponents, beyond ANGLE_TOL for angles. The tree fixes tau, so the graph is
    balanced exactly when bad is empty.
    """
    src, dst = np.concatenate((eu, ev)), np.concatenate((ev, eu))
    step = np.concatenate((-sig, sig))
    tau = np.zeros(n, dtype=sig.dtype)
    via = np.full(n, -1)  # the arc, an index into src and dst, that reached each vertex
    reached = np.zeros(n, dtype=bool)
    for root in range(n):
        if reached[root]:
            continue
        reached[root] = True
        while len(new := np.flatnonzero(reached[src] & ~reached[dst])):
            v = dst[new]
            via[v] = new
            arc = via[v]  # one arc per new vertex: the one stored, read back
            tau[v] = (tau[src[arc]] + step[arc]) % modulus
            reached[v] = True
    tau %= modulus  # np.remainder rounds a tiny negative angle up to 2pi itself
    d = (tau[eu] - tau[ev] - sig) % modulus
    # min(d, k - d) of an exponent is 0 or at least 1
    bad = np.flatnonzero(np.minimum(d, modulus - d) > ANGLE_TOL)
    return tau, np.append(src, -1)[via], bad  # a root's via, -1, reads the -1


def build_graph(n: int, edges: Iterable, measure=None) -> MagneticGraph:
    """Validate and build a magnetic graph.

    ``edges`` is an iterable of (u, v, weight, GroupElement). The group of the
    first signature fixes the graph's group; mixing groups is an error.
    Missing ``measure`` defaults to mu = 1.
    """
    n = int(n)
    if n < 0:
        raise MagnetoError("BAD_SIZE", "n must be nonnegative")
    eu, ev, ew = [], [], []
    group_kind, group_order = None, None
    sig = []
    seen = set()
    for u, v, w, s in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise MagnetoError("BAD_ENDPOINT", f"edge ({u},{v}) out of range")
        if u == v:
            raise MagnetoError("SELF_LOOP", f"self-loop at vertex {u}")
        if not math.isfinite(w):
            raise MagnetoError("NONFINITE_WEIGHT", f"edge ({u},{v}) has weight {w}")
        if w <= 0:
            raise MagnetoError("NONPOSITIVE_WEIGHT", f"edge ({u},{v}) has weight {w}")
        if not isinstance(s, GroupElement):
            raise MagnetoError("BAD_SIGNATURE", "signature must be a GroupElement")
        if group_kind is None:
            group_kind, group_order = s.kind, (s.order if s.kind == CYCLIC else None)
        elif s.kind != group_kind or (s.kind == CYCLIC and s.order != group_order):
            raise MagnetoError("MIXED_GROUPS", "all signatures must share one group")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise MagnetoError("DUPLICATE_EDGE", f"duplicate edge {{{u},{v}}}")
        seen.add(key)
        if u > v:  # canonical orientation u < v stores the inverse
            u, v, s = v, u, s.inverse()
        eu.append(u)
        ev.append(v)
        ew.append(float(w))
        sig.append(s.exponent if group_kind == CYCLIC else s.angle)
    if group_kind is None:
        group_kind, group_order = CYCLIC, 1
    if measure is None:
        mu = np.ones(n)
    else:
        mu = np.asarray(list(measure), dtype=np.float64)
        if len(mu) != n:
            raise MagnetoError("BAD_MEASURE", "measure length must equal n")
        if not np.all(np.isfinite(mu)):
            raise MagnetoError("NONFINITE_MEASURE", "measure entries must be finite")
        if np.any(mu <= 0):
            raise MagnetoError("NONPOSITIVE_MEASURE", "measure entries must be positive")
    return MagneticGraph(n, eu, ev, ew, group_kind, group_order, sig, mu)


def cartesian_product(g1: MagneticGraph, g2: MagneticGraph) -> MagneticGraph:
    """Signed Cartesian product with weights rescaled by the other factor's measure.

    Vertex (u, v) maps to index u * g2.n + v.
    """
    if g1.group_kind != g2.group_kind or (
        g1.group_kind == CYCLIC and g1.group_order != g2.group_order
    ):
        raise MagnetoError("MIXED_GROUPS", "product factors must share one group")
    n = g1.n * g2.n
    edges = []
    for u in range(g1.n):
        for idx in range(g2.m):
            a, b = int(g2.eu[idx]), int(g2.ev[idx])
            edges.append(
                (u * g2.n + a, u * g2.n + b, float(g2.ew[idx]) * float(g1.mu[u]),
                 g2.signature_element(idx))
            )
    for v in range(g2.n):
        for idx in range(g1.m):
            a, b = int(g1.eu[idx]), int(g1.ev[idx])
            edges.append(
                (a * g2.n + v, b * g2.n + v, float(g1.ew[idx]) * float(g2.mu[v]),
                 g1.signature_element(idx))
            )
    mu = np.outer(g1.mu, g2.mu).reshape(-1)
    return build_graph(n, edges, mu)


def cartesian_product_many(factors: Sequence[MagneticGraph]) -> MagneticGraph:
    if not factors:
        raise MagnetoError("BAD_SIZE", "need at least one factor")
    return reduce(cartesian_product, factors)


def graph_from_json_dict(data: dict) -> MagneticGraph:
    """Build a graph from the JSON schema; a schema violation raises BAD_GRAPH_JSON."""
    try:
        group = data.get("group", {"kind": "cyclic", "k": 1})
        kind = group.get("kind")
        if kind not in (CYCLIC, CIRCLE):
            raise MagnetoError("BAD_GROUP", f"unknown group kind {kind!r}")
        edges = []
        for u, v, w, s in data["edges"]:
            if kind == CYCLIC:
                elem = GroupElement.cyclic(int(s), int(group["k"]))
            else:
                elem = GroupElement.circle(float(s) * TWO_PI)  # turns to radians
            edges.append((u, v, w, elem))
        return build_graph(int(data["n"]), edges, data.get("measure"))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise MagnetoError("BAD_GRAPH_JSON", f"malformed graph JSON: {exc!r}") from exc


def graph_from_json(text: str | bytes) -> MagneticGraph:
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise MagnetoError("BAD_GRAPH_JSON", f"not valid JSON: {exc}") from exc
    return graph_from_json_dict(data)
