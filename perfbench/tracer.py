"""Spans and work counters around magneto's public functions, installed from outside.

``Tracer.install`` wraps every public function of the traced modules and
rebinds every module-level name in ``magneto`` that refers to one of them. The
rebinding matters because layers import each other's functions with
``from .x import y``: ``frustration_exact`` is also a global of
``isoperimetry``, ``functional`` and ``cli``, and a call through any of those
names must land in the span too.

A span's self time is its duration minus the time of the spans it directly
contains. The time a counting hook spends is charged to no layer, so it shows
in ``trace.overhead_s`` and lowers ``trace.coverage`` rather than inflating a
layer. "Distinct" ratios count repeated work inside one op: the seen-sets are
cleared by ``begin_op``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("frustration", "isoperimetry", "functional", "spectral", "graph", "cli")

# (module, function) -> layer; the other public functions of a module go to
# DEFAULT_LAYER.
LAYERS = {
    ("frustration", "frustration_exact"): "frustration.exact",
    ("frustration", "frustration_heuristic"): "frustration.heuristic",
    ("isoperimetry", "cheeger_constant"): "isoperimetry.search",
    ("isoperimetry", "isoperimetric_constant"): "isoperimetry.search",
    ("functional", "coarea_lhs"): "functional.coarea",
    ("functional", "verify_sobolev"): "functional.sobolev",
    ("functional", "key_average_cyclic"): "functional.key_average",
    ("functional", "key_average_cyclic_batch"): "functional.key_average",
    ("functional", "key_average_circle"): "functional.key_average",
    ("functional", "key_average_circle_batch"): "functional.key_average",
    ("spectral", "eigendecomposition"): "spectral.eig",
    ("spectral", "spectral_data"): "spectral.eig",
    ("spectral", "magnetic_laplacian"): "spectral.laplacian",
    ("spectral", "heat_kernel"): "spectral.heat_kernel",
    ("graph", "cartesian_product"): "graph.product",
    ("graph", "cartesian_product_many"): "graph.product",
}
DEFAULT_LAYER = {
    "frustration": "frustration.other",
    "isoperimetry": "isoperimetry.other",
    "functional": "functional.other",
    "spectral": "spectral.checks",
    "graph": "graph.load",
    "cli": "cli",
}
SELF_TIMES = sorted(set(LAYERS.values()) | set(DEFAULT_LAYER.values()))
COUNTS = (
    "frustration.exact.calls", "frustration.exact.evaluations",
    "frustration.heuristic.calls", "isoperimetry.search.calls",
    "isoperimetry.subsets_total", "isoperimetry.subsets_evaluated",
    "functional.coarea.calls", "functional.sobolev.calls", "functional.key_average.pairs",
    "spectral.eig.calls", "spectral.laplacian.calls", "spectral.heat_kernel.calls",
    "cli.main.calls",
)


def graph_key(g) -> tuple:
    """Content key of a MagneticGraph: equal graphs loaded twice share it."""
    return (g.n, g.group_kind, g.group_order, g.eu.tobytes(), g.ev.tobytes(),
            g.ew.tobytes(), g.sig.tobytes(), g.mu.tobytes())


# Counting hooks: (tracer, bound arguments, result). They run after the span
# closes, so ``tracer.stack`` holds the caller's open spans.

def _frustration_exact(tr, a, res):
    tr.count("frustration.exact.calls")
    tr.count("frustration.exact.evaluations", res.evaluations)
    tr.distinct("frustration.exact", (graph_key(a["g"]), a["g"].as_mask(a["subset"])))
    if tr.inside("isoperimetry.search"):
        tr.count("isoperimetry.subsets_evaluated")


def _frustration_heuristic(tr, a, res):
    tr.count("frustration.heuristic.calls")
    if tr.inside("isoperimetry.search"):
        tr.count("isoperimetry.subsets_evaluated")


def _search(tr, a, res):
    if tr.inside("isoperimetry.search"):  # isoperimetric_constant(delta=inf) delegates
        return
    tr.count("isoperimetry.search.calls")
    tr.count("isoperimetry.subsets_total", (1 << a["g"].n) - 1)
    tr.distinct("isoperimetry.search",
                (graph_key(a["g"]), a.get("delta", float("inf")), a["heuristic"]))


def _key_average(tr, a, res):
    if not tr.inside("functional.key_average"):
        tr.count("functional.key_average.pairs", int(np.size(a["z1"])))


def _eig(tr, a, res):
    tr.count("spectral.eig.calls")
    matrix = np.ascontiguousarray(np.asarray(a["h"], dtype=complex))
    tr.distinct("spectral.eig", hashlib.blake2b(matrix.tobytes(), digest_size=16).digest())


def _counter(name):
    return lambda tr, a, res: tr.count(name)


HOOKS = {
    ("frustration", "frustration_exact"): _frustration_exact,
    ("frustration", "frustration_heuristic"): _frustration_heuristic,
    ("isoperimetry", "cheeger_constant"): _search,
    ("isoperimetry", "isoperimetric_constant"): _search,
    ("functional", "coarea_lhs"): _counter("functional.coarea.calls"),
    ("functional", "verify_sobolev"): _counter("functional.sobolev.calls"),
    ("functional", "key_average_cyclic"): _key_average,
    ("functional", "key_average_cyclic_batch"): _key_average,
    ("functional", "key_average_circle"): _key_average,
    ("functional", "key_average_circle_batch"): _key_average,
    ("spectral", "eigendecomposition"): _eig,
    ("spectral", "magnetic_laplacian"): _counter("spectral.laplacian.calls"),
    ("spectral", "heat_kernel"): _counter("spectral.heat_kernel.calls"),
    ("cli", "main"): _counter("cli.main.calls"),
}


class Tracer:
    """Per-layer self times and counts for one pass over a workload's ops."""

    def __init__(self):
        self.stack = []  # open spans: [layer, time spent in direct children]
        self._patched = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.distinct_calls = Counter()
        self._seen = defaultdict(set)

    def begin_op(self):
        self._seen.clear()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def distinct(self, layer, key):
        """Count ``key`` once per op; the layer's ``.calls`` count is the base."""
        if key not in self._seen[layer]:
            self._seen[layer].add(key)
            self.distinct_calls[layer] += 1

    def inside(self, layer) -> bool:
        return any(frame[0] == layer for frame in self.stack)

    def _wrap(self, fn, layer, hook):
        sig = inspect.signature(fn)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                self.self_s[layer] += end - start - frame[1]
                if ok and hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result)
                if stack:
                    stack[-1][1] += perf_counter() - start
            return result

        return traced

    def install(self):
        """Wrap the traced modules' public functions and rebind every reference."""
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"magneto.{short}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                layer = LAYERS.get((short, name), DEFAULT_LAYER[short])
                wrappers[id(obj)] = (obj, self._wrap(obj, layer, HOOKS.get((short, name))))
        for modname, mod in list(sys.modules.items()):
            if modname != "magneto" and not modname.startswith("magneto."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patched.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def counters(self) -> dict:
        """The deterministic numbers of the pass: counts and ratios."""
        out = {name: self.counts[name] for name in COUNTS}
        for layer in ("frustration.exact", "isoperimetry.search", "spectral.eig"):
            calls = self.counts[f"{layer}.calls"]
            out[f"{layer}.distinct_ratio"] = self.distinct_calls[layer] / calls if calls else 0.0
        total = out["isoperimetry.subsets_total"]
        out["isoperimetry.prune_ratio"] = \
            1.0 - out["isoperimetry.subsets_evaluated"] / total if total else 0.0
        return out

    def self_times(self) -> dict:
        return {f"{layer}.self_s": self.self_s[layer] for layer in SELF_TIMES}
