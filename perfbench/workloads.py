"""The benchmark workloads: their inputs, their fixed op lists and the checks on every op.

A workload is one or more parts, each with its own inputs and golden values;
its op list is theirs in order. A part is built from a run seed into a list
of ops. Each op is one thing a
user does: a ``magneto`` command run in-process through ``cli.main`` or one
library call. Functions are looked up through their module at call time, so
the tracer's rebinding sees every call. Each op's output is checked against a
reference that does not come from the code under test at this commit: golden
values recorded in ``golden.json``, or a closed form computed here.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

DELTA = 3.0
# Midpoint-rule error bound of the key-lemma quadrature at its default 4096
# angles: at most 2k jump panels, each off by at most 2/4096.
KEY_N_THETA = 4096
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Input sizes. The "why" lines of BENCHMARK.json quote these numbers.
EXACT_GRAPHS = 2
EXACT_N, EXACT_K, EXACT_M = 12, 3, 18
EXACT_CYCLE = (12, 3, 1)  # n, k, j: h = |1 - xi^j| / n
VERIFY_GRAPHS = 2
VERIFY_N, VERIFY_K, VERIFY_M = 10, 3, 15
VERIFY_TRIALS = 100
FACTOR = (4, 4, 1)  # the c4 factor: n, k, j
PRODUCT_RESTARTS = 4
RING = (120, 5, 2)  # uniform-flux magnetic cycle with mu = 2: n, k, j
KEY_PAIRS = 800
KEY_ORDERS = (2, 3, 4, 6)
T_GRID = (0.1, 1.0, 10.0)


PARTS = ("cheeger_exact", "verify_all", "product_heuristic", "spectral_lemma")
# The heuristic part runs inside the exact cheeger workload: on its own, its
# small interpreted calls slowed by up to 40% in slow spells of a shared host,
# too much for a bound on its pass time. Its layer metrics still isolate it.
WORKLOADS = {
    "cheeger": ("cheeger_exact", "product_heuristic"),
    "verify_all": ("verify_all",),
    "spectral_lemma": ("spectral_lemma",),
}
NAMES = tuple(WORKLOADS)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]  # mismatch messages; empty when correct


@dataclass
class Workload:
    name: str
    ops: list
    graphs: dict = field(default_factory=dict)  # input name -> loaded MagneticGraph
    extra: dict = field(default_factory=dict)  # reported outputs, e.g. h_upper


def base_graphs(name: str) -> dict:
    """The fixed base inputs of a part, drawn from ``inputs.BASE_SEED``."""
    rng = np.random.default_rng([inputs.BASE_SEED, PARTS.index(name)])
    if name == "cheeger_exact":
        out = {f"g{i}": inputs.random_connected(rng, EXACT_N, EXACT_K, EXACT_M)
               for i in range(EXACT_GRAPHS)}
        out["cycle"] = inputs.cycle(*EXACT_CYCLE)
        return out
    if name == "verify_all":
        return {f"g{i}": inputs.random_connected(rng, VERIFY_N, VERIFY_K, VERIFY_M)
                for i in range(VERIFY_GRAPHS)}
    if name == "product_heuristic":
        return {"c4": inputs.cycle(*FACTOR)}
    if name == "spectral_lemma":
        return {"ring": inputs.cycle(*RING, mu=2.0)}
    raise KeyError(name)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def compare(expected, actual, path: str = "") -> list:
    """Mismatches between a golden value and a parsed output.

    Keys the output has beyond the golden ones are ignored, so a report that
    gains a field still passes. Floats compare within a relative 1e-9.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {actual!r}"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out += compare(value, actual[key], f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected {expected!r}, got {actual!r}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in compare(e, a, f"{path}[{i}]")]
    if isinstance(expected, float):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)) or \
                not math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return [f"{path}: expected {expected!r}, got {actual!r}"]
        return []
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def _close(actual, expected) -> bool:
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def run_cli(argv: list) -> tuple:
    """``magneto <argv>`` in-process: (exit code, stdout)."""
    import magneto.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = magneto.cli.main(argv)
    return code, out.getvalue()


def parse_report(raw) -> tuple:
    """(report, mismatches) for a CLI op that must exit 0 with status OK."""
    code, stdout = raw
    lines = stdout.strip().splitlines()
    if not lines:
        return None, [f"exit {code}, no report on stdout"]
    report = json.loads(lines[-1])
    problems = []
    if code != 0 or report.get("status") != "OK":
        problems.append(f"exit {code}, status {report.get('status')!r}: {report.get('results')}")
    return report, problems


def to_base(subset, perm) -> list:
    """A subset of a variant's vertices, mapped back to base vertex ids."""
    inverse = {new: old for old, new in enumerate(perm)}
    return sorted(inverse[int(u)] for u in subset)


def _cut_check(key: str, golden: dict, perm, closed_form=None):
    """Check of a cheeger/isoperimetric report: constant, argmin and exactness."""
    def check(raw):
        report, problems = parse_report(raw)
        if report is None or problems:
            return problems
        res = report["results"]
        problems += compare({key: golden[key], "exact": True}, res)
        argmin = res.get("argmin", {})
        if to_base(argmin.get("subset", []), perm) != golden["argmin"]:
            problems.append(f"argmin {argmin.get('subset')} is not the golden {golden['argmin']}")
        if not _close(argmin.get("objective", math.nan), res.get(key, math.nan)):
            problems.append("argmin objective differs from the constant")
        if closed_form is not None and not _close(res.get(key, math.nan), closed_form):
            problems.append(f"{key} = {res.get(key)} but the closed form gives {closed_form}")
        return problems
    return check


def _write_inputs(name: str, seed, workdir: Path) -> tuple:
    """Write each seeded variant of the workload's base graphs; return (paths, perms)."""
    paths, perms = {}, {}
    for i, (gname, graph) in enumerate(base_graphs(name).items()):
        rng = None if seed is None else np.random.default_rng([seed, i])
        graph, perm = inputs.variant(graph, rng)
        paths[gname] = workdir / f"{gname}.json"
        paths[gname].write_text(json.dumps(graph))
        perms[gname] = perm
    return paths, perms


def build(name: str, seed, workdir: Path, golden: dict) -> Workload:
    """Workload ``name`` for ``seed``: its parts' inputs under ``workdir``, their ops in order."""
    wl = Workload(name, [])
    for part in WORKLOADS[name]:
        build_part(part, seed, workdir / part, golden, wl)
    return wl


def build_part(name: str, seed, workdir: Path, golden: dict, wl=None) -> Workload:
    """Generate the inputs of part ``name`` for ``seed`` into ``workdir``.

    The part's ops and graphs are appended to ``wl``, a new workload if None.
    ``seed=None`` keeps the base graphs unrelabelled (used to record golden
    values). Every input graph is loaded once, as the program loads it.
    """
    import magneto

    workdir.mkdir(parents=True, exist_ok=True)
    paths, perms = _write_inputs(name, seed, workdir)
    loaded = {g: magneto.graph_from_json(p.read_text()) for g, p in paths.items()}
    gold = golden.get(name, {})
    cli_seed = "0" if seed is None else str(seed % 2**31)
    if wl is None:
        wl = Workload(name, [])
    ops = wl.ops
    wl.graphs.update(loaded)

    if name == "cheeger_exact":
        n, k, j = EXACT_CYCLE
        cycle_h = 2.0 * math.sin(math.pi * j / k) / n
        for g, path in paths.items():
            closed = cycle_h if g == "cycle" else None
            ops.append(Op(f"cheeger {g}", lambda p=str(path): run_cli(["cheeger", p]),
                          _cut_check("h", gold.get(g, {}).get("cheeger", {}), perms[g], closed)))
            ops.append(Op(f"isoperimetric {g}",
                          lambda p=str(path): run_cli(["isoperimetric", p, "--delta", str(DELTA)]),
                          _cut_check("c_delta", gold.get(g, {}).get("isoperimetric", {}), perms[g])))

    elif name == "verify_all":
        for g, path in paths.items():
            def check(raw, want=gold.get(g, {})):
                report, problems = parse_report(raw)
                if report is None:
                    return problems
                return problems + compare(want, report.get("results"))
            ops.append(Op(f"verify {g}", lambda p=str(path): run_cli(
                ["verify", p, "--suite", "all", "--trials", str(VERIFY_TRIALS),
                 "--seed", cli_seed]), check))

    elif name == "product_heuristic":
        n, k, j = FACTOR
        factor_h = 2.0 * math.sin(math.pi * j / k) / n
        # torus sandwich (1/3) S <= h <= 3 S with S the sum of the factors' h
        lower, upper = 2.0 * factor_h / 3.0, 6.0 * factor_h
        c4, prod = str(paths["c4"]), str(workdir / "product.json")

        def check_product(raw):
            report, problems = parse_report(raw)
            if report is None or problems:
                return problems
            problems += compare({"n": n * n, "edges": 2 * n * n}, report["results"])
            written = json.loads(Path(prod).read_text())
            if written.get("n") != n * n or len(written.get("edges", [])) != 2 * n * n:
                problems.append("product file does not hold the 16-vertex torus")
            return problems

        def check_heuristic(raw):
            report, problems = parse_report(raw)
            if report is None or problems:
                return problems
            h = report["results"].get("h", math.nan)
            wl.extra["h_upper"] = h
            if not lower - 1e-9 <= h <= upper + 1e-9:
                problems.append(f"h_upper {h} outside the torus sandwich [{lower}, {upper}]")
            if not h <= gold.get("h_upper", -math.inf) * (1 + REL_TOL) + ABS_TOL:
                problems.append(f"h_upper {h} is looser than the golden {gold.get('h_upper')}")
            if report["results"].get("exact") is not False:
                problems.append("a heuristic result is labelled exact")
            return problems

        ops.append(Op("product c4 c4", lambda: run_cli(["product", c4, c4, "-o", prod]),
                      check_product))
        ops.append(Op("cheeger product --heuristic", lambda: run_cli(
            ["cheeger", prod, "--heuristic", "--restarts", str(PRODUCT_RESTARTS),
             "--subset-limit", str(n * n)]), check_heuristic))
        ops.append(Op("cheeger c4", lambda: run_cli(["cheeger", c4]),
                      _cut_check("h", gold.get("c4", {}), perms["c4"], factor_h)))

    elif name == "spectral_lemma":
        import magneto.functional
        import magneto.spectral

        n, k, j = RING
        ring = loaded["ring"]
        # c_delta of the ring is attained by the whole vertex set: volume 2n
        c_delta = 2.0 * math.sin(math.pi * j / k) / (2.0 * n) ** ((DELTA - 1.0) / DELTA)
        spectrum = inputs.magnetic_cycle_spectrum(n, k, j)

        def eig_all():
            return [magneto.spectral.eigenvalue_lower_bound_check(ring, DELTA, c_delta, i)
                    for i in range(1, n + 1)]

        def check_eig(reports):
            problems = [f"k={i + 1}: {r}" for i, r in enumerate(reports)
                        if not r["ok"] or abs(r["lambda_k"] - spectrum[i]) > 1e-9]
            return problems if len(reports) == n else problems + ["wrong number of reports"]

        def check_trace(rep):
            problems = [] if rep["ok"] else [f"trace bound fails: {rep}"]
            for entry in rep["entries"]:
                want = sum(math.exp(-lam * entry["t"]) for lam in spectrum)
                if not math.isclose(entry["trace"], want, rel_tol=1e-9):
                    problems.append(f"trace at t={entry['t']} is {entry['trace']}, circulant {want}")
            return problems

        ops.append(Op(f"eigenvalue_lower_bound_check k=1..{n}", eig_all, check_eig))
        ops.append(Op("trace_bound_check", lambda: magneto.spectral.trace_bound_check(
            ring, DELTA, c_delta, T_GRID), check_trace))
        rng = np.random.default_rng([0 if seed is None else seed, 99])
        z1, z2 = inputs.disk_pairs(rng, KEY_PAIRS)
        for order in KEY_ORDERS:
            want = inputs.key_average_closed_form(z1, z2, order)
            tol = 4.0 * order / KEY_N_THETA

            def check_key(vals, want=want, tol=tol, order=order):
                vals = np.asarray(vals)
                if vals.shape != want.shape:
                    return [f"k={order}: {vals.shape} values for {want.shape} pairs"]
                gap = float(np.max(np.abs(vals - want)))
                return [] if gap <= tol + ABS_TOL else [f"k={order}: gap {gap} > bound {tol}"]
            ops.append(Op(f"key_average_cyclic_batch k={order}",
                          lambda order=order: magneto.functional.key_average_cyclic_batch(
                              z1, z2, order), check_key))
    else:
        raise KeyError(name)
    return wl
