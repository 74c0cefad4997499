"""Command-line front end.

Every invocation except ``--help`` prints a single-line JSON run report on
stdout and a short human-readable summary on stderr. Exit codes: 0 OK, 2
VIOLATION (a verified inequality failed beyond tolerance), 1 ERROR, usage
errors included. Identical argv and seed produce byte-identical stdout; wall
time is therefore reported on stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import functional, isoperimetry, spectral
from .errors import MagnetoError
from .frustration import (
    DEFAULT_BUDGET,
    _check_sets,
    frustration_cycle_oracle,
    frustration_exact,
    frustration_heuristic,
)
from .graph import MagneticGraph, cartesian_product_many, graph_from_json
from .groups import GroupElement


def _budget() -> int:
    raw = os.environ.get("MAGNETO_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise MagnetoError("BAD_BUDGET", f"MAGNETO_BUDGET is not an integer: {raw!r}") from None


def _load_graph(path: str) -> MagneticGraph:
    with open(path, "rb") as fh:
        return graph_from_json(fh.read())


# vertex-function entries a verify run draws and checks at once: its trial
# suites' memory (about 80 bytes an entry) stays near 5 MiB for any --trials
_TRIAL_ENTRIES = 1 << 16


def _random_fs(seed: int, trials: int, n: int):
    """``trials`` random complex vertex functions, as the rows of blocks of at
    most ``_TRIAL_ENTRIES`` entries (one row at least); each row draws its
    real parts, then its imaginary parts."""
    rng = np.random.default_rng(seed)
    rows = max(1, _TRIAL_ENTRIES // max(n, 1))
    for start in range(0, trials, rows):
        draws = rng.normal(size=(min(rows, trials - start), 2, n))
        yield draws[:, 0] + 1j * draws[:, 1]


def cmd_frustration(args):
    g = _load_graph(args.graph)
    try:
        subset = int(args.subset, 16) if args.subset else g.full_mask()
    except ValueError as exc:
        raise MagnetoError("BAD_SUBSET", f"--subset is not a hex bitmask: {exc}") from exc
    if args.heuristic:
        res = frustration_heuristic(g, subset, restarts=args.restarts, seed=args.seed)
    else:
        res = frustration_exact(g, subset, budget=_budget())
    tau = res.minimizer.tolist()
    return {
        "value": res.value,
        "exact": res.exact,
        "evaluations": res.evaluations,
        "minimizer": {str(u): tau[u] for u in g.mask_vertices(subset)},
    }, "OK"


def _cut_digest(cut) -> dict:
    return {
        "subset": list(cut.subset),
        "frustration": cut.frustration,
        "boundary": cut.boundary,
        "volume": cut.volume,
        "objective": cut.objective,
    }


def _search(args, delta: float, profile: bool = False):
    """The subset search of ``cheeger`` (delta = inf) and ``isoperimetric``."""
    g = _load_graph(args.graph)
    return isoperimetry.isoperimetric_constant(
        g,
        delta,
        heuristic=args.heuristic,
        subset_limit=args.subset_limit,
        budget=_budget(),
        restarts=args.restarts,
        seed=args.seed,
        profile=profile,
    )


def cmd_cheeger(args):
    res = _search(args, math.inf, args.profile)
    out = {"h": res.constant, "argmin": _cut_digest(res.argmin), "exact": res.exact}
    if args.profile:
        out["profile"] = [_cut_digest(c) for c in res.profile]
    return out, "OK"


def cmd_isoperimetric(args):
    res = _search(args, args.delta)
    return {
        "delta": args.delta,
        "c_delta": res.constant,
        "argmin": _cut_digest(res.argmin),
        "exact": res.exact,
    }, "OK"


def cmd_product(args):
    graphs = [_load_graph(p) for p in args.graphs]
    prod = cartesian_product_many(graphs)
    with open(args.output, "w") as fh:
        fh.write(prod.to_json())
    return {"n": prod.n, "edges": prod.m, "output": args.output}, "OK"


def cmd_spectrum(args):
    g = _load_graph(args.graph)
    sd = spectral.spectral_data(g)
    balanced, _ = g.is_balanced()
    return {
        "eigenvalues": [float(x) for x in sd.eigenvalues],
        "d_mu": g.max_mu_degree(),
        "balanced": balanced,
    }, "OK"


def cmd_heat(args):
    g = _load_graph(args.graph)
    kern = spectral.heat_kernel(g, args.t, signed=not args.unsigned)
    return {
        "t": args.t,
        "unsigned": bool(args.unsigned),
        "matrix_re": kern.real.tolist(),
        "matrix_im": kern.imag.tolist(),
        "trace": float(np.trace(kern).real),
    }, "OK"


def cmd_oracle(args):
    # n enters the closed forms as a float, exactly up to 2^53
    if not 3 <= args.n <= 2**53:
        raise MagnetoError("BAD_SIZE", f"cycle length must lie in 3..2^53, got {args.n}")
    if not args.delta > 1.0:
        raise MagnetoError("BAD_DELTA", f"delta must be > 1, got {args.delta}")
    sigma = GroupElement.cyclic(args.j, args.k)
    iota = frustration_cycle_oracle(sigma)
    exponent = isoperimetry._volume_exponent(args.delta)
    return {
        "n": args.n,
        "k": args.k,
        "j": args.j,
        "iota": iota,
        "h": iota / args.n,
        "delta": args.delta,
        "c_delta": iota / args.n**exponent,
    }, "OK"


def _coarea_violations(g, fs, budget: int) -> int:
    """How many rows of ``fs``, normalized vertex functions, have a coarea
    integral above ``_sobolev_factor`` * ||grad_sigma f||_1 + 1e-9.

    The checks of the exact solve run first, on each distinct support once,
    in order of first appearance: the support is a row's first and largest
    level set, and |S| - c(S) never falls as S grows (a vertex that joins d
    components adds d), so the first level set to fail them is the support
    of the first row whose support fails. A row whose
    ``_coarea_switch_bound`` meets the right-hand side, with a relative
    margin of 1e-12 for rounding, is then certified without a solve: the
    exact path would not count it. Only the other rows go to
    ``coarea_lhs``."""
    rows = np.abs(fs)
    _check_sets(g, functional._distinct_rows(rows > 0)[0], budget)
    rhs = functional._sobolev_factor(g) * functional.signed_gradient_norm(g, fs, 1.0)
    uncertified = ~(functional._coarea_switch_bound(g, rows) * (1.0 + 1e-12) <= rhs + 1e-9)
    if not uncertified.any():
        return 0
    lhs = functional.coarea_lhs(g, fs[uncertified], budget=budget)
    return int(np.count_nonzero(lhs > rhs[uncertified] + 1e-9))


# The suites that check random vertex functions. Each is started once, just
# before its first block of trials, or after the last block when there is
# none, and returns (count, fields): count gives the violations in one block,
# and the report is {"trials", *fields, "violations"}; or (None, report) when
# the suite is skipped.

def _suite_coarea(g, args):
    def count(fs):
        # a zero row raises ZERO_FUNCTION here, before the checks of the rows
        # before it; drawn rows are zero only when n = 0, and then all are
        return _coarea_violations(g, functional.normalize_vertex_function(fs), _budget())

    return count, {}


def _suite_sobolev(g, args):
    delta = args.delta
    h, c_delta = (res.constant for res in isoperimetry._constants(
        g, (math.inf, delta), budget=_budget()))
    if h <= 0:
        return None, {"skipped": "balanced graph (h = 0)"}
    p = 2.0 if delta > 2.0 else 0.5 * (1.0 + delta)

    def count(fs):
        checks = [
            functional.verify_sobolev(g, fs, "iso_p1", delta=delta, c_delta=c_delta),
            functional.verify_sobolev(g, fs, "iso_general", p=p, delta=delta, c_delta=c_delta),
            functional.verify_sobolev(g, fs, "cheeger_p1", h=h),
            functional.verify_sobolev(g, fs, "cheeger_p", p=p, h=h),
        ]
        return sum(int(np.count_nonzero(~c.satisfied)) for c in checks)

    return count, {"h": h, "c_delta": c_delta}


def _suite_kato(g, args):
    return (lambda fs: int(np.count_nonzero(~spectral.kato_check(g, fs)))), {}


def _suite_domination(g, args):
    spectra = []

    def count(fs):
        if not spectra:  # at the first block, so --trials 0 solves nothing
            spectra.extend((spectral.spectral_data(g, signed=True),
                            spectral.spectral_data(g, signed=False)))
        verdicts = spectral._domination_verdicts(*spectra, np.array((0.1, 1.0, 10.0)), fs)
        return int(np.count_nonzero(~verdicts))

    return count, {}


def _suite_trace(g, args):
    c_delta = isoperimetry.isoperimetric_constant(g, args.delta, budget=_budget()).constant
    if c_delta <= 0:
        return {"skipped": "balanced graph (c_delta = 0)"}, True
    rep = spectral.trace_bound_check(g, args.delta, c_delta, (0.1, 1.0, 10.0))
    eig_ok = all(
        spectral.eigenvalue_lower_bound_check(g, args.delta, c_delta, k)["ok"]
        for k in range(1, g.n + 1)
    )
    return {"c_delta": c_delta, "trace_ok": rep["ok"], "eigenvalue_ok": eig_ok}, \
        rep["ok"] and eig_ok


def _suite_product(g, args):
    rep = isoperimetry.verify_product_additivity([g], budget=_budget())
    return {
        "factor_constants": rep.factor_constants,
        "product_constant": rep.product_constant,
        "holds": rep.holds,
    }, rep.holds


_TRIAL_SUITES = {
    "coarea": _suite_coarea,
    "sobolev": _suite_sobolev,
    "kato": _suite_kato,
    "domination": _suite_domination,
}
# the verify suites, in the order `--suite all` runs and reports them; the
# others return (their report, whether every check held)
_SUITES = {**_TRIAL_SUITES, "trace": _suite_trace, "product": _suite_product}


def cmd_verify(args):
    g = _load_graph(args.graph)
    names = [*_SUITES] if args.suite == "all" else [args.suite]
    trial_names = [name for name in names if name in _TRIAL_SUITES]
    started, violations = {}, dict.fromkeys(trial_names, 0)

    def start(name):
        if name not in started:
            started[name] = _TRIAL_SUITES[name](g, args)
        return started[name]

    # each block of trials is drawn once and checked by every trial suite in
    # turn, in suite order, so one block is held at a time
    for fs in _random_fs(args.seed, args.trials, g.n) if trial_names else ():
        for name in trial_names:
            count = start(name)[0]
            if count is not None:
                violations[name] += count(fs)
    results, ok = {}, True
    for name in names:
        if name in _TRIAL_SUITES:
            count, fields = start(name)
            if count is not None:
                fields = {"trials": args.trials, **fields, "violations": violations[name]}
            results[name], passed = fields, violations[name] == 0
        else:
            results[name], passed = _SUITES[name](g, args)
        ok &= passed
    return results, ("OK" if ok else "VIOLATION")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise USAGE, so they are reported like any other error
    (exit 1, one JSON line) instead of exiting 2, the VIOLATION code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise MagnetoError("USAGE", message)


def _add_search_flags(p, func) -> None:
    """The flags and handler of a subset-search command, after its own flags."""
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("--subset-limit", type=int, default=isoperimetry.DEFAULT_SUBSET_LIMIT)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = _Parser(prog="magneto")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frustration", help="frustration index of a vertex subset")
    p.add_argument("graph")
    p.add_argument("--subset", help="hex bitmask over vertex ids (default: all)")
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_frustration)

    p = sub.add_parser("cheeger", help="signed 1-way Cheeger constant")
    p.add_argument("graph")
    p.add_argument("--profile", action="store_true")
    _add_search_flags(p, cmd_cheeger)

    p = sub.add_parser("isoperimetric", help="isoperimetric constant c_delta")
    p.add_argument("graph")
    p.add_argument("--delta", type=float, required=True)
    _add_search_flags(p, cmd_isoperimetric)

    p = sub.add_parser("product", help="signed Cartesian product of graph files")
    p.add_argument("graphs", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("spectrum", help="magnetic Laplacian spectrum")
    p.add_argument("graph")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("heat", help="heat kernel at time t")
    p.add_argument("graph")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--unsigned", action="store_true")
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("verify", help="batch inequality verification")
    p.add_argument("graph")
    p.add_argument("--suite", required=True, choices=[*_SUITES, "all"])
    p.add_argument("--delta", type=float, default=3.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="closed forms from the cycle propositions")
    p.add_argument("target", choices=["cycle"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--delta", type=float, default=3.0)
    p.set_defaults(func=cmd_oracle)
    return parser


def _json_ready(obj):
    """Python values for numpy scalars; NaN and infinities, which strict JSON
    lacks, become the strings "nan", "inf" and "-inf"."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    return obj


def main(argv=None) -> int:
    start = time.monotonic()
    command, inputs = None, {}
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help has printed
            return int(exc.code or 0)
        command = args.command
        inputs = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
        if getattr(args, "seed", 0) < 0:
            raise MagnetoError("BAD_SEED", f"--seed must be >= 0, got {args.seed}")
        if getattr(args, "trials", 0) < 0:
            raise MagnetoError("BAD_TRIALS", f"--trials must be >= 0, got {args.trials}")
        if getattr(args, "restarts", 0) < 0:
            raise MagnetoError("BAD_RESTARTS", f"--restarts must be >= 0, got {args.restarts}")
        results, status = args.func(args)
    except MagnetoError as exc:
        results, status = {"error": exc.code, "message": exc.message}, "ERROR"
    except OSError as exc:
        results, status = {"error": "IO_ERROR", "message": str(exc)}, "ERROR"
    except MemoryError as exc:
        results, status = {"error": "OUT_OF_MEMORY", "message": str(exc)}, "ERROR"
    elapsed = time.monotonic() - start
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "status": status,
    }
    print(json.dumps(_json_ready(report), separators=(",", ":")))
    print(f"[magneto] {command or 'usage'}: {status} in {elapsed:.3f}s", file=sys.stderr)
    return {"OK": 0, "VIOLATION": 2}.get(status, 1)


if __name__ == "__main__":
    raise SystemExit(main())
