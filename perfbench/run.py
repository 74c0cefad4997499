"""magneto benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load: a closed loop with one client in one process; each op starts when the
previous one has finished. The seed makes ``VARIANTS`` relabelled copies of
the workload's inputs. After one warm-up pass, checked but not timed, the run
repeats the workload's fixed op list, each pass on the next copy in turn, and
starts no pass that would end after ``--seconds`` (warm-up included). Every
op's output is checked. Rotating the copies evens out work
that depends on vertex order (the heuristic's sweep count), so the medians
differ little from seed to seed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of fresh processes that import magneto and generate and load the inputs, run
between passes and spread over the measured seconds),
``wall_s`` (median time of one pass over the op list), ``op_p50_s`` (median op
latency) and ``peak_rss_mb``. ``--trace 1`` alternates untraced and traced
passes and reports per-layer self times and work counters from the traced
ones. The last stdout line is the result object; the line before it gives the
environment and the details (sample counts, failures, ``h_upper``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9
VARIANTS = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> int:
    """Run BLAS and OpenMP single-threaded; must run before numpy loads.

    The one client already keeps one core busy. On a host whose few cores are
    shared, a second BLAS thread waits for the scheduler, and the eigensolves
    on the benchmark's matrices (at most 120 x 120) gain nothing from it.
    Returns the usable CPU count, which is reported with the result.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def run_pass(ops, tracer=None) -> tuple:
    """Run every op once: (op latencies, outputs). Exceptions are outputs too."""
    latencies, outputs = [], []
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            out = exc
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
    return latencies, outputs


def check_pass(ops, outputs) -> list:
    """Failure messages of one pass, one entry per failed op."""
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failures.append(f"{op.name}: raised {type(out).__name__}: {out}")
            continue
        try:
            problems = op.check(out)
        except Exception as exc:  # a malformed output the check cannot read
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{op.name}: " + "; ".join(problems))
    return failures


def setup_probe(args) -> float:
    """Wall time of a fresh process that only sets the workload up."""
    start = time.perf_counter()
    # no timeout: Popen.wait with a timeout polls and rounds times up to 50 ms
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup(workload: str, seed: int, workdir: Path) -> list:
    """The workload built on each of the seed's ``VARIANTS`` input copies."""
    sys.path.insert(0, str(SRC))
    import workloads

    golden = workloads.load_golden()
    return [workloads.build(workload, seed * VARIANTS + v, workdir / str(v), golden)
            for v in range(VARIANTS)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cheeger", "verify_all", "spectral_lemma"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up in a scratch directory and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "magneto" / "__init__.py").is_file():
        print(f"magneto sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    # a terminated run still removes its inputs: SystemExit unwinds through finally
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        wls = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        return measure(args, wls, nproc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def measure(args, wls, nproc: int) -> int:
    import tracer as tracing

    tr = tracing.Tracer() if args.trace else None
    if tr is not None:
        # traced counts must repeat from pass to pass, so trace one input copy
        wls = wls[:1]
    start = time.perf_counter()
    deadline = start + args.seconds
    # warm-up: first calls pay for lazy imports and cold caches
    _, outs = run_pass(wls[0].ops)
    failures, attempted, inconsistent = check_pass(wls[0].ops, outs), len(outs), []
    walls, latencies, traced_walls, layer_samples, coverage = [], [], [], [], []
    counters, setup_times = None, []
    while True:
        pass_start = time.perf_counter()
        wl = wls[len(walls) % len(wls)]
        lat, outs = run_pass(wl.ops)
        failures += check_pass(wl.ops, outs)
        attempted += len(wl.ops)
        walls.append(sum(lat))
        latencies += lat
        if tr is not None:
            tr.reset()
            with tr:
                lat, outs = run_pass(wl.ops, tr)
            failures += check_pass(wl.ops, outs)
            attempted += len(wl.ops)
            traced_walls.append(sum(lat))
            layer_samples.append(tr.self_times())
            coverage.append(sum(layer_samples[-1].values()) / traced_walls[-1])
            if counters is None:
                counters = tr.counters()
            elif counters != tr.counters():
                inconsistent.append(f"traced counts differ between passes: {tr.counters()}")
        pass_time = time.perf_counter() - pass_start
        # set-up probes are spread over the run, so a slow spell of the host
        # moves only some of them
        while tr is None and len(setup_times) < SETUP_PROBES and time.perf_counter() >= \
                start + (len(setup_times) + 0.5) * args.seconds / SETUP_PROBES:
            setup_times.append(setup_probe(args))
        # stop before a pass that would end past the deadline
        if time.perf_counter() + pass_time >= deadline:
            break

    details = {
        "workload": args.workload, "env": environment(nproc, args.seed),
        "passes": len(walls), "pass_walls_s": walls, "op_samples": len(latencies),
        "fail_ratio": len(failures) / attempted, "failures": failures[:10] + inconsistent,
        "variants": len(wls), **wls[0].extra,
    }
    if tr is None:
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(args))
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        details["setup_samples"] = setup_times
    else:
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        selfs = {k: statistics.median(s[k] for s in layer_samples) for k in layer_samples[0]}
        metrics = {k: (v, "count" if k in tracing.COUNTS else "ratio")
                   for k, v in counters.items()}
        metrics.update({k: (v, "s") for k, v in selfs.items()})
        metrics.update({
            "trace.wall_untraced_s": (untraced, "s"),
            "trace.wall_traced_s": (traced, "s"),
            "trace.overhead_s": (traced - untraced, "s"),
            "trace.coverage": (statistics.median(coverage), "ratio"),
        })
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures and not inconsistent, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
