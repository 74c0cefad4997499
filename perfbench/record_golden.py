"""Record golden.json: the reference outputs the benchmark checks every op against.

    python3 perfbench/record_golden.py

Runs every op of every part once on the unrelabelled base graphs and
stores the constants, argmin subsets and verify results. It then rebuilds each
workload for a few seeds and requires every op to pass against the new file,
which confirms that the recorded values do not depend on vertex labels, gauge
or edge order. Record only from a commit whose results are trusted: a run
against this file can no longer tell a changed result from a correct one.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKDIR = HERE.parent / ".perfbench_work" / "golden"
CHECK_SEEDS = (1, 2, 3)


def record() -> dict:
    golden = {}
    for name in workloads.PARTS:
        wl = workloads.build_part(name, None, WORKDIR / name, {})
        outs = {op.name: op.run() for op in wl.ops}
        reports = {op: workloads.parse_report(raw)[0]["results"]
                   for op, raw in outs.items() if isinstance(raw, tuple)}

        def cut(op, key):
            res = reports[op]
            return {key: res[key], "argmin": sorted(res["argmin"]["subset"])}

        if name == "cheeger_exact":
            golden[name] = {g: {"cheeger": cut(f"cheeger {g}", "h"),
                                "isoperimetric": cut(f"isoperimetric {g}", "c_delta")}
                            for g in wl.graphs}
        elif name == "verify_all":
            golden[name] = {g: reports[f"verify {g}"] for g in wl.graphs}
        elif name == "product_heuristic":
            golden[name] = {"c4": cut("cheeger c4", "h"),
                            "h_upper": reports["cheeger product --heuristic"]["h"]}
    return golden


def main() -> int:
    try:
        golden = record()
        failures = []
        for name in workloads.NAMES:
            for seed in CHECK_SEEDS:
                wl = workloads.build(name, seed, WORKDIR / f"{name}-{seed}", golden)
                for op in wl.ops:
                    failures += [f"{name} seed {seed} {op.name}: {m}"
                                 for m in op.check(op.run())]
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
