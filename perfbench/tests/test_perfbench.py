"""Tests of the benchmark itself: determinism, correctness gates and output contract.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_counters(name, seed, workdir):
    wl = workloads.build(name, seed, workdir, workloads.load_golden())
    tr = tracer.Tracer()
    with tr:
        _, outputs = run.run_pass(wl.ops, tr)
    assert run.check_pass(wl.ops, outputs) == []
    return tr.counters()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    first = traced_counters(name, 11, tmp_path / "a")
    second = traced_counters(name, 11, tmp_path / "b")
    assert first == second
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(first) <= layer_names


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, sub):
        workloads.build_part("cheeger_exact", seed, tmp_path / sub, {})
        return {p.name: p.read_text() for p in (tmp_path / sub).iterdir()}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_variant_is_a_relabelled_gauge_switch():
    import magneto

    base = inputs.random_connected(np.random.default_rng(0), 7, 3, 10)
    var, perm = inputs.variant(base, np.random.default_rng(1))
    g0 = magneto.graph_from_json(json.dumps(base))
    g1 = magneto.graph_from_json(json.dumps(var))
    assert sorted(perm) == list(range(7))
    assert magneto.frustration_exact(g1, g1.full_mask()).value == \
        pytest.approx(magneto.frustration_exact(g0, g0.full_mask()).value, rel=1e-12)
    for sub in ([0, 1, 2], [2, 4, 5, 6]):
        moved = [perm[u] for u in sub]
        assert magneto.frustration_exact(g1, moved).value == \
            pytest.approx(magneto.frustration_exact(g0, sub).value, rel=1e-12)


def test_key_closed_form_matches_the_quadrature():
    import magneto

    z1, z2 = inputs.disk_pairs(np.random.default_rng(2), 300)
    for k in workloads.KEY_ORDERS:
        gap = abs(magneto.functional.key_average_cyclic_batch(z1, z2, k)
                  - inputs.key_average_closed_form(z1, z2, k)).max()
        assert gap <= 4.0 * k / workloads.KEY_N_THETA


def failed_ops(name, golden, tmp_path, only):
    wl = workloads.build_part(name, 3, tmp_path, golden)
    ops = [op for op in wl.ops if op.name in only]
    _, outputs = run.run_pass(ops)
    return [f.split(":")[0] for f in run.check_pass(ops, outputs)]


def test_corrupted_golden_value_fails_only_its_op(tmp_path):
    golden = copy.deepcopy(workloads.load_golden())
    golden["cheeger_exact"]["cycle"]["isoperimetric"]["c_delta"] *= 1.0 + 1e-6
    only = {"cheeger cycle", "isoperimetric cycle"}
    assert failed_ops("cheeger_exact", golden, tmp_path, only) == ["isoperimetric cycle"]


def test_corrupted_golden_argmin_and_verify_count_fail(tmp_path):
    golden = copy.deepcopy(workloads.load_golden())
    golden["product_heuristic"]["c4"]["argmin"] = [0, 1, 2]
    assert failed_ops("product_heuristic", golden, tmp_path / "p", {"cheeger c4"}) == \
        ["cheeger c4"]
    golden["verify_all"]["g0"]["kato"]["violations"] = 1
    assert failed_ops("verify_all", golden, tmp_path / "v", {"verify g0"}) == ["verify g0"]


def test_tracer_rebinds_names_imported_across_modules():
    import magneto.cli
    import magneto.frustration
    import magneto.isoperimetry

    original = magneto.frustration.frustration_exact
    with tracer.Tracer():
        assert magneto.isoperimetry.frustration_exact is not original
        assert magneto.cli.frustration_exact is magneto.frustration.frustration_exact
        assert magneto.frustration_exact is magneto.frustration.frustration_exact
    assert magneto.isoperimetry.frustration_exact is original
    assert magneto.cli.frustration_exact is original


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, key):
    proc = bench(ROOT, "--workload", "cheeger", "--seed", "4",
                 "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert not (ROOT / ".perfbench_work").exists()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "cheeger", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
