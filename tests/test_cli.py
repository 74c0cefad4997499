import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magneto.cli
import magneto.functional
import magneto.isoperimetry
import magneto.spectral
from conftest import cycle_graph, k2_graph
from magneto import GroupElement, build_graph, graph_from_json
from magneto.cli import _random_fs, main


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(g.to_json())
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, json.loads(out.out), out.err


def test_oracle_cycle(capsys):
    code, rep, err = run(capsys, ["oracle", "cycle", "--n", "4", "--k", "2", "--j", "1"])
    assert code == 0
    assert rep["status"] == "OK"
    res = rep["results"]
    assert res["iota"] == 2.0
    assert res["h"] == 0.5
    assert res["c_delta"] == pytest.approx(2.0 / 4.0 ** (2.0 / 3.0))
    assert "OK" in err


def test_frustration_command(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4, 2, 1))
    code, rep, _ = run(capsys, ["frustration", path])
    assert code == 0
    assert rep["results"]["value"] == pytest.approx(2.0, abs=1e-12)
    assert rep["results"]["exact"] is True

    code, rep, _ = run(capsys, ["frustration", path, "--heuristic", "--seed", "3"])
    assert code == 0
    assert rep["results"]["value"] >= 2.0 - 1e-9
    assert rep["results"]["exact"] is False


def test_frustration_subset_mask(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4, 2, 1))
    # vertices {0, 1} induce a single edge: a tree, frustration 0
    code, rep, _ = run(capsys, ["frustration", path, "--subset", "3"])
    assert code == 0
    assert rep["results"]["value"] == 0.0


def test_cheeger_and_isoperimetric_commands(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4, 2, 1))
    code, rep, _ = run(capsys, ["cheeger", path])
    assert code == 0
    assert rep["results"]["h"] == pytest.approx(0.5, abs=1e-12)
    assert rep["results"]["argmin"]["subset"] == [0, 1, 2, 3]

    code, rep, _ = run(capsys, ["cheeger", path, "--profile"])
    assert len(rep["results"]["profile"]) == 15

    code, rep, _ = run(capsys, ["isoperimetric", path, "--delta", "3"])
    assert code == 0
    assert rep["results"]["c_delta"] == pytest.approx(2.0 / 4.0 ** (2.0 / 3.0))

    code, rep, _ = run(capsys, ["isoperimetric", path, "--delta", "1"])
    assert code == 1
    assert rep["status"] == "ERROR"
    assert rep["results"]["error"] == "BAD_DELTA"


def test_product_command(tmp_path, capsys):
    p1 = write_graph(tmp_path, cycle_graph(3, 2, 1), "a.json")
    p2 = write_graph(tmp_path, k2_graph(2, 0), "b.json")
    out = str(tmp_path / "prod.json")
    code, rep, _ = run(capsys, ["product", p1, p2, "-o", out])
    assert code == 0
    assert rep["results"]["n"] == 6
    assert rep["results"]["edges"] == 3 * 1 + 2 * 3
    with open(out) as fh:
        prod = graph_from_json(fh.read())
    assert prod.n == 6


def test_spectrum_and_heat_commands(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4, 2, 1))
    code, rep, _ = run(capsys, ["spectrum", path])
    assert code == 0
    lam = rep["results"]["eigenvalues"]
    assert lam == sorted(lam)
    assert rep["results"]["balanced"] is False
    assert lam[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)

    code, rep, _ = run(capsys, ["heat", path, "--t", "1.0"])
    assert code == 0
    trace = rep["results"]["trace"]
    assert trace == pytest.approx(sum(math.exp(-x) for x in lam), abs=1e-9)

    code, rep, _ = run(capsys, ["heat", path, "--t", "0.5", "--unsigned"])
    assert code == 0
    assert np.min(rep["results"]["matrix_re"]) >= -1e-12


def test_verify_suites(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4, 2, 1))
    for suite in ("coarea", "sobolev", "kato", "domination", "trace", "product"):
        code, rep, _ = run(capsys, ["verify", path, "--suite", suite, "--trials", "5"])
        assert code == 0, rep
        assert rep["status"] == "OK"
    code, rep, _ = run(capsys, ["verify", path, "--suite", "all", "--trials", "5"])
    assert code == 0
    assert set(rep["results"]) == {
        "coarea", "sobolev", "kato", "domination", "trace", "product"
    }
    # no trials check nothing, and pass
    code, rep, _ = run(capsys, ["verify", path, "--suite", "coarea", "--trials", "0"])
    assert (code, rep["results"]) == (0, {"coarea": {"trials": 0, "violations": 0}})


@pytest.mark.parametrize("trials", [-1, 0, 1, 5])
@pytest.mark.parametrize("block", [2, 4096])
def test_trial_functions_are_the_per_trial_draws(trials, block, monkeypatch):
    # the oracle: one rng per suite, real parts then imaginary parts per trial;
    # the draws come in blocks of `block` rows of 6 entries
    rng = np.random.default_rng(7)
    rows = [rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(trials)]
    monkeypatch.setattr(magneto.cli, "_TRIAL_ENTRIES", 6 * block + 5)
    blocks = list(_random_fs(7, trials, 6))
    assert [len(b) for b in blocks] == [len(rows[i:i + block])
                                        for i in range(0, max(trials, 0), block)]
    assert all(b.shape[1:] == (6,) and b.dtype == complex for b in blocks)
    assert b"".join(b.tobytes() for b in blocks) == np.array(rows, dtype=complex).tobytes()


def test_suite_counts_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch):
    # stand-in verdicts, and a coarea constant of 0.5, that fail some rows,
    # so that the counts are not 0
    monkeypatch.setattr(magneto.spectral, "kato_check", lambda g, fs: fs.real[:, 0] > 0)
    monkeypatch.setattr(magneto.spectral, "_domination_verdicts",
                        lambda signed, plain, ts, fs: fs.imag[:, 0] > ts[:, None] - 1.0)
    monkeypatch.setattr(magneto.functional, "_sobolev_factor", lambda g: 0.5)
    path = write_graph(tmp_path, cycle_graph(5, 3, 1))
    reports = []
    for entries in (1 << 16, 10):  # 2 rows of 5 entries a block
        monkeypatch.setattr(magneto.cli, "_TRIAL_ENTRIES", entries)
        reports.append(run(capsys, ["verify", path, "--suite", "all", "--trials", "9"])[1])
    assert reports[0] == reports[1]
    for suite in ("coarea", "kato", "domination"):
        assert reports[0]["results"][suite]["violations"] > 0


def test_verify_skips_balanced_sobolev(tmp_path, capsys):
    path = write_graph(tmp_path, k2_graph(2, 1))
    code, rep, _ = run(capsys, ["verify", path, "--suite", "sobolev", "--trials", "3"])
    assert code == 0
    assert "skipped" in rep["results"]["sobolev"]


def test_missing_file_is_an_error(capsys):
    code, rep, _ = run(capsys, ["cheeger", "/no/such/file.json"])
    assert code == 1
    assert rep["status"] == "ERROR"
    assert rep["results"]["error"] == "IO_ERROR"


def _one_error_line(capsys, argv):
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 1
    rep = json.loads(lines[0])
    assert rep["status"] == "ERROR"
    return rep["results"]


def _no_tables(g):
    raise AssertionError("the subset tables were built")


@pytest.mark.parametrize("n", [60, 64])
def test_an_oversized_search_is_refused_before_its_tables(tmp_path, capsys, monkeypatch, n):
    # numpy sizes no array of 2^60 int64 masks, and 2^64 overflows the masks
    path = write_graph(tmp_path, cycle_graph(n, 3, 1))
    monkeypatch.setattr(magneto.isoperimetry, "_subset_tables", _no_tables)
    assert _one_error_line(capsys, ["cheeger", path, "--subset-limit", "100"]) == {
        "error": "BUDGET_EXCEEDED", "message": f"{n} vertices exceed subset limit 59"}


def test_running_out_of_memory_is_an_error(tmp_path, capsys, monkeypatch):
    # 59 vertices pass the cap, and the tables are the first thing the search builds
    path = write_graph(tmp_path, cycle_graph(59, 3, 1))

    def out_of_memory(g):
        raise MemoryError("Unable to allocate 4.00 EiB")

    monkeypatch.setattr(magneto.isoperimetry, "_subset_tables", out_of_memory)
    assert _one_error_line(capsys, ["cheeger", path, "--subset-limit", "100"]) == {
        "error": "OUT_OF_MEMORY", "message": "Unable to allocate 4.00 EiB"}


@pytest.mark.parametrize("text", [
    '{"n": 2, "group": {"kind": "cyclic", "k": 2}}',
    '{"n": 2, "group": {"kind": "cyclic", "k": 2}, "edges": [[0, 1, 1.0]]}',
    '{"n": 2, "group": {"kind": "cyclic"}, "edges": [[0, 1, 1.0, 1]]}',
    "this is not json",
    b'{"n": 2, "edges": [], "\xff": 0}',
    '{"n": Infinity, "edges": []}',
], ids=["no_edges", "three_field_edge", "cyclic_without_k", "not_json", "not_utf8", "infinite_n"])
def test_malformed_graph_json_is_an_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code, rep, _ = run(capsys, ["cheeger", str(path)])
    assert code == 1
    assert rep["status"] == "ERROR"
    assert rep["results"]["error"] == "BAD_GRAPH_JSON"


def test_budget_env_var(tmp_path, capsys, monkeypatch):
    path = write_graph(tmp_path, cycle_graph(6, 4, 1))
    monkeypatch.setenv("MAGNETO_BUDGET", "10")
    code, rep, _ = run(capsys, ["frustration", path])
    assert code == 1
    assert rep["results"]["error"] == "BUDGET_EXCEEDED"
    # each suite fails on the whole cycle first: coarea at the first trial's
    # first level, sobolev in its first search, as the per-trial loop did
    for suite in ("coarea", "sobolev", "all"):
        code, rep, _ = run(capsys, ["verify", path, "--suite", suite, "--trials", "5"])
        assert code == 1
        assert rep["results"] == {"error": "BUDGET_EXCEEDED",
                                  "message": "gauge-fixed space 4^5 exceeds budget 10"}


@pytest.mark.parametrize("raw", ["abc", "1e7"])
def test_malformed_budget_is_an_error(tmp_path, capsys, monkeypatch, raw):
    path = write_graph(tmp_path, cycle_graph(5, 3, 1))
    monkeypatch.setenv("MAGNETO_BUDGET", raw)
    assert _one_error_line(capsys, ["frustration", path]) == {
        "error": "BAD_BUDGET", "message": f"MAGNETO_BUDGET is not an integer: {raw!r}"}


def test_stdout_is_deterministic(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(5, 3, 1))
    argv = ["verify", path, "--suite", "coarea", "--trials", "10", "--seed", "42"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_heuristic_frustration_beyond_64_vertices(tmp_path, capsys):
    one = GroupElement.cyclic(1, 3)
    path = write_graph(tmp_path, build_graph(80, [(i, i + 1, 1.0, one) for i in range(79)]))
    code, rep, _ = run(capsys, ["frustration", path, "--heuristic"])
    assert code == 0, rep
    assert rep["results"]["value"] == 0.0  # a path is a tree


def test_sobolev_suite_at_infinite_delta(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(5, 3, 1))
    code, rep, _ = run(capsys, ["verify", path, "--suite", "sobolev", "--delta", "inf",
                                "--trials", "20"])
    assert code == 0, rep
    res = rep["results"]["sobolev"]
    assert res["violations"] == 0
    assert res["c_delta"] == res["h"]


@pytest.mark.parametrize("argv, error", [
    (["verify", "{path}", "--suite", "trace", "--delta", "inf"], "BAD_DELTA"),
    (["frustration", "{path}", "--subset", "zz"], "BAD_SUBSET"),
    (["oracle", "cycle", "--n", "0", "--k", "3", "--j", "1"], "BAD_SIZE"),
    (["oracle", "cycle", "--n", "4", "--k", "3", "--j", "1", "--delta", "1"], "BAD_DELTA"),
    (["heat", "{path}", "--t", "nan"], "NONFINITE_TIME"),
    (["frustration", "{path}", "--heuristic", "--seed=-1"], "BAD_SEED"),
    (["verify", "{path}", "--suite", "kato", "--seed=-1"], "BAD_SEED"),
    (["verify", "{path}", "--suite", "coarea", "--trials", "-5"], "BAD_TRIALS"),
    (["cheeger", "{path}", "--heuristic", "--restarts", "-3"], "BAD_RESTARTS"),
    (["frustration", "{path}", "--heuristic", "--restarts", "-5"], "BAD_RESTARTS"),
    (["cheeger", "{path}", "--junk"], "USAGE"),
    (["oracle", "cycle", "--n", "four", "--k", "3", "--j", "1"], "USAGE"),
    ([], "USAGE"),
], ids=["trace_infinite_delta", "subset_not_hex", "oracle_empty_cycle", "oracle_delta_one",
        "heat_nan_time", "frustration_negative_seed", "verify_negative_seed",
        "verify_negative_trials", "cheeger_negative_restarts",
        "frustration_negative_restarts", "unknown_flag", "non_integer_n", "no_command"])
def test_bad_arguments_are_errors(tmp_path, capsys, argv, error):
    path = write_graph(tmp_path, cycle_graph(5, 3, 1))
    code, rep, _ = run(capsys, [a.format(path=path) for a in argv])
    assert code == 1
    assert rep["status"] == "ERROR"
    assert rep["results"]["error"] == error


def test_zero_restarts_are_one_start(tmp_path, capsys):
    # --restarts 0 is valid: the all-zero start alone, as --restarts 1
    path = write_graph(tmp_path, cycle_graph(5, 3, 1))
    reports = []
    for restarts in ("0", "1"):
        code, rep, _ = run(capsys, ["cheeger", path, "--heuristic", "--restarts", restarts])
        assert code == 0, rep
        reports.append(rep["results"])
    assert reports[0] == reports[1]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["cheeger", "--help"]) == 0
    assert "usage: magneto" in capsys.readouterr().out


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process; a usage error or --help leaves
    # it fit for the next call, whose stdout does not change
    import magneto.cli

    assert magneto.cli.build_parser() is magneto.cli.build_parser()
    path = write_graph(tmp_path, cycle_graph(5, 3, 1))
    assert main(["cheeger", path]) == 0
    first = capsys.readouterr().out
    code, rep, _ = run(capsys, ["cheeger", path, "--junk"])
    assert (code, rep["results"]["error"]) == (1, "USAGE")
    assert main(["cheeger", "--help"]) == 0
    capsys.readouterr()
    assert main(["cheeger", path]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("t", ["1e20", "1e308"])
def test_heat_at_large_t_is_finite(tmp_path, capsys, t):
    # the unsigned Laplacian's lowest eigenvalue comes out just below 0, and
    # at t = 1e308 lambda t overflows for the others
    path = write_graph(tmp_path, cycle_graph(5, 3, 1))
    code, rep, _ = run(capsys, ["heat", path, "--t", t, "--unsigned"])
    assert code == 0
    assert np.allclose(rep["results"]["matrix_re"], 0.2, rtol=0.0, atol=1e-12)
    assert rep["results"]["trace"] == pytest.approx(1.0, abs=1e-12)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.fixture(scope="module")
def cycle_path(tmp_path_factory):
    return write_graph(tmp_path_factory.mktemp("graphs"), cycle_graph(5, 3, 1))


GRAPH = "<graph file>"
ARGV = st.one_of(
    st.builds(lambda s: ["frustration", GRAPH, f"--subset={s}"], st.text(max_size=12)),
    st.builds(lambda n, k, j, d: ["oracle", "cycle", f"--n={n}", f"--k={k}", f"--j={j}",
                                  f"--delta={d!r}"],
              st.integers(), st.integers(), st.integers(), st.floats()),
    st.builds(lambda t, unsigned: ["heat", GRAPH, f"--t={t!r}"] + ["--unsigned"] * unsigned,
              st.floats(), st.booleans()),
    st.builds(lambda s: ["frustration", GRAPH, "--heuristic", f"--seed={s}"], st.integers()),
    # an extra token: an unknown flag or positional, or one the command takes;
    # abbreviations of --help would print help instead of a report
    st.builds(lambda cmd, junk: [cmd, GRAPH, junk], st.sampled_from(["frustration", "cheeger"]),
              st.text(max_size=8).filter(lambda a: not a.startswith(("-h", "--h")))),
)


@settings(max_examples=150, deadline=None)
@given(argv=ARGV)
def test_every_run_prints_one_strict_json_line(cycle_path, argv):
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = main([cycle_path if a == GRAPH else a for a in argv])
    out = stdout.getvalue()
    assert code in (0, 1, 2)
    assert out.endswith("\n") and out.count("\n") == 1
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["status"] == {0: "OK", 1: "ERROR", 2: "VIOLATION"}[code]
