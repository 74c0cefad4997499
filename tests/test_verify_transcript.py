"""`magneto verify` reproduces a recorded transcript.

``verify_transcript.json`` holds six fixed graphs (two unit cycles, a balanced
graph, two random graphs and a circle-group cycle) and the report of
``verify --suite X --trials T --seed S`` on each of them, for every suite and
T in (0, 1, 17). A report must match its record key for key: ints, bools,
strings and subsets exactly, floats within 1e-12 relative, since the last
bits of a BLAS product may differ between machines. Only the graph path of
``inputs`` is left out. ``python tests/test_verify_transcript.py DIR``
re-records the transcript (writing its graph files under DIR) after a
deliberate change of output.
"""

import io
import json
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from conftest import assert_report_matches, circle_cycle, cycle_graph, random_graph
from magneto import graph_from_json_dict
from magneto.cli import main

FIXTURE = pathlib.Path(__file__).with_name("verify_transcript.json")
SUITES = ("coarea", "sobolev", "kato", "domination", "trace", "product", "all")
TRIALS = (0, 1, 17)


def _verify(path, suite, trials, seed):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["verify", str(path), "--suite", suite, "--trials", str(trials),
                     "--seed", str(seed)])
    report = json.loads(out.getvalue())
    del report["inputs"]["graph"]
    return code, report


def test_verify_reports_match_the_transcript(tmp_path):
    fixture = json.loads(FIXTURE.read_text())
    paths = {}
    for name, data in fixture["graphs"].items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(graph_from_json_dict(data).to_json())
    assert len(fixture["runs"]) == len(paths) * len(SUITES) * len(TRIALS)
    for run in fixture["runs"]:
        code, report = _verify(paths[run["graph"]], run["suite"], run["trials"], run["seed"])
        where = f"{run['graph']} {run['suite']} trials={run['trials']}"
        assert code == run["exit"], where
        assert_report_matches(report, run["report"], where)


def _record(directory):
    rng = np.random.default_rng(2027)
    graphs = {
        "cycle4": cycle_graph(4, 2, 1),
        "cycle5": cycle_graph(5, 3, 1),
        "balanced": random_graph(rng, 6, 3, force_trivial_signature=True),
        "random7": random_graph(rng, 7, 3),
        "random9": random_graph(rng, 9, 4),
        "circle5": circle_cycle(5, [0.3, 1.1, 2.0, 0.0, 4.2], mu=[1.0, 2.0, 0.5, 1.5, 1.0]),
    }
    out = {"graphs": {name: json.loads(g.to_json()) for name, g in graphs.items()}, "runs": []}
    for seed, (name, g) in enumerate(graphs.items()):  # one seed per graph
        path = directory / f"{name}.json"
        path.write_text(g.to_json())
        for suite in SUITES:
            for trials in TRIALS:
                code, report = _verify(path, suite, trials, seed)
                out["runs"].append({"graph": name, "suite": suite, "trials": trials,
                                    "seed": seed, "exit": code, "report": report})
    runs = ",\n".join(json.dumps(run) for run in out["runs"])  # one run a line
    FIXTURE.write_text(f'{{"graphs": {json.dumps(out["graphs"])},\n"runs": [\n{runs}\n]}}\n')


if __name__ == "__main__":
    _record(pathlib.Path(sys.argv[1]))
