"""The subset-search commands reproduce a recorded transcript.

``search_transcript.json`` holds thirteen fixed graphs (two unit cycles, one
of them with a non-unit measure, a disconnected graph, a balanced graph, two
random graphs, two copies of one weighted K4, the empty graph, the two
disjoint unions of ``UNIONS`` and the three S^1 graphs of ``CIRCLES``) and
the report of every command in ``COMMANDS`` on each cyclic nonempty one but
the unions, of ``UNION_COMMANDS`` on the unions, of ``HEURISTIC_COMMANDS`` on
every nonempty one, plus the error lines of ``ERRORS``. A report must match its
record key for key as in ``tests/test_verify_transcript.py``; only the graph
path of ``inputs`` is left out. The heuristic's ties do not depend on the
BLAS build, so its searches are recorded as well; ``tests/heuristic_oracle.py``
pins their tie-breaking. ``python tests/test_search_transcript.py DIR`` re-records
the transcript (writing its graph files under DIR) after a deliberate change of
output.
"""

import io
import json
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

import math

import numpy as np

from conftest import (
    assert_report_matches,
    circle_cycle,
    circle_union,
    cycle_graph,
    k3k4_union,
    k4_union,
    random_graph,
)
from magneto import GroupElement, build_graph, cartesian_product, graph_from_json_dict
from magneto.cli import main

FIXTURE = pathlib.Path(__file__).with_name("search_transcript.json")
COMMANDS = (
    ["cheeger"],
    ["cheeger", "--profile"],
    ["isoperimetric", "--delta", "3"],
    ["isoperimetric", "--delta", "1.5"],
    ["isoperimetric", "--delta", "inf"],
    ["frustration"],
)
# two copies of a K4 and a frustrated triangle, and a relabelled K3 and K4 at
# k = 3: their disconnected subsets are valued one component at a time, in
# every profile entry and wherever a union can win
UNIONS = ("k4triangle", "k3k4")
# the S^1 graphs, which only the heuristic commands can search
CIRCLES = ("circle5", "circleunion", "circletorus")
UNION_COMMANDS = (
    ["cheeger", "--profile"],
    ["isoperimetric", "--delta", "1.5"],
)
HEURISTIC_COMMANDS = (
    ["cheeger", "--heuristic"],
    ["cheeger", "--heuristic", "--profile"],
    ["isoperimetric", "--delta", "1.5", "--heuristic", "--restarts", "2", "--seed", "3"],
    ["frustration", "--heuristic"],
)
# EMPTY_GRAPH, BAD_DELTA, BUDGET_EXCEEDED (the subset limit) and
# CONTINUOUS_GROUP (an exact search over S^1)
ERRORS = (
    ("empty", ["cheeger"]),
    ("empty", ["isoperimetric", "--delta", "3"]),
    ("cycle4", ["isoperimetric", "--delta", "1"]),
    ("random8", ["cheeger", "--subset-limit", "3"]),
    ("random8", ["isoperimetric", "--delta", "3", "--subset-limit", "3"]),
    ("circle5", ["cheeger"]),
)


def _run(command, path):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([command[0], str(path), *command[1:]])
    report = json.loads(out.getvalue())
    del report["inputs"]["graph"]
    return code, report


def _cases(names):
    """(graph, command) of each recorded run, in order."""
    plain = [name for name in names if name not in (*UNIONS, *CIRCLES, "empty")]
    nonempty = [name for name in names if name != "empty"]
    return ([(name, c) for name in plain for c in COMMANDS]
            + [(name, c) for name in UNIONS for c in UNION_COMMANDS]
            + [(name, c) for name in nonempty for c in HEURISTIC_COMMANDS] + list(ERRORS))


def test_search_reports_match_the_transcript(tmp_path):
    fixture = json.loads(FIXTURE.read_text())
    paths = {}
    for name, data in fixture["graphs"].items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(graph_from_json_dict(data).to_json())
    assert [(run["graph"], run["command"]) for run in fixture["runs"]] == _cases(paths)
    for run in fixture["runs"]:
        code, report = _run(run["command"], paths[run["graph"]])
        where = f"{run['graph']} {' '.join(run['command'])}"
        assert code == run["exit"], where
        assert_report_matches(report, run["report"], where)


def _record(directory):
    rng = np.random.default_rng(2028)
    xi = GroupElement.cyclic(1, 3)
    one = GroupElement.identity("cyclic", 3)
    # a frustrated triangle and a balanced path, with no edge between them
    disconnected = build_graph(
        6, [(0, 1, 1.5, one), (1, 2, 0.5, one), (2, 0, 2.0, xi), (3, 4, 1.0, xi), (4, 5, 0.7, xi)],
        [1.0, 0.5, 2.0, 1.0, 1.5, 0.8],
    )
    graphs = {
        "cycle4": cycle_graph(4, 2, 1),
        "cycle5": cycle_graph(5, 3, 1, mu=[1.0, 2.0, 0.5, 1.5, 1.0]),
        "disconnected": disconnected,
        "balanced": random_graph(rng, 6, 3, force_trivial_signature=True),
        "random7": random_graph(rng, 7, 3),
        "random8": random_graph(rng, 8, 4),
        "k4union": k4_union(),
        "empty": build_graph(0, []),
        "k4triangle": k4_union(triangle=True),
        "k3k4": k3k4_union(),
        # a 5-cycle with S^1 angles and a chord: two frustrated cycles
        "circle5": build_graph(
            5,
            [(u, (u + 1) % 5, w, GroupElement.circle(a))
             for u, (w, a) in enumerate([(1.0, 0.3), (1.5, 1.1), (0.8, 0.0), (1.2, 2.0), (1.0, 0.7)])]
            + [(0, 2, 0.9, GroupElement.circle(2.5))],
            [1.0, 1.5, 0.5, 1.0, 2.0],
        ),
        # a triangle and a 4-cycle, disjoint, so subsets with two components
        "circleunion": circle_union(np.random.default_rng(23)),
        # a unit c3 x c4 torus whose angles include multiples of pi/2, which tie
        "circletorus": cartesian_product(circle_cycle(3, [0.0, math.pi / 2, 1.0]),
                                         circle_cycle(4, [math.pi, 0.3, 0.0, 2.1])),
    }
    out = {"graphs": {name: json.loads(g.to_json()) for name, g in graphs.items()}, "runs": []}
    paths = {}
    for name, g in graphs.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(g.to_json())
    for name, command in _cases(graphs):
        code, report = _run(command, paths[name])
        out["runs"].append({"graph": name, "command": command, "exit": code, "report": report})
    runs = ",\n".join(json.dumps(run) for run in out["runs"])  # one run a line
    FIXTURE.write_text(f'{{"graphs": {json.dumps(out["graphs"])},\n"runs": [\n{runs}\n]}}\n')


if __name__ == "__main__":
    _record(pathlib.Path(sys.argv[1]))
