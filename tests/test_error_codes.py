"""Error codes, each from the entry points that check it and that no other
test reaches."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from conftest import circle_cycle, cycle_graph
from magneto import (
    MagnetoError,
    build_graph,
    cartesian_product,
    cheeger_constant,
    heat_kernel,
    heat_kernel_properties_check,
    isoperimetric_constant,
    positivity_check,
    radial_function,
    sector_function,
    verify_sobolev,
)
from magneto.cli import main

EMPTY = build_graph(0, [])
CYCLE = cycle_graph(4, 2, 1)

# code -> {name: call}; a case's test id is "<code>-<name>", so an entry added
# anywhere renames no other test. New entries take a descriptive name; the
# first ones keep the names that pytest once gave them by position.
CASES = {
    "EMPTY_GRAPH": {
        "<lambda>0": lambda: cheeger_constant(EMPTY),
        "<lambda>1": lambda: isoperimetric_constant(EMPTY, 3.0),
        "<lambda>2": lambda: isoperimetric_constant(EMPTY, math.inf, heuristic=True),
    },
    "BAD_EXPONENTS": {"<lambda>": lambda: verify_sobolev(CYCLE, np.ones(4), "cheeger_p1")},  # no h
    "BAD_INPUT": {"<lambda>": lambda: positivity_check(CYCLE, 1.0, [1.0, -0.5, 0.0, 2.0])},
    "BAD_LAMBDA": {
        "<lambda>0": lambda: positivity_check(CYCLE, 0.0, np.ones(4)),
        "<lambda>1": lambda: positivity_check(CYCLE, -1.0, np.ones(4)),
    },
    "BAD_SIGNATURE": {"<lambda>": lambda: build_graph(2, [(0, 1, 1.0, 1)])},
    "BAD_SIZE": {"<lambda>": lambda: build_graph(-1, [])},
    "BAD_SUBSET": {"<lambda>": lambda: CYCLE.as_mask([CYCLE.n])},
    "BAD_T": {
        "<lambda>0": lambda: sector_function(0.5, 0.0, 0.0, 4),
        "<lambda>1": lambda: sector_function(0.5, 1.5, 0.0, 4),
        "<lambda>2": lambda: radial_function(0.5, 0.0),
        "<lambda>3": lambda: radial_function(0.5, math.nan),
    },
    "MIXED_GROUPS": {
        "<lambda>": lambda: cartesian_product(CYCLE, circle_cycle(3, [0.1, 0.2, 0.3])),
    },
    "NEGATIVE_TIME": {
        "<lambda>0": lambda: heat_kernel(CYCLE, -0.5),
        "<lambda>1": lambda: heat_kernel_properties_check(CYCLE, 1.0, 2.0),
        "<lambda>2": lambda: heat_kernel_properties_check(CYCLE, 1.0, -0.5),
    },
    "NOT_A_CYCLE": {
        "<lambda>0": lambda: CYCLE.cycle_signature([0, 1]),  # two vertices
        "<lambda>1": lambda: CYCLE.cycle_signature([0, 2, 3]),  # (0, 2) is no edge
        "<lambda>2": lambda: CYCLE.cycle_signature([0, 1, 0, 1]),  # edge {0, 1} twice
    },
    "NO_SUCH_EDGE": {"<lambda>": lambda: CYCLE.signature(0, 2)},
    "ZERO_CONSTANT": {
        "<lambda>": lambda: verify_sobolev(CYCLE, np.ones(4), "iso_p1", delta=3.0, c_delta=0.0),
    },
}


@pytest.mark.parametrize("code, call", [pytest.param(code, call, id=f"{code}-{name}")
                                        for code, calls in CASES.items()
                                        for name, call in calls.items()])
def test_library_raises_the_code(code, call):
    with pytest.raises(MagnetoError) as err:
        call()
    assert err.value.code == code


@pytest.mark.parametrize("command", [["cheeger"], ["cheeger", "--heuristic"],
                                     ["isoperimetric", "--delta", "3"],
                                     ["isoperimetric", "--delta", "inf"], ["spectrum"]])
def test_commands_report_an_empty_graph(tmp_path, command):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "edges": []}')
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([command[0], str(path), *command[1:]])
    report = json.loads(out.getvalue())
    assert code == 1
    assert report["status"] == "ERROR" and report["results"]["error"] == "EMPTY_GRAPH"
