"""README's "Library tour" block runs as written and shows what its comments say."""

import ast
import math
import pathlib

import numpy as np
import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def tour_values():
    """Run the tour; return {source of each bare expression: its value}."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            shown[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    return shown


def test_the_library_tour_shows_its_commented_values():
    shown = tour_values()
    root2 = math.sqrt(2.0)
    assert shown.pop("frustration_exact(g, g.full_mask()).value") == 2.0
    minimizer = shown.pop("frustration_exact(g, g.full_mask()).minimizer")
    assert minimizer.dtype == np.int64 and minimizer.tolist() == [0, 0, 0, 0]
    assert shown.pop("cheeger_constant(g).constant") == pytest.approx(0.5, rel=1e-12)
    assert shown.pop("isoperimetric_constant(g, 3.0).constant") == \
        pytest.approx(2.0 / 4.0 ** (2.0 / 3.0), rel=1e-12)
    assert shown.pop("spectral_data(g).eigenvalues") == \
        pytest.approx([2 - root2, 2 - root2, 2 + root2, 2 + root2], abs=1e-12)
    kernel = shown.pop("heat_kernel(g, 1.0)")
    assert kernel.shape == (4, 4) and kernel.dtype == complex
    assert np.array_equal(kernel, kernel.conj().T)
    owner, comps = shown.pop("g.components(g.indicator(0b0101)[None])")
    assert owner.tolist() == [0, 0] and comps.tolist() == [[True, False, False, False],
                                                           [False, False, True, False]]
    assert shown == {}  # every line of the tour is checked here
