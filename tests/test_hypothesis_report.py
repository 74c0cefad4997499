"""A failing property test reports its falsifying example under the suite's
own configuration (warnings filters and conftest), instead of ending the
session in an INTERNALERROR."""

import os
import pathlib
import subprocess
import sys

import magneto

TESTS = pathlib.Path(__file__).resolve().parent
FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_given_test_prints_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    src = pathlib.Path(magneto.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(src)]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-p", "conftest",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_fails.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example: test_fails(" in output, output
    assert "INTERNALERROR" not in output, output
