"""The test configuration itself: a failing test is reported, and the run
goes on to the tests after it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_FIRST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_hypothesis_fails(x):
    assert x < 0


def test_passes():
    pass


def test_fails():
    assert False
'''


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # hypothesis's failure report imports a module that raises a
    # DeprecationWarning; with every warning an error, pytest used to stop
    # there with INTERNALERROR and report only "1 failed"
    (tmp_path / "test_order.py").write_text(FAILING_FIRST)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_order.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "2 failed, 1 passed" in out.stdout, out.stdout[-2000:]
