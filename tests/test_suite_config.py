"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # with warnings as errors, the report of a falsifying example must not
    # end the session with an INTERNALERROR
    (tmp_path / "test_throwaway.py").write_text(_FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed" in out and run.returncode == 1, out
