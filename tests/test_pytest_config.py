"""The repo's pytest config reports a failing Hypothesis property as one
failed test and runs the tests after it.

pyproject.toml turns every warning into an error.  The hypothesis
plugin's failure report raises a DeprecationWarning (mypy_extensions'
TypedDict) inside a pytest hook, where as an error it ends the whole
session in INTERNALERROR; the config ignores that one warning.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, max_examples=10)
@given(x=st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_property_is_one_failure_and_the_next_test_runs(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert run.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed")
