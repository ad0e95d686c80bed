"""The suite's own pytest settings: a failing hypothesis test is reported
as a failure, and the session goes on to the next test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    assert True
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    """With every warning an error, hypothesis's failure report must not
    turn into an INTERNALERROR that skips the tests after it."""
    (tmp_path / "test_case.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert proc.stdout.rstrip().splitlines()[-1].startswith("1 failed, 1 passed in ")
