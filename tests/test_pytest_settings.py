"""The repository's pytest settings report every failure of a run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # under filterwarnings = "error", a deprecation warning raised in
    # hypothesis' report hook used to stop pytest with INTERNALERROR after
    # the first failure, so the passing test never ran
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            str(tmp_path / "test_two.py"),
        ],
        capture_output=True, encoding="utf-8", cwd=tmp_path,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
