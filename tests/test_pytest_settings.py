"""The repo's pytest settings report a failing property test as a failure.

Warnings are errors (pyproject.toml), and the hypothesis plugin raises a
DeprecationWarning while it reports a falsifying example; unless that one
warning is ignored, pytest ends in INTERNALERROR (exit 3) instead.
"""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_failing_property_test_fails_without_crashing(tmp_path):
    shutil.copy(PYPROJECT, tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_property.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out and "x=5" in out
