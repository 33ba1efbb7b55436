"""A failing property test must report its falsifying example. The repo's
pytest settings turn warnings into errors, and a warning raised inside the
hypothesis plugin's report hook would end the run in INTERNALERROR instead."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example: test_fails(" in out
    assert "INTERNALERROR" not in out
