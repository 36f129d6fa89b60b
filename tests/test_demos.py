"""Smoke test: every demo script runs to completion without stderr output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import sliceproj

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# as in test_cli: the child interpreter imports the package from the same
# place this one did
_SRC = str(Path(sliceproj.__file__).resolve().parents[1])
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
