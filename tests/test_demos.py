"""Smoke test: every demo script runs to completion without stderr output."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    # in this process, as `python demo.py` would run it; a warning is an
    # error here (pytest's filterwarnings), so it fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runpy.run_path(str(demo), run_name="__main__")
    assert err.getvalue() == ""
    assert out.getvalue()
