"""Command-line contract: exit codes, formats, round trips, determinism.

The contract is tested in this process through ``cli.main(argv)``; a few
tests at the end start the real entry point, ``python -m sliceproj``.
"""

import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sliceproj
from sliceproj import (BlockSymMatrix, ConePoint, InvalidInputError, cli,
                       cones, make_cone, polar_curve, read_block_matrix,
                       read_cone_point, sample_cone, write_block_matrix,
                       write_cone_point)
from sliceproj.verify import run_verify


def _process_state():
    loggers = (logging.getLogger(), logging.getLogger("sliceproj"))
    return (dict(os.environ), list(sys.argv),
            [(list(lg.handlers), lg.level) for lg in loggers])


def run_cli(*args, check=False, env=None):
    """Run ``sliceproj *args`` through cli.main with env added to the
    environment, and return the exit code and output as subprocess.run
    would."""
    before = _process_state()
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, env or {}),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse: usage errors and --version
            code = exc.code
    # cli.main configures the sliceproj logger for the call alone; a call
    # that left it, the root logger or the environment changed would leak
    # into later tests
    assert _process_state() == before, "cli.main changed the process state"
    proc = subprocess.CompletedProcess(["sliceproj", *args], code,
                                       out.getvalue(), err.getvalue())
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}):\n{proc.stderr}")
    return proc


def test_probe_exact_headline(tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli("probe", "--n", "2", "--mode", "exact", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    assert summary.startswith("n=2 slope=1.33")
    assert "implied_order=" in summary and "target=0.333333" in summary
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,h_norm,residual_norm"
    assert len(lines) == 22  # header + 20 rows + footer
    assert lines[-1].startswith("# slope=")


def test_probe_exact_n6():
    proc = run_cli("probe", "--n", "6", "--mode", "exact")
    assert proc.returncode == 0, proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    slope = float(summary.split("slope=")[1].split()[0])
    assert abs(slope - 64.0 / 63.0) <= 0.02


def test_probe_rejects_small_n():
    proc = run_cli("probe", "--n", "1", "--mode", "exact")
    assert proc.returncode == 2
    assert "n must be an integer in [2, 12], got 1" in proc.stderr


def test_probe_rejects_bad_grid():
    proc = run_cli("probe", "--n", "2", "--t-min", "0.5", "--t-max", "0.1")
    assert proc.returncode == 2
    proc = run_cli("probe", "--n", "2", "--points", "3")
    assert proc.returncode == 2


def test_probe_rejects_infinite_fd_step():
    proc = run_cli("probe", "--n", "2", "--mode", "numeric",
                   "--fd-step", "inf")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "error: fd_step must be finite and positive"]


def test_exact_probe_rejects_bad_fd_step():
    # exact mode ignores the step, and used to exit 0 with a bad one
    for step in ("inf", "-1"):
        proc = run_cli("probe", "--n", "2", "--mode", "exact",
                       "--fd-step", step)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [
            "error: fd_step must be finite and positive"]


def test_probe_rejects_fd_step_below_solver_accuracy():
    # the cone part of the finite-difference solve is within rounding of 0
    # here; it used to exit 2 with fit_exponent's message. The message names the
    # step as given: it once printed 1.00000001e-12 as 1e-12
    for fd_step in ("1e-12", "1.00000001e-12"):
        proc = run_cli("probe", "--n", "2", "--mode", "numeric",
                       "--fd-step", fd_step)
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert re.match(
            rf"solver failure: fd_step={re.escape(fd_step)} is below", lines[0])


def test_failure_messages_name_the_grid_t(monkeypatch):
    # :g would print the grids' last t, 1 - 1e-10, as t=1
    t_max = 0.9999999999
    t = float(np.logspace(np.log10(0.5), np.log10(t_max), 20)[-1])
    assert t != 1.0
    proc = run_cli("probe", "--n", "3", "--mode", "numeric", "--t-min", "0.5",
                   "--t-max", str(t_max))
    assert proc.returncode == 3
    assert proc.stderr.startswith(
        f"solver failure: curve point at t={t!r} is not a polar fixed point")
    # curves: a shadow test that fails only at the grid's last point
    monkeypatch.setattr(cli, "membership_polar_shadow",
                        lambda v, model, tol: v[0] < t)
    proc = run_cli("curves", "--n", "3", "--t-min", "0.5", "--t-max",
                   str(t_max), "--points", "20")
    assert proc.returncode == 3
    assert proc.stderr == (f"solver failure: curve point at t={t!r} left the "
                           "polar shadow\n")


def test_probe_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("probe", "--n", "3", "--format", "json", "--out", str(a), check=True)
    run_cli("probe", "--n", "3", "--format", "json", "--out", str(b), check=True)
    assert a.read_bytes() == b.read_bytes()


def test_probe_json_round_trip(tmp_path):
    out = tmp_path / "report.json"
    run_cli("probe", "--n", "2", "--format", "json", "--out", str(out),
            check=True)
    raw = json.loads(out.read_text())
    model = make_cone(2)
    assert raw["n"] == 2 and raw["mode"] == "exact"
    assert raw["target_lambda"] == model.lam
    assert raw["implied_order"] == raw["fitted_slope"] - 1.0


def test_project_in_set_point_round_trips(tmp_path):
    model = make_cone(2)
    rng = np.random.default_rng(3)
    point = sample_cone(model, rng)
    src = tmp_path / "point.txt"
    dst = tmp_path / "projected.txt"
    src.write_text(write_cone_point(point))
    proc = run_cli("project", "--n", "2", "--target", "K",
                   "--in", str(src), "--out", str(dst))
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["converged"] is True
    back = read_cone_point(dst.read_text())
    assert np.linalg.norm(back.coords - point.coords) <= 1e-8


def test_project_polar_point_maps_to_zero(tmp_path):
    model = make_cone(2)
    src = tmp_path / "v.txt"
    dst = tmp_path / "out.txt"
    src.write_text(write_cone_point(polar_curve(model, 0.4)))
    proc = run_cli("project", "--n", "2", "--target", "K",
                   "--in", str(src), "--out", str(dst))
    assert proc.returncode == 0, proc.stderr
    back = read_cone_point(dst.read_text())
    assert np.linalg.norm(back.coords) <= 1e-8


def test_project_polar_target_kills_members(tmp_path):
    model = make_cone(3)
    rng = np.random.default_rng(11)
    point = sample_cone(model, rng)
    src = tmp_path / "member.txt"
    dst = tmp_path / "out.txt"
    src.write_text(write_cone_point(point))
    proc = run_cli("project", "--n", "3", "--target", "polar",
                   "--in", str(src), "--out", str(dst))
    assert proc.returncode == 0, proc.stderr
    back = read_cone_point(dst.read_text())
    assert np.linalg.norm(back.coords) <= 1e-8


def test_project_slice_targets_agree(tmp_path):
    rng = np.random.default_rng(5)
    mat = BlockSymMatrix(2, rng.standard_normal((3, 3)))
    src = tmp_path / "mat.txt"
    src.write_text(write_block_matrix(mat))
    outs = {}
    for target in ("slice-dykstra", "slice-fixedpoint"):
        dst = tmp_path / f"{target}.txt"
        proc = run_cli("project", "--n", "2", "--target", target,
                       "--in", str(src), "--out", str(dst))
        assert proc.returncode == 0, proc.stderr
        outs[target] = read_block_matrix(dst.read_text())
    gap = np.linalg.norm(outs["slice-dykstra"].blocks
                         - outs["slice-fixedpoint"].blocks)
    assert gap <= 1e-5


def test_project_parse_failure(tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("2\n1.0 2.0\n")  # too few coordinates
    proc = run_cli("project", "--n", "2", "--target", "K", "--in", str(src))
    assert proc.returncode == 2
    # the index is checked before the entry count is computed from it: a
    # first line of -1 used to report "expected -1 coordinates"
    index = "error: n must be an integer in [2, 12], got {}"
    first_line = "error: first line must hold the cone index n"
    for first, want in (("-1", index.format(-1)), ("0", index.format(0)),
                        ("2.0", first_line), ("2 3", first_line)):
        src.write_text(f"{first}\n1 2 3\n")
        for target in ("K", "slice-dykstra"):
            proc = run_cli("project", "--n", "2", "--target", target,
                           "--in", str(src))
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr.strip().splitlines() == [want]
    proc = run_cli("project", "--n", "2", "--target", "K",
                   "--in", str(tmp_path / "missing.txt"))
    assert proc.returncode == 2


def test_project_rejects_non_finite_block_matrix(tmp_path):
    src = tmp_path / "nan.txt"
    src.write_text("2\nnan 0 0\n1 0 1\n1 0 1\n")
    proc = run_cli("project", "--n", "2", "--target", "slice-dykstra",
                   "--in", str(src))
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines() == [
        "error: BlockSymMatrix entries must be finite"]


def test_project_rejects_overflowing_input_norm(tmp_path):
    # finite entries whose norm exceeds the largest double: target K used
    # to print q itself as a certified answer
    src = tmp_path / "huge.txt"
    src.write_text("2\n" + " ".join(["-1.5e308"] * 5) + "\n")
    proc = run_cli("project", "--n", "2", "--target", "K", "--in", str(src))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "error: input norm exceeds the largest double"]


def test_project_unreadable_input(tmp_path):
    proc = run_cli("project", "--n", "2", "--target", "K",
                   "--in", str(tmp_path))
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith("error: cannot read")


@pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                    reason="file permissions do not bind this user")
def test_project_input_without_read_permission(tmp_path):
    src = tmp_path / "locked.txt"
    src.write_text(write_cone_point(polar_curve(make_cone(2), 0.5)))
    src.chmod(0)
    proc = run_cli("project", "--n", "2", "--target", "K", "--in", str(src))
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith("error: cannot read")


@pytest.mark.parametrize("flag", ["--tol"])
def test_project_rejects_non_finite_solver_knobs(tmp_path, flag):
    src = tmp_path / "q.txt"
    src.write_text(write_cone_point(polar_curve(make_cone(2), 0.5)))
    proc = run_cli("project", "--n", "2", "--target", "K", "--in", str(src),
                   flag, "inf")
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith(f"error: {flag[2:]} must")


def test_project_has_no_max_iter_flag(tmp_path):
    # every solve's iteration budget is fixed; --tol is the one solver flag
    src = tmp_path / "q.txt"
    src.write_text(write_cone_point(polar_curve(make_cone(2), 0.5)))
    proc = run_cli("project", "--n", "2", "--target", "K", "--in", str(src),
                   "--max-iter", "10")
    assert proc.returncode == 2
    assert "unrecognized arguments: --max-iter 10" in proc.stderr


def test_project_tol_reaches_every_target(tmp_path):
    # on these inputs every target ends above 1e-12 at the default tol, so
    # a target that dropped --tol would report a converged residual above it
    q = ConePoint(3, np.random.default_rng(47).standard_normal(7))
    X = BlockSymMatrix(3, np.random.default_rng(47).standard_normal((5, 3)))
    (tmp_path / "q.txt").write_text(write_cone_point(q))
    (tmp_path / "X.txt").write_text(write_block_matrix(X))
    for target in ("K", "polar", "slice-dykstra", "slice-fixedpoint"):
        src = tmp_path / ("q.txt" if target in ("K", "polar") else "X.txt")
        results = []
        for tol in ([], ["--tol", "1e-12"]):
            proc = run_cli("project", "--n", "3", "--target", target,
                           "--in", str(src), "--out", str(tmp_path / "out"),
                           *tol)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        default, tight = results
        assert default["converged"] and default["final_residual"] > 1e-12
        assert tight["final_residual"] <= 1e-12 or not tight["converged"], (
            target, tight)


def test_project_dimension_mismatch(tmp_path):
    model = make_cone(3)
    src = tmp_path / "n3.txt"
    src.write_text(write_cone_point(polar_curve(model, 0.5)))
    proc = run_cli("project", "--n", "2", "--target", "K", "--in", str(src))
    assert proc.returncode == 2
    assert "n=" in proc.stderr


def test_curves_csv_contract(tmp_path):
    out = tmp_path / "curves.csv"
    proc = run_cli("curves", "--n", "2", "--t-min", "1e-4", "--t-max", "1e-1",
                   "--points", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[-3:] == ["inner_vw", "h_norm", "residual_norm"]
    assert len(lines) == 6
    inner_idx = header.index("inner_vw")
    for line in lines[1:]:
        vals = [float(tok) for tok in line.split(",")]
        assert abs(vals[inner_idx]) <= 1e-12


def test_curves_endpoints_rows(tmp_path):
    out = tmp_path / "curves.csv"
    for n in (2, 12):
        run_cli("curves", "--n", str(n), "--t-min", "0", "--t-max", "1",
                "--points", "3", "--out", str(out), check=True)
        lines = out.read_text().strip().splitlines()
        first = [float(tok) for tok in lines[1].split(",")]
        last = [float(tok) for tok in lines[-1].split(",")]
        assert first[0] == 0.0 and last[0] == 1.0
        # the residual is 0 at t = 0 and 1 / ||w(1)|| = 1 / sqrt(n + 1) at 1
        assert lines[1].split(",")[-1] == "0"
        assert last[-1] == 1.0 / np.sqrt(n + 1)
        if n == 2:
            # v(0) = (0, 1, -1, 0, 0) and w(0) = (0, 1, 1, 0, 1) ...
            assert first[1:6] == [0.0, 1.0, -1.0, 0.0, 0.0]
            assert first[6:11] == [0.0, 1.0, 1.0, 0.0, 1.0]
            # ... and v(1) = (1, 0, -1, 0, 0) and w(1) = (1, 0, 1, 1, 0)
            assert last[1:6] == [1.0, 0.0, -1.0, 0.0, 0.0]
            assert last[6:11] == [1.0, 0.0, 1.0, 1.0, 0.0]


def test_curves_residuals_match_probe(tmp_path):
    curves_out = tmp_path / "curves.csv"
    probe_out = tmp_path / "probe.csv"
    run_cli("curves", "--n", "3", "--points", "8", "--out", str(curves_out),
            check=True)
    run_cli("probe", "--n", "3", "--points", "8", "--out", str(probe_out),
            check=True)
    curve_lines = curves_out.read_text().strip().splitlines()
    probe_lines = probe_out.read_text().strip().splitlines()
    header = curve_lines[0].split(",")
    idx = header.index("residual_norm")
    curve_res = [line.split(",")[idx] for line in curve_lines[1:]]
    probe_res = [line.split(",")[2] for line in probe_lines[1:-1]]
    assert curve_res == probe_res  # identical 17-digit serialization


def test_curves_invalid_grid():
    proc = run_cli("curves", "--n", "2", "--t-min", "0.9", "--t-max", "0.2")
    assert proc.returncode == 2


def test_verify_passes():
    proc = run_cli("verify", "--n-max", "12")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS") for line in lines)


def test_verify_detects_injected_defect(monkeypatch, capsys):
    def broken_gap(x, y, p):
        # pairs p with the wrong conjugate exponent
        q = p / (p - 1.0) + 0.05
        return float(np.sum(np.abs(x) ** p) ** (1.0 / p)
                     * np.sum(np.abs(y) ** q) ** (1.0 / q)
                     - np.sum(np.abs(x * y)))

    monkeypatch.setattr(cones, "holder_gap", broken_gap)
    assert cli.main(["verify", "--n-max", "3"]) == 1
    assert any(line.startswith("FAIL holder") for line in
               capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("n_max", ["0", "13"])
def test_verify_rejects_out_of_range_n_max(n_max):
    proc = run_cli("verify", "--n-max", n_max)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        f"error: n_max must be an integer in [2, 12], got {n_max}"]


def test_verify_rejects_negative_seed():
    proc = run_cli("verify", "--seed", "-5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "error: seed must be a non-negative integer, got -5"]


@pytest.mark.parametrize("kwargs", [{"n_max": 3.5}, {"n_max": True},
                                    {"seed": True}, {"seed": 1.0}])
def test_run_verify_rejects_non_integer_arguments(kwargs):
    with pytest.raises(InvalidInputError):
        run_verify(**kwargs)


@pytest.mark.parametrize("command", ["probe", "project", "curves"])
def test_out_to_directory_is_an_input_error(tmp_path, command):
    args = {"probe": ("--points", "5"), "curves": ("--points", "5"),
            "project": ("--target", "K", "--in", str(tmp_path / "q.txt"))}
    (tmp_path / "q.txt").write_text(
        write_cone_point(polar_curve(make_cone(2), 0.5)))
    proc = run_cli(command, "--n", "2", *args[command], "--out", str(tmp_path))
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        f"error: cannot write {tmp_path}: "), proc.stderr


def test_unknown_log_level_is_rejected():
    proc = run_cli("curves", "--n", "2", "--points", "3",
                   env={"SLICEPROJ_LOG": "bogus"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "error: SLICEPROJ_LOG='bogus' is not one of error|warn|info|debug"]
    # the accepted names are case-insensitive
    proc = run_cli("curves", "--n", "2", "--points", "3",
                   env={"SLICEPROJ_LOG": "INFO"})
    assert proc.returncode == 0, proc.stderr


def _debug_line(stats):
    """README's SLICEPROJ_LOG=debug line of a K projection with these
    printed stats."""
    return ("DEBUG sliceproj.project: cone projection: "
            f"{stats['exit_reason']} after {stats['iterations']} "
            f"iterations at residual {stats['final_residual']:.3e}")


def test_each_call_honours_its_own_log_level(tmp_path):
    # successive calls in one process: the debug call logs its solve's
    # exit line to its own stderr, and the warn calls around it log nothing
    src = tmp_path / "q.txt"
    src.write_text(write_cone_point(
        ConePoint(2, np.random.default_rng(2).standard_normal(5))))
    args = ("project", "--n", "2", "--target", "K", "--in", str(src))
    quiet = run_cli(*args, check=True, env={"SLICEPROJ_LOG": "warn"})
    loud = run_cli(*args, check=True, env={"SLICEPROJ_LOG": "debug"})
    again = run_cli(*args, check=True, env={"SLICEPROJ_LOG": "warn"})
    assert quiet.stderr == again.stderr == ""
    stats = json.loads(loud.stdout.strip().splitlines()[-1])
    assert loud.stderr.splitlines() == [_debug_line(stats)]


@pytest.mark.parametrize("args", [("probe", "--n", "2"), ("verify",)])
def test_jobs_flag_is_gone(args):
    proc = run_cli(*args, "--jobs", "2")
    assert proc.returncode == 2
    assert "unrecognized arguments: --jobs 2" in proc.stderr


@pytest.mark.parametrize("flag", [("--tol", "1e-9"), ("--max-iter", "10")])
def test_probe_has_no_solver_flags(flag):
    # the probe's solves run at fixed accuracies; fd_step sets its accuracy
    proc = run_cli("probe", "--n", "2", "--mode", "numeric", *flag)
    assert proc.returncode == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in proc.stderr


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0


# The tests below start the real entry point in a child interpreter: only
# there do `python -m sliceproj` (__main__.py's sys.exit(main())), the exit
# status the shell sees, and cli._setup_logging's handler on a fresh root
# logger run. Each start costs about 0.7 s, so they stay few.

# the child interpreter imports the package from the same place this one did
_SRC = str(Path(sliceproj.__file__).resolve().parents[1])
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def run_entry_point(*args, env=None):
    return subprocess.run([sys.executable, "-m", "sliceproj", *args],
                          capture_output=True, text=True,
                          env={**_ENV, **(env or {})})


def test_entry_point_version():
    proc = run_entry_point("--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == sliceproj.__version__


def test_entry_point_input_error():
    proc = run_entry_point("probe", "--n", "1", "--mode", "exact")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "error: n must be an integer in [2, 12], got 1"]


def test_entry_point_solver_failure():
    proc = run_entry_point("probe", "--n", "2", "--mode", "numeric",
                           "--fd-step", "1e-12")
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver failure: ")


def test_entry_point_unknown_log_level():
    proc = run_entry_point("curves", "--n", "2", "--points", "3",
                           env={"SLICEPROJ_LOG": "bogus"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "error: SLICEPROJ_LOG='bogus' is not one of error|warn|info|debug"]


def test_entry_point_debug_log(tmp_path):
    # README: at debug every iterative solve logs one line when it stops,
    # with its exit reason, iteration count and residual
    src = tmp_path / "q.txt"
    src.write_text(write_cone_point(
        ConePoint(2, np.random.default_rng(2).standard_normal(5))))
    proc = run_entry_point("project", "--n", "2", "--target", "K",
                           "--in", str(src), env={"SLICEPROJ_LOG": "debug"})
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["converged"] is True
    assert proc.stderr.strip().splitlines() == [_debug_line(stats)]
