"""Command-line front end.

Subcommands: probe (semismoothness scaling experiment), project (one-shot
projections), verify (invariant suites), curves (curve/residual data dump).
Exit codes: 0 success, 1 failed check, 2 invalid configuration or parse
failure, 3 solver failure. The SLICEPROJ_LOG environment variable
(error|warn|info|debug, default warn) controls log verbosity; any other
value exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .cones import (make_cone, membership_polar_shadow, normal_curve,
                    polar_curve, curve_step, read_cone_point, write_cone_point)
from .errors import InvalidInputError, NumericFailureError
from .probe import (DEFAULT_FD_STEP, DEFAULT_POINTS, DEFAULT_T_MAX,
                    DEFAULT_T_MIN, probe_semismoothness, report_to_csv,
                    report_to_json, residual_exact)
from .project import (DEFAULT_TOL, project_cone, project_polar,
                      project_slice_dykstra, project_slice_fixedpoint)
from .symmat import N_MAX, N_MIN, read_block_matrix, write_block_matrix
from .verify import run_verify

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


@contextlib.contextmanager
def _logging():
    """Send the sliceproj loggers' records at the SLICEPROJ_LOG level to
    this call's sys.stderr while the call runs. The sliceproj logger is
    configured, not the root logger, so each call in one process honours
    its own level, and the host program's logging is left alone."""
    name = os.environ.get("SLICEPROJ_LOG", "warn")
    level = _LOG_LEVELS.get(name.lower())
    if level is None:
        raise InvalidInputError(f"SLICEPROJ_LOG={name!r} is not one of "
                                f"{'|'.join(_LOG_LEVELS)}")
    logger = logging.getLogger("sliceproj")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = logger.level
    logger.setLevel(level)
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceproj",
        description="Projection and semismoothness laboratory for an "
                    "LMI-representable cone family and its PSD-cone slices.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    n_help = f"cone index, {N_MIN}..{N_MAX}"

    def add_grid_flags(p):
        p.add_argument("--t-min", type=float, default=DEFAULT_T_MIN,
                       help="smallest curve parameter (default %(default)s)")
        p.add_argument("--t-max", type=float, default=DEFAULT_T_MAX,
                       help="largest curve parameter (default %(default)s)")
        p.add_argument("--points", type=int, default=DEFAULT_POINTS,
                       help="grid points (default %(default)s)")

    p_probe = sub.add_parser("probe", help="measure the semismoothness order")
    p_probe.add_argument("--n", type=int, required=True, help=n_help)
    p_probe.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    add_grid_flags(p_probe)
    p_probe.add_argument("--fd-step", type=float, default=DEFAULT_FD_STEP,
                         help="one-sided finite-difference step (numeric "
                              "mode) (default %(default)s)")
    p_probe.add_argument("--out", help="report file (default: stdout)")
    p_probe.add_argument("--format", choices=("csv", "json"), default="csv")

    p_project = sub.add_parser("project", help="run one projection")
    p_project.add_argument("--n", type=int, required=True, help=n_help)
    p_project.add_argument("--target", required=True,
                           choices=("K", "polar", "slice-dykstra",
                                    "slice-fixedpoint"),
                           help="which projector to run")
    p_project.add_argument("--in", dest="input_path", required=True,
                           help="input file (cone point for K/polar, block "
                                "matrix for the slice targets)")
    p_project.add_argument("--out", help="output file for the projected object")
    p_project.add_argument("--tol", type=float, default=DEFAULT_TOL,
                           help="solver residual tolerance, relative to the "
                                "input norm (||q|| or ||X||) (default %(default)s)")

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--n-max", type=int, default=4,
                          help=f"largest cone index exercised, "
                               f"{N_MIN}..{N_MAX} (default %(default)s)")
    p_verify.add_argument("--seed", type=int, default=12345,
                          help="RNG seed for the sampled checks")

    p_curves = sub.add_parser("curves", help="dump curve and residual data")
    p_curves.add_argument("--n", type=int, required=True, help=n_help)
    add_grid_flags(p_curves)
    p_curves.add_argument("--out", help="CSV file (default: stdout)")
    return parser


def _write_output(text: str, path):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(
                f"cannot write {path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_probe(args) -> int:
    model = make_cone(args.n)
    report = probe_semismoothness(
        model, mode=args.mode, t_min=args.t_min, t_max=args.t_max,
        points=args.points, fd_step=args.fd_step)
    text = report_to_csv(report) if args.format == "csv" else report_to_json(report)
    _write_output(text, args.out)
    print(report.summary_line())
    gap = abs(report.fitted_slope - model.lam)
    bound = 0.05 if args.mode == "exact" else 0.1
    return 0 if gap <= bound else 1


def cmd_project(args) -> int:
    model = make_cone(args.n)
    try:
        with open(args.input_path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInputError(
            f"cannot read {args.input_path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(
            f"cannot read {args.input_path}: not a text file") from exc
    project = {"K": project_cone, "polar": project_polar,
               "slice-dykstra": project_slice_dykstra,
               "slice-fixedpoint": project_slice_fixedpoint}[args.target]
    if args.target in ("K", "polar"):
        result, stats = project(model, read_cone_point(text), args.tol)
        out_text = write_cone_point(result)
    else:
        result, stats = project(model, read_block_matrix(text), args.tol)
        out_text = write_block_matrix(result)
    _write_output(out_text, args.out)
    print(json.dumps(stats.to_json_dict()))
    return 0 if stats.converged else 3


def cmd_verify(args) -> int:
    results = run_verify(n_max=args.n_max, seed=args.seed)
    all_ok = True
    for res in results:
        tag = "PASS" if res.ok else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        all_ok = all_ok and res.ok
    return 0 if all_ok else 1


def cmd_curves(args) -> int:
    model = make_cone(args.n)
    if not (0.0 <= args.t_min < args.t_max <= 1.0) or args.points < 2:
        raise InvalidInputError("curves grid needs 0 <= t-min < t-max <= 1 "
                                "and at least 2 points")
    if args.t_min > 0.0:
        grid = np.logspace(math.log10(args.t_min), math.log10(args.t_max),
                           args.points)
    else:
        grid = np.linspace(args.t_min, args.t_max, args.points)
    n = model.n
    names = (["t"]
             + [f"v_{c}" for c in _coord_names(n)]
             + [f"w_{c}" for c in _coord_names(n)]
             + ["inner_vw", "h_norm", "residual_norm"])
    lines = [",".join(names)]
    for t in grid:
        t = float(t)
        v = polar_curve(model, t)
        w = normal_curve(model, t)
        row = ([t] + list(v.coords) + list(w.coords)
               + [float(v.coords @ w.coords), curve_step(model, t).norm(),
                  residual_exact(model, t)[1]])
        lines.append(",".join(format(val, ".17g") for val in row))
        if not membership_polar_shadow((v.x1, v.x2, v.x3), model, tol=1e-9):
            raise NumericFailureError(f"curve point at t={t!r} left the "
                                      "polar shadow")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _coord_names(n: int):
    return (["x1", "x2", "x3"]
            + [f"y{i}" for i in range(1, n)]
            + [f"z{i}" for i in range(1, n)])


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"probe": cmd_probe, "project": cmd_project,
               "verify": cmd_verify, "curves": cmd_curves}[args.command]
    try:
        with _logging():
            return handler(args)
    except (InvalidInputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
