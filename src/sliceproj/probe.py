"""Semismoothness-order measurement along the polar cone's boundary curve.

The probed quantity is the directional-derivative residual of the polar
projection at the curve's base point: with h(t) the curve step, the
residual r(t) = h - Pi'(base; h) scales like t^lam while ||h|| scales like
t, so the fitted slope of log r against log t recovers lam and the implied
semismoothness order is slope - 1, to be compared against lam - 1. Exact
mode evaluates the residual's closed form, :func:`residual_exact`, the
package's one copy of it; numeric mode reproduces the residual from
projection solves and a one-sided finite difference, with no use of the
closed form. fd_step sets the numeric probe's accuracy, so it has no
solver knobs: the finite-difference solves run at tol 1e-13, since their
cone part is divided by fd_step, and the fixed-point checks and the
residual gate at the projectors' default tol, 1e-9. A step so small that
a finite-difference solve's cone part is within 8 eps ||q|| of 0, where
rounding q = base + fd_step h alone can move it, raises
NumericFailureError instead of being fitted.

The projection onto the cone itself shares the polar projection's order;
this transfer is recorded here as a documented claim, while measurements
are made on the polar side only.

Numeric mode walks the grid as a path, from t_max down to t_min, passing
each cone solve's certificate (its answer, active set and multipliers) on:
each finite-difference solve first tries the previous grid point's
certificate, which usually certifies at once, and is the cold solve when
it does not.
Each base fixed-point check starts from its grid point's finite-difference
certificate, and its own certificate (the apex) is dropped, so it never
becomes the next start. The walk is serial and deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cones import (ChainCone, ConePoint, _check_t, _curve_step_arr, _is_int,
                    _polar_curve_arr, normal_curve, step_normal_inner)
from .errors import InvalidInputError, NumericFailureError
from .project import _EPS, DEFAULT_TOL, _check_positive, _norm, _project_cone_arr
from .symmat import _check_index, _is_real, _real_array

DEFAULT_T_MIN = 1e-4
DEFAULT_T_MAX = 1e-1
DEFAULT_POINTS = 20
DEFAULT_FD_STEP = 1e-6
PROBE_MODES = ("exact", "numeric")

# the finite-difference solves' tol: their cone part is divided by fd_step.
# The fixed-point checks run at DEFAULT_TOL, which also gates the
# finite-difference solves
_FD_TOL = 1e-13
# rounding q = base + fd_step h moves the cone projection by up to about
# eps ||q||, so a finite-difference cone part within _FD_FLOOR eps ||q|| of
# 0 is not resolved (the default grid's smallest is 17 eps ||q||, at n = 12)
_FD_FLOOR = 8


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Grid of step sizes with the measured residual scaling.

    implied_order is the property fitted_slope - 1; target_lambda is the
    conjugate exponent the slope should recover. n is a cone index, mode
    is in PROBE_MODES, and every number a finite real: valid JSON.
    """

    n: int
    mode: str
    t_grid: np.ndarray
    h_norms: np.ndarray
    residual_norms: np.ndarray
    fitted_slope: float
    target_lambda: float

    def __post_init__(self):
        object.__setattr__(self, "n", _check_index(self.n))
        for name in ("fitted_slope", "target_lambda"):
            value = getattr(self, name)
            if not _is_real(value) or not math.isfinite(value):
                raise InvalidInputError(f"{name} must be a finite real")
            object.__setattr__(self, name, float(value))
        for name in ("t_grid", "h_norms", "residual_norms"):
            arr = _real_array(getattr(self, name), f"{name} must be real")
            if arr.ndim != 1 or not np.isfinite(arr).all():
                raise InvalidInputError(f"{name} must be a finite vector")
            object.__setattr__(self, name, arr)
        if not (len(self.t_grid) == len(self.h_norms) == len(self.residual_norms)):
            raise InvalidInputError("report vectors must share one length")
        if len(self.t_grid) < 5:
            raise InvalidInputError("report needs at least 5 grid points")
        if np.any(np.diff(self.t_grid) <= 0.0):
            raise InvalidInputError("t_grid must be strictly increasing")
        if self.mode not in PROBE_MODES:
            raise InvalidInputError(f"unknown probe mode {self.mode!r}")

    @property
    def implied_order(self) -> float:
        return self.fitted_slope - 1.0

    def summary_line(self) -> str:
        gap = abs(self.fitted_slope - self.target_lambda)
        return (f"n={self.n} slope={self.fitted_slope:.6g} "
                f"implied_order={self.implied_order:.6g} "
                f"target={self.target_lambda - 1.0:.6g} |delta|={gap:.3g}")


def residual_exact(model: ChainCone, t: float):
    """Closed-form residual vector and norm at curve parameter t in [0, 1].

    The residual is the normal-ray component of the curve step h: the normal
    cone at the base point is the ray spanned by the generator w, so
    h - Pi'(base; h) = max(0, <h, w>) / ||w||^2 * w, and <h, w> is the
    nonnegative 1 - (1 - t^lam)^(1/kappa) (evaluated cancellation-safely).
    The formula is continuous on the closed interval: 0 at t = 0 and
    1 / ||w(1)|| at t = 1. Raises InvalidInputError for t outside [0, 1].
    """
    w = normal_curve(model, t)
    inner = step_normal_inner(model, t)
    w_sq = float(w.coords @ w.coords)
    vec = ConePoint(model.n, (inner / w_sq) * w.coords)
    return vec, inner / math.sqrt(w_sq)


def residual_numeric(model: ChainCone, t: float,
                     fd_step: float = DEFAULT_FD_STEP):
    """Measure the residual vector and norm at t in (0, 1) from projections
    alone, in the shape :func:`residual_exact` returns.

    Asserts that both curve endpoints are fixed points of the polar
    projection, then takes a one-sided finite difference of the polar
    projection (the directional derivative of a projection is a one-sided
    object, so no central differencing). The solves' accuracies are fixed,
    as the module docstring says.
    """
    t = _check_t(t)
    if not 0.0 < t < 1.0:
        raise InvalidInputError("residual_numeric requires t strictly inside (0, 1)")
    _check_positive(fd_step, "fd_step")
    _check_polar_fixed_point(model, 0.0, _polar_curve_arr(model, 0.0))
    r_fd, norm, _ = _residual_at(model, t, _curve_step_arr(model, t), fd_step)
    return ConePoint(model.n, r_fd), norm


def _check_polar_fixed_point(model: ChainCone, t: float, base: np.ndarray,
                             held: tuple | None = None):
    """Raise unless base, the coordinates of polar_curve(t), is a fixed
    point of the polar projection, i.e. its cone part (the drift, by
    Moreau) vanishes. held is passed to the cone solve."""
    cone_part, stats, _ = _project_cone_arr(model, base, DEFAULT_TOL, held)
    drift = float(np.linalg.norm(cone_part))
    if drift > 10.0 * DEFAULT_TOL:
        raise NumericFailureError(
            f"curve point at t={t!r} is not a polar fixed point "
            f"(drift {drift:.3e})", stats=stats)


def _residual_at(model: ChainCone, t: float, h: np.ndarray, fd_step: float,
                 held: tuple | None = None):
    """The finite-difference residual vector, its norm and the
    finite-difference solve's certificate at t, given the coordinates h of
    curve_step(t), on checked arguments, without the t = 0 fixed-point
    check, which does not depend on t.

    The finite-difference solve runs at _FD_TOL from held, gated at
    DEFAULT_TOL; the base check starts from its certificate.
    """
    # via the Moreau complement: the polar projection of base + s h equals
    # the input minus its cone projection, so the residual reduces to
    # Pi_cone(base + s h) / s
    base = _polar_curve_arr(model, t)
    probe_point = base + fd_step * h
    cone_part, stats, cert = _project_cone_arr(model, probe_point, _FD_TOL, held)
    if stats.final_residual > DEFAULT_TOL:
        raise NumericFailureError(
            f"cone projection at t={t!r} reached residual "
            f"{stats.final_residual:.3e} > tol {DEFAULT_TOL:.1e}", stats=stats)
    _check_polar_fixed_point(model, t, base, cert)
    # a step below the solve's accuracy leaves a cone part that would be
    # fitted as data: exactly 0, or one whose scaled norm overflows, or one
    # within _FD_FLOOR eps ||q|| of 0, which rounding q alone can move
    below = f"fd_step={fd_step!r} is below the cone solve's accuracy at t={t!r}"
    with np.errstate(over="ignore"):
        r_fd = cone_part / fd_step
        norm = float(np.linalg.norm(r_fd))
    if not 0.0 < norm < math.inf:
        raise NumericFailureError(
            f"{below}: the finite-difference residual vanishes or overflows",
            stats=stats)
    floor = _FD_FLOOR * _EPS * _norm(probe_point)
    if _norm(cone_part) <= floor:
        raise NumericFailureError(
            f"{below}: its cone part is within {_FD_FLOOR} eps ||q|| of 0",
            stats=stats)
    return r_fd, norm, cert


def fit_exponent(t_grid, residual_norms):
    """Ordinary least squares of log residual against log t.

    Returns (slope, intercept, max_abs_log_residual_deviation); the last is
    the worst-case fit deviation in log space.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    residual_norms = np.asarray(residual_norms, dtype=float)
    if t_grid.shape != residual_norms.shape or t_grid.ndim != 1:
        raise InvalidInputError("fit_exponent requires matching 1-d grids")
    if len(t_grid) < 5:
        raise InvalidInputError("fit_exponent requires at least 5 points")
    if not (np.all(np.isfinite(t_grid)) and np.all(np.isfinite(residual_norms))):
        raise InvalidInputError("fit_exponent requires finite values")
    if np.any(residual_norms <= 0.0):
        raise InvalidInputError("fit_exponent requires positive residuals")
    if np.any(t_grid <= 0.0):
        raise InvalidInputError("fit_exponent requires positive t values")
    x = np.log(t_grid)
    y = np.log(residual_norms)
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    deviation = float(np.max(np.abs(y - (slope * x + intercept))))
    return float(slope), float(intercept), deviation


def probe_semismoothness(model: ChainCone, mode: str = "exact",
                         t_min: float = DEFAULT_T_MIN,
                         t_max: float = DEFAULT_T_MAX,
                         points: int = DEFAULT_POINTS,
                         fd_step: float = DEFAULT_FD_STEP) -> ProbeReport:
    """Run the scaling probe on a log-spaced grid and fit the exponent.

    Exact mode uses the closed-form residual; numeric mode uses the
    finite difference of :func:`residual_numeric`, checking the
    shared t = 0 endpoint once for the whole grid and starting each grid
    point's solves from the next larger t's certificate; the solves'
    accuracies are fixed (module docstring). The implied order is the
    fitted slope minus one, reported against lam - 1 (since the step norm
    is of order t, which the report's h_norms let callers verify).
    """
    if mode not in PROBE_MODES:
        raise InvalidInputError(f"unknown probe mode {mode!r}")
    t_min, t_max = _check_t(t_min, "t_min"), _check_t(t_max, "t_max")
    if not 0.0 < t_min < t_max < 1.0:
        raise InvalidInputError("grid endpoints must satisfy 0 < t_min < t_max < 1")
    if not _is_int(points) or points < 5:
        raise InvalidInputError(f"points must be an integer >= 5, got {points!r}")
    _check_positive(fd_step, "fd_step")
    t_grid = np.logspace(math.log10(t_min), math.log10(t_max), points)
    h = [_curve_step_arr(model, float(t)) for t in t_grid]
    h_norms = np.array([math.hypot(*step) for step in h])

    if mode == "exact":
        residuals = np.array([residual_exact(model, t)[1] for t in t_grid])
    else:
        # the t = 0 endpoint is the same for every grid point: check it once
        _check_polar_fixed_point(model, 0.0, _polar_curve_arr(model, 0.0))
        held = None
        residuals = np.empty(points)
        for i in reversed(range(points)):
            _, residuals[i], held = _residual_at(model, float(t_grid[i]),
                                                 h[i], fd_step, held)

    slope, _, _ = fit_exponent(t_grid, residuals)
    return ProbeReport(
        n=model.n,
        mode=mode,
        t_grid=t_grid,
        h_norms=h_norms,
        residual_norms=residuals,
        fitted_slope=slope,
        target_lambda=model.lam,
    )


def report_to_json(report: ProbeReport) -> str:
    payload = {
        "n": report.n,
        "mode": report.mode,
        "t_grid": list(report.t_grid),
        "h_norms": list(report.h_norms),
        "residual_norms": list(report.residual_norms),
        "fitted_slope": report.fitted_slope,
        "implied_order": report.implied_order,
        "target_lambda": report.target_lambda,
    }
    return json.dumps(payload, indent=2) + "\n"


def report_to_csv(report: ProbeReport) -> str:
    lines = ["t,h_norm,residual_norm"]
    for t, h, r in zip(report.t_grid, report.h_norms, report.residual_norms):
        lines.append(",".join(format(v, ".17g") for v in (t, h, r)))
    lines.append(f"# slope={report.fitted_slope:.17g} "
                 f"implied_order={report.implied_order:.17g} "
                 f"target={report.target_lambda - 1.0:.17g}")
    return "\n".join(lines) + "\n"
