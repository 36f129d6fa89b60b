"""Semismoothness-order measurement along the polar cone's boundary curve.

The probed quantity is the directional-derivative residual of the polar
projection at the curve's base point: with h(t) the curve step, the
residual r(t) = h - Pi'(base; h) scales like t^lam while ||h|| scales like
t, so the fitted slope of log r against log t recovers lam and the implied
semismoothness order is slope - 1, to be compared against lam - 1. Exact
mode evaluates the residual's closed form, :func:`residual_exact`, the
package's one copy of it; numeric mode reproduces the residual from
projection solves and a one-sided finite difference, with no use of the
closed form.

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
from dataclasses import dataclass, replace

import numpy as np

from .cones import (ConeModel, ConePoint, _check_t, _is_int, curve_step,
                    normal_curve, polar_curve, step_normal_inner)
from .errors import InvalidInputError, NumericFailureError
from .project import SolverConfig, _check_positive, _project_cone_arr

DEFAULT_T_MIN = 1e-4
DEFAULT_T_MAX = 1e-1
DEFAULT_POINTS = 20
DEFAULT_FD_STEP = 1e-6
PROBE_MODES = ("exact", "numeric")


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Grid of step sizes with the measured residual scaling.

    implied_order is exactly fitted_slope - 1; target_lambda is the
    conjugate exponent the slope should recover. mode is in PROBE_MODES,
    and every number is finite, so the JSON report is valid JSON.
    """

    n: int
    mode: str
    t_grid: np.ndarray
    h_norms: np.ndarray
    residual_norms: np.ndarray
    fitted_slope: float
    implied_order: float
    target_lambda: float

    def __post_init__(self):
        for name in ("t_grid", "h_norms", "residual_norms"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if not (len(self.t_grid) == len(self.h_norms) == len(self.residual_norms)):
            raise InvalidInputError("report vectors must share one length")
        if len(self.t_grid) < 5:
            raise InvalidInputError("report needs at least 5 grid points")
        if np.any(np.diff(self.t_grid) <= 0.0):
            raise InvalidInputError("t_grid must be strictly increasing")
        if self.mode not in PROBE_MODES:
            raise InvalidInputError(f"unknown probe mode {self.mode!r}")
        for name in ("t_grid", "h_norms", "residual_norms", "fitted_slope",
                     "implied_order", "target_lambda"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidInputError(f"{name} must be finite")

    def summary_line(self) -> str:
        gap = abs(self.fitted_slope - self.target_lambda)
        return (f"n={self.n} slope={self.fitted_slope:.6g} "
                f"implied_order={self.implied_order:.6g} "
                f"target={self.target_lambda - 1.0:.6g} |delta|={gap:.3g}")


def residual_exact(model: ConeModel, t: float):
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


def residual_numeric(model: ConeModel, t: float, cfg: SolverConfig | None = None,
                     fd_step: float = DEFAULT_FD_STEP):
    """Measure the residual vector and norm at t in (0, 1) from projections
    alone, in the shape :func:`residual_exact` returns.

    Asserts that both curve endpoints are fixed points of the polar
    projection, then takes a one-sided finite difference of the polar
    projection (the directional derivative of a projection is a one-sided
    object, so no central differencing).
    """
    cfg = cfg or SolverConfig()
    if not 0.0 < _check_t(t) < 1.0:
        raise InvalidInputError("residual_numeric requires t strictly inside (0, 1)")
    _check_positive(fd_step, "fd_step")
    _check_polar_fixed_point(model, 0.0, polar_curve(model, 0.0).coords, cfg)
    r_fd, norm, _ = _residual_at(model, t, cfg, _tight(cfg), fd_step)
    return ConePoint(model.n, r_fd), norm


def _tight(cfg: SolverConfig) -> SolverConfig:
    """cfg with its tol lowered to at most 1e-13, for the
    finite-difference solves, whose cone part is divided by fd_step."""
    return replace(cfg, tol=min(cfg.tol, 1e-13))


def _check_polar_fixed_point(model: ConeModel, t: float, base: np.ndarray,
                             cfg: SolverConfig, held: tuple | None = None):
    """Raise unless base, the coordinates of polar_curve(t), is a fixed
    point of the polar projection, i.e. its cone part (the drift, by
    Moreau) vanishes. held is passed to the cone solve."""
    cone_part, stats, _ = _project_cone_arr(model, base, cfg, held)
    drift = float(np.linalg.norm(cone_part))
    if drift > 10.0 * cfg.tol:
        raise NumericFailureError(
            f"curve point at t={t!r} is not a polar fixed point "
            f"(drift {drift:.3e})", stats=stats)


def _residual_at(model: ConeModel, t: float, cfg: SolverConfig,
                 tight: SolverConfig, fd_step: float,
                 held: tuple | None = None):
    """The finite-difference residual vector, its norm and the
    finite-difference solve's certificate at t, on checked arguments,
    without the t = 0 fixed-point check, which does not depend on t.

    The finite-difference solve runs under tight (_tight(cfg)) and starts
    from held; the base check runs under cfg from its certificate.
    """
    # via the Moreau complement: the polar projection of base + s h equals
    # the input minus its cone projection, so the residual reduces to
    # Pi_cone(base + s h) / s
    base = polar_curve(model, t).coords
    probe_point = base + fd_step * curve_step(model, t).coords
    cone_part, stats, cert = _project_cone_arr(model, probe_point, tight, held)
    if stats.final_residual > cfg.tol:
        raise NumericFailureError(
            f"cone projection at t={t!r} reached residual "
            f"{stats.final_residual:.3e} > tol {cfg.tol:.1e}", stats=stats)
    _check_polar_fixed_point(model, t, base, cfg, cert)
    # a step below the solve's certified floor leaves a cone part of exactly
    # 0, or one whose scaled norm overflows; either would be fitted as data
    with np.errstate(over="ignore"):
        r_fd = cone_part / fd_step
        norm = float(np.linalg.norm(r_fd))
    if not 0.0 < norm < math.inf:
        raise NumericFailureError(
            f"fd_step={fd_step:g} is below the cone solve's accuracy at "
            f"t={t!r}: the finite-difference residual vanishes or overflows",
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


def probe_semismoothness(model: ConeModel, mode: str = "exact",
                         t_min: float = DEFAULT_T_MIN,
                         t_max: float = DEFAULT_T_MAX,
                         points: int = DEFAULT_POINTS,
                         cfg: SolverConfig | None = None,
                         fd_step: float = DEFAULT_FD_STEP) -> ProbeReport:
    """Run the scaling probe on a log-spaced grid and fit the exponent.

    Exact mode uses the closed-form residual; numeric mode uses the
    finite difference of :func:`residual_numeric`, checking the
    shared t = 0 endpoint once for the whole grid and starting each grid
    point's solves from the next larger t's certificate. The implied
    order is the fitted slope minus one, reported against lam - 1 (since
    the step norm is of order t, which the report's h_norms let callers
    verify).
    """
    if mode not in PROBE_MODES:
        raise InvalidInputError(f"unknown probe mode {mode!r}")
    t_min, t_max = _check_t(t_min, "t_min"), _check_t(t_max, "t_max")
    if not 0.0 < t_min < t_max < 1.0:
        raise InvalidInputError("grid endpoints must satisfy 0 < t_min < t_max < 1")
    if not _is_int(points) or points < 5:
        raise InvalidInputError(f"points must be an integer >= 5, got {points!r}")
    _check_positive(fd_step, "fd_step")
    cfg = cfg or SolverConfig()
    t_grid = np.logspace(math.log10(t_min), math.log10(t_max), points)
    h_norms = np.array([curve_step(model, t).norm() for t in t_grid])

    if mode == "exact":
        residuals = np.array([residual_exact(model, t)[1] for t in t_grid])
    else:
        # the t = 0 endpoint is the same for every grid point: check it once
        _check_polar_fixed_point(model, 0.0, polar_curve(model, 0.0).coords,
                                 cfg)
        tight = _tight(cfg)
        held = None
        residuals = np.empty(points)
        for i in reversed(range(points)):
            _, residuals[i], held = _residual_at(model, float(t_grid[i]), cfg,
                                                 tight, fd_step, held)

    slope, _, _ = fit_exponent(t_grid, residuals)
    return ProbeReport(
        n=model.n,
        mode=mode,
        t_grid=t_grid,
        h_norms=h_norms,
        residual_norms=residuals,
        fitted_slope=slope,
        implied_order=slope - 1.0,
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
