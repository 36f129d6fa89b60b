"""Probe checks: residual formulas, exponent fitting, report invariants."""

import json
import math
import re

import numpy as np
import pytest

import sliceproj.probe as probe_module
from sliceproj import (InvalidInputError, NumericFailureError,
                       curve_step, fit_exponent, make_cone, normal_curve,
                       polar_curve, probe_semismoothness, report_to_csv,
                       report_to_json, residual_exact, residual_numeric)
from sliceproj.project import _project_cone_arr


@pytest.fixture(scope="module")
def models():
    return {n: make_cone(n) for n in range(2, 7)}


def test_residual_exact_frozen_value(models):
    # closed form 1 - (1 - 0.5^(4/3))^(1/4), cross-checked against the
    # direct dot product of the curve step with the normal generator
    model = models[2]
    vec, norm = residual_exact(model, 0.5)
    h = curve_step(model, 0.5)
    w = normal_curve(model, 0.5)
    direct = float(h.coords @ w.coords)
    assert direct == pytest.approx(0.11873547987203023, rel=1e-13)
    assert norm == pytest.approx(direct / w.norm(), rel=1e-13)
    assert norm == pytest.approx(0.06433106276481933, rel=1e-12)


def test_residual_exact_parallel_to_generator(models):
    for n, model in models.items():
        for t in (1e-3, 0.2, 0.8):
            vec, norm = residual_exact(model, t)
            w = normal_curve(model, t)
            cos = float(vec.coords @ w.coords) / (
                np.linalg.norm(vec.coords) * w.norm())
            assert cos == pytest.approx(1.0, abs=1e-12)
            assert norm == pytest.approx(np.linalg.norm(vec.coords), rel=1e-13)


def test_residual_exact_small_t_limit(models):
    # first-order expansion: norm / t^lam -> 1 / (kappa * ||w(0)||) with
    # ||w(0)||^2 = n + 1; deviation at t = 1e-6 is the higher-order tail
    t = 1e-6
    for n, rel_tol in ((2, 1e-4), (3, 5e-3)):
        model = models[n]
        _, norm = residual_exact(model, t)
        limit = 1.0 / (model.kappa * math.sqrt(n + 1))
        assert norm / t ** model.lam == pytest.approx(limit, rel=rel_tol)
        w0 = normal_curve(model, 0.0)
        assert w0.norm() ** 2 == pytest.approx(n + 1, rel=1e-14)


def test_residual_exact_endpoint_guard(models):
    for t in (-0.1, 1.1, math.nan):
        with pytest.raises(InvalidInputError):
            residual_exact(models[2], t)
    # the closed form extends continuously to both endpoints
    for model in models.values():
        vec, norm = residual_exact(model, 0.0)
        assert np.array_equal(vec.coords, np.zeros(model.dim())) and norm == 0.0
        _, norm = residual_exact(model, 1.0)
        assert norm == 1.0 / normal_curve(model, 1.0).norm()


def test_residual_numeric_variants_agree(models):
    model = models[2]
    t, fd_step = 0.3, 1e-6
    vec, norm = residual_numeric(model, t, fd_step)
    exact_vec, _ = residual_exact(model, t)
    # the finite-difference oracle against the closed form
    assert np.linalg.norm(vec.coords - exact_vec.coords) <= max(1e-4, 5.0 * fd_step)
    assert norm == np.linalg.norm(vec.coords)
    h = curve_step(model, t)
    assert 0.0 < norm < h.norm()


def test_residual_numeric_guards(models):
    with pytest.raises(InvalidInputError):
        residual_numeric(models[2], 0.0)
    # "0.5" and None used to raise TypeError from the comparison with 0
    for t in ("0.5", None, True, math.nan):
        with pytest.raises(InvalidInputError, match="t="):
            residual_numeric(models[2], t)
    for fd_step in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="fd_step"):
            residual_numeric(models[2], 0.5, fd_step=fd_step)


def test_fd_step_below_solver_accuracy_is_a_numeric_failure(models):
    # at 1e-12 the cone part of the finite-difference solve is within
    # rounding of 0; at 1e-300 it is 0 or overflows when scaled (n = 2 at
    # t = 0.1). Both used to reach fit_exponent, 1e-300 with a
    # RuntimeWarning from the norm.
    # The message names the step as given: :g printed 1.00000001e-12 as 1e-12
    for n in (2, 4):
        for fd_step in (1e-12, 1.00000001e-12, 1e-300):
            pattern = f"fd_step={re.escape(repr(fd_step))} is below .* at t="
            with pytest.raises(NumericFailureError, match=pattern):
                probe_semismoothness(models[n], "numeric", fd_step=fd_step)
    with pytest.raises(NumericFailureError, match="vanishes or overflows"):
        residual_numeric(models[2], 0.1, fd_step=1e-300)
    # at 1e-10 the cone part at n = 2 and t <= 6e-4 is 6e-17 to 6e-16 of
    # ||q||, below the solve's accuracy: residuals fitted there were
    # rounding noise, 12 % to 224 % off the closed form. At n = 4 parts of
    # 7.5e-17 ||q|| were fitted, to a slope of 1.092 against 1.057 at the
    # default step. A part within 8 eps ||q|| of 0 is refused, however the
    # solve's last iterate happens to round
    for n in (2, 4):
        with pytest.raises(NumericFailureError,
                           match="fd_step=1e-10 is below .* within 8 eps"):
            probe_semismoothness(models[n], "numeric", fd_step=1e-10)


def test_probe_numeric_coarse_step_passes_n2_to_12(monkeypatch):
    # at n = 10 a warm refinement certified just above the probe's tight
    # tol (1e-13) used to be rejected, and at n = 11 and 12 Newton from
    # least-squares multipliers ran out of steps; each time ADMM then ran
    # its whole budget until the probe raised. At the default step the
    # last grid points at n >= 8 then ran 4160-12544 ADMM iterations,
    # because a held answer below 1e-13 of ||q|| was not refined. At the
    # coarse step every residual matches the closed form within the
    # step's bias.
    iterations = []

    def counting(*args):
        out = _project_cone_arr(*args)
        iterations.append(out[1].iterations)
        return out

    monkeypatch.setattr(probe_module, "_project_cone_arr", counting)
    for n in range(2, 13):
        model = make_cone(n)
        for fd_step in (probe_module.DEFAULT_FD_STEP, 1e-4):
            iterations.clear()
            report = probe_semismoothness(model, "numeric", fd_step=fd_step)
            assert abs(report.fitted_slope - model.lam) <= 0.1, (n, fd_step)
            assert sum(iterations) <= 64, (n, fd_step, sum(iterations))
        exact = [residual_exact(model, float(t))[1] for t in report.t_grid]
        assert report.residual_norms == pytest.approx(exact, rel=1e-4), n


def test_fit_exponent_synthetic_power_laws():
    t = np.logspace(-4, -1, 12)
    slope, intercept, dev = fit_exponent(t, 0.7 * t ** 1.5)
    assert slope == pytest.approx(1.5, abs=1e-10)
    assert intercept == pytest.approx(math.log(0.7), abs=1e-10)
    assert dev <= 1e-12
    slope, _, _ = fit_exponent(t, 3.0 * t)
    assert slope == pytest.approx(1.0, abs=1e-10)


def test_fit_exponent_guards():
    t = np.logspace(-3, -1, 6)
    with pytest.raises(InvalidInputError):
        fit_exponent(t, np.zeros(6))
    with pytest.raises(InvalidInputError):
        fit_exponent(t[:4], t[:4])
    with pytest.raises(InvalidInputError):
        fit_exponent(t, -t)


def test_fit_exponent_rejects_non_finite(capfd):
    # a NaN residual used to fit to (nan, nan, nan), and an infinite t to
    # raise LinAlgError after LAPACK wrote to stderr
    t = np.logspace(-3, -1, 6)
    for bad_t, bad_r in ((t, np.where(t == t[2], math.nan, t)),
                         (np.where(t == t[2], math.inf, t), t),
                         (t, np.where(t == t[2], math.inf, t))):
        with pytest.raises(InvalidInputError, match="finite"):
            fit_exponent(bad_t, bad_r)
    assert capfd.readouterr().err == ""


def test_fit_recovers_exponent_from_exact_residuals(models):
    model = models[2]
    t = np.logspace(-4, -1, 20)
    residuals = np.array([residual_exact(model, ti)[1] for ti in t])
    slope, _, _ = fit_exponent(t, residuals)
    assert abs(slope - 4.0 / 3.0) <= 0.02


def test_probe_exact_implied_orders(models):
    report2 = probe_semismoothness(models[2], "exact")
    assert abs(report2.implied_order - 1.0 / 3.0) <= 0.02
    assert report2.implied_order == report2.fitted_slope - 1.0
    report5 = probe_semismoothness(models[5], "exact")
    assert abs(report5.implied_order - 1.0 / 31.0) <= 0.02


def test_probe_step_norm_ratios(models):
    # ||h|| = Theta(t): the exact bracket is [1, sqrt(2)] since the second
    # step component (1-t^lam)^(1/lam) - 1 is negative and smaller than t in
    # magnitude; for n = 2 the default grid stays within a tight band, while
    # larger n drift toward sqrt(2) at the top of the grid
    for n, model in models.items():
        report = probe_semismoothness(model, "exact")
        ratio = report.h_norms / report.t_grid
        assert np.all(ratio >= 1.0 - 1e-12)
        assert np.all(ratio <= math.sqrt(2.0) + 1e-12)
        if n == 2:
            assert np.all(ratio >= 0.9) and np.all(ratio <= 1.1)


def test_probe_exact_numeric_consistency_spot(models):
    model = models[2]
    t = 1e-2
    _, exact_norm = residual_exact(model, t)
    _, numeric_norm = residual_numeric(model, t, 1e-6)
    assert numeric_norm == pytest.approx(exact_norm, rel=0.05)


def test_probe_grid_validation(models):
    with pytest.raises(InvalidInputError):
        probe_semismoothness(models[2], "exact", t_min=0.0)
    with pytest.raises(InvalidInputError):
        probe_semismoothness(models[2], "exact", t_min=0.5, t_max=0.1)
    with pytest.raises(InvalidInputError):
        probe_semismoothness(models[2], "exact", points=4)
    with pytest.raises(InvalidInputError):
        probe_semismoothness(models[2], "spectral")
    # as for residual_numeric, these used to raise TypeError
    for name in ("t_min", "t_max"):
        for bad in ("0.001", None, True):
            with pytest.raises(InvalidInputError, match=f"{name}="):
                probe_semismoothness(models[2], "exact", **{name: bad})


def test_probe_points_must_be_an_integer(models):
    # 20.0 and np.float64(20) used to raise TypeError from np.logspace, and
    # '20' TypeError from the comparison with 5
    for points in (20.0, np.float64(20), "20", True):
        with pytest.raises(InvalidInputError, match="points must be an integer"):
            probe_semismoothness(models[2], "exact", points=points)
    report = probe_semismoothness(models[2], "exact", points=np.int64(6))
    assert len(report.t_grid) == 6


def test_report_serialization_round_trip(models):
    report = probe_semismoothness(models[3], "exact")
    again = json.loads(report_to_json(report))
    assert np.array_equal(again["t_grid"], report.t_grid)
    assert np.array_equal(again["h_norms"], report.h_norms)
    assert np.array_equal(again["residual_norms"], report.residual_norms)
    assert again["fitted_slope"] == report.fitted_slope
    assert again["n"] == 3 and again["mode"] == "exact"

    csv_text = report_to_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "t,h_norm,residual_norm"
    assert lines[-1].startswith("# slope=")
    for i, line in enumerate(lines[1:-1]):
        t, h, r = (float(tok) for tok in line.split(","))
        assert t == report.t_grid[i]
        assert h == report.h_norms[i]
        assert r == report.residual_norms[i]


def test_probe_report_rejects_invalid_values(models):
    # a NaN field used to reach report_to_json, which wrote the bare token
    # NaN, and any mode was accepted
    report = probe_semismoothness(models[2], "exact")
    fields = dict(n=2, mode="exact", t_grid=report.t_grid,
                  h_norms=report.h_norms, residual_norms=report.residual_norms,
                  fitted_slope=report.fitted_slope,
                  target_lambda=report.target_lambda)
    json.loads(report_to_json(probe_module.ProbeReport(**fields)))
    # implied_order is derived from the slope, so it cannot disagree with it
    with pytest.raises(TypeError):
        probe_module.ProbeReport(**fields, implied_order=report.implied_order)
    bad_vector = report.residual_norms.copy()
    bad_vector[3] = math.nan
    cases = [("residual_norms", bad_vector), ("h_norms", bad_vector),
             ("residual_norms", np.full(20, math.inf)),
             ("fitted_slope", math.nan), ("fitted_slope", -math.inf),
             ("mode", "spectral"), ("mode", "Exact")]
    for name, value in cases:
        with pytest.raises(InvalidInputError):
            probe_module.ProbeReport(**{**fields, name: value})


def test_probe_numeric_mode_matches_exact_slope(models):
    model = models[2]
    report = probe_semismoothness(model, "numeric", points=6,
                                  t_min=1e-3, t_max=1e-1)
    assert abs(report.fitted_slope - model.lam) <= 0.05


def test_probe_numeric_is_deterministic(models):
    model = models[2]
    first = probe_semismoothness(model, "numeric", points=5,
                                 t_min=1e-2, t_max=1e-1)
    second = probe_semismoothness(model, "numeric", points=5,
                                  t_min=1e-2, t_max=1e-1)
    assert np.array_equal(first.residual_norms, second.residual_norms)
    assert first.fitted_slope == second.fitted_slope


def test_numeric_probe_checks_origin_once(models, monkeypatch):
    model = models[2]
    t_grid = np.logspace(-2, -1, 5)
    origin = polar_curve(model, 0.0).coords
    bases = [polar_curve(model, t).coords for t in t_grid]
    solved = []

    def counting(model_, q, tol, held=None):
        solved.append(q.copy())
        return _project_cone_arr(model_, q, tol, held)

    def times_solved(point):
        return sum(np.array_equal(q, point) for q in solved)

    monkeypatch.setattr(probe_module, "_project_cone_arr", counting)
    probe_semismoothness(model, "numeric", points=5, t_min=1e-2, t_max=1e-1)
    assert times_solved(origin) == 1
    assert [times_solved(b) for b in bases] == [1] * 5
    solved.clear()
    residual_numeric(model, 0.3)
    assert times_solved(origin) == 1
    assert times_solved(polar_curve(model, 0.3).coords) == 1
    # a bad step is rejected before any solve; fd_step=True ran with a
    # step of 1.0
    solved.clear()
    for fd_step in (0.0, math.inf, math.nan, True, "1e-6"):
        # exact mode ignores the step, but used to accept a bad one
        for mode in ("numeric", "exact"):
            with pytest.raises(InvalidInputError, match="fd_step"):
                probe_semismoothness(model, mode, fd_step=fd_step)
        with pytest.raises(InvalidInputError, match="fd_step"):
            residual_numeric(model, 0.3, fd_step=fd_step)
    assert solved == []


def test_warm_probe_matches_cold_residuals(models):
    # the chained grid walk reproduces each grid point's cold measurement
    for n in (2, 3, 4):
        report = probe_semismoothness(models[n], "numeric", points=8)
        cold = [residual_numeric(models[n], float(t))[1]
                for t in report.t_grid]
        assert report.residual_norms == pytest.approx(cold, rel=1e-3)


def test_stale_warm_start_falls_back_to_cold_answer(models):
    # the probe's finite-difference solves' tol
    tight = probe_module._FD_TOL
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 8, 12):
        model = models[n] if n in models else make_cone(n)

        def fd_point(t):
            return (polar_curve(model, t).coords
                    + 1e-6 * curve_step(model, t).coords)

        q = fd_point(1e-3)
        cold, cold_stats, _ = _project_cone_arr(model, q, tight)
        # a far grid point's certificate, which certifies at checkpoint 0 at
        # every n, so ADMM does not run, and a random point's, whose active
        # set the refinement cannot certify at q: the solve is then the
        # cold one, bitwise, plus the one failed attempt (ADMM from the
        # random point's state once ran 131072 iterations at n = 12,
        # where the cold solve ran 32)
        for stale in (fd_point(0.5), 5.0 * rng.standard_normal(model.dim())):
            _, _, held = _project_cone_arr(model, stale, tight)
            p, stats, cert = _project_cone_arr(model, q, tight, held)
            assert stats.converged
            assert cert[0] is p
            if (stats.iterations, stats.exit_reason) == (0, "certified"):
                assert np.linalg.norm(p - cold) <= 1e-9 * np.linalg.norm(q)
                continue
            assert p.tobytes() == cold.tobytes(), n
            assert stats.iterations == cold_stats.iterations, n
            assert (stats.polish_attempts
                    <= cold_stats.polish_attempts + 1), n
        assert stats.iterations > 0
    for fd_step in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="fd_step"):
            probe_semismoothness(model, "numeric", fd_step=fd_step)
