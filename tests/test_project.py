"""Solver checks: cone/polar projections, range projector, slice projectors."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from sliceproj import (BlockSymMatrix, ConeModel, ConePoint,
                       InvalidInputError, lmi_adjoint,
                       lmi_apply, make_cone, membership_cone, normal_curve,
                       polar_curve, probe_semismoothness, project_cone,
                       project_polar, project_range, project_slice_dykstra,
                       project_slice_fixedpoint, psd_project_block,
                       sample_cone)
from sliceproj import project as project_module
from sliceproj import symmat
from sliceproj.project import (DEFAULT_TOL, SolveStats, _TOL_MIN,
                               _attempt_polish, _dykstra_flat,
                               _duals_nonnegative, _kkt_jacobian,
                               _kkt_residual, _lmi_rows, _project_cone_arr)
from sliceproj.symmat import SymMatrix, block_min_eigs, to_lorentz

TOL = DEFAULT_TOL


@pytest.fixture(scope="module")
def models():
    return {n: make_cone(n) for n in range(2, 6)}


def test_projectors_validate_tol(monkeypatch):
    # tol=True would mean tol = 1.0, and None or any other object (a
    # config from an older API, say) is not read as the default; a zero
    # input, which needs no solve, is checked too. A tol below _TOL_MIN,
    # under the rounding floor, is rejected before any iteration: no exit
    # test could end such a solve before its budget. The full and
    # off-block forms of the Dykstra input take the same check
    model = make_cone(2)
    rng = np.random.default_rng(7)
    q, q0 = ConePoint(2, rng.standard_normal(5)), ConePoint(2, np.zeros(5))
    X = BlockSymMatrix(2, rng.standard_normal((3, 3)))
    X0 = BlockSymMatrix(2, np.zeros((3, 3)))
    dense = (X.to_full(), _with_off_block(rng, X))
    calls = ((project_cone, q, (q0,)), (project_polar, q, (q0,)),
             (project_slice_dykstra, X, (X0,) + dense),
             (project_slice_fixedpoint, X, (X0,)))
    below = np.nextafter(_TOL_MIN, 0.0)
    for project, inp, others in calls:
        with monkeypatch.context() as patch:
            patch.setattr(project_module, "_iterate", None)
            for bad in (0.0, -1.0, math.inf, math.nan, True, "1e-9", None,
                        1e-300, below):
                for x in (inp,) + others:
                    with pytest.raises(InvalidInputError,
                                       match="tol must be finite and positive"):
                        project(model, x, bad)
        # numpy scalars stay valid, and so does the floor itself
        for tol in (np.float64(1e-6), _TOL_MIN):
            _, stats = project(model, inp, tol)
            assert stats.converged and stats.final_residual <= tol


def test_each_solve_logs_one_exit_line(models, caplog):
    model = models[2]
    q = ConePoint(2, np.random.default_rng(7).standard_normal(5))
    X = BlockSymMatrix(2, np.random.default_rng(8).standard_normal((3, 3)))
    # an input whose ADMM answer the refinement certifies
    q4 = np.random.default_rng(0).standard_normal(9)
    _, _, held = project_module._project_cone_arr(models[4], q4, TOL)

    def warm_solve():
        return project_module._project_cone_arr(models[4], q4, TOL, held)[:2]

    for what, solve in (("cone projection", lambda: project_cone(model, q, TOL)),
                        ("cone projection", warm_solve),
                        ("Dykstra", lambda: project_slice_dykstra(model, X, TOL))):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="sliceproj.project"):
            _, stats = solve()
        if solve is warm_solve:
            # certified at checkpoint 0, from the held answer
            assert stats.iterations == 0
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage() == (
            f"{what}: {stats.exit_reason} after {stats.iterations} iterations "
            f"at residual {stats.final_residual:.3e}")


def test_solve_stats_json_dict(models):
    q = polar_curve(models[2], 0.3)
    _, stats = project_cone(models[2], q, TOL)
    d = stats.to_json_dict()
    assert set(d) == {"iterations", "final_residual", "converged",
                      "exit_reason", "newton_steps", "polish_attempts"}
    assert isinstance(d["iterations"], int)
    assert isinstance(d["newton_steps"], int) and d["newton_steps"] > 0
    assert isinstance(d["polish_attempts"], int) and d["polish_attempts"] > 0
    assert isinstance(d["final_residual"], float)
    assert isinstance(d["converged"], bool)
    assert d["exit_reason"] in project_module.EXIT_REASONS


def test_newton_steps_sum_over_attempts_and_inner_solves(models, monkeypatch):
    # a cone solve sums the steps of each refinement attempt, failed ones
    # too, and counts the attempts; the derived slice projection reports
    # its one cone solve's; Dykstra takes none. A cold checkpoint tries at
    # most two active sets: the dual-derived one and all blocks
    attempts, inner, per_checkpoint = [], [], []
    newton, solve = project_module._newton_polish, project_module._project_cone_arr
    polish = project_module._attempt_polish

    def recording_newton(*args):
        out = newton(*args)
        attempts.append(args[5][-1])
        return out

    def recording_polish(*args):
        before = len(attempts)
        out = polish(*args)
        per_checkpoint.append(len(attempts) - before)
        return out

    def recording_solve(*args):
        out = solve(*args)
        inner.append((out[1].newton_steps, out[1].polish_attempts))
        return out

    monkeypatch.setattr(project_module, "_newton_polish", recording_newton)
    monkeypatch.setattr(project_module, "_attempt_polish", recording_polish)
    model = make_cone(12)
    rng = np.random.default_rng(2)
    most = 0
    for _ in range(20):
        attempts.clear()
        _, stats = project_cone(model, ConePoint(12, rng.standard_normal(25)),
                                TOL)
        assert stats.newton_steps == sum(attempts)
        assert stats.polish_attempts == len(attempts)
        most = max(most, len(attempts))
    assert most > 1
    assert max(per_checkpoint) <= 2
    monkeypatch.setattr(project_module, "_project_cone_arr", recording_solve)
    X = BlockSymMatrix(2, np.random.default_rng(8).standard_normal((3, 3)))
    _, stats = project_slice_fixedpoint(models[2], X, TOL)
    assert len(inner) == 1
    assert (stats.newton_steps, stats.polish_attempts) == inner[0]
    assert min(inner[0]) > 0
    _, stats = project_slice_dykstra(models[2], X, TOL)
    assert stats.newton_steps == stats.polish_attempts == 0


def test_project_cone_fixes_members(models):
    rng = np.random.default_rng(71)
    for n, model in models.items():
        q = ConePoint(n, np.eye(2 * n + 1)[2])  # unit x3 is interior-ish
        out, stats = project_cone(model, q, TOL)
        assert stats.converged
        assert np.linalg.norm(out.coords - q.coords) <= 10.0 * TOL
        for _ in range(5):
            q = sample_cone(model, rng)
            out, _ = project_cone(model, q, TOL)
            assert np.linalg.norm(out.coords - q.coords) <= 10.0 * TOL


def test_project_cone_negated_generator_maps_to_apex(models):
    model = models[2]
    w = normal_curve(model, 0.5)
    # oracle: -w is in the polar cone, checked by sampling cone members
    rng = np.random.default_rng(73)
    for _ in range(300):
        k = sample_cone(model, rng)
        assert float(-w.coords @ k.coords) <= 1e-12
    out, stats = project_cone(model, ConePoint(2, -w.coords), TOL)
    assert stats.converged
    assert np.linalg.norm(out.coords) <= 10.0 * TOL


def test_project_cone_polar_boundary_maps_to_apex(models):
    for n, model in models.items():
        for t in (0.05, 0.3, 0.7, 0.95):
            out, _ = project_cone(model, polar_curve(model, t), TOL)
            assert np.linalg.norm(out.coords) <= 10.0 * TOL, (n, t)


def test_curve_feasibility_via_moreau(models):
    # the whole curve lives in the polar cone: its cone projection vanishes,
    # and the normal generator stays in the cone and orthogonal to the base
    for n in (2, 3):
        model = models[n]
        for t in np.linspace(0.0, 1.0, 50):
            v = polar_curve(model, t)
            out, _ = project_cone(model, v, TOL)
            assert np.linalg.norm(out.coords) <= 1e-6
            w = normal_curve(model, t)
            inside, _ = membership_cone(model, w, tol=1e-10)
            assert inside
            assert abs(float(v.coords @ w.coords)) <= 1e-12


def test_project_cone_zero_short_circuit(models):
    out, stats = project_cone(models[3], ConePoint(3, np.zeros(7)), TOL)
    assert np.array_equal(out.coords, np.zeros(7))
    assert stats.converged and stats.iterations == 0


SCALES = (1e-200, 1e-150, 1e-12, 1e-6, 1e6, 1e12, 1e150)


def _scale_cases():
    rng = np.random.default_rng(7)
    for n in (2, 6, 12):
        model = make_cone(n)
        for _ in range(2):
            yield model, rng.standard_normal(2 * n + 1)
        # an apex answer and a boundary answer
        yield model, polar_curve(model, 0.5).coords
        yield model, (polar_curve(model, 0.5).coords
                      + normal_curve(model, 0.5).coords)


def test_project_cone_is_scale_invariant():
    for model, g in _scale_cases():
        ref, ref_stats = project_cone(model, ConePoint(model.n, g), TOL)
        assert ref_stats.converged
        for a in SCALES:
            out, stats = project_cone(model, ConePoint(model.n, a * g), TOL)
            err = np.linalg.norm(out.coords / a - ref.coords) / np.linalg.norm(g)
            assert err <= 1e-12, (model.n, a, err)
            assert stats.converged, (model.n, a, stats)


def test_project_cone_power_of_two_scaling_is_bitwise():
    for model, g in _scale_cases():
        ref, ref_stats = project_cone(model, ConePoint(model.n, g), TOL)
        for k in (-600, -40, 40, 400):
            out, stats = project_cone(model, ConePoint(model.n, 2.0 ** k * g),
                                      TOL)
            assert np.array_equal(out.coords, 2.0 ** k * ref.coords), (model.n, k)
            assert stats.iterations == ref_stats.iterations
            assert stats.converged == ref_stats.converged


def test_exit_reasons(models, monkeypatch):
    assert project_module.EXIT_REASONS == ("tol", "certified", "budget")
    # the floor is attainable: every seeded solve at tol _TOL_MIN converges
    # on tol or a certificate, none on its budget
    floor = _seeded_solves(_TOL_MIN)
    assert len(floor) == 99
    for _, stats, _ in floor:
        assert stats.converged, stats
        assert stats.exit_reason in ("tol", "certified"), stats
    model = models[2]
    w = normal_curve(model, 0.5)
    _, stats = project_cone(model, polar_curve(model, 0.5), TOL)
    assert (stats.exit_reason, stats.converged) == ("certified", True)
    _, stats = project_cone(model, w, TOL)
    assert (stats.exit_reason, stats.iterations) == ("certified", 0)
    q = ConePoint(2, np.random.default_rng(7).standard_normal(5))
    with monkeypatch.context() as patch:
        patch.setattr(project_module, "_MAX_ITER", 3)
        _, stats = project_cone(model, q, TOL)
    assert (stats.exit_reason, stats.converged) == ("budget", False)
    # a slice member maps into the Gram-metric cone: the derived slice
    # projection certifies it without iterating
    X = lmi_apply(model, w)
    _, stats = project_slice_fixedpoint(model, X, TOL)
    assert (stats.exit_reason, stats.iterations) == ("certified", 0)
    Y = BlockSymMatrix(2, np.random.default_rng(5).standard_normal((3, 3)))
    monkeypatch.setattr(project_module, "_MAX_ITER", 2)
    _, stats = project_slice_dykstra(model, Y, TOL)
    assert (stats.exit_reason, stats.converged) == ("budget", False)


def test_iterate_checkpoints_at_doublings_and_every_exit(monkeypatch):
    # the refinement runs before the first iteration, at iteration
    # _FIRST_POLISH, each doubling, and the exit; the step is asked for its
    # residual every _RES_STRIDE = 8 iterations, at each checkpoint and at
    # the budget, and the exit tests read only those residuals
    assert project_module._RES_STRIDE == 8
    first = project_module._FIRST_POLISH

    def schedule(end):
        """The checkpoints of a solve that exits at iteration end."""
        ks, k = [0], first
        while k < end:
            ks.append(k)
            k *= 2
        return ks + [end]

    def run(residuals, max_iter, stop_at=None):
        seen, asked = [], []
        res = iter(residuals)

        def step(fresh):
            asked.append(fresh)
            r = next(res)
            return r if fresh else None

        def checkpoint(k):
            seen.append(k)
            if k == stop_at:
                return SolveStats(k, 0.0, True, "certified")
            return None

        monkeypatch.setattr(project_module, "_MAX_ITER", max_iter)
        stats = project_module._iterate(step, TOL, "test", checkpoint)
        fresh_at = [k for k, fresh in enumerate(asked, 1) if fresh]
        return seen, (stats.exit_reason, stats.iterations), fresh_at

    falling = [1.0 / k for k in range(1, 301)]
    seen, out, fresh_at = run(falling, 300)
    assert (seen, out) == (schedule(300), ("budget", 300))
    assert fresh_at == sorted(set(range(8, 297, 8)) | set(seen[1:]))
    # a residual of 0 from iteration 50 on is read at the next stride
    # point; one at a checkpoint is read there
    assert run(falling[:49] + [0.0] * 251, 300)[:2] == (schedule(56),
                                                       ("tol", 56))
    check = 4 * first
    assert run(falling[:check - 1] + [0.0] * (300 - check + 1),
               300)[:2] == (schedule(check), ("tol", check))
    assert run(falling, 300, stop_at=check)[:2] == (schedule(check),
                                                    ("certified", check))
    # a solve that ends before the first checkpoint runs the checkpoint at
    # 0 and at its exit; one that certifies at 0 takes no iteration
    end = first - 4
    assert run(falling, end) == ([0, end], ("budget", end),
                                 list(range(8, end, 8)) + [end])
    assert run(falling, 300, stop_at=0) == ([0], ("certified", 0), [])
    # a checkpoint off the stride is fresh too
    monkeypatch.setattr(project_module, "_FIRST_POLISH", 12)
    seen, out, fresh_at = run(falling, 50)
    assert (seen, out) == ([0, 12, 24, 48, 50], ("budget", 50))
    assert fresh_at == [8, 12, 16, 24, 32, 40, 48, 50]


def _seeded_solves(tol):
    """(answer, stats, input norm) of the cone and both slice projectors
    on seeded N(0, I) inputs at n = 2..12."""
    out = []
    for n in range(2, 13):
        model = make_cone(n)
        rng = np.random.default_rng(n)
        for _ in range(3):
            q = ConePoint(n, rng.standard_normal(2 * n + 1))
            X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            p, stats = project_cone(model, q, tol)
            out.append((p.coords, stats, np.linalg.norm(q.coords)))
            for project in (project_slice_fixedpoint, project_slice_dykstra):
                P, stats = project(model, X, tol)
                out.append((P.blocks, stats, X.norm()))
    return out


@pytest.mark.parametrize("max_iter", [13, project_module._MAX_ITER])
def test_residual_stride_moves_only_tol_exits(monkeypatch, max_iter):
    # stride 1 reads a residual every iteration; the iterates do not depend
    # on the stride, so a solve that ends at a scheduled checkpoint or on
    # its budget is bitwise the same, and only a tol exit can land later,
    # at the next point where the residual is read
    monkeypatch.setattr(project_module, "_MAX_ITER", max_iter)
    monkeypatch.setattr(project_module, "_RES_STRIDE", 1)
    every = _seeded_solves(TOL)
    monkeypatch.setattr(project_module, "_RES_STRIDE", 8)
    strided = _seeded_solves(TOL)
    first = project_module._FIRST_POLISH
    reasons = set()
    for (a, sa, norm), (b, sb, _) in zip(every, strided):
        k = sa.iterations
        doubling = k // first
        scheduled = k in (0, max_iter) or (
            k % first == 0 and doubling & (doubling - 1) == 0)
        reasons.add((sa.exit_reason, scheduled))
        if scheduled:
            assert np.array_equal(a, b) and sa == sb, (sa, sb)
        else:
            assert sa.exit_reason == "tol", sa
            assert k <= sb.iterations <= k + 7 and sb.converged, (sa, sb)
            assert np.abs(a - b).max() <= 1e-8 * norm
    if max_iter == 13:
        assert reasons == {("certified", True), ("budget", True)}
    else:
        assert reasons == {("certified", True), ("tol", False)}


def test_clip_paths_give_bitwise_equal_solves(monkeypatch):
    # the Lorentz clip's loop and vectorised paths return bitwise the same
    # arrays, so every iterate is the same on either path, and so is every
    # answer and SolveStats
    monkeypatch.setattr(symmat, "_CLIP_LOOP_BLOCKS", 0)
    vectorised = _seeded_solves(TOL)
    monkeypatch.setattr(symmat, "_CLIP_LOOP_BLOCKS", 23)
    loop = _seeded_solves(TOL)
    for (a, sa, _), (b, sb, _) in zip(vectorised, loop, strict=True):
        assert a.tobytes() == b.tobytes() and sa == sb, (sa, sb)


def test_relaxation_moves_no_certified_answer(monkeypatch):
    # over-relaxation changes the ADMM iterates, not what the refinement
    # certifies. On 660 N(0, I) inputs, 60 at each n = 2..12 scaled by
    # 10^U[-6, 6], every answer certified both with and without it agrees
    # within 1e-12 ||q||. The plain ADMM runs with the first checkpoint
    # at 32, its own best (an earlier one costs it many more refinement
    # attempts); against it the relaxed solves take at most 60 % of the
    # ADMM iterations and at most 5 % more refinement attempts
    rng = np.random.default_rng(5)
    inputs = []
    for n in range(2, 13):
        model = make_cone(n)
        for _ in range(60):
            q = rng.standard_normal(model.dim()) * 10.0 ** rng.uniform(-6, 6)
            inputs.append((model, q))

    def solve_all():
        return [project_module._project_cone_arr(model, q, TOL)[:2]
                for model, q in inputs]

    relaxed = solve_all()
    monkeypatch.setattr(project_module, "_RELAX", 1.0)
    monkeypatch.setattr(project_module, "_FIRST_POLISH", 32)
    plain = solve_all()
    certified = 0
    for (_, q), (a, sa), (b, sb) in zip(inputs, relaxed, plain, strict=True):
        if sa.exit_reason == sb.exit_reason == "certified":
            certified += 1
            assert np.abs(a - b).max() <= 1e-12 * np.linalg.norm(q), (sa, sb)
    assert certified >= 600

    def total(stats, name):
        return sum(getattr(s, name) for _, s in stats)

    assert total(relaxed, "iterations") <= 0.6 * total(plain, "iterations")
    assert (total(relaxed, "polish_attempts")
            <= 1.05 * total(plain, "polish_attempts"))


def test_relaxed_dykstra_keeps_the_projection(monkeypatch):
    # Dykstra's clipped point follows z <- z - alpha (I - P) clip(z), a
    # projected gradient step on its dual, which reaches the same
    # projection for every alpha in (0, 2). At alpha = 1 the fused step is
    # the textbook loop below up to rounding, with the same iterations;
    # at the default every solve lands within 1e-7 of the certified fixed
    # point, in at most 70 % of the alpha = 1 iterations
    rng = np.random.default_rng(17)
    inputs = []
    for n in range(2, 13):
        model = make_cone(n)
        for _ in range(8):
            X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            inputs.append((model, X, X.lorentz(X.norm())))

    def textbook(model, x0):
        P = model.range_proj
        z = x = x0
        for k in range(1, project_module._MAX_ITER + 1):
            y = symmat.lorentz_clip(z)
            x_new = P @ y
            z = z - (y - x_new)
            res = max(np.linalg.norm(y - x_new), np.linalg.norm(x_new - x))
            x = x_new
            if k % project_module._RES_STRIDE == 0 and res <= TOL:
                return x, k
        raise AssertionError("textbook Dykstra did not converge")

    relaxed = [_dykstra_flat(model, x, TOL) for model, _, x in inputs]
    for (model, X, x), (y, stats) in zip(inputs, relaxed):
        assert stats.converged, stats
        ref, ref_stats = project_slice_fixedpoint(model, X, 1e-12)
        assert ref_stats.converged, ref_stats
        assert np.linalg.norm(y - ref.lorentz(X.norm())) <= 1e-7

    monkeypatch.setattr(project_module, "_DYKSTRA_RELAX", 1.0)
    plain = 0
    for model, _, x in inputs:
        y, stats = _dykstra_flat(model, x, TOL)
        ref, iterations = textbook(model, x)
        assert stats.iterations == iterations, (stats, iterations)
        assert np.linalg.norm(y - ref) <= 1e-12
        plain += iterations
    assert sum(s.iterations for _, s in relaxed) <= 0.7 * plain


def test_one_off_and_warm_solves_refine_first_at_the_first_checkpoint():
    # a solve that returns its certificate refines first at iteration
    # _FIRST_POLISH, as a one-off solve does, and the certificate keeps its
    # answer, J and nu
    model = make_cone(4)
    q = np.random.default_rng(0).standard_normal(9)
    p_cold, cold = project_cone(model, ConePoint(4, q), TOL)
    p_warm, stats, cert = project_module._project_cone_arr(model, q, TOL)
    assert ((cold.iterations, cold.exit_reason)
            == (project_module._FIRST_POLISH, "certified"))
    assert stats == cold and np.array_equal(p_warm, p_cold.coords)
    p, J, nu = cert
    assert p is p_warm and J and len(nu) == len(J)
    # a solve that does not end on a refinement returns no certificate
    assert project_module._project_cone_arr(model, np.eye(9)[2], TOL,
                                            cert)[2] is None


def test_warm_start_is_checkpoint_0(monkeypatch):
    # the warm start's refinement ends the solve under the loop's one rule:
    # certified, and converged only when its residual is within tol
    model = make_cone(4)
    q = np.random.default_rng(0).standard_normal(9)
    _, _, held = project_module._project_cone_arr(model, q, TOL)
    # Newton starts on the held J from the held nu: no least-squares solve
    monkeypatch.setattr(project_module, "dgelsd", None)
    _, stats, cert = project_module._project_cone_arr(
        model, q, 1e-18, held)
    assert ((stats.iterations, stats.converged, stats.exit_reason)
            == (0, False, "certified"))
    assert cert[1] == held[1]


def test_held_certificate_gets_one_attempt(monkeypatch):
    # an incoherent warm path: each solve holds the certificate of the
    # previous, unrelated input. A held solve either certifies at checkpoint
    # 0, or it is the cold solve of its input, bitwise, plus the one failed
    # attempt; a held answer of exactly 0 is refused without an attempt
    newton = project_module._newton_polish
    held_starts = []

    def counting(model, q, p0, J, nu0=None, steps=None):
        held_starts[-1] += nu0 is not None
        return newton(model, q, p0, J, nu0, steps)

    monkeypatch.setattr(project_module, "_newton_polish", counting)
    rng = np.random.default_rng(0)
    for n in (2, 7, 12):
        model = make_cone(n)
        held = None
        for _ in range(20):
            q = rng.standard_normal(model.dim()) * 10.0 ** rng.uniform(-6, 6)
            held_starts.append(0)
            cold, cold_stats, _ = project_module._project_cone_arr(model, q,
                                                                    TOL)
            p, stats, cert = project_module._project_cone_arr(model, q, TOL,
                                                               held)
            assert held_starts[-1] <= 1, n
            if (stats.iterations, stats.exit_reason) != (0, "certified"):
                assert p.tobytes() == cold.tobytes(), n
                assert (replace(stats, newton_steps=0, polish_attempts=0)
                        == replace(cold_stats, newton_steps=0,
                                   polish_attempts=0)), (stats, cold_stats)
                assert (cold_stats.polish_attempts <= stats.polish_attempts
                        <= cold_stats.polish_attempts + 1), n
            held = cert


def test_hopeless_refinement_gives_up_early(monkeypatch):
    # among these inputs the refinement meets active sets it cannot
    # certify; with line searches down to 2^-16 and no other early stop,
    # one such call ran all 60 Newton steps with 1539 KKT evaluations. With
    # the cap at 2^-7 the costliest call takes 48
    model = make_cone(2)
    evals = []
    kkt = project_module._kkt_residual
    newton = project_module._newton_polish

    def counting_kkt(*args):
        evals[-1] += 1
        return kkt(*args)

    def counting_newton(*args):
        evals.append(0)
        return newton(*args)

    monkeypatch.setattr(project_module, "_kkt_residual", counting_kkt)
    monkeypatch.setattr(project_module, "_newton_polish", counting_newton)
    rng = np.random.default_rng(2)
    for _ in range(120):
        q = ConePoint(2, rng.standard_normal(5))
        _, stats = project_cone(model, q, TOL)
        assert stats.converged
    assert max(evals) <= 64


def test_certified_line_searches_stay_inside_the_halving_cap(monkeypatch):
    # the cap on the Newton line search comes from measurement: across the
    # numeric probes at n = 2..12, at both steps CI runs, no certified
    # refinement halves a step more than 6 times, one below the cap. Each
    # Newton step evaluates the Jacobian once, then the KKT residual once
    # per step length tried
    kkt = project_module._kkt_residual
    jac = project_module._kkt_jacobian
    newton = project_module._newton_polish
    tries, most = [], []

    def counting_kkt(*args):
        tries[-1] += 1
        return kkt(*args)

    def counting_jac(*args):
        tries.append(0)
        return jac(*args)

    def counting_newton(*args):
        tries.clear()
        tries.append(0)
        out = newton(*args)
        if out is not None:
            most.append(max(tries[1:], default=1) - 1)
        return out

    monkeypatch.setattr(project_module, "_kkt_residual", counting_kkt)
    monkeypatch.setattr(project_module, "_kkt_jacobian", counting_jac)
    monkeypatch.setattr(project_module, "_newton_polish", counting_newton)
    for fd_step in (1e-6, 1e-4):
        for n in range(2, 13):
            probe_semismoothness(make_cone(n), "numeric", fd_step=fd_step)
    assert 0 < max(most) <= project_module._NEWTON_HALVINGS - 1


def test_project_cone_variational_inequality(models):
    rng = np.random.default_rng(79)
    for n, model in models.items():
        for _ in range(5):
            q = ConePoint(n, rng.standard_normal(2 * n + 1) * 2.0)
            out, _ = project_cone(model, q, TOL)
            inside, worst = membership_cone(model, out, tol=10.0 * TOL)
            assert inside, worst
            resid = q.coords - out.coords
            for _ in range(40):
                c = sample_cone(model, rng)
                gap = float(resid @ (c.coords - out.coords))
                scale = (np.linalg.norm(resid)
                         * np.linalg.norm(c.coords - out.coords))
                assert gap <= 10.0 * TOL * scale + 1e-15


def test_project_polar_fixes_polar_points(models):
    for n, model in models.items():
        for t in (0.1, 0.6):
            v = polar_curve(model, t)
            out, _ = project_polar(model, v, TOL)
            assert np.linalg.norm(out.coords - v.coords) <= 10.0 * TOL


def test_project_polar_kills_members(models):
    rng = np.random.default_rng(83)
    for n, model in models.items():
        q = sample_cone(model, rng)
        out, _ = project_polar(model, q, TOL)
        assert np.linalg.norm(out.coords) <= 10.0 * TOL


def test_moreau_identity_orthogonality_pythagoras(models):
    rng = np.random.default_rng(89)
    for n, model in models.items():
        for _ in range(20):
            q = ConePoint(n, rng.standard_normal(2 * n + 1) * 2.0)
            cone_part, _ = project_cone(model, q, TOL)
            polar_part, _ = project_polar(model, q, TOL)
            # decomposition identity is exact by construction
            assert np.allclose(cone_part.coords + polar_part.coords, q.coords,
                               atol=1e-15)
            qq = max(1.0, float(q.coords @ q.coords))
            assert abs(float(cone_part.coords @ polar_part.coords)) \
                <= 100.0 * TOL * qq
            pyth = abs(float(cone_part.coords @ cone_part.coords
                             + polar_part.coords @ polar_part.coords
                             - q.coords @ q.coords))
            assert pyth <= 100.0 * TOL * qq


def test_project_range_fixes_images(models):
    rng = np.random.default_rng(103)
    for n, model in models.items():
        p = ConePoint(n, rng.standard_normal(2 * n + 1))
        X = lmi_apply(model, p)
        out = project_range(model, X)
        assert np.allclose(out.blocks, X.blocks, atol=1e-12)


def test_project_range_idempotent_and_orthogonal(models):
    rng = np.random.default_rng(107)
    for n, model in models.items():
        X = BlockSymMatrix(n, np.tile([1.0, 0.0, 1.0], (2 * n - 1, 1)))
        once = project_range(model, X)
        twice = project_range(model, once)
        assert np.allclose(twice.blocks, once.blocks, atol=1e-12)
        # residual is annihilated by the adjoint
        resid = BlockSymMatrix(n, X.blocks - once.blocks)
        pullback = lmi_adjoint(model, resid)
        assert np.linalg.norm(pullback.coords) <= 1e-11
        # and is orthogonal to every image point
        for _ in range(10):
            p = ConePoint(n, rng.standard_normal(2 * n + 1))
            img = lmi_apply(model, p)
            assert abs(resid.inner(img)) <= 1e-11 * max(1.0, img.norm())


def test_dykstra_fixes_slice_members(models):
    model = models[2]
    X = lmi_apply(model, normal_curve(model, 0.5))
    out, stats = project_slice_dykstra(model, X, TOL)
    assert stats.converged
    assert np.linalg.norm(out.blocks - X.blocks) <= 10.0 * TOL


def test_dykstra_zero(models):
    model = models[3]
    X = BlockSymMatrix(3, np.zeros((5, 3)))
    out, stats = project_slice_dykstra(model, X, TOL)
    assert np.linalg.norm(out.blocks) <= 10.0 * TOL
    # every slice projector returns the exact answer at once
    for kind in SLICE_PROJECTORS:
        out, stats = _project_slice(kind, model, X)
        assert np.all(out == 0.0), kind
        assert (stats.exit_reason, stats.converged, stats.iterations) == (
            "certified", True, 0)


def test_dykstra_output_lands_in_both_sets(models):
    rng = np.random.default_rng(109)
    for n in (2, 3):
        model = models[n]
        X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
        out, stats = project_slice_dykstra(model, X, TOL)
        assert stats.converged
        clipped = psd_project_block(out)
        assert np.linalg.norm(clipped.blocks - out.blocks) <= 10.0 * TOL
        ranged = project_range(model, out)
        assert np.linalg.norm(ranged.blocks - out.blocks) <= 10.0 * TOL


def test_dykstra_agrees_with_fixedpoint_on_infeasible_curve_image(models):
    # the image of a polar-curve point is far from the slice; the two
    # independent solvers must still land on the same projection
    for n in (2, 3):
        model = models[n]
        X = lmi_apply(model, polar_curve(model, 0.4))
        via_dyk, _ = project_slice_dykstra(model, X, TOL)
        via_fp, _ = project_slice_fixedpoint(model, X, TOL)
        assert np.linalg.norm(via_dyk.blocks - via_fp.blocks) <= 1e-5
    # so are N(0, 1) blocks, at every n; the derived answer is also its
    # own projection
    rng = np.random.default_rng(173)
    for n in range(2, 13):
        model = make_cone(n)
        for _ in range(3):
            X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            via_dyk, s_dyk = project_slice_dykstra(model, X, TOL)
            via_fp, s_fp = project_slice_fixedpoint(model, X, TOL)
            assert s_dyk.converged and s_fp.converged
            assert (np.linalg.norm(via_dyk.blocks - via_fp.blocks)
                    <= 1e-5 * np.linalg.norm(X.blocks))
            again, _ = project_slice_fixedpoint(model, via_fp, TOL)
            assert np.linalg.norm(again.blocks - via_fp.blocks) <= 1e-6


def _with_off_block(rng, X):
    """The full matrix of X plus random symmetric entries off its 2x2
    diagonal blocks."""
    d = 4 * X.n - 2
    raw = rng.standard_normal((d, d))
    full = raw + raw.T
    for k in range(2 * X.n - 1):
        full[2 * k:2 * k + 2, 2 * k:2 * k + 2] = 0.0
    return SymMatrix(full + X.to_full().to_dense())


def test_dykstra_full_matrix_path_matches_block_path(models):
    # a full input is reduced to its 2x2 diagonal blocks, so a block input
    # passed as a full matrix runs the block loop itself
    rng = np.random.default_rng(127)
    for n in (2, 3):
        for _ in range(15):
            X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            blocky, block_stats = project_slice_dykstra(models[n], X, TOL)
            fully, stats = project_slice_dykstra(models[n], X.to_full(), TOL)
            assert isinstance(fully, SymMatrix)
            assert stats == block_stats
            assert np.array_equal(fully.dense, blocky.to_full().dense)


_Q2 = ConePoint(2, np.random.default_rng(7).standard_normal(5))
_X2 = BlockSymMatrix(2, np.random.default_rng(8).standard_normal((3, 3)))


@pytest.mark.parametrize("project, good, bad", [
    (project_cone, [_Q2], [_X2, _X2.to_full()]),
    (project_polar, [_Q2], [_X2, _X2.to_full()]),
    (project_range, [_X2], [_Q2, _X2.to_full()]),
    (project_slice_dykstra, [_X2, _X2.to_full()],
     [_Q2, SymMatrix(np.eye(10))]),
    (project_slice_fixedpoint, [_X2, _X2.to_full()],
     [_Q2, SymMatrix(np.eye(10))]),
], ids=["cone", "polar", "range", "dykstra", "fixedpoint"])
def test_projectors_check_the_kind_of_input(models, project, good, bad):
    # a wrong kind of input used to raise AttributeError;
    # both slice projectors take a SymMatrix and return one
    model = models[2]
    answers = []
    for x in good:
        out = project(model, x)
        answers.append(out[0] if isinstance(out, tuple) else out)
        assert type(answers[-1]) is type(x)
    if len(answers) == 2:
        assert np.array_equal(answers[0].to_full().dense, answers[1].dense)
    for x in bad + [_Q2.coords, _X2.blocks, _X2.to_full().dense]:
        with pytest.raises(InvalidInputError):
            project(model, x)


SLICE_PROJECTORS = ("dykstra_block", "dykstra_dense", "fixedpoint")
# the block-matrix projections that run on X / ||X||, project_range too
SCALED_PROJECTORS = SLICE_PROJECTORS + ("range",)


def _project_slice(kind, model, X):
    """One slice projector, or project_range (with stats None), on the
    block matrix X; the answer as a dense matrix."""
    if kind == "range":
        return project_range(model, X).to_full().to_dense(), None
    if kind == "dykstra_block":
        out, stats = project_slice_dykstra(model, X, TOL)
        return out.to_full().to_dense(), stats
    if kind == "dykstra_dense":
        out, stats = project_slice_dykstra(model, X.to_full(), TOL)
        return out.to_dense(), stats
    out, stats = project_slice_fixedpoint(model, X, TOL)
    return out.to_full().to_dense(), stats


def test_slice_projectors_are_scale_invariant(models):
    rng = np.random.default_rng(149)
    for n in (2, 3):
        X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
        for kind in SLICE_PROJECTORS:
            ref, ref_stats = _project_slice(kind, models[n], X)
            assert ref_stats.converged
            for a in (1e-200, 1e-12, 1e-6, 1e6, 1e12, 1e150):
                out, stats = _project_slice(
                    kind, models[n], BlockSymMatrix(n, a * X.blocks))
                err = np.linalg.norm(out / a - ref) / np.linalg.norm(ref)
                assert err <= 1e-12, (n, kind, a, err)
                assert stats.converged, (n, kind, a, stats)


def test_slice_power_of_two_scaling_is_bitwise(models):
    rng = np.random.default_rng(151)
    for n in (2, 3):
        X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
        for kind in SCALED_PROJECTORS:
            ref, ref_stats = _project_slice(kind, models[n], X)
            for k in (-600, -40, 40, 400):
                out, stats = _project_slice(
                    kind, models[n], BlockSymMatrix(n, 2.0 ** k * X.blocks))
                assert np.array_equal(out, 2.0 ** k * ref), (n, kind, k)
                assert stats == ref_stats


def test_overflowing_input_norm_is_rejected(models):
    # finite inputs whose norm exceeds the largest double: the solve on
    # q / ||q|| = 0 used to certify a wrong answer
    q = ConePoint(2, np.full(5, -1.5e308))
    for project in (project_cone, project_polar):
        with pytest.raises(InvalidInputError, match="largest double"):
            project(models[2], q, TOL)
    # diagonal entries only, so the sqrt(2) weighting itself cannot overflow
    X = BlockSymMatrix(2, np.tile([-1.5e308, 0.0, -1.5e308], (3, 1)))
    for kind in SCALED_PROJECTORS:
        with pytest.raises(InvalidInputError, match="largest double"):
            _project_slice(kind, models[2], X)


def test_overflowing_off_diagonal_weight_is_rejected_without_warning(models):
    # sqrt(2) b overflows: the norm exceeds the largest double, and numpy's
    # overflow warning used to come before the rejection
    X = BlockSymMatrix(2, np.tile([0.0, 1.5e308, 0.0], (3, 1)))
    for kind in SCALED_PROJECTORS:
        with pytest.raises(InvalidInputError, match="largest double"):
            _project_slice(kind, models[2], X)


def test_input_norm_just_below_the_largest_double_is_projected(models):
    # the norm is taken before the blocks are rotated: (a + c) / sqrt(2)
    # of this block overflows, its norm sqrt(2) 1.27e308 does not
    blocks = np.zeros((3, 3))
    blocks[0] = 1.27e308, 0.0, 1.27e308
    for kind in SCALED_PROJECTORS:
        out, stats = _project_slice(kind, models[2],
                                    BlockSymMatrix(2, blocks))
        ref, ref_stats = _project_slice(
            kind, models[2], BlockSymMatrix(2, 2.0 ** -1000 * blocks))
        assert np.array_equal(out, 2.0 ** 1000 * ref), kind
        assert stats == ref_stats


def test_dense_dykstra_projects_full_input(models):
    # the range of the LMI map is block-diagonal, so the projection of a
    # full matrix is the projection of its 2x2 diagonal blocks
    rng = np.random.default_rng(157)
    for n in (2, 3):
        model = models[n]
        off_block = np.ones((4 * n - 2, 4 * n - 2), dtype=bool)
        for k in range(2 * n - 1):
            off_block[2 * k:2 * k + 2, 2 * k:2 * k + 2] = False
        for _ in range(5):
            X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            full = _with_off_block(rng, X)
            blocky, block_stats = project_slice_dykstra(
                model, BlockSymMatrix.from_full(n, full), TOL)
            fully, stats = project_slice_dykstra(model, full, TOL)
            assert stats.converged and stats == block_stats
            dense = fully.to_dense()
            assert np.array_equal(dense, blocky.to_full().to_dense())
            assert not dense[off_block].any()
            for k in (-600, -40, 40, 400):
                scaled = SymMatrix(2.0 ** k * full.dense)
                out, out_stats = project_slice_dykstra(model, scaled, TOL)
                assert np.array_equal(out.dense, 2.0 ** k * fully.dense)
                assert out_stats == stats
        # nothing on the diagonal blocks: the projection is 0
        zero = BlockSymMatrix(n, np.zeros((2 * n - 1, 3)))
        out, stats = project_slice_dykstra(model, _with_off_block(rng, zero), TOL)
        assert not out.dense.any()
        assert (stats.iterations, stats.converged) == (0, True)


def test_fixedpoint_fixes_cone_images(models):
    rng = np.random.default_rng(131)
    for n in (2, 3):
        model = models[n]
        p = sample_cone(model, rng)
        X = lmi_apply(model, p)
        out, stats = project_slice_fixedpoint(model, X, TOL)
        assert stats.converged
        assert np.linalg.norm(out.blocks - X.blocks) <= 1e-6


def test_generic_model_projections():
    # m = 2 blocks in d = 4: no chain member has this shape, so the solvers
    # run on arrays; e1 maps to identity blocks, so the cone has interior
    rng = np.random.default_rng(41)
    W = rng.standard_normal((6, 4))
    W[:, 0] = (1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    model = ConeModel.from_lmi(W)
    assert model.dim() == 4
    # the typed API needs a W of a chain member's shape
    with pytest.raises(InvalidInputError, match="model has W 6x4"):
        project_cone(model, ConePoint(2, np.ones(5)))
    members = [_project_cone_arr(model, g, TOL)[0]
               for g in rng.standard_normal((20, 4))]
    gram = model.slice_model
    Q = gram.lmi_lorentz
    for _ in range(10):
        q = 3.0 * rng.standard_normal(4)
        p, stats, _ = _project_cone_arr(model, q, TOL)
        assert stats.converged
        # Moreau: p in K, q - p orthogonal to p and in the polar of K, and
        # the projection fixes p
        assert block_min_eigs(_lmi_rows(model, p)).min() >= -1e-12
        assert abs(p @ (q - p)) <= 1e-12 * (q @ q)
        assert max(k @ (q - p) for k in members) <= 1e-9 * (q @ q)
        again, _, _ = _project_cone_arr(model, p, TOL)
        assert np.abs(again - p).max() <= 1e-12 * np.linalg.norm(q)
        # the slice projection derived from the cone solve in the Gram
        # metric meets the Dykstra oracle, on Lorentz vectors
        x = rng.standard_normal(6)
        w, stats, _ = _project_cone_arr(gram, Q.T @ x, TOL)
        y, dykstra = _dykstra_flat(model, x, TOL)
        assert stats.converged and dykstra.converged
        assert np.abs(Q @ w - y).max() <= 1e-5


def test_family_functions_reject_a_derived_model():
    # the slice model of K_3 is another cone: it has no lam, and the probe
    # used to measure it with K_3's lam
    derived = make_cone(3).slice_model
    assert type(derived) is ConeModel
    assert not any(hasattr(derived, a) for a in ("n", "kappa", "lam"))
    for family_call in (lambda: probe_semismoothness(derived, "numeric"),
                        lambda: polar_curve(derived, 0.5),
                        lambda: sample_cone(derived, np.random.default_rng(1))):
        with pytest.raises(AttributeError):
            family_call()


@pytest.mark.parametrize("n", [2, 5, 8])
def test_rotated_and_permuted_lmi_metamorphic(n):
    # K_R = {p : W R p PSD} = R^T K for orthogonal R, so its projection is
    # R^T Pi_K(R x), and its slice W R K_R = W K is K's; permuting W's
    # block row triples leaves the cone itself unchanged
    rng = np.random.default_rng(100 + n)
    chain = make_cone(n)
    W, d = chain.lmi_weighted, chain.dim()
    R, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rotated = ConeModel.from_lmi(W @ R)
    perm = rng.permutation(2 * n - 1)
    permuted = ConeModel.from_lmi(W.reshape(-1, 3, d)[perm].reshape(W.shape))
    for _ in range(4):
        x = rng.standard_normal(d)
        p, stats = project_cone(rotated, ConePoint(n, x), TOL)
        want, _ = project_cone(chain, ConePoint(n, R @ x), TOL)
        assert stats.converged
        assert np.abs(p.coords - R.T @ want.coords).max() <= 1e-12
        p, _ = project_cone(permuted, ConePoint(n, x), TOL)
        want, _ = project_cone(chain, ConePoint(n, x), TOL)
        assert np.abs(p.coords - want.coords).max() <= 1e-12
        X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
        for project in (project_slice_dykstra, project_slice_fixedpoint):
            got, _ = project(rotated, X, TOL)
            want, _ = project(chain, X, TOL)
            assert np.abs(got.blocks - want.blocks).max() <= 1e-5


def test_admm_operator_inverts_the_unit_penalty_system():
    # the ADMM step runs on L, the LMI matrix in Lorentz block coordinates
    for n in range(2, 13):
        model = make_cone(n)
        d = model.dim()
        eye = np.eye(d)
        W, L = model.lmi_weighted, model.lmi_lorentz
        assert np.array_equal(L, to_lorentz(W.reshape(-1, 3, d)).reshape(W.shape))
        assert np.allclose((eye + L.T @ L) @ model.admm_minv, eye,
                           atol=1e-12)
        assert np.array_equal(model.admm_gain, model.admm_minv @ L.T)


def _loop_kkt_residual(Bs, q, u):
    d = q.shape[0]
    mu, pi, nu = u[0], u[1:1 + d], u[1 + d:]
    f1 = mu * pi - q
    for k in range(len(Bs)):
        f1 -= 2.0 * nu[k] * (Bs[k] @ pi)
    f2 = np.array([pi @ (Bs[k] @ pi) for k in range(len(Bs))])
    return np.concatenate([f1, f2, [pi @ pi - 1.0]])


def _loop_kkt_jacobian(Bs, u):
    d = Bs.shape[1]
    nJ = len(Bs)
    mu, pi, nu = u[0], u[1:1 + d], u[1 + d:]
    jac = np.zeros((d + nJ + 1, d + nJ + 1))
    S = mu * np.eye(d)
    for k in range(nJ):
        S -= 2.0 * nu[k] * Bs[k]
    jac[:d, 0] = pi
    jac[:d, 1:1 + d] = S
    for k in range(nJ):
        jac[:d, 1 + d + k] = -2.0 * (Bs[k] @ pi)
        jac[d + k, 1:1 + d] = 2.0 * (Bs[k] @ pi)
    jac[d + nJ, 1:1 + d] = 2.0 * pi
    return jac


def _apex_case():
    # the probe's apex case at n = 4: the base point polar_curve(1e-4),
    # whose projection is the apex, and its finite-difference neighbour
    model = make_cone(4)
    base = polar_curve(model, 1e-4).coords
    step = 1e-6 * (base - polar_curve(model, 0.0).coords)
    return model, (base, base + step)


def test_newton_polish_certifies_apex_case(monkeypatch):
    model, qs = _apex_case()
    calls = []

    def recording(model_, q, p, dual, *rest):
        out = _attempt_polish(model_, q, p, dual, *rest)
        calls.append((q, p, out))
        return out

    monkeypatch.setattr(project_module, "_attempt_polish", recording)
    rng = np.random.default_rng(157)
    for q in qs:
        calls.clear()
        p, stats, _ = project_module._project_cone_arr(
            model, q, 1e-13)
        assert stats.converged
        assert calls and calls[-1][2] is not None
        p_hat, cert = calls[-1][2][:2]
        # the refinement runs on q / ||q||; the solver scales its answer back
        assert np.array_equal(p, math.hypot(*q) * p_hat) and cert <= 1e-13
        inside, _ = membership_cone(model, ConePoint(4, p), tol=1e-13)
        assert inside
        # the stacked residual and Jacobian match the per-block loops
        Bs = model.det_forms
        nJ, d = Bs.shape[:2]
        for q_, p_, _ in calls:
            u = np.concatenate([[np.linalg.norm(p_) + 0.5], p_ + 0.1,
                                rng.standard_normal(nJ)])
            Bpi = Bs @ u[1:1 + d]
            assert np.allclose(_kkt_residual(Bs, q_, u, np.empty_like(u), Bpi),
                               _loop_kkt_residual(Bs, q_, u),
                               rtol=0.0, atol=1e-13)
            assert np.allclose(_kkt_jacobian(Bs, u, Bpi,
                                             Bs.reshape(nJ, d * d)),
                               _loop_kkt_jacobian(Bs, u),
                               rtol=0.0, atol=1e-13)


def test_dual_sign_test_is_per_block():
    # one large multiplier used to widen the threshold of every block:
    # nu >= -1e-9 (1 + max|nu|) accepted a slightly negative one beside it
    model = make_cone(2)
    rows = _lmi_rows(model, np.eye(5)[2])  # unit x3: traces 2, 1, 1
    J, nu = [0, 1], np.array([1e4, -1e-7])
    assert np.all(nu >= -1e-9 * (1.0 + np.abs(nu).max()))
    assert not _duals_nonnegative(rows, J, nu)
    assert _duals_nonnegative(rows, J, np.array([1e4, 0.0]))
    # each block on its own scale: nu_k tr M_k, here -1e-7 * 1e-3
    assert _duals_nonnegative(rows * 1e-3, J, nu)
    assert _duals_nonnegative(rows, [], np.empty(0))


def test_newton_polish_initial_multipliers_are_least_norm(monkeypatch):
    # the kernel's dgelsd call gives the multipliers np.linalg.lstsq gives
    model, qs = _apex_case()
    d = model.dim()
    newton, kkt = project_module._newton_polish, project_module._kkt_residual
    pending, starts = [], []

    def recording_newton(model_, q, p0, J, *rest):
        pending[:] = [(q, p0, J)]
        try:
            return newton(model_, q, p0, J, *rest)
        finally:
            pending.clear()

    def recording_kkt(Bs, q, u, *out):
        if pending:
            starts.append((*pending.pop(), u.copy()))
        return kkt(Bs, q, u, *out)

    monkeypatch.setattr(project_module, "_newton_polish", recording_newton)
    monkeypatch.setattr(project_module, "_kkt_residual", recording_kkt)
    for q in qs:
        project_module._project_cone_arr(model, q, 1e-13)
    starts = [s for s in starts if s[2]]
    assert starts
    for q, p0, J, u in starts:
        mu = np.linalg.norm(p0)
        pi = p0 / mu
        nu, *_ = np.linalg.lstsq(-2.0 * (model.det_forms[J] @ pi).T,
                                 q - mu * pi, rcond=None)
        assert np.allclose(u[:1 + d], np.concatenate([[mu], pi]),
                           rtol=1e-15, atol=0.0)
        assert np.abs(u[1 + d:] - nu).max() <= 1e-14


def test_newton_polish_returns_none_on_singular_jacobian():
    # pi lies on coordinates 0 and 1, which block 0's form does not touch,
    # so B_0 pi = 0 and the multiplier column of the KKT Jacobian is 0
    model = make_cone(2)
    d = model.dim()
    p0 = np.array([0.6, 0.8, 0.0, 0.0, 0.0])
    q = np.array([0.5, 0.1, -0.7, 0.3, 0.4])
    q /= np.linalg.norm(q)
    Bs = model.det_forms[[0]]
    assert not Bs[:, :, :2].any()
    u = np.concatenate([[1.0], p0, [0.0]])
    Bpi = Bs @ p0
    assert not _kkt_jacobian(Bs, u, Bpi, Bs.reshape(1, d * d))[:, 1 + d:].any()
    assert np.abs(_kkt_residual(Bs, q, u, np.empty_like(u), Bpi)).max() > 1e-3
    assert project_module._newton_polish(model, q, p0, [0]) is None
