"""Solver checks: cone/polar projections, range projector, slice projectors."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from sliceproj import (BlockSymMatrix, ConePoint, InvalidInputError,
                       SolverConfig, lmi_adjoint, lmi_apply, make_cone,
                       membership_cone, normal_curve, polar_curve,
                       project_cone, project_polar, project_range,
                       project_slice_dykstra, project_slice_fixedpoint,
                       psd_project_block, sample_cone)
from sliceproj import project as project_module
from sliceproj.project import (SolveStats, _attempt_polish, _kkt_jacobian,
                               _kkt_residual)
from sliceproj.symmat import SymMatrix

CFG = SolverConfig()


@pytest.fixture(scope="module")
def models():
    return {n: make_cone(n) for n in range(2, 6)}


def test_solver_config_validation():
    with pytest.raises(InvalidInputError):
        SolverConfig(tol=0.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(max_iter=0)
    # tol=True silently meant tol = 1.0, and polish="no" turned the polish on
    for bad in ({"tol": math.inf}, {"tol": math.nan}, {"tol": True},
                {"tol": "1e-9"}, {"polish": "no"}, {"polish": 1},
                {"polish": None}):
        with pytest.raises(InvalidInputError):
            SolverConfig(**bad)
    # numpy scalars stay valid
    q = ConePoint(2, np.random.default_rng(7).standard_normal(5))
    _, stats = project_cone(make_cone(2), q, SolverConfig(
        tol=np.float64(1e-6), polish=np.bool_(False)))
    assert stats.converged and stats.exit_reason == "tol"


def test_solver_config_max_iter_must_be_an_integer():
    # 2.5 crashed the solve in range(), and True silently meant 1
    for bad in (2.5, True, 3.0, "3"):
        with pytest.raises(InvalidInputError):
            SolverConfig(max_iter=bad)
    cfg = SolverConfig(max_iter=np.int64(3))
    assert type(cfg.max_iter) is int and cfg.max_iter == 3
    q = ConePoint(2, np.random.default_rng(7).standard_normal(5))
    _, stats = project_cone(make_cone(2), q, replace(cfg, polish=False))
    assert (stats.exit_reason, stats.iterations) == ("budget", 3)


def test_each_solve_logs_one_exit_line(models, caplog):
    model = models[2]
    q = ConePoint(2, np.random.default_rng(7).standard_normal(5))
    X = BlockSymMatrix(2, np.random.default_rng(8).standard_normal((3, 3)))
    for what, solve in (("cone projection", lambda: project_cone(model, q, CFG)),
                        ("Dykstra", lambda: project_slice_dykstra(model, X, CFG))):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="sliceproj.project"):
            _, stats = solve()
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage() == (
            f"{what}: {stats.exit_reason} after {stats.iterations} iterations "
            f"at residual {stats.final_residual:.3e}")


def test_solve_stats_json_dict(models):
    q = polar_curve(models[2], 0.3)
    _, stats = project_cone(models[2], q, CFG)
    d = stats.to_json_dict()
    assert set(d) == {"iterations", "final_residual", "converged",
                      "exit_reason"}
    assert isinstance(d["iterations"], int)
    assert isinstance(d["final_residual"], float)
    assert isinstance(d["converged"], bool)
    assert d["exit_reason"] in project_module.EXIT_REASONS


def test_project_cone_fixes_members(models):
    rng = np.random.default_rng(71)
    for n, model in models.items():
        q = ConePoint(n, np.eye(2 * n + 1)[2])  # unit x3 is interior-ish
        out, stats = project_cone(model, q, CFG)
        assert stats.converged
        assert np.linalg.norm(out.coords - q.coords) <= 10.0 * CFG.tol
        for _ in range(5):
            q = sample_cone(model, rng)
            out, _ = project_cone(model, q, CFG)
            assert np.linalg.norm(out.coords - q.coords) <= 10.0 * CFG.tol


def test_project_cone_negated_generator_maps_to_apex(models):
    model = models[2]
    w = normal_curve(model, 0.5)
    # oracle: -w is in the polar cone, checked by sampling cone members
    rng = np.random.default_rng(73)
    for _ in range(300):
        k = sample_cone(model, rng)
        assert float(-w.coords @ k.coords) <= 1e-12
    out, stats = project_cone(model, ConePoint(2, -w.coords), CFG)
    assert stats.converged
    assert np.linalg.norm(out.coords) <= 10.0 * CFG.tol


def test_project_cone_polar_boundary_maps_to_apex(models):
    for n, model in models.items():
        for t in (0.05, 0.3, 0.7, 0.95):
            out, _ = project_cone(model, polar_curve(model, t), CFG)
            assert np.linalg.norm(out.coords) <= 10.0 * CFG.tol, (n, t)


def test_curve_feasibility_via_moreau(models):
    # the whole curve lives in the polar cone: its cone projection vanishes,
    # and the normal generator stays in the cone and orthogonal to the base
    for n in (2, 3):
        model = models[n]
        for t in np.linspace(0.0, 1.0, 50):
            v = polar_curve(model, t)
            out, _ = project_cone(model, v, CFG)
            assert np.linalg.norm(out.coords) <= 1e-6
            w = normal_curve(model, t)
            inside, _ = membership_cone(model, w, tol=1e-10)
            assert inside
            assert abs(float(v.coords @ w.coords)) <= 1e-12


def test_project_cone_zero_short_circuit(models):
    out, stats = project_cone(models[3], ConePoint(3, np.zeros(7)), CFG)
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
        ref, ref_stats = project_cone(model, ConePoint(model.n, g), CFG)
        assert ref_stats.converged
        for a in SCALES:
            out, stats = project_cone(model, ConePoint(model.n, a * g), CFG)
            err = np.linalg.norm(out.coords / a - ref.coords) / np.linalg.norm(g)
            assert err <= 1e-12, (model.n, a, err)
            assert stats.converged, (model.n, a, stats)


def test_project_cone_power_of_two_scaling_is_bitwise():
    for model, g in _scale_cases():
        ref, ref_stats = project_cone(model, ConePoint(model.n, g), CFG)
        for k in (-600, -40, 40, 400):
            out, stats = project_cone(model, ConePoint(model.n, 2.0 ** k * g),
                                      CFG)
            assert np.array_equal(out.coords, 2.0 ** k * ref.coords), (model.n, k)
            assert stats.iterations == ref_stats.iterations
            assert stats.converged == ref_stats.converged


def test_exit_reasons(models):
    model = models[2]
    w = normal_curve(model, 0.5)
    q = ConePoint(2, polar_curve(model, 0.5).coords + w.coords)
    _, stats = project_cone(model, q, SolverConfig(polish=False))
    assert (stats.exit_reason, stats.converged) == ("tol", True)
    _, stats = project_cone(model, polar_curve(model, 0.5), CFG)
    assert (stats.exit_reason, stats.converged) == ("certified", True)
    _, stats = project_cone(model, w, CFG)
    assert (stats.exit_reason, stats.iterations) == ("certified", 0)
    _, stats = project_cone(model, q, SolverConfig(tol=1e-300, polish=False))
    assert (stats.exit_reason, stats.converged) == ("stalled", False)
    assert stats.iterations < SolverConfig().max_iter
    _, stats = project_cone(model, q, SolverConfig(max_iter=5, polish=False))
    assert (stats.exit_reason, stats.iterations) == ("budget", 5)
    X = lmi_apply(model, w)
    _, stats = project_slice_fixedpoint(model, X, CFG)
    assert stats.exit_reason == "tol"
    Y = BlockSymMatrix(2, np.random.default_rng(5).standard_normal((3, 3)))
    _, stats = project_slice_dykstra(model, Y, SolverConfig(max_iter=2))
    assert (stats.exit_reason, stats.converged) == ("budget", False)


def test_iterate_checkpoints_at_doublings_and_every_exit():
    # the refinement runs at iteration 32, each doubling, and the exit
    def run(residuals, max_iter, window=2000, stop_at=None):
        seen = []
        res = iter(residuals)

        def checkpoint(k):
            seen.append(k)
            if k == stop_at:
                return SolveStats(k, 0.0, True, "certified")
            return None

        stats = project_module._iterate(lambda: next(res),
                                        SolverConfig(max_iter=max_iter),
                                        "test", window, checkpoint)
        return seen, (stats.exit_reason, stats.iterations)

    falling = [1.0 / k for k in range(1, 301)]
    assert run(falling, 300) == ([32, 64, 128, 256, 300], ("budget", 300))
    assert run(falling[:49] + [0.0], 300) == ([32, 50], ("tol", 50))
    assert run(falling[:63] + [0.0], 300) == ([32, 64], ("tol", 64))
    assert run([1.0] * 300, 300, window=40) == ([32, 42], ("stalled", 42))
    assert run(falling, 300, stop_at=64) == ([32, 64], ("certified", 64))
    # a solve that ends before the first checkpoint runs it once, at its exit
    assert run(falling, 20) == ([20], ("budget", 20))


def test_warm_path_solves_refine_first_at_64():
    # a solve that refills a warm holder runs one doubling longer before
    # its first refinement; a one-off solve refines first at 32
    model = make_cone(4)
    q = np.random.default_rng(0).standard_normal(9)
    _, cold = project_module._project_cone_arr(model, q, CFG)
    _, warm = project_module._project_cone_arr(model, q, CFG,
                                               project_module._WarmStart())
    assert (cold.iterations, cold.exit_reason) == (32, "certified")
    assert (warm.iterations, warm.exit_reason) == (64, "certified")


def test_hopeless_refinement_gives_up_early(monkeypatch):
    # among these inputs the refinement meets active sets it cannot
    # certify; without the progress test one such call runs all 60 Newton
    # steps with 1539 KKT evaluations
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
        _, stats = project_cone(model, q, CFG)
        assert stats.converged
    assert max(evals) <= 300


def test_project_cone_variational_inequality(models):
    rng = np.random.default_rng(79)
    for n, model in models.items():
        for _ in range(5):
            q = ConePoint(n, rng.standard_normal(2 * n + 1) * 2.0)
            out, _ = project_cone(model, q, CFG)
            inside, worst = membership_cone(model, out, tol=10.0 * CFG.tol)
            assert inside, worst
            resid = q.coords - out.coords
            for _ in range(40):
                c = sample_cone(model, rng)
                gap = float(resid @ (c.coords - out.coords))
                scale = (np.linalg.norm(resid)
                         * np.linalg.norm(c.coords - out.coords))
                assert gap <= 10.0 * CFG.tol * scale + 1e-15


def test_project_polar_fixes_polar_points(models):
    for n, model in models.items():
        for t in (0.1, 0.6):
            v = polar_curve(model, t)
            out, _ = project_polar(model, v, CFG)
            assert np.linalg.norm(out.coords - v.coords) <= 10.0 * CFG.tol


def test_project_polar_kills_members(models):
    rng = np.random.default_rng(83)
    for n, model in models.items():
        q = sample_cone(model, rng)
        out, _ = project_polar(model, q, CFG)
        assert np.linalg.norm(out.coords) <= 10.0 * CFG.tol


def test_moreau_identity_orthogonality_pythagoras(models):
    rng = np.random.default_rng(89)
    for n, model in models.items():
        for _ in range(20):
            q = ConePoint(n, rng.standard_normal(2 * n + 1) * 2.0)
            cone_part, _ = project_cone(model, q, CFG)
            polar_part, _ = project_polar(model, q, CFG)
            # decomposition identity is exact by construction
            assert np.allclose(cone_part.coords + polar_part.coords, q.coords,
                               atol=1e-15)
            qq = max(1.0, float(q.coords @ q.coords))
            assert abs(float(cone_part.coords @ polar_part.coords)) \
                <= 100.0 * CFG.tol * qq
            pyth = abs(float(cone_part.coords @ cone_part.coords
                             + polar_part.coords @ polar_part.coords
                             - q.coords @ q.coords))
            assert pyth <= 100.0 * CFG.tol * qq


def test_projector_idempotence(models):
    rng = np.random.default_rng(97)
    for n, model in models.items():
        for _ in range(5):
            q = ConePoint(n, rng.standard_normal(2 * n + 1) * 2.0)
            once, _ = project_cone(model, q, CFG)
            twice, _ = project_cone(model, once, CFG)
            scale = max(1.0, q.norm())
            assert np.linalg.norm(twice.coords - once.coords) \
                <= 100.0 * CFG.tol * scale


def test_projector_nonexpansive(models):
    rng = np.random.default_rng(101)
    for n, model in models.items():
        for _ in range(10):
            q1 = ConePoint(n, rng.standard_normal(2 * n + 1) * 2.0)
            q2 = ConePoint(n, rng.standard_normal(2 * n + 1) * 2.0)
            p1, _ = project_cone(model, q1, CFG)
            p2, _ = project_cone(model, q2, CFG)
            d_proj = np.linalg.norm(p1.coords - p2.coords)
            d_in = np.linalg.norm(q1.coords - q2.coords)
            assert d_proj <= d_in + 100.0 * CFG.tol


def test_normal_ray_fixed_point(models):
    # executable content of the normal-cone characterization: adding any
    # positive multiple of the generator projects straight back to the base
    for n in (2, 3, 4):
        model = models[n]
        for t in (0.1, 0.5, 0.9):
            v = polar_curve(model, t)
            w = normal_curve(model, t)
            for alpha in (0.1, 1.0):
                q = ConePoint(n, v.coords + alpha * w.coords)
                back, _ = project_polar(model, q, CFG)
                assert np.linalg.norm(back.coords - v.coords) <= 1e-5


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
    out, stats = project_slice_dykstra(model, X, CFG)
    assert stats.converged
    assert np.linalg.norm(out.blocks - X.blocks) <= 10.0 * CFG.tol


def test_dykstra_zero(models):
    model = models[3]
    X = BlockSymMatrix(3, np.zeros((5, 3)))
    out, stats = project_slice_dykstra(model, X, CFG)
    assert np.linalg.norm(out.blocks) <= 10.0 * CFG.tol
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
        out, stats = project_slice_dykstra(model, X, CFG)
        assert stats.converged
        clipped = psd_project_block(out)
        assert np.linalg.norm(clipped.blocks - out.blocks) <= 10.0 * CFG.tol
        ranged = project_range(model, out)
        assert np.linalg.norm(ranged.blocks - out.blocks) <= 10.0 * CFG.tol


def test_dykstra_agrees_with_fixedpoint(models):
    rng = np.random.default_rng(113)
    for n in (2, 3):
        model = models[n]
        for _ in range(6):
            X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            via_dyk, s1 = project_slice_dykstra(model, X, CFG)
            via_fp, s2 = project_slice_fixedpoint(model, X, CFG)
            assert np.linalg.norm(via_dyk.blocks - via_fp.blocks) <= 1e-5


def test_dykstra_agrees_with_fixedpoint_on_infeasible_curve_image(models):
    # the image of a polar-curve point is far from the slice; the two
    # independent solvers must still land on the same projection
    for n in (2, 3):
        model = models[n]
        X = lmi_apply(model, polar_curve(model, 0.4))
        via_dyk, _ = project_slice_dykstra(model, X, CFG)
        via_fp, _ = project_slice_fixedpoint(model, X, CFG)
        assert np.linalg.norm(via_dyk.blocks - via_fp.blocks) <= 1e-5


def _with_off_block(rng, X):
    """The full matrix of X plus random symmetric entries off its 2x2
    diagonal blocks."""
    d = 4 * X.n - 2
    raw = rng.standard_normal((d, d))
    full = raw + raw.T
    for k in range(2 * X.n - 1):
        full[2 * k:2 * k + 2, 2 * k:2 * k + 2] = 0.0
    return SymMatrix.from_dense(full + X.to_full().to_dense())


def test_dykstra_full_matrix_path_matches_block_path(models):
    # a full input is reduced to its 2x2 diagonal blocks, so a block input
    # passed as a full matrix runs the block loop itself
    rng = np.random.default_rng(127)
    for n in (2, 3):
        for _ in range(15):
            X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            blocky, block_stats = project_slice_dykstra(models[n], X, CFG)
            fully, stats = project_slice_dykstra(models[n], X.to_full(), CFG)
            assert isinstance(fully, SymMatrix)
            assert stats == block_stats
            assert np.array_equal(fully.packed, blocky.to_full().packed)


def test_dense_dykstra_stops_on_stall(models):
    # an unreachable tol: Dykstra must stop at its floor, on either input
    rng = np.random.default_rng(5)
    model = models[2]
    X = BlockSymMatrix(2, rng.standard_normal((3, 3)))
    cfg = SolverConfig(tol=1e-300, max_iter=50_000)
    for inp in (X, X.to_full(), _with_off_block(rng, X)):
        _, stats = project_slice_dykstra(model, inp, cfg)
        assert (stats.exit_reason, stats.converged) == ("stalled", False)
        assert stats.iterations < 10_000


SLICE_PROJECTORS = ("dykstra_block", "dykstra_dense", "fixedpoint")


def _project_slice(kind, model, X):
    """One slice projector on the block matrix X; the answer as a dense
    matrix."""
    if kind == "dykstra_block":
        out, stats = project_slice_dykstra(model, X, CFG)
        return out.to_full().to_dense(), stats
    if kind == "dykstra_dense":
        out, stats = project_slice_dykstra(model, X.to_full(), CFG)
        return out.to_dense(), stats
    out, stats = project_slice_fixedpoint(model, X, CFG)
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
        for kind in SLICE_PROJECTORS:
            ref, ref_stats = _project_slice(kind, models[n], X)
            for k in (-600, -40, 40, 400):
                out, stats = _project_slice(
                    kind, models[n], BlockSymMatrix(n, 2.0 ** k * X.blocks))
                assert np.array_equal(out, 2.0 ** k * ref), (n, kind, k)
                assert stats.iterations == ref_stats.iterations


def test_overflowing_input_norm_is_rejected(models):
    # finite inputs whose norm exceeds the largest double: the solve on
    # q / ||q|| = 0 used to certify a wrong answer
    q = ConePoint(2, np.full(5, -1.5e308))
    for project in (project_cone, project_polar):
        with pytest.raises(InvalidInputError, match="largest double"):
            project(models[2], q, CFG)
    # diagonal entries only, so the sqrt(2) weighting itself cannot overflow
    X = BlockSymMatrix(2, np.tile([-1.5e308, 0.0, -1.5e308], (3, 1)))
    for kind in SLICE_PROJECTORS:
        with pytest.raises(InvalidInputError, match="largest double"):
            _project_slice(kind, models[2], X)


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
                model, BlockSymMatrix.from_full(n, full), CFG)
            fully, stats = project_slice_dykstra(model, full, CFG)
            assert stats.converged and stats == block_stats
            dense = fully.to_dense()
            assert np.array_equal(dense, blocky.to_full().to_dense())
            assert not dense[off_block].any()
            for k in (-600, -40, 40, 400):
                scaled = SymMatrix(full.dim, 2.0 ** k * full.packed)
                out, out_stats = project_slice_dykstra(model, scaled, CFG)
                assert np.array_equal(out.packed, 2.0 ** k * fully.packed)
                assert out_stats == stats
        # nothing on the diagonal blocks: the projection is 0
        zero = BlockSymMatrix(n, np.zeros((2 * n - 1, 3)))
        out, stats = project_slice_dykstra(model, _with_off_block(rng, zero), CFG)
        assert not out.packed.any()
        assert (stats.iterations, stats.converged) == (0, True)


def test_fixedpoint_fixes_cone_images(models):
    rng = np.random.default_rng(131)
    for n in (2, 3):
        model = models[n]
        p = sample_cone(model, rng)
        X = lmi_apply(model, p)
        out, stats = project_slice_fixedpoint(model, X, CFG)
        assert stats.converged
        assert np.linalg.norm(out.blocks - X.blocks) <= 1e-6


def test_fixedpoint_gamma_independence(models):
    rng = np.random.default_rng(137)
    for n in (2, 3):
        model = models[n]
        X = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
        outs = [project_slice_fixedpoint(model, X, CFG,
                                         gamma=frac / model.lam_max)[0]
                for frac in (0.3, 0.6, 0.9)]
        for other in outs[1:]:
            assert np.linalg.norm(outs[0].blocks - other.blocks) <= 1e-6


def test_fixedpoint_gamma_guard(models):
    X = BlockSymMatrix(2, np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        project_slice_fixedpoint(models[2], X, CFG, gamma=1.0)


def test_unpolished_admm_still_converges_on_regular_inputs(models):
    cfg = SolverConfig(polish=False)
    rng = np.random.default_rng(139)
    model = models[2]
    v = polar_curve(model, 0.5)
    w = normal_curve(model, 0.5)
    q = ConePoint(2, v.coords + w.coords)
    out, stats = project_cone(model, q, cfg)
    assert stats.converged
    assert np.linalg.norm(out.coords - w.coords) <= 1e-6


def test_admm_operator_inverts_the_unit_penalty_system():
    for n in range(2, 13):
        model = make_cone(n)
        eye = np.eye(model.dim())
        assert np.allclose((eye + model.gram_dense) @ model.admm_minv, eye,
                           atol=1e-12)
        assert np.array_equal(model.admm_gain,
                              model.admm_minv @ model.lmi_weighted.T)


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

    def recording(model_, q, p, dual):
        out = _attempt_polish(model_, q, p, dual)
        calls.append((q, p, out))
        return out

    monkeypatch.setattr(project_module, "_attempt_polish", recording)
    rng = np.random.default_rng(157)
    for q in qs:
        calls.clear()
        p, stats = project_module._project_cone_arr(
            model, q, SolverConfig(tol=1e-13))
        assert stats.converged
        assert calls and calls[-1][2] is not None
        p_hat, cert = calls[-1][2]
        # the refinement runs on q / ||q||; the solver scales its answer back
        assert np.array_equal(p, math.hypot(*q) * p_hat) and cert <= 1e-13
        inside, _ = membership_cone(model, ConePoint(4, p), tol=1e-13)
        assert inside
        # the stacked residual and Jacobian match the per-block loops
        Bs = model.det_forms
        for q_, p_, _ in calls:
            u = np.concatenate([[np.linalg.norm(p_) + 0.5], p_ + 0.1,
                                rng.standard_normal(len(Bs))])
            assert np.allclose(_kkt_residual(Bs, q_, u),
                               _loop_kkt_residual(Bs, q_, u),
                               rtol=0.0, atol=1e-13)
            assert np.allclose(_kkt_jacobian(Bs, u), _loop_kkt_jacobian(Bs, u),
                               rtol=0.0, atol=1e-13)


def test_newton_polish_initial_multipliers_are_least_norm(monkeypatch):
    # the kernel's dgelsd call gives the multipliers np.linalg.lstsq gives
    model, qs = _apex_case()
    d = model.dim()
    newton, kkt = project_module._newton_polish, project_module._kkt_residual
    pending, starts = [], []

    def recording_newton(model_, q, p0, J):
        pending[:] = [(q, p0, J)]
        try:
            return newton(model_, q, p0, J)
        finally:
            pending.clear()

    def recording_kkt(Bs, q, u, *out):
        if pending:
            starts.append((*pending.pop(), u.copy()))
        return kkt(Bs, q, u, *out)

    monkeypatch.setattr(project_module, "_newton_polish", recording_newton)
    monkeypatch.setattr(project_module, "_kkt_residual", recording_kkt)
    for q in qs:
        project_module._project_cone_arr(model, q, SolverConfig(tol=1e-13))
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
    assert not _kkt_jacobian(Bs, u)[:, 1 + d:].any()
    assert np.abs(_kkt_residual(Bs, q, u)).max() > 1e-3
    assert project_module._newton_polish(model, q, p0, [0]) is None
