"""Cone family checks: LMI form, curves, normals, membership, Hoelder."""

import math

import numpy as np
import pytest

from sliceproj import (BlockSymMatrix, ConeModel, ConePoint, InvalidInputError,
                       curve_step, holder_gap, lmi_adjoint, lmi_apply,
                       make_cone, membership_cone, membership_polar_shadow,
                       normal_curve, polar_curve, read_cone_point,
                       residual_exact, sample_cone, step_normal_inner,
                       write_cone_point)
from sliceproj.cones import _violations
from sliceproj.probe import ProbeReport
from sliceproj.symmat import SymMatrix, block_min_eigs


@pytest.fixture(scope="module")
def models():
    return {n: make_cone(n) for n in range(2, 7)}


def test_make_cone_exponents(models):
    assert models[2].kappa == 4.0
    assert models[2].lam == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert models[3].kappa == 8.0
    assert models[3].lam == pytest.approx(8.0 / 7.0, rel=1e-15)
    for n in range(2, 13):
        model = make_cone(n)
        assert abs(1.0 / model.kappa + 1.0 / model.lam - 1.0) <= 1e-15


def test_make_cone_guards():
    for bad in (1, 0, -3, 13, 2.5, True, np.float64(2.0)):
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            make_cone(bad)
    # the index of a W that fits the shape rule is checked too
    with pytest.raises(InvalidInputError, match="n must be an integer"):
        ConeModel.from_lmi(np.eye(3))


def _gram(model):
    """A*A rebuilt from the model's Cholesky factor U^T U."""
    U = np.triu(model.gram_factor[0])
    return U.T @ U


def test_gram_matches_hand_computation(models):
    # diagonal Gram derived by expanding the block functionals by hand
    assert np.allclose(_gram(models[2]), np.diag([2.0, 2.0, 4.0, 3.0, 3.0]))
    assert np.allclose(_gram(models[3]),
                       np.diag([2.0, 2.0, 6.0, 3.0, 3.0, 3.0, 3.0]))
    for n, model in models.items():
        assert np.all(np.diag(model.gram_factor[0]) > 0.0)


def test_lmi_apply_unit_x3(models):
    p = ConePoint(2, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    out = lmi_apply(models[2], p)
    assert np.allclose(out.blocks,
                       [[1.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def test_lmi_apply_normal_curve_start(models):
    w0 = normal_curve(models[2], 0.0)
    assert np.allclose(w0.coords, [0.0, 1.0, 1.0, 0.0, 1.0])
    out = lmi_apply(models[2], w0)
    assert np.allclose(out.blocks,
                       [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert block_min_eigs(out.blocks).min() >= -1e-14


def test_lmi_apply_is_linear(models):
    rng = np.random.default_rng(41)
    for n, model in models.items():
        p = ConePoint(n, rng.standard_normal(2 * n + 1))
        q = ConePoint(n, rng.standard_normal(2 * n + 1))
        a, b = rng.standard_normal(2)
        combo = ConePoint(n, a * p.coords + b * q.coords)
        lhs = lmi_apply(model, combo).blocks
        rhs = a * lmi_apply(model, p).blocks + b * lmi_apply(model, q).blocks
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_lmi_adjoint_zero(models):
    out = lmi_adjoint(models[3], BlockSymMatrix(3, np.zeros((5, 3))))
    assert np.array_equal(out.coords, np.zeros(7))


def test_lmi_adjoint_identity_random_pairs(models):
    rng = np.random.default_rng(43)
    for n, model in models.items():
        for _ in range(100):
            p = ConePoint(n, rng.standard_normal(2 * n + 1))
            mat = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            lhs = lmi_apply(model, p).inner(mat)
            rhs = float(p.coords @ lmi_adjoint(model, mat).coords)
            assert abs(lhs - rhs) <= 1e-12 * max(p.norm() * mat.norm(), 1e-30)


def test_gram_assembles_both_ways(models):
    # adjoint applied to the basis images must reproduce the Gram columns
    for n, model in models.items():
        d = 2 * n + 1
        for k in range(d):
            basis = ConePoint(n, np.eye(d)[k])
            col = lmi_adjoint(model, lmi_apply(model, basis)).coords
            assert np.allclose(col, _gram(model)[:, k], atol=1e-12)
            assert np.allclose(model.solve_gram(col), basis.coords,
                               atol=1e-12)


def test_det_forms_are_block_determinants():
    # p^T B_k p is the determinant of block k of lmi_apply(p), and the
    # determinants are the negated coupling and chain rows of the
    # inequality description
    rng = np.random.default_rng(41)
    for n in range(2, 13):
        model = make_cone(n)
        for _ in range(20):
            p = ConePoint(n, rng.standard_normal(2 * n + 1))
            a, b, c = lmi_apply(model, p).blocks.T
            forms = np.einsum("kij,i,j->k", model.det_forms, p.coords, p.coords)
            scale = np.abs(a * c) + b * b
            assert np.all(np.abs(forms - (a * c - b * b)) <= 1e-12 * scale)
            rows = np.sort(-np.array(_violations(model, p)[1:]))
            order = np.argsort(forms)
            assert np.all(np.abs(rows - forms[order]) <= 1e-12 * scale[order])


def test_from_lmi_rebuilds_make_cone_read_only():
    for n in (2, 7, 12):
        model = make_cone(n)
        again = ConeModel.from_lmi(model.lmi_weighted.tolist())
        assert again.n == n
        for name in ("det_forms", "range_proj", "lmi_weighted", "lmi_lorentz",
                     "admm_minv", "admm_gain"):
            assert np.array_equal(getattr(again, name), getattr(model, name))
            assert not getattr(again, name).flags.writeable
        assert not again.gram_factor[0].flags.writeable
        assert np.array_equal(again.gram_factor[0], model.gram_factor[0])
        assert (again.kappa, again.lam) == (model.kappa, model.lam)


def test_cone_model_equality_is_identity():
    # the generated __eq__ over ndarray fields raised ValueError, and hash
    # raised TypeError
    m = make_cone(3)
    assert (m == make_cone(3)) is False
    assert m == m
    assert {m: 1}[m] == 1


def test_array_dataclasses_compare_by_identity():
    # the generated __eq__ over ndarray fields raised ValueError on equal
    # values, and hash raised TypeError
    t = np.logspace(-3, -1, 5)
    makers = (lambda: SymMatrix(np.eye(2)),
              lambda: BlockSymMatrix(2, np.zeros((3, 3))),
              lambda: ConePoint(2, np.ones(5)),
              lambda: ProbeReport(2, "exact", t, t, t, 1.0, 0.0, 1.0))
    for make in makers:
        a, b = make(), make()
        assert (a == b) is False and (a == a) is True
        assert {a: 1}[a] == 1 and isinstance(hash(b), int)


def test_slice_model_is_the_cone_in_the_gram_metric():
    # Q = W U^-1 has orthonormal columns and W's range, so it maps the
    # slice model's cone onto the slice; the model is built once
    for n in (2, 7, 12):
        model = make_cone(n)
        gram = model.slice_model
        assert gram is model.slice_model
        W, Q = model.lmi_weighted, gram.lmi_weighted
        assert np.allclose(Q.T @ Q, np.eye(2 * n + 1), atol=1e-13)
        # range_proj lives in Lorentz coordinates, as Q's rows there do
        QL = gram.lmi_lorentz
        assert np.allclose(model.range_proj, QL @ QL.T, atol=1e-13)
        U = np.triu(model.gram_factor[0])
        assert np.allclose(Q @ U, W, atol=1e-13)


def test_from_lmi_guards():
    W = make_cone(2).lmi_weighted
    for bad in (W[:-1], np.vstack([W, W[:3]]), W[:, :-1], W.ravel(),
                np.zeros((0, 5)), np.where(W == 1.0, np.inf, W)):
        with pytest.raises(InvalidInputError, match="W must be"):
            ConeModel.from_lmi(bad)
    singular = W.copy()
    singular[:, 0] = 0.0
    with pytest.raises(InvalidInputError, match="positive definite"):
        ConeModel.from_lmi(singular)


def test_dimension_mismatch_raises(models):
    p = ConePoint(2, np.zeros(5))
    with pytest.raises(InvalidInputError):
        lmi_apply(models[3], p)
    with pytest.raises(InvalidInputError):
        lmi_adjoint(models[2], BlockSymMatrix(3, np.zeros((5, 3))))


def test_membership_basic(models):
    model = models[3]
    inside, worst = membership_cone(
        model, ConePoint(3, np.array([0.0, 0, 1.0, 0, 0, 0, 0])))
    assert inside and worst <= 0.0
    outside, worst = membership_cone(
        model, ConePoint(3, np.array([0.0, 0, -1.0, 0, 0, 0, 0])))
    assert not outside and worst == pytest.approx(1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, "1e-9",
                                 None, True])
def test_membership_rejects_bad_tol(models, tol):
    # a nan tol used to report the interior point below as outside, and the
    # polar curve point as outside the polar shadow
    point = ConePoint(2, np.array([0.0, 0.0, 1.0, 0.5, 0.5]))
    with pytest.raises(InvalidInputError, match="tol="):
        membership_cone(models[2], point, tol=tol)
    with pytest.raises(InvalidInputError, match="tol="):
        membership_polar_shadow((0.0, 1.0, -1.0), models[2], tol=tol)


def test_membership_normal_curve(models):
    for n, model in models.items():
        for t in np.linspace(0.01, 0.99, 9):
            inside, _ = membership_cone(model, normal_curve(model, t), tol=1e-10)
            assert inside


def test_membership_equivalence_with_block_eigenvalues(models):
    rng = np.random.default_rng(47)
    for n, model in models.items():
        checked = 0
        for _ in range(1000):
            p = ConePoint(n, rng.standard_normal(2 * n + 1))
            ok_ineq, worst = membership_cone(model, p, tol=1e-9)
            mat = lmi_apply(model, p)
            min_eig = block_min_eigs(mat.blocks).min()
            # both criteria cut out the same set; near the boundary their
            # slack scales differ, so skip draws inside the ambiguity band
            if abs(worst) < 1e-6 or abs(min_eig) < 1e-6:
                continue
            checked += 1
            assert ok_ineq == (min_eig >= -1e-9), (
                f"n={n} worst={worst} min_eig={min_eig}")
        assert checked > 800


def test_membership_sampled_points(models):
    rng = np.random.default_rng(53)
    for n, model in models.items():
        for _ in range(50):
            p = sample_cone(model, rng)
            inside, _ = membership_cone(model, p, tol=1e-9)
            assert inside


def test_polar_shadow_membership(models):
    model = models[2]
    assert membership_polar_shadow((0.0, 0.0, -1.0), model)
    assert not membership_polar_shadow((1.0, 1.0, -1.0), model)
    for t in np.linspace(0.0, 1.0, 11):
        v = polar_curve(model, t)
        assert membership_polar_shadow((v.x1, v.x2, v.x3), model, tol=1e-12)
        # construction sits on the unit lambda-sphere: equality up to rounding
        power = abs(v.x1) ** model.lam + abs(v.x2) ** model.lam
        assert power == pytest.approx(1.0, abs=1e-12)


def test_polar_curve_endpoints(models):
    v0 = polar_curve(models[2], 0.0)
    assert np.allclose(v0.coords, [0.0, 1.0, -1.0, 0.0, 0.0])
    v1 = polar_curve(models[2], 1.0)
    assert np.allclose(v1.coords, [1.0, 0.0, -1.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        polar_curve(models[2], -0.1)
    with pytest.raises(InvalidInputError):
        polar_curve(models[2], 1.1)


def test_normal_curve_endpoints(models):
    w1 = normal_curve(models[2], 1.0)
    assert np.allclose(w1.coords, [1.0, 0.0, 1.0, 1.0, 0.0])
    with pytest.raises(InvalidInputError):
        normal_curve(models[2], 2.0)


def test_curves_orthogonal(models):
    for n, model in models.items():
        for t in np.linspace(0.0, 1.0, 21):
            v = polar_curve(model, t)
            w = normal_curve(model, t)
            assert abs(float(v.coords @ w.coords)) <= 1e-12


def test_step_normal_inner_matches_direct_dot(models):
    for n, model in models.items():
        for t in np.logspace(-4, math.log10(0.9), 40):
            closed = step_normal_inner(model, t)
            h = curve_step(model, t)
            w = normal_curve(model, t)
            direct = float(h.coords @ w.coords)
            assert abs(direct - closed) <= 1e-13 * closed


def test_step_normal_inner_matches_mpmath():
    # 50-digit reference of 1 - (1 - t^lam)^(1/kappa) at the double t and
    # lam; the direct dot product cancels too much to serve as one at n >= 9
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for n in range(2, 13):
            model = make_cone(n)
            for t in np.linspace(1e-4, 0.9, 25):
                t_mp, lam = mpmath.mpf(float(t)), mpmath.mpf(model.lam)
                ref = 1 - (1 - t_mp ** lam) ** (1 / mpmath.mpf(model.kappa))
                closed = step_normal_inner(model, t)
                assert abs(closed - ref) <= 1e-14 * ref, (n, t)


def test_curve_step_matches_curve_difference(models):
    for n, model in models.items():
        for t in (1e-3, 0.3, 0.9):
            h = curve_step(model, t)
            diff = polar_curve(model, t).coords - polar_curve(model, 0.0).coords
            assert np.allclose(h.coords, diff, atol=1e-15)


@pytest.mark.parametrize("curve", [polar_curve, normal_curve, curve_step,
                                   step_normal_inner, residual_exact])
def test_curve_parameter_is_a_real_number_in_the_unit_interval(models, curve):
    # float(t) used to let a bool or a numeric string through: True and
    # np.True_ gave the t = 1 point, and "0.5" the t = 0.5 one
    for bad in (True, np.True_, "0.5", None, -0.1, 1.5, math.nan):
        with pytest.raises(InvalidInputError, match="not a real number"):
            curve(models[2], bad)
    # a numpy real is a real number, and gives the same answer
    want, got = curve(models[2], 0.5), curve(models[2], np.float64(0.5))
    assert repr(got) == repr(want)


def test_holder_gap_examples():
    x = np.array([1.0, 2.0, -3.0])
    assert holder_gap(x, x, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert holder_gap([1.0, 0.0], [0.0, 1.0], 1.5) == pytest.approx(1.0)


def test_holder_gap_guards():
    with pytest.raises(InvalidInputError):
        holder_gap([1.0], [1.0], 1.0)
    with pytest.raises(InvalidInputError):
        holder_gap([1.0, 2.0], [1.0], 2.0)
    # inf used to return nan, and a string raised TypeError
    for p in (math.inf, math.nan, "2", True):
        with pytest.raises(InvalidInputError, match="real p in"):
            holder_gap([1.0, 2.0], [3.0, 1.0], p)


def test_cone_point_accessors_and_guards():
    p = ConePoint.from_parts(3, 1.0, 2.0, 3.0, [4.0, 5.0], [6.0, 7.0])
    assert (p.x1, p.x2, p.x3) == (1.0, 2.0, 3.0)
    assert np.array_equal(p.y, [4.0, 5.0])
    assert np.array_equal(p.z, [6.0, 7.0])
    with pytest.raises(InvalidInputError):
        ConePoint(2, np.zeros(4))
    with pytest.raises(InvalidInputError):
        ConePoint(2, np.array([np.nan, 0, 0, 0, 0]))
    # each of these fits the 2n+1 shape rule, and was accepted
    for n, size in ((True, 3), (2.5, 6), (0, 1), (13, 27)):
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            ConePoint(n, np.zeros(size))
    assert type(ConePoint(np.int64(2), np.zeros(5)).n) is int


def test_cone_point_text_round_trip():
    rng = np.random.default_rng(67)
    for n in range(2, 13):
        p = ConePoint(n, rng.standard_normal(2 * n + 1)
                      * 10.0 ** rng.uniform(-300, 300, 2 * n + 1))
        again = read_cone_point(write_cone_point(p))
        assert again.n == n
        assert np.array_equal(again.coords, p.coords)
    with pytest.raises(InvalidInputError):
        read_cone_point("3\n1 2 3")
    # the index is checked before the count 2n+1 is computed from it
    for first in ("-1", "0", "13"):
        with pytest.raises(InvalidInputError,
                           match=f"n must be an integer in \\[2, 12\\], got {first}"):
            read_cone_point(f"{first}\n1 2 3")
