"""Reduced-sample invariant suites runnable from the command line.

Each group re-checks one slab of the library's mathematical contract with
freshly drawn random data: kernel correctness, adjoint consistency,
membership equivalence, curve geometry, Hoelder gaps, the Moreau suite,
normal-ray fixed points, slice-projector agreement, and exact-mode probe
quality. Sample counts are kept small so the whole run stays interactive;
the pytest suite is the full-strength version of the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones, probe, project, symmat
from .errors import InvalidInputError

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class GroupResult:
    name: str
    ok: bool
    detail: str


def _check_kernel(n_max, rng, _defect):
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, n_max + 1))
        blocks = rng.standard_normal((2 * n - 1, 3)) * 2.0
        mat = symmat.BlockSymMatrix(n, blocks)
        blockwise = symmat.psd_project_block(mat).to_full().to_dense()
        w, V = symmat.jacobi_eig(mat.to_full())
        full = (V * np.maximum(w, 0.0)) @ V.T
        worst = max(worst, float(np.linalg.norm(blockwise - full)))
        # idempotence and nonexpansiveness of the blockwise projection
        once = symmat.psd_project_block(mat)
        twice = symmat.psd_project_block(once)
        worst = max(worst, float(np.linalg.norm(twice.blocks - once.blocks)))
        other = symmat.BlockSymMatrix(n, blocks + rng.standard_normal(blocks.shape))
        d_proj = symmat.psd_project_block(other).to_full().to_dense() \
            - symmat.psd_project_block(mat).to_full().to_dense()
        d_in = other.to_full().to_dense() - mat.to_full().to_dense()
        if np.linalg.norm(d_proj) > np.linalg.norm(d_in) + 1e-12:
            return False, "nonexpansiveness violated"
    ok = worst <= 1e-10
    return ok, f"block vs full projection gap {worst:.2e} (tol 1e-10)"


def _check_adjoint(n_max, rng, _defect):
    worst = 0.0
    for n in range(2, n_max + 1):
        model = cones.make_cone(n)
        for _ in range(25):
            p = cones.ConePoint(n, rng.standard_normal(2 * n + 1))
            mat = symmat.BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            lhs = cones.lmi_apply(model, p).inner(mat)
            rhs = float(p.coords @ cones.lmi_adjoint(model, mat).coords)
            scale = max(p.norm() * mat.norm(), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
    ok = worst <= 1e-12
    return ok, f"adjoint identity relative gap {worst:.2e} (tol 1e-12)"


def _check_membership(n_max, rng, _defect):
    checked = 0
    for n in range(2, n_max + 1):
        model = cones.make_cone(n)
        for _ in range(200):
            p = cones.ConePoint(n, rng.standard_normal(2 * n + 1))
            ok_ineq, worst = cones.membership_cone(model, p, tol=1e-9)
            min_eig = float(symmat.block_min_eigs(
                cones.lmi_apply(model, p).blocks).min())
            # skip draws whose margin is inside the tolerance band, where the
            # two criteria measure slack on different scales
            if abs(worst) < 1e-6 or abs(min_eig) < 1e-6:
                continue
            checked += 1
            if ok_ineq != (min_eig >= -1e-9):
                return False, (f"criteria disagree at n={n}: worst={worst:.3e} "
                               f"min_eig={min_eig:.3e}")
    return True, f"inequality and eigenvalue criteria agree on {checked} points"


def _check_curves(n_max, rng, _defect):
    worst_orth = 0.0
    worst_inner = 0.0
    for n in range(2, n_max + 1):
        model = cones.make_cone(n)
        for t in np.linspace(1e-4, 0.9, 25):
            v = cones.polar_curve(model, t)
            w = cones.normal_curve(model, t)
            worst_orth = max(worst_orth, abs(float(v.coords @ w.coords)))
            inside, _ = cones.membership_cone(model, w, tol=1e-10)
            if not inside:
                return False, f"normal generator leaves the cone at n={n}, t={t:g}"
            if not cones.membership_polar_shadow(
                    (v.x1, v.x2, v.x3), model, tol=1e-9):
                return False, f"curve leaves the polar shadow at n={n}, t={t:g}"
            # the direct dot product cancels (at n = 12 two terms of about
            # 0.075 sum to 2e-5), so bound the gap by its own rounding error
            terms = cones.curve_step(model, t).coords * w.coords
            gap = abs(float(terms.sum()) - cones.step_normal_inner(model, t))
            worst_inner = max(worst_inner, gap / (_EPS * np.abs(terms).sum()))
    ok = worst_orth <= 1e-12 and worst_inner <= 4.0
    return ok, (f"orthogonality {worst_orth:.2e} (tol 1e-12), "
                f"inner-product closed form {worst_inner:.2f} eps*sum|h w| "
                f"(tol 4)")


def _check_holder(_n_max, rng, defect):
    for _ in range(300):
        k = int(rng.integers(1, 8))
        x = rng.standard_normal(k) * 3.0
        y = rng.standard_normal(k) * 3.0
        p = float(rng.choice([4.0 / 3.0, 2.0, 4.0]))
        if defect:
            # deliberately broken pairing used by the self-test of this suite
            q = p / (p - 1.0) + 0.05
            lhs = float(np.sum(np.abs(x * y)))
            rhs = float(np.sum(np.abs(x) ** p) ** (1.0 / p)
                        * np.sum(np.abs(y) ** q) ** (1.0 / q))
            gap = rhs - lhs
        else:
            gap = cones.holder_gap(x, y, p)
        scale = float(np.sum(np.abs(x * y)) + 1.0)
        if gap < -1e-12 * scale:
            return False, f"negative gap {gap:.3e} at p={p:g}"
    # equality on proportional pairs
    for _ in range(50):
        k = int(rng.integers(1, 8))
        p = float(rng.choice([4.0 / 3.0, 2.0, 4.0]))
        q = p / (p - 1.0)
        y = rng.uniform(0.1, 2.0, k) * rng.choice([-1.0, 1.0], k)
        c = float(rng.uniform(0.1, 4.0))
        x = (c * np.abs(y) ** q) ** (1.0 / p) * rng.choice([-1.0, 1.0], k)
        gap = cones.holder_gap(x, y, p)
        scale = float(np.sum(np.abs(x * y)) + 1.0)
        if gap > 1e-12 * scale:
            return False, f"equality case has gap {gap:.3e}"
    return True, "gap nonnegative, equality holds on proportional pairs"


def _check_moreau(n_max, rng, _defect):
    cfg = project.SolverConfig()
    worst = 0.0
    for n in range(2, n_max + 1):
        model = cones.make_cone(n)
        for _ in range(15):
            q = cones.ConePoint(n, rng.standard_normal(2 * n + 1) * 2.0)
            part, _ = project.project_cone(model, q, cfg)
            polar = q.coords - part.coords
            qq = max(1.0, float(q.coords @ q.coords))
            worst = max(worst, abs(float(part.coords @ polar)) / qq)
            worst = max(worst,
                        abs(float(part.coords @ part.coords + polar @ polar
                                  - q.coords @ q.coords)) / qq)
    ok = worst <= 100.0 * cfg.tol
    return ok, f"orthogonality/Pythagoras gap {worst:.2e} (tol {100 * cfg.tol:.1e})"


def _check_normal_ray(n_max, rng, _defect):
    cfg = project.SolverConfig()
    worst = 0.0
    for n in range(2, min(4, n_max) + 1):
        model = cones.make_cone(n)
        for t in (0.1, 0.5, 0.9):
            v = cones.polar_curve(model, t)
            w = cones.normal_curve(model, t)
            for alpha in (0.1, 1.0):
                q = cones.ConePoint(n, v.coords + alpha * w.coords)
                back, _ = project.project_polar(model, q, cfg)
                worst = max(worst, float(np.linalg.norm(back.coords - v.coords)))
    ok = worst <= 1e-5
    return ok, f"polar projection returns to the curve within {worst:.2e} (tol 1e-5)"


def _check_slice(n_max, rng, _defect):
    cfg = project.SolverConfig()
    worst = 0.0
    for n in (2, 3):
        if n > n_max:
            continue
        model = cones.make_cone(n)
        for _ in range(4):
            X = symmat.BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            via_dyk, _ = project.project_slice_dykstra(model, X, cfg)
            via_fp, _ = project.project_slice_fixedpoint(model, X, cfg)
            worst = max(worst, float(np.linalg.norm(
                via_dyk.blocks - via_fp.blocks)))
        X = symmat.BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
        sweep = [project.project_slice_fixedpoint(
            model, X, cfg, gamma=frac / model.lam_max)[0]
            for frac in (0.3, 0.6, 0.9)]
        for other in sweep[1:]:
            gap = float(np.linalg.norm(sweep[0].blocks - other.blocks))
            if gap > 1e-6:
                return False, f"fixed point depends on gamma (gap {gap:.2e})"
    ok = worst <= 1e-5
    return ok, f"Dykstra vs fixed point {worst:.2e} (tol 1e-5)"


def _check_probe_exact(n_max, rng, _defect):
    prev_order = None
    details = []
    for n in range(2, min(6, n_max) + 1):
        model = cones.make_cone(n)
        report = probe.probe_semismoothness(model, "exact")
        gap = abs(report.fitted_slope - model.lam)
        _, _, dev = probe.fit_exponent(report.t_grid, report.residual_norms)
        ratio = report.residual_norms / report.t_grid ** model.lam
        sandwich = float(ratio.max() / ratio.min())
        if gap > 0.02:
            return False, f"slope gap {gap:.3f} at n={n} (tol 0.02)"
        if dev > 0.05:
            return False, f"fit deviation {dev:.3f} at n={n} (tol 0.05)"
        if sandwich > 2.0:
            return False, f"scaling bracket ratio {sandwich:.2f} at n={n} (max 2)"
        if prev_order is not None and report.implied_order >= prev_order:
            return False, f"implied order fails to decrease at n={n}"
        prev_order = report.implied_order
        details.append(f"n={n}:{report.fitted_slope:.4f}")
    return True, "slopes " + " ".join(details)


_GROUPS = (
    ("kernel", _check_kernel),
    ("adjoint", _check_adjoint),
    ("membership", _check_membership),
    ("curves", _check_curves),
    ("holder", _check_holder),
    ("moreau", _check_moreau),
    ("normal-ray", _check_normal_ray),
    ("slice", _check_slice),
    ("probe-exact", _check_probe_exact),
)


def run_verify(n_max: int = 4, seed: int = 12345, inject_defect: bool = False):
    """Run every invariant group; returns the ordered list of GroupResult.

    Raises InvalidInputError unless 2 <= n_max <= 12.
    """
    if not 2 <= n_max <= 12:
        raise InvalidInputError(f"n_max must lie in [2, 12], got {n_max}")
    results = []
    for idx, (name, fn) in enumerate(_GROUPS):
        rng = np.random.default_rng(seed + idx)
        try:
            ok, detail = fn(n_max, rng, inject_defect)
        except Exception as exc:  # a crash counts as a failed group
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(GroupResult(name, ok, detail))
    return results
