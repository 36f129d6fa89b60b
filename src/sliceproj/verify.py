"""Invariant groups behind the ``verify`` subcommand and the acceptance suite.

Each group checks one slab of the library's mathematical contract with
freshly drawn random data: kernel correctness, adjoint consistency,
membership equivalence, curve geometry, Hoelder gaps, the Moreau suite,
normal-ray fixed points, slice-projector agreement, and exact-mode probe
quality. Each group is the single implementation of its invariant: a
function of its sample counts, its n range and a random generator, which
returns ``(ok, detail)``. ``verify`` runs every group at small sample
counts so the whole run stays interactive; ``tests/test_acceptance.py``
runs the kernel, Hoelder, Moreau, normal-ray, slice and probe groups at
full strength as its criteria.
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


def check_kernel(rng, draws, n_max):
    """Blockwise PSD projection of random block matrices, n in
    [N_MIN, n_max], by psd_clip_rows and by the solvers' lorentz_clip,
    against the clipped Jacobi eigendecomposition of the full matrix; also
    the projection's idempotence and nonexpansiveness."""
    worst_gap = worst_idem = 0.0
    projected = []
    for _ in range(draws):
        n = int(rng.integers(symmat.N_MIN, n_max + 1))
        mat = symmat.BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)) * 2.0)
        once = symmat.psd_project_block(mat)
        solvers = symmat.BlockSymMatrix.from_lorentz(
            n, symmat.lorentz_clip(mat.lorentz(1.0)))
        w, V = symmat.jacobi_eig(mat.to_full())
        full = (V * np.maximum(w, 0.0)) @ V.T
        worst_gap = max(worst_gap, *(float(np.linalg.norm(
            c.to_full().to_dense() - full)) for c in (once, solvers)))
        twice = symmat.psd_project_block(once)
        worst_idem = max(worst_idem, float(np.linalg.norm(
            twice.blocks - once.blocks)))
        projected.append((mat, once))
    # the perturbations come after every matrix, so the matrices a seed
    # draws do not depend on which checks are made on them
    worst_nonexp = 0.0
    for mat, once in projected:
        other = symmat.BlockSymMatrix(
            mat.n, mat.blocks + rng.standard_normal(mat.blocks.shape))
        d_proj = (symmat.psd_project_block(other).to_full().to_dense()
                  - once.to_full().to_dense())
        d_in = other.to_full().to_dense() - mat.to_full().to_dense()
        worst_nonexp = max(worst_nonexp, float(
            np.linalg.norm(d_proj) - np.linalg.norm(d_in)))
    ok = worst_gap <= 1e-10 and worst_idem <= 1e-10 and worst_nonexp <= 1e-12
    return ok, (f"worst (a, b, c) and Lorentz clip vs full-eigendecomposition "
                f"gap {worst_gap:.2e} (tol 1e-10), idempotence {worst_idem:.2e} "
                f"(tol 1e-10), nonexpansiveness excess {worst_nonexp:.1e} "
                f"(tol 1e-12)")


def _check_adjoint(ns, rng):
    worst = 0.0
    for n in ns:
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


def _check_membership(ns, rng):
    checked = 0
    for n in ns:
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


def _check_curves(ns):
    worst_orth = 0.0
    worst_inner = 0.0
    for n in ns:
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


def check_holder(rng, draws, equality_draws):
    """Hoelder gap, scaled by sum|x y| + 1, for k <= 8 coordinates and
    p in {4/3, 2, 4}: nonnegative on random pairs, zero on the proportional
    pairs |x|^p = c |y|^q."""
    worst_neg = 0.0
    for _ in range(draws):
        k = int(rng.integers(1, 9))
        x = rng.standard_normal(k) * 3.0
        y = rng.standard_normal(k) * 3.0
        p = float(rng.choice([4.0 / 3.0, 2.0, 4.0]))
        gap = cones.holder_gap(x, y, p)
        scale = float(np.sum(np.abs(x * y)) + 1.0)
        worst_neg = min(worst_neg, gap / scale)
    worst_eq = 0.0
    for _ in range(equality_draws):
        k = int(rng.integers(1, 9))
        p = float(rng.choice([4.0 / 3.0, 2.0, 4.0]))
        q = p / (p - 1.0)
        y = rng.uniform(0.1, 2.0, k) * rng.choice([-1.0, 1.0], k)
        c = float(rng.uniform(0.1, 4.0))
        x = (c * np.abs(y) ** q) ** (1.0 / p) * rng.choice([-1.0, 1.0], k)
        gap = cones.holder_gap(x, y, p)
        scale = float(np.sum(np.abs(x * y)) + 1.0)
        worst_eq = max(worst_eq, abs(gap) / scale)
    ok = worst_neg >= -1e-12 and worst_eq <= 1e-12
    return ok, (f"most negative scaled gap {worst_neg:.1e} (>= -1e-12), worst "
                f"equality-case scaled gap {worst_eq:.1e} (<= 1e-12)")


def check_moreau(rng, ns, draws, idempotence_draws):
    """Moreau decomposition q = P_K q + (q - P_K q) of random points at each
    n: orthogonality and Pythagoras relative to max(1, ||q||^2), and the
    cone projection's nonexpansiveness (on consecutive draws) and
    idempotence, all within 100 * tol."""
    worst_orth = worst_pyth = worst_idem = worst_nonexp = 0.0
    for n in ns:
        model = cones.make_cone(n)
        prev = None
        for _ in range(draws):
            q = cones.ConePoint(n, rng.standard_normal(2 * n + 1) * 2.0)
            cone_part, _ = project.project_cone(model, q)
            polar_part = q.coords - cone_part.coords
            qq = max(1.0, float(q.coords @ q.coords))
            worst_orth = max(worst_orth,
                             abs(float(cone_part.coords @ polar_part)) / qq)
            worst_pyth = max(worst_pyth, abs(
                float(cone_part.coords @ cone_part.coords
                      + polar_part @ polar_part - q.coords @ q.coords)) / qq)
            if prev is not None:
                q_prev, p_prev = prev
                d_proj = np.linalg.norm(cone_part.coords - p_prev)
                d_in = np.linalg.norm(q.coords - q_prev)
                worst_nonexp = max(worst_nonexp, float(d_proj - d_in))
            prev = (q.coords, cone_part.coords)
        for _ in range(idempotence_draws):
            q = cones.ConePoint(n, rng.standard_normal(2 * n + 1) * 2.0)
            once, _ = project.project_cone(model, q)
            twice, _ = project.project_cone(model, once)
            worst_idem = max(worst_idem, float(
                np.linalg.norm(twice.coords - once.coords)))
    bound = 100.0 * project.DEFAULT_TOL
    ok = (worst_orth <= bound and worst_pyth <= bound
          and worst_idem <= bound and worst_nonexp <= bound)
    return ok, (f"orth {worst_orth:.1e}, pythagoras {worst_pyth:.1e}, "
                f"idempotence {worst_idem:.1e}, nonexpansiveness "
                f"{worst_nonexp:.1e} (all <= {bound:.0e})")


def check_normal_ray(ns):
    """The polar projection of v(t) + alpha w(t) is v(t), for t in
    {0.1, 0.5, 0.9} and alpha in {0.1, 1}: the normal-cone lemma."""
    worst = 0.0
    for n in ns:
        model = cones.make_cone(n)
        for t in (0.1, 0.5, 0.9):
            v = cones.polar_curve(model, t)
            w = cones.normal_curve(model, t)
            for alpha in (0.1, 1.0):
                q = cones.ConePoint(n, v.coords + alpha * w.coords)
                back, _ = project.project_polar(model, q)
                worst = max(worst,
                            float(np.linalg.norm(back.coords - v.coords)))
    ok = worst <= 1e-5
    return ok, (f"worst ||polar_proj(v + a w) - v|| = {worst:.2e} "
                f"(tol 1e-5)")


def check_slice(rng, ns, pairs, sweeps):
    """Slice projection of random block matrices: Dykstra and the slice
    projection derived from the cone projector agree within 1e-5 on
    `pairs` draws per n, and on `sweeps` more draws per n the derived
    projection of its own answer moves it by at most 1e-6."""
    worst_pair = 0.0
    worst_again = 0.0
    for n in ns:
        model = cones.make_cone(n)
        for _ in range(pairs):
            X = symmat.BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            via_dyk, _ = project.project_slice_dykstra(model, X)
            via_fp, _ = project.project_slice_fixedpoint(model, X)
            worst_pair = max(worst_pair, float(np.linalg.norm(
                via_dyk.blocks - via_fp.blocks)))
        for _ in range(sweeps):
            X = symmat.BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
            once, _ = project.project_slice_fixedpoint(model, X)
            twice, _ = project.project_slice_fixedpoint(model, once)
            worst_again = max(worst_again, float(np.linalg.norm(
                once.blocks - twice.blocks)))
    ok = worst_pair <= 1e-5 and worst_again <= 1e-6
    return ok, (f"Dykstra vs derived projection {worst_pair:.2e} (tol 1e-5), "
                f"idempotence {worst_again:.2e} (tol 1e-6)")


def check_probe_fit(ns):
    """Exact-mode probe on the default grid at each n: fitted slope within
    0.02 of lambda, log-log fit deviation at most 0.05, and residual /
    t^lambda within a factor 2 over the grid."""
    worst_gap = worst_dev = worst_ratio = 0.0
    for n in ns:
        model = cones.make_cone(n)
        report = probe.probe_semismoothness(model, "exact")
        worst_gap = max(worst_gap, abs(report.fitted_slope - model.lam))
        _, _, dev = probe.fit_exponent(report.t_grid, report.residual_norms)
        worst_dev = max(worst_dev, dev)
        ratio = report.residual_norms / report.t_grid ** model.lam
        worst_ratio = max(worst_ratio, float(ratio.max() / ratio.min()))
    ok = worst_gap <= 0.02 and worst_dev <= 0.05 and worst_ratio <= 2.0
    return ok, (f"worst |slope - lambda| = {worst_gap:.4f} (tol 0.02), fit "
                f"deviation {worst_dev:.3f} (tol 0.05), scaling bracket "
                f"ratio {worst_ratio:.2f} (max 2)")


def check_probe_orders(ns):
    """The exact probe's implied order strictly decreases along ns."""
    orders = [probe.probe_semismoothness(cones.make_cone(n), "exact")
              .implied_order for n in ns]
    decreasing = all(a > b for a, b in zip(orders, orders[1:]))
    return decreasing, f"orders strictly decreasing: {decreasing}"


def _check_probe_exact(ns):
    fit_ok, fit_detail = check_probe_fit(ns)
    orders_ok, orders_detail = check_probe_orders(ns)
    return fit_ok and orders_ok, f"{fit_detail}, {orders_detail}"


def _groups(n_max):
    """(name, check of an rng) for each group, at the reduced counts."""
    ns = range(symmat.N_MIN, n_max + 1)
    return (
        ("kernel", lambda rng: check_kernel(rng, 10, n_max)),
        ("adjoint", lambda rng: _check_adjoint(ns, rng)),
        ("membership", lambda rng: _check_membership(ns, rng)),
        ("curves", lambda rng: _check_curves(ns)),
        ("holder", lambda rng: check_holder(rng, 300, 50)),
        ("moreau", lambda rng: check_moreau(rng, ns, 15, 2)),
        ("normal-ray", lambda rng: check_normal_ray(ns[:3])),
        ("slice", lambda rng: check_slice(rng, ns[:2], 4, 1)),
        ("probe-exact", lambda rng: _check_probe_exact(ns[:5])),
    )


def run_verify(n_max: int = 4, seed: int = 12345):
    """Run every invariant group; returns the ordered list of GroupResult.

    Raises InvalidInputError unless n_max is a cone index in [N_MIN, N_MAX]
    and seed a non-negative integer (Python or numpy ints, not bools).
    """
    symmat._check_index(n_max, "n_max")
    if not cones._is_int(seed) or seed < 0:
        raise InvalidInputError(
            f"seed must be a non-negative integer, got {seed!r}")
    results = []
    for idx, (name, check) in enumerate(_groups(n_max)):
        rng = np.random.default_rng(seed + idx)
        try:
            ok, detail = check(rng)
        except Exception as exc:  # a crash counts as a failed group
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(GroupResult(name, ok, detail))
    return results
