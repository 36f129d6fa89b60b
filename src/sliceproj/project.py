"""Metric-projection solvers for the cone family and the PSD-cone slice.

Four routes are provided and kept deliberately independent so they can
cross-validate each other:

* ADMM splitting for the projection onto the cone itself, through its LMI
  form, with an active-set refinement step (see below);
* the Moreau decomposition for the projection onto the polar cone;
* Dykstra's alternating projections for the slice (PSD cone intersected
  with the range of the LMI map), on the 2x2 diagonal blocks: the range is
  block-diagonal, so a full-matrix input reduces exactly to its blocks;
* a fixed-point iteration for the same slice, driven by repeated projected
  gradient steps onto the cone.

The projection onto a cone is positively homogeneous, so the cone solver
works on q / ||q|| and scales its answer back by ||q||. Its tolerance,
stall test and refinement thresholds are therefore relative to ||q||: the
answer scales with q, and the iteration count and the converged flag do
not depend on q's scale (bitwise so for power-of-two rescalings). The
projection onto the slice is positively homogeneous too, and both slice
projectors likewise run on X / ||X|| (Dykstra on the block part of X).

Projections whose answer sits at (or near) the cone's apex lack strict
complementarity, and every first-order splitting method degrades to a
sublinear crawl there. The ADMM solver therefore attempts an active-set
Newton refinement in conically rescaled variables at iteration 32, then
at 64, 128 and so on, as well as on reaching tol, on stalling and at the
budget. The refined point is accepted only when an exact optimality
certificate holds (matched KKT
residual, nonnegative multipliers, feasible direction), otherwise the raw
ADMM iterate is kept. One rule holds at every checkpoint: a certified
refinement ends the solve, which is converged when the certificate
residual is within tol. The certificate uses nothing beyond the cone's
defining inequalities, so the refined answers remain an independent
check on any closed-form prediction. A refinement that stops making
progress gives up after a few Newton steps, so an early checkpoint with
a wrong active set costs little.

The ADMM arrays are tiny (dimension 2n+1 <= 25), so its cost is the
number of numpy calls per iteration, not flops. The splitting has no
penalty parameter (its penalty is 1), so its p-update operators depend on
the model alone, and ConeModel.from_lmi builds them: Minv = (I + A*A)^-1
and the gain K = Minv A*. A solve computes Minv u once, for
u = q / ||q||; each iteration is then p = Minv u + K (Z - U), the product
A p, one PSD clip of the flat block vector and one product with A* for
the dual residual. Dykstra's range step uses the model's precomputed
orthogonal projector onto the range of A.

ADMM, Dykstra and the fixed-point projector share one iteration loop,
_iterate: each passes a step that returns its residual, and the loop owns
the tolerance, stall and budget tests, the refinement schedule's
checkpoints, the exit reason and one debug log line per exit.

Callers that solve a path of nearby cone projections (the numeric probe's
grid, the fixed-point projector's outer loop) pass a private warm holder,
_WarmStart, to each solve. It holds the last certified refinement only:
its answer p, active set J and rescaled multipliers nu, or nothing when
the last solve did not end on one. The next solve's checkpoint 0 tries
the held J, with Newton started from the held nu at the held answer,
before any iteration, and ends with 0 iterations when the certificate
holds. Otherwise ADMM runs from zeros, as in a one-off solve, and each of
its refinements tries the held J first, from the held nu, then the usual
candidate sets. This is continuation along the path without a
predictor: nearby inputs share their active set, and their multipliers
are close, so Newton starts near its quadratic region. The certificate,
not the start, decides acceptance, and ADMM never starts from held
state, so a stale holder costs a few refinement attempts, never
accuracy. project_cone passes no holder.

The ConeModel is immutable, so solves may share one across threads; do
not share a warm holder, which is mutable state owned by the one path
that created it. The refinement's cache of LAPACK workspace sizes holds
plain integers computed from the system's shape alone, so a race there at
worst queries the same size twice. The library itself starts no threads.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgelsd, dgelsd_lwork, dgesv

from .cones import ConeModel, ConePoint, _is_int, _unweighted, _weighted
from .errors import InvalidInputError
from .symmat import RT2, BlockSymMatrix, SymMatrix, block_min_eigs, psd_clip_flat
# unused here: perfbench installs its symmat.jacobi, project.factor and
# project.linsolve spans on these bindings
from scipy.linalg import cho_factor, cho_solve  # noqa: F401
from .symmat import jacobi_eig  # noqa: F401

log = logging.getLogger("sliceproj.project")

# relative improvement below which an iteration no longer counts as progress
_STALL_FACTOR = 1e-3
_STALL_WINDOW = 2000
_CERT_TOL = 1e-12
_EPS = np.finfo(float).eps
# first ADMM iteration at which the refinement is tried, one-off and warm
# solves alike; doubled after each
_FIRST_POLISH = 32
# the Newton refinement's progress test (see _newton_polish): accepted
# refinements in the numeric probes at n = 2..11 and on N(0, I) inputs at
# n = 2..12 never needed a step below 2^-11 and cut the residual norm by at
# least 0.2 % over any 8 steps
_NEWTON_HALVINGS = 16
_NEWTON_WINDOW = 8
_NEWTON_MIN_GAIN = 1e-3
_NEWTON_MAX_STEPS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative projectors.

    Every projector works on its input divided by the input's norm (q / ||q||
    for cone solves, X / ||X|| for the slice projectors), so tol is relative
    to ||q|| or ||X||.

    tol is a real number (not a bool), positive and finite; max_iter is an
    integer (a Python or numpy int, not a bool) >= 1.
    """

    tol: float = 1e-9
    max_iter: int = 200_000

    def __post_init__(self):
        # a bool is a number too, but True would silently mean 1
        if (isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real)
                or not (0.0 < self.tol < math.inf)):
            raise InvalidInputError("tol must be positive and finite")
        if not _is_int(self.max_iter):
            raise InvalidInputError("max_iter must be an integer")
        if self.max_iter < 1:
            raise InvalidInputError("max_iter must be >= 1")
        object.__setattr__(self, "max_iter", int(self.max_iter))


# why a solve stopped; see SolveStats
EXIT_REASONS = ("tol", "certified", "stalled", "budget")


@dataclass(frozen=True)
class SolveStats:
    """How a solve ended.

    final_residual is the residual the solve stopped at, relative to the
    input's norm (||q|| or ||X||). For cone solves it is the ADMM residual
    or the refinement's certificate residual of the unit-norm problem.
    exit_reason is one of EXIT_REASONS: ``tol`` (the residual reached tol),
    ``certified`` (an exact shortcut, or an active-set refinement whose
    optimality certificate held), ``stalled`` (no progress over the stall
    window) or ``budget`` (max_iter reached). For cone solves converged ==
    (final_residual <= tol). newton_steps is the number of accepted Newton
    steps summed over every refinement attempt of the solve (0 for
    Dykstra; the fixed-point projector sums it over its inner solves).
    """

    iterations: int
    final_residual: float
    converged: bool
    exit_reason: str
    newton_steps: int = 0

    def __post_init__(self):
        object.__setattr__(self, "iterations", int(self.iterations))
        object.__setattr__(self, "newton_steps", int(self.newton_steps))
        object.__setattr__(self, "final_residual", float(self.final_residual))
        object.__setattr__(self, "converged", bool(self.converged))
        if self.exit_reason not in EXIT_REASONS:
            raise ValueError(f"unknown exit reason {self.exit_reason!r}")

    def to_json_dict(self) -> dict:
        return asdict(self)


# the exact answer at a zero input, and for a cone solve of a cone member
_ZERO_STATS = SolveStats(0, 0.0, True, "certified")


def _iterate(step, cfg: SolverConfig, what: str, window: int = _STALL_WINDOW,
             checkpoint=None) -> SolveStats:
    """The iteration loop of every solver.

    step() runs one iteration and returns its residual. The loop stops
    when the residual is within cfg.tol, when it has not improved by the
    fraction _STALL_FACTOR over the last `window` iterations, or after
    cfg.max_iter iterations. checkpoint(k), if given, runs at iteration
    _FIRST_POLISH, at each doubling of it and at every exit, before the
    exit tests; the SolveStats it returns, if any, end the solve. Each exit
    logs one debug line naming `what`.
    """
    tol = cfg.tol
    best_res = math.inf
    best_iter = 0
    check_at = _FIRST_POLISH
    reason = "budget"
    stats = None
    for k in range(1, cfg.max_iter + 1):
        res = step()
        if res < best_res * (1.0 - _STALL_FACTOR):
            best_res = res
            best_iter = k
        stalled = k - best_iter > window
        if checkpoint is not None and (res <= tol or k == check_at or stalled
                                       or k == cfg.max_iter):
            if k == check_at:
                check_at *= 2
            stats = checkpoint(k)
            if stats is not None:
                break
        if res <= tol:
            reason = "tol"
            break
        if stalled:
            reason = "stalled"
            break
    if stats is None:
        stats = SolveStats(k, res, res <= tol, reason)
    return _log_exit(what, stats)


def _log_exit(what: str, stats: SolveStats) -> SolveStats:
    """Log the one debug line of a solve's exit and return its stats."""
    log.debug("%s: %s after %d iterations at residual %.3e", what,
              stats.exit_reason, stats.iterations, stats.final_residual)
    return stats


def _block_min_eigs(model: ConeModel, p: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each block of the LMI image of p."""
    rows = (model.lmi_weighted @ p).reshape(-1, 3)
    rows[:, 1] /= RT2
    return block_min_eigs(rows)


def _norm(x: np.ndarray) -> float:
    return math.sqrt(float(x @ x))


def _input_norm(x: np.ndarray) -> float:
    """||x|| by math.hypot; a finite x whose norm overflows is rejected,
    since the solve on x / ||x|| = 0 would certify a wrong answer."""
    xn = math.hypot(*x)
    if not math.isfinite(xn):
        raise InvalidInputError("input norm exceeds the largest double")
    return xn


@functools.cache
def _gelsd_work(m: int, n: int) -> tuple:
    """(lwork, size_iwork) of dgelsd for an m x n system with one right-hand
    side, by LAPACK's workspace query. The keys are the (d, nJ) pairs of
    the models in use, at most a few hundred."""
    work, iwork, _ = dgelsd_lwork(m, n, 1)
    return int(work), int(iwork)


def _kkt_residual(Bs: np.ndarray, q: np.ndarray, u: np.ndarray,
                  out: np.ndarray, Bpi: np.ndarray) -> np.ndarray:
    """Residual of the rescaled KKT system at u = (mu, pi, nu), written
    into out (a float array shaped like u) and returned.

    Rows: stationarity mu pi - q - 2 sum_k nu_k B_k pi, the active block
    determinants pi^T B_k pi, and the normalisation pi^T pi - 1. Bs stacks
    the active forms B_k as an (nJ, d, d) array, and Bpi is Bs @ pi.
    """
    d = q.shape[0]
    pi, nu = u[1:1 + d], u[1 + d:]
    stat = out[:d]
    np.multiply(u[0], pi, out=stat)
    stat -= q
    stat -= 2.0 * (nu @ Bpi)
    np.matmul(Bpi, pi, out=out[d:-1])
    out[-1] = pi @ pi - 1.0
    return out


def _kkt_jacobian(Bs: np.ndarray, u: np.ndarray, Bpi: np.ndarray,
                  Bs_flat: np.ndarray) -> np.ndarray:
    """Jacobian of :func:`_kkt_residual` with respect to u, given Bpi
    (Bs @ pi) and Bs_flat (Bs reshaped to (nJ, d * d))."""
    d = Bs.shape[1]
    mu, pi, nu = u[0], u[1:1 + d], u[1 + d:]
    # Fortran order, which LAPACK takes without a copy
    jac = np.zeros((u.shape[0], u.shape[0]), order="F")
    jac[:d, 0] = pi
    # the S block mu I - 2 sum_k nu_k B_k, as one matrix-vector product
    S = (-2.0 * nu) @ Bs_flat
    S[::d + 1] += mu
    jac[:d, 1:1 + d] = S.reshape(d, d)
    jac[:d, 1 + d:] = -2.0 * Bpi.T
    jac[d:-1, 1:1 + d] = 2.0 * Bpi
    jac[-1, 1:1 + d] = 2.0 * pi
    return jac


def _newton_polish(model: ConeModel, q: np.ndarray, p0: np.ndarray, J,
                   nu0: np.ndarray | None = None, steps: list | None = None):
    """Solve the rescaled KKT system on the active set J and certify it.

    Unknowns are (mu, pi, nu): the candidate projection is mu * pi with pi
    of unit norm, nu the conically rescaled multipliers of the active block
    determinants. Rescaling keeps the system well conditioned even as the
    projection shrinks into the apex. Returns (p_hat, certificate_residual,
    nu) or None when the certificate fails. q has unit norm, so the
    thresholds are relative to ||q||, and nu belongs to the unit-norm
    problem.

    Newton starts at mu = ||p0||, pi = p0 / mu, however small mu is: a
    warm path's held answer near the apex has norm far below ||q||, but
    its direction is exact. Only p0 = 0, which has no direction, is
    refused. nu starts from nu0 when given (the multipliers a warm path
    last certified on J), else from the least-norm least-squares
    multipliers at (mu, pi). steps, if given, is a list to which the
    attempt appends the number of Newton steps it took.

    Damped Newton stops early once it stops making progress: when the
    line search needs a step shorter than 2^-_NEWTON_HALVINGS, or when the
    last _NEWTON_WINDOW steps together cut the residual norm by less than
    the fraction _NEWTON_MIN_GAIN. Either way the certificate then decides
    on the best point reached, so a hopeless active set costs a few steps
    instead of _NEWTON_MAX_STEPS full line searches.

    The systems have at most 2d - 1 <= 49 unknowns, so each LAPACK routine
    is called directly: one dgelsd for the least-squares multipliers and
    one dgesv per Newton step. A singular Jacobian (or an SVD that does not
    converge) fails the certificate. Bs @ pi is formed once per evaluated
    point, and shared by its residual and, once accepted, its Jacobian.
    """
    d = model.dim()
    mu = _norm(p0)
    if mu == 0.0:
        return None
    pi = p0 / mu
    Bs = model.det_forms[J]
    nJ = len(J)
    Bs_flat = Bs.reshape(nJ, d * d)
    Bpi = Bs @ pi
    u = np.empty(1 + d + nJ)
    u[0] = mu
    u[1:1 + d] = pi
    if nu0 is not None:
        u[1 + d:] = nu0
    elif nJ:
        # the least-norm least-squares nu of np.linalg.lstsq(rcond=None);
        # nJ <= 2n - 1 < d, so the system has more rows than columns
        nu, _, _, info = dgelsd(-2.0 * Bpi.T, q - mu * pi,
                                *_gelsd_work(d, nJ), _EPS * d,
                                overwrite_a=True, overwrite_b=True)
        if info:
            return None
        u[1 + d:] = nu[:nJ]

    fu = _kkt_residual(Bs, q, u, np.empty_like(u), Bpi)
    f_try = np.empty_like(fu)
    best = float(np.abs(fu).max())
    norms = [_norm(fu)]
    info = 0
    for k in range(_NEWTON_MAX_STEPS):
        if best <= 1e-15:
            break
        if (k >= _NEWTON_WINDOW and norms[k]
                > (1.0 - _NEWTON_MIN_GAIN) * norms[k - _NEWTON_WINDOW]):
            break
        _, _, du, info = dgesv(_kkt_jacobian(Bs, u, Bpi, Bs_flat), -fu,
                               overwrite_a=True, overwrite_b=True)
        if info:
            break
        step = 1.0
        for _ in range(_NEWTON_HALVINGS + 1):
            u_try = u + step * du
            Bpi_try = Bs @ u_try[1:1 + d]
            norm_try = _norm(_kkt_residual(Bs, q, u_try, f_try, Bpi_try))
            if norm_try < (1.0 - 0.25 * step) * norms[k]:
                u, Bpi = u_try, Bpi_try
                fu, f_try = f_try, fu
                best = float(np.abs(fu).max())
                norms.append(norm_try)
                break
            step *= 0.5
        else:
            break
    if steps is not None:
        steps.append(len(norms) - 1)
    if info or best > _CERT_TOL:
        return None
    mu, pi, nu = float(u[0]), u[1:1 + d], u[1 + d:]
    # certificate: nonnegative multipliers, nonnegative scale, feasible
    # direction; together with the matched residual these prove optimality
    nu_scale = 1.0 + (np.abs(nu).max() if nJ else 0.0)
    if mu < -1e-11 or np.any(nu < -1e-9 * nu_scale):
        return None
    if _block_min_eigs(model, pi).min() < -1e-10:
        return None
    return max(mu, 0.0) * pi, best, nu


def _attempt_polish(model: ConeModel, q: np.ndarray, p: np.ndarray,
                    dual_flat: np.ndarray | None, held, steps: list):
    """Try active-set candidates for the refinement, in order.

    held is None or the (J, nu) a warm path last certified: its J is
    tried first, with Newton starting from its nu. Then come the sets
    derived from the dual iterate, from the primal iterate and all blocks,
    each from its least-squares multipliers; each is derived only when the
    ones before it failed, and a set already tried from least squares is
    skipped (the held J is tried again from least squares). With no dual
    iterate (dual_flat None, a warm solve's checkpoint 0) only the held J
    is tried. Returns (p_hat, certificate_residual, J, nu) of the first
    certified refinement, or None. steps is passed to each
    :func:`_newton_polish`.
    """
    def candidates():
        if held is not None:
            yield held
        if dual_flat is None:
            return
        dual_rows = np.abs(dual_flat.reshape(-1, 3)).max(axis=1)
        dual_ref = max(float(dual_rows.max()), 1e-300)
        yield np.flatnonzero(dual_rows > 1e-6 * dual_ref).tolist(), None
        rows = (model.lmi_weighted @ p).reshape(-1, 3)
        dets = np.abs(rows[:, 0] * rows[:, 2] - (rows[:, 1] / RT2) ** 2)
        det_ref = max(float(dets.max()), float(p @ p), 1e-300)
        yield np.flatnonzero(dets <= 1e-5 * det_ref).tolist(), None
        yield list(range(2 * model.n - 1)), None

    tried = []
    for J, nu0 in candidates():
        if (J, nu0 is None) in tried:
            continue
        tried.append((J, nu0 is None))
        out = _newton_polish(model, q, p, J, nu0, steps)
        if out is not None:
            p_hat, cert_res, nu = out
            return p_hat, cert_res, J, nu
    return None


@dataclass
class _WarmStart:
    """The last certified refinement along a path of cone solves: its
    answer p, active set J and rescaled multipliers nu.

    A caller that solves a sequence of nearby projections creates one and
    passes it to each :func:`_project_cone_arr` call; the solver refills it
    on return. All three are None unless that solve ended on a certified
    refinement. nu belongs to the unit-norm problem, so it carries over
    between inputs of different ||q||. Arrays and lists are replaced,
    never written in place, so ``dataclasses.replace(warm)`` is an
    independent copy.
    """

    p: np.ndarray | None = None
    J: list | None = None
    nu: np.ndarray | None = None


def _project_cone_arr(model: ConeModel, q: np.ndarray, cfg: SolverConfig,
                      warm: _WarmStart | None = None):
    """ADMM projection onto the cone, on raw coordinate arrays.

    Projection onto a cone is positively homogeneous, so the solve runs on
    the unit vector u = q / ||q|| and its answer is scaled back by ||q||:
    tol, the stall test and the refinement's thresholds are relative to
    ||q|| by construction. ||q|| is computed without overflow or underflow
    in intermediate steps (math.hypot), so a power-of-two rescaling of q
    rescales the answer bitwise and leaves the iteration count unchanged;
    a q with ||q|| above the largest double is rejected. q = 0 and q in
    the cone are their own projections.

    Splitting: p-update solves (I + A*A) p = u + A*(Z - U), Z-update is
    the blockwise PSD projection of A p + U, U is the scaled dual. The
    p-update is p = Minv u + K (Z - U) with the model's operators
    admm_minv and admm_gain. A p is formed from p, not as a product of
    (Z - U) with A K: at the apex the d entries of p can cancel to exactly
    0, while A K (Z - U) keeps a rounding floor in every block entry.
    ADMM always starts from Z = U = 0. It stops on max(primal, dual)
    residual <= tol, on a certified refinement, or when the residual
    stalls at its attainable floor. Each refinement runs at one of the
    loop's checkpoints; a certified one ends the solve, converged when its
    certificate residual is within tol.

    With a filled warm holder, checkpoint 0 tries the held J alone, from
    the held nu, at the held answer divided by ||q||, before any
    iteration; a certified refinement there ends the solve with 0
    iterations. Every later refinement of the solve tries the held J
    first. The holder is left with this solve's certified refinement, or
    emptied.
    """
    qn = _input_norm(q)
    if qn == 0.0 or _block_min_eigs(model, q / qn).min() >= -1e-13:
        if warm is not None:
            warm.p = warm.J = warm.nu = None
        return q.copy(), _ZERO_STATS
    u = q / qn
    held = None if warm is None or warm.p is None else (warm.J, warm.nu)
    W = model.lmi_weighted
    WT = W.T
    gain = model.admm_gain
    p0 = model.admm_minv @ u
    p, Z, U = None, np.zeros(W.shape[0]), np.zeros(W.shape[0])
    steps = []
    certified = (None, None)

    def step():
        nonlocal p, Z, U
        p = p0 + gain @ (Z - U)
        Ap = W @ p
        X = Ap + U
        Z_new = psd_clip_flat(X)
        U = X - Z_new
        r_dual = _norm(WT @ (Z_new - Z))
        Z = Z_new
        return max(_norm(Ap - Z_new), r_dual)

    def polish(k):
        nonlocal p, certified
        refined = _attempt_polish(model, u, p, U if k else None, held, steps)
        if refined is None:
            return None
        p, cert_res, J, nu = refined
        certified = (J, nu)
        return SolveStats(k, cert_res, cert_res <= cfg.tol, "certified")

    stats = None
    if held is not None:
        p = warm.p / qn
        stats = polish(0)
        if stats is not None:
            _log_exit("cone projection", stats)
    if stats is None:
        stats = _iterate(step, cfg, "cone projection", checkpoint=polish)
    p = qn * p
    if warm is not None:
        warm.J, warm.nu = certified
        warm.p = None if warm.J is None else p
    return p, replace(stats, newton_steps=sum(steps))


def project_cone(model: ConeModel, q: ConePoint, cfg: SolverConfig | None = None):
    """Metric projection onto the cone.

    Returns the nearest cone member to q and the solve statistics. The
    optimizer is ADMM over the LMI splitting plus the certified active-set
    refinement described in the module docstring.
    """
    cfg = cfg or SolverConfig()
    if q.n != model.n:
        raise InvalidInputError(f"point has n={q.n}, model has n={model.n}")
    p, stats = _project_cone_arr(model, q.coords, cfg)
    return ConePoint(model.n, p), stats


def project_polar(model: ConeModel, q: ConePoint, cfg: SolverConfig | None = None):
    """Metric projection onto the polar cone via the Moreau decomposition:
    the polar part is q minus the cone part, and the two are orthogonal."""
    p, stats = project_cone(model, q, cfg)
    return ConePoint(model.n, q.coords - p.coords), stats


def project_range(model: ConeModel, X: BlockSymMatrix) -> BlockSymMatrix:
    """Orthogonal projection onto the range of the LMI map.

    Returns the image of the Gram-system solution; the residual is
    annihilated by the adjoint, which is the defining property of the
    orthogonal projection onto a range space.
    """
    if X.n != model.n:
        raise InvalidInputError(f"matrix has n={X.n}, model has n={model.n}")
    return _unweighted(model.n, model.range_proj @ _weighted(X))


def _dykstra_flat(model: ConeModel, x0: np.ndarray, cfg: SolverConfig):
    """Dykstra alternation between the blockwise PSD cone and the range
    subspace, on a flat vector of weighted block coordinates.

    The correction term is carried on the PSD step only; the subspace is
    affine, so its step needs no correction.
    """
    x = x0
    corr = np.zeros_like(x0)

    def step():
        nonlocal x, corr
        shifted = x + corr
        y = psd_clip_flat(shifted)
        corr = shifted - y
        x_new = model.range_proj @ y
        res = max(_norm(y - x_new), _norm(x_new - x))
        x = x_new
        return res

    stats = _iterate(step, cfg, "Dykstra")
    return x, stats


def project_slice_dykstra(model: ConeModel, X, cfg: SolverConfig | None = None):
    """Project onto the slice (PSD cone intersected with the LMI range).

    The range of the LMI map is block-diagonal, so the slice lies in the
    subspace B of block-diagonal matrices, and by Pythagoras the projection
    of a full symmetric X is the projection of its 2x2 diagonal blocks,
    Pi_B X. A SymMatrix input is therefore reduced to those blocks, which
    run the same loop as a BlockSymMatrix input; the answer comes back as a
    SymMatrix whose off-block entries are exactly 0. Returns an object of
    the same kind as the input plus solve statistics.

    The projection is positively homogeneous, so the loop runs on
    Pi_B X / ||Pi_B X|| (Frobenius norm, by math.hypot) and the answer is
    scaled back: tol is relative to ||Pi_B X|| <= ||X||, and a
    power-of-two rescaling of X rescales the answer bitwise with equal
    iterations. An input whose diagonal blocks are all zero returns exact
    zeros.
    """
    cfg = cfg or SolverConfig()
    if isinstance(X, SymMatrix):
        d = 4 * model.n - 2
        if X.dim != d:
            raise InvalidInputError(f"matrix dimension {X.dim} does not match {d}")
        out, stats = project_slice_dykstra(
            model, BlockSymMatrix.from_full(model.n, X), cfg)
        return out.to_full(), stats
    if not isinstance(X, BlockSymMatrix):
        raise InvalidInputError("input must be a BlockSymMatrix or SymMatrix")
    if X.n != model.n:
        raise InvalidInputError(f"matrix has n={X.n}, model has n={model.n}")
    flat = _weighted(X)
    xn = _input_norm(flat)
    if xn == 0.0:
        return BlockSymMatrix(model.n, np.zeros_like(X.blocks)), _ZERO_STATS
    out, stats = _dykstra_flat(model, flat / xn, cfg)
    return _unweighted(model.n, xn * out), stats


def project_slice_fixedpoint(model: ConeModel, X: BlockSymMatrix,
                             cfg: SolverConfig | None = None,
                             gamma: float | None = None):
    """Project onto the slice through the fixed-point map of projected
    gradient steps: z <- Pi_cone(z - gamma (A*A z - A*X)), answer A z.

    Any step 0 < gamma < 1/lam_max(A*A) yields the same fixed point; the
    default is the model's precomputed 0.9 / lam_max. Inner cone projections
    run at tol/100 so inexact inner solves do not stall the outer loop; each
    starts from the previous outer iterate's answer (a warm holder).

    Like :func:`project_slice_dykstra` the loop runs on X / ||X|| and scales
    its answer back, so tol is relative to ||X||; X = 0 returns exact
    zeros.
    """
    cfg = cfg or SolverConfig()
    if X.n != model.n:
        raise InvalidInputError(f"matrix has n={X.n}, model has n={model.n}")
    gamma = model.gamma if gamma is None else float(gamma)
    if not (0.0 < gamma < 1.0 / model.lam_max):
        raise InvalidInputError("gamma must lie in (0, 1/lam_max)")
    flat = _weighted(X)
    xn = _input_norm(flat)
    if xn == 0.0:
        return BlockSymMatrix(model.n, np.zeros_like(X.blocks)), _ZERO_STATS
    target = model.lmi_weighted.T @ (flat / xn)
    inner_cfg = replace(cfg, tol=cfg.tol / 100.0)
    warm = _WarmStart()
    z = np.zeros(model.dim())
    inner_ok = True
    newton_steps = 0

    def step():
        nonlocal z, inner_ok, newton_steps
        point = z - gamma * (model.gram_dense @ z - target)
        z_new, inner_stats = _project_cone_arr(model, point, inner_cfg, warm)
        newton_steps += inner_stats.newton_steps
        if inner_stats.final_residual > cfg.tol:
            inner_ok = False
        res = float(np.linalg.norm(z_new - z))
        z = z_new
        return res

    stats = _iterate(step, cfg, "fixed-point projector", window=50)
    return (_unweighted(model.n, xn * (model.lmi_weighted @ z)),
            replace(stats, converged=stats.converged and inner_ok,
                    newton_steps=newton_steps))
