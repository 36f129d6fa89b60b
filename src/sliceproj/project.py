"""Metric-projection solvers for the cone family and the PSD-cone slice.

One certified cone projector, the projections derived from it, and one
independent oracle for the slice:

* ADMM splitting for the projection onto the cone itself, through its LMI
  form, with an active-set refinement step (see below);
* the Moreau decomposition for the projection onto the polar cone;
* the projection onto the slice (PSD cone intersected with the range of
  the LMI map), as the cone projection in the Gram metric;
* Dykstra's alternating projections for the same slice, sharing no logic
  with the cone projector, on the 2x2 diagonal blocks: the range is
  block-diagonal, so a full-matrix input reduces exactly to its blocks.

The projection onto a cone is positively homogeneous, so the cone solver
works on q / ||q|| and scales its answer back by ||q||. Its tolerance
and refinement thresholds are therefore relative to ||q||: the answer
scales with q, and the iteration count and the converged flag do not
depend on q's scale (bitwise so for power-of-two rescalings). The range
and slice projections are positively homogeneous too: project_range and
both slice projectors run in one frame, _unit_frame, on X / ||X||.

Projections whose answer sits at (or near) the cone's apex lack strict
complementarity, and every first-order splitting method degrades to a
sublinear crawl there. The ADMM solver therefore attempts an active-set
Newton refinement in conically rescaled variables at iteration 16, then
at 32, 64 and so on, as well as on reaching tol and at the budget. The
refined point is accepted only when an exact optimality certificate
holds (matched KKT residual, nonnegative multipliers, feasible
direction), otherwise the raw ADMM iterate is kept. One rule holds at
every checkpoint: a certified refinement ends the solve, which is
converged when the certificate residual is within tol. The certificate
uses nothing beyond the cone's defining inequalities, so the refined
answers remain an independent check on any closed-form prediction. A
refinement gives up as soon as its line search would need a step below
2^-7, so an early checkpoint with a wrong active set costs little.

The ADMM arrays are tiny (dimension 2n+1 <= 25), so its cost is the
number of numpy calls per iteration, not flops. Both iterative solvers
hold the blocks in Lorentz coordinates (BlockSymMatrix.lorentz), an
orthogonal change of basis under which each 2x2 PSD block is the 3-d
second-order cone, so their blockwise PSD clip is that cone's closed-form
projection, symmat.lorentz_clip, and A is the model's lmi_lorentz = L.
For the same reason the clip loops over Python floats at the few blocks
of n <= 7 (up to symmat._CLIP_LOOP_BLOCKS = 13), where that costs less
than its vectorised form's fixed nine numpy calls, and runs the
vectorised form above; both return bitwise the same array, so no iterate
depends on the path.
The splitting has no penalty parameter (its penalty is 1), so its
p-update operators depend on the model alone, and ConeModel.from_lmi
builds them: Minv = (I + L^T L)^-1 and the gain K = Minv L^T. The ADMM
is over-relaxed (Eckstein and Bertsekas, 1992; Boyd et al., 2011, 3.4.3)
by the constant _RELAX = 1.8: the clip acts on
X = _RELAX L p + (1 - _RELAX) Z + U, and U = X - clip(X). The relaxed
iterate finds the active set sooner, so a refinement at iteration 16
mostly certifies, where the plain iterate needed 32. A solve computes
Minv u once, for u = q / ||q||, and the scaled map _RELAX L once; each
iteration is then p = Minv u + K (Z - U), the product of p with the scaled
map, (1 - _RELAX) Z, two array sums and one Lorentz clip of the flat block
vector. The residuals (the products L p for the primal residual and
L^T (Z_new - Z) for the dual one, two subtractions and two norms) are
formed only on the iterations at which the loop reads them (below).

Dykstra alternates the Lorentz clip with the model's precomputed
orthogonal projector P onto the range of A, in the same basis. It
carries the point z that the clip acts on: y = clip(z), and z moves by
-(I - P) y, so z stays in x0 + range(A)^perp. That is a unit-step
projected gradient step on the dual function 1/2 dist(z, C°)^2 (C the
blockwise PSD cone), whose gradient, the clip, is 1-Lipschitz
(Tibshirani, 2017, reads Dykstra as coordinate descent on that dual).
So every step in (0, 2) reaches the same projection: the range meets
the interior of C, so the dual has a minimiser z*, and clip(z*) is the
answer. Dykstra takes the step _DYKSTRA_RELAX = 1.6, a constant of its
own, not ADMM's: z moves by -M y with M = 1.6 (I - P), built once per
solve, so an iteration is one clip, one matrix-vector product and one
subtraction, and the answer x = P y is formed at the exit alone. On 330
N(0, 1) block inputs (n = 2..12, 30 per n, default_rng(5)) the steps 1,
1.4, 1.5, 1.6, 1.7, 1.8 and 1.9 took 147864, 104848, 97696, 91544,
86352, 82840 and 88344 iterations in all. 1.6 is 38 % below Dykstra's
own step, and it and 1.7 have the lowest median per solve at n = 2 and
3, where 1.8 is higher.

ADMM and Dykstra share one iteration loop, _iterate: each passes a step
that runs one iteration and returns its residual when the loop asks for
it, and the loop owns the tolerance and budget tests, the refinement
schedule's checkpoints, the exit reason and one debug log line per exit.
The loop asks for a residual every _RES_STRIDE = 8 iterations, at each
refinement checkpoint and at the budget, and runs its exit tests there
only. Most solves end at a checkpoint, where a per-iteration residual
would feed only tests that never fire. The iterates do not depend on the
stride, so a solve that ends at a scheduled checkpoint or on its budget
is the same with every stride, and one that meets tol in between ends at
most 7 iterations after the first iteration whose residual would have
passed. A tol below the rounding floor would run to the budget, so the
public projectors reject one below _TOL_MIN.

Each cone solve returns its certificate: the answer p, active set J and
rescaled multipliers nu of the refinement that ended it, or None. A
caller that solves a path of nearby cone projections (the numeric probe's
grid) passes the last certificate to the next solve as held. The loop's
checkpoint 0, before any iteration, tries the held J, with Newton started
from the held nu at the held answer, and ends the solve with 0 iterations
when the certificate holds. That is the held certificate's one use:
otherwise the solve is the one-off solve of q, with the same answer,
iterations and exit reason, plus one failed attempt. This is
continuation along the path without a predictor: nearby inputs share
their active set, and their multipliers are close, so Newton starts near
its quadratic region. The certificate, not the start, decides
acceptance, so a stale certificate costs one attempt, never accuracy.

The ConeModel and the certificates are never written after they are
built, so solves may share them across threads. The refinement's cache
of LAPACK workspace sizes holds plain integers computed from the system's
shape alone, so a race there at worst queries the same size twice. The
library itself starts no threads.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgelsd, dgelsd_lwork, dgesv

from .cones import ConeModel, ConePoint, _check_input, _lmi_rows
from .errors import InvalidInputError
from .symmat import (BlockSymMatrix, SymMatrix, _is_real, block_min_eigs,
                     lorentz_clip)
# unused here: perfbench wraps these bindings in its symmat.jacobi,
# project.factor and project.linsolve spans
from scipy.linalg import cho_factor, cho_solve  # noqa: F401
from .symmat import jacobi_eig  # noqa: F401

log = logging.getLogger("sliceproj.project")

# the loop asks its step for a residual every _RES_STRIDE iterations (and
# at each checkpoint and the budget); in between, the step skips that work
_RES_STRIDE = 8
_CERT_TOL = 1e-12
_EPS = np.finfo(float).eps
# first ADMM iteration at which the refinement is tried, one-off and warm
# solves alike; doubled after each
_FIRST_POLISH = 16
# the ADMM over-relaxation factor, in (0, 2), where 1 is plain ADMM (see
# _project_cone_arr); read at call time
_RELAX = 1.8
# Dykstra's step, in (0, 2), where 1 is Dykstra's own (see _dykstra_flat);
# read at call time, and kept apart from _RELAX: the oracle shares no logic
# with the cone projector
_DYKSTRA_RELAX = 1.6
# the Newton refinement's line-search cap (see _newton_polish). No
# certified refinement halved a step more than 6 times: 902 in the numeric
# probes at n = 2..12 (fd_step 1e-6 and 1e-4), 639 on N(0, I) inputs (60
# per n at n = 2..12, default_rng(5)) and those of the benchmark's three
# workloads (seed 1)
_NEWTON_HALVINGS = 7
_NEWTON_MAX_STEPS = 60
# every projector's tolerance unless given one, relative to the input's norm
DEFAULT_TOL = 1e-9
# the least tol a public projector accepts. At tol 1e-300, the solves of a
# 660-input sweep (the cone and both slice projectors, n = 2..12) that did
# not certify stopped improving at relative residuals of at most 2.4e-16,
# about 1 eps, so this leaves a 40x margin
_TOL_MIN = 1e-14
# the iteration budget of every solve, read at call time
_MAX_ITER = 200_000


def _check_positive(value, name: str, least: float = 0.0) -> None:
    """Raise unless value is a positive, finite real (True would mean 1),
    and not below least."""
    if not _is_real(value) or not 0.0 < value < math.inf or value < least:
        raise InvalidInputError(f"{name} must be finite and positive"
                                + (f", at least {least:g}" if least else ""))


# why a solve stopped; see SolveStats
EXIT_REASONS = ("tol", "certified", "budget")


@dataclass(frozen=True)
class SolveStats:
    """How a solve ended.

    final_residual is the residual the solve stopped at, relative to the
    input's norm (||q|| or ||X||). For cone solves it is the ADMM residual
    or the refinement's certificate residual of the unit-norm problem.
    exit_reason is one of EXIT_REASONS: ``tol`` (the residual reached tol),
    ``certified`` (an exact shortcut, or an active-set refinement whose
    optimality certificate held) or ``budget`` (_MAX_ITER reached). The
    exit tests read a residual every 8 iterations, at each refinement
    checkpoint (16, 32, 64, ...) and at _MAX_ITER, so a tol exit's
    iterations is a multiple of 8, a checkpoint or _MAX_ITER. For cone
    solves converged == (final_residual <= tol). polish_attempts is the
    number of refinement attempts (Newton solves on one active set) of the
    solve, and newton_steps the number of accepted Newton steps summed over
    them. Both are 0 for Dykstra; the derived slice projection reports its
    one cone solve's.
    """

    iterations: int
    final_residual: float
    converged: bool
    exit_reason: str
    newton_steps: int = 0
    polish_attempts: int = 0

    def __post_init__(self):
        for name in ("iterations", "newton_steps", "polish_attempts"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "final_residual", float(self.final_residual))
        object.__setattr__(self, "converged", bool(self.converged))
        if self.exit_reason not in EXIT_REASONS:
            raise ValueError(f"unknown exit reason {self.exit_reason!r}")

    def to_json_dict(self) -> dict:
        return asdict(self)


# the exact answer at a zero input, and for a cone solve of a cone member
_ZERO_STATS = SolveStats(0, 0.0, True, "certified")


def _iterate(step, tol: float, what: str, checkpoint=None) -> SolveStats:
    """The iteration loop of every solver.

    step(fresh) runs one iteration; it returns the iteration's residual
    when fresh is true, and None otherwise, having skipped the residual's
    work. fresh is true every _RES_STRIDE iterations, at each refinement
    checkpoint and at iteration _MAX_ITER, and the exit tests run on
    fresh iterations only: the loop stops when the residual is within
    tol or after _MAX_ITER iterations. So a tol exit's iteration count is
    a stride multiple, a checkpoint or the budget, up to _RES_STRIDE - 1
    iterations after the first iteration that passed the test, and no exit
    reports a stale residual. checkpoint(k), if given, runs before the
    first iteration (k = 0), at iteration _FIRST_POLISH, at each doubling
    of it and at every exit, before the exit tests; the SolveStats it
    returns, if any, end the solve. Each exit logs one debug line naming
    `what`.
    """
    max_iter = _MAX_ITER
    k, check_at = 0, _FIRST_POLISH
    stats = None if checkpoint is None else checkpoint(0)
    while stats is None:
        k += 1
        at_check = k == check_at
        res = step(at_check or k % _RES_STRIDE == 0 or k == max_iter)
        if res is None:
            continue
        if at_check:
            check_at *= 2
        reason = "tol" if res <= tol else "budget" if k == max_iter else None
        if checkpoint is not None and (reason or at_check):
            stats = checkpoint(k)
        if stats is None and reason:
            stats = SolveStats(k, res, res <= tol, reason)
    log.debug("%s: %s after %d iterations at residual %.3e", what,
              stats.exit_reason, stats.iterations, stats.final_residual)
    return stats


def _duals_nonnegative(rows: np.ndarray, J, nu: np.ndarray) -> bool:
    """Sign test of the active blocks' multipliers nu, each on its block's
    own scale nu_k tr M_k (the gradient of det M_k is adj M_k, of trace
    tr M_k), given the LMI rows of the unit direction pi."""
    active = rows.take(J, axis=0)
    return bool((nu * (active[:, 0] + active[:, 2]) >= -1e-9).all())


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

    Damped Newton stops at convergence, after _NEWTON_MAX_STEPS steps, or
    early when the line search needs a step shorter than
    2^-_NEWTON_HALVINGS, so a hopeless active set costs a few line
    searches. The certificate then decides on the last point reached.

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
    Bs = model.det_forms.take(J, axis=0)
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
    norm = _norm(fu)
    # max |f_i| <= 1e-15 bounds ||f|| by 1e-15 sqrt(len(f)), so the max is
    # read only at norms below that bound (plus room for their rounding)
    near = 1.01e-15 * math.sqrt(len(fu))
    info = taken = 0
    while taken < _NEWTON_MAX_STEPS:
        if norm <= near and np.abs(fu).max() <= 1e-15:
            break
        # overwrite_a and overwrite_b, passed by position: keywords cost
        # f2py about 0.4 us a call
        _, _, du, info = dgesv(_kkt_jacobian(Bs, u, Bpi, Bs_flat), -fu, 1, 1)
        if info:
            break
        step = 1.0
        for _ in range(_NEWTON_HALVINGS + 1):
            # 1.0 * du is du
            u_try = u + du if step == 1.0 else u + step * du
            Bpi_try = Bs @ u_try[1:1 + d]
            norm_try = _norm(_kkt_residual(Bs, q, u_try, f_try, Bpi_try))
            if norm_try < (1.0 - 0.25 * step) * norm:
                u, Bpi = u_try, Bpi_try
                fu, f_try = f_try, fu
                norm = norm_try
                break
            step *= 0.5
        else:
            break
        taken += 1
    if steps is not None:
        steps.append(taken)
    best = float(np.abs(fu).max())
    if info or best > _CERT_TOL:
        return None
    mu, pi, nu = float(u[0]), u[1:1 + d], u[1 + d:]
    # certificate: nonnegative multipliers, nonnegative scale, feasible
    # direction; together with the matched residual these prove optimality
    rows = _lmi_rows(model, pi)
    if mu < -1e-11 or not _duals_nonnegative(rows, J, nu):
        return None
    if block_min_eigs(rows).min() < -1e-10:
        return None
    return max(mu, 0.0) * pi, best, nu


def _attempt_polish(model: ConeModel, q: np.ndarray, p: np.ndarray,
                    dual_flat: np.ndarray | None, held, steps: list):
    """Try the refinement's active sets in order, from p.

    At checkpoint 0 (dual_flat None) the one candidate is the J of held, a
    warm path's certificate (p, J, nu), with Newton from its nu. Later,
    held is unused: the blocks whose dual blocks (dual_flat) exceed 1e-6 of
    the largest in Euclidean norm (the same in weighted and in Lorentz
    coordinates), then all blocks when that set is smaller, each from
    least-squares multipliers. Returns (p_hat, certificate_residual, J,
    nu) of the first certified refinement, or None. steps is passed to
    each :func:`_newton_polish`.
    """
    if dual_flat is None:
        candidates = [held[1:]]
    else:
        dual_rows = np.linalg.norm(dual_flat.reshape(-1, 3), axis=1)
        dual_ref = max(float(dual_rows.max()), 1e-300)
        J = np.flatnonzero(dual_rows > 1e-6 * dual_ref).tolist()
        candidates = [(J, None)]
        if len(J) < len(dual_rows):
            candidates.append((list(range(len(dual_rows))), None))
    for J, nu0 in candidates:
        out = _newton_polish(model, q, p, J, nu0, steps)
        if out is not None:
            p_hat, cert_res, nu = out
            return p_hat, cert_res, J, nu
    return None


def _project_cone_arr(model: ConeModel, q: np.ndarray, tol: float,
                      held: tuple | None = None):
    """ADMM projection onto the cone, on raw coordinate arrays.

    Projection onto a cone is positively homogeneous, so the solve runs on
    the unit vector u = q / ||q|| and its answer is scaled back by ||q||:
    tol and the refinement's thresholds are relative to ||q|| by
    construction. ||q|| is computed without overflow or underflow in
    intermediate steps (math.hypot), so a power-of-two rescaling of q
    rescales the answer bitwise and leaves the iteration count unchanged;
    a q with ||q|| above the largest double is rejected. q = 0 and q in
    the cone are their own projections.

    Splitting: p-update solves (I + A*A) p = u + A*(Z - U), Z-update is
    the blockwise PSD projection of the over-relaxed
    X = _RELAX A p + (1 - _RELAX) Z + U, U = X - Z is the scaled dual. The
    p-update is p = Minv u + K (Z - U) with the model's operators
    admm_minv and admm_gain. A p is formed from p, as the product of p
    with _RELAX A, not as a product of (Z - U) with A K: at the apex the
    d entries of p can cancel to exactly 0, while A K (Z - U) keeps a
    rounding floor in every block entry. _RELAX = 1 is plain ADMM.
    ADMM always starts from Z = U = 0. It stops on max(primal, dual)
    residual <= tol, on a certified refinement, or at the budget. Each
    refinement runs at one of the loop's checkpoints; a certified one ends
    the solve, converged when its certificate residual is within tol.

    Returns (p, stats, cert): cert is the (p, J, nu) of the certified
    refinement that ended the solve, or None. held is None or an earlier
    solve's cert: checkpoint 0 tries the held J alone, from the held nu,
    at the held answer divided by ||q||, before any iteration, and no later
    refinement uses it, so a held solve that does not certify there returns
    the cold solve's answer, iterations and exit reason. nu belongs to the
    unit-norm problem, so it carries over between inputs of different ||q||.
    """
    qn = _input_norm(q)
    if qn == 0.0:
        return q.copy(), _ZERO_STATS, None
    u = q / qn
    if block_min_eigs(_lmi_rows(model, u)).min() >= -1e-13:
        return q.copy(), _ZERO_STATS, None
    L = model.lmi_lorentz
    LT = L.T
    gain = model.admm_gain
    relax = _RELAX
    p = None if held is None else held[0] / qn
    p0 = Z = U = aL = None
    steps = []
    cert = None

    def step(fresh):
        nonlocal p, p0, Z, U, aL
        if p0 is None:
            # the ADMM state, built on the first iteration: a solve that
            # certifies at checkpoint 0 needs none of it
            p0 = model.admm_minv @ u
            Z = U = np.zeros(L.shape[0])
            aL = relax * L
        p = p0 + gain @ (Z - U)
        X = aL @ p + (U + (1.0 - relax) * Z)
        Z_new = lorentz_clip(X)
        U = X - Z_new
        res = (max(_norm(L @ p - Z_new), _norm(LT @ (Z_new - Z))) if fresh
               else None)
        Z = Z_new
        return res

    def polish(k):
        nonlocal p, cert
        if p is None:
            # a cold solve's checkpoint 0: no held answer to refine
            return None
        refined = _attempt_polish(model, u, p, U if k else None, held, steps)
        if refined is None:
            return None
        p, cert_res, J, nu = refined
        cert = (J, nu)
        # the refinement ends the solve, so its attempts are all counted
        return SolveStats(k, cert_res, cert_res <= tol, "certified",
                          sum(steps), len(steps))

    stats = _iterate(step, tol, "cone projection", checkpoint=polish)
    if cert is None and steps:
        stats = replace(stats, newton_steps=sum(steps),
                        polish_attempts=len(steps))
    p = qn * p
    return p, stats, None if cert is None else (p, *cert)


def project_cone(model: ConeModel, q: ConePoint, tol: float = DEFAULT_TOL):
    """Metric projection onto the cone.

    Returns the nearest cone member to q and the solve statistics. The
    optimizer is ADMM over the LMI splitting plus the certified active-set
    refinement described in the module docstring. tol, a finite real of at
    least _TOL_MIN, is relative to ||q||.
    """
    _check_input(model, q, ConePoint)
    _check_positive(tol, "tol", _TOL_MIN)
    p, stats, _ = _project_cone_arr(model, q.coords, tol)
    return ConePoint(q.n, p), stats


def project_polar(model: ConeModel, q: ConePoint, tol: float = DEFAULT_TOL):
    """Metric projection onto the polar cone via the Moreau decomposition:
    the polar part is q minus the cone part, and the two are orthogonal."""
    p, stats = project_cone(model, q, tol)
    return ConePoint(q.n, q.coords - p.coords), stats


def _unit_frame(model: ConeModel, X: BlockSymMatrix, solve):
    """The block-matrix projections' frame: solve maps the Lorentz vector of
    X / ||X|| (normalised before it is rotated, which could overflow) to its
    projection, rotated back and rescaled, and SolveStats; 0 gives zeros."""
    _check_input(model, X, BlockSymMatrix)
    xn = _input_norm(X.weighted())
    if xn == 0.0:
        return BlockSymMatrix(X.n, np.zeros_like(X.blocks)), _ZERO_STATS
    out, stats = solve(X.lorentz(xn))
    return BlockSymMatrix.from_lorentz(X.n, out, xn), stats


def project_range(model: ConeModel, X: BlockSymMatrix) -> BlockSymMatrix:
    """Orthogonal projection onto the range of the LMI map.

    Returns the image of the Gram-system solution; the residual is
    annihilated by the adjoint, which is the defining property of the
    orthogonal projection onto a range space.
    """
    return _unit_frame(model, X, lambda x: (model.range_proj @ x, None))[0]


def _dykstra_flat(model: ConeModel, x0: np.ndarray, tol: float):
    """Over-relaxed Dykstra alternation between the blockwise PSD cone C
    and the range subspace, on a flat vector of Lorentz block coordinates.

    The correction term is carried on the PSD step only; the subspace is
    linear, so its step needs no correction. Then z = x + corr, the point
    the PSD step clips, obeys a recurrence of its own: with y = clip(z),
    Dykstra moves z by -(I - P) y, so z stays in x0 + range(P)^perp: a
    unit-step projected gradient step on a dual function, so any step in
    (0, 2) reaches the projection (the module docstring has why, and the
    sweep that chose the step _DYKSTRA_RELAX = 1.6; 1 is Dykstra's own).
    The loop carries z, y and the step's one product,
    M = _DYKSTRA_RELAX (I - P), built once per solve: z moves by -M y.
    P y is formed only at the exit, where the answer is P y of the last
    iteration. The residual, read where the loop asks for it, is
    max(||y - P y||, ||P y - P y_prev||), computed as
    ||M y|| / _DYKSTRA_RELAX and ||P (y - y_prev)||: besides the clip, a
    fresh iteration makes six numpy calls and any other two. y_prev starts
    at x0.
    """
    proj = model.range_proj
    relax = _DYKSTRA_RELAX
    M = relax * (np.eye(len(x0)) - proj)
    z = y = x0

    def step(fresh):
        nonlocal z, y
        y_new = lorentz_clip(z)
        My = M @ y_new
        z = z - My
        res = (max(_norm(My) / relax, _norm(proj @ (y_new - y))) if fresh
               else None)
        y = y_new
        return res

    stats = _iterate(step, tol, "Dykstra")
    return proj @ y, stats


def _slice_projection(model: ConeModel, X, solve):
    """:func:`_unit_frame` for the slice projectors, which also take a
    SymMatrix.

    The range of the LMI map is block-diagonal, so the slice lies in the
    subspace B of block-diagonal matrices, and by Pythagoras the projection
    of a full symmetric X is the projection of its 2x2 diagonal blocks,
    Pi_B X. A SymMatrix input is therefore reduced to those blocks, and the
    answer comes back as a SymMatrix whose off-block entries are exactly 0;
    a BlockSymMatrix input gets a BlockSymMatrix. Anything else is
    rejected.
    """
    if isinstance(X, SymMatrix):
        out, stats = _unit_frame(
            model, BlockSymMatrix.from_full(model.dim() // 2, X), solve)
        return out.to_full(), stats
    if not isinstance(X, BlockSymMatrix):
        raise InvalidInputError("input must be a BlockSymMatrix or SymMatrix")
    return _unit_frame(model, X, solve)


def project_slice_dykstra(model: ConeModel, X, tol: float = DEFAULT_TOL):
    """Project onto the slice (PSD cone intersected with the LMI range) by
    Dykstra's alternation, an oracle independent of the cone projector.

    X is a BlockSymMatrix or a SymMatrix (see :func:`_slice_projection`), and
    the answer is of the same kind, plus solve statistics. tol is relative
    to ||Pi_B X|| <= ||X||, and a power-of-two rescaling of X rescales the
    answer bitwise with equal iterations.
    """
    _check_positive(tol, "tol", _TOL_MIN)
    return _slice_projection(model, X, lambda x: _dykstra_flat(model, x, tol))


def project_slice_fixedpoint(model: ConeModel, X, tol: float = DEFAULT_TOL):
    """Project onto the slice by one cone solve in the Gram metric.

    The slice is A K, so the answer is A z for the z in K that minimises
    ||A z - X||. With A*A = U^T U (gram_factor), w = U z and Q = W U^-1,
    ||A z - X||^2 is ||w - Q^T X||^2 plus a constant, so the answer is
    A z = Q Pi_K'(Q^T X): one cone solve on K' = U K, model.slice_model,
    whose SolveStats are returned as is. The name is kept because the
    slice-fixedpoint CLI target and perfbench call this function.

    X is a BlockSymMatrix or a SymMatrix, and the answer is of the same
    kind, as for :func:`project_slice_dykstra`. tol is relative to
    ||Q^T X|| <= ||X||.
    """
    _check_positive(tol, "tol", _TOL_MIN)

    def solve(x):
        gram = model.slice_model
        Q = gram.lmi_lorentz
        w, stats, _ = _project_cone_arr(gram, Q.T @ x, tol)
        return Q @ w, stats

    return _slice_projection(model, X, solve)
