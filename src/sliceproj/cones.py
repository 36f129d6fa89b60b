"""The LMI-representable cone family, its curves, normals, and duality tools.

For an index n >= 2 the cone lives in R^(2n+1) with coordinates
(x1, x2, x3, y1..y_{n-1}, z1..z_{n-1}) and is cut out by the inequalities

    x3^2 >= y1^2 + z1^2,  x3 >= 0,
    x3*y_i >= y_{i+1}^2   (i = 1..n-2),   x3*y_{n-1} >= x1^2,
    x3*z_i >= z_{i+1}^2   (i = 1..n-2),   x3*z_{n-1} >= x2^2.

Equivalently it is the preimage of the PSD cone under a linear map into
block-diagonal symmetric matrices with 2n-1 blocks of size 2x2 (one coupling
block plus the two doubling chains). Its shadow on (x1, x2, x3) is the
kappa-norm cone { ||(x1,x2)||_kappa <= x3 } with kappa = 2^n, whose polar is
governed by the conjugate exponent lambda = 2^n / (2^n - 1).

A ConeModel is the cone {p : W p blockwise PSD} of any LMI matrix W, with
its solvers' arrays; make_cone(n) builds K_n's, a ChainCone, which alone
holds n, kappa and lam. A model is immutable, its ADMM operators included
(built per model, with no penalty parameter), so it may be shared across
concurrent workers (two racing on a lazy slice_model or lam at worst
compute it twice); every operation here is a pure function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .errors import InvalidInputError
from .symmat import (N_MAX, N_MIN, RT2, WEIGHTS, BlockSymMatrix,  # noqa: F401
                     _check_index, _init_array, _is_int, _is_real, _read_text,
                     _real_array, to_lorentz)


@dataclass(frozen=True, eq=False)
class ConePoint:
    """Point of the ambient space R^(2n+1) with named coordinate groups."""

    n: int
    coords: np.ndarray
    _shape = staticmethod(lambda n: (2 * n + 1,))

    def __post_init__(self):
        _init_array(self, "coords")

    @classmethod
    def from_parts(cls, n, x1, x2, x3, y, z) -> "ConePoint":
        coords = np.concatenate([[x1, x2, x3], np.asarray(y, dtype=float),
                                 np.asarray(z, dtype=float)])
        return cls(n, coords)

    @property
    def x1(self) -> float:
        return float(self.coords[0])

    @property
    def x2(self) -> float:
        return float(self.coords[1])

    @property
    def x3(self) -> float:
        return float(self.coords[2])

    @property
    def y(self) -> np.ndarray:
        return self.coords[3:self.n + 2]

    @property
    def z(self) -> np.ndarray:
        return self.coords[self.n + 2:]

    def norm(self) -> float:
        """Euclidean norm, by math.hypot: inf only above the largest double."""
        return math.hypot(*self.coords)


def _weighted_matrix(n: int) -> np.ndarray:
    """The LMI map's matrix W in weighted block coordinates: block k of the
    image of p is [[a_k.p, b_k.p], [b_k.p, c_k.p]], and W's rows 3k..3k+2
    are a_k, sqrt(2) b_k, c_k, so the Euclidean inner product of flattened
    blocks is the trace inner product. Order: coupling block, y-chain, then
    z-chain. The chain terminators put the spare variable (x1 or x2) on the
    off-diagonal: x3*y_{n-1} >= x1^2 and x3*z_{n-1} >= x2^2.
    """
    d = 2 * n + 1
    blocks = np.zeros((2 * n - 1, 3, d))
    blocks[:, 0, 2] = 1.0
    # coupling block (x3 + y1, z1, x3 - y1)
    blocks[0, 0, 3] = 1.0
    blocks[0, 1, n + 2] = RT2
    blocks[0, 2, 2:4] = (1.0, -1.0)
    # chain block k = 1..2n-2 is (x3, next, v) for v the k-th of y_1..y_{n-1},
    # z_1..z_{n-1} (column k + 2); next is v's successor, x1 or x2 at the ends
    k = np.arange(1, 2 * n - 1)
    link = k + 3
    link[[n - 2, -1]] = 0, 1
    blocks[k, 1, link] = RT2
    blocks[k, 2, k + 2] = 1.0
    return blocks.reshape(-1, d)


@dataclass(frozen=True, eq=False)
class ConeModel:
    """Everything precomputed for the cone {p : A p blockwise PSD}, each
    array derived by :meth:`from_lmi` from A's weighted matrix
    lmi_weighted = W: the Cholesky factorization gram_factor of the Gram
    operator A*A = W^T W, from which range_proj and slice_model are built
    (solve_gram, a solve with it, has no caller here and stays as a
    perfbench span target); the forms det_forms, p^T B_k p being the
    determinant of block k; and slice_model, built on first use. W is any
    (3m, d) matrix; the typed API takes a W of shape (6n - 3, 2n + 1).

    The solvers hold blocks in Lorentz coordinates (BlockSymMatrix.lorentz),
    in which each 2x2 PSD block is a 3-d second-order cone, and their
    operators live in that basis: lmi_lorentz = L = blockdiag(R) W for the
    rotation R of each block; range_proj, the orthogonal projector onto
    the range of A; and the cone projector's ADMM operators
    admm_minv = (I + L^T L)^-1 and admm_gain = admm_minv L^T. R is
    orthogonal, so L^T L = W^T W and admm_minv is the same in either basis.
    The certificate's arrays (lmi_weighted, det_forms) stay in weighted
    coordinates: on a rank-1 boundary block t ~ -v, so the Lorentz
    determinant (t^2 - v^2 - w^2)/2 cancels to about eps c^2, while
    a c - b^2 keeps a small a exact. Forms B_k = L_k^T diag(1, -1, -1) L_k/2
    gave the same answers (within 1.1e-9) on 750 cone solves (n in
    {2, 4, 6, 8, 12}, N(0, I) scaled by 10^U[-12, 12], seed 11) in 53248
    Newton steps against 2943, 11.0 s against 1.4 s.

    A model is immutable, its arrays read-only. Equality is identity (the
    generated __eq__ over ndarray fields would raise), so a model is
    hashable and works as a dict key.
    """

    gram_factor: tuple = field(repr=False)
    lmi_weighted: np.ndarray = field(repr=False)
    lmi_lorentz: np.ndarray = field(repr=False)
    det_forms: np.ndarray = field(repr=False)
    range_proj: np.ndarray = field(repr=False)
    admm_minv: np.ndarray = field(repr=False)
    admm_gain: np.ndarray = field(repr=False)

    @staticmethod
    def from_lmi(W) -> "ConeModel":
        """The model whose LMI map has weighted matrix W (rows a_k,
        sqrt(2) b_k, c_k per block): a plain ConeModel, also when called on
        a subclass. Raises InvalidInputError unless W is a finite (3m, d)
        matrix, m, d >= 1, with positive-definite W^T W.
        """
        W = np.array(_real_array(W, "W must be a real matrix"), ndmin=2)
        if (W.ndim != 2 or not W.size or W.shape[0] % 3
                or not np.isfinite(W).all()):
            raise InvalidInputError(
                "W must be a finite (3m, d) matrix with m, d >= 1")
        gram = W.T @ W
        try:
            gram_factor = cho_factor(gram)
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError("Gram matrix not positive definite") from exc
        L = to_lorentz(W.reshape(-1, 3, W.shape[1])).reshape(W.shape)
        range_proj = L @ cho_solve(gram_factor, L.T)
        # det [[a.p, b.p], [b.p, c.p]] = p^T (sym(a c^T) - b b^T) p
        a, b, c = W[0::3, :, None], W[1::3, :, None] / RT2, W[2::3, :, None]
        ac, bb = a * c.transpose(0, 2, 1), b * b.transpose(0, 2, 1)
        det_forms = 0.5 * (ac + ac.transpose(0, 2, 1)) - bb
        eye = np.eye(W.shape[1])
        admm_minv = cho_solve(cho_factor(eye + gram), eye)
        admm_gain = admm_minv @ L.T
        for arr in (W, L, gram_factor[0], range_proj, det_forms, admm_minv,
                    admm_gain):
            arr.setflags(write=False)
        return ConeModel(gram_factor=gram_factor, lmi_weighted=W,
                         lmi_lorentz=L, det_forms=det_forms,
                         range_proj=range_proj, admm_minv=admm_minv,
                         admm_gain=admm_gain)

    @functools.cached_property
    def slice_model(self) -> "ConeModel":
        """The cone K' = {w : Q w blockwise PSD}, Q = W U^-1 for the Gram
        factor W^T W = U^T U. Q has orthonormal columns and W's range, so
        the slice projection of x is Q Pi_K'(Q^T x). Kept on this model, not
        in a module-level cache, so it lives as long as the model."""
        U, lower = self.gram_factor
        Q = solve_triangular(U, self.lmi_weighted.T, trans="T", lower=lower)
        return ConeModel.from_lmi(Q.T)

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """Solve gram @ x = rhs using the cached factorization."""
        return cho_solve(self.gram_factor, rhs)

    def dim(self) -> int:
        return self.lmi_weighted.shape[1]


@dataclass(frozen=True, eq=False)
class ChainCone(ConeModel):
    """K_n's ConeModel, W = _weighted_matrix(n), with its kappa and lam."""

    n: int
    kappa = functools.cached_property(lambda s: 2.0 ** s.n)
    lam = functools.cached_property(lambda s: s.kappa / (s.kappa - 1.0))


def make_cone(n: int) -> ChainCone:
    """The ChainCone of index n (N_MIN <= n <= N_MAX): n and the fields of
    from_lmi's model, which a fresh model's vars() holds exactly."""
    n = _check_index(n)
    return ChainCone(n=n, **vars(ConeModel.from_lmi(_weighted_matrix(n))))


def _check_input(model: ConeModel, x, kind: type):
    """x, after checking that it is a kind (ConePoint or BlockSymMatrix)
    whose n fits W, of shape (6n-3, 2n+1); else raises InvalidInputError."""
    if not isinstance(x, kind):
        raise InvalidInputError(
            f"input must be a {kind.__name__}, got {type(x).__name__}")
    rows, d = model.lmi_weighted.shape
    if (rows, d) != (6 * x.n - 3, 2 * x.n + 1):
        what = "point" if kind is ConePoint else "matrix"
        has = f"n={d // 2}" if d % 2 and rows == 3 * d - 6 else f"W {rows}x{d}"
        raise InvalidInputError(f"{what} has n={x.n}, model has {has}")
    return x


def _lmi_rows(model: ConeModel, p: np.ndarray) -> np.ndarray:
    """The (a_k.p, b_k.p, c_k.p) rows of the LMI image of p, one per block."""
    return (model.lmi_weighted @ p).reshape(-1, 3) / WEIGHTS


def lmi_apply(model: ConeModel, p: ConePoint) -> BlockSymMatrix:
    """Apply the LMI map: the block-diagonal matrix whose PSD-ness defines
    membership of p in the cone."""
    coords = _check_input(model, p, ConePoint).coords
    return BlockSymMatrix(p.n, _lmi_rows(model, coords))


def lmi_adjoint(model: ConeModel, mat: BlockSymMatrix) -> ConePoint:
    """Adjoint of the LMI map under the trace inner product on blocks."""
    weighted = _check_input(model, mat, BlockSymMatrix).weighted()
    return ConePoint(mat.n, model.lmi_weighted.T @ weighted)


def membership_cone(model: ChainCone, p: ConePoint, tol: float = 1e-9):
    """Inequality-description membership test for the cone.

    Returns (inside, worst) where worst is the largest constraint violation
    (positive means violated, negative means interior margin); inside is
    worst <= tol. Cross-checkable against the smallest block eigenvalue of
    lmi_apply(p), which cuts out the same set.
    """
    _check_tol(tol)
    worst = float(max(_violations(model, p)))
    return worst <= tol, worst


def _violations(model: ChainCone, p: ConePoint) -> list:
    """membership_cone's constraints as lhs - rhs: -x3, the coupling
    inequality, then the links of the y- and z-chains, interleaved."""
    c = _check_input(model, p, ConePoint).coords
    x3, y, z = c[2], c[3:model.n + 2], c[model.n + 2:]
    viol = [-x3, y[0] ** 2 + z[0] ** 2 - x3 ** 2]
    for i in range(model.n - 2):
        viol += [y[i + 1] ** 2 - x3 * y[i], z[i + 1] ** 2 - x3 * z[i]]
    return viol + [c[0] ** 2 - x3 * y[-1], c[1] ** 2 - x3 * z[-1]]


def membership_polar_shadow(u, model: ChainCone, tol: float = 1e-9) -> bool:
    """Membership of (u1, u2, u3) in the polar of the cone's 3-variable shadow.

    The shadow is the kappa-norm cone, so its polar is the lambda-norm cone
    pointing down: |u1|^lam + |u2|^lam <= |u3|^lam with u3 <= 0. Fractional
    powers are evaluated on absolute values; the dual-norm derivation forces
    this reading.
    """
    _check_tol(tol)
    try:
        u1, u2, u3 = (float(v) if _is_real(v) else math.nan for v in u)
    except (TypeError, ValueError, OverflowError):
        u1 = u2 = u3 = math.nan
    if not all(math.isfinite(v) for v in (u1, u2, u3)):
        raise InvalidInputError(
            "membership_polar_shadow requires u of 3 finite real numbers")
    if u3 > tol:
        return False
    lhs = abs(u1) ** model.lam + abs(u2) ** model.lam
    return lhs <= abs(u3) ** model.lam + tol


def one_minus_pow_one_minus(u: float, alpha: float) -> float:
    """Cancellation-safe 1 - (1 - u)^alpha for u in [0, 1], alpha > 0."""
    if u >= 1.0:
        return 1.0
    return -math.expm1(alpha * math.log1p(-u))


def _pow_one_minus(u: float, alpha: float) -> float:
    """(1 - u)^alpha, safe for u close to 0; u = 1 maps to 0 for alpha > 0."""
    if u >= 1.0:
        return 0.0
    return math.exp(alpha * math.log1p(-u))


def _check_t(t, name: str = "t") -> float:
    if not _is_real(t) or not 0.0 <= t <= 1.0:
        raise InvalidInputError(
            f"{name}={t!r} is not a real number in [0.0, 1.0]")
    return float(t)


def _check_tol(tol) -> None:
    if not _is_real(tol) or not math.isfinite(tol):
        raise InvalidInputError(f"tol={tol!r} is not a finite real number")


def polar_curve(model: ChainCone, t: float) -> ConePoint:
    """Boundary curve of the polar cone: (t, (1-t^lam)^(1/lam), -1, 0, ..., 0)."""
    t = _check_t(t)
    coords = np.zeros(model.dim())
    coords[0] = t
    coords[1] = _pow_one_minus(t ** model.lam, 1.0 / model.lam)
    coords[2] = -1.0
    return ConePoint(model.n, coords)


def normal_curve(model: ChainCone, t: float) -> ConePoint:
    """Generator of the normal ray of the polar cone at polar_curve(t).

    Head is (t^(lam/kappa), (1-t^lam)^(1/kappa), 1); the tails follow the
    doubling chains y_i = t^(lam/2^i) and z_i = (1-t^lam)^(1/2^i).
    """
    t = _check_t(t)
    n = model.n
    lam = model.lam
    tl = t ** lam
    coords = np.zeros(model.dim())
    coords[0] = t ** (lam / model.kappa)
    coords[1] = _pow_one_minus(tl, 1.0 / model.kappa)
    coords[2] = 1.0
    for i in range(1, n):
        coords[2 + i] = t ** (lam / 2.0 ** i)
        coords[n + 1 + i] = _pow_one_minus(tl, 1.0 / 2.0 ** i)
    return ConePoint(n, coords)


def curve_step(model: ChainCone, t: float) -> ConePoint:
    """The step h = polar_curve(t) - polar_curve(0), with the second coordinate
    evaluated through expm1/log1p so tiny steps keep full precision."""
    t = _check_t(t)
    coords = np.zeros(model.dim())
    coords[0] = t
    coords[1] = -one_minus_pow_one_minus(t ** model.lam, 1.0 / model.lam)
    return ConePoint(model.n, coords)


def step_normal_inner(model: ChainCone, t: float) -> float:
    """Closed form of <polar_curve(t) - polar_curve(0), normal_curve(t)>.

    Equals 1 - (1 - t^lam)^(1/kappa), which scales like t^lam / kappa as
    t -> 0; computed without subtractive cancellation.
    """
    t = _check_t(t)
    return one_minus_pow_one_minus(t ** model.lam, 1.0 / model.kappa)


def holder_gap(x, y, p: float) -> float:
    """Gap (right side minus left side) of Hoelder's inequality.

    For conjugate exponents p and q = p/(p-1),
    sum |x_i y_i| <= (sum |x_i|^p)^(1/p) (sum |y_i|^q)^(1/q);
    the gap is nonnegative and vanishes exactly on proportional pairs
    |x_i|^p = c |y_i|^q.
    """
    if not _is_real(p) or not 1.0 < p < math.inf:
        raise InvalidInputError(
            f"holder_gap requires a real p in (1, inf), got {p!r}")
    x = _real_array(x, "holder_gap requires real vectors")
    y = _real_array(y, "holder_gap requires real vectors")
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidInputError("holder_gap requires equal-length vectors")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidInputError("holder_gap requires finite vectors")
    q = p / (p - 1.0)
    lhs = float(np.sum(np.abs(x * y)))
    rhs = float(np.sum(np.abs(x) ** p) ** (1.0 / p)
                * np.sum(np.abs(y) ** q) ** (1.0 / q))
    return rhs - lhs


def sample_cone(model: ChainCone, rng: np.random.Generator) -> ConePoint:
    """Draw a random cone member by walking the doubling chains, each chain
    inequality with a uniform slack factor.

    Used by the verification suites as an independent source of feasible
    points.
    """
    n = model.n
    x3 = rng.uniform(0.2, 1.0)
    # head block: y1^2 + z1^2 <= x3^2
    ang = rng.uniform(0.0, 0.5 * math.pi)
    rad = x3 * rng.uniform(0.0, 1.0)
    y_prev, z_prev = rad * math.cos(ang), rad * math.sin(ang)
    y = [y_prev]
    z = [z_prev]
    for _ in range(n - 2):
        fy = rng.uniform(0.0, 1.0)
        fz = rng.uniform(0.0, 1.0)
        y.append(fy * math.sqrt(x3 * y[-1]))
        z.append(fz * math.sqrt(x3 * z[-1]))
    sx1 = rng.choice([-1.0, 1.0])
    sx2 = rng.choice([-1.0, 1.0])
    fy = rng.uniform(0.0, 1.0)
    fz = rng.uniform(0.0, 1.0)
    x1 = sx1 * fy * math.sqrt(x3 * y[-1])
    x2 = sx2 * fz * math.sqrt(x3 * z[-1])
    point = ConePoint.from_parts(n, x1, x2, x3, y, z)
    return ConePoint(n, point.coords * rng.uniform(0.1, 2.0))


def read_cone_point(text: str) -> ConePoint:
    """Parse the ConePoint text format: line 1 n, line 2 the 2n+1 coordinates."""
    return _read_text(text, ConePoint)


def write_cone_point(p: ConePoint) -> str:
    coords = " ".join(format(v, ".17g") for v in p.coords)
    return f"{p.n}\n{coords}\n"
