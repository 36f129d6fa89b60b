"""Minimal dense symmetric-matrix kernel.

Provides the closed forms for block-diagonal matrices built from 2x2
blocks and a cyclic threshold Jacobi eigensolver for full symmetric
matrices. A 2x2 block in weighted coordinates (a, sqrt(2) b, c) is, after
the orthogonal change of basis to_lorentz, a point (t, v, w) of R^3 that is
PSD exactly when t >= ||(v, w)||: the PSD cone of 2x2 matrices is the 3-d
second-order (Lorentz) cone. BlockSymMatrix alone converts to and from
these coordinates. The solvers hold their blocks in that basis and clip
them with lorentz_clip, the cone's closed-form projection.
psd_clip_rows is the same projection on plain (a, b, c) rows, and
block_min_eigs gives the blocks' smallest eigenvalues.

Every Jacobi rotation of a matrix of 2x2 diagonal blocks stays inside one
block, so each eigenvector is supported on one block. The Jacobi solver is
deliberately independent of the closed-form 2x2 clips so they can
cross-check each other.

All operations are pure functions of their inputs and safe for unrestricted
concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError

RT2 = math.sqrt(2.0)
# the weights of the (a, sqrt(2) b, c) rows of 2x2 blocks, in which the
# Euclidean inner product is the trace inner product
WEIGHTS = np.array([1.0, RT2, 1.0])
_TINY = 5e-324
_DIAG = np.array([1.0, 0.0, 1.0])

# the cone family's index range, checked by _check_index alone
N_MIN = 2
N_MAX = 12

# Desk-scale guard for the dense eigensolver.
JACOBI_MAX_DIM = 200
JACOBI_MAX_SWEEPS = 50

# lorentz_clip loops over Python floats up to this many blocks (n <= 7).
# On the solvers' own inputs the loop measured 14 % or more faster up to
# 13 blocks and slower from 17. At 15 blocks (n = 8) its lead was 3-10 %
# there and about 1 % on N(0, I) blocks, more of which take the loop's
# costlier boundary branch, so 15 stays vectorised
_CLIP_LOOP_BLOCKS = 13


def _is_int(value) -> bool:
    """A Python or numpy integer; a bool is an int too, but True would
    silently mean 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A Python or numpy real number, not a bool (as for _is_int)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_index(n, name: str = "n") -> int:
    """n as an int, after checking that it is an integer (not a bool) in
    [N_MIN, N_MAX]: the one rule for a cone index, wherever it enters."""
    if not _is_int(n) or not N_MIN <= n <= N_MAX:
        raise InvalidInputError(
            f"{name} must be an integer in [{N_MIN}, {N_MAX}], got {n!r}")
    return int(n)


def _real_array(value, message: str) -> np.ndarray:
    """value as a float array; InvalidInputError(message) if it is not one
    (a string, a ragged list)."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(message) from exc


def _init_array(obj, name: str) -> None:
    """The __post_init__ of ConePoint and BlockSymMatrix: obj.n becomes a
    checked index, and field `name` a finite array of shape obj._shape(n)."""
    n = _check_index(obj.n)
    arr = _real_array(getattr(obj, name),
                      f"{type(obj).__name__} needs a real array")
    shape = obj._shape(n)
    if arr.shape != shape:
        raise InvalidInputError(
            f"expected shape {shape} for n={n}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{type(obj).__name__} entries must be finite")
    object.__setattr__(obj, "n", n)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """General d x d symmetric matrix, held as one read-only dense array.

    The constructor takes a square array and mirrors its lower triangle
    onto the upper one, so only the lower triangle is read.
    """

    dense: np.ndarray

    def __post_init__(self):
        mat = _real_array(self.dense, "SymMatrix needs a real array")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise InvalidInputError("SymMatrix needs a nonempty square array")
        lower = np.tril(mat)
        dense = lower + np.tril(lower, -1).T
        if not np.all(np.isfinite(dense)):
            raise InvalidInputError("SymMatrix entries must be finite")
        dense.setflags(write=False)
        object.__setattr__(self, "dense", dense)

    @property
    def dim(self) -> int:
        return self.dense.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.dense.copy()

    def norm(self) -> float:
        """Frobenius norm, by math.hypot: inf only above the largest double."""
        return math.hypot(*self.dense.ravel())


@dataclass(frozen=True, eq=False)
class BlockSymMatrix:
    """Block-diagonal element of S^(4n-2): an ordered list of 2n-1 symmetric
    2x2 blocks, stored as an (2n-1, 3) array of (a, b, c) rows.

    Block order is fixed: the coupling block first, then the y-chain blocks
    in ascending index, then the z-chain blocks in ascending index.
    """

    n: int
    blocks: np.ndarray
    _shape = staticmethod(lambda n: (2 * n - 1, 3))

    def __post_init__(self):
        _init_array(self, "blocks")

    def to_full(self) -> SymMatrix:
        """Assemble the (4n-2) x (4n-2) block-diagonal matrix."""
        k = np.arange(2 * self.n - 1)
        # entry (2k + i, 2l + j) sits at [k, i, l, j]
        out = np.zeros((k.size, 2, k.size, 2))
        out[k, :, k, :] = self.blocks[:, (0, 1, 1, 2)].reshape(-1, 2, 2)
        return SymMatrix(out.reshape(2 * k.size, 2 * k.size))

    @classmethod
    def from_full(cls, n: int, mat: SymMatrix) -> "BlockSymMatrix":
        """Extract the 2x2 diagonal blocks of a (4n-2)-dimensional matrix."""
        n = _check_index(n)
        if not isinstance(mat, SymMatrix):
            raise InvalidInputError("from_full needs a SymMatrix")
        if mat.dim != 4 * n - 2:
            raise InvalidInputError(
                f"matrix dimension {mat.dim} does not match {4 * n - 2}")
        k = np.arange(2 * n - 1)
        blocks = mat.dense.reshape(k.size, 2, k.size, 2)[k, :, k, :]
        # (a, b, c) of each block, b read above the diagonal
        return cls(n, blocks.reshape(-1, 4)[:, (0, 1, 3)])

    def weighted(self) -> np.ndarray:
        """Flat weighted rows (a, sqrt(2) b, c), whose dot product is the trace
        inner product; a sqrt(2) b that overflows is inf, with no warning."""
        with np.errstate(over="ignore"):
            return (self.blocks * WEIGHTS).ravel()

    def lorentz(self, scale: float) -> np.ndarray:
        """The flat Lorentz coordinates (:func:`to_lorentz`) of self / scale,
        rotated after the division: a scale >= norm() cannot overflow."""
        return to_lorentz((self.weighted() / scale).reshape(-1, 3)).ravel()

    @classmethod
    def from_lorentz(cls, n: int, flat: np.ndarray, scale: float = 1.0):
        """scale times the block matrix whose lorentz(1.0) is flat."""
        t, v, w = flat.reshape(-1, 3).T
        rows = np.stack([(t + v) / RT2, w, (t - v) / RT2], axis=1) / WEIGHTS
        return cls(n, scale * rows)

    def norm(self) -> float:
        """Trace norm, by math.hypot: inf only above the largest double."""
        return math.hypot(*self.weighted())

    def inner(self, other: "BlockSymMatrix") -> float:
        """Trace inner product with another block matrix of the same shape."""
        return float(self.weighted() @ other.weighted())


def to_lorentz(rows: np.ndarray) -> np.ndarray:
    """Lorentz coordinates (t, v, w) = ((a + c)/sqrt(2), (a - c)/sqrt(2), s)
    of weighted block rows (a, s, c), s = sqrt(2) b, along axis 1.

    The map is orthogonal, and t^2 - v^2 - w^2 = 2 (a c - b^2), so a block
    is PSD exactly when t >= ||(v, w)||: each 2x2 PSD block is a 3-d
    second-order cone. Trailing axes ride along, so the same map turns an
    LMI matrix's (K, 3, d) block rows into its Lorentz-basis rows.
    """
    a, c = rows[:, 0], rows[:, 2]
    return np.stack([(a + c) / RT2, (a - c) / RT2, rows[:, 1]], axis=1)


def lorentz_clip(flat: np.ndarray) -> np.ndarray:
    """Blockwise PSD projection of a flat vector of Lorentz triples
    (t, v, w) (see :func:`to_lorentz`): the projection onto the 3-d
    second-order cone t >= r = ||(v, w)|| (Chen, Chen & Tseng, 2003).

    A block inside the cone (t >= r) comes back unchanged, one inside the
    polar (t <= -r) as exact zeros, and any other as the boundary point
    (h, s v, s w), h = (t + r) / 2, s = h / r; and NaN propagates: a block
    with a NaN entry and no infinite one comes back as NaNs. These hold
    for every block whose t + r does not overflow, and on such blocks both
    paths below return bitwise the same array.

    Up to _CLIP_LOOP_BLOCKS blocks the clip loops over Python floats, one
    branch per block: on the few blocks of the smaller models that costs
    fewer interpreter calls than the vectorised form's nine numpy calls,
    which cost the same at every block count and win above it.
    """
    if flat.size > 3 * _CLIP_LOOP_BLOCKS:
        return _lorentz_clip_vec(flat)
    # r by np.hypot, as in the vectorised form: math.hypot can differ in
    # the last bit, which would move the t = r boundary
    r_all = np.hypot(flat[1::3], flat[2::3]).tolist()
    it = iter(flat.tolist())
    out = []
    for t, v, w, r in zip(it, it, it, r_all):
        if t <= -r:
            # before t >= r, which t = -0.0, r = 0 meets too: the vectorised
            # form makes that t +0.0, and 0 * v keeps its signed zeros
            out += (0.0, 0.0 * v, 0.0 * w)
        elif t >= r:
            out += (t, v, w)
        else:
            h = 0.5 * (t + r)
            # r = 0 here only when t is NaN, and then h is NaN too
            s = h / r if r else h
            out += (h, s * v, s * w)
    return np.array(out)


def _lorentz_clip_vec(flat: np.ndarray) -> np.ndarray:
    """lorentz_clip's vectorised form, for any block count.

    With h = max(t + r, 0) / 2 the projection is (max(t, h), s (v, w)),
    s = min(h, r) / r. A block inside the cone (t >= r) gets s = 1 and t,
    and one inside the polar (t <= -r) gets h = s = 0, so both come back
    exactly (unchanged, and zero) without a masked write.
    """
    X = flat.reshape(-1, 3)
    t = X[:, 0]
    r = np.hypot(X[:, 1], X[:, 2])
    h = np.maximum(t + r, 0.0)
    h *= 0.5
    # the smallest subnormal only turns 0/0 into 0 when r = 0
    out = X * (np.minimum(h, r) / np.maximum(r, _TINY))[:, None]
    np.maximum(t, h, out=out[:, 0])
    return out.reshape(flat.shape)


def block_min_eigs(rows: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each 2x2 block of an (K, 3) array of (a, b, c)
    rows: tr/2 - sqrt(((a - c)/2)^2 + b^2)."""
    a, b, c = rows[:, 0], rows[:, 1], rows[:, 2]
    return 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)


def psd_clip_rows(rows: np.ndarray) -> np.ndarray:
    """Vectorized blockwise PSD projection on an (K, 3) array of (a, b, c)
    rows.

    With e1 >= e2 the eigenvalues and 2r = e1 - e2 their gap, the
    projection is s X + t I, with s = min(max(e1, 0), 2r) / 2r and
    t = max(tr/2, max(e1, 0)/2) - s tr/2. A PSD block gets s = 1, t = 0 and
    a negative semidefinite one s = t = 0, so both come back exactly
    (unchanged, and zero) without a masked write.
    """
    a = rows[:, 0]
    c = rows[:, 2]
    half_tr = 0.5 * (a + c)
    two_r = np.hypot(a - c, 2.0 * rows[:, 1])
    e1 = np.maximum(half_tr + 0.5 * two_r, 0.0)
    # the smallest subnormal only turns 0/0 into 0 when r = 0
    s = np.minimum(e1, two_r) / np.maximum(two_r, _TINY)
    t = np.maximum(half_tr, 0.5 * e1) - s * half_tr
    return rows * s[:, None] + t[:, None] * _DIAG


def psd_project_block(mat: BlockSymMatrix) -> BlockSymMatrix:
    """Blockwise PSD projection of a block-diagonal matrix.

    The PSD projection of a block-diagonal matrix decomposes over the
    diagonal blocks, so each 2x2 block is projected independently.
    """
    if not isinstance(mat, BlockSymMatrix):
        raise InvalidInputError("psd_project_block needs a BlockSymMatrix")
    return BlockSymMatrix(mat.n, psd_clip_rows(mat.blocks))


def jacobi_eig(mat):
    """Eigendecomposition of a full symmetric matrix by cyclic threshold
    Jacobi sweeps (Golub & Van Loan, Matrix Computations, section 8.5).

    Each sweep visits the pairs p < q in row order and rotates away every
    entry A[p, q] above the sweep's threshold off / (100 d^2), off the norm
    of the off-diagonal part when the sweep starts: the rotation is applied
    to rows and columns p, q of A and to columns p, q of V, and the rotated
    entry is set to exact 0. Sweeps stop once off <= 1e-13 ||A||; more than
    JACOBI_MAX_SWEEPS sweeps is a NumericFailureError. Every rotation of a
    matrix of 2x2 diagonal blocks stays inside one block, so each
    eigenvector is supported on one block. Jacobi stays independent of the
    closed-form 2x2 clips (:func:`psd_clip_rows`, :func:`lorentz_clip`), so
    they can cross-check each other.

    Parameters
    ----------
    mat : SymMatrix or array_like
        Symmetric matrix, dimension at most 200.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues sorted descending (ties broken by original index order)
        and the matching orthonormal eigenvector columns.
    """
    A = (mat.dense if isinstance(mat, SymMatrix)
         else _real_array(mat, "jacobi_eig needs a real array"))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError("jacobi_eig requires a square matrix")
    d = A.shape[0]
    if d > JACOBI_MAX_DIM:
        raise InvalidInputError(f"jacobi_eig supports dimension <= {JACOBI_MAX_DIM}")
    if not np.isfinite(A).all():
        raise InvalidInputError("jacobi_eig requires finite entries")
    A = 0.5 * (A + A.T)
    V = np.eye(d)
    amax = float(np.abs(A).max(initial=0.0))
    if amax == 0.0 or d == 1:
        return np.diag(A).copy(), V
    # sweep at unit scale, reached by an exact power of two, so the norms
    # below neither underflow nor overflow
    unit = math.ldexp(1.0, math.frexp(amax)[1])
    A /= unit
    target = 1e-13 * np.linalg.norm(A)
    for _ in range(JACOBI_MAX_SWEEPS):
        # the off-diagonal part, summed directly so its norm can reach
        # machine floor instead of the rounding floor of ||A||^2 - ||diag||^2
        off_part = A.copy()
        off_part.flat[::d + 1] = 0.0
        off = math.sqrt(np.vdot(off_part, off_part))
        if off <= target:
            break
        # skip rotations on entries carrying a negligible share of the
        # current off-diagonal mass
        thresh = off / (100.0 * d * d)
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                if abs(apq) <= thresh:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = ((1.0 if tau >= 0.0 else -1.0)
                     / (abs(tau) + math.sqrt(1.0 + tau * tau)))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                R = np.array([[c, s], [-s, c]])
                A[:, [p, q]] = A[:, [p, q]] @ R
                A[[p, q]] = R.T @ A[[p, q]]
                A[p, q] = A[q, p] = 0.0
                V[:, [p, q]] = V[:, [p, q]] @ R
    else:
        raise NumericFailureError(
            f"Jacobi sweeps did not converge within {JACOBI_MAX_SWEEPS} sweeps"
        )
    w = np.diag(A) * unit
    order = np.argsort(-w, kind="stable")
    return w[order], V[:, order]


def _read_text(text: str, cls):
    """Parse the text format of ConePoint and BlockSymMatrix into a cls:
    the cone index n alone on the first line, then the entries of the
    cls._shape(n) array, separated by whitespace."""
    first, *rest = text.strip().splitlines() or [""]
    try:
        n = int(first)
    except ValueError as exc:
        raise InvalidInputError("first line must hold the cone index n") from exc
    shape = cls._shape(_check_index(n))
    tokens = " ".join(rest).split()
    try:
        vals = np.array([float(tok) for tok in tokens]).reshape(shape)
    except ValueError as exc:
        raise InvalidInputError(
            f"expected {math.prod(shape)} reals after the first line: {exc}") from exc
    return cls(n, vals)


def read_block_matrix(text: str) -> BlockSymMatrix:
    """Parse the BlockSymMatrix text format: first line n, then 3(2n-1) reals."""
    return _read_text(text, BlockSymMatrix)


def write_block_matrix(mat: BlockSymMatrix) -> str:
    rows = (" ".join(format(v, ".17g") for v in row) for row in mat.blocks)
    return "\n".join([str(mat.n), *rows]) + "\n"
