"""Minimal dense symmetric-matrix kernel.

Provides the closed forms for block-diagonal matrices built from 2x2
blocks and a cyclic threshold Jacobi eigensolver for full symmetric
matrices. A 2x2 block in weighted coordinates (a, sqrt(2) b, c) is, after
the orthogonal change of basis to_lorentz, a point (t, v, w) of R^3 that is
PSD exactly when t >= ||(v, w)||: the PSD cone of 2x2 matrices is the 3-d
second-order (Lorentz) cone. The solvers hold their blocks in that basis
and clip them with lorentz_clip, the cone's closed-form projection.
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


def _is_int(value) -> bool:
    """A Python or numpy integer; a bool is an int too, but True would
    silently mean 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_index(n, name: str = "n") -> int:
    """n as an int, after checking that it is an integer (not a bool) in
    [N_MIN, N_MAX]: the one rule for a cone index, wherever it enters."""
    if not _is_int(n) or not N_MIN <= n <= N_MAX:
        raise InvalidInputError(
            f"{name} must be an integer in [{N_MIN}, {N_MAX}], got {n!r}")
    return int(n)


def _init_array(obj, name: str) -> None:
    """The __post_init__ of ConePoint and BlockSymMatrix: obj.n becomes a
    checked index, and field `name` a finite array of shape obj._shape(n)."""
    n = _check_index(obj.n)
    arr = np.asarray(getattr(obj, name), dtype=float)
    shape = obj._shape(n)
    if arr.shape != shape:
        raise InvalidInputError(
            f"expected shape {shape} for n={n}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
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
        mat = np.asarray(self.dense, dtype=float)
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
        return float(np.linalg.norm(self.dense))


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
        if mat.dim != 4 * n - 2:
            raise InvalidInputError(
                f"matrix dimension {mat.dim} does not match {4 * n - 2}")
        k = np.arange(2 * n - 1)
        blocks = mat.dense.reshape(k.size, 2, k.size, 2)[k, :, k, :]
        # (a, b, c) of each block, b read above the diagonal
        return cls(n, blocks.reshape(-1, 4)[:, (0, 1, 3)])

    def norm(self) -> float:
        return math.sqrt(self.inner(self))

    def inner(self, other: "BlockSymMatrix") -> float:
        """Trace inner product with another block matrix of the same shape."""
        s, o = self.blocks, other.blocks
        return float(np.sum(s[:, 0] * o[:, 0] + 2.0 * s[:, 1] * o[:, 1]
                            + s[:, 2] * o[:, 2]))


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


def from_lorentz(rows: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_lorentz`: the weighted rows (a, s, c)."""
    t, v = rows[:, 0], rows[:, 1]
    return np.stack([(t + v) / RT2, rows[:, 2], (t - v) / RT2], axis=1)


def lorentz_clip(flat: np.ndarray) -> np.ndarray:
    """Blockwise PSD projection of a flat vector of Lorentz triples
    (t, v, w) (see :func:`to_lorentz`): the projection onto the 3-d
    second-order cone t >= r = ||(v, w)|| (Chen, Chen & Tseng, 2003).

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
    A = mat.dense if isinstance(mat, SymMatrix) else np.asarray(mat, dtype=float)
    d = A.shape[0]
    if A.shape != (d, d):
        raise InvalidInputError("jacobi_eig requires a square matrix")
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
