"""Minimal dense symmetric-matrix kernel.

Provides the closed forms for block-diagonal matrices built from 2x2
blocks (the blockwise PSD projection, psd_clip_flat, and the blocks'
smallest eigenvalues, block_min_eigs) and a cyclic threshold Jacobi
eigensolver for full symmetric matrices. Every Jacobi rotation of a matrix
of 2x2 diagonal blocks stays inside one block, so each eigenvector is
supported on one block. The Jacobi solver is deliberately independent of
the closed-form 2x2 clip (psd_clip_flat) so the two can cross-check each
other.

All operations are pure functions of their inputs and safe for unrestricted
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, NumericFailureError

RT2 = math.sqrt(2.0)
_TINY = 5e-324
_DIAG = np.array([1.0, 0.0, 1.0])

# Desk-scale guard for the dense eigensolver.
JACOBI_MAX_DIM = 200
JACOBI_MAX_SWEEPS = 50


@dataclass(frozen=True)
class SymMatrix:
    """General d x d symmetric matrix in packed lower-triangular storage.

    ``packed`` holds the d(d+1)/2 lower-triangle entries row-major.
    """

    dim: int
    packed: np.ndarray

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidInputError("SymMatrix dimension must be positive")
        packed = np.asarray(self.packed, dtype=float)
        if packed.shape != (self.dim * (self.dim + 1) // 2,):
            raise InvalidInputError(
                f"packed storage must hold {self.dim * (self.dim + 1) // 2} entries"
            )
        if not np.all(np.isfinite(packed)):
            raise InvalidInputError("SymMatrix entries must be finite")
        object.__setattr__(self, "packed", packed)

    @classmethod
    def from_dense(cls, mat) -> "SymMatrix":
        mat = np.asarray(mat, dtype=float)
        d = mat.shape[0]
        idx = np.tril_indices(d)
        return cls(d, mat[idx])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        out[np.tril_indices(self.dim)] = self.packed
        out = out + np.tril(out, -1).T
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.to_dense()))


@lru_cache(maxsize=None)
def block_diag_index(n: int):
    """Where the 2x2 diagonal blocks of a (4n-2)-matrix sit in its row-major
    flattening, as read-only (gather, scatter) index arrays.

    ``dense.ravel()[gather]`` lists the blocks' (a, b, c) entries, block by
    block, with b read above the diagonal. ``full.ravel()[scatter] =
    rows[:, (0, 1, 1, 2)].ravel()`` writes (a, b, c) rows back, b on both
    sides of the diagonal.
    """
    d = 4 * n - 2
    corner = 2 * (d + 1) * np.arange(2 * n - 1)   # position of entry (2k, 2k)
    gather = (corner[:, None] + np.array([0, 1, d + 1])).ravel()
    scatter = (corner[:, None] + np.array([0, 1, d, d + 1])).ravel()
    gather.setflags(write=False)
    scatter.setflags(write=False)
    return gather, scatter


@dataclass(frozen=True)
class BlockSymMatrix:
    """Block-diagonal element of S^(4n-2): an ordered list of 2n-1 symmetric
    2x2 blocks, stored as an (2n-1, 3) array of (a, b, c) rows.

    Block order is fixed: the coupling block first, then the y-chain blocks
    in ascending index, then the z-chain blocks in ascending index.
    """

    n: int
    blocks: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInputError("cone index n must be >= 2")
        blocks = np.asarray(self.blocks, dtype=float)
        if blocks.shape != (2 * self.n - 1, 3):
            raise InvalidInputError(
                f"expected {2 * self.n - 1} blocks of 3 entries, got shape {blocks.shape}"
            )
        if not np.all(np.isfinite(blocks)):
            raise InvalidInputError("BlockSymMatrix entries must be finite")
        object.__setattr__(self, "blocks", blocks)

    def to_full(self) -> SymMatrix:
        """Assemble the (4n-2) x (4n-2) block-diagonal matrix."""
        d = 4 * self.n - 2
        out = np.zeros(d * d)
        out[block_diag_index(self.n)[1]] = self.blocks[:, (0, 1, 1, 2)].ravel()
        return SymMatrix.from_dense(out.reshape(d, d))

    @classmethod
    def from_full(cls, n: int, mat: SymMatrix) -> "BlockSymMatrix":
        """Extract the 2x2 diagonal blocks of a (4n-2)-dimensional matrix."""
        dense = mat.to_dense()
        if dense.shape[0] != 4 * n - 2:
            raise InvalidInputError("matrix dimension does not match 4n-2")
        return cls(n, dense.ravel()[block_diag_index(n)[0]].reshape(-1, 3))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.blocks[:, 0] ** 2
                                    + 2.0 * self.blocks[:, 1] ** 2
                                    + self.blocks[:, 2] ** 2)))

    def inner(self, other: "BlockSymMatrix") -> float:
        """Trace inner product with another block matrix of the same shape."""
        s, o = self.blocks, other.blocks
        return float(np.sum(s[:, 0] * o[:, 0] + 2.0 * s[:, 1] * o[:, 1]
                            + s[:, 2] * o[:, 2]))


def psd_clip_flat(flat: np.ndarray, off_scale: float = RT2) -> np.ndarray:
    """Blockwise PSD projection of a flat vector of (a, k b, c) triples.

    This is the one copy of the closed-form 2x2 PSD projection.
    ``off_scale`` is 2 / k for the weight k carried by the off-diagonal
    entries: sqrt(2) (the default) for the weighted coordinates of the
    solvers, whose Euclidean inner product is the trace inner product, and
    2 for plain (a, b, c) rows.

    With e1 >= e2 the eigenvalues and 2r = e1 - e2 their gap, the
    projection is s X + t I, with s = min(max(e1, 0), 2r) / 2r and
    t = max(tr/2, max(e1, 0)/2) - s tr/2. A PSD block gets s = 1, t = 0 and
    a negative semidefinite one s = t = 0, so both come back exactly
    (unchanged, and zero) without a masked write.
    """
    X = flat.reshape(-1, 3)
    a = X[:, 0]
    c = X[:, 2]
    half_tr = 0.5 * (a + c)
    two_r = np.hypot(a - c, off_scale * X[:, 1])
    e1 = np.maximum(half_tr + 0.5 * two_r, 0.0)
    # the smallest subnormal only turns 0/0 into 0 when r = 0
    s = np.minimum(e1, two_r) / np.maximum(two_r, _TINY)
    t = np.maximum(half_tr, 0.5 * e1) - s * half_tr
    return (X * s[:, None] + t[:, None] * _DIAG).reshape(flat.shape)


def block_min_eigs(rows: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each 2x2 block of an (K, 3) array of (a, b, c)
    rows: tr/2 - sqrt(((a - c)/2)^2 + b^2)."""
    a, b, c = rows[:, 0], rows[:, 1], rows[:, 2]
    return 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)


def psd_clip_rows(rows: np.ndarray) -> np.ndarray:
    """Vectorized blockwise PSD projection on an (K, 3) array of (a, b, c) rows.

    Row view of :func:`psd_clip_flat`.
    """
    return psd_clip_flat(rows, 2.0)


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
    closed-form 2x2 clip (:func:`psd_clip_flat`), so the two can
    cross-check each other.

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
    A = mat.to_dense() if isinstance(mat, SymMatrix) else np.array(mat, dtype=float)
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


def read_block_matrix(text: str) -> BlockSymMatrix:
    """Parse the BlockSymMatrix text format: first line n, then 3(2n-1) reals."""
    lines = text.strip().splitlines()
    if not lines:
        raise InvalidInputError("empty BlockSymMatrix input")
    try:
        n = int(lines[0].split()[0])
    except (ValueError, IndexError) as exc:
        raise InvalidInputError("first line must hold the cone index n") from exc
    tokens = " ".join(lines[1:]).split()
    expected = 3 * (2 * n - 1)
    if len(tokens) != expected:
        raise InvalidInputError(f"expected {expected} entries, got {len(tokens)}")
    try:
        vals = np.array([float(tok) for tok in tokens]).reshape(-1, 3)
    except ValueError as exc:
        raise InvalidInputError("non-numeric entry in BlockSymMatrix input") from exc
    return BlockSymMatrix(n, vals)


def write_block_matrix(mat: BlockSymMatrix) -> str:
    lines = [str(mat.n)]
    for a, b, c in mat.blocks:
        lines.append(" ".join(format(v, ".17g") for v in (a, b, c)))
    return "\n".join(lines) + "\n"
