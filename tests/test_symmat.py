"""Kernel checks: 2x2 spectral math, blockwise PSD projection, Jacobi oracle."""

import math

import numpy as np
import pytest

from sliceproj import (BlockSymMatrix, InvalidInputError, Sym2, SymMatrix,
                       eig2, jacobi_eig, psd_project_2, psd_project_block,
                       read_block_matrix, read_symmatrix, write_block_matrix,
                       write_symmatrix)
from sliceproj.symmat import (RT2, _jacobi_rounds, block_diag_index, psd_clip_flat,
                              psd_clip_rows)


def random_sym2(rng, scale=2.0):
    a, b, c = rng.standard_normal(3) * scale
    return Sym2(a, b, c)


def test_eig2_diagonal():
    spec = eig2(Sym2(2.0, 0.0, 1.0))
    assert spec.eig1 == 2.0
    assert spec.eig2 == 1.0
    assert spec.angle == 0.0


def test_eig2_offdiagonal_symmetric():
    spec = eig2(Sym2(0.0, 1.0, 0.0))
    assert spec.eig1 == pytest.approx(1.0, abs=1e-15)
    assert spec.eig2 == pytest.approx(-1.0, abs=1e-15)


def test_eig2_isotropic_any_angle():
    for a in (3.0, -1.5, 0.0):
        spec = eig2(Sym2(a, 0.0, a))
        assert spec.eig1 == spec.eig2 == a
        rec = spec.reconstruct()
        assert rec.a == pytest.approx(a) and rec.c == pytest.approx(a)
        assert rec.b == pytest.approx(0.0, abs=1e-15)


def test_eig2_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        eig2(Sym2(math.nan, 0.0, 1.0))
    with pytest.raises(InvalidInputError):
        eig2(Sym2(1.0, math.inf, 1.0))


def test_eig2_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = random_sym2(rng, scale=10.0 ** rng.integers(-3, 4))
        spec = eig2(m)
        assert spec.eig1 >= spec.eig2
        assert -0.5 * math.pi < spec.angle <= 0.5 * math.pi
        rec = spec.reconstruct()
        err = math.hypot(rec.a - m.a, math.hypot(rec.b - m.b, rec.c - m.c))
        assert err <= 1e-12 * max(m.norm(), 1e-30)


def test_eig2_near_repeated_eigenvalues():
    # cancellation-prone regime: tiny split on top of a large trace
    spec = eig2(Sym2(1.0, 1e-9, 1.0 + 1e-9))
    rec = spec.reconstruct()
    assert rec.a == pytest.approx(1.0, abs=1e-14)
    assert rec.b == pytest.approx(1e-9, rel=1e-6)


def test_psd_project_2_diagonal_clipping():
    out = psd_project_2(Sym2(2.0, 0.0, -1.0))
    assert (out.a, out.b, out.c) == (2.0, 0.0, 0.0)


def test_psd_project_2_keeps_positive_eigenspace():
    out = psd_project_2(Sym2(0.0, 1.0, 0.0))
    assert out.a == pytest.approx(0.5, abs=1e-15)
    assert out.b == pytest.approx(0.5, abs=1e-15)
    assert out.c == pytest.approx(0.5, abs=1e-15)


def test_psd_project_2_fixes_psd_input():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = random_sym2(rng)
        proj = psd_project_2(m)
        spec = eig2(proj)
        assert spec.eig2 >= -1e-14 * max(m.norm(), 1e-30)
        again = psd_project_2(proj)
        assert math.isclose(again.a, proj.a, abs_tol=1e-12)
        assert math.isclose(again.b, proj.b, abs_tol=1e-12)
        assert math.isclose(again.c, proj.c, abs_tol=1e-12)


def test_psd_project_2_nonexpansive():
    rng = np.random.default_rng(13)
    for _ in range(200):
        m1, m2 = random_sym2(rng), random_sym2(rng)
        p1, p2 = psd_project_2(m1), psd_project_2(m2)
        d_proj = Sym2(p1.a - p2.a, p1.b - p2.b, p1.c - p2.c).norm()
        d_in = Sym2(m1.a - m2.a, m1.b - m2.b, m1.c - m2.c).norm()
        assert d_proj <= d_in + 1e-12


def test_psd_project_block_trivial_cases():
    n = 3
    psd_rows = np.array([[2.0, 0.5, 1.0]] * (2 * n - 1))  # det 1.75 > 0
    mat = BlockSymMatrix(n, psd_rows)
    out = psd_project_block(mat)
    assert np.array_equal(out.blocks, psd_rows)

    neg = BlockSymMatrix(n, np.array([[-1.0, 0.0, -1.0]] * (2 * n - 1)))
    out = psd_project_block(neg)
    assert np.array_equal(out.blocks, np.zeros((2 * n - 1, 3)))


def test_psd_project_block_matches_scalar_projection():
    rng = np.random.default_rng(17)
    for n in (2, 4):
        mat = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)) * 3.0)
        out = psd_project_block(mat)
        for k in range(2 * n - 1):
            scalar = psd_project_2(mat.block(k))
            assert np.allclose(out.blocks[k],
                               [scalar.a, scalar.b, scalar.c], atol=1e-14)


def test_psd_project_block_agrees_with_full_eigendecomposition():
    # oracle: assemble the block-diagonal matrix, full Jacobi
    # eigendecomposition, clip, compare
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        mat = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)) * 2.0)
        blockwise = psd_project_block(mat).to_full().to_dense()
        w, V = jacobi_eig(mat.to_full())
        full = (V * np.maximum(w, 0.0)) @ V.T
        assert np.linalg.norm(blockwise - full) <= 1e-10


def _reference_clip_rows(rows):
    """The closed form with masked writes for the PSD and negative
    semidefinite cases, as the kernel was first written."""
    a, b, c = rows[:, 0], rows[:, 1], rows[:, 2]
    half_tr = 0.5 * (a + c)
    half_diff = 0.5 * (a - c)
    r = np.hypot(half_diff, b)
    e1 = half_tr + r
    e2 = half_tr - r
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(r > 0.0, e1 / (2.0 * r), 0.0)
    out = np.empty_like(rows)
    out[:, 0] = scale * (r + half_diff)
    out[:, 1] = scale * b
    out[:, 2] = scale * (r - half_diff)
    keep = e2 >= 0.0
    out[keep] = rows[keep]
    out[e1 <= 0.0] = 0.0
    return out


def test_psd_clip_matches_references_across_scales():
    rng = np.random.default_rng(41)
    boundary = np.array([
        [0.0, 0.0, 0.0],      # zero block
        [1.0, 2.0, 4.0],      # e2 = 0: singular PSD
        [-1.0, 2.0, -4.0],    # e1 = 0: singular negative semidefinite
        [-2.0, 0.5, -1.0],    # negative definite
        [3.0, 0.0, -1.0],
        [0.0, 1.0, 0.0],
        [2.0, 0.0, 2.0],
        [-2.0, 0.0, -2.0],
    ])
    base = np.vstack([rng.standard_normal((60, 3)), boundary])
    for exponent in (-200, -120, -30, 0, 30, 120, 150):
        rows = base * 10.0 ** exponent
        out = psd_clip_rows(rows)
        size = np.abs(rows).max(axis=1, keepdims=True)
        assert np.all(np.abs(out - _reference_clip_rows(rows)) <= 1e-15 * size)
        for row, got, sz in zip(rows, out, size[:, 0]):
            a, b, c = row
            w, V = jacobi_eig(np.array([[a, b], [b, c]]))
            full = (V * np.maximum(w, 0.0)) @ V.T
            want = (full[0, 0], full[0, 1], full[1, 1])
            assert np.all(np.abs(got - want) <= 1e-13 * sz), (exponent, row)
        # the weighted-coordinate form is the same projection
        flat = rows.copy()
        flat[:, 1] *= RT2
        weighted = psd_clip_flat(flat.ravel()).reshape(-1, 3)
        weighted[:, 1] /= RT2
        assert np.all(np.abs(weighted - out) <= 1e-15 * size)


def test_jacobi_identity():
    w, V = jacobi_eig(SymMatrix.from_dense(np.eye(5)))
    assert np.allclose(w, np.ones(5))
    assert np.allclose(V @ V.T, np.eye(5), atol=1e-12)


def test_jacobi_diagonal_with_permutation_basis():
    w, V = jacobi_eig(SymMatrix.from_dense(np.diag([3.0, 1.0, -2.0])))
    assert np.allclose(w, [3.0, 1.0, -2.0])
    assert np.allclose(np.abs(V), np.eye(3), atol=1e-12)


def test_jacobi_random_reconstruction():
    rng = np.random.default_rng(23)
    for _ in range(25):
        raw = rng.standard_normal((8, 8))
        dense = raw + raw.T
        w, V = jacobi_eig(SymMatrix.from_dense(dense))
        norm = np.linalg.norm(dense)
        assert np.linalg.norm((V * w) @ V.T - dense) <= 1e-11 * norm
        assert np.linalg.norm(V @ V.T - np.eye(8)) <= 1e-12
        rotated = V.T @ dense @ V
        off = np.linalg.norm(rotated - np.diag(np.diag(rotated)))
        assert off <= 1e-12 * norm
        assert np.all(np.diff(w) <= 1e-12 * norm)


def test_jacobi_schedule_covers_each_pair_once():
    for d in range(2, 31):
        rounds, round_of = _jacobi_rounds(d)
        assert len(rounds) == (d - 1 if d % 2 == 0 else d)
        pairs = []
        for r, (p, q) in enumerate(rounds):
            # a round's pairs are disjoint, so its rotations commute
            assert len(set(p) | set(q)) == 2 * len(p), (d, r)
            assert np.all(p < q)
            assert np.all(round_of[p, q] == r) and np.all(round_of[q, p] == r)
            pairs += zip(p.tolist(), q.tolist())
        assert sorted(pairs) == [(p, q) for p in range(d) for q in range(p + 1, d)]
        assert list(zip(*rounds[0])) == [(2 * k, 2 * k + 1) for k in range(d // 2)]


def test_jacobi_odd_and_even_dimensions():
    rng = np.random.default_rng(43)
    for d in (1, 2, 3, 5, 6, 10, 25, 60):
        raw = rng.standard_normal((d, d))
        dense = raw + raw.T
        w, V = jacobi_eig(dense)
        norm = np.linalg.norm(dense)
        assert np.linalg.norm((V * w) @ V.T - dense) <= 1e-12 * norm, d
        assert np.linalg.norm(V.T @ V - np.eye(d)) <= 1e-12, d
        assert np.all(np.diff(w) <= 0.0), d
        ref = np.linalg.eigvalsh(dense)[::-1]
        assert np.all(np.abs(w - ref) <= 1e-12 * norm), d


def test_jacobi_block_diagonal_input_keeps_its_blocks():
    rng = np.random.default_rng(47)
    for n in range(2, 13):
        mat = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
        w, V = jacobi_eig(mat.to_full())
        want = np.sort(np.concatenate([
            np.linalg.eigvalsh(np.array([[a, b], [b, c]])) for a, b, c in mat.blocks
        ]))[::-1]
        assert np.all(np.abs(w - want) <= 1e-14 * np.abs(want).max()), n
        # the first round rotates within the blocks only: each eigenvector
        # is supported on one block
        in_block = (V.reshape(2 * n - 1, 2, -1) != 0.0).any(axis=1)
        assert np.all(in_block.sum(axis=0) == 1), n


def test_jacobi_guards():
    with pytest.raises(InvalidInputError):
        jacobi_eig(SymMatrix(201, np.zeros(201 * 202 // 2)))
    with pytest.raises(InvalidInputError):
        jacobi_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        jacobi_eig(np.zeros((2, 3)))


def test_symmatrix_storage_round_trip():
    rng = np.random.default_rng(29)
    raw = rng.standard_normal((6, 6))
    dense = raw + raw.T
    mat = SymMatrix.from_dense(dense)
    assert mat.packed.shape == (21,)
    assert np.allclose(mat.to_dense(), dense)
    with pytest.raises(InvalidInputError):
        SymMatrix(4, np.zeros(9))
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            SymMatrix(2, np.array([1.0, bad, 1.0]))


def test_block_matrix_shape_guard():
    with pytest.raises(InvalidInputError):
        BlockSymMatrix(2, np.zeros((4, 3)))
    with pytest.raises(InvalidInputError):
        BlockSymMatrix(1, np.zeros((1, 3)))
    for bad in (math.nan, -math.inf):
        blocks = np.zeros((3, 3))
        blocks[1, 2] = bad
        with pytest.raises(InvalidInputError):
            BlockSymMatrix(2, blocks)


def test_block_full_extraction_round_trip():
    rng = np.random.default_rng(31)
    mat = BlockSymMatrix(3, rng.standard_normal((5, 3)))
    back = BlockSymMatrix.from_full(3, mat.to_full())
    assert np.allclose(back.blocks, mat.blocks)
    assert mat.norm() == pytest.approx(mat.to_full().norm(), rel=1e-14)


def test_block_full_index_map_matches_loops():
    # the seed's Python loops are the reference for the gather/scatter map
    rng = np.random.default_rng(53)
    for n in (2, 3, 7):
        d = 4 * n - 2
        mat = BlockSymMatrix(n, rng.standard_normal((2 * n - 1, 3)))
        want = np.zeros((d, d))
        for k, (a, b, c) in enumerate(mat.blocks):
            want[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, b], [b, c]]
        assert np.array_equal(mat.to_full().to_dense(), want)
        raw = rng.standard_normal((d, d))
        full = raw + raw.T
        rows = np.array([(full[2 * k, 2 * k], full[2 * k, 2 * k + 1],
                          full[2 * k + 1, 2 * k + 1]) for k in range(2 * n - 1)])
        got = BlockSymMatrix.from_full(n, SymMatrix.from_dense(full)).blocks
        assert np.array_equal(got, rows)
        gather, scatter = block_diag_index(n)
        assert not gather.flags.writeable and not scatter.flags.writeable
    with pytest.raises(InvalidInputError):
        BlockSymMatrix.from_full(3, SymMatrix.from_dense(np.eye(6)))


def test_text_formats_round_trip():
    rng = np.random.default_rng(37)
    sym = SymMatrix.from_dense((lambda r: r + r.T)(rng.standard_normal((4, 4))))
    again = read_symmatrix(write_symmatrix(sym))
    assert again.dim == sym.dim
    assert np.array_equal(again.packed, sym.packed)

    blk = BlockSymMatrix(3, rng.standard_normal((5, 3)))
    again = read_block_matrix(write_block_matrix(blk))
    assert again.n == blk.n
    assert np.array_equal(again.blocks, blk.blocks)


def test_text_format_errors():
    with pytest.raises(InvalidInputError):
        read_symmatrix("")
    with pytest.raises(InvalidInputError):
        read_symmatrix("2\n1.0 2.0")  # needs 3 entries
    with pytest.raises(InvalidInputError):
        read_block_matrix("2\n1 2 3")  # needs 9 entries
    with pytest.raises(InvalidInputError):
        read_block_matrix("2\n" + " ".join(["x"] * 9))
