"""Kernel checks: 2x2 closed forms, blockwise PSD projection, Jacobi oracle."""

import math

import numpy as np
import pytest

from sliceproj import (BlockSymMatrix, ConePoint, InvalidInputError,
                       NumericFailureError, SymMatrix, jacobi_eig,
                       psd_project_block, read_block_matrix,
                       write_block_matrix)
from sliceproj import symmat
from sliceproj.symmat import block_min_eigs, lorentz_clip, psd_clip_rows


def _frobenius(rows):
    return np.sqrt(rows[:, 0] ** 2 + 2.0 * rows[:, 1] ** 2 + rows[:, 2] ** 2)


def _reconstruct(rows):
    # Moreau decomposition: X = P(X) - P(-X) for the PSD projection P, so the
    # two clipped spectral halves of each block must add back up to it
    return psd_clip_rows(rows) - psd_clip_rows(-rows)


def test_eig2_diagonal():
    rows = np.array([[2.0, 0.0, 1.0]])
    assert block_min_eigs(rows)[0] == 1.0
    assert np.array_equal(_reconstruct(rows), rows)


def test_eig2_offdiagonal_symmetric():
    assert block_min_eigs(np.array([[0.0, 1.0, 0.0]]))[0] == pytest.approx(
        -1.0, abs=1e-15)


def test_eig2_isotropic_any_angle():
    for a in (3.0, -1.5, 0.0):
        rows = np.array([[a, 0.0, a]])
        assert block_min_eigs(rows)[0] == a
        rec = _reconstruct(rows)[0]
        assert rec[0] == pytest.approx(a) and rec[2] == pytest.approx(a)
        assert rec[1] == pytest.approx(0.0, abs=1e-15)


def test_eig2_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        rows = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-3, 4)
        want = [np.linalg.eigvalsh([[a, b], [b, c]])[0] for a, b, c in rows]
        lo = block_min_eigs(rows)
        assert np.allclose(lo, want, rtol=0.0,
                           atol=1e-14 * np.abs(rows).max())
        assert np.all(lo <= rows[:, 0] + rows[:, 2] - lo)
        err = _frobenius(_reconstruct(rows) - rows)
        assert np.all(err <= 1e-12 * np.maximum(_frobenius(rows), 1e-30))


def test_eig2_near_repeated_eigenvalues():
    # cancellation-prone regime: tiny split on top of a large trace; the value
    # is a 40-digit mpmath evaluation of tr/2 - sqrt(((a - c)/2)^2 + b^2)
    rows = np.array([[1.0, 1e-9, 1.0 + 1e-9]])
    assert block_min_eigs(rows)[0] == pytest.approx(0.999999999381966,
                                                    abs=2e-16)
    rec = _reconstruct(rows)[0]
    assert rec[0] == pytest.approx(1.0, abs=1e-14)
    assert rec[1] == pytest.approx(1e-9, rel=1e-6)


def test_psd_project_2_diagonal_clipping():
    # the vectorised clip leaves c = 1.1e-16
    out = psd_clip_rows(np.array([[2.0, 0.0, -1.0]]))[0]
    assert out[0] == 2.0 and out[1] == 0.0
    assert out[2] == pytest.approx(0.0, abs=1e-15)


def test_psd_project_2_keeps_positive_eigenspace():
    out = psd_clip_rows(np.array([[0.0, 1.0, 0.0]]))[0]
    assert np.allclose(out, [0.5, 0.5, 0.5], rtol=0.0, atol=1e-15)


def test_psd_clip_rows_psd_and_idempotent():
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((100, 3)) * 2.0
    proj = psd_clip_rows(rows)
    assert np.all(block_min_eigs(proj) >= -1e-14 * _frobenius(rows))
    assert np.allclose(psd_clip_rows(proj), proj, rtol=0.0, atol=1e-12)


def test_psd_clip_rows_nonexpansive():
    rng = np.random.default_rng(13)
    m1, m2 = rng.standard_normal((2, 200, 3)) * 2.0
    d_proj = _frobenius(psd_clip_rows(m1) - psd_clip_rows(m2))
    assert np.all(d_proj <= _frobenius(m1 - m2) + 1e-12)


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
        for got, (a, b, c) in zip(out.blocks, mat.blocks):
            w, V = np.linalg.eigh([[a, b], [b, c]])
            want = (V * np.maximum(w, 0.0)) @ V.T
            assert np.allclose(got, [want[0, 0], want[0, 1], want[1, 1]],
                               atol=1e-14)


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
        # the Lorentz form, rotated back, is the same projection; the 68
        # rows are block matrices of 23, 23, 13 and 9 blocks
        for part in np.split(np.arange(len(rows)), [23, 46, 59]):
            n = (part.size + 1) // 2
            flat = BlockSymMatrix(n, rows[part]).lorentz(1.0)
            back = BlockSymMatrix.from_lorentz(n, lorentz_clip(flat))
            assert np.all(np.abs(back.blocks - out[part]) <= 1e-15 * size[part])


def test_lorentz_coordinates_are_an_isometry_onto_the_second_order_cone():
    # nine block matrices of 23 blocks (n = 12)
    rows = np.random.default_rng(43).standard_normal((9 * 23, 3))
    for part in np.split(rows, 9):
        mat = BlockSymMatrix(12, part)
        weighted = mat.weighted().reshape(-1, 3)
        lor = mat.lorentz(1.0).reshape(-1, 3)
        assert np.allclose(np.linalg.norm(lor, axis=1),
                           np.linalg.norm(weighted, axis=1), rtol=1e-15,
                           atol=0.0)
        back = BlockSymMatrix.from_lorentz(12, lor.ravel())
        assert np.allclose(back.blocks, part, rtol=0.0, atol=1e-15)
        # t^2 - v^2 - w^2 = 2 det, and t >= 0 with it is a + c >= 0
        t, v, w = lor.T
        det = part[:, 0] * part[:, 2] - part[:, 1] ** 2
        assert np.allclose(t * t - v * v - w * w, 2.0 * det, atol=1e-14)
        inside = t >= np.hypot(v, w)
        assert np.array_equal(inside, block_min_eigs(part) >= 0.0)
        # dividing by a scale comes before the rotation
        assert np.array_equal(BlockSymMatrix(12, 2.0 ** 600 * part)
                              .lorentz(2.0 ** 600), mat.lorentz(1.0))


def test_block_norm_has_no_underflow_or_overflow():
    # sqrt of the inner product used to overflow to inf (with a warning)
    # at 1e200 and underflow to 0 at 1e-200
    unit = BlockSymMatrix(2, np.ones((3, 3))).norm()
    assert unit == pytest.approx(math.sqrt(12.0), rel=1e-15)
    for a in (1e200, 1e-200):
        norm = BlockSymMatrix(2, np.full((3, 3), a)).norm()
        assert norm == pytest.approx(a * unit, rel=1e-15)
    mat = BlockSymMatrix(3, np.random.default_rng(59).standard_normal((5, 3)))
    for k in (-600, 600):
        scaled = BlockSymMatrix(3, 2.0 ** k * mat.blocks)
        assert scaled.norm() == 2.0 ** k * mat.norm()
        assert scaled.inner(mat) == pytest.approx(2.0 ** k * mat.norm() ** 2,
                                                  rel=1e-14)
    # a sqrt(2) b above the largest double: a norm of inf, with no warning
    huge = BlockSymMatrix(2, np.tile([0.0, 1.5e308, 0.0], (3, 1)))
    assert huge.norm() == math.inf
    assert huge.weighted()[1] == math.inf


def test_point_and_matrix_norms_do_not_overflow():
    # np.linalg.norm squared the entries: inf, with an overflow warning, at
    # 1e200 entries, which the projectors accept
    for a in (1e200, 1e-200):
        assert ConePoint(2, np.full(5, a)).norm() == pytest.approx(
            a * math.sqrt(5.0), rel=1e-15)
        assert SymMatrix(np.full((6, 6), a)).norm() == pytest.approx(
            6.0 * a, rel=1e-15)


def _clip_in_chunks(rows, blocks):
    """rows cycled to a whole number of chunks of `blocks` blocks, and their
    lorentz_clip taken chunk by chunk, so that the chunk size picks the
    clip's path."""
    size = -(-len(rows) // blocks) * blocks
    rows = np.resize(rows, (size, 3))
    out = [lorentz_clip(chunk.ravel()) for chunk in np.split(rows, size // blocks)]
    return rows, np.concatenate(out).reshape(-1, 3)


def test_lorentz_clip_exact_cases():
    rng = np.random.default_rng(47)
    vw = rng.standard_normal((50, 2))
    r = np.hypot(vw[:, 0], vw[:, 1])
    stretch = rng.uniform(1.0, 3.0, 50)
    inside = np.column_stack([np.concatenate([r * stretch, r]),
                              np.vstack([vw, vw])])
    polar = np.column_stack([np.concatenate([-r * stretch, -r]),
                             np.vstack([vw, vw])])
    axis = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                     [0.0, 5e-324, 0.0], [-1e-300, 0.0, 5e-324]])
    nan = np.array([[math.nan, 0.0, 0.0], [math.nan, 3.0, 4.0],
                    [1.0, math.nan, 0.0], [-1.0, 0.0, math.nan],
                    [0.0, math.nan, math.nan]])
    # every case runs through both paths: the loop runs up to
    # _CLIP_LOOP_BLOCKS blocks, the vectorised form above
    loop_max = symmat._CLIP_LOOP_BLOCKS
    for blocks in (1, loop_max, loop_max + 1, 23):
        # t >= r: inside the cone, bitwise unchanged, the boundary t = r too
        rows, out = _clip_in_chunks(inside, blocks)
        assert np.array_equal(out, rows)
        # t <= -r: inside the polar, exact zeros
        rows, out = _clip_in_chunks(polar, blocks)
        assert np.array_equal(out, np.zeros(rows.shape))
        # r = 0 and r subnormal give no NaN
        rows, out = _clip_in_chunks(axis, blocks)
        assert np.all(np.isfinite(out))
        assert np.array_equal(out[:3], [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                        [0.0, 0.0, 0.0]])
        # between the two: the cone's boundary point ((t + r)/2)(1, (v, w)/r)
        rows, out = _clip_in_chunks(np.array([[0.0, 3.0, 4.0]]), blocks)
        assert np.allclose(out, [2.5, 1.5, 2.0], rtol=1e-15, atol=0.0)
        # NaN in gives NaN out, also at r = 0, where the loop's h / r would
        # raise ZeroDivisionError
        rows, out = _clip_in_chunks(nan, blocks)
        assert np.all(np.isnan(out))


def test_lorentz_clip_paths_agree_bitwise(monkeypatch):
    # seeded blocks at scales 10^-300 to 10^300, with t = r and t = -r
    # exactly, r = 0 (signed zeros too), and subnormal r and t
    rng = np.random.default_rng(53)
    count = 2000
    vw = rng.standard_normal((count, 2)) * 10.0 ** rng.uniform(-300, 300,
                                                               (count, 1))
    vw[2::7] = np.copysign(0.0, vw[2::7])
    vw[4::7] = 5e-324 * rng.integers(-3, 4, vw[4::7].shape)
    r = np.hypot(vw[:, 0], vw[:, 1])
    t = r * rng.uniform(-2.0, 2.0, count)
    t[0::7], t[1::7] = r[0::7], -r[1::7]
    t[3::7] = np.copysign(0.0, t[3::7])
    t[5::7] = 5e-324 * rng.integers(-6, 7, t[5::7].shape)
    flat = np.column_stack([t, vw]).ravel()
    assert np.any((r == 0.0) & np.signbit(t)) and np.any(t == r)
    assert np.any((r > 0.0) & (r < 2.2e-308))
    monkeypatch.setattr(symmat, "_CLIP_LOOP_BLOCKS", 23)
    for blocks in range(1, 24):
        for start in range(0, 3 * count - 3 * blocks + 1, 3 * blocks):
            x = flat[start:start + 3 * blocks]
            loop, vec = lorentz_clip(x), symmat._lorentz_clip_vec(x)
            assert loop.shape == x.shape and loop.tobytes() == vec.tobytes()


def test_jacobi_identity():
    w, V = jacobi_eig(SymMatrix(np.eye(5)))
    assert np.allclose(w, np.ones(5))
    assert np.allclose(V @ V.T, np.eye(5), atol=1e-12)


def test_jacobi_diagonal_with_permutation_basis():
    w, V = jacobi_eig(SymMatrix(np.diag([3.0, 1.0, -2.0])))
    assert np.allclose(w, [3.0, 1.0, -2.0])
    assert np.allclose(np.abs(V), np.eye(3), atol=1e-12)


def test_jacobi_random_reconstruction():
    rng = np.random.default_rng(23)
    for _ in range(25):
        raw = rng.standard_normal((8, 8))
        dense = raw + raw.T
        w, V = jacobi_eig(SymMatrix(dense))
        norm = np.linalg.norm(dense)
        assert np.linalg.norm((V * w) @ V.T - dense) <= 1e-11 * norm
        assert np.linalg.norm(V @ V.T - np.eye(8)) <= 1e-12
        rotated = V.T @ dense @ V
        off = np.linalg.norm(rotated - np.diag(np.diag(rotated)))
        assert off <= 1e-12 * norm
        assert np.all(np.diff(w) <= 1e-12 * norm)


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
        blocks = rng.standard_normal((2 * n - 1, 3))
        # an off-diagonal entry below the first sweep's threshold: the
        # first sweep skips its block and a later sweep rotates it
        blocks[n - 1, 1] = 1e-12
        mat = BlockSymMatrix(n, blocks)
        w, V = jacobi_eig(mat.to_full())
        want = np.sort(np.concatenate([
            np.linalg.eigvalsh(np.array([[a, b], [b, c]])) for a, b, c in mat.blocks
        ]))[::-1]
        assert np.all(np.abs(w - want) <= 1e-14 * np.abs(want).max()), n
        # every rotation stays inside one block: each eigenvector is
        # supported on one block
        in_block = (V.reshape(2 * n - 1, 2, -1) != 0.0).any(axis=1)
        assert np.all(in_block.sum(axis=0) == 1), n


def test_jacobi_sweep_budget_exit(monkeypatch):
    raw = np.random.default_rng(59).standard_normal((8, 8))
    monkeypatch.setattr(symmat, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NumericFailureError):
        jacobi_eig(raw + raw.T)


def test_jacobi_guards():
    with pytest.raises(InvalidInputError):
        jacobi_eig(SymMatrix(np.zeros((201, 201))))
    with pytest.raises(InvalidInputError):
        jacobi_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        jacobi_eig(np.zeros((2, 3)))


def test_malformed_arguments_are_input_errors():
    # each raised AttributeError, IndexError or a bare ValueError
    cases = ((BlockSymMatrix.from_full, 2, np.eye(6)),
             (psd_project_block, np.ones((3, 3))),
             (jacobi_eig, "abc"), (jacobi_eig, [[1, 2], [2]]),
             (jacobi_eig, np.float64(1.0)), (SymMatrix, "x"),
             (BlockSymMatrix, 2, "x"), (ConePoint, 2, [[1], [2, 3]]))
    for call, *args in cases:
        with pytest.raises(InvalidInputError):
            call(*args)


def test_symmatrix_storage_round_trip():
    rng = np.random.default_rng(29)
    raw = rng.standard_normal((6, 6))
    dense = raw + raw.T
    mat = SymMatrix(dense)
    assert mat.dim == 6 and mat.dense.shape == (6, 6)
    assert not mat.dense.flags.writeable
    assert np.array_equal(mat.to_dense(), dense)
    assert mat.to_dense().flags.writeable
    # only the lower triangle is read, and it is mirrored
    lower = np.tril(dense) + np.triu(rng.standard_normal((6, 6)), 1)
    assert np.array_equal(SymMatrix(lower).dense, dense)
    for bad_shape in (np.zeros((4, 3)), np.zeros(9), np.zeros((0, 0))):
        with pytest.raises(InvalidInputError):
            SymMatrix(bad_shape)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            SymMatrix(np.array([[1.0, 0.0], [bad, 1.0]]))


def test_block_matrix_shape_guard():
    with pytest.raises(InvalidInputError):
        BlockSymMatrix(2, np.zeros((4, 3)))
    with pytest.raises(InvalidInputError):
        BlockSymMatrix(1, np.zeros((1, 3)))
    # each fits the (2n-1, 3) shape rule, and 2.5 was accepted
    for n, blocks in ((2.5, 4), (True, 1), (13, 25)):
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            BlockSymMatrix(n, np.zeros((blocks, 3)))
    with pytest.raises(InvalidInputError, match="n must be an integer"):
        BlockSymMatrix.from_full(2.5, SymMatrix(np.eye(8)))
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
    # the seed's Python loops are the reference for the block index map
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
        got = BlockSymMatrix.from_full(n, SymMatrix(full)).blocks
        assert np.array_equal(got, rows)
    with pytest.raises(InvalidInputError):
        BlockSymMatrix.from_full(3, SymMatrix(np.eye(6)))


def test_text_formats_round_trip():
    rng = np.random.default_rng(37)
    for n in range(2, 13):
        shape = (2 * n - 1, 3)
        blk = BlockSymMatrix(n, rng.standard_normal(shape)
                             * 10.0 ** rng.uniform(-300, 300, shape))
        again = read_block_matrix(write_block_matrix(blk))
        assert again.n == blk.n
        assert np.array_equal(again.blocks, blk.blocks)


def test_text_format_errors():
    with pytest.raises(InvalidInputError):
        read_block_matrix("2\n1 2 3")  # needs 9 entries
    with pytest.raises(InvalidInputError):
        read_block_matrix("2\n" + " ".join(["x"] * 9))
    # the index is checked before the count 3(2n-1) is computed from it: a
    # first line of -1 reported "expected -9 entries"
    for first in ("-1", "0", "1"):
        with pytest.raises(InvalidInputError,
                           match=f"n must be an integer in \\[2, 12\\], got {first}"):
            read_block_matrix(f"{first}\n1 2 3")
    for first in ("", "2.0", "2 3", "n"):
        with pytest.raises(InvalidInputError, match="first line"):
            read_block_matrix(f"{first}\n1 2 3")
