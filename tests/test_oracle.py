import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import DIAG12, ROT2, make_instance, rp_splits, write_matrix_json
from phm import cli, decompose, oracle, random_hermitian, spectral
from phm.errors import DimensionError, EnumerationCapError, FamilyMismatchError
from phm.matrices import SIGMA_X, SIGMA_Y, SIGMA_Z
from phm.oracle import (
    RANK_TOL,
    _family_design_matrix,
    _solve_upper,
    family_vs_kernel,
    hermitian_basis,
    hermitian_coords,
    intertwining_operator_matrix,
    matrix_from_coords,
    solution_space,
)


def test_basis_is_trace_orthonormal():
    basis = hermitian_basis(3)
    assert basis.dim == 9
    E = basis.elements
    gram = np.einsum("aij,bji->ab", E, E)
    assert_allclose(gram, np.eye(9), atol=1e-15)
    for mat in E:
        assert_allclose(mat, mat.conj().T, atol=0)


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 6), seed=st.integers(0, 10**6))
def test_coords_round_trip(n, seed):
    M = random_hermitian(n, seed)
    x = hermitian_coords(M)
    assert x.dtype == np.float64
    assert_allclose(matrix_from_coords(x), M, atol=1e-14)


def test_operator_matrix_eigenvalues_are_spectral_differences():
    # The operator matrix represents M -> -i (H^dagger M - M H), whose
    # complexification has eigenvalues -i (conj(lambda_k) - lambda_l) over
    # all index pairs; an independent handle on its spectrum.
    inst = make_instance(4, 2, 1, seed=5)
    L = intertwining_operator_matrix(inst.H)
    got = list(np.linalg.eigvals(L))
    lam = inst.sd.lam
    expected = [-1j * (lam[k].conjugate() - lam[l]) for k in range(4) for l in range(4)]
    # multiset comparison by greedy nearest matching; sorting complex values
    # lexicographically is unstable when real parts tie up to rounding
    worst = 0.0
    for z in expected:
        k = int(np.argmin([abs(z - w) for w in got]))
        worst = max(worst, abs(z - got.pop(k)))
    assert worst <= 1e-8


def test_operator_matrix_is_real_and_square():
    L = intertwining_operator_matrix(ROT2)
    assert L.dtype == np.float64
    assert L.shape == (4, 4)


def test_kernel_golden_rotation():
    report = solution_space(ROT2)
    assert report.dimension == 2
    # the kernel is span{sigma_z, sigma_x}: identity and sigma_y are not in it
    K = hermitian_coords(report.basis)

    def proj_defect(M):
        x = hermitian_coords(M)
        return np.linalg.norm(x - K.T @ (K @ x)) / np.linalg.norm(x)

    assert proj_defect(SIGMA_Z) <= 1e-12
    assert proj_defect(SIGMA_X) <= 1e-12
    assert proj_defect(np.eye(2)) > 0.9
    assert proj_defect(SIGMA_Y) > 0.9


def test_kernel_golden_diagonal():
    report = solution_space(DIAG12)
    assert report.dimension == 2
    for B in report.basis:
        assert_allclose(B, np.diag(np.diag(B)), atol=1e-14)


def test_kernel_matrices_are_hermitian():
    inst = make_instance(5, 1, 2, seed=8)
    report = solution_space(inst.H)
    assert report.dimension == 5
    for B in report.basis:
        assert np.array_equal(B, B.conj().T)
    assert report.gap_ratio > 100.0
    assert not report.rank_ambiguous


def test_degenerate_spectrum_has_larger_kernel():
    report = solution_space(np.eye(2))
    assert report.dimension == 4


def test_family_vs_kernel_agreement():
    inst = make_instance(6, 2, 2, seed=13)
    report = solution_space(inst.H)
    match = family_vs_kernel(inst.sd, report, n_samples=5, seed=99)
    assert match.max_projection_defect <= 1e-8
    assert match.max_recovery_defect <= 1e-8
    assert match.params_recovered


def test_family_vs_kernel_rejects_wrong_dimension():
    sd = decompose(DIAG12)
    degenerate_report = solution_space(np.eye(2))
    with pytest.raises(FamilyMismatchError):
        family_vs_kernel(sd, degenerate_report)


def test_dimension_cap():
    with pytest.raises(EnumerationCapError):
        solution_space(np.zeros((33, 33)))


def test_coordinate_count_must_be_a_square():
    with pytest.raises(DimensionError, match="5 coordinates are not n\\^2"):
        matrix_from_coords(np.zeros(5))


# ------------------------------------------- index path against the tensor


def _tensor_operator_matrix(H, basis):
    """Reference assembly over the (n^2, n, n) basis tensor: Im Tr(E_a C_b)."""
    E = basis.elements
    C = np.matmul(H.conj().T, E) - np.matmul(E, H)
    Ef = E.reshape(E.shape[0], -1)
    Cf = np.transpose(C, (0, 2, 1)).reshape(C.shape[0], -1)
    return (Ef @ Cf.T).imag


def _complex_gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 6), seed=st.integers(0, 10**6))
def test_index_path_matches_basis_tensor(n, seed):
    rng = np.random.default_rng(seed)
    basis = hermitian_basis(n)
    E = basis.elements
    H = _complex_gaussian(rng, n, n)  # admissible or not: L is defined for any H
    L = intertwining_operator_matrix(H)
    assert np.max(np.abs(L - _tensor_operator_matrix(H, basis))) <= 1e-14 * np.linalg.norm(H)
    X = _complex_gaussian(rng, 3, n, n)  # not hermitian
    want = np.stack([np.einsum("aij,ji->a", E, M).real for M in X])
    assert_allclose(hermitian_coords(X), want, rtol=0, atol=1e-14 * np.abs(X).max())
    x = rng.standard_normal((3, n * n))
    want = np.stack([np.tensordot(v, E, axes=1) for v in x])
    assert_allclose(matrix_from_coords(x), want, rtol=0, atol=1e-15 * np.abs(x).max())


def _loop_design_matrix(sd):
    """The family directions S^dagger B S, one dense product per column."""
    n = sd.n
    cols = []
    Sd = sd.S.conj().T
    for i in range(sd.r):
        B = np.zeros((n, n), dtype=np.complex128)
        B[i, i] = 1.0
        cols.append(hermitian_coords(Sd @ B @ sd.S))
    for s_idx in range(sd.p):
        k = sd.r + 2 * s_idx
        Bx = np.zeros((n, n), dtype=np.complex128)
        Bx[k, k + 1] = 1.0
        Bx[k + 1, k] = 1.0
        cols.append(hermitian_coords(Sd @ Bx @ sd.S))
        By = np.zeros((n, n), dtype=np.complex128)
        By[k, k + 1] = -1.0j
        By[k + 1, k] = 1.0j
        cols.append(hermitian_coords(Sd @ By @ sd.S))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n,r,p", [(1, 1, 0), (2, 0, 1), (5, 1, 2), (6, 6, 0), (8, 2, 3)])
def test_family_design_matrix_matches_loop(n, r, p):
    inst = make_instance(n, r, p, seed=21)
    A = _family_design_matrix(inst.sd)
    want = _loop_design_matrix(inst.sd)
    assert A.shape == (n * n, n)
    assert_allclose(A, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_oracle_request_never_builds_basis_tensor(capsys, monkeypatch, tmp_path):
    built = []

    def recording_basis(n):
        built.append(hermitian_basis(n))
        return built[-1]

    monkeypatch.setattr(cli, "hermitian_basis", recording_basis)
    # no basis object reaches the solve, so any tensor built on the way fails here
    monkeypatch.setattr(oracle.HermitianBasis, "elements", property(lambda self: pytest.fail("built")))
    path = write_matrix_json(tmp_path / "h.json", make_instance(6, 2, 2, seed=4).H)
    assert cli.main(["oracle", path]) == 0
    assert json.loads(capsys.readouterr().out)["kernel_dimension"] == 6
    assert len(built) == 1
    assert "elements" not in built[0].__dict__


def test_oracle_cap_applies_before_decomposition(capsys, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise AssertionError("decomposed an oversized matrix")

    # oracle decomposes through spectral.decompose, which calls spectral's eigendecompose
    monkeypatch.setattr(spectral, "eigendecompose", fail)
    path = write_matrix_json(tmp_path / "big.json", np.eye(33))
    assert cli.main(["oracle", path]) == 6
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["message"] == "dense solve is capped at n <= 32, got n = 33"


# ------------------------------------------- kernel against the full SVD


def _svd_kernel(H):
    """Reference kernel: the right singular vectors of the full SVD of L."""
    _, s, vt = np.linalg.svd(intertwining_operator_matrix(H))
    cut = max(RANK_TOL * s[0], H.shape[0] * np.finfo(float).eps * np.linalg.norm(H))
    dim = int(np.sum(s <= cut))
    return vt[vt.shape[0] - dim :]


def _projector_distance(H, report):
    """Spectral-norm distance to the reference kernel's projector, same dimension."""
    K = hermitian_coords(report.basis)
    V = _svd_kernel(H)
    assert K.shape == V.shape
    return float(np.linalg.norm(K.T @ K - V.T @ V, 2))


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 8), split=st.integers(0, 4), seed=st.integers(0, 10**6))
def test_kernel_matches_full_svd(n, split, seed):
    splits = rp_splits(n)
    r, p = splits[split % len(splits)]
    H = make_instance(n, r, p, seed=seed).H
    assert _projector_distance(H, solution_space(H)) <= 1e-9


@pytest.mark.parametrize("n,r,p,seed", [(7, 7, 0, 657), (6, 2, 2, 10)])
def test_kernel_of_unevenly_stretched_block(n, r, p, seed):
    # one inverse-iteration step left these 2.2e-9 and 1.2e-9 off the
    # reference kernel: their kernel singular values span two decades
    H = make_instance(n, r, p, seed=seed).H
    assert _projector_distance(H, solution_space(H)) <= 1e-11


def test_kernel_of_real_diagonal_matrix():
    # L has a zero column per diagonal unit, so R has exact zeros on its
    # diagonal: the floor keeps the solves finite
    H = np.diag(np.arange(1.0, 25.0))
    report = solution_space(H)
    assert report.dimension == 24
    assert _projector_distance(H, report) <= 1e-9
    for B in report.basis:
        assert_allclose(B, np.diag(np.diag(B)), atol=1e-12)


def test_kernel_of_zero_matrix_is_everything():
    report = solution_space(np.zeros((3, 3)))
    assert report.dimension == 9
    K = hermitian_coords(report.basis)
    assert_allclose(K @ K.T, np.eye(9), atol=1e-15)


def test_kernel_of_generic_complex_matrix_is_empty():
    rng = np.random.default_rng(7)
    H = _complex_gaussian(rng, 5, 5)
    report = solution_space(H)
    assert report.dimension == 0
    assert report.basis.shape == (0, 5, 5)


def test_kernel_with_narrow_singular_gap():
    # sigma_{n+1} is about 4e-8 of the largest singular value here; inverse
    # iteration through L + delta I by LU missed the 1e-8 gate on this one
    inst = make_instance(24, 6, 9, seed=312974493)
    report = solution_space(inst.H)
    match = family_vs_kernel(inst.sd, report)
    assert report.dimension == 24
    assert match.max_projection_defect <= 1e-9
    assert match.max_recovery_defect <= 1e-9


@pytest.mark.parametrize("k", [-600, 0, 600])
def test_kernel_is_scale_free(k):
    # both terms of the rank cut scale with H, and ||H||_F must not overflow
    # at 2**600; the solves must not overflow at 2**-600 nor underflow at 2**600
    inst = make_instance(3, 1, 1, seed=2)
    H = inst.H * 2.0**k
    report = solution_space(H)
    assert report.dimension == 3
    match = family_vs_kernel(decompose(H), report)
    assert match.max_projection_defect <= 1e-12
    assert match.max_recovery_defect <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_oracle_accepts_generated_1x1(capsys, tmp_path, seed):
    # L is 1 x 1 and holds only the rounding of Im H; the rank cut's floor
    # at L's rounding level keeps it in the kernel
    out = str(tmp_path / "inst")
    argv = ["generate", "--n", "1", "--r", "1", "--p", "0", "--seed", str(seed), "--out", out]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(["oracle", out + "_H.json"]) == 0
    assert json.loads(capsys.readouterr().out)["kernel_dimension"] == 1


# ------------------------------------------- triangular solves by halves


def _upper_triangular(rng, m):
    # the QR factor of a Gaussian matrix is as well conditioned as the matrix;
    # a triangle of Gaussian entries is exponentially ill-conditioned in m
    return np.linalg.qr(rng.standard_normal((m, m)), mode="r")


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 129, 576])
@pytest.mark.parametrize("k", [1, 24])
def test_solve_upper_matches_dense_solve(m, k):
    rng = np.random.default_rng(m * 100 + k)
    R = _upper_triangular(rng, m)
    B = rng.standard_normal((m, k))
    X = _solve_upper(R, B)
    assert X.shape == (m, k)
    assert_allclose(X, np.linalg.solve(R, B), rtol=1e-10, atol=1e-10 * np.abs(X).max())
    # the lower-triangular solve as solution_space does it, on the reversed view
    Z = _solve_upper(R.T[::-1, ::-1], B[::-1])[::-1]
    assert_allclose(Z, np.linalg.solve(R.T, B), rtol=1e-10, atol=1e-10 * np.abs(Z).max())


def test_solve_upper_with_floored_diagonal():
    # as after solution_space's floor: a few diagonal entries at eps * max
    rng = np.random.default_rng(5)
    R = _upper_triangular(rng, 200)
    floor = np.finfo(float).eps * np.abs(R).max()
    R[[3, 70, 150], [3, 70, 150]] = floor
    B = rng.standard_normal((200, 24))
    for A in (R, R.T[::-1, ::-1]):
        X = _solve_upper(A, B)
        assert np.all(np.isfinite(X))
        residual = np.linalg.norm(A @ X - B) / (np.linalg.norm(A) * np.linalg.norm(X))
        assert residual <= 1e-14


def test_solution_space_solves_only_small_blocks(monkeypatch):
    solved = []
    original = np.linalg.solve

    def recording_solve(a, b):
        solved.append(np.shape(a))
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    report = solution_space(make_instance(24, 6, 9, seed=1).H)
    assert report.dimension == 24
    assert solved
    assert max(rows for rows, _ in solved) <= 64
