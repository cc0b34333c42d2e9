import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import DIAG12, ROT2, make_instance
from phm.errors import (
    ClassificationError,
    DegenerateSpectrumError,
    IllConditionedError,
)
from phm.spectral import (
    Tolerances,
    assert_nondegenerate,
    biorthogonality_check,
    check_ph_admissible,
    classify_spectrum,
    decompose,
    eigendecompose,
)


def test_admissible_passes_conjugation_symmetric():
    assert check_ph_admissible(ROT2).is_ph
    assert check_ph_admissible(DIAG12).is_ph


def test_admissible_rejects_complex_coefficients():
    # char poly of diag(i, 2) is z^2 - (2+i) z + 2i; coefficient scale is
    # |2+i| = sqrt(5), largest imaginary part is 2.
    rep = check_ph_admissible(np.diag([1.0j, 2.0]))
    assert not rep.is_ph
    assert rep.max_imag_coeff == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-12)


def test_eigendecompose_residual_small():
    eig = eigendecompose(ROT2)
    assert eig.residual <= 1e-14
    assert eig.min_singular_value > 0.5


def test_shared_eigenpairs_give_identical_results():
    inst = make_instance(8, 2, 3, seed=5)
    eig = eigendecompose(inst.H)
    assert check_ph_admissible(inst.H, eigenpairs=eig) == check_ph_admissible(inst.H)
    a, b = decompose(inst.H, eigenpairs=eig), decompose(inst.H)
    assert a.lam.tobytes() == b.lam.tobytes()
    assert a.S.tobytes() == b.S.tobytes()


def test_classify_diag12():
    cls = classify_spectrum(np.array([2.0, 1.0], dtype=complex))
    assert cls.r == 2 and cls.p == 0
    # sorted ascending by real part
    assert cls.real_indices == (1, 0)


def test_classify_pairs_positive_imag_first():
    cls = classify_spectrum(np.array([1 - 2j, 3 + 1j, 1 + 2j, 3 - 1j]))
    assert cls.r == 0 and cls.p == 2
    assert cls.pair_indices == ((2, 0), (1, 3))


def test_classify_rejects_unpaired():
    with pytest.raises(ClassificationError):
        classify_spectrum(np.array([1.0j, 2.0]))
    with pytest.raises(ClassificationError):
        classify_spectrum(np.array([1.0 + 1.0j, 1.0 - 2.0j]))


@settings(deadline=None)
@given(
    r=st.integers(0, 4),
    p=st.integers(0, 3),
    seed=st.integers(0, 10**6),
)
def test_classify_recovers_split(r, p, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    reals = rng.uniform(-1, 1, size=r)
    zs = rng.uniform(-1, 1, size=p) + 1j * rng.uniform(0.1, 1, size=p)
    values = np.concatenate([reals.astype(complex), zs, zs.conj()])
    rng.shuffle(values)
    cls = classify_spectrum(values)
    assert (cls.r, cls.p) == (r, p)
    for j_plus, j_minus in cls.pair_indices:
        assert values[j_plus].imag > 0 > values[j_minus].imag


def test_nondegenerate_returns_gap():
    assert assert_nondegenerate(np.array([1.0, 2.0])) == pytest.approx(1.0)
    assert math.isinf(assert_nondegenerate(np.array([5.0])))
    with pytest.raises(DegenerateSpectrumError):
        assert_nondegenerate(np.array([1.0, 1.0 + 1e-12]))


def test_decompose_golden_rotation():
    sd = decompose(ROT2)
    assert (sd.r, sd.p) == (0, 1)
    assert sd.lam[0].imag > 0
    assert_allclose(sd.lam[0], sd.lam[1].conjugate(), atol=0)
    expected_S = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / math.sqrt(2.0)
    assert_allclose(sd.S, expected_S, atol=1e-12)
    assert sd.cond_S == pytest.approx(1.0)
    assert sd.min_gap == pytest.approx(2.0)


def test_decompose_golden_reversed_diagonal():
    # eigenvalues come out ascending, so S is the swap permutation
    sd = decompose(np.diag([2.0, 1.0]).astype(complex))
    assert_allclose(sd.lam, np.array([1.0, 2.0]), atol=0)
    assert_allclose(sd.S, np.array([[0, 1], [1, 0]]), atol=0)


def test_decompose_reconstructs():
    inst = make_instance(6, 2, 2, seed=42)
    sd = decompose(inst.H)
    Sinv = np.linalg.inv(sd.S)
    assert_allclose(Sinv @ np.diag(sd.lam) @ sd.S, inst.H, atol=1e-10)
    assert_allclose(sd.lam, inst.sd.lam, atol=1e-10)
    assert biorthogonality_check(sd) <= 1e-10


def test_biorthogonality_check_detects_swapped_rows():
    sd = make_instance(6, 2, 2, seed=42).sd
    S = sd.S.copy()
    S[[1, 3]] = S[[3, 1]]  # row 1 is no longer a left eigenvector for lam_1
    assert biorthogonality_check(dataclasses.replace(sd, S=S)) > 1e-8


def test_decompose_is_deterministic():
    inst = make_instance(5, 3, 1, seed=9)
    a = decompose(inst.H)
    b = decompose(inst.H)
    assert np.array_equal(a.S, b.S)
    assert np.array_equal(a.lam, b.lam)


def test_decompose_rejects_degenerate():
    with pytest.raises(DegenerateSpectrumError):
        decompose(np.eye(2))


def test_decompose_rejects_nonadmissible():
    with pytest.raises(ClassificationError):
        decompose(np.diag([1.0j, 2.0]))


def test_decompose_rejects_ill_conditioned():
    # a Jordan-like block has an eigenvector matrix with huge condition number
    H = np.array([[1.0, 1e9], [0.0, 1.0 + 1e-2]])
    with pytest.raises(IllConditionedError):
        decompose(H, tol=Tolerances(cond_cap=1e6))


def test_symmetrization_shift_reported():
    inst = make_instance(4, 0, 2, seed=3)
    sd = decompose(inst.H)
    assert 0.0 <= sd.sym_shift <= 1e-10
    # pairs are exact conjugates after symmetrization
    for s in range(sd.p):
        a = sd.lam[sd.r + 2 * s]
        b = sd.lam[sd.r + 2 * s + 1]
        assert a.conjugate() == b


def test_tolerance_widening_classifies_noisy_reals():
    values = np.array([1.0 + 1e-5j, 2.0 - 1e-5j])
    with pytest.raises(ClassificationError):
        classify_spectrum(values, eps_real=1e-8, eps_pair=1e-8)
    cls = classify_spectrum(values, eps_real=1e-4, eps_pair=1e-4)
    assert cls.r == 2
