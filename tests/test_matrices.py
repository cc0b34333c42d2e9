import numpy as np
import pytest
from numpy.testing import assert_allclose

from phm.errors import DimensionError, NonHermitianError
from phm.matrices import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_square_matrix,
    frobenius,
    hermiticity_defect,
    hermitize,
    lock,
    require_hermitian,
    unit_scaled,
)


def test_pauli_algebra():
    assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=0)
    assert_allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X, atol=0)
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert_allclose(s @ s, np.eye(2), atol=0)
        assert not s.flags.writeable


def test_as_square_matrix_accepts_lists():
    m = as_square_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


@pytest.mark.parametrize(
    "bad",
    [
        [[1, 2, 3], [4, 5, 6]],
        [1, 2, 3],
        np.zeros((0, 0)),
        [[np.inf, 0], [0, 1]],
        [[np.nan, 0], [0, 1]],
    ],
)
def test_as_square_matrix_rejects(bad):
    with pytest.raises(DimensionError):
        as_square_matrix(bad)


def test_hermitize_and_defect():
    a = np.array([[1.0, 2.0 + 1.0j], [0.0, 3.0]])
    h = hermitize(a)
    assert_allclose(h, h.conj().T, atol=0)
    assert hermiticity_defect(h) <= 1e-15
    assert hermiticity_defect(a) > 0.1
    assert hermiticity_defect(np.zeros((3, 3))) == 0.0


def test_require_hermitian():
    require_hermitian(SIGMA_Y)
    with pytest.raises(NonHermitianError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_frobenius():
    assert frobenius(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_lock_blocks_writes():
    a = lock(np.zeros(3))
    with pytest.raises(ValueError):
        a[0] = 1.0


@pytest.mark.parametrize("top", [0.5, 0.75j, -0.999, 1 - 2.0**-53])
def test_unit_scaled_returns_its_argument_in_range(top):
    a = np.array([[0.25, top], [0.1j, -0.3 + 0.4j]], dtype=np.complex128)
    assert unit_scaled(a) is a


@pytest.mark.parametrize("top", [1.0, 0.25j, -1e308, 3e-320, 2.0**-1074])
def test_unit_scaled_copies_out_of_range(top):
    a = np.array([[top / 4, top], [-top * 0.5j, 0.0]], dtype=np.complex128)
    before = a.copy()
    out = unit_scaled(a)
    assert out is not a
    np.testing.assert_array_equal(a, before)
    shift = -np.frexp(abs(top))[1]
    np.testing.assert_array_equal(out.real, np.ldexp(a.real, shift))
    np.testing.assert_array_equal(out.imag, np.ldexp(a.imag, shift))
    assert 0.5 <= max(np.max(np.abs(out.real)), np.max(np.abs(out.imag))) < 1.0
    assert unit_scaled(out) is out


def test_unit_scaled_zero_matrix_is_its_argument():
    a = np.zeros((2, 2), dtype=np.complex128)
    assert unit_scaled(a) is a
