"""Small dense-matrix helpers shared across the package.

Matrices are plain ``numpy.ndarray`` of dtype complex128 throughout; these
helpers centralize validation, hermitian symmetrization and the couple of
2x2 constants the canonical forms are written in.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NonHermitianError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

SIGMA_X.setflags(write=False)
SIGMA_Y.setflags(write=False)
SIGMA_Z.setflags(write=False)

HERMITICITY_TOL = 1e-10  # largest relative hermiticity defect accepted as hermitian


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a square, finite complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise DimensionError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(m)):
        raise DimensionError(f"{name} contains non-finite entries")
    return m


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the hermitian part, (a + a^dagger)/2."""
    return (a + a.conj().T) / 2.0


def hermiticity_defect(a: np.ndarray) -> float:
    """Relative Frobenius distance from ``a`` to its hermitian part.

    Zero for an exactly hermitian matrix; defined as 0 for the zero matrix.
    Computed on ``unit_scaled(a)``, so entries near 1e308 do not overflow.
    """
    a = unit_scaled(np.asarray(a, dtype=np.complex128))
    na = frobenius(a)
    if na == 0.0:
        return 0.0
    return frobenius(a - a.conj().T) / na


def unit_exponent(a: np.ndarray, keep: int = 0) -> int:
    """The k that puts ``a``'s largest |Re| or |Im| times 2**-k in [0.5, 1).

    0 if ``a`` is all zero or k lies in (-keep, keep]: with ``keep`` 500,
    only an array whose sums and moduli may overflow is moved.
    """
    k = math.frexp(max(float(np.max(np.abs(a.real))), float(np.max(np.abs(a.imag)))))[1]
    return 0 if -keep < k <= keep else k


def times_power_of_two(a: np.ndarray, k: int) -> np.ndarray:
    """``a`` times 2**k, exact unless a part leaves the float range; ``a`` itself if k is 0."""
    if k == 0:
        return a
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, k), np.ldexp(a.imag, k)
    return out


def unit_scaled(a: np.ndarray) -> np.ndarray:
    """``a`` times the power of two that puts its largest |Re| or |Im| in [0.5, 1).

    ``ldexp`` scales exactly, so scale-free figures computed from the
    result are the same bits as from ``a``, without overflowing near 1e308.
    Returns ``a`` itself when it is already in that range (or all zero), so
    callers must only read the result.
    """
    return times_power_of_two(a, -unit_exponent(a))


def require_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Raise unless ``a`` is hermitian to relative defect ``HERMITICITY_TOL``."""
    m = as_square_matrix(a, name=name)
    defect = hermiticity_defect(m)
    if not defect <= HERMITICITY_TOL:  # a NaN defect fails too
        raise NonHermitianError(
            f"{name} is not hermitian: relative defect {defect:.3e} > {HERMITICITY_TOL:.1e}"
        )
    return m


def lock(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only (containers in this package are immutable)."""
    a.setflags(write=False)
    return a
