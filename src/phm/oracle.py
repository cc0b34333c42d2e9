"""Brute-force solution space of the intertwining equation.

Independent cross-check of the parametrized family: the equation
H^dagger M = M H is real-linear in the hermitian unknown M, so expanding
M over a trace-orthonormal hermitian basis turns it into a real
n^2 x n^2 linear system whose nullspace is the space of all compatible
metrics. The nullspace is extracted by dense SVD and compared against
the family both ways (family members project into the kernel; kernel
elements are reproduced by least-squares parameter fits). This path
shares no code with the family construction beyond the basis helpers,
which is the point: it is a desk-scale verifier, capped at n <= 32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EnumerationCapError, FamilyMismatchError
from .matrices import as_square_matrix, lock
from .metrics import build_M
from .spectral import SpectralData

ORACLE_DIM_CAP = 32
RANK_GAP_WARN = 10.0


@dataclass(frozen=True)
class HermitianBasis:
    """Trace-orthonormal basis of the real vector space of hermitian matrices.

    Ordering: diagonal units first, then for each index pair k < l the
    symmetric element (e_k e_l^T + e_l e_k^T)/sqrt(2) followed by the
    antisymmetric element i (e_k e_l^T - e_l e_k^T)/sqrt(2).
    """

    n: int
    elements: np.ndarray  # shape (n*n, n, n)

    def __post_init__(self):
        lock(self.elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class KernelReport:
    """Numerical nullspace of the linearized intertwining operator.

    ``singular_values`` are ascending; ``gap_ratio`` is the ratio of the
    first kept to the last discarded singular value, a confidence proxy
    for the rank decision (below 10 the rank is flagged ambiguous, as a
    warning rather than an error).
    """

    dimension: int
    basis: np.ndarray  # shape (dimension, n, n), hermitian, trace-orthonormal
    singular_values: np.ndarray
    gap_ratio: float
    rank_tol: float

    def __post_init__(self):
        lock(self.basis)
        lock(self.singular_values)

    @property
    def rank_ambiguous(self) -> bool:
        return self.gap_ratio < RANK_GAP_WARN


@dataclass(frozen=True)
class FamilyKernelMatch:
    """Mutual-span comparison between the family and the kernel."""

    max_projection_defect: float
    max_recovery_defect: float
    params_recovered: bool


def hermitian_basis(n: int) -> HermitianBasis:
    """Build the n^2-element trace-orthonormal hermitian basis."""
    if n < 1:
        raise DimensionError("basis dimension must be >= 1")
    elems = np.zeros((n * n, n, n), dtype=np.complex128)
    idx = 0
    for k in range(n):
        elems[idx, k, k] = 1.0
        idx += 1
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            elems[idx, k, l] = inv_sqrt2
            elems[idx, l, k] = inv_sqrt2
            idx += 1
            elems[idx, k, l] = 1.0j * inv_sqrt2
            elems[idx, l, k] = -1.0j * inv_sqrt2
            idx += 1
    return HermitianBasis(n=n, elements=elems)


def hermitian_coords(basis: HermitianBasis, M) -> np.ndarray:
    """Real coordinates of a hermitian matrix: Tr(E_a M) per basis element."""
    M = np.asarray(M, dtype=np.complex128)
    return np.einsum("aij,ji->a", basis.elements, M).real


def matrix_from_coords(basis: HermitianBasis, x) -> np.ndarray:
    """Reassemble sum_a x_a E_a (exactly hermitian for real coordinates)."""
    x = np.asarray(x, dtype=np.float64)
    return np.tensordot(x, basis.elements, axes=1)


def intertwining_operator_matrix(H, basis: HermitianBasis | None = None) -> np.ndarray:
    """Real matrix of M -> H^dagger M - M H in hermitian coordinates.

    The image of a hermitian matrix is anti-hermitian, i.e. i times a
    hermitian matrix, so column b holds the coordinates of
    H^dagger E_b - E_b H expanded over {i E_a}. Metrics compatible with H
    are exactly the nullspace vectors.
    """
    H = as_square_matrix(H, name="H")
    n = H.shape[0]
    if basis is None:
        basis = hermitian_basis(n)
    if basis.n != n:
        raise DimensionError(f"basis dimension {basis.n} does not match matrix {n}")
    E = basis.elements
    C = np.matmul(H.conj().T, E) - np.matmul(E, H)  # (n^2, n, n)
    Ef = E.reshape(E.shape[0], -1)
    Cf = np.transpose(C, (0, 2, 1)).reshape(C.shape[0], -1)
    # Tr(E_a C_b) is purely imaginary; its imaginary part is the {i E_a} coordinate.
    return (Ef @ Cf.T).imag


def solution_space(H, rank_tol: float = 1e-8, basis: HermitianBasis | None = None) -> KernelReport:
    """All hermitian solutions of the intertwining equation, by dense SVD.

    Kernel vectors are the right singular vectors whose singular value is
    at most rank_tol times the largest one. For a non-degenerate
    admissible matrix the dimension equals n = r + 2p, one real dimension
    per free family parameter. Degenerate spectra (outside the supported
    class, but useful for diagnostics) yield larger kernels.
    """
    H = as_square_matrix(H, name="H")
    n = H.shape[0]
    if n > ORACLE_DIM_CAP:
        raise EnumerationCapError(
            f"dense solve is capped at n <= {ORACLE_DIM_CAP}, got n = {n}"
        )
    if basis is None:
        basis = hermitian_basis(n)
    L = intertwining_operator_matrix(H, basis=basis)
    _, s, vt = np.linalg.svd(L)
    smax = float(s[0]) if s.size else 0.0
    keep = s <= rank_tol * smax
    dim = int(np.sum(keep))
    kernel_coords = vt[vt.shape[0] - dim :] if dim else np.zeros((0, n * n))
    kernel = np.stack([matrix_from_coords(basis, x) for x in kernel_coords]) if dim else (
        np.zeros((0, n, n), dtype=np.complex128)
    )
    s_asc = s[::-1].copy()
    if dim == 0 or dim == s_asc.size or s_asc[dim - 1] == 0.0:
        gap = np.inf
    else:
        gap = float(s_asc[dim] / s_asc[dim - 1])
    return KernelReport(
        dimension=dim,
        basis=kernel,
        singular_values=s_asc,
        gap_ratio=gap,
        rank_tol=rank_tol,
    )


def _family_design_matrix(sd: SpectralData, basis: HermitianBasis) -> np.ndarray:
    """Coordinates of the family's generating directions, one column each.

    Directions are d M / d mu_i and the two real directions of each tau_s,
    i.e. S^dagger B S for B a diagonal unit, a pair sigma_x block or a
    pair sigma_y block.
    """
    n = sd.n
    cols = []
    Sd = sd.S.conj().T
    for i in range(sd.r):
        B = np.zeros((n, n), dtype=np.complex128)
        B[i, i] = 1.0
        cols.append(hermitian_coords(basis, Sd @ B @ sd.S))
    for s_idx in range(sd.p):
        k = sd.r + 2 * s_idx
        Bx = np.zeros((n, n), dtype=np.complex128)
        Bx[k, k + 1] = 1.0
        Bx[k + 1, k] = 1.0
        cols.append(hermitian_coords(basis, Sd @ Bx @ sd.S))
        By = np.zeros((n, n), dtype=np.complex128)
        By[k, k + 1] = -1.0j
        By[k + 1, k] = 1.0j
        cols.append(hermitian_coords(basis, Sd @ By @ sd.S))
    return np.stack(cols, axis=1)


def family_vs_kernel(
    sd: SpectralData,
    report: KernelReport,
    n_samples: int = 10,
    seed: int = 0,
    defect_tol: float = 1e-8,
    basis: HermitianBasis | None = None,
) -> FamilyKernelMatch:
    """Check that the parametrized family and the kernel span the same space.

    Both inclusions are tested: random family members must project into
    the kernel span with negligible defect, and every kernel basis
    element must be reproduced by a least-squares fit of the family
    parameters. A kernel dimension different from r + 2p aborts with an
    error, since the family then cannot possibly be complete. ``basis``,
    if given, must be ``hermitian_basis(sd.n)``, e.g. the one passed to
    :func:`solution_space`.
    """
    from .generators import random_parameters  # deferred: generators imports metrics

    n = sd.n
    if report.dimension != n:
        raise FamilyMismatchError(
            f"kernel dimension {report.dimension} != r + 2p = {n}; the "
            "spectrum may be (near-)degenerate or the input inadmissible"
        )
    if basis is None:
        basis = hermitian_basis(n)
    if basis.n != n:
        raise DimensionError(f"basis dimension {basis.n} does not match matrix {n}")
    K = np.stack([hermitian_coords(basis, B) for B in report.basis])

    rng_seed = seed
    max_proj = 0.0
    for k in range(n_samples):
        params = random_parameters(sd.r, sd.p, seed=rng_seed + k)
        x = hermitian_coords(basis, build_M(sd, params).M)
        defect = np.linalg.norm(x - K.T @ (K @ x)) / np.linalg.norm(x)
        max_proj = max(max_proj, float(defect))

    A = _family_design_matrix(sd, basis)
    max_rec = 0.0
    for B in report.basis:
        y = hermitian_coords(basis, B)
        c, *_ = np.linalg.lstsq(A, y, rcond=None)
        defect = np.linalg.norm(A @ c - y) / np.linalg.norm(y)
        max_rec = max(max_rec, float(defect))

    return FamilyKernelMatch(
        max_projection_defect=max_proj,
        max_recovery_defect=max_rec,
        params_recovered=bool(max_rec <= defect_tol),
    )
