"""Brute-force solution space of the intertwining equation.

Independent cross-check of the parametrized family: the equation
H^dagger M = M H is real-linear in the hermitian unknown M, so expanding
M over a trace-orthonormal hermitian basis turns it into a real
n^2 x n^2 linear system L x = 0 whose nullspace is the space of all
compatible metrics. The rank is decided on the singular values of L
alone (no singular vectors are formed); the kernel basis comes from two
steps of inverse iteration on L^T L through the triangular factor of a
Householder QR of L. The kernel is compared against the family both
ways on n family members (the members project into the kernel; kernel
elements are reproduced by least-squares combinations of the members),
and that two-way check certifies the basis. The kernel, from L alone,
shares no code with the family construction; the members it is compared
with are not independent, they are built by that construction
(:func:`phm.metrics.family_member`), the only one the oracle reads.
A desk-scale verifier, capped at n <= 32.

Costs: coordinates are read and written by index, so a request never
forms the (n^2, n, n) basis tensor nor any kernel matrix. L is assembled
from its about 4 n^3 nonzeros into a dense n^2 x n^2 real array, O(n^4)
memory. Its singular values and its QR factor, O(n^6) time each, are the
expensive steps; no n^2 x n^2 singular-vector factor is built, and the
triangular solves factor no n^2 x n^2 matrix (blocks of at most 64 rows
plus matrix products, O(n^4 dim) time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, EnumerationCapError, FamilyMismatchError
from .generators import random_parameters
from .matrices import as_square_matrix, lock, times_power_of_two, unit_exponent
from .metrics import family_member
from .spectral import SpectralData

ORACLE_DIM_CAP = 32
RANK_TOL = 1e-8  # kernel: singular values at most RANK_TOL times the largest (floored)
_SOLVE_LEAF_ROWS = 64  # _solve_upper hands blocks this small to np.linalg.solve
RANK_GAP_WARN = 10.0
MATCH_DEFECT_TOL = 1e-8  # largest family/kernel span defect accepted
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class KernelReport:
    """Numerical nullspace of the linearized intertwining operator.

    ``singular_values`` are those of the operator matrix, ascending, from
    a values-only SVD; ``dimension`` counts the ones at or below the rank
    cut of :func:`solution_space`. ``gap_ratio`` is the ratio of the first
    kept to the last discarded singular value, a confidence proxy for the
    rank decision (below RANK_GAP_WARN the rank is flagged ambiguous, as a
    warning rather than an error). ``coords`` are the rows of an
    orthonormal kernel basis over the ordering of :func:`hermitian_basis`,
    found by inverse iteration (see :func:`solution_space`).
    """

    dimension: int
    coords: np.ndarray  # shape (dimension, n*n), orthonormal rows
    singular_values: np.ndarray
    gap_ratio: float

    def __post_init__(self):
        lock(self.coords)
        lock(self.singular_values)

    @cached_property
    def basis(self) -> np.ndarray:
        """The kernel as hermitian matrices, shape (dimension, n, n), built on first access."""
        return lock(matrix_from_coords(self.coords))

    @property
    def rank_ambiguous(self) -> bool:
        return self.gap_ratio < RANK_GAP_WARN


@dataclass(frozen=True)
class FamilyKernelMatch:
    """Mutual-span comparison between the family and the kernel."""

    max_projection_defect: float
    max_recovery_defect: float
    params_recovered: bool


def hermitian_basis(n: int) -> np.ndarray:
    """The n^2-element trace-orthonormal hermitian basis, shape (n*n, n, n).

    Ordering: diagonal units first, then for each index pair k < l (in
    ``np.triu_indices`` order) the symmetric element
    (e_k e_l^T + e_l e_k^T)/sqrt(2) followed by the antisymmetric element
    i (e_k e_l^T - e_l e_k^T)/sqrt(2). The oracle works by index on this
    ordering and never builds the tensor (1 <= n <= ORACLE_DIM_CAP).
    """
    if n < 1:
        raise DimensionError("basis dimension must be >= 1")
    _check_cap(n)
    return lock(matrix_from_coords(np.eye(n * n)))


def _check_cap(n: int) -> None:
    if n > ORACLE_DIM_CAP:
        raise EnumerationCapError(f"dense solve is capped at n <= {ORACLE_DIM_CAP}, got n = {n}")


def hermitian_coords(M) -> np.ndarray:
    """Real coordinates Re Tr(E_a M), read by index; M may be a stack (..., n, n).

    For hermitian M these are its expansion coefficients over the basis.
    """
    M = np.asarray(M, dtype=np.complex128)
    n = M.shape[-1]
    k, l = np.triu_indices(n, 1)
    upper, lower = M[..., k, l], M[..., l, k]
    x = np.empty(M.shape[:-2] + (n * n,))
    x[..., :n] = M.diagonal(axis1=-2, axis2=-1).real
    x[..., n::2] = (upper.real + lower.real) * _INV_SQRT2
    x[..., n + 1 :: 2] = (upper.imag - lower.imag) * _INV_SQRT2
    return x


def matrix_from_coords(x) -> np.ndarray:
    """Reassemble sum_a x_a E_a, exactly hermitian; x may be a stack (..., n*n)."""
    x = np.asarray(x, dtype=np.float64)
    n = math.isqrt(x.shape[-1])
    if n * n != x.shape[-1]:
        raise DimensionError(f"{x.shape[-1]} coordinates are not n^2 for any integer n")
    k, l = np.triu_indices(n, 1)
    M = np.zeros(x.shape[:-1] + (n, n), dtype=np.complex128)
    M[..., np.arange(n), np.arange(n)] = x[..., :n]
    z = (x[..., n::2] + 1j * x[..., n + 1 :: 2]) * _INV_SQRT2
    M[..., k, l] = z
    M[..., l, k] = z.conj()
    return M


def intertwining_operator_matrix(H) -> np.ndarray:
    """Real matrix of M -> -i (H^dagger M - M H) in hermitian coordinates.

    The image of a hermitian matrix is hermitian again, so column b holds
    the coordinates of -i (H^dagger E_b - E_b H). Metrics compatible with
    H are exactly the nullspace vectors.

    Assembled by index: E_b has at most two nonzero entries, and the image
    of a unit matrix e_r e_c^T is column r of -i H^dagger placed in column
    c plus row c of i H placed in row r. So L has about 4 n^3 nonzeros,
    which one ``np.bincount`` adds into a zeroed n^2 x n^2 array, in
    O(n^4) memory.
    """
    H = as_square_matrix(H, name="H")
    n = H.shape[0]
    _check_cap(n)
    N = n * n
    d = np.arange(n)
    k, l = np.triu_indices(n, 1)
    sym = n + 2 * np.arange(k.size)
    # the nonzero entries val at (row, col) of each basis element E_b
    b = np.concatenate([d, sym, sym, sym + 1, sym + 1])
    row = np.concatenate([d, k, l, k, l])
    col = np.concatenate([d, l, k, l, k])
    c = np.full(k.size, _INV_SQRT2)
    val = np.concatenate([np.ones(n), c, c, 1j * c, -1j * c])[:, None]
    # their images: n entries in column col, then n entries in row row,
    # at flat positions p * n + q
    img = np.concatenate([-1j * val * H.conj()[row], 1j * val * H[col]])
    at = np.concatenate([col[:, None] + n * d, n * row[:, None] + d])
    target = np.concatenate([b, b])[:, None]
    # read every image entry as hermitian_coords does: Re into the diagonal
    # or symmetric coordinate, Im into the antisymmetric one
    re_slot = np.empty((n, n), dtype=np.intp)
    re_slot[d, d] = d
    re_slot[k, l] = re_slot[l, k] = sym
    im_slot = re_slot + 1
    im_slot[d, d] = 0  # weight 0 there
    re_w = np.full((n, n), _INV_SQRT2)
    re_w[d, d] = 1.0
    im_w = np.zeros((n, n))
    im_w[k, l], im_w[l, k] = _INV_SQRT2, -_INV_SQRT2
    flat = np.concatenate([re_slot.take(at) * N + target, im_slot.take(at) * N + target])
    weights = np.concatenate([re_w.take(at) * img.real, im_w.take(at) * img.imag])
    return np.bincount(flat.ravel(), weights=weights.ravel(), minlength=N * N).reshape(N, N)


def _solve_upper(R, B):
    """Solve R X = B for an upper-triangular R with a nonzero diagonal, by halves.

    The lower-right half is solved first, the upper rows are updated by
    one matrix product, and blocks of at most _SOLVE_LEAF_ROWS rows go to
    ``np.linalg.solve``. Its partial pivoting finds only zeros below the
    diagonal of a triangular block, so it never swaps rows there.
    """
    m = R.shape[0]
    if m <= _SOLVE_LEAF_ROWS:
        return np.linalg.solve(R, B)
    h = m // 2
    X2 = _solve_upper(R[h:, h:], B[h:])
    X1 = _solve_upper(R[:h, :h], B[:h] - R[:h, h:] @ X2)
    return np.concatenate([X1, X2])


def solution_space(H) -> KernelReport:
    """All hermitian solutions of the intertwining equation.

    The kernel dimension is the number of singular values of the operator
    matrix L, from a values-only SVD, at or below the rank cut
    max(RANK_TOL sigma_max, n eps ||H||_F). The second term is L's
    rounding level (its entries are differences of entries of H), so an
    L of rounding alone, as for a 1 x 1 H, is not cut against itself.
    For a non-degenerate admissible matrix the dimension equals
    n = r + 2p, one real dimension per free family parameter.
    Degenerate spectra (outside the supported class, but useful for
    diagnostics) yield larger kernels. A kernel that is the whole space
    (every singular value at or below the cut) or empty is returned
    directly.

    Otherwise the basis is two steps of inverse iteration on
    L^T L = R^T R, R from a Householder QR of L with its columns in
    descending order of norm, and the kernel's rows put back in the
    unknowns' order. Without that order, zero columns (basis elements
    that commute with H) and exact dependences early in L floor more
    diagonal entries of R than the kernel has dimensions, and the
    iteration settles outside the kernel, as on [[1, 1], [0, 2]]. A
    block, first a seeded Gaussian one, is solved through R^T and R by
    :func:`_solve_upper` (the R^T solve on the upper-triangular view
    R^T[::-1, ::-1]) and orthonormalized. A step scales each right
    singular direction by 1 / sigma^2, so the kernel outgrows the rest by
    the square of the gap ratio. The kernel's own singular values are
    rounding spread over decades, so the first step stretches the block
    unevenly inside the kernel and leaves its weak directions with the
    rounding of the strong ones (2e-9 off the kernel on a generated n = 7
    matrix); the second, from an orthonormal block, removes that.
    :func:`family_vs_kernel` measures the span of the result.

    An H with largest |Re| or |Im| outside [2**-500, 2**500) is scaled to
    unit scale by a power of two first, so L cannot overflow; the kernel is
    the same, and the singular values are scaled back (inf past the range).

    R is scaled by a power of two to a largest singular value in
    [0.5, 1), which changes no bit of the result but keeps 1 / sigma^2,
    up to 1 / eps^2, finite at any scale of H. A kernel makes R singular,
    and a zero column of L (a basis element that commutes with H, as for
    any real diagonal H) makes a diagonal entry of R exactly 0, so every
    |R_kk| below eps times the largest singular value is raised to that
    value, a change no larger than the QR's own rounding error.
    """
    H = as_square_matrix(H, name="H")
    shift = unit_exponent(H, keep=500)
    H = times_power_of_two(H, -shift)
    L = intertwining_operator_matrix(H)
    s = np.linalg.svd(L, compute_uv=False)
    smax = float(s[0])
    eps = np.finfo(np.float64).eps
    fro = float(np.hypot.reduce(np.abs(H).ravel()))  # ||H||_F without overflow
    cut = max(RANK_TOL * smax, H.shape[0] * eps * fro)
    dim = int(np.sum(s <= cut))
    if dim == 0:
        coords = np.empty((0, s.size))
    elif dim == s.size:
        coords = np.eye(s.size)
    else:
        order = np.argsort(-np.einsum("ij,ij->j", L, L), kind="stable")  # by descending norm
        L = L[:, order]  # the old L is freed before the QR copies the new one
        R = np.linalg.qr(L, mode="r")
        mantissa, exponent = np.frexp(smax)
        np.ldexp(R, -exponent, out=R)  # sigma_max is now the mantissa, in [0.5, 1)
        floor = eps * float(mantissa)
        k = np.flatnonzero(np.abs(np.diagonal(R)) < floor)
        R[k, k] = floor
        X = np.random.Generator(np.random.Philox(0)).standard_normal((s.size, dim))
        for _ in range(2):
            Z = _solve_upper(R.T[::-1, ::-1], X[::-1])[::-1]
            X = np.linalg.qr(_solve_upper(R, Z))[0]
        coords = np.empty_like(X.T)
        coords[:, order] = X.T  # back to the unknowns' own order
    s_asc = s[::-1]
    if dim == 0 or dim == s_asc.size or s_asc[dim - 1] == 0.0:
        gap = np.inf
    else:
        gap = float(s_asc[dim] / s_asc[dim - 1])
    with np.errstate(over="ignore"):
        s_asc = np.ldexp(s_asc, shift)
    return KernelReport(dimension=dim, coords=coords, singular_values=s_asc, gap_ratio=gap)


def _max_relative_defect(defects: np.ndarray, vectors: np.ndarray, axis: int) -> float:
    ratios = np.linalg.norm(defects, axis=axis) / np.linalg.norm(vectors, axis=axis)
    return float(np.max(ratios, initial=0.0))


def family_vs_kernel(sd: SpectralData, report: KernelReport, seed: int = 0) -> FamilyKernelMatch:
    """Check that the parametrized family and the kernel span the same space.

    The family is read only through :func:`phm.metrics.family_member` (no
    inertia or residual is taken): n = r + 2p members at the parameters
    of ``random_parameters(r, p, seed + k)``, k < n, as many as the family
    has real parameters, so that in general position they span it (the
    recovery check measures whether they do). Both inclusions are tested on
    their coordinates X: every member must project into the kernel span
    with negligible defect, and every kernel basis element must be
    reproduced by a least-squares combination of the members (one
    ``lstsq`` over all of them). A kernel dimension different from n
    aborts with an error, since the family then cannot possibly be
    complete.
    """
    n = sd.n
    if report.dimension != n:
        raise FamilyMismatchError(
            f"kernel dimension {report.dimension} != r + 2p = {n}; the "
            "spectrum may be (near-)degenerate or the input inadmissible"
        )
    K = report.coords  # (n, n^2), orthonormal rows

    members = [family_member(sd, random_parameters(sd.r, sd.p, seed=seed + k)) for k in range(n)]
    X = hermitian_coords(np.reshape(members, (n, n, n)))
    max_proj = _max_relative_defect(X - (X @ K.T) @ K, X, axis=1)

    c, *_ = np.linalg.lstsq(X.T, K.T, rcond=None)
    max_rec = _max_relative_defect(X.T @ c - K.T, K.T, axis=0)

    return FamilyKernelMatch(
        max_projection_defect=max_proj,
        max_recovery_defect=max_rec,
        params_recovered=bool(max_rec <= MATCH_DEFECT_TOL),
    )
