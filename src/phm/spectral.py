"""Eigendecomposition and spectrum classification.

Given a diagonalizable complex square matrix H with non-degenerate
spectrum, this module splits the eigenvalues into r real values and p
conjugate pairs (r + 2p = n), orders them deterministically (reals
ascending, then pairs with the positive-imaginary member first, sorted by
real then imaginary part), and builds the row-eigenvector matrix S with
H = S^-1 diag(lam) S. Everything downstream (metric construction, the
brute-force solution-space check) consumes the resulting
:class:`SpectralData`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClassificationError,
    DegenerateSpectrumError,
    IllConditionedError,
    NumericError,
)
from .matrices import as_square_matrix, frobenius, lock

# Components below this fraction of a unit vector's norm are treated as zero
# when fixing the column phase gauge.
_GAUGE_EPS = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances for the classification pipeline.

    Double-precision eigensolvers deliver ~1e-12 on well-conditioned
    problems of dimension <= 100; the 1e-8 defaults leave headroom.
    Beyond ``cond_cap`` we refuse to build metrics rather than return
    garbage.
    """

    eps_real: float = 1e-8
    eps_pair: float = 1e-8
    gap_tol: float = 1e-8
    cond_cap: float = 1e8


@dataclass(frozen=True)
class AdmissibilityReport:
    """Result of the real-characteristic-polynomial check."""

    is_ph: bool
    max_imag_coeff: float


@dataclass(frozen=True)
class RawEigenpairs:
    """Unordered eigenpairs straight from the dense solver.

    ``matrix`` is the H they were computed from. ``residual`` is
    ||H V - V diag(values)||_F / ||H||_F and ``min_singular_value`` is the
    smallest singular value of V (zero means the eigenvectors do not span),
    both computed on access.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        lock(self.values)
        lock(self.right_vectors)
        lock(self.matrix)

    @property
    def residual(self) -> float:
        H, V = self.matrix, self.right_vectors
        nh = frobenius(H)
        res = frobenius(H @ V - V * self.values[np.newaxis, :])
        return res / nh if nh > 0 else res

    @property
    def min_singular_value(self) -> float:
        return float(np.linalg.svd(self.right_vectors, compute_uv=False)[-1])


@dataclass(frozen=True)
class SpectrumClassification:
    """Partition of eigenvalue indices into real singles and conjugate pairs.

    ``real_indices`` are sorted by eigenvalue real part; ``pair_indices``
    holds (j_plus, j_minus) with Im values[j_plus] > 0, sorted by the pair
    representative (Re, Im).
    """

    real_indices: tuple[int, ...]
    pair_indices: tuple[tuple[int, int], ...]
    eps_real: float
    eps_pair: float

    @property
    def r(self) -> int:
        return len(self.real_indices)

    @property
    def p(self) -> int:
        return len(self.pair_indices)


@dataclass(frozen=True)
class SpectralData:
    """Ordered eigendecomposition H = S^-1 diag(lam) S.

    ``lam`` is ordered reals-first (ascending), then conjugate pairs
    (z, z*) with Im z > 0, pairs sorted by (Re z, Im z). ``sym_shift``
    reports how far the raw eigenvalues were moved to make the pairs
    exact conjugates and the real values exactly real. ``matrix`` is the
    H this decomposition was built from.
    """

    matrix: np.ndarray
    lam: np.ndarray
    S: np.ndarray
    r: int
    p: int
    min_gap: float
    cond_S: float
    sym_shift: float = 0.0

    def __post_init__(self):
        lock(self.matrix)
        lock(self.lam)
        lock(self.S)

    @property
    def n(self) -> int:
        return self.lam.shape[0]


def _scale(values: np.ndarray) -> float:
    s = float(np.max(np.abs(values))) if values.size else 0.0
    return s if s > 0.0 else 1.0


def check_ph_admissible(
    H, tol: float = 1e-8, eigenpairs: RawEigenpairs | None = None
) -> AdmissibilityReport:
    """Check that the characteristic polynomial has real coefficients.

    The coefficients are computed in product form from the eigenvalues;
    the report carries the largest imaginary part relative to the largest
    coefficient magnitude. A matrix similar to its own adjoint (the
    defining property of a pseudo-hermitian matrix) passes this check.
    ``eigenpairs``, if given, must be ``eigendecompose(H)``; it saves
    diagonalizing H again.
    """
    if eigenpairs is None:
        eigenpairs = eigendecompose(H)
    coeffs = np.poly(eigenpairs.values)  # monic, so max |coeff| >= 1
    scale = float(np.max(np.abs(coeffs)))
    max_imag = float(np.max(np.abs(coeffs.imag))) / scale
    return AdmissibilityReport(is_ph=bool(max_imag <= tol), max_imag_coeff=max_imag)


def eigendecompose(H) -> RawEigenpairs:
    """Dense nonsymmetric eigendecomposition, H V ~ V diag(values)."""
    H = as_square_matrix(H, name="H")
    try:
        values, vectors = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    return RawEigenpairs(values=values, right_vectors=vectors, matrix=H)


def classify_spectrum(
    values, eps_real: float = 1e-8, eps_pair: float = 1e-8
) -> SpectrumClassification:
    """Split eigenvalues into real singles and complex-conjugate pairs.

    An eigenvalue with |Im| <= eps_real * scale counts as real. Each
    remaining value with positive imaginary part is greedily matched to
    the unmatched value closest to its conjugate (ties prefer the smaller
    index); the match is accepted only within eps_pair * scale. Failure to
    pair everything means the input is not pseudo-hermitian admissible at
    these tolerances.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 1:
        raise ClassificationError(f"expected a 1-d value list, got shape {values.shape}")
    scale = _scale(values)

    real_idx = [k for k in range(values.size) if abs(values[k].imag) <= eps_real * scale]
    real_set = set(real_idx)
    pos = [k for k in range(values.size) if k not in real_set and values[k].imag > 0]
    neg = [k for k in range(values.size) if k not in real_set and values[k].imag < 0]

    if len(pos) != len(neg):
        raise ClassificationError(
            f"odd split of non-real eigenvalues ({len(pos)} with Im>0, "
            f"{len(neg)} with Im<0); spectrum is not conjugation-symmetric "
            f"at eps_real={eps_real:.1e}"
        )

    pairs: list[tuple[int, int]] = []
    unmatched = list(neg)
    for j in pos:
        target = values[j].conjugate()
        dists = [abs(values[k] - target) for k in unmatched]
        best = int(np.argmin(dists))  # argmin takes the first (smallest index) on ties
        if dists[best] > eps_pair * scale:
            raise ClassificationError(
                f"eigenvalue {values[j]} has no conjugate partner within "
                f"{eps_pair:.1e} * {scale:.3e} (closest miss {dists[best]:.3e})"
            )
        pairs.append((j, unmatched[best]))
        del unmatched[best]

    real_idx.sort(key=lambda k: values[k].real)

    def pair_key(jk: tuple[int, int]) -> tuple[float, float]:
        z = (values[jk[0]] + values[jk[1]].conjugate()) / 2.0
        return (z.real, z.imag)

    pairs.sort(key=pair_key)
    return SpectrumClassification(
        real_indices=tuple(real_idx),
        pair_indices=tuple(pairs),
        eps_real=eps_real,
        eps_pair=eps_pair,
    )


def assert_nondegenerate(values, gap_tol: float = 1e-8) -> float:
    """Return the smallest pairwise eigenvalue distance; reject degeneracy.

    The block structure of the metric family relies on every pair of
    eigenvalues being distinct, so a gap at or below gap_tol * scale is an
    error naming the offending pair.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.size < 2:
        return math.inf
    diff = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(diff, np.inf)
    k, l = np.unravel_index(np.argmin(diff), diff.shape)
    min_gap = float(diff[k, l])
    if min_gap <= gap_tol * _scale(values):
        raise DegenerateSpectrumError(
            f"eigenvalues {values[k]} (index {k}) and {values[l]} (index {l}) "
            f"are separated by {min_gap:.3e} <= {gap_tol:.1e} * scale"
        )
    return min_gap


def _fix_column_gauge(v: np.ndarray) -> np.ndarray:
    """Normalize to unit norm with the first nonzero component real positive."""
    v = v / np.linalg.norm(v)
    nz = np.flatnonzero(np.abs(v) > _GAUGE_EPS)
    k = int(nz[0]) if nz.size else 0
    phase = v[k] / abs(v[k]) if abs(v[k]) > 0 else 1.0
    v = v / phase
    return v / np.linalg.norm(v)


def build_spectral_data(
    H,
    classification: SpectrumClassification,
    eigenpairs: RawEigenpairs,
    cond_cap: float = 1e8,
) -> SpectralData:
    """Order, symmetrize and gauge-fix the raw eigendecomposition.

    Eigenvector columns are permuted into the canonical order, each is
    scaled to unit norm with its first nonzero component made real
    positive (a deterministic choice of the per-eigenvector scaling
    freedom), and S is the inverse of the resulting column matrix.
    Matched pairs are replaced by exact conjugates (z, z*) and real values
    by their real parts; the size of that adjustment is reported as
    ``sym_shift``, never applied silently.
    """
    H = as_square_matrix(H, name="H")
    values = eigenpairs.values
    n = values.size
    if classification.r + 2 * classification.p != n:
        raise ClassificationError(
            f"classification covers {classification.r + 2 * classification.p} "
            f"indices but the spectrum has {n}"
        )

    perm: list[int] = []
    lam = np.empty(n, dtype=np.complex128)
    shift = 0.0
    pos = 0
    for k in classification.real_indices:
        lam[pos] = values[k].real
        shift = max(shift, abs(values[k].imag))
        perm.append(k)
        pos += 1
    for j_plus, j_minus in classification.pair_indices:
        z = (values[j_plus] + values[j_minus].conjugate()) / 2.0
        shift = max(shift, abs(values[j_plus] - z), abs(values[j_minus] - z.conjugate()))
        lam[pos] = z
        lam[pos + 1] = z.conjugate()
        perm.extend((j_plus, j_minus))
        pos += 2

    V = eigenpairs.right_vectors[:, perm].copy()
    for c in range(n):
        V[:, c] = _fix_column_gauge(V[:, c])

    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > cond_cap:
        raise IllConditionedError(
            f"diagonalizer condition number {cond:.3e} exceeds cap {cond_cap:.1e}"
        )
    try:
        S = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"eigenvector matrix is singular: {exc}") from exc

    min_gap = assert_nondegenerate(lam, gap_tol=0.0)
    return SpectralData(
        matrix=H,
        lam=lam,
        S=S,
        r=classification.r,
        p=classification.p,
        min_gap=min_gap,
        cond_S=cond,
        sym_shift=shift,
    )


def decompose(
    H, tol: Tolerances = Tolerances(), eigenpairs: RawEigenpairs | None = None
) -> SpectralData:
    """Full pipeline: eigendecompose, classify, reject degeneracy, order.

    Raises :class:`ClassificationError`, :class:`DegenerateSpectrumError`
    or :class:`IllConditionedError` when the input falls outside the
    supported class (non-admissible, degenerate, or numerically hopeless).
    ``eigenpairs``, if given, must be ``eigendecompose(H)``; it saves
    diagonalizing H again.
    """
    H = as_square_matrix(H, name="H")
    eig = eigendecompose(H) if eigenpairs is None else eigenpairs
    cls = classify_spectrum(eig.values, eps_real=tol.eps_real, eps_pair=tol.eps_pair)
    assert_nondegenerate(eig.values, gap_tol=tol.gap_tol)
    return build_spectral_data(H, cls, eig, cond_cap=tol.cond_cap)


def biorthogonality_check(sd: SpectralData) -> float:
    """Largest relative left-eigenvector residual of the rows of S.

    H = S^-1 diag(lam) S makes row k of S a left eigenvector for lam_k,
    S_k H = lam_k S_k, so this returns
    max_k ||S_k H - lam_k S_k|| / (||H||_F ||S_k||), 0 for H = 0.
    """
    R = sd.S @ sd.matrix - sd.lam[:, np.newaxis] * sd.S
    rel = np.linalg.norm(R, axis=1) / np.linalg.norm(sd.S, axis=1)
    h = frobenius(sd.matrix)
    return float(np.max(rel)) / h if h else 0.0
