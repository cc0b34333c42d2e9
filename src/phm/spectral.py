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

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ClassificationError, DegenerateSpectrumError, IllConditionedError, NumericError, PhmError
from .matrices import as_square_matrix, lock, times_power_of_two, unit_exponent, unit_scaled

# Components below this fraction of a unit vector's norm are treated as zero
# when fixing the column phase gauge.
_GAUGE_EPS = 1e-12

DEFAULT_TOL = 1e-8  # the default relative classification and degeneracy tolerance

# The SVD's singular values are off by about n eps sigma_max, so below this
# norm bound on the condition number its cond(V) stays within a few percent
# of the bound for n up to 1e4; above it, cond(V) may even read inf.
_TRUSTED_BOUND = 1e10


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances for the classification pipeline.

    Double-precision eigensolvers deliver ~1e-12 on well-conditioned
    problems of dimension <= 100; the DEFAULT_TOL defaults leave headroom.
    Beyond ``cond_cap`` we refuse to build metrics rather than return
    garbage.
    """

    eps_real: float = DEFAULT_TOL
    eps_pair: float = DEFAULT_TOL
    gap_tol: float = DEFAULT_TOL
    cond_cap: float = 1e8


@dataclass(frozen=True)
class RawEigenpairs:
    """Unordered eigenpairs straight from the dense solver.

    ``matrix`` is the H they were computed from.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        lock(self.values)
        lock(self.right_vectors)
        lock(self.matrix)


@dataclass(frozen=True)
class SpectrumClassification:
    """Partition of eigenvalue indices into real singles and conjugate pairs.

    ``real_indices`` are sorted by eigenvalue real part; ``pair_indices``
    holds (j_plus, j_minus) with Im values[j_plus] > 0, sorted by the pair
    representative (Re, Im).
    """

    real_indices: tuple[int, ...]
    pair_indices: tuple[tuple[int, int], ...]

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

    ``cond_S`` is the diagonalizer's 2-norm condition number:
    ``known_cond`` when that is given, else ``np.linalg.cond(V)``, an SVD
    of the eigenvector matrix ``V`` that S inverts, run when ``cond_S`` is
    first read.
    """

    matrix: np.ndarray
    lam: np.ndarray
    S: np.ndarray
    r: int
    p: int
    min_gap: float
    known_cond: float | None
    sym_shift: float = 0.0
    V: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        lock(self.matrix)
        lock(self.lam)
        lock(self.S)
        if self.V is not None:
            lock(self.V)

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    @functools.cached_property
    def cond_S(self) -> float:
        return self.known_cond if self.known_cond is not None else float(np.linalg.cond(self.V))


def _scale(values: np.ndarray) -> float:
    s = float(np.max(np.abs(values))) if values.size else 0.0
    return s if s > 0.0 else 1.0


def check_ph_admissible(H, eigenpairs: RawEigenpairs | None = None) -> float:
    """The conjugation defect of H's spectrum: max_i min_j |lam_j - conj lam_i| / max|lam|.

    0 when conjugation maps the spectrum onto itself; its distances are the
    ones classification measures (2 |Im z| for a real, the miss for a pair).
    ``analyze`` reports it when classification refuses; nothing gates on it.
    It is taken at unit scale, so no distance overflows. ``eigenpairs``, if
    given, must be ``eigendecompose(H)``; it saves diagonalizing H again.
    """
    eig = eigendecompose(H) if eigenpairs is None else eigenpairs
    values = unit_scaled(eig.values)
    dist = _conjugate_distances(values, np.arange(values.size))
    return float(np.max(np.min(dist, axis=1))) / _scale(values)


def eigendecompose(H) -> RawEigenpairs:
    """Dense nonsymmetric eigendecomposition, H V ~ V diag(values)."""
    H = as_square_matrix(H, name="H")
    try:
        values, vectors = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    return RawEigenpairs(values=values, right_vectors=vectors, matrix=H)


def classify_spectrum(
    values, eps_real: float = DEFAULT_TOL, eps_pair: float = DEFAULT_TOL
) -> SpectrumClassification:
    """Split eigenvalues into real singles and complex-conjugate pairs.

    The reals are the fixed points of conjugation: z counts as real when
    |Im z| <= eps_real * scale and no other eigenvalue lies closer to
    conj z than z does (a tie counts as real). Each remaining value with
    positive imaginary part is greedily matched to the unmatched value
    closest to its conjugate (ties prefer the smaller index); the match is
    accepted only within eps_pair * scale. Failure to pair everything
    means the input is not pseudo-hermitian admissible at these tolerances.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 1:
        raise ClassificationError(f"expected a 1-d value list, got shape {values.shape}")
    scale = _scale(values)
    im = np.abs(values.imag)
    near = np.flatnonzero(im <= eps_real * scale)
    closer = _conjugate_distances(values, near) < 2 * im[near, np.newaxis]  # 2 |Im z| = |z - conj z|
    fixed = set(near[~closer.any(axis=1)].tolist())
    # Python complex: the same IEEE arithmetic and hypot as numpy's scalars, at a
    # fraction of their per-element cost
    vals = values.tolist()

    real_idx: list[int] = []
    pos: list[int] = []
    neg: list[int] = []
    for k, z in enumerate(vals):
        if k in fixed:
            real_idx.append(k)
        elif z.imag > 0:
            pos.append(k)
        elif z.imag < 0:
            neg.append(k)

    if len(pos) != len(neg):
        raise ClassificationError(
            f"odd split of non-real eigenvalues ({len(pos)} with Im>0, "
            f"{len(neg)} with Im<0); spectrum is not conjugation-symmetric "
            f"at eps_real={eps_real:.1e}"
        )

    pairs: list[tuple[int, int]] = []
    unmatched = list(neg)
    for j in pos:
        target = vals[j].conjugate()
        dists = [_modulus(vals[k] - target) for k in unmatched]
        best = _argmin(dists)
        if dists[best] > eps_pair * scale:
            raise ClassificationError(
                f"eigenvalue {values[j]} has no conjugate partner within "
                f"{eps_pair:.1e} * {scale:.3e} (closest miss {dists[best]:.3e})"
            )
        pairs.append((j, unmatched[best]))
        del unmatched[best]

    real_idx.sort(key=lambda k: vals[k].real)

    def pair_key(jk: tuple[int, int]) -> tuple[float, float]:
        z = _midpoint(vals[jk[0]], vals[jk[1]])
        return (z.real, z.imag)

    pairs.sort(key=pair_key)
    return SpectrumClassification(real_indices=tuple(real_idx), pair_indices=tuple(pairs))


def _conjugate_distances(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|values[j] - conj values[i]|, a row per i in ``rows`` and a column per j.

    ``np.hypot`` gives the bits of ``abs`` of a numpy complex scalar, and
    inf past the float range.
    """
    with np.errstate(over="ignore"):
        d = values[np.newaxis, :] - values[rows].conj()[:, np.newaxis]
        return np.hypot(d.real, d.imag)


def _modulus(z: complex) -> float:
    """|z| by C ``hypot``, as numpy's complex scalars compute it.

    Python's ``abs`` raises OverflowError where that modulus overflows;
    numpy returns inf, and so does this.
    """
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _argmin(xs: list[float]) -> int:
    """``np.argmin``'s rule on a list: the first NaN, else the first smallest entry."""
    best = 0
    for k, x in enumerate(xs):
        if x != x:
            return k
        if x < xs[best]:
            best = k
    return best


def _midpoint(a: complex, b: complex) -> complex:
    """(a + conj b) / 2, the bits numpy's complex scalars give.

    numpy divides by 2 as by the complex 2+0j (Smith's algorithm); so does
    Python's complex division by a complex divisor, while a real divisor
    divides each part on its own from Python 3.14.
    """
    return (a + b.conjugate()) / (2 + 0j)


def assert_nondegenerate(values, gap_tol: float = DEFAULT_TOL) -> float:
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


def _column_norms(V: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every column of V, to the bit.

    ``norm`` of a complex vector is the square root of two BLAS dots over
    the stride-2 real and imaginary views of its contiguous copy. The
    rows of ``V.T`` in C order give the same dots with the same strides;
    stacked 1 x n @ n x 1 products run one dot each. A contiguous copy of
    the real parts goes through a different BLAS kernel and does not give
    the same bits.
    """
    X = np.ascontiguousarray(V.T)
    re, im = X.real[:, np.newaxis, :], X.imag[:, np.newaxis, :]
    sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return np.sqrt(sq[:, 0, 0])


def _fix_column_gauge(V: np.ndarray) -> None:
    """Scale each column of V in place to unit norm, first nonzero component real positive.

    Each column is divided by the phase (entry over modulus) of its first
    component above ``_GAUGE_EPS`` after normalizing, component 0 if none
    is, and normalized again. Every step is the arithmetic of
    one column at a time, done for all columns at once: the threshold test
    keeps the array ``np.abs`` and the modulus is ``np.hypot``, which is
    ``abs`` of a numpy complex scalar (array ``np.abs`` is not, in the last
    bit).
    """
    V /= _column_norms(V)
    cols = np.arange(V.shape[1])
    lead = V[(np.abs(V) > _GAUGE_EPS).argmax(axis=0), cols]
    size = np.hypot(lead.real, lead.imag)
    V /= np.divide(lead, size, out=np.ones_like(lead), where=size > 0)
    V /= _column_norms(V)


def build_spectral_data(
    classification: SpectrumClassification,
    eigenpairs: RawEigenpairs,
    tol: Tolerances = Tolerances(),
) -> SpectralData:
    """Order, symmetrize, gap-check and gauge-fix the raw eigendecomposition.

    Matched pairs are replaced by exact conjugates (z, z*) and real values
    by their real parts (``sym_shift`` reports how far, never applied
    silently); :func:`assert_nondegenerate` judges that spectrum against
    ``tol.gap_tol`` and gives ``min_gap``. Eigenvector columns are permuted
    into the canonical order, each is scaled to unit norm with its first
    nonzero component made real positive (a deterministic choice of the
    per-eigenvector scaling freedom), and S is the inverse of the resulting
    column matrix V, refused when ``np.linalg.cond(V)`` exceeds
    ``tol.cond_cap``. That SVD runs here only when V is singular or the
    norm bound of :func:`_cond_bound` is not under half the cap; otherwise
    ``cond_S`` runs it when read. ``matrix`` is ``eigenpairs.matrix``.
    """
    n = eigenpairs.values.size
    if classification.r + 2 * classification.p != n:
        raise ClassificationError(
            f"classification covers {classification.r + 2 * classification.p} "
            f"indices but the spectrum has {n}"
        )

    vals = eigenpairs.values.tolist()
    perm = list(classification.real_indices)
    lam = [vals[k].real for k in perm]
    shift = max((abs(vals[k].imag) for k in perm), default=0.0)
    for j_plus, j_minus in classification.pair_indices:
        z = _midpoint(vals[j_plus], vals[j_minus])
        shift = max(shift, _modulus(vals[j_plus] - z), _modulus(vals[j_minus] - z.conjugate()))
        lam += (z, z.conjugate())
        perm += (j_plus, j_minus)
    lam = np.array(lam, dtype=np.complex128)
    min_gap = assert_nondegenerate(lam, gap_tol=tol.gap_tol)

    V = eigenpairs.right_vectors[:, perm]  # a copy
    _fix_column_gauge(V)

    try:
        S = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        _capped_cond(V, tol.cond_cap)  # the cap's refusal comes first
        raise IllConditionedError(f"eigenvector matrix is singular: {exc}") from exc
    # np.linalg.cond(V) <= bound (1 + O(n eps bound)): half the cap leaves room
    # for that rounding while the bound is under _TRUSTED_BOUND; NaN and inf fail
    bound = _cond_bound(V, S)
    cond = None if bound < min(tol.cond_cap / 2, _TRUSTED_BOUND) else _capped_cond(V, tol.cond_cap)
    return SpectralData(
        matrix=eigenpairs.matrix,
        lam=lam,
        S=S,
        r=classification.r,
        p=classification.p,
        min_gap=min_gap,
        known_cond=cond,
        sym_shift=shift,
        V=V,
    )


def _capped_cond(V: np.ndarray, cap: float) -> float:
    """``np.linalg.cond(V)``, refused when it is not finite or exceeds ``cap``."""
    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > cap:
        raise IllConditionedError(f"diagonalizer condition number {cond:.3e} exceeds cap {cap:.1e}")
    return cond


def _cond_bound(V: np.ndarray, S: np.ndarray) -> float:
    """sqrt(|V|_1 |V|_inf |S|_1 |S|_inf), at least |V|_2 |S|_2 since
    |A|_2 <= sqrt(|A|_1 |A|_inf): with S = V^-1, a bound on V's condition
    number from four absolute sums. inf or NaN when S overflowed."""
    product = 1.0
    with np.errstate(all="ignore"):
        for A in (V, S):
            a = np.abs(A)
            product *= float(a.sum(axis=0).max()) * float(a.sum(axis=1).max())
    return math.sqrt(product)


def decompose(
    H, tol: Tolerances = Tolerances(), eigenpairs: RawEigenpairs | None = None
) -> SpectralData:
    """Full pipeline: eigendecompose, classify, then :func:`build_spectral_data`.

    Raises :class:`ClassificationError`, :class:`DegenerateSpectrumError`
    or :class:`IllConditionedError` when the input falls outside the
    supported class (non-admissible, degenerate, or numerically hopeless),
    in that order of precedence. ``eigenpairs``, if given, must be
    ``eigendecompose(H)``; it saves validating and diagonalizing H again.

    Eigenvalues whose largest |Re| or |Im| lies outside [2**-500, 2**500)
    are classified, gap-checked and ordered at unit scale (times a power of
    two), so no modulus or gap overflows; ``lam``, ``min_gap`` and
    ``sym_shift`` are scaled back exactly (inf past the float range). A
    unit-scale refusal is raised from the input's scale when that refuses
    with the same error class, so its message quotes the input's figures.
    """
    eig = eigendecompose(H) if eigenpairs is None else eigenpairs
    k = unit_exponent(eig.values, keep=500)
    unit = RawEigenpairs(times_power_of_two(eig.values, -k), eig.right_vectors, eig.matrix) if k else eig

    def build(e: RawEigenpairs) -> SpectralData:
        return build_spectral_data(classify_spectrum(e.values, tol.eps_real, tol.eps_pair), e, tol)

    try:
        sd = build(unit)
    except (ClassificationError, DegenerateSpectrumError) as exc:
        if k:
            try:
                with np.errstate(all="ignore"):
                    build(eig)
            except type(exc) as same:
                raise same from None
            except PhmError:
                pass
        raise
    if not k:
        return sd
    with np.errstate(over="ignore"):
        lam, gap, shift = times_power_of_two(sd.lam, k), np.ldexp(sd.min_gap, k), np.ldexp(sd.sym_shift, k)
    return replace(sd, lam=lam, min_gap=float(gap), sym_shift=float(shift))
