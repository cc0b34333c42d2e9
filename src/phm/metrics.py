"""The metric family, its canonical form, inertia and class enumeration.

Every hermitian M with H^dagger M = M H, for H with r real eigenvalues
and p non-degenerate conjugate pairs, is M = S^dagger m S where m is
block-diagonal: one real number mu_i per real eigenvalue and one 2x2
block [[0, conj(tau)], [tau, 0]] per conjugate pair. Invertibility
requires every parameter nonzero. Each pair block has eigenvalues
+-|tau|, which pins the signature floor: at least p positive and p
negative metric eigenvalues, however the parameters are chosen.

The canonical ("unitary gauge") form of a class is the family member at
|mu| = |tau| = 1: mu = signs and tau = (-1)^n e^{i theta}, because the
pair rotation U(theta) has U^dagger (+-sigma_z) U = +-B(e^{i theta}). It
separates the signs and phases from the pure-gauge magnitudes, which can
be absorbed into the diagonalizer. The orientation bit is not separate
data: class (s, 1, theta) and class (s, 0, theta + pi) are the same
metric. So the connected components of the solution space are indexed by
the r signs alone, each a p-torus of phases times the magnitudes (the
torus tensored with a power of Z_2). :func:`enumerate_classes` lists the
sign and bit words modulo one global sign flip, 2**(r+p-1) of them: the
theta = 0 points, at tau = +-1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import (
    DimensionError,
    EnumerationCapError,
    NotSqhError,
    ParameterError,
)
from .matrices import (
    as_square_matrix,
    frobenius,
    hermitize,
    lock,
    require_hermitian,
    unit_scaled,
)
from .spectral import SpectralData

TWO_PI = 2.0 * math.pi

# exp(i pi/4 sigma_y): quarter turn taking the x axis onto the z axis.
_ROT_X_TO_Z = lock(np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=np.complex128) / math.sqrt(2.0))

MAX_LISTED_BITS = 20  # class_letters caps r + p, so at most 2**20 classes are listed
NULL_EIGENVALUE_TOL = 1e-10  # inertia_of_matrix's null cut, relative to max |eigenvalue|


@dataclass(frozen=True)
class MetricParameters:
    """Free parameters of the metric family: r reals and p complex numbers.

    All entries must be nonzero; singular metrics are out of scope, so
    :func:`build_M` also refuses an M that verify would call singular.
    """

    mu: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray([] if self.mu is None else self.mu, dtype=np.float64))
        tau = np.atleast_1d(np.asarray([] if self.tau is None else self.tau, dtype=np.complex128))
        if mu.ndim != 1 or tau.ndim != 1:
            raise ParameterError("mu and tau must be flat sequences")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(tau))):
            raise ParameterError("metric parameters must be finite")
        if np.any(mu == 0.0):
            raise ParameterError("every mu must be nonzero (metric would be singular)")
        if np.any(tau == 0.0):
            raise ParameterError("every tau must be nonzero (metric would be singular)")
        object.__setattr__(self, "mu", lock(mu))
        object.__setattr__(self, "tau", lock(tau))

    @property
    def r(self) -> int:
        return self.mu.shape[0]

    @property
    def p(self) -> int:
        return self.tau.shape[0]

    def negated(self) -> "MetricParameters":
        return MetricParameters(mu=-self.mu, tau=-self.tau)


@dataclass(frozen=True)
class CanonicalClass:
    """One point of the canonical solution space: signs, pair bits, phases.

    ``signs`` is the sign of each real-sector diagonal entry, ``n`` the
    orientation bit of each pair block (flipping +sigma_z to -sigma_z) and
    ``theta`` the phase of each pair block, in [0, 2pi). The global-flip
    quotient convention (first diagonal entry of the induced signature
    matrix equal to +1) applies to enumerated representatives, not to
    every instance; see :func:`enumerate_classes`.
    """

    signs: tuple[int, ...]
    n: tuple[int, ...]
    theta: tuple[float, ...]

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        bits = tuple(int(b) for b in self.n)
        theta = tuple(float(t) for t in self.theta)
        if any(s not in (-1, 1) for s in signs):
            raise ParameterError(f"signs must be +1 or -1, got {signs}")
        if any(b not in (0, 1) for b in bits):
            raise ParameterError(f"pair bits must be 0 or 1, got {bits}")
        if len(theta) != len(bits):
            raise ParameterError("need exactly one phase per pair bit")
        if any(not (0.0 <= t < TWO_PI) for t in theta):
            raise ParameterError("phases must lie in [0, 2pi)")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "n", bits)
        object.__setattr__(self, "theta", theta)

    @property
    def r(self) -> int:
        return len(self.signs)

    @property
    def p(self) -> int:
        return len(self.n)


@dataclass(frozen=True)
class MetricResult:
    """A hermitian metric with its inertia and intertwining residual."""

    M: np.ndarray
    inertia: tuple[int, int, int]
    residual: float

    def __post_init__(self):
        lock(self.M)


def pair_block(tau: complex) -> np.ndarray:
    """The 2x2 hermitian block [[0, conj(tau)], [tau, 0]] of a conjugate pair."""
    return np.array([[0.0, np.conj(tau)], [tau, 0.0]], dtype=np.complex128)


def build_m(params: MetricParameters) -> np.ndarray:
    """The block-diagonal metric in the eigenbasis, written entry by entry.

    block-diag(mu_1 ... mu_r, B(tau_1), ..., B(tau_p)) with
    B(tau) = [[0, conj(tau)], [tau, 0]]: mu_i sits at (i, i), and pair s
    puts conj(tau_s) at (k, k+1) and tau_s at (k+1, k), k = r + 2s.
    Hermitian and invertible for valid parameters.
    """
    m = np.zeros((params.r + 2 * params.p,) * 2, dtype=np.complex128)
    i, k = np.arange(params.r), np.arange(params.r, len(m), 2)
    m[i, i] = params.mu
    m[k, k + 1] = params.tau.conj()
    m[k + 1, k] = params.tau
    return m


def intertwining_residual(H, M, check_hermitian: bool = True) -> float:
    """Relative Frobenius norm of H^dagger M - M H.

    Returns ||H^dagger M - M H||_F / (||H||_F ||M||_F), the figure of
    merit for M being a metric compatible with H. ``check_hermitian=False``
    skips the hermiticity gate, :func:`require_hermitian` (used when
    diagnosing arbitrary candidate matrices). Both figures are scale-free,
    so they are computed on power-of-two scaled copies of H and M: the same
    bits, without overflow for entries near 1e308 or parameters near 1e200.
    """
    H = unit_scaled(as_square_matrix(H, name="H"))
    M = unit_scaled(as_square_matrix(M, name="M"))
    if H.shape != M.shape:
        raise DimensionError(f"H has shape {H.shape} but M has shape {M.shape}")
    if check_hermitian:
        require_hermitian(M, name="M")
    R = H.conj().T @ M - M @ H
    den = frobenius(H) * frobenius(M)
    if den == 0.0:
        return 0.0
    return frobenius(R) / den


def family_member(sd: SpectralData, params: MetricParameters) -> np.ndarray:
    """M = S^dagger m S, hermitian-symmetrized, with no verdict on it (see build_M).

    Raises ParameterError when the parameter counts do not match sd or M overflows.
    """
    if (params.r, params.p) != (sd.r, sd.p):
        raise ParameterError(
            f"parameter counts (r={params.r}, p={params.p}) do not match "
            f"spectrum (r={sd.r}, p={sd.p})"
        )
    m = build_m(params)
    with np.errstate(over="ignore", invalid="ignore"):
        M = hermitize(sd.S.conj().T @ m @ sd.S)
    if not np.all(np.isfinite(M)):
        with np.errstate(over="ignore"):
            mu, tau = (float(np.max(np.abs(a), initial=0.0)) for a in (params.mu, params.tau))
        raise ParameterError(
            f"M = S^dagger m S overflows at max |mu| = {mu:.3e}, max |tau| = {tau:.3e}"
        )
    return M


def build_M(sd: SpectralData, params: MetricParameters) -> MetricResult:
    """Map family parameters to a metric for sd's matrix: M = family_member(sd, params).

    Its inertia is verify's, measured on M at unit scale, and an M with a
    null eigenvalue raises ParameterError. The residual is taken against
    the matrix the decomposition was built from, on that same unit-scaled M.
    """
    M = family_member(sd, params)
    unit = unit_scaled(M)  # as verify reads it back; hermitian by construction
    inertia = inertia_of_matrix(unit, check_hermitian=False)
    if inertia[2]:
        w = np.abs(np.linalg.eigvalsh(unit))
        ratio = w.min() / w.max() if w.max() > 0.0 else 0.0  # parameters whose M underflows to 0
        raise ParameterError(
            f"M = S^dagger m S is singular: smallest / largest |eigenvalue| = {ratio:.3e} "
            f"<= null cut {NULL_EIGENVALUE_TOL:g}"
        )
    res = intertwining_residual(sd.matrix, unit, check_hermitian=False)
    return MetricResult(M=M, inertia=inertia, residual=res)


def _phase_rotation(theta: float) -> np.ndarray:
    """exp(i theta/2 sigma_z) = diag(e^{i theta/2}, e^{-i theta/2})."""
    return np.array(
        [[cmath.exp(0.5j * theta), 0.0], [0.0, cmath.exp(-0.5j * theta)]],
        dtype=np.complex128,
    )


def pair_rotation(theta: float) -> np.ndarray:
    """Unitary taking the phase-theta pair block onto |tau| sigma_z."""
    return _ROT_X_TO_Z @ _phase_rotation(theta)


def block_rotation(tau: complex, n: int) -> np.ndarray:
    """Unitary W with W B(tau) W^dagger = (-1)^n |tau| sigma_z.

    W first rotates the pair block in the xy plane onto the x axis, then
    around y onto z; the bit ``n`` appends a half-turn that flips the
    sign of the diagonalized block.
    """
    tau = complex(tau)
    if tau == 0:
        raise ParameterError("tau must be nonzero")
    if n not in (0, 1):
        raise ParameterError(f"orientation bit must be 0 or 1, got {n}")
    return pair_rotation(math.atan2(tau.imag, tau.real)) @ _phase_rotation(n * math.pi)


def canonical_metric(sd: SpectralData, cls: CanonicalClass) -> MetricResult:
    """Metric in unitary gauge: M = S^dagger U^dagger m0 U S.

    U collects the per-pair phase rotations and m0 is the signature matrix
    block-diag(signs, (-1)^{n_1} sigma_z, ...), so this is the family
    member with mu = signs, tau = (-1)^n e^{i theta}.
    The inertia is p plus the number of positive signs, and p plus the
    number of negative signs.
    """
    if (cls.r, cls.p) != (sd.r, sd.p):
        raise ParameterError(
            f"class shape (r={cls.r}, p={cls.p}) does not match spectrum "
            f"(r={sd.r}, p={sd.p})"
        )
    tau = (-1.0) ** np.asarray(cls.n) * np.exp(1j * np.asarray(cls.theta))
    return build_M(sd, MetricParameters(mu=np.asarray(cls.signs), tau=tau))


def gauge_absorb(sd: SpectralData, params: MetricParameters) -> tuple[SpectralData, CanonicalClass]:
    """Split a family member into pure-gauge magnitudes and canonical data.

    The positive diagonal D0 = block-diag(|mu_i|^(1/2), |tau_s|^(1/2) I_2)
    commutes with the eigenvalue matrix, so replacing S by D0 S leaves the
    decomposed matrix untouched while absorbing all parameter magnitudes.
    What remains is the canonical class: the signs of mu, zero orientation
    bits, and the phases of tau. ``canonical_metric`` on the returned pair
    reproduces ``build_M(sd, params)`` exactly up to round-off.
    """
    if (params.r, params.p) != (sd.r, sd.p):
        raise ParameterError(
            f"parameter counts (r={params.r}, p={params.p}) do not match "
            f"spectrum (r={sd.r}, p={sd.p})"
        )
    d0 = np.concatenate(
        [np.sqrt(np.abs(params.mu)), np.repeat(np.sqrt(np.abs(params.tau)), 2)]
    )
    S_prime = d0[:, np.newaxis] * sd.S
    sd_prime = replace(sd, S=S_prime, known_cond=float(np.linalg.cond(S_prime)), V=None)
    # atan2, not cmath.phase: phase raises OverflowError when the angle underflows
    theta = tuple(math.atan2(t.imag, t.real) % TWO_PI for t in params.tau)
    cls = CanonicalClass(
        signs=tuple(1 if m > 0 else -1 for m in params.mu),
        n=(0,) * params.p,
        theta=theta,
    )
    return sd_prime, cls


def inertia_of_params(params: MetricParameters, p: int) -> tuple[int, int]:
    """Inertia of any family member from its parameter signs alone.

    Each pair block contributes one positive and one negative eigenvalue
    regardless of tau, so p is a floor for both counts.
    """
    if p != params.p:
        raise ParameterError(f"expected {p} pair parameters, got {params.p}")
    pos = int(np.sum(params.mu > 0))
    return (p + pos, p + (params.r - pos))


def inertia_of_matrix(M, check_hermitian: bool = True) -> tuple[int, int, int]:
    """Counts of positive, negative and null eigenvalues of a hermitian matrix.

    Eigenvalues within NULL_EIGENVALUE_TOL times the largest |eigenvalue|
    of zero count as null. Congruence invariance (Sylvester) makes this
    agree with :func:`inertia_of_params` for any metric built from valid
    parameters. ``check_hermitian=False`` takes M as the hermitian part
    already (say, :func:`hermitize`'s output), so neither the hermiticity
    gate nor the projection runs.
    """
    if check_hermitian:
        M = hermitize(require_hermitian(M, name="M"))
    w = np.linalg.eigvalsh(M)
    cut = NULL_EIGENVALUE_TOL * (float(np.max(np.abs(w))) if w.size else 0.0)
    pos = int(np.sum(w > cut))
    neg = int(np.sum(w < -cut))
    return (pos, neg, w.size - pos - neg)


def negate_class(signs: tuple[int, ...], n: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The discrete data of -M: every sign flips, every orientation bit toggles."""
    return tuple(-s for s in signs), tuple(1 - b for b in n)


def is_global_representative(signs: tuple[int, ...], n: tuple[int, ...]) -> bool:
    """True if the first diagonal entry of the induced signature matrix is +1."""
    if signs:
        return signs[0] == 1
    if n:
        return n[0] == 0
    return True


def class_letters(r: int, p: int, mod_global: bool = True) -> list[tuple[int, ...]]:
    """The choices at each of the r + p positions of a discrete class.

    A class is r signs (+1 before -1), then p orientation bits (0 before 1),
    so the product of the choices lists the classes in lexicographic order.
    With ``mod_global`` position 0 keeps only its first choice, which keeps
    the member of every {x, -x} orbit whose first letter is +1 (or 0 when
    r = 0).
    """
    if r < 0 or p < 0:
        raise ParameterError("r and p must be nonnegative")
    if r + p > MAX_LISTED_BITS:
        raise EnumerationCapError(
            f"refusing to list 2**{r + p} classes (cap r + p <= {MAX_LISTED_BITS})"
        )
    letters = [(1, -1)] * r + [(0, 1)] * p
    if mod_global and letters:
        letters[0] = letters[0][:1]
    return letters


def enumerate_classes(
    r: int, p: int, mod_global: bool = True
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All discrete classes (sign vector, orientation bits), lexicographic.

    With ``mod_global`` every {x, -x} orbit is represented once, by the
    member whose first signature entry is +1, giving 2**(r+p-1) classes;
    without it all 2**(r+p) assignments are returned. Ordering is
    lexicographic with +1 before -1 and 0 before 1; see
    :func:`class_letters`.
    """
    return [(w[:r], w[r:]) for w in product(*class_letters(r, p, mod_global))]


def sqh_factorization(sd: SpectralData) -> MetricResult:
    """The positive-definite metric S^dagger S of a real-spectrum matrix.

    Exists only when p = 0: with complex pairs present, every compatible
    metric has at least p negative eigenvalues, so the request is refused.
    """
    if sd.p != 0:
        raise NotSqhError(
            f"spectrum has {sd.p} complex pair(s); any compatible metric has "
            f"at least {sd.p} negative eigenvalue(s), so no positive-definite "
            "metric exists"
        )
    return build_M(sd, MetricParameters(mu=np.ones(sd.r), tau=None))
