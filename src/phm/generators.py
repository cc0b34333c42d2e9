"""Random test-instance generation with reproducible, platform-stable draws.

All randomness flows through numpy's counter-based Philox bit generator,
seeded explicitly, so a (seed, parameters) pair names one instance on
any machine. Generation is rejection sampling: draw a spectrum with the
requested real/pair split, enforce a minimum eigenvalue gap, draw a
similarity with bounded condition number, then assemble
H = S^{-1} diag(lambda) S. The generator returns the exact spectral data
it built from, plus a compatibility certificate (the all-ones metric and
its residual), so downstream checks need not trust the eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrumError, EnumerationCapError, GenerationError, ParameterError
from .matrices import lock, require_hermitian, unit_scaled
from .metrics import MetricParameters, MetricResult, build_M, inertia_of_matrix
from .spectral import SpectralData, assert_nondegenerate


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


GENERATE_DIM_CAP = 1024  # at the cap: about 5-8 s of CPU and 170 MB, one BLAS thread


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for spectrum-first generation.

    ``eigenvalue_box`` gives the sampling intervals: real parts uniform
    over the first interval, imaginary parts of pair representatives
    uniform over the second. ``min_gap_target`` is relative to the
    spectral scale and bounds the smallest pairwise eigenvalue distance
    accepted; it defaults to min(0.01, 1/n^2), because n eigenvalues in
    the box are typically about 1/n^2 apart at the closest.
    ``cond_max`` bounds the similarity's condition number.
    """

    n: int
    r: int
    p: int
    seed: int
    cond_max: float = 1e6
    eigenvalue_box: tuple[tuple[float, float], tuple[float, float]] = (
        (-1.0, 1.0),
        (0.0, 1.0),
    )
    min_gap_target: float | None = None
    max_attempts: int = 1000

    def __post_init__(self):
        if self.n < 1 or self.r < 0 or self.p < 0:
            raise ParameterError("need n >= 1, r >= 0, p >= 0")
        if self.n > GENERATE_DIM_CAP:
            raise EnumerationCapError(
                f"generation is capped at n <= {GENERATE_DIM_CAP}, got n = {self.n}"
            )
        if self.r + 2 * self.p != self.n:
            raise ParameterError(
                f"split must satisfy r + 2p = n, got r={self.r}, p={self.p}, n={self.n}"
            )
        if self.min_gap_target is None:
            object.__setattr__(self, "min_gap_target", min(0.01, 1.0 / self.n**2))
        if not self.cond_max > 1.0:
            raise ParameterError("cond_max must exceed 1")
        if not self.min_gap_target > 0.0:
            raise ParameterError("min_gap_target must be positive")
        if self.max_attempts < 1:
            raise ParameterError("max_attempts must be >= 1")


@dataclass(frozen=True)
class GeneratedInstance:
    """A generated matrix with its ground-truth spectral data.

    ``certificate`` is the metric built from all-ones parameters;
    ``certificate_residual`` is its relative intertwining residual, a
    direct witness that the instance admits a metric.
    """

    H: np.ndarray
    sd: SpectralData
    certificate: MetricResult
    certificate_residual: float = field(init=False)

    def __post_init__(self):
        lock(self.H)
        object.__setattr__(self, "certificate_residual", self.certificate.residual)


def _draw_spectrum(
    cfg: GeneratorConfig, rng: np.random.Generator
) -> tuple[np.ndarray, float] | None:
    """One ordered spectrum draw and its smallest gap, or None if the gap floor is violated."""
    (re_lo, re_hi), (im_lo, im_hi) = cfg.eigenvalue_box
    reals = np.sort(rng.uniform(re_lo, re_hi, size=cfg.r))
    pres = rng.uniform(re_lo, re_hi, size=cfg.p)
    pims = rng.uniform(im_lo, im_hi, size=cfg.p)
    order = np.lexsort((pims, pres))
    lam = np.empty(cfg.n, dtype=np.complex128)
    lam[: cfg.r] = reals
    for out, src in enumerate(order):
        z = complex(pres[src], pims[src])
        lam[cfg.r + 2 * out] = z
        lam[cfg.r + 2 * out + 1] = z.conjugate()
    try:
        return lam, assert_nondegenerate(lam, gap_tol=cfg.min_gap_target)
    except DegenerateSpectrumError:
        return None


def _draw_similarity(n: int, rng: np.random.Generator) -> np.ndarray:
    """Dense complex Gaussian matrix, the row-transformation candidate."""
    x = rng.standard_normal((n, n))
    y = rng.standard_normal((n, n))
    return (x + 1.0j * y) / np.sqrt(2.0)


def generate_via_spectrum(cfg: GeneratorConfig) -> GeneratedInstance:
    """Build an admissible instance by prescribing its spectrum.

    Raises GenerationError naming the violated constraint when the
    attempt budget runs out (too-tight gap floor or condition cap).
    """
    rng = _rng(cfg.seed)
    for _ in range(cfg.max_attempts):
        drawn = _draw_spectrum(cfg, rng)
        if drawn is not None:
            break
    else:
        raise GenerationError(
            f"no spectrum with relative gap > {cfg.min_gap_target} in "
            f"{cfg.max_attempts} attempts; loosen min_gap_target"
        )
    lam, min_gap = drawn

    S = None
    cond_S = np.inf
    for _ in range(cfg.max_attempts):
        cand = _draw_similarity(cfg.n, rng)
        cond = float(np.linalg.cond(cand))
        if np.isfinite(cond) and cond <= cfg.cond_max:
            S, cond_S = cand, cond
            break
    if S is None:
        raise GenerationError(
            f"no similarity with condition number <= {cfg.cond_max} in "
            f"{cfg.max_attempts} attempts; loosen cond_max"
        )

    H = np.linalg.solve(S, lam[:, None] * S)
    sd = SpectralData(
        matrix=H,
        lam=lam,
        S=S,
        r=cfg.r,
        p=cfg.p,
        min_gap=min_gap,
        known_cond=cond_S,
        sym_shift=0.0,
    )
    certificate = build_M(
        sd,
        MetricParameters(mu=np.ones(cfg.r), tau=np.ones(cfg.p, dtype=np.complex128)),
    )
    return GeneratedInstance(H=H, sd=sd, certificate=certificate)


def generate_via_observable(M, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Build an instance compatible with a prescribed invertible metric.

    Draws a random hermitian observable A and returns (A M, A). The
    product is compatible with M by construction:
    (A M)^dagger M = M A M = M (A M). M must pass :func:`require_hermitian`
    and have no null eigenvalue under :func:`inertia_of_matrix`'s cut.
    """
    M = require_hermitian(M, name="M")
    if inertia_of_matrix(unit_scaled(M))[2]:  # scaled first: M + M^dagger overflows near 1e308
        raise ParameterError("metric must be invertible (no near-zero eigenvalues)")
    A = random_hermitian(M.shape[0], seed)
    return A @ M, A


def random_hermitian(n: int, seed: int) -> np.ndarray:
    """Random hermitian matrix: real normal diagonal, complex normal off-diagonal.

    Draw order is fixed (diagonal first, then upper triangle row by row,
    real part before imaginary part) so a seed pins the matrix exactly.
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    rng = _rng(seed)
    A = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(A, rng.standard_normal(n))
    k, l = np.triu_indices(n, 1)
    # each row (re, im) of the draw read as one complex number
    z = (rng.standard_normal((k.size, 2)) / np.sqrt(2.0)).view(np.complex128)[:, 0]
    A[k, l] = z
    A[l, k] = z.conj()
    return A


def random_parameters(r: int, p: int, seed: int) -> MetricParameters:
    """Random nonzero family parameters, bounded away from zero.

    Magnitudes are 0.25 + |N(0, 1)| so invertibility never degrades;
    real parameters get random signs, pair parameters random phases.
    """
    if r < 0 or p < 0:
        raise ParameterError("need r >= 0 and p >= 0")
    rng = _rng(seed)
    mu_mag = 0.25 + np.abs(rng.standard_normal(r))
    mu_sign = np.where(rng.uniform(size=r) < 0.5, 1.0, -1.0)
    tau_mag = 0.25 + np.abs(rng.standard_normal(p))
    tau_phase = rng.uniform(0.0, 2.0 * np.pi, size=p)
    return MetricParameters(
        mu=mu_mag * mu_sign,
        tau=tau_mag * np.exp(1.0j * tau_phase),
    )
