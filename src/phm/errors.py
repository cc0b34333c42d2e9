"""Exception hierarchy.

Every failure mode raised by this package derives from :class:`PhmError`,
so callers (notably the CLI, which maps exception classes to exit codes)
can distinguish our diagnostics from generic Python errors.
"""


class PhmError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PhmError):
    """A matrix is not square, shapes do not agree, or an entry is not finite."""


class FileFormatError(PhmError):
    """A matrix file does not follow the JSON format; names row/column if known."""


class NumericError(PhmError):
    """A numerical backend failed (e.g. the eigensolver did not converge)."""


class ClassificationError(PhmError):
    """The spectrum cannot be split into real values and conjugate pairs.

    Raised when a non-real eigenvalue has no conjugate partner within
    tolerance; at that tolerance the input is not admissible as a
    pseudo-hermitian matrix.
    """


class DegenerateSpectrumError(PhmError):
    """Two eigenvalues coincide (or nearly coincide).

    The metric-family construction assumes a non-degenerate spectrum; the
    message names the offending pair.
    """


class IllConditionedError(PhmError):
    """The diagonalizer is too ill-conditioned to produce trustworthy metrics."""


class ParameterError(PhmError):
    """Metric parameters are invalid: zero entries, wrong counts, bad ranges."""


class NonHermitianError(ParameterError):
    """A matrix that must be hermitian is not, beyond tolerance."""


class NotSqhError(ParameterError):
    """Positive-definite factorization requested for a spectrum with complex pairs.

    Any compatible metric then has at least one negative eigenvalue, so no
    positive-definite metric exists.
    """


class EnumerationCapError(PhmError):
    """A requested enumeration, dense solve or generation exceeds its size cap."""


class GenerationError(PhmError):
    """Rejection sampling exhausted its attempt budget; names the constraint."""


class FamilyMismatchError(PhmError):
    """The brute-force solution space disagrees with the parametrized family.

    Signals a bug or a near-degenerate spectrum blurring the numerical rank.
    """
