"""Metrics for pseudo-hermitian matrices.

Given a diagonalizable complex square matrix H with non-degenerate
spectrum, this package constructs every hermitian matrix M (of every
signature) satisfying the intertwining relation H^dagger M = M H:
a parametrized family built on the eigendecomposition, a canonical
"unitary gauge" form per discrete class, enumeration of the classes
with their inertias, an independent brute-force solution-space check,
and reproducible random instance generation. The ``phm`` CLI exposes
all of it with JSON input/output.
"""

from .errors import (
    ClassificationError,
    DegenerateSpectrumError,
    DimensionError,
    EnumerationCapError,
    FamilyMismatchError,
    FileFormatError,
    GenerationError,
    IllConditionedError,
    NonHermitianError,
    NotSqhError,
    NumericError,
    ParameterError,
    PhmError,
)
from .generators import (
    GeneratedInstance,
    GeneratorConfig,
    generate_via_observable,
    generate_via_spectrum,
    random_hermitian,
    random_parameters,
)
from .matrices import hermitize, hermiticity_defect, require_hermitian
from .metrics import (
    CanonicalClass,
    MetricParameters,
    MetricResult,
    block_rotation,
    build_M,
    build_m,
    canonical_metric,
    enumerate_classes,
    gauge_absorb,
    inertia_of_matrix,
    inertia_of_params,
    intertwining_residual,
    is_global_representative,
    negate_class,
    pair_block,
    pair_rotation,
    sqh_factorization,
)
from .oracle import (
    FamilyKernelMatch,
    HermitianBasis,
    KernelReport,
    family_vs_kernel,
    hermitian_basis,
    hermitian_coords,
    intertwining_operator_matrix,
    matrix_from_coords,
    solution_space,
)
from .spectral import (
    SpectralData,
    SpectrumClassification,
    Tolerances,
    assert_nondegenerate,
    classify_spectrum,
    decompose,
    eigendecompose,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalClass",
    "ClassificationError",
    "DegenerateSpectrumError",
    "DimensionError",
    "EnumerationCapError",
    "FamilyKernelMatch",
    "FamilyMismatchError",
    "FileFormatError",
    "GeneratedInstance",
    "GeneratorConfig",
    "GenerationError",
    "HermitianBasis",
    "IllConditionedError",
    "KernelReport",
    "MetricParameters",
    "MetricResult",
    "NonHermitianError",
    "NotSqhError",
    "NumericError",
    "ParameterError",
    "PhmError",
    "SpectralData",
    "SpectrumClassification",
    "Tolerances",
    "assert_nondegenerate",
    "block_rotation",
    "build_M",
    "build_m",
    "canonical_metric",
    "classify_spectrum",
    "decompose",
    "eigendecompose",
    "enumerate_classes",
    "family_vs_kernel",
    "gauge_absorb",
    "generate_via_observable",
    "generate_via_spectrum",
    "hermitian_basis",
    "hermitian_coords",
    "hermiticity_defect",
    "hermitize",
    "inertia_of_matrix",
    "inertia_of_params",
    "intertwining_operator_matrix",
    "intertwining_residual",
    "is_global_representative",
    "matrix_from_coords",
    "negate_class",
    "pair_block",
    "pair_rotation",
    "random_hermitian",
    "random_parameters",
    "require_hermitian",
    "solution_space",
    "sqh_factorization",
]
