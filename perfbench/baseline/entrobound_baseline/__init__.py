"""Continuity bounds for quantum-classical conditional entropies in angular
distance, and saturation diagnostics for the Fuchs-van de Graaf inequalities."""

from .errors import (
    DimensionMismatchError,
    EntroboundError,
    InvalidDeltaError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NonHermitianError,
    NotInvertibleError,
    NotOrthonormalError,
    OutOfRangeError,
    RejectionBudgetExhaustedError,
    StateFormatError,
    TraceNotOneError,
)
from .linalg import (
    SpectralDecomposition,
    eig_hermitian,
    geometric_mean,
    m_operator,
    m_operator_perturbed,
    mat_sqrt,
    positive_negative_parts,
)
from .states import (
    ClassicalDist,
    DensityOperator,
    QCState,
    SqrtVector,
    is_qc_block_diagonal,
    make_classical,
    make_density,
    make_qc_state,
    partial_trace_A,
    qc_embed,
    sqrt_vector,
    theta0,
)
from .metrics import (
    DistanceTriple,
    Rank1Measurement,
    angular_distance,
    classical_fidelity,
    classical_trace_distance,
    distance_triple,
    fidelity,
    fvdg_residuals,
    make_measurement,
    measure,
    trace_distance,
)
from .entropy import (
    LIPSCHITZ,
    ConversionDirection,
    LipschitzConstants,
    PathState,
    audenaert_bound,
    binary_entropy,
    classical_conditional_entropy,
    conditional_entropy,
    convert_bounds,
    great_circle_path,
    hc_derivative,
    hc_of_vector,
    lipschitz_u,
    naive_conditional_bound,
    qc_continuity_bound,
    sekatski_bound,
    von_neumann_entropy,
    winter_bound,
)
from .fvdg import (
    PairClass,
    PerturbationTrace,
    SaturationClass,
    SaturationReport,
    classical_saturation_class,
    classify_pair,
    fidelity_optimal_measurement,
    is_fidelity_optimal,
    is_trace_optimal,
    perturbation_trace,
    pure_fidelity_optimal,
    trace_optimal_measurements,
)
from .sampling import (
    RngHandle,
    sample_classical_pair_at_angle,
    sample_density,
    sample_haar_unitary,
    sample_qc_pair,
    sample_simplex,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "EntroboundError", "NonHermitianError", "NoConvergenceError",
    "NegativeEigenvalueError", "NotInvertibleError", "InvalidDeltaError",
    "TraceNotOneError", "DimensionMismatchError", "NotOrthonormalError",
    "OutOfRangeError", "RejectionBudgetExhaustedError", "StateFormatError",
    # linalg
    "SpectralDecomposition", "eig_hermitian", "mat_sqrt",
    "positive_negative_parts", "geometric_mean", "m_operator",
    "m_operator_perturbed",
    # states
    "DensityOperator", "QCState", "ClassicalDist", "SqrtVector",
    "make_density", "make_qc_state", "make_classical", "qc_embed",
    "partial_trace_A", "sqrt_vector", "theta0", "is_qc_block_diagonal",
    # metrics
    "DistanceTriple", "Rank1Measurement", "make_measurement",
    "trace_distance", "fidelity", "angular_distance", "distance_triple",
    "classical_trace_distance", "classical_fidelity", "measure",
    "fvdg_residuals",
    # entropy
    "LIPSCHITZ", "LipschitzConstants", "ConversionDirection", "PathState",
    "von_neumann_entropy", "conditional_entropy", "binary_entropy",
    "audenaert_bound", "winter_bound", "lipschitz_u", "sekatski_bound",
    "naive_conditional_bound", "qc_continuity_bound", "convert_bounds",
    "hc_of_vector", "classical_conditional_entropy", "great_circle_path",
    "hc_derivative",
    # fvdg
    "PairClass", "SaturationClass", "SaturationReport", "PerturbationTrace",
    "trace_optimal_measurements", "is_trace_optimal",
    "fidelity_optimal_measurement", "is_fidelity_optimal",
    "classical_saturation_class", "classify_pair", "pure_fidelity_optimal",
    "perturbation_trace",
    # sampling
    "RngHandle", "sample_simplex", "sample_haar_unitary", "sample_density",
    "sample_qc_pair", "sample_classical_pair_at_angle",
]
