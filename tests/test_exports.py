"""The package namespace is assembled from each module's ``__all__``."""

import importlib
import inspect
import types

import entrobound

MODULES = ["errors", "linalg", "states", "metrics", "entropy", "fvdg", "sampling"]

# entrobound.__all__ as it stood when __init__ still listed every name itself.
EXPORTED = [
    "__version__",
    "EntroboundError", "NonHermitianError", "NoConvergenceError",
    "NegativeEigenvalueError", "NotInvertibleError", "InvalidDeltaError",
    "TraceNotOneError", "DimensionMismatchError", "NotOrthonormalError",
    "OutOfRangeError", "RejectionBudgetExhaustedError", "StateFormatError",
    "SpectralDecomposition", "eig_hermitian", "mat_sqrt",
    "positive_negative_parts", "geometric_mean", "m_operator",
    "m_operator_perturbed",
    "DensityOperator", "QCState", "ClassicalDist", "SqrtVector",
    "make_density", "make_qc_state", "make_classical", "qc_embed",
    "partial_trace_A", "sqrt_vector", "theta0", "is_qc_block_diagonal",
    "DistanceTriple", "Rank1Measurement", "make_measurement",
    "trace_distance", "fidelity", "angular_distance", "distance_triple",
    "classical_trace_distance", "classical_fidelity", "measure",
    "fvdg_residuals",
    "LIPSCHITZ", "LipschitzConstants", "ConversionDirection", "PathState",
    "von_neumann_entropy", "conditional_entropy", "binary_entropy",
    "audenaert_bound", "winter_bound", "lipschitz_u", "sekatski_bound",
    "naive_conditional_bound", "qc_continuity_bound", "convert_bounds",
    "hc_of_vector", "classical_conditional_entropy", "great_circle_path",
    "hc_derivative",
    "PairClass", "SaturationClass", "SaturationReport", "PerturbationTrace",
    "trace_optimal_measurements", "is_trace_optimal",
    "fidelity_optimal_measurement", "is_fidelity_optimal",
    "classical_saturation_class", "classify_pair", "pure_fidelity_optimal",
    "perturbation_trace",
    "RngHandle", "sample_simplex", "sample_haar_unitary", "sample_density",
    "sample_qc_pair", "sample_classical_pair_at_angle",
]


def modules():
    return [importlib.import_module(f"entrobound.{name}") for name in MODULES]


def test_each_module_defines_the_names_it_exports():
    for module in modules():
        assert isinstance(module.__all__, list), module.__name__
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, name


def test_package_all_is_the_module_lists_in_order():
    joined = ["__version__"] + [name for module in modules() for name in module.__all__]
    assert entrobound.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert joined == EXPORTED


def test_package_names_are_the_module_objects():
    for module in modules():
        for name in module.__all__:
            assert getattr(entrobound, name) is getattr(module, name), name


def test_no_other_public_name_enters_the_package():
    public = {
        name for name in dir(entrobound)
        if not name.startswith("_") and not isinstance(getattr(entrobound, name), types.ModuleType)
    }
    assert public == set(EXPORTED) - {"__version__"}
    for hidden in ("trusted_density", "trusted_classical", "check_dimension", "decompose",
                   "check_pair", "state_from_json", "load_state_pair"):
        assert not hasattr(entrobound, hidden)
