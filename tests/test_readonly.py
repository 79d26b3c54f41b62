"""Every array in a public result is read-only, dataclass fields included."""

import dataclasses

import numpy as np

from conftest import rand_invertible_density, rand_positive_definite

from entrobound import (
    RngHandle,
    classify_pair,
    eig_hermitian,
    fidelity_optimal_measurement,
    geometric_mean,
    great_circle_path,
    m_operator,
    m_operator_perturbed,
    make_classical,
    make_density,
    make_measurement,
    mat_sqrt,
    measure,
    partial_trace_A,
    perturbation_trace,
    positive_negative_parts,
    qc_embed,
    sample_classical_pair_at_angle,
    sample_haar_unitary,
    sample_qc_pair,
    sample_simplex,
    sqrt_vector,
    trace_optimal_measurements,
)


def _arrays(value, path):
    """(path, array) for each ndarray reachable through dataclass fields and tuple items."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name), f"{path}.{field.name}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _arrays(item, f"{path}[{i}]")


def _results():
    rng = RngHandle(611)
    rho, sigma = rand_invertible_density(rng, 3), rand_invertible_density(rng, 3)
    a, b = rand_positive_definite(rng, 3), rand_positive_definite(rng, 3)
    pure = make_density(np.diag([1.0, 0.0, 0.0]))
    basis = trace_optimal_measurements(rho, sigma)
    left, right = sample_qc_pair(rng, 2, 3)
    return {
        "classify_pair (invertible)": classify_pair(rho, sigma),
        "classify_pair (noninvertible)": classify_pair(pure, sigma),
        "perturbation_trace": perturbation_trace(pure, sigma, basis, [1e-2, 1e-3]),
        "great_circle_path": great_circle_path(sqrt_vector(left), sqrt_vector(right)),
        "sample_qc_pair": (left, right),
        "sample_classical_pair_at_angle": sample_classical_pair_at_angle(rng, 4, 0.1),
        "sample_simplex": sample_simplex(rng, 4),
        "sample_haar_unitary": sample_haar_unitary(rng, 3),
        "sqrt_vector": sqrt_vector(left),
        "qc_embed": qc_embed(left),
        "partial_trace_A": partial_trace_A(qc_embed(left), 2, 3),
        "make_classical": make_classical([0.25, 0.75]),
        "measure": measure(basis, rho),
        "make_measurement": make_measurement(np.eye(3)),
        "eig_hermitian": eig_hermitian(a),
        "mat_sqrt": mat_sqrt(a),
        "positive_negative_parts": positive_negative_parts(a - b),
        "geometric_mean": geometric_mean(a, b),
        "m_operator": m_operator(a, b),
        "m_operator_perturbed": m_operator_perturbed(rho.matrix, sigma.matrix, 0.1),
        "trace_optimal_measurements": basis,
        "fidelity_optimal_measurement": fidelity_optimal_measurement(rho, sigma),
    }


def test_every_array_in_a_public_result_is_read_only():
    writable = []
    for call, result in _results().items():
        arrays = list(_arrays(result, call))
        assert arrays, f"{call} returned no array to check"
        writable += [path for path, array in arrays if array.flags.writeable]
    assert not writable, f"writable arrays: {writable}"
