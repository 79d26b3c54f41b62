"""Outside reals and array entries: one rule each, at every entry point.

A real passes ``states.check_real`` (``is_real`` for the deltas of
``perturbation_trace``): a Python or numpy integer or float inside the
interval.  An array's entries pass ``linalg.numeric_array``: integers and
floats, and complex numbers where the array may be complex.  Everything else
raises ``OutOfRangeError`` (``InvalidDeltaError`` for a delta), never a numpy
or Python ``TypeError`` or ``ValueError``, and is never read as a number.
"""

import math

import numpy as np
import pytest

from entrobound import linalg
from entrobound.entropy import (
    LIPSCHITZ, audenaert_bound, binary_entropy, convert_bounds, great_circle_path,
    hc_derivative, naive_conditional_bound, qc_continuity_bound, sekatski_bound, winter_bound,
)
from entrobound.errors import InvalidDeltaError, OutOfRangeError
from entrobound.experiments import (
    bounds_compare, counterexample_curve, counterexample_scan, family_closed_form, family_pair,
    fig2_fixed_angle,
)
from entrobound.fvdg import perturbation_trace, pure_fidelity_optimal
from entrobound.metrics import make_measurement
from entrobound.sampling import RngHandle, check_sampler_angle, sample_classical_pair_at_angle
from entrobound.states import (
    check_real, is_real, make_classical, make_density, make_qc_state, sqrt_vector,
)

PURE_0 = make_density(np.diag([1.0, 0.0]))
# Weights (1, 0) and (0, 1) on one pure block give orthogonal square-root
# vectors, so the path runs over (0, pi/2) and theta = 1 lies inside it.
PATH = great_circle_path(sqrt_vector(make_qc_state([(1.0, PURE_0), (0.0, PURE_0)])),
                         sqrt_vector(make_qc_state([(0.0, PURE_0), (1.0, PURE_0)])))


def _density_parts(rho):
    return rho.matrix, rho.eigenvalues, rho.spectrum.eigenvectors


# name: (call of one real, an integer inside the interval, a float32-exact
# float inside it).  Results are plain numbers, tuples and arrays.
ENTRY_POINTS = {
    "majorant": (LIPSCHITZ.majorant, 3, 2.5),
    "binary_entropy": (binary_entropy, 1, 0.25),
    "audenaert_bound": (lambda x: audenaert_bound(x, 3), 1, 0.25),
    "winter_bound": (lambda x: winter_bound(x, 3), 1, 0.25),
    "convert_bounds": (lambda x: convert_bounds(x, 3), 1, 0.25),
    "sekatski_bound": (lambda x: sekatski_bound(x, 3), 1, 0.25),
    "naive_conditional_bound": (lambda x: naive_conditional_bound(x, 2, 2), 1, 0.25),
    "qc_continuity_bound": (lambda x: qc_continuity_bound(x, 2), 1, 0.25),
    "hc_derivative": (lambda x: hc_derivative(PATH, x), 1, 0.25),
    "check_sampler_angle": (check_sampler_angle, 1, 0.25),
    "sample_classical_pair_at_angle": (
        lambda x: tuple(p.probs for p in sample_classical_pair_at_angle(RngHandle(5), 4, x)),
        1, 0.25),
    "fig2_fixed_angle": (lambda x: fig2_fixed_angle(2, 2, 3, 5, angles=(x,)), 1, 0.25),
    "family_pair": (lambda x: tuple(map(_density_parts, family_pair(2, 2, x))), 1, 0.25),
    "family_closed_form": (lambda x: family_closed_form(2, 2, x), 1, 0.25),
    "counterexample_curve": (lambda x: counterexample_curve(2, 2, x), 1, 0.25),
    "counterexample_scan": (counterexample_scan, 1, 0.5),
    "bounds_compare": (lambda x: bounds_compare(2, x), 1, 0.25),
}

NOT_REALS = {
    "bool": True, "str": "0.5", "None": None, "complex": 0.5 + 0j,
    "array": np.array([0.1, 0.2]), "nan": math.nan,
}


@pytest.mark.parametrize("bad", NOT_REALS.values(), ids=NOT_REALS)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_rejects_what_is_not_a_real_in_range(name, bad):
    with pytest.raises(OutOfRangeError):
        ENTRY_POINTS[name][0](bad)


@pytest.mark.parametrize("kind", [np.float32, np.int64, int])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_numpy_and_int_reals_give_the_float_result(name, kind):
    call, integer, fraction = ENTRY_POINTS[name]
    value = fraction if kind is np.float32 else integer
    got, want = call(kind(value)), call(float(value))
    assert type(got) is type(want)
    np.testing.assert_equal(got, want)


def test_an_int_too_large_for_a_float_is_out_of_range():
    with pytest.raises(OutOfRangeError):
        LIPSCHITZ.majorant(10**400)


@pytest.mark.parametrize("x, ends, inside", [
    (0.0, "[]", True), (0.0, "(]", False), (1.0, "[)", False), (1.0, "()", False),
    (0.5, "()", True), (math.inf, "[)", False), (-0.0, "[]", True), (2**63, "[]", False),
])
def test_check_real_keeps_each_end_of_the_interval(x, ends, inside):
    if inside:
        assert check_real(x, 0.0, 1.0, "x", ends) == x
    else:
        with pytest.raises(OutOfRangeError, match=r"^x must be a real in "):
            check_real(x, 0.0, 1.0, "x", ends)


def test_is_real_takes_python_and_numpy_numbers_only():
    assert all(map(is_real, [0, 1.5, np.int8(3), np.uint64(2), np.float32(0.5), math.nan]))
    assert not any(map(is_real, [True, np.bool_(True), "1", None, 1j, np.array(0.5)]))


@pytest.mark.parametrize("bad", NOT_REALS.values(), ids=NOT_REALS)
def test_every_delta_is_a_real_in_the_open_unit_interval(bad):
    plus = make_density(np.full((2, 2), 0.5))
    with pytest.raises(InvalidDeltaError):
        perturbation_trace(PURE_0, plus, make_measurement(np.eye(2)), [bad])


@pytest.mark.parametrize("weights", [
    (True, False), ("0.5", 0.5), (None, 1.0), (0.5 + 0j, 0.5), (np.array([0.1, 0.2]), 0.7),
    (math.nan, 1.0),
], ids=["bool", "str", "None", "complex", "array", "nan"])
def test_qc_weights_follow_the_probability_vector_rule(weights):
    with pytest.raises(OutOfRangeError):
        make_qc_state([(w, PURE_0) for w in weights])


# The entry points that read an outside array, each with a valid argument.
ARRAY_TAKERS = {
    "make_density": (make_density, [[0.5, 0], [0, 0.5]]),
    "eig_hermitian": (linalg.eig_hermitian, [[1, 0], [0, 2]]),
    "make_classical": (make_classical, [0.5, 0.5]),
    "make_measurement": (make_measurement, [[1, 0], [0, 1]]),
    "pure_fidelity_optimal": (
        lambda v: pure_fidelity_optimal(make_measurement(np.eye(2)), v, [1, 0]), [0, 1]),
}


def _with_entry(valid, bad):
    """``valid`` with its first entry replaced by ``bad``."""
    out = np.array(valid, dtype=object)
    out.flat[0] = bad
    return out.tolist()


# A bool among numbers is not caught: numpy reads [True, 0.5] as floats.
NOT_NUMBERS = {
    "bools": lambda valid: np.array(valid).astype(bool).tolist(),
    "str": lambda valid: _with_entry(valid, "1"),
    "None": lambda valid: _with_entry(valid, None),
}


@pytest.mark.parametrize("spoil", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
@pytest.mark.parametrize("name", ARRAY_TAKERS)
def test_array_entries_must_be_numbers(name, spoil):
    call, valid = ARRAY_TAKERS[name]
    with pytest.raises(OutOfRangeError):
        call(spoil(valid))


@pytest.mark.parametrize("name", ARRAY_TAKERS)
def test_a_ragged_nest_is_out_of_range(name):
    call, valid = ARRAY_TAKERS[name]
    ragged = [valid[0], [valid[1]]] if isinstance(valid[0], list) else [valid[0], [valid[1], 0]]
    with pytest.raises(OutOfRangeError):
        call(ragged)


@pytest.mark.parametrize("p", ["ab", [0.5 + 0j, 0.5]], ids=["str", "complex"])
def test_probabilities_are_real_numbers(p):
    with pytest.raises(OutOfRangeError):
        make_classical(p)


@pytest.mark.parametrize("name", ARRAY_TAKERS)
def test_int_and_float32_entries_pass(name):
    call, valid = ARRAY_TAKERS[name]
    call(valid)
    call(np.array(valid, dtype=np.float32))
