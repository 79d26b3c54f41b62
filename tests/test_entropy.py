import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import classical_fidelity_oracle, entropy_oracle

from entrobound.entropy import (
    LIPSCHITZ,
    _entropy_of_probabilities,
    _hc_raw,
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
from entrobound.errors import DimensionMismatchError, OutOfRangeError
from entrobound.metrics import (
    _classical_fidelity_rows,
    _fidelity_from_spectrum_rows,
    angular_distance,
    classical_fidelity,
    trace_distance,
)
from entrobound.sampling import RngHandle, sample_density, sample_qc_pair
from entrobound.states import make_classical, make_density, make_qc_state, qc_embed, sqrt_vector


def qc(*blocks):
    return make_qc_state([(w, make_density(m)) for w, m in blocks])


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(make_density(np.diag([1.0, 0.0, 0.0]))) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_maximally_mixed(self, d):
        rho = make_density(np.eye(d) / d)
        assert von_neumann_entropy(rho) == pytest.approx(math.log(d), abs=1e-12)

    def test_scalar_formula(self):
        rho = make_density(np.diag([0.75, 0.25]))
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5623, abs=1e-4)


class TestConditionalEntropy:
    def test_maximally_entangled_qubits(self):
        vec = np.zeros(4)
        vec[0] = vec[3] = 1 / np.sqrt(2)
        rho = make_density(np.outer(vec, vec))
        assert conditional_entropy(rho, 2, 2) == pytest.approx(-math.log(2), abs=1e-12)

    def test_maximally_mixed(self):
        rho = make_density(np.eye(6) / 6)
        assert conditional_entropy(rho, 3, 2) == pytest.approx(math.log(3), abs=1e-12)

    def test_product_state(self):
        rho_a = np.diag([0.7, 0.3])
        rho_b = np.diag([0.4, 0.6])
        joint = make_density(np.kron(rho_b, rho_a))  # k outer
        expected = von_neumann_entropy(make_density(rho_a))
        assert conditional_entropy(joint, 2, 2) == pytest.approx(expected, abs=1e-12)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_scalar(self):
        assert binary_entropy(0.1) == pytest.approx(0.3251, abs=1e-4)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    @pytest.mark.parametrize("x", [-0.1, 1.1])
    def test_domain(self, x):
        with pytest.raises(OutOfRangeError):
            binary_entropy(x)


class TestTraceDistanceBounds:
    def test_audenaert_examples(self):
        assert audenaert_bound(0.0, 5) == 0.0
        # at T = 1, d = 2 both terms vanish; the formula value is 0 as written
        assert audenaert_bound(1.0, 2) == 0.0
        assert audenaert_bound(0.1, 4) == pytest.approx(
            0.1 * math.log(3) + binary_entropy(0.1), abs=1e-12
        )
        assert audenaert_bound(0.1, 4) == pytest.approx(0.4350, abs=1e-4)

    def test_winter_examples(self):
        assert winter_bound(0.0, 2) == 0.0
        assert winter_bound(1.0, 2) == pytest.approx(4 * math.log(2), abs=1e-12)
        expected = 0.2 * math.log(2) + 1.1 * binary_entropy(0.1 / 1.1)
        assert winter_bound(0.1, 2) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.4737, abs=1e-4)

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            audenaert_bound(1.2, 3)
        with pytest.raises(OutOfRangeError):
            audenaert_bound(0.5, 1)
        with pytest.raises(OutOfRangeError):
            winter_bound(-0.5, 3)
        # bool is not a dimension, the same way in every bound
        for bound in (
            lambda: winter_bound(0.5, True),
            lambda: audenaert_bound(0.5, True),
            lambda: naive_conditional_bound(0.1, True, 2),
            lambda: naive_conditional_bound(0.1, 2, True),
        ):
            with pytest.raises(OutOfRangeError):
                bound()

    def test_audenaert_dominates_entropy_differences(self):
        rng = RngHandle(51)
        for _ in range(200):
            d = int(rng.generator.integers(2, 6))
            rho, sigma = sample_density(rng, d), sample_density(rng, d)
            gap = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
            assert gap <= audenaert_bound(trace_distance(rho, sigma), d) + 1e-9


class TestLipschitzConstants:
    def test_fixed_point_residual(self):
        x0 = LIPSCHITZ.x0
        assert abs(math.log(x0) - 2.0 * (1.0 - 1.0 / x0)) <= 1e-12
        assert x0 == pytest.approx(4.922, abs=1e-3)

    def test_tangency(self):
        x0 = LIPSCHITZ.x0
        # the linear branch touches ln^2 at x0 with matching slope
        assert abs(LIPSCHITZ.slope * (x0 - 1.0) - math.log(x0) ** 2) <= 1e-10
        assert abs(LIPSCHITZ.slope - 2.0 * math.log(x0) / x0) <= 1e-14

    def test_u_values(self):
        assert lipschitz_u(1) == 0.0
        assert lipschitz_u(2) == pytest.approx(1.6095, abs=1e-4)
        assert lipschitz_u(8) == pytest.approx(2 * math.log(8), abs=1e-14)
        # above the tangency point the constant is exactly 2 ln d
        for d in range(5, 20):
            assert lipschitz_u(d) == pytest.approx(2 * math.log(d), abs=1e-14)

    def test_against_mpmath_oracle(self):
        # Tolerance fixed before measuring: 1e-12 relative, far above the
        # bisection's 1e-14 bracket and far below any formula slip.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            x0 = mpmath.findroot(lambda x: mpmath.log(x) - 2 * (1 - 1 / x), mpmath.mpf("4.9"))
            assert abs(LIPSCHITZ.x0 - x0) <= 1e-12 * x0
            slope = 2 * mpmath.log(x0) / x0
            for d in range(1, 11):
                f = slope * (d - 1) if d <= x0 else mpmath.log(d) ** 2
                u = 2 * mpmath.sqrt(f)
                assert abs(lipschitz_u(d) - u) <= 1e-12 * u, d

    def test_qubit_value_against_reference_product(self):
        angle = math.acos(math.sqrt(5 / 8))
        assert lipschitz_u(2) * angle == pytest.approx(1.061, abs=1e-3)

    def test_nondecreasing(self):
        values = [lipschitz_u(d) for d in range(1, 65)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("d", [0, -1, 2.5, "2", True])
    def test_integer_domain(self, d):
        with pytest.raises(OutOfRangeError):
            lipschitz_u(d)

    def test_majorant_dominates_log_squared(self):
        xs = np.linspace(1.0, 100.0, 20001)
        f = np.array([LIPSCHITZ.majorant(float(x)) for x in xs])
        assert np.all(f >= np.log(xs) ** 2 - 1e-12)
        slopes = np.diff(f) / np.diff(xs)
        assert np.all(np.diff(slopes) <= 1e-9)  # concave: slopes nonincreasing

    def test_majorant_domain(self):
        with pytest.raises(OutOfRangeError):
            LIPSCHITZ.majorant(0.5)


class TestAngularBounds:
    def test_sekatski(self):
        assert sekatski_bound(0.0, 3) == 0.0
        assert sekatski_bound(0.1, 2) == pytest.approx(0.16095, abs=1e-5)
        assert sekatski_bound(0.3, 1) == 0.0

    def test_naive_conditional(self):
        assert naive_conditional_bound(0.2, 3, 1) == pytest.approx(
            sekatski_bound(0.2, 3), abs=1e-14
        )
        assert naive_conditional_bound(0.1, 2, 2) == pytest.approx(0.4397, abs=1e-4)
        assert naive_conditional_bound(0.0, 4, 5) == 0.0

    def test_qc_bound(self):
        assert qc_continuity_bound(0.0, 7) == 0.0
        assert qc_continuity_bound(math.acos(math.sqrt(5 / 8)), 2) == pytest.approx(
            1.061, abs=1e-3
        )
        assert qc_continuity_bound(1e-6, 8) == pytest.approx(2 * math.log(8) * 1e-6, rel=1e-12)

    def test_angle_domain(self):
        with pytest.raises(OutOfRangeError):
            qc_continuity_bound(2.0, 2)
        with pytest.raises(OutOfRangeError):
            sekatski_bound(-0.1, 2)

    def test_qc_never_exceeds_naive(self):
        for d_a in range(1, 6):
            for d_b in range(1, 8):
                assert qc_continuity_bound(0.3, d_a) <= naive_conditional_bound(
                    0.3, d_a, d_b
                ) + 1e-12


class TestConvertBounds:
    def test_zero(self):
        assert convert_bounds(0.0, 2) == 0.0

    def test_small_trace_distance(self):
        exact = convert_bounds(0.02, 2)
        assert exact == pytest.approx(0.3224, abs=1e-4)
        approx = lipschitz_u(2) * math.sqrt(2 * 0.02)
        assert approx == pytest.approx(0.3219, abs=1e-4)
        assert exact == pytest.approx(approx, abs=1e-3)

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            convert_bounds(1.5, 2)


class TestHcOfVector:
    def test_point_mass(self):
        v = sqrt_vector(qc((1.0, np.diag([1.0, 0.0]))))
        assert hc_of_vector(v) == 0.0

    def test_uniform(self):
        v = sqrt_vector(qc((0.5, np.eye(2) / 2), (0.5, np.eye(2) / 2)))
        assert hc_of_vector(v) == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_embedded_conditional_entropy(self):
        state = qc((0.75, np.diag([0.2, 0.8])), (0.25, np.eye(2) / 2))
        v = sqrt_vector(state)
        assert_allclose(v.entries, np.sqrt([0.6, 0.15, 0.125, 0.125]), atol=1e-15)
        direct = conditional_entropy(qc_embed(state), 2, 2)
        assert hc_of_vector(v) == pytest.approx(direct, abs=1e-12)

    def test_random_qc_states(self):
        rng = RngHandle(52)
        for _ in range(100):
            state, _ = sample_qc_pair(rng, 3, 2)
            direct = conditional_entropy(qc_embed(state), 3, 2)
            assert hc_of_vector(sqrt_vector(state)) == pytest.approx(direct, abs=1e-10)

    def test_classical_helper_matches(self):
        p = np.array([0.3, 0.2, 0.4, 0.1])
        rho = make_density(np.diag(p))
        assert classical_conditional_entropy(p, 2, 2) == pytest.approx(
            conditional_entropy(rho, 2, 2), abs=1e-12
        )

    @pytest.mark.parametrize("p", [[math.nan, 0.5, 0.5, 0.0], [2.0, -0.5, -0.5, 0.0]])
    def test_classical_helper_validates_raw_arrays(self, p):
        with pytest.raises(OutOfRangeError):
            classical_conditional_entropy(np.array(p), 2, 2)

    def test_classical_helper_checks_the_split(self):
        with pytest.raises(DimensionMismatchError):
            classical_conditional_entropy(np.full(6, 1 / 6), 2, 2)


# Row lengths on both sides of numpy's pairwise-sum thresholds: below 8 the
# sum is sequential, from 8 on it runs in 8 accumulators, and above 128 it
# splits in halves.
STACK_LENGTHS = [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 257, 1024]


def rows_with_zeros(length, seed, n_rows=24):
    """Nonnegative rows of ``length``; the rows take 0, 1 or 3 zeros in turn,
    at random positions."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(length), size=n_rows)
    for row, zeros in zip(rows, [0, 1, 3] * n_rows):
        row[rng.choice(length, size=min(zeros, length), replace=False)] = 0.0
    return rows


def spectra_near_the_floor(length, seed):
    """Rows of ``rows_with_zeros``, some with entries on the fidelity floor
    ``1e-14 * top`` and one spacing either side of it, some with an entry just
    below zero; the last two rows are all zero and all negative."""
    rng = np.random.default_rng(seed)
    rows = rows_with_zeros(length, seed)
    for row in rows[1::3]:
        floor = 1e-14 * row.max()
        near = [np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0)][:length]
        row[rng.choice(length, size=len(near), replace=False)] = near
    for row in rows[2::3]:
        row[rng.integers(length)] = -1e-17
    rows[-2], rows[-1] = 0.0, -1e-17
    return rows


class TestStackedKernels:
    """A stack ``(..., n)`` gives, bit for bit, the 1-D kernel on each row."""

    @pytest.mark.parametrize("length", STACK_LENGTHS)
    def test_entropy_rows(self, length):
        rows = rows_with_zeros(length, seed=length)
        stacked = _entropy_of_probabilities(rows)
        assert stacked.shape == (len(rows),)
        assert np.array_equal(stacked, [_entropy_of_probabilities(row) for row in rows])
        cube = _entropy_of_probabilities(rows.reshape(4, 6, length))
        assert np.array_equal(cube.ravel(), stacked)

    @pytest.mark.parametrize("length", STACK_LENGTHS)
    def test_hc_rows_at_every_split(self, length):
        rows = rows_with_zeros(length, seed=length + 1)
        for d_a in (d for d in range(1, length + 1) if length % d == 0):
            d_b = length // d_a
            stacked = _hc_raw(rows, d_a, d_b)
            assert np.array_equal(stacked, [_hc_raw(row, d_a, d_b) for row in rows])

    def test_fidelity_rows(self):
        p, q = rows_with_zeros(17, seed=5), rows_with_zeros(17, seed=6)
        stacked = _classical_fidelity_rows(p, q)
        assert np.array_equal(stacked, [_classical_fidelity_rows(a, b) for a, b in zip(p, q)])

    @pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 16, 17, 128])
    def test_fidelity_from_spectrum_rows(self, length):
        rows = spectra_near_the_floor(length, seed=length + 2)
        stacked = _fidelity_from_spectrum_rows(rows)
        assert stacked.shape == (len(rows),)
        assert np.array_equal(stacked, [_fidelity_from_spectrum_rows(row) for row in rows])


# d_A d_B <= 4 with at least two outcomes, so that zeros can be placed.
CLASSICAL_ORACLE_SHAPES = [(1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]
# Fixed before the run; the measured worst cases are in README.
ENTROPY_ORACLE_TOL = 2e-15
FIDELITY_ORACLE_TOL = 1e-15


def oracle_distributions(d, seed):
    """Dirichlet draws, some with an exact zero or an entry near 1e-300."""
    rng = np.random.default_rng(seed)
    rows = np.concatenate([rng.dirichlet(np.ones(d), size=100),
                           rng.dirichlet(np.full(d, 0.1), size=100)])
    for row in rows[::4]:
        row[rng.integers(d)] = 0.0
    for row in rows[1::4]:
        row[rng.integers(d)] = 1e-300 * rng.uniform(1.0, 10.0)
    return rows / rows.sum(axis=1, keepdims=True)


class TestClassicalKernelsAgainst50Digits:
    """``classical_conditional_entropy`` and ``classical_fidelity``, single and
    stacked, against a 50-digit evaluation of the same float inputs."""

    @pytest.mark.parametrize("d_a, d_b", CLASSICAL_ORACLE_SHAPES)
    def test_conditional_entropy(self, d_a, d_b):
        rows = oracle_distributions(d_a * d_b, seed=10 * d_a + d_b)
        stacked = _hc_raw(rows, d_a, d_b)
        with mpmath.workdps(50):
            for row, value in zip(rows, stacked):
                exact = entropy_oracle(row, d_a, d_b)
                single = classical_conditional_entropy(make_classical(row), d_a, d_b)
                assert abs(single - exact) <= ENTROPY_ORACLE_TOL
                assert abs(value - exact) <= ENTROPY_ORACLE_TOL

    @pytest.mark.parametrize("d", sorted({d_a * d_b for d_a, d_b in CLASSICAL_ORACLE_SHAPES}))
    def test_fidelity(self, d):
        p = oracle_distributions(d, seed=d)
        # Each row against a fresh draw, against the next row, and against itself.
        q = np.concatenate([oracle_distributions(d, seed=d + 100), np.roll(p, 1, axis=0), p])
        p = np.concatenate([p, p, p])
        stacked = _classical_fidelity_rows(p, q)
        with mpmath.workdps(50):
            for a, b, value in zip(p, q, stacked):
                exact = classical_fidelity_oracle(a, b)
                single = classical_fidelity(make_classical(a), make_classical(b))
                assert abs(single - exact) <= FIDELITY_ORACLE_TOL
                assert abs(value - exact) <= FIDELITY_ORACLE_TOL


class TestHcDerivative:
    def test_identical_endpoints_rejected(self):
        state = qc((1.0, np.diag([0.6, 0.4])))
        with pytest.raises(OutOfRangeError):
            great_circle_path(sqrt_vector(state), sqrt_vector(state))

    def test_against_finite_differences_unconditioned(self):
        # d_B = 1 path from a pure state to the maximally mixed one
        r = sqrt_vector(qc((1.0, np.diag([1.0, 0.0]))))
        s = sqrt_vector(qc((1.0, np.eye(2) / 2)))
        path = great_circle_path(r, s)
        theta = path.theta0 / 2
        h = 1e-6
        fd = (path.hc(theta + h) - path.hc(theta - h)) / (2 * h)
        assert hc_derivative(path, theta) == pytest.approx(fd, abs=1e-6)

    def test_path_geometry(self):
        rng = RngHandle(53)
        left, right = sample_qc_pair(rng, 3, 2)
        path = great_circle_path(sqrt_vector(left), sqrt_vector(right))
        assert_allclose(path.v(0.0), path.r.entries, atol=1e-12)
        assert_allclose(path.v(path.theta0), path.s.entries, atol=1e-12)
        for theta in np.linspace(0.0, path.theta0, 7):
            assert abs(np.linalg.norm(path.v(theta)) - 1.0) <= 1e-10
            assert abs(np.linalg.norm(path.w(theta)) - 1.0) <= 1e-10
            assert abs(path.v(theta) @ path.w(theta)) <= 1e-10

    def test_theta_domain(self):
        rng = RngHandle(54)
        left, right = sample_qc_pair(rng, 2, 2)
        path = great_circle_path(sqrt_vector(left), sqrt_vector(right))
        for theta in (0.0, path.theta0, -0.1, path.theta0 + 0.1):
            with pytest.raises(OutOfRangeError):
                hc_derivative(path, theta)

    def test_bounded_by_lipschitz_constant(self):
        rng = RngHandle(55)
        for _ in range(30):
            d_a = int(rng.generator.integers(2, 5))
            d_b = int(rng.generator.integers(1, 5))
            left, right = sample_qc_pair(rng, d_a, d_b)
            path = great_circle_path(sqrt_vector(left), sqrt_vector(right))
            for frac in np.linspace(0.05, 0.95, 10):
                deriv = hc_derivative(path, float(frac) * path.theta0)
                assert abs(deriv) <= lipschitz_u(d_a) + 1e-8

    def test_zero_eigenvalue_blocks_are_dropped(self):
        # one block shared, one block supported only on the left endpoint
        left = qc((0.5, np.diag([1.0, 0.0])), (0.5, np.diag([0.7, 0.3])))
        right = qc((0.0, np.eye(2) / 2), (1.0, np.diag([0.6, 0.4])))
        path = great_circle_path(sqrt_vector(left), sqrt_vector(right))
        theta = 0.3 * path.theta0
        h = 1e-6
        fd = (path.hc(theta + h) - path.hc(theta - h)) / (2 * h)
        assert hc_derivative(path, theta) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_conditional_entropy_stays_in_range():
    rng = RngHandle(57)
    for _ in range(100):
        d_a = int(rng.generator.integers(2, 4))
        d_b = int(rng.generator.integers(1, 4))
        rho = sample_density(rng, d_a * d_b)
        value = conditional_entropy(rho, d_a, d_b)
        assert -math.log(min(d_a, d_b)) - 1e-9 <= value <= math.log(d_a) + 1e-9


def test_qc_pairs_respect_continuity_bound():
    rng = RngHandle(56)
    for _ in range(500):
        left, right = sample_qc_pair(rng, 2, 2)
        rho, sigma = qc_embed(left), qc_embed(right)
        diff = abs(conditional_entropy(rho, 2, 2) - conditional_entropy(sigma, 2, 2))
        assert diff <= qc_continuity_bound(angular_distance(rho, sigma), 2) + 1e-9
