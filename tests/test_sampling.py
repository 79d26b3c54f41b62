import numpy as np
import pytest
from numpy.testing import assert_allclose

from entrobound.errors import OutOfRangeError, RejectionBudgetExhaustedError
from entrobound.metrics import classical_fidelity
from entrobound.sampling import (
    RngHandle,
    sample_classical_pair_at_angle,
    sample_density,
    sample_haar_unitary,
    sample_qc_pair,
    sample_simplex,
)
from entrobound.states import qc_embed


class TestRngHandle:
    def test_determinism(self):
        a = sample_simplex(RngHandle(123), 5)
        b = sample_simplex(RngHandle(123), 5)
        assert np.array_equal(a.probs, b.probs)

    def test_streams_are_deterministic_and_distinct(self):
        base = RngHandle(9000)
        u1 = sample_haar_unitary(base.stream(3), 3)
        u2 = sample_haar_unitary(RngHandle(9003), 3)
        assert np.array_equal(u1, u2)
        assert not np.allclose(u1, sample_haar_unitary(base.stream(4), 3))

    def test_split_rule_overlaps_neighbouring_seeds(self):
        # stream(i) is seed + i, so seed s stream 1 is seed s + 1 stream 0.
        # This records the current split rule; it is not a property to keep.
        for seed in (0, 20221, 2**64 - 2):
            a = RngHandle(seed).stream(1).generator.standard_normal(8)
            b = RngHandle(seed + 1).stream(0).generator.standard_normal(8)
            assert np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(OutOfRangeError):
            RngHandle(-1)
        with pytest.raises(OutOfRangeError):
            RngHandle(2**64)
        assert RngHandle(2**64 - 1).stream(5).seed == 4

    def test_sequences_are_reproducible_across_calls(self):
        rng1, rng2 = RngHandle(77), RngHandle(77)
        for _ in range(5):
            assert np.array_equal(
                sample_density(rng1, 3).matrix, sample_density(rng2, 3).matrix
            )


class TestSampleSimplex:
    def test_single_point(self):
        assert_allclose(sample_simplex(RngHandle(1), 1).probs, [1.0])

    def test_pair_sums_to_one(self):
        p = sample_simplex(RngHandle(2), 2)
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_validations_hold_in_bulk(self):
        rng = RngHandle(3)
        for _ in range(10_000):
            p = sample_simplex(rng, 4)
            assert np.all(p.probs >= 0.0)
            assert abs(p.probs.sum() - 1.0) <= 1e-12

    def test_uniform_moments(self):
        rng = RngHandle(4)
        total = np.zeros(3)
        n = 100_000
        for _ in range(n):
            total += sample_simplex(rng, 3).probs
        assert_allclose(total / n, np.full(3, 1 / 3), atol=0.01)

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            sample_simplex(RngHandle(5), 0)

    def test_rejects_a_non_integer_size(self):
        with pytest.raises(OutOfRangeError):
            sample_simplex(RngHandle(5), 2.0)


class TestSampleHaarUnitary:
    def test_scalar_case(self):
        u = sample_haar_unitary(RngHandle(6), 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("d", [0, True, 2.0])
    def test_rejects_dims_that_are_not_integers_from_one(self, d):
        with pytest.raises(OutOfRangeError):
            sample_haar_unitary(RngHandle(6), d)

    def test_unitarity_in_bulk(self):
        rng = RngHandle(7)
        for _ in range(10_000):
            u = sample_haar_unitary(rng, 3)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-10

    def test_first_entry_moment(self):
        rng = RngHandle(8)
        n = 100_000
        total = 0.0
        for _ in range(n):
            u = sample_haar_unitary(rng, 4)
            total += abs(u[0, 0]) ** 2
        assert total / n == pytest.approx(0.25, abs=0.01)

    def test_left_multiplication_invariance(self):
        # the |U_11|^2 moment is unchanged under a fixed left rotation
        fixed = sample_haar_unitary(RngHandle(9), 4)
        rng = RngHandle(10)
        n = 50_000
        total = 0.0
        for _ in range(n):
            u = fixed @ sample_haar_unitary(rng, 4)
            total += abs(u[0, 0]) ** 2
        assert total / n == pytest.approx(0.25, abs=0.01)


class TestSampleQcPair:
    def test_single_block_reduces_to_density_pair(self):
        left, right = sample_qc_pair(RngHandle(11), 3, 1)
        assert left.dim_b == 1 and right.dim_b == 1
        assert left.blocks[0][0] == pytest.approx(1.0)
        assert left.blocks[0][1].dim == 3

    def test_draws_embed_to_valid_densities(self):
        rng = RngHandle(12)
        for _ in range(5_000):
            left, right = sample_qc_pair(rng, 2, 2)  # construction validates both
        # spot-check the last draw end to end
        rho = qc_embed(left)
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-9
        assert np.min(rho.eigenvalues) >= -1e-10

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            sample_qc_pair(RngHandle(13), 0, 2)

    @pytest.mark.parametrize("dims", [(2, 0), (2.0, 2), (2, 2.0)])
    def test_rejects_dims_that_are_not_integers_from_one(self, dims):
        with pytest.raises(OutOfRangeError):
            sample_qc_pair(RngHandle(13), *dims)


class TestSampleClassicalPairAtAngle:
    @pytest.mark.parametrize("angle", [1e-6, 1e-3, 0.3, 1.0])
    def test_dot_product_is_exact(self, angle):
        rng = RngHandle(14)
        for _ in range(200):
            p, q = sample_classical_pair_at_angle(rng, 4, angle)
            dot = float(np.sqrt(p.probs) @ np.sqrt(q.probs))
            assert abs(dot - np.cos(angle)) <= 1e-12
            assert np.all(p.probs >= 0) and np.all(q.probs >= 0)
            assert abs(p.probs.sum() - 1.0) <= 1e-12
            assert abs(q.probs.sum() - 1.0) <= 1e-12

    def test_angle_recovered_at_moderate_scale(self):
        rng = RngHandle(15)
        for angle in (1e-2, 0.3, 1.2):
            p, q = sample_classical_pair_at_angle(rng, 6, angle)
            assert np.arccos(classical_fidelity(p, q)) == pytest.approx(angle, abs=1e-10)

    def test_rejections_are_rare_at_small_angles(self):
        rng = RngHandle(16)
        failures = 0
        trials = 10_000
        for _ in range(trials):
            try:
                sample_classical_pair_at_angle(rng, 4, 1e-6, max_rejects=1)
            except RejectionBudgetExhaustedError:
                failures += 1
        assert failures / trials < 0.01

    def test_budget_exhaustion_raises(self):
        message = "^5 consecutive rejections at angle 1.47, d=16$"
        with pytest.raises(RejectionBudgetExhaustedError, match=message):
            sample_classical_pair_at_angle(RngHandle(17), 16, 1.47, max_rejects=5)

    def test_parallel_direction_is_redrawn_without_counting_as_a_rejection(self):
        class Scripted:
            # r, then a direction parallel to r, then an orthogonal one.
            draws = [np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([1.0, -1.0])]

            def standard_normal(self, d):
                return self.draws.pop(0)

        rng = RngHandle(0)
        rng.generator = Scripted()
        p, q = sample_classical_pair_at_angle(rng, 2, 0.1, max_rejects=1)
        s = (np.cos(0.1) * np.array([1.0, 1.0]) + np.sin(0.1) * np.array([1.0, -1.0])) / np.sqrt(2)
        assert not rng.generator.draws
        assert_allclose(p.probs, [0.5, 0.5], atol=1e-15)
        assert_allclose(q.probs, s * s, atol=1e-15)

    @pytest.mark.parametrize("kwargs", [
        {"d": 1, "angle": 0.1},
        {"d": 4, "angle": 0.0},
        {"d": 4, "angle": np.pi / 2},
        {"d": 4, "angle": 0.1, "max_rejects": 0},
        {"d": 4.0, "angle": 0.1},
    ])
    def test_domain(self, kwargs):
        with pytest.raises(OutOfRangeError):
            sample_classical_pair_at_angle(RngHandle(18), **kwargs)
