import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import reference_pair_at_angle

from entrobound import sampling, states
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

    @pytest.mark.parametrize("seed", [3.7, 3.0, True, "5"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(OutOfRangeError, match=repr(seed)):
            RngHandle(seed)

    @pytest.mark.parametrize("index", [1.7, True, "2"])
    def test_stream_index_must_be_an_integer(self, index):
        # int() would read these as 1, 1 and 2, giving seeds 6, 6 and 7.
        with pytest.raises(OutOfRangeError, match=repr(index)):
            RngHandle(5).stream(index)

    def test_numpy_integer_stream_index_keeps_the_split_rule(self):
        child = RngHandle(2**64 - 1).stream(np.int64(5))
        assert type(child.seed) is int and child.seed == 4

    def test_numpy_integer_seed_draws_as_the_int(self):
        a = RngHandle(np.int64(5))
        assert type(a.seed) is int
        assert np.array_equal(a.generator.standard_normal(4),
                              RngHandle(5).generator.standard_normal(4))

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


# Fixed before the run: about 60 d eps at d = 8, room for the rounding of
# forming the matrix plus the oracle eigensolver's backward error.
SAMPLER_ORACLE_TOL = 1e-13


class TestSampleDensity:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_stored_eigensystem_matches_a_fresh_eigensolve(self, d):
        rng = RngHandle(100 + d)
        for _ in range(40):
            draw = sample_density(rng, d)
            w, v = draw.eigenvalues, draw.spectrum.eigenvectors
            oracle = states.trusted_density(draw.matrix)
            assert np.all(np.diff(w) >= 0.0) and np.min(w) >= 0.0
            assert np.max(np.abs(w - oracle.eigenvalues)) <= SAMPLER_ORACLE_TOL
            assert np.max(np.abs(draw.spectrum.reconstruct() - draw.matrix)) <= SAMPLER_ORACLE_TOL
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= SAMPLER_ORACLE_TOL
            assert not any(a.flags.writeable for a in (draw.matrix, w, v))


class TestSampleQcPair:
    def test_single_block_reduces_to_density_pair(self):
        left, right = sample_qc_pair(RngHandle(11), 3, 1)
        assert left.dim_b == 1 and right.dim_b == 1
        assert left.blocks[0][0] == pytest.approx(1.0)
        assert left.blocks[0][1].dim == 3

    def test_draws_embed_to_valid_densities(self):
        rng = RngHandle(12)
        for _ in range(5_000):
            left, right = sample_qc_pair(rng, 2, 2)  # valid by construction, not checked
        # spot-check the last draw end to end; the embedding decomposes it afresh
        rho = qc_embed(left)
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-9
        assert np.min(rho.eigenvalues) >= -1e-10

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            sample_qc_pair(RngHandle(13), 0, 2)

    def test_checks_each_dimension_once(self, monkeypatch):
        calls = []
        original = states.check_dimension

        def counting(d, least=1):
            calls.append(d)
            return original(d, least)

        for module in (states, sampling):
            monkeypatch.setattr(module, "check_dimension", counting)
        sample_qc_pair(RngHandle(14), 2, 16)
        assert calls == [2, 16]
        sample_density(RngHandle(14), 3)
        assert calls == [2, 16, 3]

    def test_draws_in_the_order_of_the_public_samplers(self):
        left, right = sample_qc_pair(RngHandle(15), 2, 3)
        rng = RngHandle(15)
        for state in (left, right):
            weights = sample_simplex(rng, 3).probs
            for (w, block), expected in zip(state.blocks, weights):
                assert w == float(expected)
                assert np.array_equal(block.matrix, sample_density(rng, 2).matrix)

    @pytest.mark.parametrize("dims", [(2, 0), (2.0, 2), (2, 2.0)])
    def test_rejects_dims_that_are_not_integers_from_one(self, dims):
        with pytest.raises(OutOfRangeError):
            sample_qc_pair(RngHandle(13), *dims)


def scripted_parallel_handle() -> RngHandle:
    """A handle whose draws are r, then a direction parallel to r, then an
    orthogonal one."""

    class Scripted:
        draws = [np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([1.0, -1.0])]

        def standard_normal(self, d):
            return self.draws.pop(0)

    rng = RngHandle(0)
    rng.generator = Scripted()
    return rng


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
        rng = scripted_parallel_handle()
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
        {"d": 4, "angle": 0.1, "max_rejects": 2.5},
        {"d": 4, "angle": 0.1, "max_rejects": "3"},
        {"d": 4, "angle": 0.1, "max_rejects": float("nan")},
        {"d": 4, "angle": 0.1, "max_rejects": True},
    ])
    def test_domain(self, kwargs):
        with pytest.raises(OutOfRangeError):
            sample_classical_pair_at_angle(RngHandle(18), **kwargs)


# At d = 16 and angle 1.0 the budget of 1000 rejections runs out.
REFERENCE_CASES = [(d, angle) for d in (2, 3, 16, 32) for angle in (1e-6, 1e-3, 0.3, 1.0)
                   if angle < 1.0 or d <= 4]


def angle_routes(d, angle, max_rejects=sampling.MAX_REJECTS):
    """The public sampler, its body and the reference loop, each giving ``(p, q)`` arrays."""
    return {
        "public": lambda rng: tuple(
            x.probs for x in sample_classical_pair_at_angle(rng, d, angle, max_rejects)),
        "body": lambda rng: sampling._classical_pair_at_angle(rng, d, angle, max_rejects),
        "reference": lambda rng: reference_pair_at_angle(rng, d, angle, max_rejects),
    }


def bits(pairs):
    return [a.tobytes() for pair in pairs for a in pair]


class TestAngleSamplerAgainstReference:
    """The public sampler and its body against ``oracles.reference_pair_at_angle``, bit for bit."""

    @pytest.mark.parametrize("d, angle", REFERENCE_CASES)
    @pytest.mark.parametrize("seed", [14, 2611, 90210])
    def test_pairs_and_draws_match_bit_for_bit(self, d, angle, seed):
        results = {}
        for name, route in angle_routes(d, angle).items():
            rng = RngHandle(seed)
            pairs = [route(rng) for _ in range(20)]
            results[name] = bits(pairs), rng.generator.bit_generator.state
        assert results["public"] == results["reference"]
        assert results["body"] == results["reference"]

    def test_parallel_direction_matches(self):
        results = {}
        for name, route in angle_routes(2, 0.1, max_rejects=1).items():
            rng = scripted_parallel_handle()
            results[name] = bits([route(rng)])
            assert not rng.generator.draws
        assert results["public"] == results["body"] == results["reference"]

    def test_budget_exhaustion_matches(self):
        after = []
        for route in angle_routes(16, 1.47, max_rejects=5).values():
            rng = RngHandle(17)
            with pytest.raises(RejectionBudgetExhaustedError,
                               match="^5 consecutive rejections at angle 1.47, d=16$"):
                route(rng)
            after.append(rng.generator.bit_generator.state)
        assert after[0] == after[1] == after[2]
