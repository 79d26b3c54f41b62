import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import rand_invertible_density, rand_pure_density
from oracles import chained_reciprocal_pair, reciprocal_pair

from entrobound import linalg
from entrobound.errors import (
    DimensionMismatchError,
    InvalidDeltaError,
    NotInvertibleError,
    OutOfRangeError,
)
from entrobound.fvdg import (
    SPECTRAL_CLUSTER_TOL,
    PairClass,
    SaturationClass,
    classical_saturation_class,
    classify_pair,
    fidelity_optimal_measurement,
    is_fidelity_optimal,
    is_trace_optimal,
    perturbation_trace,
    pure_fidelity_optimal,
    trace_optimal_measurements,
)
from entrobound.metrics import (
    classical_fidelity,
    classical_trace_distance,
    distance_triple,
    fidelity,
    make_measurement,
    measure,
    trace_distance,
)
from entrobound.sampling import RngHandle, sample_density, sample_haar_unitary, sample_simplex
from entrobound.states import make_classical, make_density, make_qc_state, qc_embed


def diag_density(*probs):
    return make_density(np.diag(probs))


def swap_family(b):
    rho = diag_density(1 / (1 + b), b / (1 + b))
    sigma = diag_density(b / (1 + b), 1 / (1 + b))
    return rho, sigma


ZERO = diag_density(1.0, 0.0)
PLUS = make_density(np.full((2, 2), 0.5))
DELTAS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def rank_deficient_density(rng, d, rank):
    """Random density of the given rank and its eigenbasis."""
    probs = np.zeros(d)
    probs[:rank] = sample_simplex(rng, rank).probs
    u = sample_haar_unitary(rng, d)
    return make_density((u * probs) @ u.conj().T), u


def polar_reference(rho, sigma, basis, deltas):
    """The polar/SVD route of perturbation_trace, one basis vector at a time.

    ``mu = <e| sqrt(sigma_d) U_d sqrt(rho_d) |e> / <e| rho_d |e>`` with
    ``U_d`` the polar unitary of ``sqrt(rho_d) sqrt(sigma_d)``.  Returns mu,
    the residuals, and per delta ``max(1, max|M_d|)``, the condition number
    of ``rho_d`` and the weights ``<e| rho_d |e>``.
    """
    d = rho.dim
    eye = np.eye(d)
    in_support = np.real(np.einsum("ix,ij,jx->x", basis.conj(), rho.matrix, basis)) > 1e-12
    mu = np.full((len(deltas), d), np.nan, dtype=complex)
    residuals = np.full((len(deltas), d), np.nan)
    weights = np.full((len(deltas), d), np.nan)
    scales, kappas = [], []
    for i, delta in enumerate(deltas):
        rho_d = (1.0 - delta) * rho.matrix + delta * eye / d
        sigma_d = (1.0 - delta) * sigma.matrix + delta * eye / d
        sqrt_rho = linalg.mat_sqrt(rho_d)
        sqrt_sigma = linalg.mat_sqrt(sigma_d)
        u_mat, _, vh = np.linalg.svd(sqrt_rho @ sqrt_sigma)
        cross = sqrt_sigma @ (vh.conj().T @ u_mat.conj().T) @ sqrt_rho
        m_delta = linalg.m_operator(rho_d, sigma_d)
        scales.append(max(1.0, float(np.max(np.abs(m_delta)))))
        w = np.linalg.eigvalsh(rho_d)
        kappas.append(w[-1] / w[0])
        for x in np.flatnonzero(in_support):
            e = basis[:, x]
            weights[i, x] = float(np.real(e.conj() @ rho_d @ e))
            mu[i, x] = complex(e.conj() @ cross @ e) / weights[i, x]
            residuals[i, x] = np.linalg.norm(sqrt_rho @ ((m_delta - abs(mu[i, x]) * eye) @ e))
    return mu, residuals, np.array(scales)[:, None], np.array(kappas)[:, None], weights


def reference_cases(seed, sigma_rank_deficient):
    """perturbation_trace next to polar_reference on rank-deficient rho, d = 2..8.

    Odd cases measure in rho's eigenbasis, so kernel columns are NaN.
    """
    rng = RngHandle(seed)
    for k in range(56):
        d = 2 + k % 7
        rho, eigvecs = rank_deficient_density(rng, d, 1 + (k // 7) % (d - 1))
        if sigma_rank_deficient:
            sigma, _ = rank_deficient_density(rng, d, 1 + (k // 2) % (d - 1))
        else:
            sigma = sample_density(rng, d)
        basis = eigvecs if k % 2 else sample_haar_unitary(rng, d)
        trace = perturbation_trace(rho, sigma, make_measurement(basis), DELTAS)
        reference = polar_reference(rho, sigma, basis, DELTAS)
        assert np.array_equal(np.isnan(trace.mu_values), np.isnan(reference[0]))
        assert np.array_equal(np.isnan(trace.residuals), np.isnan(reference[1]))
        yield trace, reference


class TestTraceOptimal:
    def test_equal_states_any_basis(self):
        rho = diag_density(0.5, 0.5)
        rng = RngHandle(61)
        meas = trace_optimal_measurements(rho, rho)
        p, q = measure(meas, rho), measure(meas, rho)
        assert classical_trace_distance(p, q) == pytest.approx(0.0, abs=1e-12)
        for _ in range(10):
            basis = make_measurement(sample_haar_unitary(rng, 2))
            assert is_trace_optimal(basis, rho, rho)

    def test_equal_states_return_computational_basis(self):
        rho = diag_density(0.5, 0.5)
        meas = trace_optimal_measurements(rho, rho)
        assert_allclose(np.abs(meas.basis), np.eye(2), atol=1e-12)

    def test_diagonal_pair(self):
        rho, sigma = diag_density(0.7, 0.3), diag_density(0.4, 0.6)
        assert is_trace_optimal(make_measurement(np.eye(2)), rho, sigma)
        meas = trace_optimal_measurements(rho, sigma)
        p, q = measure(meas, rho), measure(meas, sigma)
        assert classical_trace_distance(p, q) == pytest.approx(
            trace_distance(rho, sigma), abs=1e-10
        )

    def test_mixed_against_plus(self):
        rho = diag_density(0.6, 0.4)
        meas = trace_optimal_measurements(rho, PLUS)
        p, q = measure(meas, rho), measure(meas, PLUS)
        assert classical_trace_distance(p, q) == pytest.approx(
            trace_distance(rho, PLUS), abs=1e-10
        )
        assert is_trace_optimal(meas, rho, PLUS)

    def test_hadamard_fails_on_disjoint_diagonal_parts(self):
        rho, sigma = diag_density(0.7, 0.3), diag_density(0.4, 0.6)
        hadamard = make_measurement(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert not is_trace_optimal(hadamard, rho, sigma)

    def test_membership_matches_achieving_the_optimum(self):
        rng = RngHandle(62)
        for _ in range(20):
            d = int(rng.generator.integers(2, 6))
            rho = rand_invertible_density(rng, d)
            sigma = rand_invertible_density(rng, d)
            t = trace_distance(rho, sigma)
            bases = [trace_optimal_measurements(rho, sigma)] + [
                make_measurement(sample_haar_unitary(rng, d)) for _ in range(200)
            ]
            for basis in bases:
                achieved = classical_trace_distance(measure(basis, rho), measure(basis, sigma))
                assert is_trace_optimal(basis, rho, sigma) == (abs(achieved - t) <= 1e-8)


class TestFidelityOptimal:
    def test_equal_states(self):
        rho = diag_density(0.6, 0.4)
        meas = fidelity_optimal_measurement(rho, rho)
        p, q = measure(meas, rho), measure(meas, rho)
        assert classical_fidelity(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_commuting_pair(self):
        rho, sigma = diag_density(0.7, 0.3), diag_density(0.4, 0.6)
        # M is diagonal, so the computational basis is an eigenbasis
        assert is_fidelity_optimal(make_measurement(np.eye(2)), rho, sigma)
        meas = fidelity_optimal_measurement(rho, sigma)
        p, q = measure(meas, rho), measure(meas, sigma)
        assert classical_fidelity(p, q) == pytest.approx(fidelity(rho, sigma), abs=1e-10)

    def test_random_qutrit_pair_is_a_minimum(self):
        rng = RngHandle(63)
        rho = rand_invertible_density(rng, 3)
        sigma = rand_invertible_density(rng, 3)
        f = fidelity(rho, sigma)
        meas = fidelity_optimal_measurement(rho, sigma)
        p, q = measure(meas, rho), measure(meas, sigma)
        assert classical_fidelity(p, q) == pytest.approx(f, abs=1e-9)
        for _ in range(100):
            basis = make_measurement(sample_haar_unitary(rng, 3))
            achieved = classical_fidelity(measure(basis, rho), measure(basis, sigma))
            assert achieved >= f - 1e-9

    def test_mixing_eigenspaces_loses_optimality(self):
        rho, sigma = swap_family(0.25)  # spec(M) = {1/2, 2}, eigenbasis computational
        mixed = make_measurement(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert not is_fidelity_optimal(mixed, rho, sigma)
        achieved = classical_fidelity(measure(mixed, rho), measure(mixed, sigma))
        assert achieved > fidelity(rho, sigma) + 1e-3

    def test_degenerate_m_accepts_every_basis(self):
        rng = RngHandle(64)
        rho = rand_invertible_density(rng, 2)
        for _ in range(10):
            basis = make_measurement(sample_haar_unitary(rng, 2))
            assert is_fidelity_optimal(basis, rho, rho)

    def test_rejects_singular_states(self):
        with pytest.raises(NotInvertibleError):
            fidelity_optimal_measurement(ZERO, PLUS)
        with pytest.raises(NotInvertibleError):
            is_fidelity_optimal(make_measurement(np.eye(2)), ZERO, PLUS)

    def test_membership_matches_achieving_the_optimum(self):
        rng = RngHandle(65)
        for _ in range(20):
            d = int(rng.generator.integers(2, 6))
            rho = rand_invertible_density(rng, d)
            sigma = rand_invertible_density(rng, d)
            f = fidelity(rho, sigma)
            bases = [fidelity_optimal_measurement(rho, sigma)] + [
                make_measurement(sample_haar_unitary(rng, d)) for _ in range(200)
            ]
            for basis in bases:
                achieved = classical_fidelity(measure(basis, rho), measure(basis, sigma))
                assert is_fidelity_optimal(basis, rho, sigma) == (abs(achieved - f) <= 1e-8)


class TestClassicalSaturationClass:
    def test_equal(self):
        p = make_classical([0.3, 0.7])
        assert classical_saturation_class(p, p) is SaturationClass.BOTH

    def test_disjoint_supports(self):
        p = make_classical([0.5, 0.5, 0.0])
        q = make_classical([0.0, 0.0, 1.0])
        assert classical_saturation_class(p, q) is SaturationClass.BOTH

    def test_ratio_family_is_upper_only(self):
        b = 0.25
        p = make_classical([1 / (1 + b), b / (1 + b)])
        q = make_classical([b / (1 + b), 1 / (1 + b)])
        assert classical_saturation_class(p, q) is SaturationClass.C2
        t = classical_trace_distance(p, q)
        f = classical_fidelity(p, q)
        assert t == pytest.approx(np.sqrt(1 - f * f), abs=1e-12)
        assert 1 - f != pytest.approx(t, abs=1e-3)

    def test_lower_only(self):
        p = make_classical([0.5, 0.5, 0.0])
        q = make_classical([0.5, 0.0, 0.5])
        assert classical_saturation_class(p, q) is SaturationClass.C1
        t = classical_trace_distance(p, q)
        f = classical_fidelity(p, q)
        assert 1 - f == pytest.approx(t, abs=1e-12)

    def test_neither(self):
        p = make_classical([0.7, 0.3])
        q = make_classical([0.4, 0.6])
        assert classical_saturation_class(p, q) is SaturationClass.NEITHER

    def test_ratios_in_one_cluster_at_one(self):
        # |p - q| = 5e-9 is beyond CLASSICAL_TOL, so C1 fails, but the
        # ratios 1 -+ 1e-8 cluster at 1 within SPECTRAL_CLUSTER_TOL.
        p = make_classical([0.5, 0.5])
        q = make_classical([0.5 - 5e-9, 0.5 + 5e-9])
        assert classical_saturation_class(p, q) is SaturationClass.C2

    @given(
        b=st.floats(0.05, 0.95),
        weights=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
        flips=st.lists(st.booleans(), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_ratio_families_saturate_upper(self, b, weights, flips):
        # build p with mass 1/(1+b) on the "ratio b" part and b/(1+b) on the
        # "ratio 1/b" part; then q(x) = b p(x) or p(x)/b pointwise and both
        # normalize, which is exactly the upper-saturation structure
        n = min(len(weights), len(flips))
        weights, flips = np.array(weights[:n]), np.array(flips[:n], dtype=bool)
        if flips.all() or (~flips).all():
            flips[0] = not flips[0]
        p = np.empty(n)
        down, up = flips, ~flips
        p[down] = weights[down] / weights[down].sum() / (1 + b)
        p[up] = weights[up] / weights[up].sum() * b / (1 + b)
        q = np.where(down, b * p, p / b)
        cls = classical_saturation_class(make_classical(p), make_classical(q))
        assert cls in (SaturationClass.C2, SaturationClass.BOTH)

    def test_classes_match_residuals(self):
        rng = RngHandle(66)
        from entrobound.sampling import sample_simplex

        for _ in range(200):
            d = int(rng.generator.integers(2, 6))
            p, q = sample_simplex(rng, d), sample_simplex(rng, d)
            cls = classical_saturation_class(p, q)
            t = classical_trace_distance(p, q)
            f = classical_fidelity(p, q)
            lower = abs(1 - f - t) <= 1e-8
            upper = abs(np.sqrt(max(0.0, 1 - f * f)) - t) <= 1e-8
            assert (cls in (SaturationClass.C1, SaturationClass.BOTH)) == lower
            assert (cls in (SaturationClass.C2, SaturationClass.BOTH)) == upper


# Fixed on seed 0, where the largest ratio was 2.19 over 2100 draws; asserted
# on seed 3000.
EQUAL_UPPER_GAP_FLOOR = 3.0


class TestClassifyPair:
    def test_equal_pair_upper_gap_is_noise_below_its_floor(self):
        # upper_gap = sqrt(1 - F^2) with F just below 1 is not 0 but noise of
        # size sqrt(eps / lambda_min(rho)); its floor as SaturationReport states.
        eps = np.finfo(float).eps
        ratios, positive = [], 0
        for d in (2, 3, 4, 6, 8, 12, 16):
            rng = RngHandle(3000 + d)
            for _ in range(300):
                rho = make_density(sample_density(rng, d).matrix)
                report = classify_pair(rho, rho)
                assert report.pair_class is PairClass.EQUAL
                ratios.append(report.upper_gap * np.sqrt(rho.eigenvalues[0] / eps))
                positive += report.upper_gap > 0.0
        assert max(ratios) <= EQUAL_UPPER_GAP_FLOOR
        assert positive >= len(ratios) // 4

    @pytest.mark.parametrize("lam", [5e-8, 1e-8, 1e-10])
    def test_equal_pair_upper_gap_below_the_fidelity_floor(self, lam):
        # lam^2 falls under the fidelity's relative floor, so F = 1 - lam.
        rho = diag_density(1.0 - lam, lam)
        assert classify_pair(rho, rho).upper_gap == pytest.approx(np.sqrt(2.0 * lam), rel=1e-6)

    def test_equal_invertible(self):
        rho = diag_density(0.6, 0.4)
        report = classify_pair(rho, rho)
        assert report.pair_class is PairClass.EQUAL
        assert report.invertible
        assert report.lower_gap == pytest.approx(0.0, abs=1e-12)
        assert report.upper_gap == pytest.approx(0.0, abs=1e-12)
        assert_allclose(report.m, np.eye(2), atol=1e-10)

    def test_m_matches_the_validated_route(self):
        # classify_pair feeds rho's cached spectrum to the kernel; the public
        # m_operator re-validates and re-decomposes, and must agree bit for bit.
        rng = RngHandle(71)
        for d in (2, 3, 4, 8):
            for _ in range(10):
                rho = rand_invertible_density(rng, d)
                sigma = rand_invertible_density(rng, d)
                report = classify_pair(rho, sigma)
                assert np.array_equal(report.m, linalg.m_operator(rho.matrix, sigma.matrix))

    @pytest.mark.parametrize("kind", ["dense", "qc", "pure", "equal", "upper"])
    def test_shared_product_changes_no_value(self, kind):
        # classify_pair reuses the fidelity solve's sqrt(rho) sigma sqrt(rho)
        # and rho - sigma; M and the distances stay those of the own routes.
        rng = RngHandle(73)
        if kind == "dense":
            rho, sigma = rand_invertible_density(rng, 4), rand_invertible_density(rng, 4)
        elif kind == "qc":
            rho, sigma = (
                qc_embed(make_qc_state([(w, rand_invertible_density(rng, 2)) for w in (0.3, 0.7)]))
                for _ in range(2)
            )
        elif kind == "pure":
            rho, sigma = rand_pure_density(rng, 3)[0], rand_pure_density(rng, 3)[0]
        elif kind == "equal":
            rho = sigma = rand_invertible_density(rng, 3)
        else:
            rho, sigma = swap_family(0.25)
        report = classify_pair(rho, sigma)
        triple = distance_triple(rho, sigma)
        for field in ("trace_distance", "fidelity", "angular"):
            assert getattr(report.distances, field) == getattr(triple, field)
        if kind == "pure":
            assert report.m is None
        else:
            assert np.array_equal(report.m, linalg.m_operator(rho.matrix, sigma.matrix))
        expected = {"equal": PairClass.EQUAL, "upper": PairClass.UPPER_SATURATED}
        if kind in expected:
            assert report.pair_class is expected[kind]

    @pytest.mark.parametrize("b", [0.1, 0.25, 0.7])
    def test_swap_family(self, b):
        rho, sigma = swap_family(b)
        report = classify_pair(rho, sigma)
        assert report.pair_class is PairClass.UPPER_SATURATED
        assert report.c_value == pytest.approx(np.sqrt(b), abs=1e-10)
        assert_allclose(np.sort(report.spectrum_of_m), [np.sqrt(b), 1 / np.sqrt(b)], atol=1e-10)
        assert report.commutator_residual <= 1e-10
        assert report.upper_gap == pytest.approx(0.0, abs=1e-10)

    def test_haar_conjugated_family(self):
        rng = RngHandle(67)
        rho, sigma = swap_family(0.25)
        for _ in range(10):
            u = sample_haar_unitary(rng, 2)
            rho_u = make_density(u @ rho.matrix @ u.conj().T)
            sigma_u = make_density(u @ sigma.matrix @ u.conj().T)
            report = classify_pair(rho_u, sigma_u)
            assert report.pair_class is PairClass.UPPER_SATURATED
            assert report.c_value == pytest.approx(0.5, abs=1e-8)
            # M rho M = sigma holds at every classification
            resid = report.m @ rho_u.matrix @ report.m - sigma_u.matrix
            assert np.max(np.abs(resid)) <= 1e-8

    def test_block_diagonal_extension(self):
        rho, sigma = swap_family(0.36)
        rho4 = make_density(0.5 * np.kron(np.eye(2), rho.matrix))
        sigma4 = make_density(0.5 * np.kron(np.eye(2), sigma.matrix))
        report = classify_pair(rho4, sigma4)
        assert report.pair_class is PairClass.UPPER_SATURATED
        assert report.c_value == pytest.approx(0.6, abs=1e-8)

    def test_generic_pair_is_neither(self):
        report = classify_pair(diag_density(0.7, 0.3), diag_density(0.4, 0.6))
        assert report.pair_class is PairClass.NEITHER_SATURATED
        assert report.invertible

    def test_distinct_pure_states(self):
        report = classify_pair(ZERO, PLUS)
        assert not report.invertible
        assert report.m is None
        assert report.pair_class is PairClass.UPPER_SATURATED
        assert report.spectrum_of_m.size == 0

    def test_orthogonal_pure_states_are_upper_before_lower(self):
        # Not invertible, and T = 1, F = 0 make both gaps exactly 0: the
        # chain puts Upper before Lower.
        report = classify_pair(ZERO, diag_density(0.0, 1.0))
        assert not report.invertible
        assert report.lower_gap == 0.0 and report.upper_gap == 0.0
        assert report.pair_class is PairClass.UPPER_SATURATED
        assert report.c_value is None

    def test_exact_reciprocal_spectrum_forces_commutation(self):
        # sigma = M rho M, so in M's eigenbasis [M, rho - sigma] has entries
        # (m_i - m_j)(1 - m_i m_j) rho_ij, which vanish when every m_i is c or
        # 1/c: a spectrum of exactly {c, 1/c} commutes with any rho.
        rng = RngHandle(75)
        for _ in range(10):
            v = sample_haar_unitary(rng, 3)
            base = rand_invertible_density(rng, 3).matrix
            rho, sigma = map(make_density, reciprocal_pair(v, np.array([0.5, 2.0, 0.5]), base))
            report = classify_pair(rho, sigma)
            assert report.pair_class is PairClass.UPPER_SATURATED
            assert report.c_value == pytest.approx(0.5, abs=1e-8)
            assert report.commutator_residual <= 1e-12

    def test_reciprocal_clusters_without_commutation_are_upper(self):
        # The commutator can fail only inside the clustering tolerance: the
        # high cluster is a chain of four eigenvalues 0.9e-7 apart, which
        # clusters to one value, and rho couples its two ends.  The pair
        # saturates the upper inequality to rounding, and the verdict rests
        # on spec(M) alone, so it reads Upper; the residual is only reported.
        m, rho, sigma = chained_reciprocal_pair()
        report = classify_pair(make_density(rho), make_density(sigma))
        assert report.invertible
        # Each step of the chain is within the relative clustering tolerance,
        # and the two cluster means are reciprocal.
        spec = report.spectrum_of_m
        assert_allclose(spec, m, rtol=1e-12)
        assert np.all(np.diff(spec[2:]) <= SPECTRAL_CLUSTER_TOL * spec[3:])
        assert abs(spec[:2].mean() * spec[2:].mean() - 1.0) <= SPECTRAL_CLUSTER_TOL
        assert report.commutator_residual > SPECTRAL_CLUSTER_TOL
        assert abs(report.upper_gap) <= 1e-14
        assert report.pair_class is PairClass.UPPER_SATURATED
        assert report.c_value == pytest.approx(m[0], rel=1e-12)

    def test_noninvertible_lower_saturation_by_residuals(self):
        rho = diag_density(0.5, 0.5, 0.0)
        sigma = diag_density(0.5, 0.0, 0.5)
        report = classify_pair(rho, sigma)
        assert not report.invertible
        assert report.pair_class is PairClass.LOWER_SATURATED

    def test_noninvertible_pair_saturating_neither(self):
        # T = 1/2 and F = 1/sqrt(2): both gaps are 1/sqrt(2) - 1/2.
        report = classify_pair(ZERO, diag_density(0.5, 0.5))
        assert not report.invertible
        assert report.pair_class is PairClass.NEITHER_SATURATED
        gap = np.sqrt(0.5) - 0.5
        assert report.lower_gap == pytest.approx(gap, abs=1e-12)
        assert report.upper_gap == pytest.approx(gap, abs=1e-12)
        assert round(gap, 4) == 0.2071

    def test_soundness_on_random_and_constructed_pairs(self):
        rng = RngHandle(68)
        for _ in range(100):
            d = int(rng.generator.integers(2, 5))
            rho = rand_invertible_density(rng, d)
            sigma = rand_invertible_density(rng, d)
            report = classify_pair(rho, sigma)
            if report.pair_class is PairClass.UPPER_SATURATED:
                assert abs(report.upper_gap) <= 1e-8
            if report.pair_class is PairClass.LOWER_SATURATED:
                assert abs(report.lower_gap) <= 1e-8
                assert np.max(np.abs(rho.matrix - sigma.matrix)) <= 1e-8

    def test_json_schema(self):
        report = classify_pair(*swap_family(0.25))
        blob = report.to_json()
        assert set(blob) == {
            "class",
            "invertible",
            "c",
            "spectrum_m",
            "commutator_residual",
            "lower_gap",
            "upper_gap",
        }
        assert blob["class"] == "UpperSaturated"
        assert blob["invertible"] is True
        assert blob["c"] == pytest.approx(0.5)


class TestPureFidelityOptimal:
    def test_real_nonnegative_components(self):
        t = np.pi / 18
        basis = make_measurement(
            np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        )
        plus_vec = np.array([1.0, 1.0]) / np.sqrt(2)
        assert pure_fidelity_optimal(basis, np.array([1.0, 0.0]), plus_vec)

    def test_single_nonzero_term(self):
        sigma_vec = np.array([1.0, np.exp(1j * np.pi / 3)]) / np.sqrt(2)
        basis = make_measurement(np.eye(2))
        assert pure_fidelity_optimal(basis, np.array([1.0, 0.0]), sigma_vec)

    def test_two_terms_with_unequal_phases(self):
        sigma_vec = np.array([1.0, np.exp(1j * np.pi / 3)]) / np.sqrt(2)
        rho_vec = np.array([1.0, 0.0])
        basis = make_measurement(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert not pure_fidelity_optimal(basis, rho_vec, sigma_vec)
        p = measure(basis, make_density(np.outer(rho_vec, rho_vec.conj())))
        q = measure(basis, make_density(np.outer(sigma_vec, sigma_vec.conj())))
        assert classical_fidelity(p, q) > abs(rho_vec.conj() @ sigma_vec) + 1e-3

    def test_agrees_with_direct_fidelity_test(self):
        rng = RngHandle(69)
        for _ in range(200):
            d = int(rng.generator.integers(2, 5))
            rho, rho_vec = rand_pure_density(rng, d)
            sigma, sigma_vec = rand_pure_density(rng, d)
            basis = make_measurement(sample_haar_unitary(rng, d))
            verdict = pure_fidelity_optimal(basis, rho_vec, sigma_vec)
            achieved = classical_fidelity(measure(basis, rho), measure(basis, sigma))
            assert verdict == (abs(achieved - fidelity(rho, sigma)) <= 1e-8)

    def test_first_basis_vector_equal_to_state(self):
        rng = RngHandle(70)
        _, rho_vec = rand_pure_density(rng, 3)
        _, sigma_vec = rand_pure_density(rng, 3)
        # complete rho_vec to an orthonormal basis: single nonzero term survives
        basis, _ = np.linalg.qr(
            np.column_stack([rho_vec, np.eye(3)[:, :2] + 0.1])
        )
        phase = (basis[:, 0].conj() @ rho_vec)
        basis[:, 0] *= phase / abs(phase)
        assert pure_fidelity_optimal(make_measurement(basis), rho_vec, sigma_vec)

    def test_orthogonal_states_have_no_live_terms(self):
        basis = make_measurement(np.eye(2))
        assert pure_fidelity_optimal(basis, np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_cancelling_terms(self):
        # <+|0><0|-> = 1/2 and <+|1><1|-> = -1/2 sum to zero.
        basis = make_measurement(np.eye(2))
        plus, minus = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
        assert not pure_fidelity_optimal(basis, plus, minus)

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            pure_fidelity_optimal(make_measurement(np.eye(3)), np.array([1.0, 0.0]),
                                  np.array([0.0, 1.0]))

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(OutOfRangeError):
            pure_fidelity_optimal(make_measurement(np.eye(2)), np.array([1.0, 1.0]),
                                  np.array([0.0, 1.0]))

    def test_rejects_a_nan_vector(self):
        # Its norm is NaN, which a plain `>` test lets through.
        with pytest.raises(OutOfRangeError):
            pure_fidelity_optimal(make_measurement(np.eye(2)), np.array([np.nan, 0.0]),
                                  np.array([1.0, 0.0]))


class TestPerturbationTrace:
    def test_equal_states(self):
        rng = RngHandle(71)
        rho = rand_invertible_density(rng, 2)
        basis = make_measurement(sample_haar_unitary(rng, 2))
        trace = perturbation_trace(rho, rho, basis, [1e-2, 1e-3, 1e-4])
        assert np.nanmax(trace.residuals) <= 1e-10
        assert_allclose(trace.mu_values[~np.isnan(trace.mu_values)], 1.0, atol=1e-10)

    def test_aligned_basis_residuals_decrease(self):
        t = np.pi / 18
        basis = make_measurement(
            np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        )
        trace = perturbation_trace(ZERO, PLUS, basis, [1e-2, 1e-3, 1e-4])
        per_delta = np.nanmax(trace.residuals, axis=1)
        assert per_delta[0] > per_delta[1] > per_delta[2]
        assert per_delta[2] <= 0.02

    def test_phase_violating_basis_stays_bounded_away(self):
        basis = make_measurement(np.array([[1, 1], [1j, -1j]]) / np.sqrt(2))
        trace = perturbation_trace(ZERO, PLUS, basis, [1e-2, 1e-3, 1e-4])
        assert np.nanmin(trace.residuals) >= 0.1

    def test_kernel_columns_are_excluded(self):
        basis = make_measurement(np.eye(2))
        trace = perturbation_trace(ZERO, diag_density(0.5, 0.5), basis, [1e-3])
        assert not np.isnan(trace.residuals[0, 0])
        assert np.isnan(trace.residuals[0, 1])  # |1> lies in ker(rho)

    @pytest.mark.parametrize("deltas", [[0.5, 0.5], [1e-3, 1e-2], [0.0, 1e-3], [1.5], []])
    def test_rejects_bad_grids(self, deltas):
        basis = make_measurement(np.eye(2))
        with pytest.raises(InvalidDeltaError):
            perturbation_trace(ZERO, PLUS, basis, deltas)

    def test_dimension_check(self):
        basis = make_measurement(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            perturbation_trace(ZERO, PLUS, basis, [1e-2])

    def test_delta_too_small_for_invertible_rho_delta(self):
        with pytest.raises(InvalidDeltaError):
            perturbation_trace(ZERO, PLUS, make_measurement(np.eye(2)), [1e-13])

    def test_matches_polar_reference(self):
        # M_d rho_d = sqrt(sigma_d) U_d sqrt(rho_d), so both routes give one mu;
        # tolerance fixed before measuring: 1e-10 * max(1, max|M_d|).
        for trace, (mu, residuals, scale, _, _) in reference_cases(73, False):
            assert np.nanmax(np.abs(trace.mu_values - mu) / scale) <= 1e-10
            assert np.nanmax(np.abs(trace.residuals - residuals) / scale) <= 1e-10

    def test_rank_deficient_sigma_precision_floor(self):
        # With sigma_d ill-conditioned too, M_d comes from the square root of
        # the ill-conditioned rho_d^{1/2} sigma_d rho_d^{1/2}, which the SVD of
        # sqrt(rho_d) sqrt(sigma_d) avoids: the deviation reaches about
        # eps * cond(rho_d) * max(1, max|M_d|), divided by <e| rho_d |e> for mu
        # (measured up to 0.55 and 0.78 of that over 1000 pairs).
        for trace, (mu, residuals, scale, kappa, weights) in reference_cases(79, True):
            floor = 4.0 * np.finfo(float).eps * kappa * scale
            assert np.nanmax(np.abs(trace.mu_values - mu) * weights / floor) <= 1.0
            assert np.nanmax(np.abs(trace.residuals - residuals) / floor) <= 1.0
