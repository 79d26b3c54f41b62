import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import rand_hermitian, rand_positive_definite
from oracles import m_oracle

from entrobound import experiments, linalg
from entrobound.errors import (
    DimensionMismatchError,
    InvalidDeltaError,
    NegativeEigenvalueError,
    NonHermitianError,
    NotInvertibleError,
)
from entrobound.linalg import (
    INVERTIBILITY_TOL,
    decompose,
    eig_hermitian,
    geometric_mean,
    m_operator,
    m_operator_perturbed,
    mat_sqrt,
    positive_negative_parts,
)
from entrobound.sampling import RngHandle, sample_density, sample_haar_unitary, sample_simplex
from entrobound.states import make_density

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def scaled_psd_pairs(scale, n=20, d=4):
    """Pairs ``a = s Z Z†`` (full rank) and ``b = s Z' Z'†`` with one eigenvalue set to 0."""
    gen = np.random.default_rng(1)
    for _ in range(n):
        z, z2 = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d)) for _ in range(2))
        w, v = np.linalg.eigh(z2 @ z2.conj().T)
        w[0] = 0.0
        yield scale * z @ z.conj().T, scale * (v * w) @ v.conj().T


class TestEigHermitian:
    def test_identity(self):
        dec = eig_hermitian(np.eye(3))
        assert_allclose(dec.eigenvalues, [1, 1, 1])
        assert_allclose(dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(3), atol=1e-14)

    def test_diagonal_sorted_ascending(self):
        dec = eig_hermitian(np.diag([2.0, -1.0]))
        assert_allclose(dec.eigenvalues, [-1.0, 2.0])

    def test_pauli_x(self):
        # characteristic polynomial w^2 - 1 = 0
        dec = eig_hermitian(PAULI_X)
        assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NonHermitianError):
            eig_hermitian(np.zeros((2, 3)))

    @pytest.mark.parametrize("d", [1, 2, 5, 17])
    def test_reconstruction_and_orthonormality(self, d):
        rng = RngHandle(100 + d)
        for _ in range(20):
            m = rand_hermitian(rng, d)
            dec = eig_hermitian(m)
            scale = max(np.max(np.abs(m)), 1.0)
            assert np.max(np.abs(dec.reconstruct() - m)) <= 1e-10 * d * scale
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-12 * d


class TestMatSqrt:
    def test_identity(self):
        assert_allclose(mat_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        assert_allclose(mat_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_two_by_two(self):
        # [[2,1],[1,2]] has eigenvalues 1 and 3
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        root = mat_sqrt(m)
        assert_allclose(np.sort(np.linalg.eigvalsh(root)), [1.0, np.sqrt(3.0)], atol=1e-14)
        assert_allclose(root @ root, m, atol=1e-14)

    def test_squares_back(self):
        rng = RngHandle(7)
        for d in (2, 3, 6):
            m = rand_positive_definite(rng, d)
            root = mat_sqrt(m)
            assert np.max(np.abs(root @ root - m)) <= 1e-12 * d
            assert np.min(np.linalg.eigvalsh(root)) >= 0.0

    def test_clamps_rounding_noise(self):
        m = np.diag([1.0, -0.5e-10])
        root = mat_sqrt(m)
        assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(NegativeEigenvalueError):
            mat_sqrt(np.diag([1.0, -1e-6]))

    def test_clamp_window_scales_with_the_entries(self):
        # Rounding of a rank-deficient matrix with entries near 1e6 reaches
        # about 1e-8 below zero; the window is 1e-10 times the largest
        # eigenvalue, like the Hermiticity check.
        for _, b in scaled_psd_pairs(1e6):
            root = mat_sqrt(b)
            assert np.max(np.abs(root @ root - b)) <= 1e-9 * np.max(np.abs(b))
        with pytest.raises(NegativeEigenvalueError):
            mat_sqrt(np.diag([1.0, -1e-3]))


class TestPositiveNegativeParts:
    @pytest.mark.parametrize(
        "m, p, q",
        [
            (np.diag([3.0, -2.0]), np.diag([3.0, 0.0]), np.diag([0.0, 2.0])),
            (np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))),
            (PAULI_Z, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        ],
    )
    def test_examples(self, m, p, q):
        got_p, got_q = positive_negative_parts(m)
        assert_allclose(got_p, p, atol=1e-14)
        assert_allclose(got_q, q, atol=1e-14)

    def test_invariants_on_random_input(self):
        rng = RngHandle(12)
        for d in (2, 4, 7):
            m = rand_hermitian(rng, d)
            p, q = positive_negative_parts(m)
            assert np.max(np.abs(m - (p - q))) <= 1e-12 * d
            assert np.max(np.abs(p @ q)) <= 1e-10
            trace_norm = np.sum(np.abs(np.linalg.eigvalsh(m)))
            assert abs(np.trace(p + q).real - trace_norm) <= 1e-10 * max(trace_norm, 1.0)
            assert np.min(np.linalg.eigvalsh(p)) >= -1e-12
            assert np.min(np.linalg.eigvalsh(q)) >= -1e-12


class TestGeometricMean:
    def test_mean_with_itself(self):
        rng = RngHandle(3)
        a = rand_positive_definite(rng, 3)
        assert_allclose(geometric_mean(a, a), a, atol=1e-12)

    def test_identity_with_b_gives_sqrt(self):
        rng = RngHandle(4)
        b = rand_positive_definite(rng, 3)
        assert_allclose(geometric_mean(np.eye(3), b), mat_sqrt(b), atol=1e-12)

    def test_commuting_diagonal(self):
        got = geometric_mean(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
        assert_allclose(got, np.diag([2.0, 2.0]), atol=1e-13)

    def test_symmetry_and_defining_identity(self):
        rng = RngHandle(5)
        for d in (2, 3, 5):
            a = rand_positive_definite(rng, d)
            b = rand_positive_definite(rng, d)
            ab = geometric_mean(a, b)
            ba = geometric_mean(b, a)
            assert np.max(np.abs(ab - ba)) <= 1e-9
            # (A # B) A^{-1} (A # B) = B, scaled by the norms involved
            resid = ab @ np.linalg.inv(a) @ ab - b
            assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, np.max(np.abs(b)))

    def test_rejects_singular_first_argument(self):
        with pytest.raises(NotInvertibleError):
            geometric_mean(np.diag([1.0, 0.0]), np.eye(2))

    def test_kernel_gets_the_inverse_with_its_eigenvalues_ascending(self, monkeypatch):
        # SpectralDecomposition promises ascending eigenvalues; 1/w of an
        # ascending w descends unless it is reversed.
        seen = []
        original = linalg.m_from_spectrum

        def recording(dec, sigma):
            seen.append(dec)
            return original(dec, sigma)

        monkeypatch.setattr(linalg, "m_from_spectrum", recording)
        rng = RngHandle(6)
        for d in (2, 3, 5):
            a = rand_positive_definite(rng, d)
            geometric_mean(a, rand_positive_definite(rng, d))
            dec = seen[-1]
            assert np.all(np.diff(dec.eigenvalues) >= 0.0)
            assert_allclose(dec.reconstruct(), np.linalg.inv(a), atol=1e-12)
        assert len(seen) == 3


class TestMOperator:
    def test_equal_states_give_identity(self):
        rng = RngHandle(6)
        rho = rand_positive_definite(rng, 3, floor=0.3)
        rho = rho / np.trace(rho).real
        assert_allclose(m_operator(rho, rho), np.eye(3), atol=1e-12)

    def test_commuting_swap_family(self):
        b = 0.25
        rho = np.diag([1 / (1 + b), b / (1 + b)])
        sigma = np.diag([b / (1 + b), 1 / (1 + b)])
        assert_allclose(m_operator(rho, sigma), np.diag([0.5, 2.0]), atol=1e-13)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.73])
    def test_commuting_against_maximally_mixed(self, p):
        got = m_operator(np.eye(2) / 2, np.diag([p, 1 - p]))
        assert_allclose(got, np.diag([np.sqrt(2 * p), np.sqrt(2 * (1 - p))]), atol=1e-13)

    def test_m_rho_m_recovers_sigma(self):
        from conftest import rand_invertible_density

        rng = RngHandle(8)
        for d in (2, 3, 5, 8):
            for _ in range(10):
                rho = rand_invertible_density(rng, d)
                sigma = rand_invertible_density(rng, d)
                m = m_operator(rho.matrix, sigma.matrix)
                assert np.max(np.abs(m @ rho.matrix @ m - sigma.matrix)) <= 1e-9

    def test_matches_geometric_mean_of_inverse(self):
        rng = RngHandle(9)
        rho = rand_positive_definite(rng, 4, floor=0.2)
        sigma = rand_positive_definite(rng, 4, floor=0.2)
        direct = m_operator(rho, sigma)
        via_inverse = geometric_mean(np.linalg.inv(rho), sigma)
        assert_allclose(direct, via_inverse, atol=1e-10)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatchError):
            m_operator(np.eye(2) / 2, np.eye(3) / 3)

    def test_accepts_psd_input_with_large_entries(self):
        for a, b in scaled_psd_pairs(1e6):
            m = m_operator(a, b)
            assert np.max(np.abs(m @ a @ m - b)) <= 1e-8 * np.max(np.abs(b))


def mixed_pairs(seed, per_cell=2):
    """Pairs at d = 2..7 whose densities have a random rank r <= d and are then
    mixed toward I/d at delta = 1e-1..1e-6, so their condition numbers reach
    about d / delta."""
    gen = np.random.default_rng(seed)

    def density(d, delta):
        rank = gen.integers(1, d + 1)
        w = np.zeros(d)
        w[:rank] = gen.exponential(size=rank)
        q, r = np.linalg.qr(gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        m = (u * (w / w.sum())) @ u.conj().T
        return (1.0 - delta) * ((m + m.conj().T) / 2.0) + delta * np.eye(d) / d

    for d in range(2, 8):
        for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            for _ in range(per_cell):
                yield density(d, delta), density(d, delta)


def condition(h):
    w = np.linalg.eigvalsh(h)
    return w[-1] / w[0]


# The floor's form and its constant were fixed on seed 1, three pairs per cell:
# the largest error / (kappa_rho^1.5 kappa_sigma^0.5 eps max(1, max|M|)) was
# 2.09 there.  kappa_sigma enters because the product's smallest eigenvalues
# go through a square root: with kappa_rho = 1.4 and kappa_sigma = 3e6 the
# error was about 200 eps, which no power of kappa_rho alone bounds.
M_FLOOR = 4.0


def test_m_operator_error_stays_under_its_conditioning_floor():
    """``linalg.m_from_spectrum``'s documented floor, asserted on seed 2."""
    eps = np.finfo(float).eps
    ratios = []
    for rho, sigma in mixed_pairs(seed=2):
        exact = m_oracle(rho, sigma)
        err = np.max(np.abs(m_operator(rho, sigma) - exact))
        floor = (condition(rho) ** 1.5 * condition(sigma) ** 0.5 * eps
                 * max(1.0, np.max(np.abs(exact))))
        ratios.append(err / floor)
    assert max(ratios) <= M_FLOOR


class TestMOperatorPerturbed:
    def test_equal_states(self):
        rho = np.diag([0.6, 0.4])
        for delta in (1e-1, 1e-3, 1e-6):
            assert_allclose(m_operator_perturbed(rho, rho, delta), np.eye(2), atol=1e-10)

    def test_pure_qubit_limit(self):
        # |0> against |+>: the delta -> 0 limit has a closed form with
        # alpha = beta = 1/sqrt(2).
        rho = np.diag([1.0, 0.0])
        plus = np.full((2, 2), 0.5)
        a = 1 / np.sqrt(2)
        expected = np.array([[a, a], [a, 0.5 / a + np.sqrt(2.0)]])
        errors = []
        for delta in (1e-2, 1e-4, 1e-6, 1e-8):
            m_delta = m_operator_perturbed(rho, plus, delta)
            errors.append(np.max(np.abs(m_delta - expected)))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] <= 1e-6

    def test_orthogonal_pure_states_diverge(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        norms = [
            np.max(np.linalg.eigvalsh(m_operator_perturbed(rho, sigma, delta)))
            for delta in (1e-2, 1e-3, 1e-4)
        ]
        assert norms[0] < norms[1] < norms[2]
        # commuting case: top eigenvalue is sqrt((1 - delta/2)/(delta/2))
        assert norms[2] == pytest.approx(np.sqrt(2.0 / 1e-4), rel=1e-3)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_delta(self, delta):
        rho = np.eye(2) / 2
        with pytest.raises(InvalidDeltaError):
            m_operator_perturbed(rho, rho, delta)

    def test_delta_too_small_for_invertible_rho_delta(self):
        with pytest.raises(InvalidDeltaError):
            m_operator_perturbed(np.diag([1.0, 0.0]), np.full((2, 2), 0.5), 1e-13)


def test_commuting_diagonal_scalar_equivalence():
    # On commuting diagonal inputs every operation reduces to entrywise
    # scalar arithmetic.
    a = np.diag([0.9, 0.4, 1.7])
    b = np.diag([0.3, 1.1, 0.2])
    assert_allclose(np.diag(mat_sqrt(a)), np.sqrt(np.diag(a)), atol=1e-12)
    assert_allclose(np.diag(geometric_mean(a, b)), np.sqrt(np.diag(a) * np.diag(b)), atol=1e-12)
    assert_allclose(np.diag(m_operator(a, b)), np.sqrt(np.diag(b) / np.diag(a)), atol=1e-12)
    p, q = positive_negative_parts(a - b)
    assert_allclose(np.diag(p), np.maximum(np.diag(a - b), 0.0), atol=1e-12)
    assert_allclose(np.diag(q), np.maximum(-np.diag(a - b), 0.0), atol=1e-12)
    dec = eig_hermitian(a)
    assert_allclose(dec.eigenvalues, np.sort(np.diag(a)), atol=1e-12)


def package_spectra(source, seed, d, zeros, lam):
    """Spectra as the package builds them, with ``zeros`` exact zeros where it can."""
    rng = RngHandle(seed)
    probs = np.zeros(d)
    live = max(d - zeros, 1)
    probs[:live] = sample_simplex(rng, live).probs
    rng.generator.shuffle(probs)
    u = sample_haar_unitary(rng, d)
    if source == "decompose":
        return [decompose(rand_hermitian(rng, d)), decompose(np.diag(probs).astype(complex))]
    if source == "make_density":
        return [make_density((u * probs) @ u.conj().T).spectrum, make_density(np.diag(probs)).spectrum]
    if source == "sample_density":
        return [sample_density(rng, d).spectrum]
    rho = make_density(np.diag(probs))
    return [experiments._family_sigma(rho, lam).spectrum]


@settings(max_examples=200, deadline=None)
@given(
    source=st.sampled_from(["decompose", "make_density", "sample_density", "_family_sigma"]),
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    zeros=st.integers(0, 6),
    lam=st.sampled_from([0.0, 1e-13, 0.5, 1.0]),
)
def test_is_invertible_reads_the_ends_of_the_ascending_spectrum(source, seed, d, zeros, lam):
    for dec in package_spectra(source, seed, d, zeros, lam):
        w = dec.eigenvalues
        assert np.all(np.diff(w) >= 0.0)
        top = float(np.max(w))
        expected = top > 0.0 and float(np.min(w)) > INVERTIBILITY_TOL * top
        assert dec.is_invertible() == expected
