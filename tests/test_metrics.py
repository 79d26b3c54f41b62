import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import rand_invertible_density, rand_pure_density

from entrobound import states
from entrobound.errors import DimensionMismatchError, NotOrthonormalError
from entrobound.metrics import (
    _fidelity_from_spectrum_rows,
    angular_distance,
    check_classical_pair,
    classical_fidelity,
    classical_trace_distance,
    distance_triple,
    fidelity,
    make_measurement,
    measure,
    trace_distance,
)
from entrobound.sampling import RngHandle, sample_haar_unitary, sample_simplex
from entrobound.states import make_classical, make_density

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def diag_density(*probs):
    return make_density(np.diag(probs))


class TestTraceDistance:
    def test_identical(self):
        rho = diag_density(0.5, 0.5)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert trace_distance(diag_density(1.0, 0.0), diag_density(0.0, 1.0)) == pytest.approx(1.0)

    def test_classical_diagonal(self):
        assert trace_distance(diag_density(0.7, 0.3), diag_density(0.4, 0.6)) == pytest.approx(0.3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(diag_density(1.0), diag_density(0.5, 0.5))


class TestFidelity:
    def test_identical(self):
        rho = diag_density(0.3, 0.7)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_overlap(self):
        zero = diag_density(1.0, 0.0)
        plus = make_density(np.full((2, 2), 0.5))
        assert fidelity(zero, plus) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_classical_diagonal(self):
        got = fidelity(diag_density(0.7, 0.3), diag_density(0.4, 0.6))
        assert got == pytest.approx(np.sqrt(0.28) + np.sqrt(0.18), abs=1e-12)

    def test_row_floor_is_relative_to_the_row_maximum(self):
        # fig1 concatenates its block spectra, so a row ascends only within
        # each block and its last entry need not be its top.  A floor taken
        # from the last entry would keep the 4e-16 and give 0.5 + 2e-8.
        row = np.array([[0.0, 0.25, 0.0, 4e-16]])
        assert _fidelity_from_spectrum_rows(row)[0] == 0.5


class TestAngularDistance:
    def test_identical(self):
        rho = diag_density(0.5, 0.5)
        assert angular_distance(rho, rho) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal(self):
        got = angular_distance(diag_density(1.0, 0.0), diag_density(0.0, 1.0))
        assert got == pytest.approx(np.pi / 2, abs=1e-7)

    def test_entangled_mix_closed_form(self):
        # interpolation family at lambda = 1/2, both systems qubits
        vec = np.zeros(4)
        vec[0] = vec[3] = 1 / np.sqrt(2)
        rho = make_density(np.outer(vec, vec))
        sigma = make_density(0.5 * np.eye(4) / 4 + 0.5 * rho.matrix)
        expected = np.arccos(np.sqrt(1 - 0.75 * 0.5))
        assert angular_distance(rho, sigma) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.65906, abs=1e-5)

    def test_triangle_inequality(self):
        rng = RngHandle(21)
        for _ in range(100):
            a = rand_invertible_density(rng, 3)
            b = rand_invertible_density(rng, 3)
            c = rand_invertible_density(rng, 3)
            assert angular_distance(a, c) <= (
                angular_distance(a, b) + angular_distance(b, c) + 1e-9
            )


class TestClassicalMeasures:
    def test_trace_distance_examples(self):
        assert classical_trace_distance(make_classical([1, 0]), make_classical([0, 1])) == 1.0
        p = make_classical([0.3, 0.7])
        assert classical_trace_distance(p, p) == 0.0
        got = classical_trace_distance(make_classical([0.7, 0.3]), make_classical([0.4, 0.6]))
        assert got == pytest.approx(0.3)

    def test_fidelity_examples(self):
        p = make_classical([0.3, 0.7])
        assert classical_fidelity(p, p) == pytest.approx(1.0)
        assert classical_fidelity(make_classical([1, 0]), make_classical([0, 1])) == 0.0
        got = classical_fidelity(make_classical([0.7, 0.3]), make_classical([0.4, 0.6]))
        assert got == pytest.approx(0.9534, abs=1e-4)

    def test_alphabets_must_agree(self):
        with pytest.raises(DimensionMismatchError):
            check_classical_pair(make_classical([0.5, 0.5]), make_classical([0.2, 0.3, 0.5]))

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_classical_fvdg_inequalities(self, raw):
        p = make_classical(np.array(raw) / np.sum(raw))
        u = make_classical(np.ones(len(raw)) / len(raw))
        t = classical_trace_distance(p, u)
        f = classical_fidelity(p, u)
        assert 1 - f <= t + 1e-12
        assert t <= np.sqrt(1 - f * f) + 1e-12


class TestMeasure:
    def test_computational_basis_reads_diagonal(self):
        rho = diag_density(0.2, 0.3, 0.5)
        got = measure(make_measurement(np.eye(3)), rho)
        assert_allclose(got.probs, [0.2, 0.3, 0.5], atol=1e-14)

    def test_any_basis_on_maximally_mixed(self):
        rng = RngHandle(31)
        basis = make_measurement(sample_haar_unitary(rng, 4))
        got = measure(basis, make_density(np.eye(4) / 4))
        assert_allclose(got.probs, np.full(4, 0.25), atol=1e-12)

    def test_hadamard_on_pure_zero(self):
        got = measure(make_measurement(HADAMARD), diag_density(1.0, 0.0))
        assert_allclose(got.probs, [0.5, 0.5], atol=1e-14)

    def test_outcomes_are_not_rechecked(self, monkeypatch):
        # Each input passes its own check, but the outcomes sum to
        # 1 + 1.088e-9, beyond make_classical's trace tolerance of 1e-9.
        rho = make_density(np.diag([0.5 + 9.9e-10, 0.5]))
        basis = make_measurement((1 + 4.9e-11) * np.eye(2))
        calls = []
        original = states.make_classical

        def counting(p):
            calls.append(1)
            return original(p)

        for name, module in list(sys.modules.items()):
            if name == "entrobound" or name.startswith("entrobound."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        got = measure(basis, rho)
        assert calls == []
        assert float(got.probs.sum()) == pytest.approx(1 + 1.088e-9, abs=1e-12)

    def test_rejects_skew_basis(self):
        with pytest.raises(NotOrthonormalError):
            make_measurement(np.array([[1.0, 0.9], [0.0, 0.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_basis_with_a_non_finite_entry(self, bad):
        # The Gram residual is then NaN, which a plain `>` test lets through.
        basis = np.eye(2)
        basis[0, 0] = bad
        with pytest.raises(NotOrthonormalError):
            make_measurement(basis)

    def test_rejects_non_square_basis(self):
        with pytest.raises(DimensionMismatchError):
            make_measurement(np.eye(3)[:, :2])

    def test_rejects_an_empty_basis(self):
        # Without the size test np.max of the empty Gram residual raises
        # numpy's ValueError.
        with pytest.raises(DimensionMismatchError, match=r"got \(0, 0\)"):
            make_measurement(np.zeros((0, 0)))

    def test_data_processing(self):
        # measurement can only shrink trace distance and grow fidelity
        rng = RngHandle(32)
        for _ in range(100):
            rho = rand_invertible_density(rng, 3)
            sigma = rand_invertible_density(rng, 3)
            basis = make_measurement(sample_haar_unitary(rng, 3))
            p, q = measure(basis, rho), measure(basis, sigma)
            assert classical_trace_distance(p, q) <= trace_distance(rho, sigma) + 1e-9
            assert classical_fidelity(p, q) >= fidelity(rho, sigma) - 1e-9


class TestFvdgResiduals:
    def test_equal_pair(self):
        rho = diag_density(0.6, 0.4)
        lower, upper = distance_triple(rho, rho).fvdg_gaps()
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert upper == pytest.approx(0.0, abs=1e-12)

    def test_pure_pairs_saturate_upper(self):
        rng = RngHandle(33)
        for _ in range(50):
            rho, _ = rand_pure_density(rng, 3)
            sigma, _ = rand_pure_density(rng, 3)
            _, upper = distance_triple(rho, sigma).fvdg_gaps()
            assert abs(upper) <= 1e-10

    def test_swap_family(self):
        b = 0.25
        rho = diag_density(1 / (1 + b), b / (1 + b))
        sigma = diag_density(b / (1 + b), 1 / (1 + b))
        triple = distance_triple(rho, sigma)
        assert triple.trace_distance == pytest.approx(0.6, abs=1e-12)
        assert triple.fidelity == pytest.approx(0.8, abs=1e-12)
        _, upper = triple.fvdg_gaps()
        assert upper == pytest.approx(0.0, abs=1e-12)

    def test_holds_on_random_pairs(self):
        rng = RngHandle(34)
        for _ in range(200):
            d = int(rng.generator.integers(2, 5))
            rho = rand_invertible_density(rng, d)
            sigma = rand_invertible_density(rng, d)
            lower, upper = distance_triple(rho, sigma).fvdg_gaps()
            assert lower >= -1e-9
            assert upper >= -1e-9


def test_symmetry():
    rng = RngHandle(35)
    for _ in range(50):
        rho = rand_invertible_density(rng, 3)
        sigma = rand_invertible_density(rng, 3)
        assert trace_distance(rho, sigma) == pytest.approx(trace_distance(sigma, rho), abs=1e-12)
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-12)
        assert angular_distance(rho, sigma) == pytest.approx(
            angular_distance(sigma, rho), abs=1e-12
        )


def test_commuting_pairs_match_classical_measures():
    rng = RngHandle(36)
    for _ in range(50):
        d = int(rng.generator.integers(2, 6))
        p = sample_simplex(rng, d)
        q = sample_simplex(rng, d)
        rho, sigma = make_density(np.diag(p.probs)), make_density(np.diag(q.probs))
        assert trace_distance(rho, sigma) == pytest.approx(
            classical_trace_distance(p, q), abs=1e-12
        )
        assert fidelity(rho, sigma) == pytest.approx(classical_fidelity(p, q), abs=1e-12)


def test_triple_equals_the_single_routes_bit_for_bit(monkeypatch):
    # One stacked eigvalsh gives each matrix the spectrum of a call on it alone.
    rng = RngHandle(38)
    pairs = [(rand_invertible_density(rng, d), rand_invertible_density(rng, d))
             for d in (1, 2, 3, 4, 8, 16) for _ in range(5)]
    pairs += [(rand_pure_density(rng, d)[0], rand_pure_density(rng, d)[0]) for d in (2, 4, 8)]
    pairs += [(rho, rho) for rho, _ in pairs[:6]]
    expected = [(trace_distance(r, s), fidelity(r, s), angular_distance(r, s)) for r, s in pairs]
    solves = []
    original = np.linalg.eigvalsh

    def counting(a):
        solves.append(a.shape)
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for (rho, sigma), want in zip(pairs, expected):
        triple = distance_triple(rho, sigma)
        assert (triple.trace_distance, triple.fidelity, triple.angular) == want
    assert solves == [(2, rho.dim, rho.dim) for rho, _ in pairs]


def test_triple_consistency():
    rng = RngHandle(37)
    rho = rand_invertible_density(rng, 4)
    sigma = rand_invertible_density(rng, 4)
    triple = distance_triple(rho, sigma)
    assert triple.angular == pytest.approx(np.arccos(triple.fidelity), abs=1e-12)
    assert 1 - triple.fidelity <= triple.trace_distance + 1e-9
    assert triple.trace_distance <= np.sqrt(1 - triple.fidelity**2) + 1e-9
