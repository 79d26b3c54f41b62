import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entrobound import linalg, states
from entrobound.errors import (
    DimensionMismatchError,
    NegativeEigenvalueError,
    OutOfRangeError,
    StateFormatError,
    TraceNotOneError,
)
from entrobound.metrics import angular_distance
from entrobound.sampling import RngHandle, sample_qc_pair
from entrobound.states import (
    check_dimension,
    dense_state_to_json,
    load_state_pair,
    make_classical,
    make_density,
    make_qc_state,
    partial_trace_A,
    qc_embed,
    qc_state_to_json,
    sqrt_vector,
    state_from_json,
    theta0,
    trusted_density,
)


def qc(*blocks):
    return make_qc_state([(w, make_density(m)) for w, m in blocks])


class TestMakeDensity:
    def test_maximally_mixed(self):
        rho = make_density(np.eye(2) / 2)
        assert rho.dim == 2
        assert_allclose(rho.eigenvalues, [0.5, 0.5])

    def test_diagonal(self):
        make_density(np.diag([0.7, 0.3]))

    def test_trace_off(self):
        with pytest.raises(TraceNotOneError):
            make_density(np.diag([0.7, 0.4]))

    def test_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalueError):
            make_density(np.diag([1.1, -0.1]))

    def test_matrix_is_read_only(self):
        rho = make_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    @pytest.mark.parametrize(
        "m",
        [
            [[np.nan, 0.0], [0.0, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            # inf > 1e-10 * inf is false, so the residual test alone passes this.
            [[0.5, np.inf], [0.0, 0.5]],
        ],
    )
    def test_rejects_non_finite_entries(self, m):
        with pytest.raises(OutOfRangeError):
            make_density(m)

    @pytest.mark.parametrize(
        "m", [[[0.5, 1e308], [1e308, 0.5]], [[1e308, 1e308], [1e308, 1e308]]]
    )
    def test_rejects_finite_entries_that_overflow_when_symmetrized(self, m):
        # (m + m†)/2 overflows to inf, so eigh gives NaN eigenvalues and the
        # trace is NaN, which `abs(trace - 1) > TRACE_TOL` would let through.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TraceNotOneError, match="trace nan differs from 1"):
                make_density(m)

    def test_trusted_constructor_keeps_psd_check(self):
        with pytest.raises(NegativeEigenvalueError):
            trusted_density(np.diag([1.1, -0.1]))

    def test_validates_once(self, monkeypatch):
        calls = []
        original = linalg.as_hermitian

        def counting(m):
            calls.append(1)
            return original(m)

        monkeypatch.setattr(linalg, "as_hermitian", counting)
        make_density(np.diag([0.7, 0.3]))
        assert len(calls) == 1

    def test_stored_spectrum_is_clamped(self):
        # eigh leaves the zero eigenvalues of a pure state at about -1e-16.
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            assert np.min(make_density(np.outer(v, v.conj())).eigenvalues) >= 0.0


class TestQcEmbed:
    def test_single_block(self):
        state = qc((1.0, np.eye(2) / 2))
        assert_allclose(qc_embed(state).matrix, np.eye(2) / 2, atol=1e-14)

    def test_two_pure_blocks(self):
        state = qc((0.5, np.diag([1.0, 0.0])), (0.5, np.diag([0.0, 1.0])))
        assert_allclose(qc_embed(state).matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)

    def test_weighted_blocks(self):
        state = qc((0.75, np.eye(2) / 2), (0.25, np.diag([0.9, 0.1])))
        assert_allclose(
            qc_embed(state).matrix, np.diag([0.375, 0.375, 0.225, 0.025]), atol=1e-14
        )

    def test_mismatched_block_dims(self):
        with pytest.raises(DimensionMismatchError):
            qc((0.5, np.eye(2) / 2), (0.5, np.eye(3) / 3))

    def test_rejects_no_blocks(self):
        with pytest.raises(DimensionMismatchError):
            make_qc_state([])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(TraceNotOneError):
            qc((0.6, np.eye(2) / 2), (0.6, np.eye(2) / 2))

    def test_compound_tolerance_trace_is_checked(self):
        # Weights and blocks each pass within TRACE_TOL, but the embedded
        # trace is (1 + 8e-10)(1 + 9e-10) = 1 + 1.7e-9.
        block = np.diag([0.5 + 4.5e-10, 0.5 + 4.5e-10])
        state = qc((0.5 + 4e-10, block), (0.5 + 4e-10, block))
        with pytest.raises(TraceNotOneError):
            qc_embed(state)

    def test_weights_within_tolerance_below_zero_are_stored_as_zero(self):
        state = qc((1.0 + 1e-13, np.eye(2) / 2), (-1e-13, np.eye(2) / 2))
        assert state.blocks[1][0] == 0.0
        assert np.min(state.weights) == 0.0

    def test_rejects_nan_weight(self):
        # A NaN weight makes the weight sum NaN, which the sum test alone passes.
        with pytest.raises(OutOfRangeError):
            qc((np.nan, np.eye(2) / 2), (1.0, np.eye(2) / 2))


class TestPartialTraceA:
    def test_product_state(self):
        rho_a = np.diag([0.3, 0.7])
        rho_b = np.array([[0.5, 0.2], [0.2, 0.5]])
        joint = make_density(np.kron(rho_b, rho_a))  # k outer
        assert_allclose(partial_trace_A(joint, 2, 2).matrix, rho_b, atol=1e-14)

    def test_maximally_entangled(self):
        vec = np.zeros(4)
        vec[0] = vec[3] = 1 / np.sqrt(2)
        rho = make_density(np.outer(vec, vec))
        assert_allclose(partial_trace_A(rho, 2, 2).matrix, np.eye(2) / 2, atol=1e-14)

    def test_block_sums(self):
        rho = make_density(np.diag([0.375, 0.375, 0.225, 0.025]))
        assert_allclose(partial_trace_A(rho, 2, 2).matrix, np.diag([0.75, 0.25]), atol=1e-14)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_A(make_density(np.eye(4) / 4), 2, 3)


class TestSqrtVector:
    def test_pure_single_block(self):
        v = sqrt_vector(qc((1.0, np.diag([1.0, 0.0]))))
        assert_allclose(v.entries, [1.0, 0.0])

    def test_uniform(self):
        v = sqrt_vector(qc((0.5, np.eye(2) / 2), (0.5, np.eye(2) / 2)))
        assert_allclose(v.entries, [0.5, 0.5, 0.5, 0.5])

    def test_descending_inside_blocks(self):
        v = sqrt_vector(qc((0.75, np.diag([0.2, 0.8])), (0.25, np.eye(2) / 2)))
        assert_allclose(
            v.entries, [np.sqrt(0.6), np.sqrt(0.15), np.sqrt(0.125), np.sqrt(0.125)]
        )

    def test_reads_the_stored_clamp(self, monkeypatch):
        state = qc((0.5, np.diag([1.0, 0.0])), (0.5, np.eye(2) / 2))
        calls = []
        original = linalg.clamped_psd_eigenvalues

        def counting(w):
            calls.append(1)
            return original(w)

        monkeypatch.setattr(linalg, "clamped_psd_eigenvalues", counting)
        sqrt_vector(state)
        assert calls == []

    def test_unit_norm_and_nonnegative(self):
        rng = RngHandle(42)
        for _ in range(50):
            state, _ = sample_qc_pair(rng, 3, 4)
            v = sqrt_vector(state)
            assert np.all(v.entries >= 0.0)
            assert abs(np.linalg.norm(v.entries) - 1.0) <= 1e-9
            blocks = v.entries.reshape(4, 3)
            assert np.all(np.diff(blocks, axis=1) <= 1e-15)


class TestTheta0:
    def test_equal_vectors(self):
        state = qc((1.0, np.diag([0.6, 0.4])))
        assert theta0(sqrt_vector(state), sqrt_vector(state)) == 0.0

    def test_disjoint_supports(self):
        # per-block sorting cannot merge entries living in different blocks
        a = sqrt_vector(qc((1.0, np.diag([1.0, 0.0])), (0.0, np.eye(2) / 2)))
        b = sqrt_vector(qc((0.0, np.eye(2) / 2), (1.0, np.diag([1.0, 0.0]))))
        assert_allclose(a.entries, [1, 0, 0, 0], atol=1e-15)
        assert_allclose(b.entries, [0, 0, 1, 0], atol=1e-15)
        assert theta0(a, b) == pytest.approx(np.pi / 2)

    def test_classical_overlap(self):
        # d_A = 1 blocks carry the weights verbatim, no inner sorting
        one = np.eye(1)
        a = make_qc_state([(w, make_density(one)) for w in (0.6, 0.4, 0.0, 0.0)])
        b = make_qc_state([(w, make_density(one)) for w in (0.4, 0.6, 0.0, 0.0)])
        r, s = sqrt_vector(a), sqrt_vector(b)
        assert_allclose(r.entries, np.sqrt([0.6, 0.4, 0.0, 0.0]), atol=1e-15)
        assert theta0(r, s) == pytest.approx(np.arccos(2 * np.sqrt(0.24)), abs=1e-12)

    def test_block_structure_mismatch(self):
        a = sqrt_vector(qc((1.0, np.eye(2) / 2)))
        b = sqrt_vector(qc((0.5, np.eye(2) / 2), (0.5, np.eye(2) / 2)))
        with pytest.raises(DimensionMismatchError):
            theta0(a, b)

    def test_lower_bounds_angular_distance(self):
        # theta0 <= A(rho, sigma) on 1000 random QC pairs
        rng = RngHandle(2)
        for _ in range(1000):
            left, right = sample_qc_pair(rng, 2, 2)
            t0 = theta0(sqrt_vector(left), sqrt_vector(right))
            assert t0 <= angular_distance(qc_embed(left), qc_embed(right)) + 1e-9


def test_sqrt_vector_consistent_with_embedded_eigenvalues():
    rng = RngHandle(3)
    for _ in range(50):
        state, _ = sample_qc_pair(rng, 3, 2)
        v = sqrt_vector(state)
        embedded = qc_embed(state)
        for k, (w, rho) in enumerate(state.blocks):
            block = np.sort((v.entries[k * 3 : (k + 1) * 3]) ** 2)
            direct = np.sort(w * rho.eigenvalues)
            assert_allclose(block, direct, atol=1e-12)
        assert_allclose(
            np.sort(v.entries**2), np.sort(embedded.eigenvalues), atol=1e-12
        )


def test_partial_trace_of_embedding_is_diagonal_weights():
    rng = RngHandle(4)
    for _ in range(50):
        state, _ = sample_qc_pair(rng, 2, 3)
        reduced = partial_trace_A(qc_embed(state), 2, 3)
        assert_allclose(reduced.matrix, np.diag(state.weights), atol=1e-12)


class TestJsonFormat:
    def test_qc_roundtrip(self):
        rng = RngHandle(5)
        state, _ = sample_qc_pair(rng, 2, 3)
        blob = qc_state_to_json(state)
        embedded, d_a, d_b = state_from_json(json.loads(json.dumps(blob)))
        assert (d_a, d_b) == (2, 3)
        assert_allclose(embedded.matrix, qc_embed(state).matrix, atol=1e-12)

    def test_dense_roundtrip(self):
        rho = make_density(np.diag([0.8, 0.2]))
        blob = dense_state_to_json(rho, 2, 1)
        embedded, d_a, d_b = state_from_json(blob)
        assert (d_a, d_b) == (2, 1)
        assert_allclose(embedded.matrix, rho.matrix, atol=1e-14)

    def test_complex_entries_roundtrip(self):
        m = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
        blob = dense_state_to_json(make_density(m), 2, 1)
        embedded, _, _ = state_from_json(blob)
        assert_allclose(embedded.matrix, m, atol=1e-14)

    @pytest.mark.parametrize(
        "blob",
        [
            42,
            {"kind": "qc"},
            {"dim_a": 2, "dim_b": 1, "kind": "mystery", "matrix": []},
            {"dim_a": 2, "dim_b": 1, "kind": "dense", "matrix": [[1, 0], [0, 0]]},
            {"dim_a": 2, "dim_b": 2, "kind": "dense", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"dim_a": 2, "dim_b": 1, "kind": "dense",
             "matrix": [[[0.7, 0], [0, 0]], [[0, 0], [0.7, 0]]]},
        ],
    )
    def test_rejects_malformed(self, blob):
        with pytest.raises(StateFormatError):
            state_from_json(blob)

    def test_pair_file_roundtrip(self, tmp_path):
        rho = make_density(np.diag([0.8, 0.2]))
        sigma = make_density(np.diag([0.2, 0.8]))
        path = tmp_path / "pair.json"
        path.write_text(
            json.dumps(
                {"rho": dense_state_to_json(rho, 2, 1), "sigma": dense_state_to_json(sigma, 2, 1)}
            )
        )
        got_rho, got_sigma, d_a, d_b = load_state_pair(str(path))
        assert (d_a, d_b) == (2, 1)
        assert_allclose(got_rho.matrix, rho.matrix)
        assert_allclose(got_sigma.matrix, sigma.matrix)

    def test_internal_faults_are_not_reported_as_invalid_files(self, tmp_path, monkeypatch):
        rho = dense_state_to_json(make_density(np.diag([0.8, 0.2])), 2, 1)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"rho": rho, "sigma": rho}))

        def fault(m):
            raise ZeroDivisionError("fault inside parsing")

        monkeypatch.setattr(states, "make_density", fault)
        with pytest.raises(ZeroDivisionError):
            load_state_pair(str(path))

    def test_pair_file_bad_json(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text("{not json")
        with pytest.raises(StateFormatError):
            load_state_pair(str(path))


JSON_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.integers(-(2**60), 2**60))


@st.composite
def json_matrices(draw):
    d = draw(st.integers(1, 5))
    return [[[draw(JSON_NUMBERS), draw(JSON_NUMBERS)] for _ in range(d)] for _ in range(d)]


@settings(max_examples=200, deadline=None)
@given(json_matrices())
def test_one_pass_parse_equals_the_cast_and_combine(obj):
    # The parse used to be np.asarray, then re + 1j * im; == treats +0 and -0 alike.
    arr = np.asarray(obj, dtype=float)
    expected = arr[..., 0] + 1j * arr[..., 1]
    got = states._matrix_from_json(obj, "matrix")
    assert got.dtype == complex and got.shape == expected.shape
    assert np.all(got == expected)


@pytest.mark.parametrize("d", [0, -3, 2.0, 2.7, "2", True, None])
def test_check_dimension_rejects(d):
    with pytest.raises(OutOfRangeError):
        check_dimension(d)


def test_check_dimension_accepts_integers():
    assert check_dimension(np.int64(3)) == 3 and type(check_dimension(np.int64(3))) is int
    assert check_dimension(2, 2) == 2
    with pytest.raises(OutOfRangeError):
        check_dimension(1, 2)


def test_classical_dist_validation():
    make_classical([0.5, 0.5])
    with pytest.raises(TraceNotOneError):
        make_classical([0.5, 0.6])
    with pytest.raises(OutOfRangeError):
        make_classical([np.nan, 1.0])
    with pytest.raises(DimensionMismatchError):
        make_classical(np.full((2, 2), 0.25))


def test_qc_block_structure_check():
    from entrobound.states import is_qc_block_diagonal

    rng = RngHandle(6)
    state, _ = sample_qc_pair(rng, 2, 3)
    assert is_qc_block_diagonal(qc_embed(state), 2, 3)
    vec = np.zeros(4)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    entangled = make_density(np.outer(vec, vec))
    assert not is_qc_block_diagonal(entangled, 2, 2)
    with pytest.raises(DimensionMismatchError):
        is_qc_block_diagonal(entangled, 2, 3)
