import argparse
import json
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from oracles import (
    conditional_entropy_oracle,
    family_oracle,
    mp_embedding,
    mp_matrix,
    quantum_fidelity_oracle,
)

from entrobound import cli, experiments, linalg, sampling, states
from entrobound.cli import render_csv
from entrobound.entropy import classical_conditional_entropy, conditional_entropy, lipschitz_u
from entrobound.errors import OutOfRangeError
from entrobound.experiments import (
    bounds_compare,
    counterexample_curve,
    counterexample_scan,
    family_closed_form,
    family_pair,
    fig1_scatter,
    fig2_fixed_angle,
)
from entrobound.metrics import angular_distance, classical_fidelity, fidelity
from entrobound.sampling import RngHandle, sample_density, sample_haar_unitary, sample_qc_pair
from entrobound.states import dense_state_to_json, make_density, make_qc_state, qc_state_to_json

SEED = cli.DEFAULT_SEED

# The option strings each subcommand registered before the subcommand table;
# the five table subcommands hold 27 of them.
PARENT_OPTIONS = {
    "fig1": {"--da", "--db", "--n", "--full", "--seed", "--out", "--format"},
    "fig2": {"--da", "--db", "--n", "--full", "--seed", "--angles", "--out", "--format"},
    "curve": {"--da", "--db", "--lambda-step", "--out", "--format"},
    "scan": {"--lambda-step", "--out", "--format"},
    "compare": {"--da", "--lambda-step", "--out", "--format"},
    "classify": {"input", "--out"},
    "sample": {"--kind", "--da", "--db", "--seed", "--out"},
}
TABLE_OPERATIONS = {
    "fig1": "fig1_scatter",
    "fig2": "fig2_fixed_angle",
    "curve": "counterexample_curve",
    "scan": "counterexample_scan",
    "compare": "bounds_compare",
}


def registered_actions(subcommand):
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [a for a in subparsers.choices[subcommand]._actions if a.dest != "help"]


class ReadRecorder:
    """A parsed namespace that records the names of the attributes read from it."""

    def __init__(self, namespace):
        self._namespace = namespace
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._namespace, name)


def write_pair(tmp_path, rho, sigma, name="pair.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "rho": dense_state_to_json(make_density(rho), rho.shape[0], 1),
                "sigma": dense_state_to_json(make_density(sigma), sigma.shape[0], 1),
            }
        )
    )
    return str(path)


def qc_pair_blob():
    state = make_qc_state([(0.5, make_density(np.eye(2) / 2)),
                           (0.5, make_density(np.diag([1.0, 0.0])))])
    return {"rho": qc_state_to_json(state), "sigma": qc_state_to_json(state)}


def non_numeric_entry(blob):
    blob["rho"]["blocks"][0]["matrix"][0][0] = ["x", 0.0]


def header_disagrees_with_blocks(blob):
    blob["rho"]["dim_b"] = 3


def block_without_weight(blob):
    del blob["rho"]["blocks"][0]["weight"]


def no_sigma(blob):
    del blob["sigma"]


def different_splits(blob):
    blob["sigma"] = dense_state_to_json(make_density(np.eye(4) / 4), 4, 1)


# Each file below is a valid pair once its one value is read as the float a
# cast would give (0.5, 0.0, 0.5, 0.5 and 1.0), so only the number-type check
# rejects it.
def entry_as_string(blob):
    blob["rho"]["blocks"][0]["matrix"][0][0] = ["0.5", 0.0]


def entry_as_boolean(blob):
    blob["rho"]["blocks"][0]["matrix"][0][1] = [False, 0.0]


def weight_as_string(blob):
    blob["rho"]["blocks"][0]["weight"] = "0.5"


def weight_as_padded_string(blob):
    blob["rho"]["blocks"][0]["weight"] = " 5e-1 "


def weight_as_boolean(blob):
    blob["rho"]["blocks"][0]["weight"] = True
    blob["rho"]["blocks"][1]["weight"] = 0.0


def dense_pair_blob():
    return {"rho": dense_state_to_json(make_density(np.diag([0.6, 0.4])), 2, 1),
            "sigma": dense_state_to_json(make_density(np.diag([0.5, 0.5])), 2, 1)}


# Replacements for a 2 x 2 rho matrix that is not a (d, d, 2) nest of numbers.
BAD_MATRICES = {
    "ragged_rows": [[[0.6, 0], [0, 0]], [[0, 0]]],
    "entry_of_length_3": [[[0.6, 0, 0], [0, 0]], [[0, 0], [0.4, 0]]],
    "entries_of_length_3_and_1": [[[0.6, 0, 0], [0]], [[0, 0], [0.4, 0]]],
    "deeper_nesting": [[[[0.6], [0]], [[0], [0]]], [[[0], [0]], [[0.4], [0]]]],
    "dict_row": [{"re": [0.6, 0], "im": [0, 0]}, [[0, 0], [0.4, 0]]],
    "empty": [],
    "scalar": 0.6,
    "huge_integer": [[[10**400, 0], [0, 0]], [[0, 0], [0.4, 0]]],
}


def sampled_pair_blob(kind):
    """A dense invertible, a pure (non-invertible) or a 2 x 2 QC pair."""
    rng = RngHandle(4321)
    if kind == "qc":
        return dict(zip(("rho", "sigma"), map(qc_state_to_json, sample_qc_pair(rng, 2, 2))))
    if kind == "dense":
        densities = [sample_density(rng, 4) for _ in range(2)]
    else:
        vectors = [rng.generator.standard_normal(4) + 1j * rng.generator.standard_normal(4)
                   for _ in range(2)]
        densities = [make_density(np.outer(v, v.conj()) / np.vdot(v, v).real) for v in vectors]
    return {name: dense_state_to_json(rho, 2, 2) for name, rho in zip(("rho", "sigma"), densities)}


class TestFamily:
    def test_lambda_zero_is_the_entangled_state(self):
        angle, diff = family_closed_form(2, 2, 0.0)
        assert angle == 0.0 and diff == 0.0

    def test_closed_form_matches_matrix_route(self):
        from entrobound.entropy import conditional_entropy
        from entrobound.metrics import angular_distance

        for d_a, d_b in ((2, 2), (3, 2), (2, 4)):
            for lam in (0.1, 0.5, 0.9, 1.0):
                angle_cf, diff_cf = family_closed_form(d_a, d_b, lam)
                rho, sigma = family_pair(d_a, d_b, lam)
                assert angle_cf == pytest.approx(angular_distance(rho, sigma), abs=1e-9)
                diff_mx = abs(
                    conditional_entropy(rho, d_a, d_b) - conditional_entropy(sigma, d_a, d_b)
                )
                assert diff_cf == pytest.approx(diff_mx, abs=1e-9)

    def test_headline_numbers(self):
        angle, diff = family_closed_form(2, 2, 0.5)
        from entrobound.entropy import lipschitz_u

        assert diff == pytest.approx(1.074, abs=1e-3)
        assert lipschitz_u(2) * angle == pytest.approx(1.061, abs=1e-3)
        assert diff > lipschitz_u(2) * angle

    def test_lambda_outside_the_unit_interval(self):
        with pytest.raises(OutOfRangeError):
            family_pair(2, 2, 1.5)
        with pytest.raises(OutOfRangeError):
            family_closed_form(2, 2, 1.5)


def curve_rows_by_family_pair(d_a, d_b, step):
    """The curve's rows with the pair rebuilt at every lambda by ``family_pair``."""
    u = lipschitz_u(d_a)
    rows = []
    for lam in np.linspace(0.0, 1.0, round(1.0 / step) + 1):
        lam = float(lam)
        angle_cf, diff_cf = family_closed_form(d_a, d_b, lam)
        rho, sigma = family_pair(d_a, d_b, lam)
        diff_mx = abs(conditional_entropy(rho, d_a, d_b) - conditional_entropy(sigma, d_a, d_b))
        bound = u * angle_cf
        rows.append((lam, angle_cf, angular_distance(rho, sigma), diff_cf, diff_mx, bound,
                     int(diff_cf > bound + experiments.VIOLATION_TOL)))
    return rows


def fig2_rows_by_pair(d_a, d_b, n_samples, seed, angles):
    """fig2's rows with each pair evaluated on its own by the public kernels."""
    u = lipschitz_u(d_a)
    base = RngHandle(seed)
    rows = []
    for i, angle in enumerate(sorted(angles)):
        rng = base.stream(i)
        for _ in range(n_samples):
            p, q = sampling.sample_classical_pair_at_angle(rng, d_a * d_b, angle)
            measured = math.acos(classical_fidelity(p, q))
            diff = abs(classical_conditional_entropy(p, d_a, d_b)
                       - classical_conditional_entropy(q, d_a, d_b))
            rows.append((measured, diff, u * measured))
    rows.sort()
    return rows


FIG2_ANGLES = tuple(i * 1e-6 for i in range(1, 11))
FIG2_SHAPES = [(8, 2), (2, 2), (2, 16), (1, 3), (3, 1)]


class TestFig2StackedRoute:
    """The stacked fig2 against ``fig2_rows_by_pair``, row for row."""

    @pytest.mark.parametrize("d_a, d_b", FIG2_SHAPES)
    @pytest.mark.parametrize("seed", [SEED, 7, 901])
    def test_rows_equal_the_per_pair_loop(self, d_a, d_b, seed):
        _, rows = fig2_fixed_angle(d_a, d_b, 30, seed)
        assert rows == fig2_rows_by_pair(d_a, d_b, 30, seed, FIG2_ANGLES)

    @pytest.mark.parametrize("d_a, d_b", FIG2_SHAPES)
    def test_rows_with_exact_zeros(self, monkeypatch, d_a, d_b):
        original = sampling._classical_pair_at_angle

        def zeroed(probs, k):
            if k < probs.size:
                probs = probs.copy()
                probs[k] = 0.0
                probs /= probs.sum()
            return probs

        def with_zeros(rng, d, angle, max_rejects):
            # Zero positions come from the pair's own bits, so both routes see
            # the same zeros: none, in p, in q, or in both at one entry.
            p, q = original(rng, d, angle, max_rejects)
            k = int(p[0] * 2**20)
            return zeroed(p, k % (d + 1)), zeroed(q, k // (d + 1) % (d + 1))

        # fig2 calls the body directly, the public sampler through its module.
        for module in (experiments, sampling):
            monkeypatch.setattr(module, "_classical_pair_at_angle", with_zeros)
        _, rows = fig2_fixed_angle(d_a, d_b, 30, 5)
        assert rows == fig2_rows_by_pair(d_a, d_b, 30, 5, FIG2_ANGLES)

    def test_sampler_runs_n_times_per_angle_in_order(self, monkeypatch):
        calls = []
        original = experiments._classical_pair_at_angle

        def recording(rng, d, angle, max_rejects):
            calls.append((rng.generator.bit_generator.state["state"]["state"], d, angle))
            return original(rng, d, angle, max_rejects)

        monkeypatch.setattr(experiments, "_classical_pair_at_angle", recording)
        fig2_fixed_angle(3, 2, 4, SEED, angles=(5e-6, 1e-6, 3e-6))
        assert [call[1:] for call in calls] == [(6, a) for a in (1e-6, 3e-6, 5e-6) for _ in range(4)]
        base = RngHandle(SEED)
        starts = [base.stream(i).generator.bit_generator.state["state"]["state"] for i in range(3)]
        assert [calls[4 * i][0] for i in range(3)] == starts


def dense_metrics(left, right):
    """Root fidelity and |dH| of a QC pair through its embedding at d_A d_B."""
    rho, sigma = states.qc_embed(left), states.qc_embed(right)
    d_a, d_b = left.dim_a, left.dim_b
    diff = abs(conditional_entropy(rho, d_a, d_b) - conditional_entropy(sigma, d_a, d_b))
    return fidelity(rho, sigma), diff


def fig1_rows_by_dense_route(d_a, d_b, n_samples, seed):
    """fig1's rows with each pair embedded and evaluated by the dense kernels."""
    rng = RngHandle(seed)
    u, cap = lipschitz_u(d_a), math.log(d_a)
    rows = []
    for _ in range(n_samples):
        f, diff = dense_metrics(*sample_qc_pair(rng, d_a, d_b))
        angle = float(np.arccos(f))
        rows.append((angle, diff, min(u * angle, cap)))
    rows.sort()
    return rows


# Fixed before the run: fig1's rows against the dense route, 310 pairs.
FIG1_ORACLE_TOL = 1e-13
FIG1_ORACLE_CASES = [(2, 2, 100), (2, 16, 30), (3, 4, 60), (1, 3, 60), (4, 1, 60)]


class TestFig1BlockRoute:
    """fig1 evaluates its pairs on their blocks, one stack per chunk."""

    @pytest.mark.parametrize("d_a, d_b, n_samples", FIG1_ORACLE_CASES)
    def test_rows_match_the_dense_route(self, d_a, d_b, n_samples):
        _, rows = fig1_scatter(d_a, d_b, n_samples, SEED)
        expected = fig1_rows_by_dense_route(d_a, d_b, n_samples, SEED)
        assert len(rows) == len(expected) == n_samples
        assert np.max(np.abs(np.array(rows) - np.array(expected))) <= FIG1_ORACLE_TOL

    def test_one_stacked_eigvalsh_and_no_embedding(self, monkeypatch):
        # The sampled blocks keep the eigensystems they were drawn with, so
        # the stacked eigvalsh is the call's only eigensolve.
        embeds = count_calls(monkeypatch, states, "qc_embed")
        decompositions = count_calls(monkeypatch, np.linalg, "eigh")
        solves = count_calls(monkeypatch, np.linalg, "eigvalsh")
        fig1_scatter(2, 16, 20, SEED)
        assert (len(embeds), len(decompositions), len(solves)) == (0, 0, 1)

    def test_chunks_give_the_rows_of_one_stack(self, monkeypatch):
        _, whole = fig1_scatter(3, 2, 40, SEED)
        monkeypatch.setattr(experiments, "FIG1_CHUNK_ELEMENTS", 3 * 2 * 3 * 3)
        solves = count_calls(monkeypatch, np.linalg, "eigvalsh")
        roots = count_calls(monkeypatch, linalg, "root_product")
        _, chunked = fig1_scatter(3, 2, 40, SEED)
        assert chunked == whole
        assert len(solves) == len(roots) == 14  # 13 chunks of 3 pairs and one of 1


EDGE_FAMILIES = ("independent", "zero_weights", "rank_deficient", "equal", "near_orthogonal")
# Fixed before the run.  A is compared only where F <= 1 - 1e-8, because
# arccos amplifies a rounding step of F near F = 1.
EDGE_FIDELITY_TOL = 1e-12
EDGE_ANGLE_TOL = 1e-11
EDGE_DIFF_TOL = 1e-13


def block_state(weights, spectra, unitaries):
    return make_qc_state([(w, make_density((u * p) @ u.conj().T))
                          for w, p, u in zip(weights, spectra, unitaries)])


def near_orthogonal_pair(d_a, d_b, seed, delta, rho_delta=None):
    """rho_k on the first half of a shared eigenbasis, sigma_k on the rest, each
    mixed with ``delta`` of the uniform spectrum (``rho_delta`` for rho); at
    d_A = 1 the block weights are split that way instead.  Also returns the
    exact fidelity ``sum_k sqrt(alpha_k beta_k) sum_j sqrt(p_kj q_kj)``."""
    rng = RngHandle(seed)
    gen = rng.generator
    rho_delta = delta if rho_delta is None else rho_delta
    half = d_a // 2
    p, q = np.zeros((2, d_b, d_a))
    for k in range(d_b):
        p[k, :max(half, 1)] = gen.dirichlet(np.ones(max(half, 1)))
        q[k, half:] = gen.dirichlet(np.ones(d_a - half))
    alpha, beta = gen.dirichlet(np.ones(d_b)), gen.dirichlet(np.ones(d_b))
    if d_a == 1 and d_b > 1:
        alpha, beta = np.eye(d_b)[0], np.r_[0.0, np.full(d_b - 1, 1.0 / (d_b - 1))]
        alpha, beta = (1 - rho_delta) * alpha + rho_delta / d_b, (1 - delta) * beta + delta / d_b
    p, q = (1 - rho_delta) * p + rho_delta / d_a, (1 - delta) * q + delta / d_a
    unitaries = [sample_haar_unitary(rng, d_a) for _ in range(d_b)]
    exact = float(np.sum(np.sqrt(alpha * beta) * np.sum(np.sqrt(p * q), axis=1)))
    return block_state(alpha, p, unitaries), block_state(beta, q, unitaries), exact


def edge_pair(family, d_a, d_b, seed):
    """A QC pair of one edge family, built through the validating constructors."""
    if family == "near_orthogonal":
        return near_orthogonal_pair(d_a, d_b, seed, 1e-4)[:2]
    rng = RngHandle(seed)
    gen = rng.generator
    deficient = family in ("rank_deficient", "equal")
    zeros = family in ("zero_weights", "equal")

    def draw_state():
        weights = gen.dirichlet(np.ones(d_b))
        if zeros and d_b > 1:
            weights[gen.choice(d_b, size=gen.integers(1, d_b), replace=False)] = 0.0
            weights /= weights.sum()
        spectra = np.zeros((d_b, d_a))
        for row in spectra:
            rank = gen.integers(1, d_a + 1) if deficient else d_a
            row[:rank] = gen.dirichlet(np.ones(rank))
        return block_state(weights, spectra, [sample_haar_unitary(rng, d_a) for _ in range(d_b)])

    rho = draw_state()
    return (rho, rho) if family == "equal" else (rho, draw_state())


@st.composite
def edge_pairs(draw):
    """One to three QC pairs of one shape, each of an edge family."""
    d_a, d_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cases = draw(st.lists(st.tuples(st.sampled_from(EDGE_FAMILIES), st.integers(0, 2**32 - 1)),
                          min_size=1, max_size=3))
    return [edge_pair(family, d_a, d_b, seed) for family, seed in cases]


class TestQcPairMetricsEdgeFamilies:
    """The block route of fig1 against the dense route on given QC pairs."""

    @given(edge_pairs())
    @settings(max_examples=150, deadline=None)
    def test_block_route_matches_the_dense_route(self, pairs):
        fidelities, diffs = experiments._qc_pair_metrics(pairs)
        for pair, f, diff in zip(pairs, fidelities.tolist(), diffs.tolist()):
            f_dense, diff_dense = dense_metrics(*pair)
            assert abs(diff - diff_dense) <= EDGE_DIFF_TOL
            assert abs(f - f_dense) <= EDGE_FIDELITY_TOL
            if f_dense <= 1 - 1e-8:
                assert abs(math.acos(f) - math.acos(f_dense)) <= EDGE_ANGLE_TOL

    @pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10])
    def test_near_orthogonal_precision_floor(self, delta):
        # An eigenvalue mu ~ delta of sqrt(rho) sigma sqrt(rho), known to within
        # about eps, moves F by about eps / (2 sqrt(mu)).  Measured on both routes:
        # up to 1.6 eps / sqrt(delta).
        tol = 4 * np.finfo(float).eps / math.sqrt(delta)
        for d_a in range(1, 5):
            for d_b in range(1, 5):
                for seed in range(8):
                    left, right, exact = near_orthogonal_pair(d_a, d_b, seed, delta)
                    f_block = experiments._qc_pair_metrics([(left, right)])[0][0]
                    assert abs(f_block - exact) <= tol
                    assert abs(dense_metrics(left, right)[0] - exact) <= tol

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_precision_floor_on_the_kernel_of_rho(self, delta):
        # rho_k is exactly 0 where sigma_k lives, but its stored spectrum keeps
        # the eigensolver's positive noise of order eps there, and the square
        # root lifts it to order sqrt(eps) in F.  The relative floor acts on
        # the spectrum of sqrt(rho) sigma sqrt(rho), whose top is small here,
        # so it cannot remove it.  Measured on both routes: up to 2.0e-8 for
        # any delta.
        for d_a in range(2, 5):
            for d_b in range(1, 5):
                for seed in range(8):
                    left, right, exact = near_orthogonal_pair(d_a, d_b, seed, delta, rho_delta=0.0)
                    f_block = experiments._qc_pair_metrics([(left, right)])[0][0]
                    assert abs(f_block - exact) <= 3e-8
                    assert abs(dense_metrics(left, right)[0] - exact) <= 3e-8


# d_A d_B <= 4.  Fixed before the run; the measured worst cases are in README.
QUANTUM_ORACLE_SHAPES = [(1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]
QUANTUM_ENTROPY_ORACLE_TOL = 5e-14
QUANTUM_FIDELITY_ORACLE_TOL = 1e-13


class TestQuantumRoutesAgainst50Digits:
    """The dense conditional entropy and fidelity, and fig1's block route,
    against 50-digit evaluations of the same float matrices."""

    @pytest.mark.parametrize("d_a, d_b", QUANTUM_ORACLE_SHAPES)
    def test_dense_kernels(self, d_a, d_b):
        rng = RngHandle(100 * d_a + d_b)
        with mpmath.workdps(50):
            for _ in range(20):
                rho, sigma = sample_density(rng, d_a * d_b), sample_density(rng, d_a * d_b)
                exact_rho, exact_sigma = mp_matrix(rho.matrix), mp_matrix(sigma.matrix)
                exact = conditional_entropy_oracle(exact_rho, d_a, d_b)
                assert abs(conditional_entropy(rho, d_a, d_b) - exact) <= QUANTUM_ENTROPY_ORACLE_TOL
                exact = quantum_fidelity_oracle(exact_rho, exact_sigma)
                assert abs(fidelity(rho, sigma) - exact) <= QUANTUM_FIDELITY_ORACLE_TOL

    @pytest.mark.parametrize("d_a, d_b", QUANTUM_ORACLE_SHAPES)
    def test_block_route(self, d_a, d_b):
        rng = RngHandle(200 * d_a + d_b)
        pairs = [sample_qc_pair(rng, d_a, d_b) for _ in range(20)]
        fidelities, diffs = experiments._qc_pair_metrics(pairs)
        with mpmath.workdps(50):
            for (left, right), f, diff in zip(pairs, fidelities, diffs):
                exact_rho, exact_sigma = mp_embedding(left), mp_embedding(right)
                exact_diff = abs(conditional_entropy_oracle(exact_rho, d_a, d_b)
                                 - conditional_entropy_oracle(exact_sigma, d_a, d_b))
                assert abs(diff - exact_diff) <= QUANTUM_ENTROPY_ORACLE_TOL
                assert abs(f - quantum_fidelity_oracle(exact_rho, exact_sigma)) <= QUANTUM_FIDELITY_ORACLE_TOL


ORACLE_SHAPES = [(d, d) for d in range(2, 11)] + [(3, 2), (2, 4), (1, 3)]


class TestCurveBuildsRhoOnce:
    @pytest.mark.parametrize("d_a, d_b", [(1, 3), (2, 2), (3, 2), (2, 4), (10, 10)])
    def test_rows_equal_the_per_lambda_family_pair_route(self, d_a, d_b):
        _, rows = counterexample_curve(d_a, d_b, 0.05)
        assert rows == curve_rows_by_family_pair(d_a, d_b, 0.05)

    @pytest.mark.parametrize("d_a, d_b, step", [(2, 2, 0.25), (2, 3, 0.1), (3, 1, 1.0)])
    def test_rho_is_decomposed_once_per_curve(self, monkeypatch, d_a, d_b, step):
        # sigma keeps rho's eigensystem, so the eigh calls are rho's, rho_B's
        # and one per point for sigma_B.
        counts = {"trusted_density": 0, "conditional_entropy": 0}
        for name in counts:
            original = getattr(experiments, name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(experiments, name, counting)
        decompositions = count_calls(monkeypatch, np.linalg, "eigh")
        _, rows = counterexample_curve(d_a, d_b, step)
        points = round(1.0 / step) + 1
        assert len(rows) == points
        assert counts == {"trusted_density": 1, "conditional_entropy": points + 1}
        assert len(decompositions) == points + 2

    def test_family_pair_decomposes_only_rho(self, monkeypatch):
        decompositions = count_calls(monkeypatch, np.linalg, "eigh")
        family_pair(3, 2, 0.5)
        assert len(decompositions) == 1


FAMILY_SIGMA_SHAPES = [(d, d) for d in range(1, 11)] + [(3, 2), (2, 4), (1, 3)]
# Fixed before the run; measured worst 7.8e-16 (eigenvalues), 2.8e-16
# (V diag(w) V† against the matrix) and 2.2e-15 (V† V against I).
FAMILY_SIGMA_ORACLE_TOL = 1e-13


class TestFamilySigma:
    """sigma of the family keeps rho's eigensystem; a fresh eigensolve of its
    matrix (``trusted_density``) is the oracle."""

    @pytest.mark.parametrize("d_a, d_b", FAMILY_SIGMA_SHAPES)
    def test_stored_eigensystem_matches_a_fresh_eigensolve(self, d_a, d_b):
        d = d_a * d_b
        rho_real = experiments._entangled_projector(d_a, d_b)
        for lam in np.linspace(0.0, 1.0, 21):
            lam = float(lam)
            _, sigma = family_pair(d_a, d_b, lam)
            w, v = sigma.eigenvalues, sigma.spectrum.eigenvectors
            oracle = states.trusted_density(sigma.matrix)
            assert np.all(np.diff(w) >= 0.0) and np.min(w) >= 0.0
            assert np.max(np.abs(w - oracle.eigenvalues)) <= FAMILY_SIGMA_ORACLE_TOL
            assert np.max(np.abs(sigma.spectrum.reconstruct() - sigma.matrix)) <= FAMILY_SIGMA_ORACLE_TOL
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= FAMILY_SIGMA_ORACLE_TOL
            assert not any(a.flags.writeable for a in (sigma.matrix, w, v))
            built = linalg.symmetrized(
                np.asarray(lam * np.eye(d) / d + (1.0 - lam) * rho_real, dtype=complex)
            )
            assert np.array_equal(sigma.matrix, built)


class TestFamilyAgainst50Digits:
    """``family_closed_form`` and the matrix route against ``family_oracle``
    at 50 digits, on the step-0.01 grid."""

    @pytest.mark.parametrize("d_a, d_b", ORACLE_SHAPES)
    def test_closed_form(self, d_a, d_b):
        with mpmath.workdps(50):
            for lam in np.linspace(0.0, 1.0, 101):
                angle, diff = family_closed_form(d_a, d_b, float(lam))
                angle_mp, diff_mp = family_oracle(d_a, d_b, float(lam))
                assert abs(angle - angle_mp) <= 1e-14
                assert abs(diff - diff_mp) <= 1e-13

    @pytest.mark.parametrize("d_a, d_b", ORACLE_SHAPES)
    def test_matrix_route_precision_floor(self, d_a, d_b):
        # Floors measured over these shapes: the angle is worst at (3, 3),
        # 7.53e-15, and |dH| at (10, 10), 4.93e-14.  At lambda = 0, sigma is
        # rho bit for bit, and arccos reads a fidelity up to 4 spacings below 1.
        _, rows = counterexample_curve(d_a, d_b, 0.01)
        at_zero = (0.0, float(np.arccos(1.0 - 2.0**-52)), float(np.arccos(1.0 - 2.0**-51)))
        with mpmath.workdps(50):
            for lam, _, angle_mx, _, diff_mx, _, _ in rows:
                if lam == 0.0:
                    assert angle_mx in at_zero and diff_mx == 0.0
                    continue
                angle_mp, diff_mp = family_oracle(d_a, d_b, lam)
                assert abs(angle_mx - angle_mp) <= 7.6e-15
                assert abs(diff_mx - diff_mp) <= 5.0e-14


class TestTables:
    def test_fig1_rows_respect_bound(self):
        header, rows = fig1_scatter(2, 2, 50, 5)
        assert header == ["angular", "entropy_diff", "bound"]
        assert len(rows) == 50
        cap = math.log(2)
        for angle, diff, bound in rows:
            assert diff <= bound + 1e-9
            assert bound <= cap + 1e-12
        assert rows == sorted(rows)

    def test_fig2_rows(self):
        header, rows = fig2_fixed_angle(2, 2, 20, 6, angles=(1e-6, 5e-6))
        assert len(rows) == 40
        for angle, diff, bound in rows:
            assert diff <= bound + 1e-12
            assert min(abs(angle - 1e-6), abs(angle - 5e-6)) <= 1e-9

    def test_curve_routes_agree(self):
        header, rows = counterexample_curve(2, 2, 0.1)
        assert rows[0][0] == 0.0
        assert rows[0][3] == 0.0  # equal states at lambda = 0
        for row in rows:
            # the angle at lambda = 0 is limited by arccos conditioning at
            # fidelity 1 (~sqrt(eps)); every other row is tight
            angle_tol = 1e-9 if row[0] > 0 else 1e-7
            assert row[1] == pytest.approx(row[2], abs=angle_tol)
            assert row[3] == pytest.approx(row[4], abs=1e-9)
        by_lambda = {row[0]: row for row in rows}
        assert by_lambda[0.5][6] == 1  # the qubit-qubit violation

    @pytest.mark.parametrize(
        "table, config",
        [
            (fig1_scatter, (2, 2, 3, SEED)),
            (counterexample_curve, (2, 2, 0.25)),
        ],
    )
    def test_package_built_states_skip_the_boundary_check(self, monkeypatch, table, config):
        calls = count_calls(monkeypatch, linalg, "as_hermitian")
        table(*config)
        assert calls == []
        states.make_density(np.eye(2) / 2)  # outside input still goes through the check
        assert calls == [1]

    def test_fig1_single_row_is_deterministic(self):
        _, rows_a = fig1_scatter(2, 2, 1, 123)
        _, rows_b = fig1_scatter(2, 2, 1, 123)
        assert rows_a == rows_b
        assert len(rows_a) == 1

    def test_curve_large_da_never_violates(self):
        _, rows = counterexample_curve(8, 2, 0.02)
        assert all(row[6] == 0 for row in rows)

    def test_converted_bound_cannot_beat_audenaert_at_small_t(self):
        header, rows = bounds_compare(2, 0.02)
        row = dict(zip(header, rows[1]))
        assert row["trace_distance"] == pytest.approx(0.02)
        assert row["angular_conversion"] == pytest.approx(0.3224, abs=1e-4)
        assert row["audenaert"] == pytest.approx(0.0980, abs=1e-4)
        assert row["angular_conversion"] > row["audenaert"]

    def test_scan_flags_only_the_qubit_cell(self):
        header, rows = counterexample_scan(0.05)
        violating = [r for r in rows if r[3] > 1e-9]
        assert [(r[0], r[1]) for r in violating] == [(2, 2)]
        row = violating[0]
        assert row[4] <= 0.5 <= row[5]
        assert row[3] == pytest.approx(0.0132, abs=2e-3)

    def test_compare_columns(self):
        header, rows = bounds_compare(4, 0.5)
        assert header[0] == "trace_distance"
        first = dict(zip(header, rows[0]))
        assert first["audenaert"] == 0.0
        assert first["dominance_holds"] == 0  # ln(3) + 2 > u(4); recorded, not hidden
        mid = dict(zip(header, rows[1]))
        assert mid["angular_conversion"] > 0.0


class TestRendering:
    def test_csv_is_deterministic(self):
        a = render_csv(fig1_scatter(2, 2, 20, 9))
        b = render_csv(fig1_scatter(2, 2, 20, 9))
        assert a == b
        assert a.splitlines()[0] == "angular,entropy_diff,bound"

    def test_csv_uses_full_precision(self):
        text = render_csv((["x"], [(1 / 3,)]))
        assert "0.33333333333333331" in text


class TestMain:
    def test_fig1_to_file(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = cli.main(["fig1", "--n", "10", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "angular,entropy_diff,bound"
        assert len(lines) == 11

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("ENTROBOUND_SEED", "52")
        assert cli.main(["fig1", "--n", "5", "--out", str(out1)]) == 0
        monkeypatch.delenv("ENTROBOUND_SEED")
        assert cli.main(["fig1", "--n", "5", "--seed", "52", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "compare.json"
        code = cli.main(
            ["compare", "--da", "2", "--lambda-step", "0.25", "--format", "json",
             "--out", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["trace_distance"] == 0.0

    def test_svg_format(self, tmp_path):
        out = tmp_path / "curve.svg"
        code = cli.main(["curve", "--lambda-step", "0.1", "--format", "svg", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_fig1_svg_draws_one_circle_per_row(self, tmp_path):
        out = tmp_path / "fig1.svg"
        argv = ["fig1", "--n", "7", "--seed", "3", "--format", "svg", "--out", str(out)]
        assert cli.main(argv) == 0
        text = out.read_text()
        assert text.count("<circle") == 7 and text.count("<polyline") == 1

    def test_classify_upper_saturated(self, tmp_path, capsys):
        b = 0.25
        path = write_pair(
            tmp_path,
            np.diag([1 / (1 + b), b / (1 + b)]),
            np.diag([b / (1 + b), 1 / (1 + b)]),
        )
        assert cli.main(["classify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class"] == "UpperSaturated"
        assert report["c"] == pytest.approx(0.5, abs=1e-9)

    def test_classify_equal(self, tmp_path, capsys):
        path = write_pair(tmp_path, np.diag([0.6, 0.4]), np.diag([0.6, 0.4]))
        assert cli.main(["classify", path]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "Equal"

    def test_classify_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert cli.main(["classify", str(path)]) == 2

    def test_classify_invalid_state_exits_2(self, tmp_path):
        path = tmp_path / "bad_state.json"
        blob = {
            "rho": {"dim_a": 2, "dim_b": 1, "kind": "dense",
                    "matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0.9, 0]]]},
            "sigma": {"dim_a": 2, "dim_b": 1, "kind": "dense",
                      "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
        }
        path.write_text(json.dumps(blob))
        assert cli.main(["classify", str(path)]) == 2

    def test_classify_header_overflow_exits_2(self, tmp_path):
        # JSON reads 1e400 as inf, a float, which the dimension check rejects.
        blob = {
            "rho": dense_state_to_json(make_density(np.diag([0.6, 0.4])), 2, 1),
            "sigma": dense_state_to_json(make_density(np.diag([0.5, 0.5])), 2, 1),
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(blob).replace('"dim_a": 2', '"dim_a": 1e400', 1))
        assert "1e400" in path.read_text()
        assert cli.main(["classify", str(path)]) == 2

    @pytest.mark.parametrize("dim", ["2.7", '"2"', "2.0"])
    def test_classify_header_dims_must_be_json_integers(self, tmp_path, dim):
        blob = {
            "rho": dense_state_to_json(make_density(np.diag([0.6, 0.4])), 2, 1),
            "sigma": dense_state_to_json(make_density(np.diag([0.5, 0.5])), 2, 1),
        }
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(blob).replace('"dim_a": 2', f'"dim_a": {dim}'))
        assert cli.main(["classify", str(path)]) == 2

    def test_classify_non_finite_entry_exits_2(self, tmp_path):
        # A diagonal matrix passes LAPACK with a NaN on its diagonal, so only
        # the validation boundary can reject it.
        blob = {
            "rho": dense_state_to_json(make_density(np.diag([0.6, 0.4])), 2, 1),
            "sigma": dense_state_to_json(make_density(np.diag([0.5, 0.5])), 2, 1),
        }
        blob["rho"]["matrix"][0][0] = [math.nan, 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(blob))
        assert cli.main(["classify", str(path)]) == 2

    @pytest.mark.parametrize(
        "kind, matrix",
        [
            ("dense", [[0.5, 1e308], [1e308, 0.5]]),
            ("dense", [[1e308, 1e308], [1e308, 1e308]]),
            ("qc", [[1e308, 1e308], [1e308, 1e308]]),
        ],
    )
    def test_classify_entries_that_overflow_when_symmetrized_exit_2(
        self, tmp_path, capsys, kind, matrix
    ):
        # (m + m†)/2 of these finite entries would overflow to inf.  The
        # boundary rejects them with no RuntimeWarning, which this suite turns
        # into an error.
        blob = dense_pair_blob() if kind == "dense" else qc_pair_blob()
        entries = [[[z, 0.0] for z in row] for row in matrix]
        if kind == "dense":
            blob["rho"]["matrix"] = entries
        else:
            blob["rho"]["blocks"][0]["matrix"] = entries
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(blob))
        assert cli.main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: invalid {kind!r} state: matrix entry of modulus 1.000e+308 "
            "exceeds 8.988e+307\n"
        )

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (non_numeric_entry, "malformed complex matrix"),
            (header_disagrees_with_blocks, "header says"),
            (block_without_weight, "weight"),
            (no_sigma, "'rho' and 'sigma'"),
            (different_splits, "but sigma is"),
        ],
    )
    def test_classify_malformed_pair_files_exit_2(self, tmp_path, capsys, mutate, message):
        blob = qc_pair_blob()
        mutate(blob)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(blob))
        assert cli.main(["classify", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (entry_as_string, "block entry must be a JSON number, got '0.5'"),
            (entry_as_boolean, "block entry must be a JSON number, got False"),
            (weight_as_string, "block weight must be a JSON number, got '0.5'"),
            (weight_as_padded_string, "block weight must be a JSON number, got ' 5e-1 '"),
            (weight_as_boolean, "block weight must be a JSON number, got True"),
        ],
    )
    def test_classify_entries_and_weights_must_be_json_numbers(
        self, tmp_path, capsys, mutate, message
    ):
        blob = qc_pair_blob()
        mutate(blob)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(blob))
        assert cli.main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("name", sorted(BAD_MATRICES))
    def test_classify_matrix_that_is_not_a_d_d_2_nest_exits_2(self, tmp_path, capsys, name):
        blob = dense_pair_blob()
        blob["rho"]["matrix"] = BAD_MATRICES[name]
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(blob))
        assert cli.main(["classify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "kind, solves, checks, invertible",
        [
            # two densities, F and T in one stack, M's inner root and spec(M)
            ("dense", 5, 2, True),
            # no M for a non-invertible pair
            ("pure", 3, 2, False),
            # four blocks and two embeddings, then as the dense pair
            ("qc", 9, 4, True),
        ],
    )
    def test_classify_per_call_work(
        self, tmp_path, capsys, monkeypatch, kind, solves, checks, invertible
    ):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(sampled_pair_blob(kind)))
        decompositions = count_calls(monkeypatch, np.linalg, "eigh")
        spectra = count_calls(monkeypatch, np.linalg, "eigvalsh")
        boundary = count_calls(monkeypatch, linalg, "as_hermitian")
        assert cli.main(["classify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["invertible"] is invertible
        assert len(decompositions) + len(spectra) == solves
        # once per matrix read from the file
        assert len(boundary) == checks

    def test_classify_missing_file_exits_1(self):
        assert cli.main(["classify", "/nonexistent/pair.json"]) == 1

    def test_classify_directory_exits_1(self, tmp_path):
        assert cli.main(["classify", str(tmp_path)]) == 1

    def test_classify_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"rho": "\xff"}')
        assert cli.main(["classify", str(path)]) == 2
        assert "utf-8" in capsys.readouterr().err

    def test_classify_file_nested_too_deep_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert cli.main(["classify", str(path)]) == 2
        assert "recursion" in capsys.readouterr().err

    def test_sample_then_classify(self, tmp_path, capsys):
        path = tmp_path / "sampled.json"
        assert cli.main(["sample", "--kind", "qc", "--da", "2", "--db", "2",
                         "--seed", "11", "--out", str(path)]) == 0
        assert cli.main(["classify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class"] in {
            "Equal", "LowerSaturated", "UpperSaturated", "NeitherSaturated"
        }

    def test_sample_dense_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["sample", "--kind", "dense", "--seed", "4", "--out", str(a)])
        cli.main(["sample", "--kind", "dense", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_angles_exit_2(self):
        assert cli.main(["fig2", "--n", "2", "--angles", "2.0"]) == 2

    def test_angles_that_are_not_numbers_exit_2(self):
        assert cli.main(["fig2", "--n", "2", "--angles", "1e-6,abc"]) == 2

    @pytest.mark.parametrize("angles", [",", "", " , "])
    def test_angles_listing_no_angle_exit_2_before_drawing(self, monkeypatch, angles):
        calls = []
        monkeypatch.setattr(cli, "fig2_fixed_angle", lambda *args: calls.append(args))
        assert cli.main(["fig2", "--n", "2", "--angles", angles]) == 2
        assert calls == []

    def test_fig2_rejects_a_negative_db(self, capsys):
        assert cli.main(["fig2", "--n", "2", "--db", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: dimension must be")

    @pytest.mark.parametrize("d_a", ["1", "0"])
    def test_compare_rejects_da_below_2(self, capsys, d_a):
        # At d_A = 1 neither ln(d_A - 1) nor the Audenaert bound is defined.
        assert cli.main(["compare", "--da", d_a]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dimension must be an integer >= 2")

    def test_absent_angles_give_the_ten_defaults(self, capsys):
        assert cli.main(["fig2", "--n", "1", "--seed", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 10

    @pytest.mark.parametrize("step", ["1e-300", "5e-324", "9e-7"])
    def test_curve_rejects_grids_of_more_than_a_million_steps(self, monkeypatch, capsys, step):
        def built(*args):
            raise AssertionError("the grid was built")

        # Fails fast, without filling rows, if the grid check is missing.
        monkeypatch.setattr(experiments, "family_closed_form", built)
        assert cli.main(["curve", "--lambda-step", step]) == 2
        assert "grid steps" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["curve", "scan", "compare"])
    @pytest.mark.parametrize("step", ["0.3", "0.4", "0.6", "0.7", "0.15"])
    def test_lambda_steps_must_divide_one(self, monkeypatch, capsys, subcommand, step):
        def built(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(experiments, "family_closed_form", built)
        assert cli.main([subcommand, "--lambda-step", step]) == 2
        assert "does not divide 1" in capsys.readouterr().err

    def test_registered_options_are_the_parents(self):
        registered = {
            name: {s for a in registered_actions(name) for s in a.option_strings or [a.dest]}
            for name in cli.SUBCOMMANDS
        }
        assert registered == PARENT_OPTIONS
        assert sum(len(PARENT_OPTIONS[name]) for name in TABLE_OPERATIONS) == 27

    @pytest.mark.parametrize("subcommand, operation", list(TABLE_OPERATIONS.items()))
    def test_table_calls_read_exactly_their_options(
        self, monkeypatch, subcommand, operation
    ):
        calls = []

        def stub(*args):
            calls.append(args)
            return ["x", "y"], [(0.0, 1.0)]

        options = {a.dest for a in registered_actions(subcommand)}
        recorder = ReadRecorder(cli.build_parser().parse_args([subcommand]))
        monkeypatch.setattr(cli, operation, stub)
        monkeypatch.setattr(cli, "_emit", lambda text, path: None)
        monkeypatch.setattr(cli, "build_parser",
                            lambda: SimpleNamespace(parse_args=lambda argv: recorder))
        monkeypatch.delenv("ENTROBOUND_SEED", raising=False)
        assert cli.main([subcommand]) == 0
        assert len(calls) == 1
        # main reads the subcommand's name, which no option sets.
        assert recorder.read - {"subcommand"} == options

    def test_bad_sample_count_exit_2(self):
        assert cli.main(["fig1", "--n", "0"]) == 2

    @pytest.mark.parametrize(
        "subcommand, flag",
        [
            ("fig1", "--lambda-step"), ("fig1", "--angles"),
            ("fig2", "--lambda-step"),
            ("curve", "--n"), ("curve", "--full"), ("curve", "--seed"), ("curve", "--angles"),
            ("scan", "--da"), ("scan", "--db"), ("scan", "--n"), ("scan", "--full"),
            ("scan", "--seed"), ("scan", "--angles"),
            ("compare", "--db"), ("compare", "--n"), ("compare", "--full"),
            ("compare", "--seed"), ("compare", "--angles"),
        ],
    )
    def test_table_subcommands_reject_options_they_do_not_read(self, capsys, subcommand, flag):
        argv = [subcommand, flag] + ([] if flag == "--full" else ["0.1"])
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_curve_resolves_no_seed(self, tmp_path, monkeypatch):
        out = tmp_path / "curve.csv"
        monkeypatch.setenv("ENTROBOUND_SEED", "abc")
        assert cli.main(["curve", "--lambda-step", "0.5", "--out", str(out)]) == 0
        assert out.read_text().startswith("lambda,")
        assert cli.main(["fig1", "--n", "1"]) == 2  # fig1 does resolve one

    def test_parser_is_built_once(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        first = parser.parse_args(["fig1", "--n", "3"])
        second = parser.parse_args(["fig1"])
        assert first is not second and (first.n, second.n) == (3, None)

    def test_sample_dense_rejects_dims_below_one(self, tmp_path):
        # The product of the two dimensions is 2, a valid joint dimension.
        path = tmp_path / "pair.json"
        argv = ["sample", "--kind", "dense", "--da", "-1", "--db", "-2", "--out", str(path)]
        assert cli.main(argv) == 2
        assert not path.exists()


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(OutOfRangeError):
            fig1_scatter(2, 2, 0, SEED)
        with pytest.raises(OutOfRangeError):
            counterexample_curve(2, 2, 0.0)
        with pytest.raises(OutOfRangeError):
            fig2_fixed_angle(2, 2, 1, SEED, angles=(0.0,))
        with pytest.raises(OutOfRangeError):
            fig1_scatter(0, 2, 1, SEED)

    @pytest.mark.parametrize("n_samples", [True, 2.5, "3", 2.0, math.nan])
    @pytest.mark.parametrize("operation", [fig1_scatter, fig2_fixed_angle])
    def test_sample_counts_must_be_integers(self, operation, n_samples):
        with pytest.raises(OutOfRangeError, match="n_samples must be an integer >= 1"):
            operation(2, 2, n_samples, SEED)

    def test_each_reader_checks_its_values(self):
        # Each value is checked by the operation or helper that reads it.
        with pytest.raises(OutOfRangeError):
            fig2_fixed_angle(2, 2, 0, SEED)
        with pytest.raises(OutOfRangeError):
            counterexample_scan(1.5)
        with pytest.raises(OutOfRangeError):
            bounds_compare(2, math.nan)
        with pytest.raises(OutOfRangeError):
            fig1_scatter(2, 0, 1, SEED)
        with pytest.raises(OutOfRangeError):
            fig2_fixed_angle(2, 0, 1, SEED)
        with pytest.raises(OutOfRangeError, match=r"^dimension must be an integer >= 2, got 1$"):
            fig2_fixed_angle(1, 1, 1, SEED)  # the sampler needs d_A d_B >= 2
        with pytest.raises(OutOfRangeError):
            counterexample_curve(0, 2, 0.5)
        with pytest.raises(OutOfRangeError):
            counterexample_curve(2, 0, 0.5)  # d_B = 0 would reach log(0)

    def test_lambda_grid_allows_a_million_steps(self):
        grid = experiments._lambda_grid(1e-6)
        assert grid.size == 10**6 + 1 and grid[0] == 0.0 and grid[-1] == 1.0

    @pytest.mark.parametrize("step", [0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 1e-6])
    def test_lambda_grid_walks_steps_that_divide_one(self, step):
        grid = experiments._lambda_grid(step)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        # pytest.approx(step, rel=1e-9)'s tolerance: rel * step, at least its default abs 1e-12.
        assert np.all(np.abs(np.diff(grid) - step) <= max(1e-9 * step, 1e-12))

    def test_scan_misses_the_qubit_violation_only_at_step_one(self):
        # The (2, 2) violation lies on [0.358, 0.595]; grid {0, 1} has no point there.
        cells = {step: {row[:2]: row for row in counterexample_scan(step)[1]}
                 for step in (1.0, 0.5)}
        assert cells[1.0][(2, 2)][3] == 0.0 and cells[1.0][(2, 2)][4] == -1.0
        assert cells[0.5][(2, 2)][3] > 0.01
        assert cells[0.5][(2, 2)][4:] == pytest.approx((0.358, 0.595))

    def test_fig2_checks_every_angle_before_drawing(self, monkeypatch):
        calls = []
        original = experiments._classical_pair_at_angle

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "_classical_pair_at_angle", counting)
        with pytest.raises(OutOfRangeError):
            fig2_fixed_angle(2, 2, 1000, SEED, angles=(1e-6, 2.0))
        assert calls == []
