"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion, runs it at its stated
tolerance, and prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Criteria 4 and 9 are implemented exactly as stated and are
currently red; the assertion messages carry the measured values.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from conftest import rand_invertible_density, rand_pure_density
from oracles import u_oracle

from entrobound.experiments import counterexample_scan, family_closed_form, family_pair
from entrobound.entropy import (
    LIPSCHITZ,
    classical_conditional_entropy,
    conditional_entropy,
    great_circle_path,
    hc_derivative,
    lipschitz_u,
)
from entrobound.fvdg import PairClass, classify_pair, fidelity_optimal_measurement, \
    pure_fidelity_optimal, trace_optimal_measurements
from entrobound.metrics import (
    angular_distance,
    classical_fidelity,
    classical_trace_distance,
    distance_triple,
    fidelity,
    make_measurement,
    measure,
    trace_distance,
)
from entrobound.sampling import (
    RngHandle,
    sample_classical_pair_at_angle,
    sample_haar_unitary,
    sample_qc_pair,
)
from entrobound.states import make_density, qc_embed, sqrt_vector


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_counterexample_numbers():
    start = time.perf_counter()
    angle_cf, diff_cf = family_closed_form(2, 2, 0.5)
    rho, sigma = family_pair(2, 2, 0.5)
    angle_mx = angular_distance(rho, sigma)
    diff_mx = abs(conditional_entropy(rho, 2, 2) - conditional_entropy(sigma, 2, 2))
    bound = lipschitz_u(2) * angle_cf
    elapsed = time.perf_counter() - start
    ok = (
        abs(diff_cf - 1.074) <= 1e-3
        and abs(bound - 1.061) <= 1e-3
        and abs(angle_cf - angle_mx) <= 1e-9
        and abs(diff_cf - diff_mx) <= 1e-9
        and elapsed < 1.0
    )
    _report(1, ok, f"|dH|={diff_cf:.6f}, u(2)A={bound:.6f}, "
                   f"route gaps=({abs(angle_cf - angle_mx):.2e}, {abs(diff_cf - diff_mx):.2e}), "
                   f"{elapsed:.3f}s")
    assert abs(diff_cf - 1.074) <= 1e-3
    assert abs(bound - 1.061) <= 1e-3
    assert abs(angle_cf - angle_mx) <= 1e-9
    assert abs(diff_cf - diff_mx) <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_tangency_constant():
    x0 = LIPSCHITZ.x0
    fixed_point_residual = abs(math.log(x0) - 2.0 * (1.0 - 1.0 / x0))
    tangency_residual = abs(LIPSCHITZ.majorant(x0) - math.log(x0) ** 2)
    slope_residual = abs(LIPSCHITZ.slope - 2.0 * math.log(x0) / x0)
    ok = (
        abs(x0 - 4.922) <= 1e-3
        and tangency_residual <= 1e-10
        and slope_residual <= 1e-10
        and fixed_point_residual <= 1e-12
    )
    _report(2, ok, f"x0={x0:.9f}, tangency residual={tangency_residual:.2e}")
    assert abs(x0 - 4.922) <= 1e-3
    assert tangency_residual <= 1e-10
    assert slope_residual <= 1e-10


def test_criterion_3_qc_pairs_at_scale():
    start = time.perf_counter()
    rng = RngHandle(303)
    u = lipschitz_u(2)
    cap = math.log(2)
    violations = 0
    worst_ratio = 0.0
    for _ in range(10_000):
        left, right = sample_qc_pair(rng, 2, 2)
        rho, sigma = qc_embed(left), qc_embed(right)
        angle = angular_distance(rho, sigma)
        diff = abs(conditional_entropy(rho, 2, 2) - conditional_entropy(sigma, 2, 2))
        bound = min(u * angle, cap)
        if diff > bound + 1e-9:
            violations += 1
        if bound > 0:
            worst_ratio = max(worst_ratio, diff / bound)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    _report(3, ok, f"10^4 pairs, violations={violations}, "
                   f"max |dH|/bound={worst_ratio:.4f}, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_4_fixed_angle_suite():
    start = time.perf_counter()
    angles = [i * 1e-6 for i in range(1, 11)]
    max_ratio = {}
    violations = 0
    for d_a in (2, 8):
        d_b = 2
        u = lipschitz_u(d_a)
        dim = d_a * d_b
        base = RngHandle(304 + d_a)
        worst = 0.0
        for i, angle in enumerate(angles):
            rng = base.stream(i)
            for _ in range(1_000):
                p, q = sample_classical_pair_at_angle(rng, dim, angle)
                diff = abs(
                    classical_conditional_entropy(p, d_a, d_b)
                    - classical_conditional_entropy(q, d_a, d_b)
                )
                if diff > u * angle + 1e-9:
                    violations += 1
                worst = max(worst, diff / (u * angle))
        max_ratio[d_a] = worst
    elapsed = time.perf_counter() - start
    ok = (
        violations == 0
        and max_ratio[2] > 0.9
        and max_ratio[8] < max_ratio[2]
        and elapsed < 60.0
    )
    _report(4, ok, f"violations={violations}, max ratio d_A=2: {max_ratio[2]:.4f}, "
                   f"d_A=8: {max_ratio[8]:.4f}, {elapsed:.1f}s")
    assert violations == 0
    assert max_ratio[8] < max_ratio[2]
    assert elapsed < 60.0
    # Near-tightness threshold as stated.  The exact small-angle supremum of
    # |dH| / (u(2) A) is 2 sqrt(max_t [t ln^2 t + (1-t) ln^2(1-t) - h(t)^2])
    # / u(2) = 0.8235..., so no sample can ever exceed 0.9; observed maxima
    # sit just under the supremum.
    assert max_ratio[2] > 0.9, (
        f"max ratio at d_A=2 is {max_ratio[2]:.4f}; the mathematical supremum "
        f"is 0.8235, below the stated 0.9 threshold"
    )


def test_criterion_4_small_angle_supremum_is_below_its_threshold():
    # sup |dH| / (u(2) A) as A -> 0 is 2 sqrt(max_t g(t)) / u(2), with g the
    # variance of -ln of the distribution (t, 1 - t).
    def g(t):
        h = -t * mpmath.log(t) - (1 - t) * mpmath.log(1 - t)
        return t * mpmath.log(t) ** 2 + (1 - t) * mpmath.log(1 - t) ** 2 - h**2

    with mpmath.workdps(50):
        t_star = mpmath.findroot(lambda t: mpmath.diff(g, t), 0.083)
        peak = g(t_star)
        assert all(g(mpmath.mpf(i) / 1000) <= peak for i in range(1, 1000))
        sup = 2 * mpmath.sqrt(peak) / u_oracle(2)
    assert abs(t_star - mpmath.mpf("0.0832217201995")) < 1e-12
    assert 0.8235 <= sup < 0.8236
    assert sup < 0.9


def test_criterion_5_violation_scan():
    start = time.perf_counter()
    header, rows = counterexample_scan(0.005)
    violating_cells = [(r[0], r[1]) for r in rows if r[3] > 1e-9]

    # contiguity of the violating lambda set on the base grid at (2, 2)
    grid = np.linspace(0.0, 1.0, 201)
    u2 = lipschitz_u(2)
    mask = []
    for lam in grid:
        angle, diff = family_closed_form(2, 2, float(lam))
        mask.append(diff > u2 * angle + 1e-9)
    mask = np.array(mask)
    idx = np.flatnonzero(mask)
    contiguous = idx.size > 0 and np.all(np.diff(idx) == 1)
    contains_half = bool(mask[100])

    # the doubled bound survives the whole grid
    worst_doubled = -np.inf
    for d_a in range(2, 11):
        u = lipschitz_u(d_a)
        for d_b in range(1, 11):
            for lam in grid:
                angle, diff = family_closed_form(d_a, d_b, float(lam))
                worst_doubled = max(worst_doubled, diff - 2.0 * u * angle)
    elapsed = time.perf_counter() - start
    ok = (
        violating_cells == [(2, 2)]
        and contiguous
        and contains_half
        and worst_doubled <= 1e-9
        and elapsed < 300.0
    )
    _report(5, ok, f"violating cells={violating_cells}, contiguous={contiguous}, "
                   f"doubled-bound excess={worst_doubled:.2e}, {elapsed:.1f}s")
    assert violating_cells == [(2, 2)]
    assert contiguous and contains_half
    assert worst_doubled <= 1e-9
    assert elapsed < 300.0


def test_scan_qubit_row_matches_50_digit_values():
    header, rows = counterexample_scan(0.005)
    row = dict(zip(header, next(r for r in rows if r[:2] == (2, 2))))

    with mpmath.workdps(50):
        u2 = u_oracle(2)

        # At d_A = d_B = 2 the family's closed form reduces to
        # |dH| = -(1 - 3l/4) ln(1 - 3l/4) - (3l/4) ln(l/4), A = acos sqrt(1 - 3l/4).
        def excess(lam):
            top, rest = 1 - 3 * lam / 4, 3 * lam / 4
            diff = -top * mpmath.log(top) - rest * mpmath.log(lam / 4)
            return diff - u2 * mpmath.acos(mpmath.sqrt(top))

        lam_star = mpmath.findroot(lambda lam: mpmath.diff(excess, lam), 0.479)
        peak = excess(lam_star)
        lo, hi = mpmath.findroot(excess, 0.358), mpmath.findroot(excess, 0.596)
    assert abs(lam_star - mpmath.mpf("0.478968")) < 1e-6
    assert abs(lo - mpmath.mpf("0.357829")) < 1e-6
    assert abs(hi - mpmath.mpf("0.595892")) < 1e-6
    # The refinement grid has step 0.001.
    assert abs(row["lambda_star"] - lam_star) <= 1e-3
    assert abs(row["lambda_lo"] - lo) <= 1e-3
    assert abs(row["lambda_hi"] - hi) <= 1e-3
    # Missing the peak by at most half a step costs at most
    # max|excess''| (about 1.89 on [0.47, 0.49]) * 0.0005^2 / 2 < 2.5e-7.
    assert peak - 2.5e-7 <= row["max_violation"] <= peak + 1e-15


def test_criterion_6_saturating_family():
    rng = RngHandle(306)
    worst_gap = 0.0
    worst_c = 0.0
    for b_int in range(1, 10):
        b = b_int / 10.0
        rho = make_density(np.diag([1 / (1 + b), b / (1 + b)]))
        sigma = make_density(np.diag([b / (1 + b), 1 / (1 + b)]))
        pairs = [(rho, sigma)]
        for _ in range(20):
            u = sample_haar_unitary(rng, 2)
            pairs.append(
                (
                    make_density(u @ rho.matrix @ u.conj().T),
                    make_density(u @ sigma.matrix @ u.conj().T),
                )
            )
        for rho_u, sigma_u in pairs:
            triple = distance_triple(rho_u, sigma_u)
            gap = abs(triple.trace_distance - math.sqrt(1 - triple.fidelity**2))
            worst_gap = max(worst_gap, gap)
            report = classify_pair(rho_u, sigma_u)
            assert report.pair_class is PairClass.UPPER_SATURATED, (b, report.pair_class)
            worst_c = max(worst_c, abs(report.c_value - math.sqrt(b)))
    ok = worst_gap <= 1e-10 and worst_c <= 1e-7
    _report(6, ok, f"max |T - sqrt(1-F^2)|={worst_gap:.2e}, max |c - sqrt(b)|={worst_c:.2e}")
    assert worst_gap <= 1e-10
    assert worst_c <= 1e-7


def test_criterion_7_lemma_oracles():
    rng = RngHandle(307)
    worst_t = 0.0
    worst_f = 0.0
    worst_beat_t = -np.inf
    worst_beat_f = -np.inf
    for _ in range(1_000):
        d = int(rng.generator.integers(2, 6))
        rho = rand_invertible_density(rng, d)
        sigma = rand_invertible_density(rng, d)
        t = trace_distance(rho, sigma)
        f = fidelity(rho, sigma)
        meas_t = trace_optimal_measurements(rho, sigma)
        achieved_t = classical_trace_distance(measure(meas_t, rho), measure(meas_t, sigma))
        worst_t = max(worst_t, abs(achieved_t - t))
        meas_f = fidelity_optimal_measurement(rho, sigma)
        achieved_f = classical_fidelity(measure(meas_f, rho), measure(meas_f, sigma))
        worst_f = max(worst_f, abs(achieved_f - f))
        for _ in range(200):
            basis = make_measurement(sample_haar_unitary(rng, d))
            p, q = measure(basis, rho), measure(basis, sigma)
            worst_beat_t = max(worst_beat_t, classical_trace_distance(p, q) - t)
            worst_beat_f = max(worst_beat_f, f - classical_fidelity(p, q))
    ok = worst_t <= 1e-9 and worst_f <= 1e-9 and worst_beat_t <= 1e-9 and worst_beat_f <= 1e-9
    _report(7, ok, f"|Tc - T|={worst_t:.2e}, |Fc - F|={worst_f:.2e}, "
                   f"best excess T={worst_beat_t:.2e}, F={worst_beat_f:.2e}")
    assert worst_t <= 1e-9
    assert worst_f <= 1e-9
    assert worst_beat_t <= 1e-9
    assert worst_beat_f <= 1e-9


def test_criterion_8_derivative_machinery():
    rng = RngHandle(308)
    step = 1e-6
    worst_rel = 0.0
    worst_excess = -np.inf
    paths = 0
    while paths < 100:
        d_a = int(rng.generator.integers(2, 5))
        d_b = int(rng.generator.integers(1, 5))
        left, right = sample_qc_pair(rng, d_a, d_b)
        r, s = sqrt_vector(left), sqrt_vector(right)
        if float(r.entries @ s.entries) > 1.0 - 1e-10:
            continue
        path = great_circle_path(r, s)
        paths += 1
        u = lipschitz_u(d_a)
        for frac in np.linspace(0.05, 0.95, 20):
            theta = float(frac) * path.theta0
            if not step < theta < path.theta0 - step:
                continue
            analytic = hc_derivative(path, theta)
            fd = (path.hc(theta + step) - path.hc(theta - step)) / (2 * step)
            # relative agreement with a floor guarding near-zero crossings,
            # where the quotient is pure cancellation noise
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-3)
            worst_rel = max(worst_rel, rel)
            worst_excess = max(worst_excess, abs(analytic) - u)
    ok = worst_rel <= 1e-5 and worst_excess <= 1e-8
    _report(8, ok, f"100 paths, worst rel FD gap={worst_rel:.2e}, "
                   f"worst |Hc'| - u(d_A)={worst_excess:.2e}")
    assert worst_rel <= 1e-5
    assert worst_excess <= 1e-8


def test_criterion_9_small_t_dominance():
    failures = {
        d: (math.log(d - 1) + 2.0, lipschitz_u(d))
        for d in range(2, 65)
        if not math.log(d - 1) + 2.0 <= lipschitz_u(d)
    }
    ok = not failures
    _report(9, ok, "ln(d-1)+2 <= u(d) on 2..64" if ok else
            f"inequality fails at d={sorted(failures)} "
            f"(e.g. d=2: lhs=2.0, u(2)={lipschitz_u(2):.4f})")
    assert not failures, (
        f"ln(d_A-1)+2 <= u(d_A) fails for d_A in {sorted(failures)}: "
        f"u grows as 2 ln d, and the inequality as stated only holds from "
        f"d_A = 7 upward; with the sqrt(2) conversion factor included it "
        f"would hold for every d_A >= 2"
    )


def test_criterion_9_holds_with_the_sqrt2_conversion_factor():
    with mpmath.workdps(50):
        margins = {d: mpmath.sqrt(2) * u_oracle(d) - (mpmath.log(d - 1) + 2) for d in range(2, 65)}
    assert min(margins, key=margins.get) == 2
    assert abs(margins[2] - mpmath.mpf("0.276155")) < 1e-6
    assert all(math.log(d - 1) + 2.0 <= math.sqrt(2.0) * lipschitz_u(d) for d in range(2, 65))


def test_lipschitz_u_matches_50_digit_values():
    with mpmath.workdps(50):
        exact = {d: u_oracle(d) for d in range(1, 65)}
    assert all(abs(lipschitz_u(d) - u) <= 1e-15 * u for d, u in exact.items())


def test_criterion_10_pure_state_characterization():
    rng = RngHandle(310)
    disagreements = 0
    for _ in range(1_000):
        d = int(rng.generator.integers(2, 5))
        rho, rho_vec = rand_pure_density(rng, d)
        sigma, sigma_vec = rand_pure_density(rng, d)
        basis = make_measurement(sample_haar_unitary(rng, d))
        structural = pure_fidelity_optimal(basis, rho_vec, sigma_vec)
        achieved = classical_fidelity(measure(basis, rho), measure(basis, sigma))
        direct = abs(achieved - fidelity(rho, sigma)) <= 1e-8
        if structural != direct:
            disagreements += 1
    ok = disagreements == 0
    _report(10, ok, f"10^3 draws, disagreements={disagreements}")
    assert disagreements == 0
