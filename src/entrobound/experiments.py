"""The tables behind the experiment subcommands.

  fig1_scatter          conditional-entropy difference vs angular distance
                        for random QC pairs, against min(u(d_A) A, ln d_A)
  fig2_fixed_angle      the same at fixed small angular distances for
                        classical pairs
  counterexample_curve  the entangled/maximally-mixed interpolation family,
                        closed form and direct matrix evaluation side by side
  counterexample_scan   violation scan of that family over d_A in 2..10,
                        d_B in 1..10
  bounds_compare        trace-distance bounds vs the converted angular bound

Each operation takes only the parameters it reads and returns a ``Table``
(header, rows) in canonical row order, so equal seeds give equal tables.
Each outside value is checked once, where it is read; an invalid one raises
``OutOfRangeError``.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import (
    ConversionDirection,
    audenaert_bound,
    classical_conditional_entropy,
    conditional_entropy,
    convert_bounds,
    lipschitz_u,
    winter_bound,
)
from .errors import OutOfRangeError
from .metrics import angular_distance, classical_fidelity
from .sampling import RngHandle, check_sampler_angle, sample_classical_pair_at_angle, sample_qc_pair
from .states import check_dimension, qc_embed, trusted_density

# Grid threshold above which a bound excess counts as a violation.
VIOLATION_TOL = 1e-9
# Most steps a lambda grid may have: 10^6 steps are 8 MB of grid.
MAX_LAMBDA_STEPS = 10**6

Table = tuple[list[str], list[tuple]]


# -- the entangled/maximally-mixed interpolation family -----------------------


def _xlogx(x: float) -> float:
    return 0.0 if x <= 0.0 else x * math.log(x)


def family_pair(d_a: int, d_b: int, lam: float):
    """Matrix route: maximally entangled rho and its mix with I/(d_A d_B).

    Joint indices are k outer, so the entangled vector sits at positions
    j * d_A + j for j below min(d_A, d_B).
    """
    if not 0.0 <= lam <= 1.0:
        raise OutOfRangeError(f"lambda must lie in [0, 1], got {lam}")
    d_m = min(d_a, d_b)
    dim = d_a * d_b
    vec = np.zeros(dim)
    for j in range(d_m):
        vec[j * d_a + j] = 1.0 / math.sqrt(d_m)
    rho = np.outer(vec, vec)
    sigma = lam * np.eye(dim) / dim + (1.0 - lam) * rho
    return trusted_density(rho), trusted_density(sigma)


def family_closed_form(d_a: int, d_b: int, lam: float) -> tuple[float, float]:
    """Closed forms for the angular distance and |entropy difference|."""
    if not 0.0 <= lam <= 1.0:
        raise OutOfRangeError(f"lambda must lie in [0, 1], got {lam}")
    d_m = min(d_a, d_b)
    d = d_a * d_b
    # lam in [0, 1] puts the fidelity's square in [1/d, 1].
    angle = math.acos(math.sqrt(1.0 - (d - 1) / d * lam))
    diff = (
        -math.log(d_m)
        + _xlogx(1.0 - (d - 1) * lam / d)
        + (d - 1) * _xlogx(lam / d)
        - (d_b - d_m) * _xlogx(lam / d_b)
        - d_m * _xlogx(lam / d_b + (1.0 - lam) / d_m)
    )
    return angle, abs(diff)


def _lambda_grid(step: float) -> np.ndarray:
    """The grid 0, step, ..., 1 of 1 / step steps, at most MAX_LAMBDA_STEPS.

    The step count is checked before anything is built; 1 / step is inf for
    the smallest subnormal steps, which the comparison also rejects.  The
    step must divide 1 (1 / step within ``1e-9 * (1 / step)`` of an integer):
    a step such as 0.3 would otherwise be rounded to another grid silently.
    """
    if not 0.0 < step <= 1.0:
        raise OutOfRangeError(f"lambda step must lie in (0, 1], got {step}")
    steps = 1.0 / step
    if steps > MAX_LAMBDA_STEPS + 0.5:  # round(steps) > MAX_LAMBDA_STEPS
        raise OutOfRangeError(f"lambda step {step} gives more than {MAX_LAMBDA_STEPS} grid steps")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise OutOfRangeError(f"lambda step {step} does not divide 1")
    return np.linspace(0.0, 1.0, round(steps) + 1)


# -- table-producing operations ------------------------------------------------


def fig1_scatter(d_a: int, d_b: int, n_samples: int, seed: int) -> Table:
    """(angular, |dH|, bound) rows for random QC pairs.

    The bound column is capped at ln d_A, the hard ceiling on QC
    conditional-entropy differences.
    """
    if n_samples < 1:
        raise OutOfRangeError(f"n_samples must be >= 1, got {n_samples}")
    rng = RngHandle(seed)
    u = lipschitz_u(d_a)
    cap = math.log(d_a)
    rows = []
    for _ in range(n_samples):
        left, right = sample_qc_pair(rng, d_a, d_b)
        rho, sigma = qc_embed(left), qc_embed(right)
        angle = angular_distance(rho, sigma)
        diff = abs(
            conditional_entropy(rho, d_a, d_b)
            - conditional_entropy(sigma, d_a, d_b)
        )
        rows.append((angle, diff, min(u * angle, cap)))
    rows.sort()
    return ["angular", "entropy_diff", "bound"], rows


def fig2_fixed_angle(
    d_a: int, d_b: int, n_samples: int, seed: int, angles: tuple[float, ...] = ()
) -> Table:
    """(angular, |dH|, bound) rows for classical pairs at fixed angles.

    ``angles`` defaults to 1e-6, 2e-6, ..., 1e-5.  Each angle gets its own
    derived stream, so output is independent of how angles are scheduled.
    Every angle is checked before the first draw.
    """
    if n_samples < 1:
        raise OutOfRangeError(f"n_samples must be >= 1, got {n_samples}")
    angles = sorted(angles) if angles else [i * 1e-6 for i in range(1, 11)]
    for angle in angles:
        check_sampler_angle(angle)
    base = RngHandle(seed)
    u = lipschitz_u(d_a)
    dim = d_a * d_b
    rows = []
    for i, angle in enumerate(angles):
        rng = base.stream(i)
        for _ in range(n_samples):
            p, q = sample_classical_pair_at_angle(rng, dim, angle)
            measured = math.acos(classical_fidelity(p, q))
            diff = abs(
                classical_conditional_entropy(p, d_a, d_b)
                - classical_conditional_entropy(q, d_a, d_b)
            )
            rows.append((measured, diff, u * measured))
    rows.sort()
    return ["angular", "entropy_diff", "bound"], rows


def counterexample_curve(d_a: int, d_b: int, lambda_step: float) -> Table:
    """Interpolation family along lambda, closed form next to matrix route."""
    check_dimension(d_b)
    u = lipschitz_u(d_a)
    rows = []
    for lam in _lambda_grid(lambda_step):
        lam = float(lam)
        angle_cf, diff_cf = family_closed_form(d_a, d_b, lam)
        rho, sigma = family_pair(d_a, d_b, lam)
        angle_mx = angular_distance(rho, sigma)
        diff_mx = abs(
            conditional_entropy(rho, d_a, d_b)
            - conditional_entropy(sigma, d_a, d_b)
        )
        bound = u * angle_cf
        rows.append(
            (lam, angle_cf, angle_mx, diff_cf, diff_mx, bound,
             int(diff_cf > bound + VIOLATION_TOL))
        )
    return (
        ["lambda", "angular_closed", "angular_matrix", "entropy_diff_closed",
         "entropy_diff_matrix", "bound", "violation"],
        rows,
    )


def counterexample_scan(lambda_step: float) -> Table:
    """Max bound excess of the family over d_A in 2..10, d_B in 1..10.

    Cells with a violation are re-examined on a step-0.001 grid around the
    violating interval; lambda_lo/lambda_hi bound that interval (-1 when the
    cell is clean).  Only a violation the coarse grid hits is refined: of the
    steps that divide 1, only step 1 (grid {0, 1}) misses the (2, 2)
    violation on [0.358, 0.595] and reports that cell clean.
    """
    rows = []
    base_grid = _lambda_grid(lambda_step)
    for d_a in range(2, 11):
        u = lipschitz_u(d_a)
        for d_b in range(1, 11):
            def excess(lam: float) -> float:
                angle, diff = family_closed_form(d_a, d_b, lam)
                return diff - u * angle

            gaps = np.array([excess(float(l)) for l in base_grid])
            violating = base_grid[gaps > VIOLATION_TOL]
            if violating.size:
                lo = max(0.0, float(violating.min()) - lambda_step)
                hi = min(1.0, float(violating.max()) + lambda_step)
                fine = np.clip(np.arange(lo, hi + 0.0005, 0.001), 0.0, 1.0)
                fine_gaps = np.array([excess(float(l)) for l in fine])
                sel = fine_gaps > VIOLATION_TOL
                best = int(np.argmax(fine_gaps))
                rows.append(
                    (d_a, d_b, float(fine[best]), float(fine_gaps[best]),
                     float(fine[sel].min()), float(fine[sel].max()))
                )
            else:
                best = int(np.argmax(gaps))
                rows.append((d_a, d_b, float(base_grid[best]), float(gaps[best]), -1.0, -1.0))
    return (
        ["d_a", "d_b", "lambda_star", "max_violation", "lambda_lo", "lambda_hi"],
        rows,
    )


def bounds_compare(d_a: int, lambda_step: float) -> Table:
    """Trace-distance bounds next to the converted angular-distance bound.

    The trace distance runs over the grid of step ``lambda_step``.  The
    dominance columns record the small-T comparison constant
    ln(d_A - 1) + 2 against u(d_A); dominance_holds is simply the truth of
    that inequality for this d_A.
    """
    u = lipschitz_u(d_a)
    lhs = math.log(d_a - 1) + 2.0 if d_a >= 2 else 2.0
    rows = []
    for t in _lambda_grid(lambda_step):
        t = float(t)
        rows.append(
            (
                t,
                audenaert_bound(t, max(d_a, 2)),
                winter_bound(t, d_a),
                convert_bounds(t, ConversionDirection.ANGULAR_FROM_TRACE, d_a),
                u * math.sqrt(2.0 * t),
                math.sin(math.acos(1.0 - t)),
                lhs,
                u,
                int(lhs <= u),
            )
        )
    return (
        ["trace_distance", "audenaert", "winter", "angular_conversion",
         "small_t_approximation", "trace_from_angular", "dominance_lhs",
         "dominance_rhs", "dominance_holds"],
        rows,
    )
