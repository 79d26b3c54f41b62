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
    _hc_raw,
    audenaert_bound,
    conditional_entropy,
    convert_bounds,
    lipschitz_u,
    winter_bound,
)
from .errors import OutOfRangeError
from .linalg import SpectralDecomposition, frozen, root_product, symmetrized
from .metrics import _classical_fidelity_rows, _fidelity_from_spectrum_rows, angular_distance
from .sampling import (
    MAX_REJECTS,
    RngHandle,
    _classical_pair_at_angle,
    check_sampler_angle,
    sample_qc_pair,
)
from .states import DensityOperator, QCState, check_dimension, check_real, trusted_density

# Grid threshold above which a bound excess counts as a violation.
VIOLATION_TOL = 1e-9
# Most steps a lambda grid may have: 10^6 steps are 8 MB of grid.
MAX_LAMBDA_STEPS = 10**6
# Most complex entries in one fig1 chunk's (pairs, d_B, d_A, d_A) stack: 32 kB
# per stack, so a call's memory does not grow with its pair count.
FIG1_CHUNK_ELEMENTS = 2**11

Table = tuple[list[str], list[tuple]]


# -- the entangled/maximally-mixed interpolation family -----------------------


def _xlogx(x: float) -> float:
    return 0.0 if x <= 0.0 else x * math.log(x)


def _entangled_projector(d_a: int, d_b: int) -> np.ndarray:
    """The real matrix of the maximally entangled rho on d_A * d_B.

    Joint indices are k outer, so the entangled vector sits at positions
    j * d_A + j for j below min(d_A, d_B).
    """
    d_m = min(d_a, d_b)
    vec = np.zeros(d_a * d_b)
    for j in range(d_m):
        vec[j * d_a + j] = 1.0 / math.sqrt(d_m)
    return np.outer(vec, vec)


def _family_sigma(rho: DensityOperator, lam: float) -> DensityOperator:
    """``sigma = lam I/d + (1 - lam) rho`` with rho's eigensystem, decomposing nothing.

    sigma's eigenvectors are rho's and its eigenvalues ``lam/d + (1 - lam) w``
    for rho's stored ``w``: ascending because ``1 - lam >= 0``, at least 0
    because ``w`` is clamped, and of trace 1 within rounding.
    """
    d = rho.dim
    matrix = symmetrized(lam * np.eye(d) / d + (1.0 - lam) * rho.matrix)
    w = frozen(lam / d + (1.0 - lam) * rho.eigenvalues)
    return DensityOperator(matrix, SpectralDecomposition(w, rho.spectrum.eigenvectors))


def family_pair(d_a: int, d_b: int, lam: float):
    """Matrix route: maximally entangled rho and its mix with I/(d_A d_B).

    rho is decomposed; sigma keeps rho's eigensystem (``_family_sigma``).
    """
    lam = check_real(lam, 0.0, 1.0, "lambda")
    rho = trusted_density(_entangled_projector(d_a, d_b))
    return rho, _family_sigma(rho, lam)


def family_closed_form(d_a: int, d_b: int, lam: float) -> tuple[float, float]:
    """Closed forms for the angular distance and |entropy difference|."""
    return _family_closed_form(d_a, d_b, check_real(lam, 0.0, 1.0, "lambda"))


def _family_closed_form(d_a: int, d_b: int, lam: float) -> tuple[float, float]:
    """``family_closed_form``'s body, for a float ``lam`` already in [0, 1].

    ``counterexample_curve`` and ``counterexample_scan`` call it on their
    grids, which are checked once, where they are built.
    """
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
    steps = 1.0 / check_real(step, 0.0, 1.0, "lambda step", "(]")
    if steps > MAX_LAMBDA_STEPS + 0.5:  # round(steps) > MAX_LAMBDA_STEPS
        raise OutOfRangeError(f"lambda step {step} gives more than {MAX_LAMBDA_STEPS} grid steps")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise OutOfRangeError(f"lambda step {step} does not divide 1")
    return np.linspace(0.0, 1.0, round(steps) + 1)


# -- table-producing operations ------------------------------------------------


def fig1_scatter(d_a: int, d_b: int, n_samples: int, seed: int) -> Table:
    """(angular, |dH|, bound) rows for random QC pairs.

    The bound column is capped at ln d_A, the hard ceiling on QC
    conditional-entropy differences.  The pairs are drawn one at a time by
    ``sample_qc_pair`` and evaluated on their blocks by ``_qc_pair_metrics``,
    in chunks whose block stack holds at most ``FIG1_CHUNK_ELEMENTS`` entries.
    """
    n_samples = check_dimension(n_samples, 1, "n_samples")
    rng = RngHandle(seed)
    u = lipschitz_u(d_a)
    cap = math.log(d_a)
    chunk = max(1, FIG1_CHUNK_ELEMENTS // (check_dimension(d_b) * d_a * d_a))
    rows = []
    for start in range(0, n_samples, chunk):
        pairs = [sample_qc_pair(rng, d_a, d_b) for _ in range(min(chunk, n_samples - start))]
        fidelities, diffs = _qc_pair_metrics(pairs)
        for angle, diff in zip(np.arccos(fidelities).tolist(), diffs.tolist()):
            rows.append((angle, diff, min(u * angle, cap)))
    rows.sort()
    return ["angular", "entropy_diff", "bound"], rows


def _qc_pair_metrics(pairs: list[tuple[QCState, QCState]]) -> tuple[np.ndarray, np.ndarray]:
    """Root fidelity and ``|H(A|B)_rho - H(A|B)_sigma|`` of QC pairs of one shape.

    Evaluated on the blocks, with no embedding.  For
    ``rho = sum_k alpha_k rho_k (x) |k><k|``, and sigma with ``beta_k`` and
    ``sigma_k``, the joint spectrum of rho is ``alpha_k w_kj`` (k outer) for
    the stored spectra ``w_k`` of the blocks, so both conditional entropies
    are ``_hc_raw`` of those rows.  ``sqrt(rho) sigma sqrt(rho)`` is block
    diagonal with blocks ``alpha_k beta_k sqrt(rho_k) sigma_k sqrt(rho_k)``:
    one stacked ``root_product`` on the blocks' stored eigensystems forms
    them, and one stacked ``eigvalsh`` gives the spectra of all pairs, which
    ``fidelity``'s row kernel floors against each pair's top and sums.
    """
    d_a, d_b = pairs[0][0].dim_a, pairs[0][0].dim_b
    n = len(pairs)
    weights = np.empty((2, n, d_b, 1))
    spectra = np.empty((2, n, d_b, d_a))
    vectors = np.empty((n, d_b, d_a, d_a), dtype=complex)
    sigmas = np.empty((n, d_b, d_a, d_a), dtype=complex)
    for i, (rho, sigma) in enumerate(pairs):
        for k, ((alpha, rho_k), (beta, sigma_k)) in enumerate(zip(rho.blocks, sigma.blocks)):
            weights[:, i, k, 0] = alpha, beta
            spectra[:, i, k] = rho_k.eigenvalues, sigma_k.eigenvalues
            vectors[i, k] = rho_k.spectrum.eigenvectors
            sigmas[i, k] = sigma_k.matrix
    entropies = _hc_raw((weights * spectra).reshape(2, n, d_b * d_a), d_a, d_b)
    blocks = root_product(SpectralDecomposition(spectra[0], vectors), sigmas)
    products = np.linalg.eigvalsh(blocks) * (weights[0] * weights[1])
    fidelities = _fidelity_from_spectrum_rows(products.reshape(n, d_b * d_a))
    return fidelities, np.abs(entropies[0] - entropies[1])


def fig2_fixed_angle(
    d_a: int, d_b: int, n_samples: int, seed: int, angles: tuple[float, ...] = ()
) -> Table:
    """(angular, |dH|, bound) rows for classical pairs at fixed angles.

    ``angles`` defaults to 1e-6, 2e-6, ..., 1e-5.  Each angle gets its own
    derived stream, so output is independent of how angles are scheduled.
    Every angle, ``n_samples`` and ``d_A d_B >= 2`` are checked before the
    first draw.  Per angle the pairs are drawn one at a time by the body of
    ``sample_classical_pair_at_angle`` straight into two stacked
    ``(n, d_A d_B)`` arrays, and the fidelities and both conditional entropies
    are then evaluated on all rows at once, with the arithmetic of
    ``classical_fidelity`` and ``classical_conditional_entropy``.
    """
    n_samples = check_dimension(n_samples, 1, "n_samples")
    angles = sorted(map(check_sampler_angle, angles or [i * 1e-6 for i in range(1, 11)]))
    base = RngHandle(seed)
    u = lipschitz_u(d_a)
    dim = check_dimension(d_a * check_dimension(d_b), 2)
    p_rows, q_rows = np.empty((2, n_samples, dim))
    rows = []
    for i, angle in enumerate(angles):
        rng = base.stream(i)
        for j in range(n_samples):
            p_rows[j], q_rows[j] = _classical_pair_at_angle(rng, dim, angle, MAX_REJECTS)
        fidelities = _classical_fidelity_rows(p_rows, q_rows).tolist()
        diffs = np.abs(_hc_raw(p_rows, d_a, d_b) - _hc_raw(q_rows, d_a, d_b)).tolist()
        for fidelity, diff in zip(fidelities, diffs):
            measured = math.acos(fidelity)
            rows.append((measured, diff, u * measured))
    rows.sort()
    return ["angular", "entropy_diff", "bound"], rows


def counterexample_curve(d_a: int, d_b: int, lambda_step: float) -> Table:
    """Interpolation family along lambda, closed form next to matrix route.

    rho does not depend on lambda: its matrix, its spectrum and ``H(A|B)_rho``
    are built once per call.  Each grid point builds sigma as ``family_pair``
    does, with rho's eigensystem, so the only eigensolves per point are the
    fidelity's ``eigvalsh`` and the ``eigh`` of sigma's partial trace.
    """
    check_dimension(d_b)
    u = lipschitz_u(d_a)
    grid = _lambda_grid(lambda_step)
    rho = trusted_density(_entangled_projector(d_a, d_b))
    entropy_rho = conditional_entropy(rho, d_a, d_b)
    rows = []
    for lam in grid:
        lam = float(lam)
        angle_cf, diff_cf = _family_closed_form(d_a, d_b, lam)
        sigma = _family_sigma(rho, lam)
        angle_mx = angular_distance(rho, sigma)
        diff_mx = abs(entropy_rho - conditional_entropy(sigma, d_a, d_b))
        bound = u * angle_cf
        rows.append(
            (lam, angle_cf, angle_mx, diff_cf, diff_mx, bound,
             int(diff_cf - bound > VIOLATION_TOL))
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
            def excess(grid: np.ndarray) -> np.ndarray:
                return np.array([diff - u * angle for angle, diff in
                                 (_family_closed_form(d_a, d_b, float(l)) for l in grid)])

            # Grid points with a violation; a coarse grid with any is replaced
            # by the refined grid around them.
            grid = base_grid
            gaps = excess(grid)
            hits = grid[gaps > VIOLATION_TOL]
            if hits.size:
                lo = max(0.0, float(hits.min()) - lambda_step)
                hi = min(1.0, float(hits.max()) + lambda_step)
                grid = np.clip(np.arange(lo, hi + 0.0005, 0.001), 0.0, 1.0)
                gaps = excess(grid)
                hits = grid[gaps > VIOLATION_TOL]
            best = int(np.argmax(gaps))
            span = (float(hits.min()), float(hits.max())) if hits.size else (-1.0, -1.0)
            rows.append((d_a, d_b, float(grid[best]), float(gaps[best])) + span)
    return (
        ["d_a", "d_b", "lambda_star", "max_violation", "lambda_lo", "lambda_hi"],
        rows,
    )


def bounds_compare(d_a: int, lambda_step: float) -> Table:
    """Trace-distance bounds next to the converted angular-distance bound.

    The trace distance runs over the grid of step ``lambda_step``.  The
    dominance columns record the small-T comparison constant
    ln(d_A - 1) + 2 against u(d_A); dominance_holds is simply the truth of
    that inequality for this d_A.  d_A must be at least 2: neither
    ``ln(d_A - 1)`` nor the Audenaert bound is defined at d_A = 1.
    """
    u = lipschitz_u(check_dimension(d_a, 2))
    lhs = math.log(d_a - 1) + 2.0
    rows = []
    for t in _lambda_grid(lambda_step):
        t = float(t)
        rows.append(
            (
                t,
                audenaert_bound(t, d_a),
                winter_bound(t, d_a),
                convert_bounds(t, d_a),
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
