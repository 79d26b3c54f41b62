"""Saturation structure of the Fuchs-van de Graaf inequalities.

Which rank-1 projective measurements preserve the trace distance (eigenbases
of ``rho - sigma``) or the fidelity (eigenbases of ``M = rho^{-1} # sigma``,
for invertible pairs), which classical pairs saturate either classical
inequality, and the resulting exact classifier: an invertible pair saturates
the lower inequality iff the states are equal, and the upper one iff
``spec(M) = {c, 1/c}`` with ``M`` commuting with ``rho - sigma``.

Noninvertible pairs are classified by gap residuals only and flagged as such;
no structural verdict is fabricated for them.  The delta-perturbation
diagnostics at the end probe how close a measurement comes to the skewed
eigenvalue condition that fidelity preservation forces in the singular limit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, InvalidDeltaError, NotInvertibleError, OutOfRangeError
from .metrics import (
    DistanceTriple,
    Rank1Measurement,
    _triple_and_operands,
    check_basis,
    check_classical_pair,
    check_pair,
)
from .states import ClassicalDist, DensityOperator

__all__ = [
    "PairClass", "SaturationClass", "SaturationReport", "PerturbationTrace",
    "trace_optimal_measurements", "is_trace_optimal", "fidelity_optimal_measurement",
    "is_fidelity_optimal", "classical_saturation_class", "classify_pair",
    "pure_fidelity_optimal", "perturbation_trace",
]

# Kernel membership: ||P e|| <= KERNEL_TOL * ||P||^{1/2} (scales with the operator).
KERNEL_TOL = 1e-8
# Eigenvector membership residual for fidelity-optimal bases.
EIGENVECTOR_TOL = 1e-8
# Probability comparisons in the classical saturation classes.
CLASSICAL_TOL = 1e-9
# Relative clustering of spec(M) and the c * (1/c) = 1 consistency check.
SPECTRAL_CLUSTER_TOL = 1e-7
COMMUTATOR_TOL = 1e-7
# Matrix-equality threshold for the Equal verdict.
EQUAL_TOL = 1e-10
# Gap threshold for residual-only classification of noninvertible pairs.
RESIDUAL_GAP_TOL = 1e-8
# Terms and phases in the pure-state characterization.
PURE_TERM_TOL = 1e-10
PURE_PHASE_TOL = 1e-4


class PairClass(enum.Enum):
    EQUAL = "Equal"
    LOWER_SATURATED = "LowerSaturated"
    UPPER_SATURATED = "UpperSaturated"
    NEITHER_SATURATED = "NeitherSaturated"


class SaturationClass(enum.Enum):
    C1 = "C1"
    C2 = "C2"
    BOTH = "Both"
    NEITHER = "Neither"


@dataclass(frozen=True, eq=False)
class SaturationReport:
    """Verdict on which inequality a pair saturates, with witnessing data.

    ``upper_gap`` has a floor: for an Equal pair it is ``sqrt(1 - F^2)`` with
    F just below 1, not 0.  Two causes set it.  Rounding in the eigenvalues
    of ``sqrt(rho) rho sqrt(rho)`` costs F about ``eps / lambda_min(rho)``,
    so the gap is noise of size ``sqrt(eps / lambda_min)``: over 300 sampled
    rho at each of d = 2, 3, 4, 6, 8, 12 and 16, on two seeds, it stayed
    below ``2.2 sqrt(eps / lambda_min)``, reached 1.2e-6 and was positive in
    about half the draws.  And an eigenvalue of rho below about
    ``1e-7 lambda_max`` has its square under the fidelity's relative floor,
    so F loses it outright and the gap is about ``sqrt(2 s)`` for the sum s
    of such eigenvalues: 3.2e-4 at ``lambda_min = 5e-8``.  Taking F from
    ``M``'s eigensystem instead moves those eigenvalues' last bits, which the
    root amplifies to about 1e-8.
    """

    pair_class: PairClass
    invertible: bool
    m: np.ndarray | None
    spectrum_of_m: np.ndarray
    commutator_residual: float
    c_value: float | None
    distances: DistanceTriple
    lower_gap: float
    upper_gap: float

    def to_json(self) -> dict:
        return {
            "class": self.pair_class.value,
            "invertible": self.invertible,
            "c": None if self.c_value is None else float(self.c_value),
            "spectrum_m": self.spectrum_of_m.tolist(),
            "commutator_residual": float(self.commutator_residual),
            "lower_gap": float(self.lower_gap),
            "upper_gap": float(self.upper_gap),
        }


@dataclass(frozen=True, eq=False)
class PerturbationTrace:
    """Skewed-eigenvalue diagnostics on a descending delta grid.

    ``mu_values[i, x]`` and ``residuals[i, x]`` hold, for ``deltas[i]`` and
    basis vector x, the ratio ``mu = <e_x| M_d rho_d |e_x> / <e_x| rho_d |e_x>``
    and the residual ``|| sqrt(rho_d) (M_d - |mu| I) e_x ||``; columns with
    ``e_x`` in the kernel of rho are NaN.  Norms of ``M_d`` are reported per
    delta without any convergence claim (the limit may diverge).
    """

    deltas: tuple[float, ...]
    m_delta_norms: tuple[float, ...]
    mu_values: np.ndarray
    residuals: np.ndarray


def trace_optimal_measurements(rho: DensityOperator, sigma: DensityOperator) -> Rank1Measurement:
    """An eigenbasis of ``rho - sigma``; always achieves ``T_c = T``."""
    check_pair(rho, sigma)
    dec = linalg.decompose(rho.matrix - sigma.matrix)
    return Rank1Measurement(dec.eigenvectors)


def is_trace_optimal(
    measurement: Rank1Measurement, rho: DensityOperator, sigma: DensityOperator
) -> bool:
    """True iff every basis vector lies in ``ker P`` or ``ker Q``.

    ``P, Q`` are the positive and negative parts of ``rho - sigma``; this is
    exactly the membership test for the trace-distance-preserving set.
    Membership is ``||P e|| <= KERNEL_TOL * ||P||^{1/2}``, with both norms
    read off one eigendecomposition of ``rho - sigma``.
    """
    check_pair(rho, sigma)
    check_basis(measurement, rho)
    dec = linalg.decompose(rho.matrix - sigma.matrix)
    coeffs = np.abs(dec.eigenvectors.conj().T @ measurement.basis)
    in_kernel = [
        np.linalg.norm(part[:, None] * coeffs, axis=0) <= KERNEL_TOL * np.sqrt(np.max(part))
        for part in (np.maximum(dec.eigenvalues, 0.0), np.maximum(-dec.eigenvalues, 0.0))
    ]
    return bool(np.all(in_kernel[0] | in_kernel[1]))


def _m_of_invertible_pair(rho: DensityOperator, sigma: DensityOperator) -> np.ndarray:
    """``M = rho^{-1} # sigma`` from rho's cached spectrum; no re-validation."""
    if not rho.is_invertible() or not sigma.is_invertible():
        raise NotInvertibleError(
            "both states must be invertible; use the pure-state or perturbation path"
        )
    return linalg.m_from_spectrum(rho.spectrum, sigma.matrix)


def fidelity_optimal_measurement(
    rho: DensityOperator, sigma: DensityOperator
) -> Rank1Measurement:
    """An eigenbasis of ``M = rho^{-1} # sigma``; achieves ``F_c = F``."""
    check_pair(rho, sigma)
    return Rank1Measurement(linalg.decompose(_m_of_invertible_pair(rho, sigma)).eigenvectors)


def is_fidelity_optimal(
    measurement: Rank1Measurement, rho: DensityOperator, sigma: DensityOperator
) -> bool:
    """True iff every basis vector is an eigenvector of ``M`` within tolerance."""
    check_pair(rho, sigma)
    check_basis(measurement, rho)
    m = _m_of_invertible_pair(rho, sigma)
    b = measurement.basis
    mb = m @ b
    rayleigh = np.einsum("ix,ix->x", b.conj(), mb)
    residuals = np.linalg.norm(mb - b * rayleigh, axis=0)
    return bool(np.all(residuals <= EIGENVECTOR_TOL))


def classical_saturation_class(p: ClassicalDist, q: ClassicalDist) -> SaturationClass:
    """Which classical Fuchs-van de Graaf inequalities the pair saturates.

    C1 (lower): pointwise ``p = q`` or one of them vanishes.  C2 (upper):
    equal distributions, disjoint supports, or a common ratio pair
    ``q/p in {b, 1/b}`` for some b in (0, 1).
    """
    check_classical_pair(p, q)
    pa, qa = p.probs, q.probs
    c1 = bool(
        np.all((np.abs(pa - qa) <= CLASSICAL_TOL) | (pa <= CLASSICAL_TOL) | (qa <= CLASSICAL_TOL))
    )
    c2 = _saturates_c2(pa, qa)
    if c1 and c2:
        return SaturationClass.BOTH
    if c1:
        return SaturationClass.C1
    if c2:
        return SaturationClass.C2
    return SaturationClass.NEITHER


def _saturates_c2(pa: np.ndarray, qa: np.ndarray) -> bool:
    if np.all(np.abs(pa - qa) <= CLASSICAL_TOL):
        return True
    if np.all(np.minimum(pa, qa) <= CLASSICAL_TOL):
        return True
    # Remaining branch requires equal supports and ratios in {b, 1/b}.
    p_sup = pa > CLASSICAL_TOL
    q_sup = qa > CLASSICAL_TOL
    if np.any(p_sup != q_sup):
        return False
    ratios = np.sort(qa[p_sup] / pa[p_sup])
    clusters = _cluster_values(ratios, SPECTRAL_CLUSTER_TOL)
    if len(clusters) == 1:
        return abs(clusters[0] - 1.0) <= SPECTRAL_CLUSTER_TOL
    return _reciprocal_pair(clusters) is not None


def _reciprocal_pair(clusters: list[float]) -> float | None:
    """``c`` for two clusters ``c < 1 < 1/c`` (product 1 within tolerance), else None."""
    if len(clusters) == 2:
        lo, hi = clusters
        if lo < 1.0 < hi and abs(lo * hi - 1.0) <= SPECTRAL_CLUSTER_TOL:
            return lo
    return None


def _cluster_values(sorted_values: np.ndarray, rel_tol: float) -> list[float]:
    clusters: list[list[float]] = [[float(sorted_values[0])]]
    for x in sorted_values[1:]:
        x = float(x)
        last = clusters[-1][-1]
        if x - last <= rel_tol * max(abs(x), abs(last), 1.0):
            clusters[-1].append(x)
        else:
            clusters.append([x])
    # A one-value cluster's mean is that value; np.mean costs microseconds.
    return [c[0] if len(c) == 1 else float(np.mean(c)) for c in clusters]


def classify_pair(rho: DensityOperator, sigma: DensityOperator) -> SaturationReport:
    """Classify which Fuchs-van de Graaf inequality a pair saturates.

    Invertible pairs get the exact structural verdict: Equal iff the states
    coincide (which saturates both sides), UpperSaturated iff ``spec(M)``
    clusters to ``{c, 1/c}`` and ``[M, rho - sigma] = 0``.  Noninvertible
    pairs are classified from the gap residuals alone and flagged
    ``invertible=False`` with M omitted.
    """
    triple, product, diff = _triple_and_operands(rho, sigma)
    lower_gap, upper_gap = triple.fvdg_gaps()
    diff_norm = float(np.abs(diff).max())
    invertible = rho.is_invertible() and sigma.is_invertible()

    m, spectrum, residual, c_value = None, linalg.frozen(np.array([])), 0.0, None
    if invertible:
        # F's solve already formed sqrt(rho) sigma sqrt(rho), the root inside M.
        m = linalg.m_from_product(rho.spectrum, product)
        spectrum = linalg.frozen(np.linalg.eigvalsh(m))
        commutator = m @ diff - diff @ m
        scale = float(np.abs(m).max()) * diff_norm
        residual = float(np.abs(commutator).max()) / scale if scale > 0.0 else 0.0

    if diff_norm <= EQUAL_TOL:
        cls = PairClass.EQUAL
    elif invertible:
        # eigvalsh returns the spectrum ascending, as clustering needs.
        c = _reciprocal_pair(_cluster_values(spectrum, SPECTRAL_CLUSTER_TOL))
        if c is not None and residual <= COMMUTATOR_TOL:
            cls = PairClass.UPPER_SATURATED
            c_value = c
        else:
            cls = PairClass.NEITHER_SATURATED
    elif abs(upper_gap) <= RESIDUAL_GAP_TOL:
        cls = PairClass.UPPER_SATURATED
    elif abs(lower_gap) <= RESIDUAL_GAP_TOL:
        cls = PairClass.LOWER_SATURATED
    else:
        cls = PairClass.NEITHER_SATURATED
    return SaturationReport(
        pair_class=cls,
        invertible=invertible,
        m=m,
        spectrum_of_m=spectrum,
        commutator_residual=residual,
        c_value=c_value,
        distances=triple,
        lower_gap=lower_gap,
        upper_gap=upper_gap,
    )


def pure_fidelity_optimal(measurement: Rank1Measurement, rho_vec, sigma_vec) -> bool:
    """Fidelity preservation test for a pure-state pair.

    True iff the nonzero products ``<rho|e_x><e_x|sigma>`` share one complex
    phase, i.e. the triangle inequality in ``F <= F_c`` is tight.  Vanishing
    overlaps are exempt.  For pure states this set is much larger than an
    eigenbasis family: any basis making both vectors' components real and
    nonnegative qualifies.
    """
    rho_vec = _unit_vector(rho_vec)
    sigma_vec = _unit_vector(sigma_vec)
    if measurement.dim != rho_vec.shape[0] or rho_vec.shape != sigma_vec.shape:
        raise DimensionMismatchError(
            f"dims: basis {measurement.dim}, vectors {rho_vec.shape} vs {sigma_vec.shape}"
        )
    overlap_r = measurement.basis.conj().T @ rho_vec
    overlap_s = measurement.basis.conj().T @ sigma_vec
    terms = np.conj(overlap_r) * overlap_s
    mags = np.abs(terms)
    live = mags > PURE_TERM_TOL
    if not np.any(live):
        return True
    total = np.sum(terms[live])
    if abs(total) <= PURE_TERM_TOL:
        return False
    reference = total / abs(total)
    deviations = np.abs(np.angle(terms[live] / mags[live] * np.conj(reference)))
    return bool(np.max(deviations) <= PURE_PHASE_TOL)


def _unit_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-8:
        raise OutOfRangeError(f"expected a unit vector, norm is {norm!r}")
    return v


def perturbation_trace(
    rho: DensityOperator,
    sigma: DensityOperator,
    measurement: Rank1Measurement,
    deltas,
) -> PerturbationTrace:
    """Evaluate the skewed-eigenvalue residuals on a descending delta grid.

    For each delta and each basis vector outside ``ker rho`` this records
    ``mu = <e| M_d rho_d |e> / <e| rho_d |e>`` and the residual
    ``|| sqrt(rho_d) (M_d - |mu| I) |e> ||``.  As ``sigma_d = M_d rho_d M_d``,
    ``M_d rho_d = sqrt(sigma_d) U_d sqrt(rho_d)`` for the polar unitary ``U_d``
    of ``sqrt(rho_d) sqrt(sigma_d)``; ``mu`` is as precise as ``M_d rho_d``, about
    ``eps * cond(rho_d) * max(1, max|M_d|) / <e| rho_d |e>``.  A vanishing
    residual trend is a necessary signature of fidelity-preserving measurements,
    not a sufficient one, so no verdict is attached.  A delta too small for an
    invertible ``rho_d`` raises InvalidDeltaError.
    """
    check_pair(rho, sigma)
    check_basis(measurement, rho)
    deltas = tuple(float(d) for d in deltas)
    if not deltas or any(not 0.0 < d < 1.0 for d in deltas):
        raise InvalidDeltaError(f"deltas must lie in (0, 1), got {deltas}")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise InvalidDeltaError(f"deltas must be strictly descending, got {deltas}")

    basis = measurement.basis
    in_support = np.real(np.einsum("ix,ij,jx->x", basis.conj(), rho.matrix, basis)) > 1e-12
    e = basis[:, in_support]

    mu = np.full((len(deltas), rho.dim), np.nan, dtype=complex)
    residuals = np.full((len(deltas), rho.dim), np.nan)
    norms = []
    for i, delta in enumerate(deltas):
        dec, sigma_d = linalg.perturbed_spectrum(rho.matrix, sigma.matrix, delta)
        m_delta = linalg.m_from_spectrum(dec, sigma_d)
        norms.append(float(np.max(np.abs(np.linalg.eigvalsh(m_delta)))))
        rho_e = dec.reconstruct() @ e
        weights = np.real(np.einsum("ix,ix->x", e.conj(), rho_e))
        mu_d = np.einsum("ix,ix->x", e.conj(), m_delta @ rho_e) / weights
        mu[i, in_support] = mu_d
        residuals[i, in_support] = np.linalg.norm(
            dec.apply(np.sqrt) @ (m_delta @ e - np.abs(mu_d) * e), axis=0
        )
    return PerturbationTrace(
        deltas=deltas,
        m_delta_norms=tuple(norms),
        mu_values=linalg.frozen(mu),
        residuals=linalg.frozen(residuals),
    )
