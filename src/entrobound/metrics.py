"""Quantum and classical distance measures, and the Fuchs-van de Graaf gaps.

Trace distance ``T = ||rho - sigma||_1 / 2``, root fidelity
``F = ||sqrt(rho) sqrt(sigma)||_1``, and angular distance ``A = arccos F``.
The two are tied by ``1 - F <= T <= sqrt(1 - F^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotOrthonormalError
from .linalg import frozen
from .states import ClassicalDist, DensityOperator, trusted_classical

__all__ = [
    "DistanceTriple", "Rank1Measurement", "make_measurement", "trace_distance",
    "fidelity", "angular_distance", "distance_triple", "classical_trace_distance",
    "classical_fidelity", "measure",
]

ORTHONORMALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DistanceTriple:
    """Trace distance, fidelity, and angular distance of one pair."""

    trace_distance: float
    fidelity: float
    angular: float

    def fvdg_gaps(self) -> tuple[float, float]:
        """``(T - (1 - F), sqrt(1 - F^2) - T)``, the Fuchs-van de Graaf slacks."""
        # ``fidelity`` clips F to [0, 1], so the root's argument is >= 0.
        upper = math.sqrt(1.0 - self.fidelity**2)
        return self.trace_distance - (1.0 - self.fidelity), upper - self.trace_distance


@dataclass(frozen=True, eq=False)
class Rank1Measurement:
    """Orthonormal basis viewed as a rank-1 projective measurement.

    ``basis`` holds the measurement vectors as columns.
    """

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])


def make_measurement(vectors) -> Rank1Measurement:
    """Validate basis orthonormality via the Gram-matrix residual."""
    b = np.asarray(vectors, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatchError(f"expected a square basis matrix, got {b.shape}")
    # A NaN or inf entry makes the residual NaN, which `>` would let through;
    # inf times 0 in the product would also raise numpy's invalid-value warning.
    with np.errstate(invalid="ignore"):
        residual = float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))))
    if not residual <= ORTHONORMALITY_TOL:
        raise NotOrthonormalError(f"Gram residual {residual:.3e}")
    return Rank1Measurement(frozen(b.copy()))


def check_pair(rho: DensityOperator, sigma: DensityOperator) -> None:
    """Raise unless both states act on spaces of one dimension."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} vs {sigma.dim}")


def check_classical_pair(p: ClassicalDist, q: ClassicalDist) -> None:
    """Raise unless both distributions share one alphabet size."""
    if p.size != q.size:
        raise DimensionMismatchError(f"alphabets {p.size} vs {q.size}")


def check_basis(measurement: Rank1Measurement, rho: DensityOperator) -> None:
    """Raise unless the measurement acts on the state's space."""
    if measurement.dim != rho.dim:
        raise DimensionMismatchError(f"basis dim {measurement.dim} vs state dim {rho.dim}")


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the sum of absolute eigenvalues of ``rho - sigma``."""
    check_pair(rho, sigma)
    return float(_trace_distance_rows(np.linalg.eigvalsh(rho.matrix - sigma.matrix)))


def _trace_distance_rows(w: np.ndarray) -> np.ndarray:
    # Along the last axis, so a stack of spectra is evaluated at once.
    return np.clip(0.5 * np.sum(np.abs(w), axis=-1), 0.0, 1.0)


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Root fidelity, computed from the spectrum of ``sqrt(rho) sigma sqrt(rho)``.

    That route keeps the result symmetric in the pair to rounding and avoids
    a polar decomposition.  ``rho``'s stored spectrum is already clamped at
    zero.  Eigenvalues of the product below a relative floor are zeroed
    before the square root: eigensolver noise sits at ~1e-16 and taking its
    square root would otherwise inject ~1e-8 per spurious eigenvalue.
    """
    check_pair(rho, sigma)
    sq = rho.spectrum.apply(np.sqrt)
    return float(_fidelity_from_spectrum_rows(np.linalg.eigvalsh(sq @ sigma.matrix @ sq)))


def _fidelity_from_spectrum_rows(w: np.ndarray) -> np.ndarray:
    """Root fidelity from the eigenvalues of ``sqrt(rho) sigma sqrt(rho)``.

    Along the last axis, so a stack of spectra is evaluated at once; each
    row is floored relative to its own top eigenvalue.
    """
    top = np.maximum(np.max(w, axis=-1, keepdims=True), 0.0)
    w = np.where(w > 1e-14 * top, w, 0.0)
    return np.clip(np.sum(np.sqrt(w), axis=-1), 0.0, 1.0)


def angular_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """``arccos`` of the fidelity; a metric on density operators."""
    return float(np.arccos(fidelity(rho, sigma)))


def distance_triple(rho: DensityOperator, sigma: DensityOperator) -> DistanceTriple:
    """All three measures, with F and T from one stacked eigensolve.

    numpy's stacked ``eigvalsh`` gives each matrix the spectrum that a call
    on it alone gives, so F and T equal ``fidelity`` and ``trace_distance``.
    """
    return _triple_and_operands(rho, sigma)[0]


def _triple_and_operands(
    rho: DensityOperator, sigma: DensityOperator
) -> tuple[DistanceTriple, np.ndarray, np.ndarray]:
    """:func:`distance_triple`, and the two matrices it solved.

    They are ``sqrt(rho) sigma sqrt(rho)``, unsymmetrized, and
    ``rho - sigma``, for callers that need them again.
    """
    check_pair(rho, sigma)
    sq = rho.spectrum.apply(np.sqrt)
    operands = np.stack([sq @ sigma.matrix @ sq, rho.matrix - sigma.matrix])
    w = np.linalg.eigvalsh(operands)
    f = float(_fidelity_from_spectrum_rows(w[0]))
    triple = DistanceTriple(float(_trace_distance_rows(w[1])), f, float(np.arccos(f)))
    return triple, operands[0], operands[1]


def classical_trace_distance(p: ClassicalDist, q: ClassicalDist) -> float:
    check_classical_pair(p, q)
    return float(np.clip(0.5 * np.sum(np.abs(p.probs - q.probs)), 0.0, 1.0))


def classical_fidelity(p: ClassicalDist, q: ClassicalDist) -> float:
    check_classical_pair(p, q)
    return float(_classical_fidelity_rows(p.probs, q.probs))


def _classical_fidelity_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Along the last axis, so a stack of pairs is evaluated at once.
    return np.clip(np.sum(np.sqrt(p * q), axis=-1), 0.0, 1.0)


def measure(measurement: Rank1Measurement, rho: DensityOperator) -> ClassicalDist:
    """Outcome distribution ``p(x) = <e_x| rho |e_x>`` of a projective measurement.

    The state and the basis were each validated within their own tolerance,
    so the outcomes are not checked again: they sum to 1 only within the two
    tolerances combined.  Rounding below zero is clamped.
    """
    check_basis(measurement, rho)
    b = measurement.basis
    p = np.real(np.einsum("ix,ij,jx->x", b.conj(), rho.matrix, b))
    return trusted_classical(p)
