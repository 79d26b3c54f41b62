"""Quantum and classical distance measures, and the Fuchs-van de Graaf gaps.

Trace distance ``T = ||rho - sigma||_1 / 2``, root fidelity
``F = ||sqrt(rho) sqrt(sigma)||_1``, and angular distance ``A = arccos F``.
The two are tied by ``1 - F <= T <= sqrt(1 - F^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotOrthonormalError
from .states import ClassicalDist, DensityOperator, make_classical

ORTHONORMALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DistanceTriple:
    """Trace distance, fidelity, and angular distance of one pair."""

    trace_distance: float
    fidelity: float
    angular: float

    def fvdg_gaps(self) -> tuple[float, float]:
        """``(T - (1 - F), sqrt(1 - F^2) - T)``, the Fuchs-van de Graaf slacks."""
        upper = float(np.sqrt(max(0.0, 1.0 - self.fidelity**2)))
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
    residual = float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))))
    if residual > ORTHONORMALITY_TOL:
        raise NotOrthonormalError(f"Gram residual {residual:.3e}")
    b = b.copy()
    b.setflags(write=False)
    return Rank1Measurement(b)


def check_pair(rho: DensityOperator, sigma: DensityOperator) -> None:
    """Raise unless both states act on spaces of one dimension."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} vs {sigma.dim}")


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the sum of absolute eigenvalues of ``rho - sigma``."""
    check_pair(rho, sigma)
    w = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(np.clip(0.5 * np.sum(np.abs(w)), 0.0, 1.0))


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Root fidelity, computed from the spectrum of ``sqrt(rho) sigma sqrt(rho)``.

    That route keeps the result symmetric in the pair to rounding and avoids
    a polar decomposition.  Eigenvalues below a relative floor are clamped to
    zero before the square root: eigensolver noise sits at ~1e-16 and taking
    its square root would otherwise inject ~1e-8 per spurious eigenvalue.
    """
    check_pair(rho, sigma)
    sq = rho.spectrum.apply(lambda w: np.sqrt(np.maximum(w, 0.0)))
    w = np.linalg.eigvalsh(sq @ sigma.matrix @ sq)
    top = max(float(np.max(w)), 0.0)
    w = np.where(w > 1e-14 * top, w, 0.0)
    return float(np.clip(np.sum(np.sqrt(w)), 0.0, 1.0))


def angular_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """``arccos`` of the fidelity; a metric on density operators."""
    return float(np.arccos(fidelity(rho, sigma)))


def distance_triple(rho: DensityOperator, sigma: DensityOperator) -> DistanceTriple:
    """All three measures with the fidelity computed once."""
    f = fidelity(rho, sigma)
    return DistanceTriple(trace_distance(rho, sigma), f, float(np.arccos(f)))


def classical_trace_distance(p: ClassicalDist, q: ClassicalDist) -> float:
    if p.size != q.size:
        raise DimensionMismatchError(f"alphabets {p.size} vs {q.size}")
    return float(np.clip(0.5 * np.sum(np.abs(p.probs - q.probs)), 0.0, 1.0))


def classical_fidelity(p: ClassicalDist, q: ClassicalDist) -> float:
    if p.size != q.size:
        raise DimensionMismatchError(f"alphabets {p.size} vs {q.size}")
    return float(np.clip(np.sum(np.sqrt(p.probs * q.probs)), 0.0, 1.0))


def measure(measurement: Rank1Measurement, rho: DensityOperator) -> ClassicalDist:
    """Outcome distribution ``p(x) = <e_x| rho |e_x>`` of a projective measurement."""
    if measurement.dim != rho.dim:
        raise DimensionMismatchError(f"basis dim {measurement.dim} vs state dim {rho.dim}")
    b = measurement.basis
    p = np.real(np.einsum("ix,ij,jx->x", b.conj(), rho.matrix, b))
    return make_classical(np.maximum(p, 0.0))


def fvdg_residuals(rho: DensityOperator, sigma: DensityOperator) -> tuple[float, float]:
    """Slack in the two Fuchs-van de Graaf inequalities.

    Returns ``(T - (1 - F), sqrt(1 - F^2) - T)``; both are nonnegative up to
    rounding, and a zero marks the corresponding inequality as saturated.
    """
    return distance_triple(rho, sigma).fvdg_gaps()
