"""Dense complex Hermitian kernel.

Eigendecompositions, matrix square roots, positive/negative parts, the
operator geometric mean ``A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}``,
and the perturbed mean used for near-singular inputs.

All functions are pure; returned arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDeltaError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NonHermitianError,
    NotInvertibleError,
)

# Hermiticity residual allowed before rejection, relative to the largest entry.
HERMITICITY_TOL = 1e-10
# Eigenvalues in [-PSD_CLAMP_TOL, 0) are treated as rounding noise and clamped
# to zero; anything below is a genuine negative eigenvalue.
PSD_CLAMP_TOL = 1e-10
# Invertibility requires min eigenvalue > INVERTIBILITY_TOL * max eigenvalue.
INVERTIBILITY_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_hermitian(m) -> np.ndarray:
    """Validate hermiticity and return the symmetrized copy ``(m + m†)/2``.

    Symmetrizing absorbs rounding noise from upstream arithmetic; a symmetry
    residual beyond ``HERMITICITY_TOL`` (relative to the largest entry) is a
    genuinely non-Hermitian input and is rejected.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise NonHermitianError(f"expected a square matrix, got shape {m.shape}")
    residual = float(np.max(np.abs(m - m.conj().T)))
    scale = max(float(np.max(np.abs(m))), 1.0)
    if residual > HERMITICITY_TOL * scale:
        raise NonHermitianError(
            f"symmetry residual {residual:.3e} exceeds {HERMITICITY_TOL * scale:.3e}"
        )
    return _frozen((m + m.conj().T) / 2.0)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix; eigenvalues ascending, V unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def reconstruct(self) -> np.ndarray:
        """``V diag(w) V†``."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``V diag(fn(w)) V†`` for a scalar function of the eigenvalues."""
        v = self.eigenvectors
        return (v * fn(self.eigenvalues)) @ v.conj().T


def eig_hermitian(m) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues come back ascending; ties keep the solver's order.
    """
    h = as_hermitian(m)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in LAPACK
        raise NoConvergenceError(str(exc)) from exc
    return SpectralDecomposition(_frozen(w), _frozen(v))


def clamped_psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues in ``[-PSD_CLAMP_TOL, 0)`` to zero.

    Anything below the clamp window indicates invalid (non-PSD) input rather
    than rounding, and raises.
    """
    lo = float(np.min(w))
    if lo < -PSD_CLAMP_TOL:
        raise NegativeEigenvalueError(f"eigenvalue {lo:.3e} below -{PSD_CLAMP_TOL:.0e}")
    return np.maximum(w, 0.0)


def mat_sqrt(m) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix."""
    dec = eig_hermitian(m)
    w = clamped_psd_eigenvalues(dec.eigenvalues)
    out = dec.eigenvectors * np.sqrt(w) @ dec.eigenvectors.conj().T
    return _frozen((out + out.conj().T) / 2.0)


def positive_negative_parts(m) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a Hermitian ``m`` as ``P - Q`` with ``P, Q ⪰ 0`` and ``PQ = 0``."""
    dec = eig_hermitian(m)
    w, v = dec.eigenvalues, dec.eigenvectors
    pos = v * np.where(w > 0.0, w, 0.0) @ v.conj().T
    neg = v * np.where(w < 0.0, -w, 0.0) @ v.conj().T
    return _frozen(pos), _frozen(neg)


def _require_invertible(w: np.ndarray, what: str) -> None:
    top = float(np.max(w))
    if top <= 0.0 or float(np.min(w)) <= INVERTIBILITY_TOL * top:
        raise NotInvertibleError(
            f"{what}: eigenvalue range [{np.min(w):.3e}, {top:.3e}] "
            f"fails min > {INVERTIBILITY_TOL:.0e} * max"
        )


def geometric_mean(a, b) -> np.ndarray:
    """Operator geometric mean ``A # B``.

    ``a`` must be strictly positive definite; ``b`` positive semidefinite.
    For noninvertible ``a`` there is no canonical value here (the naive limit
    is discontinuous); callers with near-singular densities should go through
    :func:`m_operator_perturbed` with an explicit delta instead.
    """
    dec_a = eig_hermitian(a)
    _require_invertible(dec_a.eigenvalues, "geometric_mean")
    b = as_hermitian(b)
    if b.shape != dec_a.eigenvectors.shape:
        raise DimensionMismatchError(
            f"geometric_mean: {dec_a.eigenvectors.shape} vs {b.shape}"
        )
    a_half = dec_a.apply(np.sqrt)
    a_inv_half = dec_a.apply(lambda w: 1.0 / np.sqrt(w))
    mid = mat_sqrt(a_inv_half @ b @ a_inv_half)
    out = a_half @ mid @ a_half
    return _frozen((out + out.conj().T) / 2.0)


def m_operator(rho, sigma) -> np.ndarray:
    """``M = rho^{-1} # sigma``, satisfying ``M rho M = sigma``.

    Computed as ``rho^{-1/2} (rho^{1/2} sigma rho^{1/2})^{1/2} rho^{-1/2}``,
    which never forms ``rho^{-1}`` explicitly.
    """
    dec = eig_hermitian(rho)
    _require_invertible(dec.eigenvalues, "m_operator")
    sigma = as_hermitian(sigma)
    if sigma.shape != dec.eigenvectors.shape:
        raise DimensionMismatchError(f"m_operator: {dec.eigenvectors.shape} vs {sigma.shape}")
    r_half = dec.apply(np.sqrt)
    r_inv_half = dec.apply(lambda w: 1.0 / np.sqrt(w))
    mid = mat_sqrt(r_half @ sigma @ r_half)
    out = r_inv_half @ mid @ r_inv_half
    return _frozen((out + out.conj().T) / 2.0)


def m_operator_perturbed(rho, sigma, delta: float) -> np.ndarray:
    """``M_delta = rho_delta^{-1} # sigma_delta`` for density matrices.

    ``rho_delta = (1-delta) rho + delta I/d`` and likewise for sigma, so both
    arguments are invertible for any ``delta`` in (0, 1).  No automatic
    ``delta -> 0`` limit is taken: the limit can diverge (orthogonal supports)
    and is not continuous in the inputs, so the caller owns the choice of
    delta grid.
    """
    if not 0.0 < float(delta) < 1.0:
        raise InvalidDeltaError(f"delta must lie in (0, 1), got {delta}")
    rho = as_hermitian(rho)
    sigma = as_hermitian(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"m_operator_perturbed: {rho.shape} vs {sigma.shape}")
    d = rho.shape[0]
    mix = float(delta) * np.eye(d) / d
    return m_operator((1.0 - delta) * rho + mix, (1.0 - delta) * sigma + mix)
