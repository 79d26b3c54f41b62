"""Random state generators: simplex points, Haar unitaries, QC state pairs,
and classical pairs pinned to an exact angular distance."""

from __future__ import annotations

import numpy as np

from .errors import OutOfRangeError, RejectionBudgetExhaustedError
from .linalg import frozen
from .states import (
    ClassicalDist,
    DensityOperator,
    QCState,
    check_dimension,
    trusted_classical,
    trusted_density,
)

__all__ = [
    "RngHandle", "sample_simplex", "sample_haar_unitary", "sample_density",
    "sample_qc_pair", "sample_classical_pair_at_angle",
]

_TWO64 = 2**64
# Resample threshold for a direction that is numerically parallel to r.
_DEGENERATE_TOL = 1e-12


class RngHandle:
    """Seeded random stream; identical seeds reproduce identical draws.

    Handles are single-owner: share seeds, not handles, across workers.
    ``stream(i)`` derives an independent child reseeded at
    ``(seed + i) mod 2**64`` — the documented split rule, so experiment output
    does not depend on how work is divided among threads.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < _TWO64:
            raise OutOfRangeError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.generator = np.random.default_rng(seed)

    def stream(self, index: int) -> "RngHandle":
        return RngHandle((self.seed + int(index)) % _TWO64)


def sample_simplex(rng: RngHandle, n: int) -> ClassicalDist:
    """Uniform point on the standard (n-1)-simplex.

    Normalized unit-rate exponentials, the standard exact construction
    (equivalently a flat Dirichlet).
    """
    n = check_dimension(n)
    while True:
        g = rng.generator.standard_exponential(n)
        total = g.sum()
        if total > 0.0:
            return trusted_classical(g / total)


def sample_haar_unitary(rng: RngHandle, d: int) -> np.ndarray:
    """Haar-uniform d x d unitary.

    QR of a complex Ginibre matrix, with the phases fixed so the triangular
    factor has a real positive diagonal — without that correction the
    distribution is not invariant.
    """
    d = check_dimension(d)
    gen = rng.generator
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return frozen(q * (diag / np.abs(diag)))


def sample_density(rng: RngHandle, d: int) -> DensityOperator:
    """Random density operator: simplex eigenvalues in a Haar-random eigenbasis."""
    evals = sample_simplex(rng, d).probs
    u = sample_haar_unitary(rng, d)
    return trusted_density((u * evals) @ u.conj().T)


def _sample_qc_state(rng: RngHandle, d_a: int, d_b: int) -> QCState:
    weights = sample_simplex(rng, d_b).probs
    return QCState(tuple((float(w), sample_density(rng, d_a)) for w in weights))


def sample_qc_pair(rng: RngHandle, d_a: int, d_b: int) -> tuple[QCState, QCState]:
    """Two independent random QC states sharing the classical basis.

    Each state draws simplex block weights, and per block a conditional
    density with simplex eigenvalues conjugated by an independent Haar
    unitary.
    """
    d_a, d_b = check_dimension(d_a), check_dimension(d_b)
    return _sample_qc_state(rng, d_a, d_b), _sample_qc_state(rng, d_a, d_b)


def check_sampler_angle(angle: float) -> None:
    """The one check of an angle for ``sample_classical_pair_at_angle``: in (0, pi/2)."""
    if not 0.0 < angle < np.pi / 2:
        raise OutOfRangeError(f"angle must lie in (0, pi/2), got {angle}")


def sample_classical_pair_at_angle(
    rng: RngHandle, d: int, angle: float, max_rejects: int = 1000
) -> tuple[ClassicalDist, ClassicalDist]:
    """Commuting state pair with angular distance exactly ``angle``.

    Draw a direction r on the positive hyperoctant of the unit sphere, rotate
    it by ``angle`` along the great circle toward an independent random
    direction, and square the coordinates.  The rotation is exact, so the
    square-root vectors satisfy ``r . s = cos(angle)`` to machine precision.
    Draws where the rotated point leaves the positive hyperoctant are
    rejected (rare for small angles); a direction numerically parallel to r
    is resampled internally and never counts as a rejection.
    """
    d = check_dimension(d, 2)
    check_sampler_angle(angle)
    if max_rejects < 1:
        raise OutOfRangeError(f"need max_rejects >= 1, got {max_rejects}")
    gen = rng.generator
    for _ in range(max_rejects):
        r = gen.standard_normal(d)
        r = np.abs(r / np.linalg.norm(r))
        while True:
            direction = gen.standard_normal(d)
            direction /= np.linalg.norm(direction)
            t = direction - (direction @ r) * r
            norm = np.linalg.norm(t)
            if norm > _DEGENERATE_TOL:
                break
        s = np.cos(angle) * r + np.sin(angle) * (t / norm)
        if np.all(s >= 0.0):
            return trusted_classical(r * r), trusted_classical(s * s)
    raise RejectionBudgetExhaustedError(
        f"{max_rejects} consecutive rejections at angle {angle}, d={d}"
    )
