"""Random state generators: simplex points, Haar unitaries, QC state pairs,
and classical pairs pinned to an exact angular distance."""

from __future__ import annotations

import numpy as np

from .errors import OutOfRangeError, RejectionBudgetExhaustedError
from .states import (
    ClassicalDist,
    DensityOperator,
    QCState,
    make_classical,
    make_density,
    make_qc_state,
)

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
    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")
    while True:
        g = rng.generator.standard_exponential(n)
        total = g.sum()
        if total > 0.0:
            return make_classical(g / total)


def sample_haar_unitary(rng: RngHandle, d: int) -> np.ndarray:
    """Haar-uniform d x d unitary.

    QR of a complex Ginibre matrix, with the phases fixed so the triangular
    factor has a real positive diagonal — without that correction the
    distribution is not invariant.
    """
    if d < 1:
        raise OutOfRangeError(f"need d >= 1, got {d}")
    gen = rng.generator
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    u = q * (diag / np.abs(diag))
    u.setflags(write=False)
    return u


def sample_density(rng: RngHandle, d: int) -> DensityOperator:
    """Random density operator: simplex eigenvalues in a Haar-random eigenbasis."""
    evals = sample_simplex(rng, d).probs
    u = sample_haar_unitary(rng, d)
    return make_density((u * evals) @ u.conj().T)


def _sample_qc_state(rng: RngHandle, d_a: int, d_b: int) -> QCState:
    weights = sample_simplex(rng, d_b).probs
    return make_qc_state([(w, sample_density(rng, d_a)) for w in weights])


def sample_qc_pair(rng: RngHandle, d_a: int, d_b: int) -> tuple[QCState, QCState]:
    """Two independent random QC states sharing the classical basis.

    Each state draws simplex block weights, and per block a conditional
    density with simplex eigenvalues conjugated by an independent Haar
    unitary.
    """
    if d_a < 1 or d_b < 1:
        raise OutOfRangeError(f"need d_a, d_b >= 1, got ({d_a}, {d_b})")
    return _sample_qc_state(rng, d_a, d_b), _sample_qc_state(rng, d_a, d_b)


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
    if d < 2:
        raise OutOfRangeError(f"need d >= 2, got {d}")
    if not 0.0 < angle < np.pi / 2:
        raise OutOfRangeError(f"angle must lie in (0, pi/2), got {angle}")
    if max_rejects < 1:
        raise OutOfRangeError(f"need max_rejects >= 1, got {max_rejects}")
    gen = rng.generator
    rejects = 0
    while True:
        r = gen.standard_normal(d)
        r = np.abs(r / np.linalg.norm(r))
        tangent = None
        while tangent is None:
            direction = gen.standard_normal(d)
            direction /= np.linalg.norm(direction)
            t = direction - (direction @ r) * r
            norm = np.linalg.norm(t)
            if norm > _DEGENERATE_TOL:
                tangent = t / norm
        s = np.cos(angle) * r + np.sin(angle) * tangent
        if np.all(s >= 0.0):
            return make_classical(r * r), make_classical(s * s)
        rejects += 1
        if rejects >= max_rejects:
            raise RejectionBudgetExhaustedError(
                f"{rejects} consecutive rejections at angle {angle}, d={d}"
            )
