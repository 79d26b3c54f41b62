"""Random state generators: simplex points, Haar unitaries, QC state pairs,
and classical pairs pinned to an exact angular distance."""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRangeError, RejectionBudgetExhaustedError
from .linalg import SpectralDecomposition, frozen, symmetrized
from .states import (
    ClassicalDist,
    DensityOperator,
    QCState,
    check_dimension,
    check_real,
    is_integer,
    trusted_classical,
)

__all__ = [
    "RngHandle", "sample_simplex", "sample_haar_unitary", "sample_density",
    "sample_qc_pair", "sample_classical_pair_at_angle",
]

_TWO64 = 2**64
# Resample threshold for a direction that is numerically parallel to r.
_DEGENERATE_TOL = 1e-12
# Consecutive rejections after which the angle sampler gives up.
MAX_REJECTS = 1000


class RngHandle:
    """Seeded random stream; identical seeds reproduce identical draws.

    Handles are single-owner: share seeds, not handles, across workers.
    ``stream(i)`` derives an independent child reseeded at
    ``(seed + i) mod 2**64`` — the documented split rule, so experiment output
    does not depend on how work is divided among threads.  The seed is an
    integer in [0, 2**64), and the stream index any integer; floats, bools
    and strings are rejected for both, as they are for dimensions.
    """

    def __init__(self, seed: int):
        if not is_integer(seed) or not 0 <= seed < _TWO64:
            raise OutOfRangeError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self.seed = int(seed)
        self.generator = np.random.default_rng(self.seed)

    def stream(self, index: int) -> "RngHandle":
        if not is_integer(index):
            raise OutOfRangeError(f"stream index must be an integer, got {index!r}")
        return RngHandle((self.seed + int(index)) % _TWO64)


def sample_simplex(rng: RngHandle, n: int) -> ClassicalDist:
    """Uniform point on the standard (n-1)-simplex.

    Normalized unit-rate exponentials, the standard exact construction
    (equivalently a flat Dirichlet).
    """
    return _simplex(rng, check_dimension(n))


def sample_haar_unitary(rng: RngHandle, d: int) -> np.ndarray:
    """Haar-uniform d x d unitary.

    QR of a complex Ginibre matrix, with the phases fixed so the triangular
    factor has a real positive diagonal — without that correction the
    distribution is not invariant.
    """
    return _haar_unitary(rng, check_dimension(d))


def sample_density(rng: RngHandle, d: int) -> DensityOperator:
    """Random density operator: simplex eigenvalues in a Haar-random eigenbasis.

    The stored spectrum is that eigensystem, sorted ascending, not a new
    eigendecomposition of the matrix.
    """
    return _density(rng, check_dimension(d))


def sample_qc_pair(rng: RngHandle, d_a: int, d_b: int) -> tuple[QCState, QCState]:
    """Two independent random QC states sharing the classical basis.

    Each state draws simplex block weights, and per block a conditional
    density with simplex eigenvalues conjugated by an independent Haar
    unitary.
    """
    d_a, d_b = check_dimension(d_a), check_dimension(d_b)
    return _sample_qc_state(rng, d_a, d_b), _sample_qc_state(rng, d_a, d_b)


def check_sampler_angle(angle: float) -> float:
    """The one check of an angle for ``sample_classical_pair_at_angle``: in (0, pi/2)."""
    return check_real(angle, 0.0, math.pi / 2, "angle", "()")


def sample_classical_pair_at_angle(
    rng: RngHandle, d: int, angle: float, max_rejects: int = MAX_REJECTS
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
    angle = check_sampler_angle(angle)
    max_rejects = check_dimension(max_rejects, 1, "max_rejects")
    p, q = _classical_pair_at_angle(rng, d, angle, max_rejects)
    return trusted_classical(p), trusted_classical(q)


# -- the samplers' bodies, for dimensions already checked ---------------------


def _simplex(rng: RngHandle, n: int) -> ClassicalDist:
    while True:
        g = rng.generator.standard_exponential(n)
        total = g.sum()
        if total > 0.0:
            return trusted_classical(g / total)


def _haar_unitary(rng: RngHandle, d: int) -> np.ndarray:
    gen = rng.generator
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return frozen(q * (diag / np.abs(diag)))


def _density(rng: RngHandle, d: int) -> DensityOperator:
    # No eigensolve: the simplex clamp keeps the eigenvalues >= 0 with unit
    # sum, and the sort gives the ascending order SpectralDecomposition needs.
    evals = _simplex(rng, d).probs
    u = _haar_unitary(rng, d)
    order = np.argsort(evals)
    return DensityOperator(
        symmetrized((u * evals) @ u.conj().T),
        SpectralDecomposition(frozen(evals[order]), frozen(u[:, order])),
    )


def _sample_qc_state(rng: RngHandle, d_a: int, d_b: int) -> QCState:
    weights = _simplex(rng, d_b).probs
    return QCState(tuple((float(w), _density(rng, d_a)) for w in weights))


def _classical_pair_at_angle(
    rng: RngHandle, d: int, angle: float, max_rejects: int
) -> tuple[np.ndarray, np.ndarray]:
    """The squared vectors ``r*r`` and ``s*s`` of one pair, for checked arguments.

    The draw, rotate and reject loop of ``sample_classical_pair_at_angle``.
    Each norm is ``sqrt(x @ x)``, bit for bit what ``np.linalg.norm``
    computes for a real 1-D array.
    """
    gen = rng.generator
    cos, sin = np.cos(angle), np.sin(angle)
    for _ in range(max_rejects):
        r = gen.standard_normal(d)
        r = np.abs(r / math.sqrt(r @ r))
        while True:
            direction = gen.standard_normal(d)
            direction /= math.sqrt(direction @ direction)
            t = direction - (direction @ r) * r
            norm = math.sqrt(t @ t)
            if norm > _DEGENERATE_TOL:
                break
        s = cos * r + sin * (t / norm)
        if s.min() >= 0.0:
            return r * r, s * s
    raise RejectionBudgetExhaustedError(
        f"{max_rejects} consecutive rejections at angle {angle}, d={d}"
    )
