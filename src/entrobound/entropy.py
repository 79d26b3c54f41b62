"""Entropies and continuity bounds in trace and angular distance.

Everything is in nats.  The central object is the dimension-dependent
Lipschitz constant ``u(d) = 2 sqrt(f(d))`` built from the concave majorant

    f(x) = (2 ln(x0)/x0) (x - 1)   for 1 <= x <= x0,
    f(x) = ln^2 x                  for x >= x0,

where ``x0 ~ 4.922`` is the tangency point solving ``ln x = 2 (1 - 1/x)``.
``u(d_A)`` times the angular distance bounds the conditional-entropy
difference of quantum-classical state pairs; the module also carries the
older trace-distance bounds, the conversion of a trace distance into the
angular bound, and the great-circle machinery behind the angular-distance
bound (the function ``H_c`` on square-root vectors and its exact derivative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, OutOfRangeError
from .linalg import frozen
from .states import (
    ClassicalDist, DensityOperator, SqrtVector, check_dimension, check_real, make_classical,
    partial_trace_A, theta0,
)

__all__ = [
    "LIPSCHITZ", "LipschitzConstants", "PathState",
    "von_neumann_entropy", "conditional_entropy", "binary_entropy", "audenaert_bound",
    "winter_bound", "lipschitz_u", "sekatski_bound", "naive_conditional_bound",
    "qc_continuity_bound", "convert_bounds", "hc_of_vector",
    "classical_conditional_entropy", "great_circle_path", "hc_derivative",
]


@dataclass(frozen=True)
class LipschitzConstants:
    """Tangency point ``x0`` and the slope ``2 ln(x0)/x0`` of the majorant."""

    x0: float
    slope: float

    def majorant(self, x: float) -> float:
        """The piecewise concave upper bound ``f(x)`` for ``ln^2 x`` on x >= 1."""
        x = check_real(x, 1.0, math.inf, "majorant's x", "[)")
        if x <= self.x0:
            return self.slope * (x - 1.0)
        return math.log(x) ** 2


# The root of ln x = 2 (1 - 1/x) on (e, 10), also -2 / W0(-2/e^2), correctly
# rounded from 50 digits: 4.92155363456750509...
_X0 = 4.9215536345675055
LIPSCHITZ = LipschitzConstants(x0=_X0, slope=2.0 * math.log(_X0) / _X0)


def lipschitz_u(d: int) -> float:
    """Lipschitz constant ``u(d) = 2 sqrt(f(d))`` of entropy in angular distance.

    d is an integer >= 1.  Real-valued d is rejected: the derivation's final
    step uses the integrality of the dimension, and ``u(d) = 2 ln d`` exactly
    once d >= 5 > x0.
    """
    return 2.0 * math.sqrt(LIPSCHITZ.majorant(float(check_dimension(d))))


def _entropy_of_probabilities(w: np.ndarray) -> float | np.ndarray:
    """``-sum w ln w`` along the last axis, with 0 ln 0 = 0.

    A 1-D ``w`` gives a float, a stack ``(..., n)`` an array of row entropies,
    each bit for bit the 1-D value of its row.  A zero entry adds an exact
    ``0 ln 1 = 0`` term, so ln 0 is never evaluated.
    """
    # Every caller passes entries >= 0: stored spectra and probabilities are
    # clamped where they are built.
    h = -np.sum(w * np.log(np.where(w > 0.0, w, 1.0)), axis=-1)
    return float(h) if w.ndim == 1 else h


def von_neumann_entropy(rho: DensityOperator) -> float:
    """``-tr(rho ln rho)`` in nats, with the 0 ln 0 = 0 convention."""
    return _entropy_of_probabilities(rho.eigenvalues)


def conditional_entropy(rho: DensityOperator, d_a: int, d_b: int) -> float:
    """``H(A|B) = H(rho_AB) - H(rho_B)`` for a state on ``d_A * d_B``."""
    return von_neumann_entropy(rho) - von_neumann_entropy(partial_trace_A(rho, d_a, d_b))


def binary_entropy(x: float) -> float:
    """``h(x) = -x ln x - (1-x) ln(1-x)`` on [0, 1]."""
    x = check_real(x, 0.0, 1.0, "binary entropy's x")
    return _entropy_of_probabilities(np.array([x, 1.0 - x]))


def audenaert_bound(trace_dist: float, d: int) -> float:
    """Sharpest trace-distance continuity bound for the entropy itself.

    ``T ln(d - 1) + h(T)``; evaluated exactly as written, so at T = 1, d = 2
    the formula value is 0.
    """
    t = _check_trace_distance(trace_dist)
    return t * math.log(check_dimension(d, 2) - 1) + binary_entropy(t)


def winter_bound(trace_dist: float, d_a: int) -> float:
    """Trace-distance continuity bound for conditional entropies.

    ``2 T ln(d_A) + (1 + T) h(T / (1 + T))``; independent of the conditioning
    dimension but with unbounded slope at T = 0.
    """
    t = _check_trace_distance(trace_dist)
    return 2.0 * t * math.log(check_dimension(d_a)) + (1.0 + t) * binary_entropy(t / (1.0 + t))


def _check_trace_distance(trace_dist: float) -> float:
    return check_real(trace_dist, 0.0, 1.0, "trace distance")


def _check_angle(angle: float) -> float:
    return check_real(angle, 0.0, math.pi / 2, "angular distance")


def sekatski_bound(angle: float, d: int) -> float:
    """Angular-distance Lipschitz bound ``u(d) A`` for unconditioned entropies."""
    return lipschitz_u(d) * _check_angle(angle)


def naive_conditional_bound(angle: float, d_a: int, d_b: int) -> float:
    """Triangle-inequality extension ``(u(d_A d_B) + u(d_B)) A``.

    Kept as the comparison baseline: it grows with the conditioning dimension,
    which is exactly what the QC bound avoids.
    """
    u_joint = lipschitz_u(check_dimension(d_a) * check_dimension(d_b))
    return (u_joint + lipschitz_u(d_b)) * _check_angle(angle)


def qc_continuity_bound(angle: float, d_a: int) -> float:
    """``u(d_A) A``: the conditional-entropy bound for quantum-classical pairs."""
    return sekatski_bound(angle, d_a)


def convert_bounds(trace_dist: float, d_a: int) -> float:
    """Conditional-entropy bound ``u(d_A) arccos(1 - T)`` from a trace distance.

    Converts across the Fuchs-van de Graaf inequality ``A <= arccos(1 - T)``.
    """
    t = _check_trace_distance(trace_dist)
    return lipschitz_u(d_a) * float(np.arccos(1.0 - t))


# -- the function H_c on square-root vectors and its derivative ---------------


def _hc_raw(squared: np.ndarray, d_a: int, d_b: int) -> float | np.ndarray:
    """``H_c`` evaluated on squared entries (a joint distribution, k outer).

    Stacked input ``(..., d_A d_B)`` gives one value per row.
    """
    joint = _entropy_of_probabilities(squared)
    blocks = squared.reshape(*squared.shape[:-1], d_b, d_a).sum(axis=-1)
    return joint - _entropy_of_probabilities(blocks)


def hc_of_vector(v: SqrtVector) -> float:
    """Conditional entropy determined by a square-root vector alone.

    Equals ``conditional_entropy(qc_embed(s), d_A, d_B)`` whenever
    ``v = sqrt_vector(s)``.
    """
    return _hc_raw(v.entries * v.entries, v.dim_a, v.dim_b)


def classical_conditional_entropy(p, d_a: int, d_b: int) -> float:
    """``H(A|B)`` of a classical joint distribution over ``d_A * d_B`` (k outer)."""
    probs = (p if isinstance(p, ClassicalDist) else make_classical(p)).probs
    if probs.shape != (check_dimension(d_a) * check_dimension(d_b),):
        raise DimensionMismatchError(f"shape {probs.shape} != ({d_a * d_b},)")
    return _hc_raw(probs, d_a, d_b)


@dataclass(frozen=True, eq=False)
class PathState:
    """Great-circle path between two square-root vectors.

    ``v(theta) = cos(theta) r + sin(theta) s_perp`` runs from ``v(0) = r`` to
    ``v(theta0) = s`` on the unit sphere; ``w = v'`` is its unit tangent.
    Indices where both endpoints vanish are exactly +0 in ``s_perp`` and so in
    ``v(theta)``; ``v^2 > 0`` therefore excludes them from derivative sums.
    """

    r: SqrtVector
    s: SqrtVector
    theta0: float
    s_perp: np.ndarray

    def v(self, theta: float) -> np.ndarray:
        return math.cos(theta) * self.r.entries + math.sin(theta) * self.s_perp

    def w(self, theta: float) -> np.ndarray:
        return -math.sin(theta) * self.r.entries + math.cos(theta) * self.s_perp

    def hc(self, theta: float) -> float:
        vv = self.v(theta)
        return _hc_raw(vv * vv, self.r.dim_a, self.r.dim_b)


def great_circle_path(r: SqrtVector, s: SqrtVector) -> PathState:
    """Construct the great-circle path from ``r`` to ``s``.

    Raises OutOfRange for coinciding endpoints (``r . s = 1``): the path
    degenerates and there is no interior angle to differentiate at.
    """
    angle = theta0(r, s)
    if angle <= 0.0:
        raise OutOfRangeError("endpoints coincide (r . s = 1); no path to differentiate")
    dot = float(r.entries @ s.entries)
    diff = s.entries - dot * r.entries
    return PathState(r=r, s=s, theta0=angle, s_perp=frozen(diff / np.linalg.norm(diff)))


def hc_derivative(path: PathState, theta: float) -> float:
    """Exact derivative of ``H_c`` along the path at an interior angle.

    ``H_c'(theta) = -2 sum v w ln(v^2 / V_k)`` over indices with ``v^2 > 0``,
    where ``V_k`` is the sum of ``v^2`` over block k; the derivative's
    magnitude never exceeds ``u(d_A)``.  An index where both endpoints vanish
    is exactly +0 in ``v`` along the whole path, so it adds nothing to
    ``V_k`` and the ``v^2 > 0`` mask drops it from the sum.
    """
    theta = check_real(theta, 0.0, path.theta0, "theta", "()")
    vv = path.v(theta)
    ww = path.w(theta)
    sq = vv * vv
    block_sums = sq.reshape(path.r.dim_b, path.r.dim_a).sum(axis=1)
    per_entry = np.repeat(block_sums, path.r.dim_a)
    mask = sq > 0.0
    return float(-2.0 * np.sum(vv[mask] * ww[mask] * np.log(sq[mask] / per_entry[mask])))


