"""Dense complex Hermitian kernel.

Eigendecompositions, matrix square roots, positive/negative parts, the
operator geometric mean ``A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}``,
and the perturbed mean used for near-singular inputs.

All functions are pure.  Every array in the result of an exported function of
the package, dataclass fields and tuple items included, is read-only;
:func:`frozen` is the one place that marks it so, and like ``symmetrized`` it
stays unexported.
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
    OutOfRangeError,
)

__all__ = [
    "SpectralDecomposition", "eig_hermitian", "mat_sqrt", "positive_negative_parts",
    "geometric_mean", "m_operator", "m_operator_perturbed",
]

# Hermiticity residual allowed before rejection, relative to the largest entry.
HERMITICITY_TOL = 1e-10
# Eigenvalues in [-PSD_CLAMP_TOL * max(1, max|w|), 0) are treated as rounding
# noise and clamped to zero; anything below is a genuine negative eigenvalue.
PSD_CLAMP_TOL = 1e-10
# Invertibility requires min eigenvalue > INVERTIBILITY_TOL * max eigenvalue.
INVERTIBILITY_TOL = 1e-12
# Largest entry modulus a matrix may have: up to half the largest float,
# neither m - m† nor (m + m†)/2 can overflow to inf.
MAX_ENTRY = np.finfo(float).max / 2


def frozen(a: np.ndarray) -> np.ndarray:
    """The package's one read-only marker: ``a`` itself, no longer writable.

    Freezes in place, so ``a`` must be an array the caller built, never one
    passed in from outside (``make_measurement`` copies its input first).
    """
    a.setflags(write=False)
    return a


def numeric_array(x, dtype: type) -> np.ndarray:
    """The package's one test of an outside array's entries, then ``x`` as ``dtype``.

    Integer and float entries pass, and complex ones where ``dtype`` is
    ``complex``.  Bools, strings, None, other objects and a ragged nest raise
    ``OutOfRangeError``: ``np.asarray(x, dtype=dtype)`` alone would read
    "0.5" and True as numbers.
    """
    try:
        a = np.asarray(x)
    except ValueError as exc:  # a ragged nest
        raise OutOfRangeError(f"expected an array of numbers: {exc}") from exc
    if a.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        raise OutOfRangeError(f"expected {dtype.__name__} entries, got dtype {a.dtype}")
    return np.asarray(a, dtype=dtype)


def as_hermitian(m) -> np.ndarray:
    """Validate hermiticity and return the symmetrized copy ``(m + m†)/2``.

    The package's one validation boundary, called once per outside argument;
    arrays built inside from validated ones are only symmetrized.
    Symmetrizing absorbs rounding noise from upstream arithmetic; a symmetry
    residual beyond ``HERMITICITY_TOL`` (relative to the largest entry) is a
    genuinely non-Hermitian input and is rejected, as is any NaN or inf, and
    any entry of modulus above ``MAX_ENTRY``, and any entry that
    ``numeric_array`` rejects.
    """
    m = numeric_array(m, complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise NonHermitianError(f"expected a square matrix, got shape {m.shape}")
    # A NaN residual compares false and would pass the test below.
    if not np.isfinite(m).all():
        raise OutOfRangeError("matrix has a NaN or infinite entry")
    largest = float(np.abs(m).max())
    if largest > MAX_ENTRY:
        raise OutOfRangeError(f"matrix entry of modulus {largest:.3e} exceeds {MAX_ENTRY:.3e}")
    m_h = m.conj().T
    residual = float(np.abs(m - m_h).max())
    scale = max(largest, 1.0)
    if residual > HERMITICITY_TOL * scale:
        raise NonHermitianError(
            f"symmetry residual {residual:.3e} exceeds {HERMITICITY_TOL * scale:.3e}"
        )
    return symmetrized(m, m_h)


def symmetrized(m: np.ndarray, m_h: np.ndarray | None = None) -> np.ndarray:
    """The package's one symmetrizer: read-only ``(m + m†)/2`` of a trusted array.

    ``m_h`` is ``m†`` when the caller has formed it already.  The result is
    exactly Hermitian, so symmetrizing it again returns it bit for bit.
    """
    return frozen((m + (m.conj().T if m_h is None else m_h)) / 2.0)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix; eigenvalues ascending, V unitary.

    The order is relied on: :meth:`is_invertible` reads the ends of the
    spectrum, so every builder (``decompose``, the densities' clamped copies,
    the samplers, ``geometric_mean``'s inverse) keeps it ascending.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """``V diag(w) V†``."""
        return self.apply(lambda w: w)

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``V diag(fn(w)) V†`` for a scalar function of the eigenvalues.

        The package's one ``V f(w) V†``.  It broadcasts over leading axes, so
        a stack of eigensystems gives, bit for bit, the matrix of each one.
        """
        v = self.eigenvectors
        return (v * fn(self.eigenvalues)[..., None, :]) @ v.conj().swapaxes(-1, -2)

    def is_invertible(self) -> bool:
        """Min eigenvalue above ``INVERTIBILITY_TOL`` times a positive max.

        Both are read off the ends of the ascending spectrum.
        """
        w = self.eigenvalues
        top = float(w[-1])
        return top > 0.0 and float(w[0]) > INVERTIBILITY_TOL * top


def decompose(h: np.ndarray) -> SpectralDecomposition:
    """Eigensystem of a trusted (validated or package-built) Hermitian matrix.

    The package's one call into LAPACK's ``eigh``; ``h`` is not checked.
    """
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in LAPACK
        raise NoConvergenceError(str(exc)) from exc
    return SpectralDecomposition(frozen(w), frozen(v))


def eig_hermitian(m) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues come back ascending; ties keep the solver's order.
    """
    return decompose(as_hermitian(m))


def clamped_psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues in ``[-PSD_CLAMP_TOL * max(1, max|w|), 0)`` to zero.

    ``w`` must be ascending, as ``eigh`` returns it: the least eigenvalue is
    read as ``w[0]``.

    The window scales with the spectrum like the Hermiticity check in
    ``as_hermitian``, so rounding of a matrix with large entries is not
    mistaken for a negative eigenvalue; for density spectra (``|w| <= 1``) it
    is ``PSD_CLAMP_TOL`` itself.  Anything below the window indicates invalid
    (non-PSD) input rather than rounding, and raises.  The package's one PSD
    clamp: ``states.make_density`` and ``trusted_density``, for the spectrum
    they store, and ``_psd_sqrt`` call it, and nothing downstream of either
    clamps again.
    A sampled density (``sampling._density``) stores its drawn simplex
    eigenvalues, which ``states.trusted_classical`` has clamped, and does not
    call it; nor does the family's sigma (``experiments._family_sigma``),
    whose eigenvalues ``lam/d + (1 - lam) w`` mix rho's clamped ``w``.
    """
    lo = float(w[0])
    if lo < -PSD_CLAMP_TOL:  # the window is never narrower, so valid spectra skip the scale
        window = PSD_CLAMP_TOL * max(1.0, float(np.max(np.abs(w))))
        if lo < -window:
            raise NegativeEigenvalueError(f"eigenvalue {lo:.3e} below -{window:.3g}")
    return frozen(np.maximum(w, 0.0))


def _psd_sqrt(h: np.ndarray) -> np.ndarray:
    return symmetrized(decompose(h).apply(lambda w: np.sqrt(clamped_psd_eigenvalues(w))))


def mat_sqrt(m) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix."""
    return _psd_sqrt(as_hermitian(m))


def positive_negative_parts(m) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a Hermitian ``m`` as ``P - Q`` with ``P, Q ⪰ 0`` and ``PQ = 0``."""
    dec = eig_hermitian(m)
    pos = dec.apply(lambda w: np.where(w > 0.0, w, 0.0))
    neg = dec.apply(lambda w: np.where(w < 0.0, -w, 0.0))
    return frozen(pos), frozen(neg)


def m_from_spectrum(rho: SpectralDecomposition, sigma: np.ndarray) -> np.ndarray:
    """The one congruence-square-root kernel: ``M = rho^{-1} # sigma`` from rho's eigensystem.

    Unchecked: ``rho`` must be invertible and ``sigma`` a trusted Hermitian
    matrix of the same shape.

    Floor: the eigensolve of ``rho^{1/2} sigma rho^{1/2}`` compounds the two
    conditionings, so ``m_operator``'s largest entry error against a 60-digit
    evaluation of this formula on the same float matrices stays below
    ``4 kappa(rho)^{3/2} kappa(sigma)^{1/2} eps max(1, max|M|)``, where kappa
    is the ratio of the largest to the smallest eigenvalue and eps is the
    double-precision machine epsilon.  Measured on random pairs at d = 2..7
    mixed toward I/d at delta = 1e-1..1e-6 (kappa up to about 7e6, errors up
    to 3.5e-4).
    """
    return m_from_product(rho, root_product(rho, sigma))


def root_product(a: SpectralDecomposition, sigma: np.ndarray) -> np.ndarray:
    """The one ``A^{1/2} sigma A^{1/2}``, from ``A``'s stored eigensystem.

    Left unsymmetrized, as formed.  Broadcasts over leading axes like
    :meth:`SpectralDecomposition.apply`, so a stack of eigensystems and
    matrices gives, bit for bit, the product of each pair.  ``a``'s
    eigenvalues must be >= 0.
    """
    root = a.apply(np.sqrt)
    return root @ sigma @ root


def m_from_product(rho: SpectralDecomposition, product: np.ndarray) -> np.ndarray:
    """:func:`m_from_spectrum`'s tail, given ``product = rho^{1/2} sigma rho^{1/2}``.

    ``product`` is taken as formed, unsymmetrized, so a caller that already
    holds it (``fvdg.classify_pair``, from ``metrics``' fidelity solve) gets
    the ``M`` that ``m_from_spectrum`` gives, bit for bit.
    """
    r_inv_half = rho.apply(lambda w: 1.0 / np.sqrt(w))
    mid = _psd_sqrt(symmetrized(product))
    return symmetrized(r_inv_half @ mid @ r_inv_half)


def _hermitian_pair(a, b, what: str) -> tuple[np.ndarray, np.ndarray]:
    a, b = as_hermitian(a), as_hermitian(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"{what}: {a.shape} vs {b.shape}")
    return a, b


def _invertible_spectrum(a: np.ndarray, what: str) -> SpectralDecomposition:
    dec = decompose(a)
    if not dec.is_invertible():
        w = dec.eigenvalues
        raise NotInvertibleError(
            f"{what}: eigenvalue range [{np.min(w):.3e}, {np.max(w):.3e}] "
            f"fails min > {INVERTIBILITY_TOL:.0e} * max"
        )
    return dec


def geometric_mean(a, b) -> np.ndarray:
    """Operator geometric mean ``A # B``.

    ``a`` must be strictly positive definite; ``b`` positive semidefinite.
    For noninvertible ``a`` there is no canonical value here (the naive limit
    is discontinuous); callers with near-singular densities should go through
    :func:`m_operator_perturbed` with an explicit delta instead.
    """
    a, b = _hermitian_pair(a, b, "geometric_mean")
    dec = _invertible_spectrum(a, "geometric_mean")
    # A # B = (A^{-1})^{-1} # B, and A^{-1} is V diag(1/w) V†, reversed so
    # its eigenvalues ascend.
    inverse = SpectralDecomposition(1.0 / dec.eigenvalues[::-1], dec.eigenvectors[:, ::-1])
    return m_from_spectrum(inverse, b)


def m_operator(rho, sigma) -> np.ndarray:
    """``M = rho^{-1} # sigma``, satisfying ``M rho M = sigma``.

    Computed as ``rho^{-1/2} (rho^{1/2} sigma rho^{1/2})^{1/2} rho^{-1/2}``,
    which never forms ``rho^{-1}`` explicitly.
    """
    rho, sigma = _hermitian_pair(rho, sigma, "m_operator")
    return m_from_spectrum(_invertible_spectrum(rho, "m_operator"), sigma)


def perturbed_spectrum(rho, sigma, delta: float) -> tuple[SpectralDecomposition, np.ndarray]:
    """Eigensystem of ``rho_delta`` and the matrix ``sigma_delta`` from trusted inputs."""
    d = rho.shape[0]
    mix = float(delta) * np.eye(d) / d
    dec = decompose((1.0 - delta) * rho + mix)
    if not dec.is_invertible():
        raise InvalidDeltaError(f"delta {delta} is too small for rho_delta to be invertible")
    return dec, (1.0 - delta) * sigma + mix


def m_operator_perturbed(rho, sigma, delta: float) -> np.ndarray:
    """``M_delta = rho_delta^{-1} # sigma_delta`` for density matrices.

    ``rho_delta = (1-delta) rho + delta I/d`` and likewise for sigma, so both
    are invertible for ``delta`` in (0, 1); a delta too small for ``rho_delta``
    to clear the invertibility threshold raises InvalidDeltaError.  No automatic
    ``delta -> 0`` limit is taken: the limit can diverge (orthogonal supports)
    and is not continuous in the inputs, so the caller owns the choice of
    delta grid.
    """
    if not 0.0 < float(delta) < 1.0:
        raise InvalidDeltaError(f"delta must lie in (0, 1), got {delta}")
    rho, sigma = _hermitian_pair(rho, sigma, "m_operator_perturbed")
    return m_from_spectrum(*perturbed_spectrum(rho, sigma, delta))
