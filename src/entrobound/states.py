"""Density operators, quantum-classical states, and their vector reductions.

A quantum-classical (QC) state is block diagonal over a fixed classical basis
on the B system: ``rho = sum_k alpha_k rho_k (x) |f_k><f_k|``.  All joint
indices use k (the classical index) as the OUTER index and j (the A index) as
the inner one, i.e. position ``k * d_A + j``; partial traces follow the same
convention.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    EntroboundError,
    OutOfRangeError,
    StateFormatError,
    TraceNotOneError,
)

__all__ = [
    "DensityOperator", "QCState", "ClassicalDist", "SqrtVector", "make_density",
    "make_qc_state", "make_classical", "qc_embed", "partial_trace_A", "sqrt_vector",
    "theta0", "is_qc_block_diagonal",
]

TRACE_TOL = 1e-9
WEIGHT_TOL = 1e-12
QC_BLOCK_TOL = 1e-12


def is_integer(x) -> bool:
    """The package's one test of an outside integer: a Python or numpy integer.

    Bools, floats (even integral ones such as 2.0) and strings fail it.
    """
    return not isinstance(x, bool) and isinstance(x, (int, np.integer))


def check_dimension(d, least: int = 1, what: str = "dimension") -> int:
    """The package's one check of an outside dimension or count: an integer >= ``least``.

    ``what`` names the value in the error; ``is_integer`` decides what counts
    as an integer.
    """
    if not is_integer(d) or d < least:
        raise OutOfRangeError(f"{what} must be an integer >= {least}, got {d!r}")
    return int(d)


def is_real(x) -> bool:
    """The package's one test of an outside real: a Python or numpy integer or float.

    Bools, complex numbers, fractions, strings, None and arrays fail it.
    """
    return not isinstance(x, bool) and isinstance(x, (int, float, np.integer, np.floating))


def check_real(x, lo: float, hi: float, what: str, ends: str = "[]") -> float:
    """The package's one check of an outside real: ``x`` in an interval, as a float.

    ``ends`` is "[]", "()", "(]" or "[)", the interval's brackets around
    ``lo`` and ``hi``.  ``is_real`` decides what counts as a real, and ``x``
    is compared before it is converted: NaN fails every interval, inf fails
    one open at infinity, and an int too large for a float fails as well.
    """
    if is_real(x) and (lo < x or x == lo and ends[0] == "[") and (
            x < hi or x == hi and ends[1] == "]"):
        with contextlib.suppress(OverflowError):
            return float(x)
    raise OutOfRangeError(f"{what} must be a real in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {x!r}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Validated Hermitian PSD unit-trace matrix with cached spectral data."""

    matrix: np.ndarray
    spectrum: linalg.SpectralDecomposition

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    def is_invertible(self) -> bool:
        """Min eigenvalue strictly above the relative invertibility threshold."""
        return self.spectrum.is_invertible()


def make_density(m) -> DensityOperator:
    """Validate ``m`` as a density operator (Hermitian, PSD, trace 1)."""
    return _density_of(linalg.as_hermitian(m))


def trusted_density(m) -> DensityOperator:
    """Density operator from a matrix the package built itself.

    Skips the boundary check (shape, NaN/inf, symmetry residual) and only
    symmetrizes.  The PSD clamp and the trace check stay: package arithmetic
    can leave them unmet, e.g. ``qc_embed`` of weights and blocks that each
    pass within ``TRACE_TOL`` can reach a trace of ``1 + 2 TRACE_TOL``.
    """
    return _density_of(linalg.symmetrized(np.asarray(m, dtype=complex)))


def _density_of(h: np.ndarray) -> DensityOperator:
    """Density operator of an exactly Hermitian read-only ``h``.

    The stored spectrum is the clamped one, so every reader of a density's
    eigenvalues sees them >= 0; the trace check sums the unclamped ones.
    ``make_density`` passes ``as_hermitian``'s result straight in: a second
    symmetrization would return it bit for bit.
    """
    dec = linalg.decompose(h)
    w = linalg.clamped_psd_eigenvalues(dec.eigenvalues)
    trace = float(np.sum(dec.eigenvalues))
    # `as_hermitian` rejects entries large enough to overflow when
    # symmetrized; a NaN trace would still fail here, where `>` would pass it.
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise TraceNotOneError(f"trace {trace!r} differs from 1 beyond {TRACE_TOL:.0e}")
    return DensityOperator(h, linalg.SpectralDecomposition(w, dec.eigenvectors))


@dataclass(frozen=True, eq=False)
class QCState:
    """QC bipartite state as (weight, conditional density) blocks."""

    blocks: tuple[tuple[float, DensityOperator], ...]

    @property
    def dim_b(self) -> int:
        return len(self.blocks)

    @property
    def dim_a(self) -> int:
        return self.blocks[0][1].dim

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.blocks])


def make_qc_state(blocks) -> QCState:
    """Validate conditional dimensions, and the block weights with ``make_classical``.

    So the weights are a probability vector, and those within ``WEIGHT_TOL``
    below zero are stored as 0.
    """
    blocks = tuple(blocks)
    if not blocks:
        raise DimensionMismatchError("QC state needs at least one block")
    d_a = blocks[0][1].dim
    for _, rho in blocks:
        if rho.dim != d_a:
            raise DimensionMismatchError(f"conditional dims differ: {rho.dim} vs {d_a}")
    weights = make_classical([w for w, _ in blocks]).probs.tolist()
    return QCState(tuple((w, rho) for w, (_, rho) in zip(weights, blocks)))


@dataclass(frozen=True, eq=False)
class ClassicalDist:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    @property
    def size(self) -> int:
        return int(self.probs.shape[0])


def make_classical(p) -> ClassicalDist:
    """Validate ``p`` as a probability vector (finite, nonnegative, sum 1).

    Its entries pass ``linalg.numeric_array``: integers and floats only.
    """
    p = linalg.numeric_array(p, float)
    if p.ndim != 1 or p.size < 1:
        raise DimensionMismatchError(f"expected a probability vector, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise OutOfRangeError("probability vector has a NaN or infinite entry")
    if float(p.min()) < -WEIGHT_TOL:
        raise OutOfRangeError(f"negative probability {float(p.min())!r}")
    if abs(float(p.sum()) - 1.0) > TRACE_TOL:
        raise TraceNotOneError(f"probabilities sum to {float(p.sum())!r}")
    return trusted_classical(p)


def trusted_classical(p: np.ndarray) -> ClassicalDist:
    """Probability vector from a float array the package built itself.

    Unchecked; entries within rounding below zero are clamped to zero.
    """
    return ClassicalDist(linalg.frozen(np.maximum(p, 0.0)))


@dataclass(frozen=True, eq=False)
class SqrtVector:
    """Square-root eigenvalue vector of a QC state, k outer, j inner.

    Entries are ``sqrt(alpha_k p_{jk})`` with the eigenvalues of each block
    sorted descending, which is the ordering under which the dot product of
    two such vectors upper-bounds the fidelity of the embedded states:
    ``r . s >= F``, so ``theta0(r, s) <= A``.
    """

    entries: np.ndarray
    dim_a: int
    dim_b: int


def qc_embed(state: QCState) -> DensityOperator:
    """Embed a QC state as a block-diagonal density operator on ``d_A * d_B``."""
    d_a, d_b = state.dim_a, state.dim_b
    out = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for k, (w, rho) in enumerate(state.blocks):
        sl = slice(k * d_a, (k + 1) * d_a)
        out[sl, sl] = w * rho.matrix
    return trusted_density(out)


def _check_split(rho: DensityOperator, d_a: int, d_b: int) -> tuple[int, int]:
    """``check_dimension``'s ``(d_A, d_B)``, after checking that they split rho's dimension."""
    d_a, d_b = check_dimension(d_a), check_dimension(d_b)
    if rho.dim != d_a * d_b:
        raise DimensionMismatchError(f"dim {rho.dim} != {d_a} * {d_b}")
    return d_a, d_b


def partial_trace_A(rho: DensityOperator, d_a: int, d_b: int) -> DensityOperator:
    """Trace out the A system (inner index), leaving a ``d_B`` density operator."""
    _check_split(rho, d_a, d_b)
    blocks = rho.matrix.reshape(d_b, d_a, d_b, d_a)
    return trusted_density(np.einsum("kjlj->kl", blocks))


def sqrt_vector(state: QCState) -> SqrtVector:
    """Square-root vector of a QC state (per-block descending eigenvalues)."""
    d_a, d_b = state.dim_a, state.dim_b
    entries = np.empty(d_a * d_b)
    for k, (w, rho) in enumerate(state.blocks):
        entries[k * d_a : (k + 1) * d_a] = np.sqrt(w * rho.eigenvalues[::-1])
    return SqrtVector(linalg.frozen(entries), d_a, d_b)


def is_qc_block_diagonal(rho: DensityOperator, d_a: int, d_b: int) -> bool:
    """Exact-structure check: block diagonal over the given classical basis.

    This is deliberately not a basis search; a state counts as QC here only
    with respect to the fixed computational classical basis.
    """
    _check_split(rho, d_a, d_b)
    blocks = rho.matrix.reshape(d_b, d_a, d_b, d_a)
    off = blocks.copy()
    for k in range(d_b):
        off[k, :, k, :] = 0.0
    return bool(np.max(np.abs(off)) <= QC_BLOCK_TOL)


def theta0(r: SqrtVector, s: SqrtVector) -> float:
    """Angle ``arccos(r . s)`` between square-root vectors.

    Lower-bounds the angular distance of the embedded states.  The dot
    product is clamped to [0, 1] so float overshoot cannot produce NaN.
    """
    if (r.dim_a, r.dim_b) != (s.dim_a, s.dim_b):
        raise DimensionMismatchError(
            f"block structure {(r.dim_a, r.dim_b)} vs {(s.dim_a, s.dim_b)}"
        )
    dot = float(np.clip(r.entries @ s.entries, 0.0, 1.0))
    return float(np.arccos(dot))


# -- JSON state format --------------------------------------------------------
#
# {"dim_a": int, "dim_b": int, "kind": "qc" | "dense",
#  "blocks": [{"weight": w, "matrix": [[[re, im], ...], ...]}, ...],   (qc)
#  "matrix": [[[re, im], ...], ...]}                                    (dense)


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def _json_number(x, what: str):
    """``x`` if it is a JSON number (int or float, not bool), else ``StateFormatError``."""
    if type(x) not in (int, float):
        raise StateFormatError(f"{what} must be a JSON number, got {x!r}")
    return x


def _matrix_from_json(obj, what: str) -> np.ndarray:
    # One walk flattens the nest, stopping short at the first row or entry of
    # the wrong length, so only a (d, d, 2) nest gives 2 d^2 numbers.  The cast
    # runs first: it rejects "x" as malformed, and takes "0.5", bools and null,
    # which are not JSON numbers.
    try:
        d = len(obj)
        flat = []
        for row in obj:
            if len(row) != d:
                break
            for entry in row:
                if len(entry) != 2:
                    break
                flat += entry
        arr = np.array(flat, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StateFormatError(f"{what}: malformed complex matrix") from exc
    if not d or arr.shape != (2 * d * d,):
        raise StateFormatError(f"{what}: expected shape (d, d, 2) with d >= 1")
    if not {type(x) for x in flat} <= {int, float}:
        _json_number(next(x for x in flat if type(x) not in (int, float)), f"{what} entry")
    return arr.view(complex).reshape(d, d)


def qc_state_to_json(state: QCState) -> dict:
    return {
        "dim_a": state.dim_a,
        "dim_b": state.dim_b,
        "kind": "qc",
        "blocks": [
            {"weight": float(w), "matrix": _matrix_to_json(rho.matrix)}
            for w, rho in state.blocks
        ],
    }


def dense_state_to_json(rho: DensityOperator, d_a: int, d_b: int) -> dict:
    d_a, d_b = _check_split(rho, d_a, d_b)
    return {"dim_a": d_a, "dim_b": d_b, "kind": "dense", "matrix": _matrix_to_json(rho.matrix)}


def state_from_json(obj) -> tuple[DensityOperator, int, int]:
    """Parse a state object, returning the (embedded) density and its split."""
    if not isinstance(obj, dict):
        raise StateFormatError(f"state must be an object, got {type(obj).__name__}")
    try:
        d_a = check_dimension(obj["dim_a"])
        d_b = check_dimension(obj["dim_b"])
        kind = obj["kind"]
    except (KeyError, OutOfRangeError) as exc:
        raise StateFormatError(f"missing or malformed header field: {exc}") from exc
    try:
        if kind == "qc":
            blocks = [
                (float(_json_number(b["weight"], "block weight")),
                 make_density(_matrix_from_json(b["matrix"], "block")))
                for b in obj["blocks"]
            ]
            state = make_qc_state(blocks)
            if (state.dim_a, state.dim_b) != (d_a, d_b):
                raise StateFormatError(
                    f"blocks give dims ({state.dim_a}, {state.dim_b}), header says ({d_a}, {d_b})"
                )
            return qc_embed(state), d_a, d_b
        if kind == "dense":
            rho = make_density(_matrix_from_json(obj["matrix"], "matrix"))
            if rho.dim != d_a * d_b:
                raise StateFormatError(f"matrix dim {rho.dim} != {d_a} * {d_b}")
            return rho, d_a, d_b
    except StateFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StateFormatError(f"malformed {kind!r} state: {exc}") from exc
    except EntroboundError as exc:  # validation errors from make_density etc.
        raise StateFormatError(f"invalid {kind!r} state: {exc}") from exc
    raise StateFormatError(f"unknown state kind {kind!r}")


def load_state_pair(path: str) -> tuple[DensityOperator, DensityOperator, int, int]:
    """Read a ``{"rho": ..., "sigma": ...}`` pair file.

    A file that is not UTF-8, not JSON, or nested too deep for the decoder
    raises ``StateFormatError``; a file that cannot be opened or read raises
    ``OSError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise StateFormatError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict) or "rho" not in obj or "sigma" not in obj:
        raise StateFormatError(f"{path}: expected an object with 'rho' and 'sigma'")
    rho, da1, db1 = state_from_json(obj["rho"])
    sigma, da2, db2 = state_from_json(obj["sigma"])
    if (da1, db1) != (da2, db2):
        raise StateFormatError(f"{path}: rho is ({da1}, {db1}) but sigma is ({da2}, {db2})")
    return rho, sigma, da1, db1
