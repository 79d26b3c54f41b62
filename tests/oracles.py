"""Oracles for the test suite.

The high-precision ones are evaluated with mpmath.  Each takes the same
float inputs as the route it checks, and works at the caller's
``mpmath.workdps`` (50 digits in the suite) unless it says otherwise.
``reference_pair_at_angle`` is a bit-for-bit reference instead: the
per-pair loop of the angle sampler in plain numpy.  ``reciprocal_pair``
and ``chained_reciprocal_pair`` build state pairs whose ``M`` is known by
construction; ``tools/digests.py`` writes the chained one to a pair file.  Import them as the
tests import ``conftest``:

    from oracles import quantum_fidelity_oracle
"""

from __future__ import annotations

import mpmath
import numpy as np

from entrobound.errors import RejectionBudgetExhaustedError


def mp_matrix(m):
    return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in m])


def mp_embedding(state):
    """The embedding of a QC state at the working precision, from its blocks."""
    d_a, d_b = state.dim_a, state.dim_b
    out = mpmath.zeros(d_a * d_b, d_a * d_b)
    for k, (weight, block) in enumerate(state.blocks):
        for i, row in enumerate(block.matrix):
            for j, z in enumerate(row):
                out[k * d_a + i, k * d_a + j] = mpmath.mpf(weight) * mpmath.mpc(complex(z))
    return out


def _entropy(values):
    return -mpmath.fsum(x * mpmath.log(x) for x in values if x > 0)


def conditional_entropy_oracle(h, d_a, d_b):
    """``H(A|B)`` of an mpmath matrix ``h`` on ``d_A * d_B``, A the inner index."""
    marginal = mpmath.matrix(d_b, d_b)
    for k in range(d_b):
        for l in range(d_b):
            marginal[k, l] = mpmath.fsum(h[k * d_a + j, l * d_a + j] for j in range(d_a))
    return (_entropy(mpmath.eighe(h, eigvals_only=True))
            - _entropy(mpmath.eighe(marginal, eigvals_only=True)))


def quantum_fidelity_oracle(rho, sigma):
    """``sum sqrt(mu)`` over the spectrum of ``sqrt(rho) sigma sqrt(rho)``, in [0, 1]."""
    w, v = mpmath.eighe(rho)
    sq = v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * v.transpose_conj()
    product = sq * sigma * sq
    product = (product + product.transpose_conj()) / 2
    return min(mpmath.fsum(mpmath.sqrt(max(x, 0)) for x in mpmath.eighe(product, eigvals_only=True)), 1)


def family_oracle(d_a, d_b, lam):
    """Angle and |dH| of the family at the working mpmath precision.

    Built from the spectra, not from ``family_closed_form``: rho is the pure
    |psi><psi|, so F = sqrt(<psi|sigma|psi>) and H(A|B)_rho = -ln min(d_A, d_B);
    sigma has <psi|sigma|psi> once and lam/d on the rest, and sigma_B is
    lam/d_B + (1 - lam)/d_m on the d_m levels of rho_B and lam/d_B elsewhere.
    """
    lam = mpmath.mpf(lam)
    d, d_m = d_a * d_b, min(d_a, d_b)
    overlap = 1 - lam + lam / d
    joint = [overlap] + [lam / d] * (d - 1)
    marginal = [lam / d_b + (1 - lam) / d_m] * d_m + [lam / d_b] * (d_b - d_m)
    diff = _entropy(joint) - _entropy(marginal) + mpmath.log(d_m)
    return mpmath.acos(mpmath.sqrt(overlap)), abs(diff)


def entropy_oracle(p, d_a, d_b):
    """``H(A|B)`` of the float entries of ``p`` at the working mpmath precision."""
    exact = [mpmath.mpf(float(x)) for x in p]
    blocks = [mpmath.fsum(exact[k * d_a:(k + 1) * d_a]) for k in range(d_b)]
    return _entropy(exact) - _entropy(blocks)


def classical_fidelity_oracle(p, q):
    exact = mpmath.fsum(mpmath.sqrt(mpmath.mpf(float(a)) * mpmath.mpf(float(b)))
                        for a, b in zip(p, q))
    return min(exact, 1)


def m_oracle(rho, sigma):
    """``rho^{-1/2} (rho^{1/2} sigma rho^{1/2})^{1/2} rho^{-1/2}`` at 60 digits
    on the same float matrices."""
    with mpmath.workdps(60):
        r, s = mp_matrix(rho), mp_matrix(sigma)

        def apply(h, fn):
            w, v = mpmath.eighe(h)
            return v * mpmath.diag([fn(x) for x in w]) * v.transpose_conj()

        product = apply(r, mpmath.sqrt) * s * apply(r, mpmath.sqrt)
        inv_half = apply(r, lambda x: 1 / mpmath.sqrt(x))
        m = inv_half * apply((product + product.transpose_conj()) / 2, mpmath.sqrt) * inv_half
        return np.array(m.tolist(), dtype=complex)


def u_oracle(d: int):
    """``u(d)`` at the working mpmath precision, from its own root ``x0``."""
    x0 = mpmath.findroot(lambda x: mpmath.log(x) - 2 * (1 - 1 / x), 4.9)
    f = 2 * mpmath.log(x0) / x0 * (d - 1) if d <= x0 else mpmath.log(d) ** 2
    return 2 * mpmath.sqrt(f)


def u_star_oracle(d: int):
    """``u*(d)``: the largest ``2 sqrt(Var(-ln p))`` over ``p = (1 - (d-1) t, t, ..., t)``.

    With ``a = 1 - (d-1) t`` the variable ``-ln p`` takes two values, so its
    variance is ``a (1 - a) ln^2(a (d-1) / (1 - a))``.  A float scan over a
    picks the highest of 2001 grid points; the maximiser is the root of the
    derivative between that point's two neighbours, at the working precision.
    """
    def var(a):
        return a * (1 - a) * mpmath.log(a * (d - 1) / (1 - a)) ** 2

    grid = np.linspace(0.0, 1.0, 2003)
    inner = grid[1:-1]
    i = int(np.argmax(inner * (1 - inner) * np.log(inner * (d - 1) / (1 - inner)) ** 2))
    bracket = (mpmath.mpf(grid[i]), mpmath.mpf(grid[i + 2]))
    a_star = mpmath.findroot(lambda a: mpmath.diff(var, a), bracket, solver="illinois")
    return 2 * mpmath.sqrt(var(a_star))


def reciprocal_pair(v, m, rho_in_basis):
    """rho and ``sigma = M rho M`` for ``M = V diag(m) V^dagger``, as matrices.

    rho is ``rho_in_basis`` in V's basis, with its parts on the entries of
    ``m`` below 1 and on the others rescaled so that rho has trace 1 and
    ``tr(M^2 rho) = 1``.  Normalizing sigma afterwards would move M's
    spectrum.
    """
    low = m < 1.0
    diag = np.real(np.diag(rho_in_basis))
    weighted = m * m * diag
    weights = [[diag[low].sum(), diag[~low].sum()], [weighted[low].sum(), weighted[~low].sum()]]
    scale = np.sqrt(np.linalg.solve(weights, [1.0, 1.0]))
    s = np.where(low, scale[0], scale[1])
    rho = v @ (s[:, None] * rho_in_basis * s) @ v.conj().T
    mat = (v * m) @ v.conj().T
    return rho, mat @ rho @ mat


def chained_reciprocal_pair():
    """``m``, rho and sigma of a pair whose ``M`` clusters to ``{c, 1/c}`` only
    through the clustering's slack.

    ``M = diag(1/h, 1/h, h_0, ..., h_3)``, where the ``h_k`` are a chain of
    relative steps 0.9e-7 from 2, each within ``SPECTRAL_CLUSTER_TOL``, and
    ``h`` is their mean.  rho couples the chain's two ends, which puts the
    commutator residual ``[M, rho - sigma]`` at about 2.4e-7, while the upper
    gap is 3.4e-15.
    """
    hi = 2.0 * (1.0 + 0.9e-7 * np.arange(4))
    m = np.concatenate([np.full(2, 1.0 / hi.mean()), hi])
    base = np.diag([0.5, 0.5, 1.0, 0.05, 0.05, 1.0])
    base[2, 5] = base[5, 2] = 0.95
    return (m, *reciprocal_pair(np.eye(6), m, base))


def reference_pair_at_angle(rng, d, angle, max_rejects=1000):
    """``r*r`` and ``s*s`` of ``sample_classical_pair_at_angle``'s draw, rotate
    and reject loop, written with ``np.linalg.norm`` and with ``np.cos`` and
    ``np.sin`` taken per attempt.

    It draws from ``rng.generator`` in the sampler's order, so a sampler whose
    output and generator state match it bit for bit makes the same draws.
    """
    gen = rng.generator
    for _ in range(max_rejects):
        r = gen.standard_normal(d)
        r = np.abs(r / np.linalg.norm(r))
        while True:
            direction = gen.standard_normal(d)
            direction /= np.linalg.norm(direction)
            t = direction - (direction @ r) * r
            norm = np.linalg.norm(t)
            if norm > 1e-12:
                break
        s = np.cos(angle) * r + np.sin(angle) * (t / norm)
        if np.all(s >= 0.0):
            return r * r, s * s
    raise RejectionBudgetExhaustedError(
        f"{max_rejects} consecutive rejections at angle {angle}, d={d}"
    )
