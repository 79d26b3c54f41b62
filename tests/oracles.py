"""High-precision oracles for the test suite, evaluated with mpmath.

Each takes the same float inputs as the route it checks, and works at the
caller's ``mpmath.workdps`` (50 digits in the suite) unless it says
otherwise.  Import them as the tests import ``conftest``:

    from oracles import quantum_fidelity_oracle
"""

from __future__ import annotations

import mpmath
import numpy as np


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
