"""Shared helpers for the test suite."""

from __future__ import annotations

import sys

import numpy as np

from entrobound import DensityOperator, make_density
from entrobound.sampling import RngHandle, sample_haar_unitary, sample_simplex


def rand_hermitian(rng: RngHandle, d: int, scale: float = 1.0) -> np.ndarray:
    gen = rng.generator
    z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return scale * (z + z.conj().T) / 2.0


def rand_positive_definite(rng: RngHandle, d: int, floor: float = 0.1) -> np.ndarray:
    u = sample_haar_unitary(rng, d)
    evals = floor + rng.generator.uniform(0.0, 2.0, size=d)
    return (u * evals) @ u.conj().T


def rand_invertible_density(rng: RngHandle, d: int, floor: float = 0.02) -> DensityOperator:
    """Random full-rank density: simplex eigenvalues mixed toward I/d.

    The floor keeps conditioning sane so identities that hold exactly for
    invertible pairs are testable at tight tolerances.
    """
    evals = (1.0 - floor) * sample_simplex(rng, d).probs + floor / d
    u = sample_haar_unitary(rng, d)
    return make_density((u * evals) @ u.conj().T)


def rand_pure_density(rng: RngHandle, d: int) -> tuple[DensityOperator, np.ndarray]:
    gen = rng.generator
    v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    v /= np.linalg.norm(v)
    return make_density(np.outer(v, v.conj())), v


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name``, rebound in ``module`` and in every
    package module that holds it, not only in its home."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for holder in [module] + [m for n, m in sys.modules.items() if n.startswith("entrobound")]:
        for attr, value in list(vars(holder).items()):
            if value is original:
                monkeypatch.setattr(holder, attr, counting)
    return calls
