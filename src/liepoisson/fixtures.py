"""Reproducible random fixtures for tests, checks, and demos.

Streams are split by (seed, kind): the kind's index is the spawn key of a
``numpy.random.SeedSequence`` built from the seed, so each kind draws from an
independent PCG64 stream.  The same (seed, kind, n) always returns the same
object, and adding new kinds later cannot disturb existing streams.
``_stream`` builds every seeded stream of the package, the probe draws of
``verify`` and the CLI included, and ``_complex_normal`` is the one draw.
"""

from __future__ import annotations

import numpy as np
# numpy loads numpy.random lazily, on first attribute access; importing it
# here keeps that load (bit generators, hashlib, secrets) in package import
# instead of inside the first run that draws a fixture
import numpy.random

from .operators import hermitian_part
from .toda import TodaState, default_weights

__all__ = ["KINDS", "seeded_random_state"]

KINDS = ("general", "hermitian", "psd", "lower", "toda")


def _stream(seed: int, key: int) -> np.random.Generator:
    """The PCG64 generator of the seed's SeedSequence with spawn key (key,);
    the kinds take keys 0..4, other streams keys far above them."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(ss))


def _complex_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """An n x n matrix of independent standard complex normal entries."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def seeded_random_state(seed: int, kind: str, n: int):
    """A reproducible random state of the requested kind and size.

    * "general"   -- complex matrix, independent standard normal entries.
    * "hermitian" -- the Hermitian part of a general draw.
    * "psd"       -- M M* scaled to unit trace (a density-like state).
    * "lower"     -- the lower triangle of a general draw.
    * "toda"      -- a TodaState: uniform x in [-1, 1], centered normal p,
                     default weights.  Bounded positions keep the bond terms
                     lam_k e^{x_k} of order one, so identities involving
                     powers of the Lax matrix stay near roundoff.

    All kinds but "toda" return an n x n complex matrix.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown fixture kind {kind!r}; choose from {KINDS}")
    rng = _stream(seed, KINDS.index(kind))
    if n < 1:
        raise ValueError("state dimension must be at least 1")
    if kind == "general":
        return _complex_normal(rng, n)
    if kind == "hermitian":
        return hermitian_part(_complex_normal(rng, n))
    if kind == "psd":
        m = _complex_normal(rng, n)
        w = m @ m.conj().T
        return w / np.trace(w).real
    if kind == "lower":
        return np.tril(_complex_normal(rng, n))
    x = rng.uniform(-1.0, 1.0, n - 1)
    p = rng.standard_normal(n)
    p -= p.mean()
    alpha, lam = default_weights(n)
    return TodaState(x, p, alpha, lam)
