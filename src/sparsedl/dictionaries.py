"""Dictionary initializers: separable overcomplete DCT and random."""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConfigError, as_integer

__all__ = ["INIT_KINDS", "initial_dictionary", "overcomplete_dct_dictionary", "random_dictionary"]

# the kinds of starting dictionary that initial_dictionary builds
INIT_KINDS = ("dct", "random")


def overcomplete_dct_dictionary(signal_dim: int, num_atoms: int) -> np.ndarray:
    """Separable overcomplete DCT dictionary for square patches.

    Builds the base matrix ``A[i, k] = cos(pi * i * k / q)`` of shape
    (p, q) with ``p = sqrt(signal_dim)`` and ``q = sqrt(num_atoms)``,
    removes the mean from every column but the first (the constant
    atom), and returns the Kronecker product ``kron(A, A)`` with columns
    scaled to unit l2 norm.  For ``signal_dim == num_atoms == 4`` the
    result is orthonormal.

    Parameters
    ----------
    signal_dim : int
        Patch size n; must be a perfect square.
    num_atoms : int
        Atom count J; must be a perfect square with J >= n.

    Returns
    -------
    ndarray, shape (signal_dim, num_atoms)
    """
    p = math.isqrt(as_integer(signal_dim, "signal_dim", low=1))
    q = math.isqrt(as_integer(num_atoms, "num_atoms", low=1))
    if p * p != signal_dim:
        raise ConfigError(f"signal_dim must be a perfect square, got {signal_dim}")
    if q * q != num_atoms:
        raise ConfigError(f"num_atoms must be a perfect square, got {num_atoms}")
    if num_atoms < signal_dim:
        raise ConfigError(f"need num_atoms >= signal_dim, got {num_atoms} < {signal_dim}")
    i = np.arange(p)[:, None]
    k = np.arange(q)[None, :]
    A = np.cos(np.pi * i * k / q)
    A[:, 1:] -= A[:, 1:].mean(axis=0)
    D = np.kron(A, A)
    norms = np.linalg.norm(D, axis=0)
    if np.any(norms == 0.0):
        raise ConfigError(
            f"degenerate base (p={p}): mean removal produced a zero atom; need signal_dim >= 4"
        )
    return D / norms


def random_dictionary(signal_dim: int, num_atoms: int, seed=0) -> np.ndarray:
    """Dictionary with iid standard normal entries, columns normalized.

    ``seed`` is a non-negative integer.  A zero-norm column (probability
    zero, but possible in principle) is redrawn.
    """
    n = as_integer(signal_dim, "signal_dim", low=1)
    J = as_integer(num_atoms, "num_atoms", low=1)
    rng = np.random.default_rng(as_integer(seed, "seed", low=0))
    D = rng.standard_normal((n, J))
    norms = np.linalg.norm(D, axis=0)
    while np.any(norms == 0.0):
        for j in np.flatnonzero(norms == 0.0):
            D[:, j] = rng.standard_normal(n)
        norms = np.linalg.norm(D, axis=0)
    return D / norms


def initial_dictionary(kind: str, signal_dim: int, num_atoms: int, seed=0) -> np.ndarray:
    """Starting dictionary of the given ``kind``, one of :data:`INIT_KINDS`;
    ``seed`` is checked as for :func:`random_dictionary` whatever the kind."""
    if kind not in INIT_KINDS:
        raise ConfigError(f"unknown init {kind!r}; choose from {INIT_KINDS}")
    if kind == "dct":
        as_integer(seed, "seed", low=0)  # though the DCT reads no seed
        return overcomplete_dct_dictionary(signal_dim, num_atoms)
    return random_dictionary(signal_dim, num_atoms, seed)
