"""Dictionary initializers: separable overcomplete DCT and random."""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConfigError

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
    p = math.isqrt(int(signal_dim))
    q = math.isqrt(int(num_atoms))
    if p < 1 or p * p != signal_dim:
        raise ConfigError(f"signal_dim must be a positive perfect square, got {signal_dim}")
    if q < 1 or q * q != num_atoms:
        raise ConfigError(f"num_atoms must be a positive perfect square, got {num_atoms}")
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

    ``seed`` may be an int or a numpy Generator.  A zero-norm column
    (probability zero, but possible in principle) is redrawn.
    """
    if signal_dim < 1 or num_atoms < 1:
        raise ConfigError(
            f"dictionary dimensions must be positive, got {signal_dim} x {num_atoms}"
        )
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((signal_dim, num_atoms))
    norms = np.linalg.norm(D, axis=0)
    while np.any(norms == 0.0):
        for j in np.flatnonzero(norms == 0.0):
            D[:, j] = rng.standard_normal(signal_dim)
        norms = np.linalg.norm(D, axis=0)
    return D / norms


def initial_dictionary(kind: str, signal_dim: int, num_atoms: int, seed=0) -> np.ndarray:
    """Starting dictionary of the given ``kind``, one of :data:`INIT_KINDS`."""
    if kind not in INIT_KINDS:
        raise ConfigError(f"unknown init {kind!r}; choose from {INIT_KINDS}")
    if kind == "dct":
        return overcomplete_dct_dictionary(signal_dim, num_atoms)
    return random_dictionary(signal_dim, num_atoms, seed)
