"""Error-constrained orthogonal matching pursuit, as Batch-OMP.

Greedy sparse coding against a fixed dictionary: atoms are selected by
largest absolute correlation with the running residual (ties go to the
lowest index), and selection stops once the squared residual drops to
the error goal or the support hits the atom cap.

Batch-OMP with progressive Cholesky (Rubinstein, Zibulevsky and Elad,
Technion CS-2008-08) never forms a residual.  From ``G = D^T D`` and
``alpha0 = D^T y`` each signal keeps its support ``S``, the Cholesky
factor ``L L^T = G[S, S]``, ``z = L^-1 alpha0[S]``, the coefficients
``x`` (``L^T x = z``) and its squared residual ``rsq``.  Its correlations
are ``corr = alpha0 - G[:, S] x``.  Atom ``p`` adds the row ``w`` (``L w
= G[S, p]``) and ``L_kk = sqrt(G_pp - |w|^2)`` to ``L``, then ``z_k =
corr_p / L_kk`` and ``rsq -= z_k^2``; ``x`` is solved again and ``corr``
formed anew.

Signals are coded ``_BAND`` at a time, all active ones taking a step
together: ``alpha0`` is one GEMM per band, and ``G[:, S] x`` is one
sparse-times-dense product per step (scipy's CSR kernel, which sums each
row over its own entries in stored order) that reads only rows of ``G``,
so the band keeps no per-atom vectors.  Each signal's arithmetic touches
only its own numbers, in a fixed order, so its code does not depend on
which signals share its band; :func:`omp_code` is the one-column call.
A GEMM row depends on its signal alone under two conditions, measured on
OpenBLAS 0.3.31 with AVX-512 kernels at 1 and 2 threads and checked by
the tests: a one-row product goes through GEMV and rounds differently,
so a band with one active signal doubles its row; and atoms past the
last multiple of 8 go through an edge kernel whose rounding depends on
the row count, so the coded dictionary is padded with zero atoms to a
multiple of 8.

Signals are coded against the bitwise-distinct atoms of ``D``, in
first-occurrence order, and each pick is mapped back to that first
index.  Wherever the products round a duplicate like its first
occurrence, its correlations can only tie with it, and ties go to the
lowest index, so dropping it changes no code or status; it saves work
where many atoms coincide, as the learner's atoms parked on ``e1`` do.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from .exceptions import ConfigError, as_integer, as_real_array

__all__ = ["omp_code", "omp_code_matrix", "REACHED_ERROR_GOAL", "REACHED_ATOM_CAP", "DEGENERATE"]

REACHED_ERROR_GOAL = "error_goal"
REACHED_ATOM_CAP = "atom_cap"
DEGENERATE = "degenerate"
# By stop index.  An object array, so that indexing it hands out these three
# strings themselves and a status list holds no string of its own per signal.
_STATUSES = np.array([REACHED_ERROR_GOAL, REACHED_ATOM_CAP, DEGENERATE], dtype=object)

# Relative distance to the current span under which a selected atom counts as singular.
# L_kk^2 = G_pp - |w|^2 comes out within a few ulps of G_pp, so L_kk itself is rounding
# noise below about 3e-8 sqrt(G_pp); a tolerance under that lets rank-deficient
# dictionaries take atoms from the noise.
_SPAN_TOL = 1e-6

# Signals per band; the codes do not depend on it.  It bounds the working set: alpha0,
# corr and |corr| (4 MB each at 256 atoms) and, per active signal, L (k^2 doubles at
# support size k) and S, z and x (k each).
_BAND = 2048


def omp_code(D: np.ndarray, y: np.ndarray, error_goal: float, max_atoms: Optional[int] = None):
    """Sparse-code one signal.

    Parameters
    ----------
    D : ndarray, shape (n, J)
        Dictionary with unit-norm columns.
    y : ndarray, shape (n,)
        Signal to approximate.
    error_goal : float
        Stop once ``||y - D code||_2^2 <= error_goal``.  Nonnegative.
        The running squared residual is trusted to ``(n + max_atoms)``
        ulps of ``||y||^2``; a goal within that is counted as met.
    max_atoms : int, optional
        Support cap; defaults to ``min(n, J)``.

    Returns
    -------
    code : ndarray, shape (J,)
    status : str
        ``"error_goal"`` when the goal was met, ``"atom_cap"`` when the
        cap stopped selection first, ``"degenerate"`` when a selected
        atom lies within ``1e-6`` of its norm of the span of the current
        support (it is dropped and selection stops) or no atom correlated
        with the residual.
    """
    y = np.asarray(y).ravel()
    C, statuses = omp_code_matrix(D, y[:, None], error_goal, max_atoms)
    return C.toarray()[0], statuses[0]


def omp_code_matrix(D: np.ndarray, Y: np.ndarray, error_goal: float, max_atoms: Optional[int] = None):
    """Sparse-code every column of ``Y`` with the same error goal.

    Returns the coefficient matrix as a csc array of shape (N, J) (row i
    holds the code of signal i, matching the learner's convention) plus
    the per-signal stop statuses, a list of N entries that are the three
    module constants themselves (``REACHED_ERROR_GOAL``,
    ``REACHED_ATOM_CAP``, ``DEGENERATE``), not one new string per signal.
    Each row and status equals the :func:`omp_code` call on that column
    alone, bit for bit, so coding the columns in any split gives the same.
    """
    D = as_real_array(D, "dictionary", ndim=2, finite=True)
    Y = as_real_array(Y, "signal matrix", ndim=2, finite=True)
    n, J = D.shape
    if Y.shape[0] != n:
        raise ConfigError(f"signal length {Y.shape[0]} does not match dictionary rows {n}")
    if not (np.isfinite(error_goal) and error_goal >= 0.0):
        raise ConfigError(f"error_goal must be finite and nonnegative, got {error_goal}")
    cap = min(n, J) if max_atoms is None else as_integer(max_atoms, "max_atoms")
    if not 1 <= cap <= min(n, J):
        raise ConfigError(f"max_atoms must lie in [1, {min(n, J)}], got {cap}")

    N = Y.shape[1]
    keep = _distinct_columns(D)
    # The zero atoms that pad the coded dictionary never correlate, so no signal picks one.
    Dk = np.zeros((n, -(-keep.size // 8) * 8))
    Dk[:, : keep.size] = D[:, keep]
    G = Dk.T @ Dk  # symmetric, so G[p] is the column G[:, p]
    stops = np.empty(N, dtype=np.intp)
    sig, atom, coef = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for lo in range(0, N, _BAND):
        s, a, c, stops[lo : lo + _BAND] = _code_band(Dk, G, Y[:, lo : lo + _BAND], error_goal, cap)
        sig.append(lo + s)
        atom.append(keep[a])
        coef.append(c)
    C = sparse.coo_array(
        (np.concatenate(coef), (np.concatenate(sig), np.concatenate(atom))), shape=(N, J)
    ).tocsc()
    return C, _STATUSES[stops].tolist()


def _distinct_columns(D):
    """Indices of the bitwise-distinct columns of ``D``, each at its first occurrence, ascending."""
    Dt = np.ascontiguousarray(D.T)
    rows = Dt.view(np.dtype((np.void, Dt.shape[1] * Dt.itemsize))).ravel()
    return np.sort(np.unique(rows, return_index=True)[1])


def _code_band(D, G, Yb, goal, cap):
    """Code the columns of ``Yb``.

    Returns the band index, atom and coefficient of every nonzero code
    entry, and each signal's index into ``_STATUSES``.
    """
    n, J = D.shape
    B = Yb.shape[1]
    # Signal-major: a band of extract_patches' F-ordered matrix is already
    # C-contiguous here, so only other layouts are copied.
    Yt = np.ascontiguousarray(Yb.T)
    rsq = np.matmul(Yt[:, None, :], Yt[:, :, None])[:, 0, 0]
    # rsq - sum z_k^2 is good to a few ulps of |y|^2 per term, so a goal within that counts
    # as met; otherwise exactly representable signals go on to pick atoms from rounding noise.
    limit = goal + (n + cap) * np.finfo(float).eps * rsq
    floor = _SPAN_TOL * np.sqrt(np.diag(G))
    stop = np.zeros(B, dtype=np.intp)
    sig = np.flatnonzero(rsq > limit)  # the active signals
    A = sig.size
    if A < B:
        Yt, rsq, limit = Yt[sig], rsq[sig], limit[sig]
    alpha0 = ((Yt if A != 1 else np.repeat(Yt, 2, axis=0)) @ D)[:A]
    corr = alpha0
    S, x = np.zeros((A, 0), dtype=np.intp), np.zeros((A, 0))
    L, z = np.zeros((A, 0, 0)), np.zeros((A, 0))
    out = [(sig[:0], S[:0].ravel(), x[:0].ravel())]
    for k in range(cap):
        if A == 0:
            break
        pick = np.abs(corr).argmax(axis=1)
        w = G[S, pick[:, None]]
        for i in range(k):  # L w = G[S, p], a column at a time
            w[:, i] /= L[:, i, i]
            w[:, i + 1 :] -= L[:, i + 1 :, i] * w[:, i, None]
        # add.accumulate sums each row in index order, whatever the row count
        ww = np.add.accumulate(w * w, axis=1)[:, -1] if k else 0.0
        Lkk = np.sqrt(np.maximum(G[pick, pick] - ww, 0.0))
        cp = corr[np.arange(A), pick]
        ok = (cp != 0.0) & (Lkk > floor[pick])
        Lkk[~ok] = 1.0  # the stopped rows stay finite
        zk = np.where(ok, cp / Lkk, 0.0)
        rsq = rsq - zk * zk
        Lprev, xprev = L, x
        L = np.zeros((A, k + 1, k + 1))
        L[:, :k, :k], L[:, k, :k], L[:, k, k] = Lprev, w, Lkk
        S = np.concatenate([S, pick[:, None]], axis=1)
        z = np.concatenate([z, zk[:, None]], axis=1)
        x = z.copy()
        for j in reversed(range(k + 1)):  # L^T x = z
            x[:, j] /= L[:, j, j]
            x[:, :j] -= L[:, j, :j] * x[:, j, None]
        fin = ok & ((rsq <= limit) | (k + 1 == cap))
        stop[sig[~ok]] = 2
        stop[sig[fin & (rsq > limit)]] = 1
        # a degenerate pick is dropped: those signals keep the code of their first k atoms
        out.append((np.repeat(sig[~ok], k), S[~ok, :k].ravel(), xprev[~ok].ravel()))
        out.append((np.repeat(sig[fin], k + 1), S[fin].ravel(), x[fin].ravel()))
        live = ok & ~fin
        if not live.all():
            sig, S, x, L, z = sig[live], S[live], x[live], L[live], z[live]
            alpha0, rsq, limit = alpha0[live], rsq[live], limit[live]
            A = sig.size
        if A:
            indptr = np.arange(0, x.size + 1, k + 1)
            X = sparse.csr_array((x.ravel(), S.ravel(), indptr), shape=(A, J))
            corr = X @ G  # symmetric, so row s of G is its column s
            np.subtract(alpha0, corr, out=corr)
    s, a, c = (np.concatenate(part) for part in zip(*out))
    nz = c != 0.0
    return s[nz], a[nz], c[nz], stop
