"""Error-constrained orthogonal matching pursuit, as Batch-OMP.

Greedy sparse coding against a fixed dictionary: atoms are selected by
largest absolute correlation with the running residual (ties go to the
lowest index), and selection stops once the squared residual drops to
the error goal or the support hits the atom cap.

Batch-OMP with progressive Cholesky (Rubinstein, Zibulevsky and Elad,
Technion CS-2008-08) never forms a residual.  From ``G = D^T D`` and
``alpha0 = D^T y`` each signal keeps its correlations ``corr``, the
vectors ``u_i = (G[:, S] L^-T)[:, i]`` (``L L^T = G[S, S]``), ``z = L^-1
alpha0[S]`` and its squared residual ``rsq``.  Atom ``p`` adds the row
``w = [u_i[p]]`` to ``L``, with ``L_kk = sqrt(G_pp - |w|^2)``, then
``z_k = (alpha0_p - w.z) / L_kk``, ``u_k = (G[:, p] - sum u_i w_i) / L_kk``,
``corr -= u_k z_k`` and ``rsq -= z_k^2``.  The coefficients solve
``L^T x = z``.

Signals are coded ``_BAND`` at a time, all active ones taking a step
together.  Each signal's arithmetic touches only its own numbers, in a
fixed order, so its code does not depend on which signals share its
band; :func:`omp_code` is the one-column call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from .exceptions import ConfigError

__all__ = ["omp_code", "omp_code_matrix", "REACHED_ERROR_GOAL", "REACHED_ATOM_CAP", "DEGENERATE"]

REACHED_ERROR_GOAL = "error_goal"
REACHED_ATOM_CAP = "atom_cap"
DEGENERATE = "degenerate"
_STATUSES = np.array([REACHED_ERROR_GOAL, REACHED_ATOM_CAP, DEGENERATE])  # by stop index

# Relative distance to the current span under which a selected atom counts as singular.
# L_kk^2 = G_pp - |w|^2 comes out within a few ulps of G_pp, so L_kk itself is rounding
# noise below about 3e-8 sqrt(G_pp); a tolerance under that lets rank-deficient
# dictionaries take atoms from the noise.
_SPAN_TOL = 1e-6

# Signals per band.  It bounds the working set (the u_i take 4 MB per step at J=256);
# the codes do not depend on it.
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
    y = np.asarray(y, dtype=float).ravel()
    C, statuses = omp_code_matrix(D, y[:, None], error_goal, max_atoms)
    return C.toarray()[0], statuses[0]


def omp_code_matrix(D: np.ndarray, Y: np.ndarray, error_goal: float, max_atoms: Optional[int] = None):
    """Sparse-code every column of ``Y`` with the same error goal.

    Returns the coefficient matrix as a csc array of shape (N, J) (row i
    holds the code of signal i, matching the learner's convention) plus
    the per-signal stop statuses.  Each row equals the :func:`omp_code`
    call on that column alone, bit for bit.
    """
    D = np.ascontiguousarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if D.ndim != 2:
        raise ConfigError(f"dictionary must be 2-D, got shape {D.shape}")
    if Y.ndim != 2:
        raise ConfigError(f"signal matrix must be 2-D, got shape {Y.shape}")
    n, J = D.shape
    if Y.shape[0] != n:
        raise ConfigError(f"signal length {Y.shape[0]} does not match dictionary rows {n}")
    if not np.isfinite(D).all():
        raise ConfigError("dictionary must be finite")
    if not np.isfinite(Y).all():
        raise ConfigError("signals must be finite")
    if not (np.isfinite(error_goal) and error_goal >= 0.0):
        raise ConfigError(f"error_goal must be finite and nonnegative, got {error_goal}")
    cap = min(n, J) if max_atoms is None else int(max_atoms)
    if not 1 <= cap <= min(n, J):
        raise ConfigError(f"max_atoms must lie in [1, {min(n, J)}], got {cap}")

    N = Y.shape[1]
    G = D.T @ D  # symmetric, so G[p] is the column G[:, p]
    stops = np.empty(N, dtype=np.intp)
    sig, atom, coef = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for lo in range(0, N, _BAND):
        x, picks, stops[lo : lo + _BAND] = _code_band(D, G, Y[:, lo : lo + _BAND], error_goal, cap)
        r, c = np.nonzero(x)
        sig.append(lo + r)
        atom.append(picks[r, c])
        coef.append(x[r, c])
    C = sparse.coo_array(
        (np.concatenate(coef), (np.concatenate(sig), np.concatenate(atom))), shape=(N, J)
    ).tocsc()
    return C, _STATUSES[stops].tolist()


def _code_band(D, G, Yb, goal, cap):
    """Code the columns of ``Yb``.

    Returns the coefficients and their atoms, both of shape (B, K) with
    K the longest support and zeros past each signal's own, and each
    signal's index into ``_STATUSES``.
    """
    B = Yb.shape[1]
    # Signal-major: a band of extract_patches' F-ordered matrix is already
    # C-contiguous here, so only other layouts are copied.
    Yt = np.ascontiguousarray(Yb.T)[:, None, :]
    # Stacked per-signal products: a GEMM would round a column differently with the band width.
    alpha0 = np.matmul(Yt, D)[:, 0, :]
    rsq = np.matmul(Yt, Yt.transpose(0, 2, 1))[:, 0, 0]
    # rsq - sum z_k^2 is good to a few ulps of |y|^2 per term, so a goal within that counts
    # as met; otherwise exactly representable signals go on to pick atoms from rounding noise.
    limit = goal + (D.shape[0] + cap) * np.finfo(float).eps * rsq
    floor = _SPAN_TOL * np.sqrt(np.diag(G))
    stop = np.zeros(B, dtype=np.intp)
    picks = np.zeros((B, cap), dtype=np.intp)
    z = np.zeros((B, cap))
    diag = np.ones((B, cap))  # with z = 0 and W = 0 past a support, back substitution gives 0
    W = []  # W[k]: (B, k), row k of L left of its diagonal
    U = []  # U[i]: (A, J), u_i of each active signal
    rows = np.flatnonzero(rsq > limit)  # the active signals
    corr, rsq, limit = alpha0[rows], rsq[rows], limit[rows]
    for k in range(cap):
        if rows.size == 0:
            break
        ar = np.arange(rows.size)
        pick = np.abs(corr).argmax(axis=1)
        w = np.empty((rows.size, k))
        for i, u in enumerate(U):
            w[:, i] = u[ar, pick]
        # add.accumulate sums each row in index order, whatever the row count
        ww = np.add.accumulate(w * w, axis=1)[:, -1] if k else 0.0
        wz = np.add.accumulate(w * z[rows, :k], axis=1)[:, -1] if k else 0.0
        Lkk = np.sqrt(np.maximum(G[pick, pick] - ww, 0.0))
        ok = (corr[ar, pick] != 0.0) & (Lkk > floor[pick])
        stop[rows[~ok]] = 2
        with np.errstate(divide="ignore", invalid="ignore"):
            zk = (alpha0[rows, pick] - wz) / Lkk
            rsq = rsq - zk * zk
        took = rows[ok]
        W.append(np.zeros((B, k)))
        picks[took, k], z[took, k], diag[took, k], W[k][took] = pick[ok], zk[ok], Lkk[ok], w[ok]
        keep = ok & (rsq > limit)
        if k + 1 == cap:
            stop[rows[keep]] = 1
            break
        if not keep.all():
            rows, corr, rsq, limit = rows[keep], corr[keep], rsq[keep], limit[keep]
            pick, w, zk, Lkk = pick[keep], w[keep], zk[keep], Lkk[keep]
            U = [u[keep] for u in U]
        uk = G[pick]
        for i, u in enumerate(U):
            uk -= u * w[:, i, None]
        uk /= Lkk[:, None]
        U.append(uk)
        corr -= uk * zk[:, None]
    x = z[:, : len(W)]
    for j in reversed(range(len(W))):
        x[:, j] /= diag[:, j]
        x[:, :j] -= W[j] * x[:, j, None]
    return x, picks, stop
