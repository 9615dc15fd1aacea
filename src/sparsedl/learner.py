"""Block coordinate descent for l0-penalized dictionary learning.

The training matrix ``Y`` (one signal per column, shape n x N) is
approximated by a sum of sparse rank-one terms ``sum_j d_j c_j^T``:

    minimize   || Y - sum_j d_j c_j^T ||_F^2  +  lam^2 * nnz(C)
    subject to || d_j ||_2 = 1  and  | C_ij | <= code_bound,

where ``d_j`` is column j of the dictionary ``D`` (n x J) and ``c_j``
is column j of the coefficient matrix ``C`` (N x J).  Each sweep
updates every (c_j, d_j) pair in turn; both block updates are exact
closed forms (truncated hard thresholding for the code, a normalized
residual/code product for the atom), so the objective never increases;
:func:`learn` checks this after every sweep and raises if it fails.

:func:`learn` keeps ``C`` in one canonical ``scipy.sparse.csc_array``
(sorted indices, no stored zeros), runs both updates through the public
:func:`sparse_code_step` and :func:`atom_update_step`, and splices each
new code column into the store in O(nnz).  An atom changes only at its
own visit, so ``learn`` forms the correlations ``Y^T d_j`` of 8 atoms
(``_BLOCK``) at a time with one GEMM and hands each visit its row.
Zeros in ``C`` are structural: an entry is zero iff it was never
assigned a nonzero value, and nnz counts are exact with no tolerance.
All arithmetic is float64.  For a fixed BLAS thread count and the fixed
block and chunk constants (``_BLOCK``, ``_GATHER``), a run is
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .exceptions import ConfigError, InvariantError

__all__ = [
    "LearnConfig",
    "LearnTrace",
    "hard_threshold",
    "truncated_hard_threshold",
    "code_rhs",
    "sparse_code_step",
    "atom_rhs",
    "atom_update_step",
    "learn",
    "objective",
    "nsre",
    "sparsity_factor",
]

ATOM_ORDERS = ("cyclic", "random")
EMPTY_CODE_POLICIES = ("unit_basis", "keep_previous", "random_unit")

# Unit-norm slack accepted on input dictionaries before exact renormalization.
_NORM_TOL = 1e-8

# Atoms whose correlations with Y one GEMM forms in learn (a _BLOCK x N
# buffer), and signals (columns of Y) that atom_rhs and _fit take at once
# (n x _GATHER buffers).  Results depend on both, so changing either
# changes the bits of a run.  Blocks of 16 ran about 10 % faster on a
# 256x256 denoise, but the peak RSS of a 30,000-signal learn then varied
# by up to 7 % between identical runs, against 4 % with 8.
_BLOCK = 8
_GATHER = 4096

# Relative rise of the per-sweep objective that learn accepts as rounding;
# near a perfect fit, eps * ||Y||_F^2 absolute is the larger allowance.
_RISE_TOL = 1e-9


def hard_threshold(b: np.ndarray, lam: float) -> np.ndarray:
    """Zero every entry of ``b`` whose magnitude is below ``lam``.

    Entries with magnitude exactly equal to ``lam`` are kept (the
    minimizer is non-unique there; keeping the value makes the operator
    deterministic).  Total function: no validation, never raises.
    """
    b = np.asarray(b, dtype=float)
    return np.where(np.abs(b) < lam, 0.0, b)


def truncated_hard_threshold(b: np.ndarray, lam: float, code_bound: float) -> np.ndarray:
    """Hard-threshold ``b`` at ``lam``, then clip magnitudes to ``code_bound``.

    This is the exact minimizer of the single-column code update: entry i
    of the result is 0 when ``|b_i| < lam``, ``b_i`` when
    ``lam <= |b_i| <= code_bound``, and ``sign(b_i) * code_bound`` above.
    Requires ``code_bound > lam`` (otherwise clipping could produce
    nonzeros that thresholding should have removed).  Only the surviving
    entries are clipped; like :func:`hard_threshold`, NaN survives.
    """
    if not code_bound > lam:
        raise ConfigError(
            f"code_bound must exceed the sparsity weight (got bound={code_bound}, lam={lam})"
        )
    b = np.asarray(b, dtype=float)
    out = np.zeros(b.shape)
    keep = np.flatnonzero(~(np.abs(b) < lam))
    out.reshape(-1)[keep] = np.clip(b.reshape(-1)[keep], -code_bound, code_bound)
    return out


def _is_sparse(C) -> bool:
    return sparse.issparse(C)


def _code_entries(C, j: int):
    """Stored entries of column j of a dense or scipy-sparse ``C``.

    Returns ``(rows, values)``: a sparse ``C`` gives its stored entries,
    read straight from the CSC arrays (rows may repeat, and then sum),
    and a dense ``C`` gives ``slice(None)`` and the whole column.
    """
    if not _is_sparse(C):
        return slice(None), np.asarray(C)[:, j]
    C = C if C.format == "csc" else C.tocsc()
    span = slice(C.indptr[j], C.indptr[j + 1])
    return C.indices[span], C.data[span]


def _correlations(Y: np.ndarray, D: np.ndarray, atoms, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``D[:, atoms]^T Y`` as one GEMM: row k is ``Y^T d`` for ``atoms[k]``."""
    return np.matmul(D[:, atoms].T, Y, out=out)


def _code_nnz(C) -> int:
    """Exact structural nonzero count of a coefficient matrix."""
    if _is_sparse(C):
        return int(np.count_nonzero(C.data))
    return int(np.count_nonzero(C))


def _fit(Y: np.ndarray, D: np.ndarray, C) -> float:
    """Fit term ``||Y - D C^T||_F^2``, over ``_GATHER`` signals at a time."""
    C = C.tocsr() if _is_sparse(C) else np.asarray(C)
    fit = 0.0
    for lo in range(0, Y.shape[1], _GATHER):
        resid = np.asarray(C[lo : lo + _GATHER] @ D.T, dtype=float)
        resid -= Y[:, lo : lo + _GATHER].T
        fit += float(np.vdot(resid, resid))
    return fit


def code_rhs(Y: np.ndarray, D: np.ndarray, C, j: int, corr: Optional[np.ndarray] = None) -> np.ndarray:
    """Correlation vector driving the code update for atom ``j``.

    Returns ``E_j^T d_j`` where ``E_j = Y - sum_{k != j} d_k c_k^T`` is
    the residual with atom j's contribution excluded, computed as

        Y^T d_j - C (D^T d_j) + c_j

    so the n x N matrix ``E_j`` is never materialized; ``c_j`` is added
    over its stored entries only.  ``C`` may be a dense array or any
    scipy sparse matrix; column j must hold the current (pre-update)
    code.  ``corr`` is ``Y^T d_j`` when the caller already has it (as a
    row of a block of correlations); it is computed here otherwise.
    """
    if corr is None:
        corr = _correlations(Y, D, [j])[0]
    rhs = corr - C @ (D.T @ D[:, j])
    rows, vals = _code_entries(C, j)
    np.add.at(rhs, rows, vals)
    return rhs


def sparse_code_step(
    Y: np.ndarray,
    D: np.ndarray,
    C,
    j: int,
    lam: float,
    code_bound: float,
    corr: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact single-column code update.

    Computes the global minimizer of the learning objective with respect
    to ``c_j``, all other columns fixed: the truncated hard threshold of
    the correlation vector ``E_j^T d_j``.

    Parameters
    ----------
    Y : ndarray, shape (n, N)
        Training matrix.
    D : ndarray, shape (n, J)
        Dictionary with unit-norm columns; column j is the atom paired
        with the code being updated.
    C : ndarray or scipy sparse, shape (N, J)
        Coefficient matrix; column j holds the pre-update code.
    j : int
        Atom index.
    lam : float
        Sparsity weight (threshold level).
    code_bound : float
        Magnitude cap; must exceed ``lam``.
    corr : ndarray, shape (N,), optional
        ``Y^T d_j``, passed on to :func:`code_rhs`.

    Returns
    -------
    ndarray, shape (N,)
        The updated code column.  Every nonzero entry has magnitude in
        ``[lam, code_bound]``.
    """
    if not 0 <= j < D.shape[1]:
        raise ConfigError(f"atom index {j} out of range for {D.shape[1]} atoms")
    return truncated_hard_threshold(code_rhs(Y, D, C, j, corr), lam, code_bound)


def atom_rhs(Y: np.ndarray, D: np.ndarray, C, j: int, new_code: np.ndarray) -> np.ndarray:
    """Residual/code product driving the atom update for atom ``j``.

    Returns ``E_j @ new_code`` computed as

        Y c - D (C^T c) + d_j (c_j^T c),        c = new_code

    with ``Y c`` taken over the support of ``c`` only, gathering at most
    ``_GATHER`` columns of ``Y`` at a time,
    where ``C`` and ``D`` are the matrices from *before* the code commit
    (column j of ``C`` is the pre-update code ``c_j``, column j of ``D``
    the pre-update atom).  As with :func:`code_rhs`, ``E_j`` is never
    formed.
    """
    c = np.asarray(new_code, dtype=float)
    rows, vals = _code_entries(C, j)
    h = D[:, j] * float(vals @ c[rows]) - D @ (C.T @ c)
    support = np.flatnonzero(c != 0)
    for lo in range(0, support.size, _GATHER):
        cols = support[lo : lo + _GATHER]
        h += Y[:, cols] @ c[cols]
    return h


def atom_update_step(
    Y: np.ndarray,
    D: np.ndarray,
    C,
    j: int,
    new_code: np.ndarray,
    policy: str = "unit_basis",
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Exact single-atom update following a code update.

    Computes the unit-norm global minimizer of the fit term with respect
    to ``d_j``: the normalized product of the atom-j residual with the
    freshly updated code.  ``C`` and ``D`` must still be in their
    pre-commit state (column j of ``C`` is the code that ``new_code``
    replaces), matching the sweep order in :func:`learn`.

    When ``new_code`` is identically zero any unit vector is optimal and
    ``policy`` decides: ``"unit_basis"`` returns the first standard
    basis vector, ``"keep_previous"`` returns the current atom,
    ``"random_unit"`` draws a fresh unit vector from ``rng``.

    Raises
    ------
    InvariantError
        If ``new_code`` is nonzero but the residual/code product is the
        zero vector.  After an exact code update this cannot happen, so
        it is surfaced instead of silently normalized.
    """
    if policy not in EMPTY_CODE_POLICIES:
        raise ConfigError(f"unknown empty-code policy {policy!r}; choose from {EMPTY_CODE_POLICIES}")
    n = D.shape[0]
    c = np.asarray(new_code, dtype=float)
    if not np.any(c):
        if policy == "keep_previous":
            return D[:, j].copy()
        if policy == "random_unit":
            if rng is None:
                raise ConfigError("policy 'random_unit' needs an rng")
            return _random_unit_vector(rng, n)
        e1 = np.zeros(n)
        e1[0] = 1.0
        return e1
    h = atom_rhs(Y, D, C, j, c)
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise InvariantError(
            f"atom {j}: residual/code product vanished for a nonzero code; "
            "the preceding code update cannot have been exact"
        )
    return h / norm


def _random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    norm = np.linalg.norm(v)
    while norm == 0.0:  # measure zero, but stay total
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
    return v / norm


def objective(Y: np.ndarray, D: np.ndarray, C, lam: float) -> float:
    """Value of the learning objective: fit term plus ``lam^2 * nnz(C)``.

    The nonzero count is structural/exact; no tolerance is applied when
    deciding whether an entry is zero.
    """
    return _fit(np.asarray(Y, dtype=float), D, C) + lam * lam * _code_nnz(C)


def nsre(Y: np.ndarray, D: np.ndarray, C) -> float:
    """Normalized representation error ``||Y - D C^T||_F / ||Y||_F``."""
    Y = np.asarray(Y, dtype=float)
    ynorm = np.linalg.norm(Y)
    if ynorm == 0.0:
        raise ConfigError("nsre is undefined for an all-zero training matrix")
    return float(np.sqrt(_fit(Y, D, C)) / ynorm)


def sparsity_factor(C, signal_dim: int) -> float:
    """Nonzero fraction of ``C`` relative to ``signal_dim * N``.

    The denominator uses the signal dimension n (not the atom count), so
    the value reads as average nonzeros per signal over n.
    """
    if signal_dim < 1:
        raise ConfigError("signal_dim must be positive")
    N = C.shape[0]
    return _code_nnz(C) / (signal_dim * N)


@dataclass
class LearnConfig:
    """Settings for :func:`learn`.

    ``code_bound=None`` resolves to ``||Y||_F`` at call time.
    ``init_codes=None`` means all-zero initial codes.  ``seed`` drives
    the random atom order and the ``random_unit`` policy only.
    """

    num_atoms: int
    iterations: int
    lam: float
    init_dictionary: Optional[np.ndarray] = None
    code_bound: Optional[float] = None
    init_codes: object = None
    atom_order: str = "cyclic"
    empty_code_policy: str = "unit_basis"
    seed: int = 0


@dataclass
class LearnTrace:
    """Per-sweep diagnostics collected by :func:`learn`.

    All arrays have one entry per outer iteration.  ``delta_dict`` and
    ``delta_codes`` are Frobenius norms of the change from the previous
    iterate (iteration 1 measures the change from the initialization).
    ``nsre`` is NaN when the training matrix is all zero.  ``objective``
    never rises: :func:`learn` raises instead.
    """

    objective: np.ndarray = field(default_factory=lambda: np.empty(0))
    nsre: np.ndarray = field(default_factory=lambda: np.empty(0))
    sparsity_factor: np.ndarray = field(default_factory=lambda: np.empty(0))
    delta_dict: np.ndarray = field(default_factory=lambda: np.empty(0))
    delta_codes: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return len(self.objective)


def _initial_codes(init_codes, N: int, J: int, code_bound: float) -> sparse.csc_array:
    """Canonical CSC copy of the initial codes, checked against the bound.

    Stored zeros (including -0.0) are dropped, so nnz stays structural.
    """
    if init_codes is None:
        return sparse.csc_array((N, J), dtype=float)
    if np.shape(init_codes) != (N, J):
        raise ConfigError(f"init_codes shape {np.shape(init_codes)} does not match (N, J)=({N}, {J})")
    C = sparse.csc_array(init_codes, dtype=float, copy=True)
    C.sum_duplicates()
    C.eliminate_zeros()
    if not np.all(np.isfinite(C.data)):
        raise ConfigError("init_codes must be finite")
    if C.nnz and np.max(np.abs(C.data)) > code_bound:
        raise ConfigError(f"init_codes exceed the magnitude bound {code_bound}")
    return C


def _splice_column(C: sparse.csc_array, j: int, idx: np.ndarray, val: np.ndarray) -> sparse.csc_array:
    """Copy of the CSC array ``C`` with column j replaced by ``(idx, val)``."""
    lo, hi = C.indptr[j], C.indptr[j + 1]
    indptr = C.indptr.astype(np.int64)
    indptr[j + 1 :] += idx.size - (hi - lo)
    indices = np.concatenate((C.indices[:lo], idx, C.indices[hi:]))
    data = np.concatenate((C.data[:lo], val, C.data[hi:]))
    return sparse.csc_array((data, indices, indptr), shape=C.shape)


def _validated_dictionary(D, n: int, J: int) -> np.ndarray:
    D = np.array(D, dtype=float, copy=True)
    if D.ndim != 2 or D.shape != (n, J):
        raise ConfigError(f"init dictionary must have shape ({n}, {J}), got {getattr(D, 'shape', None)}")
    if not np.all(np.isfinite(D)):
        raise ConfigError("init dictionary must be finite")
    norms = np.linalg.norm(D, axis=0)
    if np.any(np.abs(norms - 1.0) > _NORM_TOL):
        raise ConfigError("init dictionary columns must have unit l2 norm")
    return D / norms


def learn(Y: np.ndarray, config: LearnConfig):
    """Run the block coordinate descent learner.

    Each of ``config.iterations`` sweeps visits every atom index j (in
    cyclic or seeded-random order) and performs the code update followed
    by the atom update, in that fixed order, always against the latest
    values of all other blocks.

    Parameters
    ----------
    Y : ndarray, shape (n, N)
        Training matrix, one signal per column.  Must be finite.  An
        all-zero matrix is allowed (an explicit ``code_bound`` is then
        required, since the default ``||Y||_F`` would be zero).
    config : LearnConfig

    Returns
    -------
    D : ndarray, shape (n, J)
        Learned dictionary, unit-norm columns.
    C : scipy.sparse.csc_array, shape (N, J)
        Learned codes; stored nonzeros are exactly the structural
        nonzeros produced by the updates.
    trace : LearnTrace

    Raises
    ------
    ConfigError
        On invalid settings (including ``code_bound <= lam``).
    InvariantError
        If the objective turns non-finite or rises over a sweep, or an
        atom update sees a vanishing residual/code product for a nonzero
        code.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] < 1:
        raise ConfigError(f"training matrix must be 2-D and non-empty, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ConfigError("training matrix must be finite")
    n, N = Y.shape

    J = int(config.num_atoms)
    K = int(config.iterations)
    if J < 1:
        raise ConfigError("num_atoms must be at least 1")
    if K < 0:
        raise ConfigError("iterations must be nonnegative")
    lam = float(config.lam)
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ConfigError(f"lam must be finite and nonnegative, got {lam}")
    ynorm = float(np.linalg.norm(Y))
    bound = ynorm if config.code_bound is None else float(config.code_bound)
    if not (np.isfinite(bound) and bound > lam):
        raise ConfigError(
            f"code_bound must be finite and exceed lam (got bound={bound}, lam={lam}); "
            "pass an explicit code_bound for zero training data"
        )
    if config.atom_order not in ATOM_ORDERS:
        raise ConfigError(f"unknown atom_order {config.atom_order!r}; choose from {ATOM_ORDERS}")
    if config.empty_code_policy not in EMPTY_CODE_POLICIES:
        raise ConfigError(
            f"unknown empty_code_policy {config.empty_code_policy!r}; choose from {EMPTY_CODE_POLICIES}"
        )
    if config.init_dictionary is None:
        raise ConfigError("init_dictionary is required (see the dictionaries module)")

    D = _validated_dictionary(config.init_dictionary, n, J)
    C = _initial_codes(config.init_codes, N, J, bound)
    rng = np.random.default_rng(config.seed)

    trace = LearnTrace(
        objective=np.empty(K),
        nsre=np.empty(K),
        sparsity_factor=np.empty(K),
        delta_dict=np.empty(K),
        delta_codes=np.empty(K),
    )
    prev = objective(Y, D, C, lam)
    rounding = np.finfo(float).eps * ynorm * ynorm

    # One buffer serves every block, so sweeps allocate no block-sized arrays.
    corr = np.empty((min(_BLOCK, J), N))
    for t in range(K):
        order = np.arange(J) if config.atom_order == "cyclic" else rng.permutation(J)
        D_prev = D.copy()
        delta_codes_sq = 0.0

        for pos, j in enumerate(order):
            if pos % _BLOCK == 0:
                # An atom changes only at its own visit, so the correlations
                # of the next _BLOCK atoms can all be formed now.
                block = order[pos : pos + _BLOCK]
                _correlations(Y, D, block, out=corr[: block.size])
            # Both updates against the pre-commit state, then commit.
            c_new = sparse_code_step(Y, D, C, j, lam, bound, corr[pos % _BLOCK])
            try:
                d_new = atom_update_step(Y, D, C, j, c_new, config.empty_code_policy, rng)
            except InvariantError as exc:
                raise InvariantError(f"iteration {t + 1}, {exc}") from exc

            lo, hi = C.indptr[j], C.indptr[j + 1]
            idx_old, val_old = C.indices[lo:hi], C.data[lo:hi]
            idx_new = np.flatnonzero(c_new != 0)
            C = _splice_column(C, j, idx_new, c_new[idx_new])
            c_new[idx_old] -= val_old  # c_new now becomes the code delta vector
            delta_codes_sq += float(c_new @ c_new)
            D[:, j] = d_new

        # Per-sweep diagnostics from an exact reconstruction; exact updates
        # cannot raise the objective, so a rise (or a NaN) is a fault.
        fit = _fit(Y, D, C)
        obj = fit + lam * lam * C.nnz
        if not obj - prev <= max(_RISE_TOL * prev, rounding):
            raise InvariantError(f"objective rose or went non-finite at iteration {t + 1}: {prev!r} -> {obj!r}")
        trace.objective[t] = prev = obj
        trace.nsre[t] = np.sqrt(fit) / ynorm if ynorm > 0.0 else np.nan
        trace.sparsity_factor[t] = C.nnz / (n * N)
        trace.delta_dict[t] = float(np.linalg.norm(D - D_prev))
        trace.delta_codes[t] = np.sqrt(delta_codes_sq)

    return D, C, trace
