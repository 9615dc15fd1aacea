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

:func:`learn` carries the residual ``R = Y - D C^T`` in one signal-major
N x n float64 buffer (row i is signal i's residual).  With ``E_j = R +
d_j c_j^T`` the residual without atom j, a visit needs only

    E_j^T d_j = R^T d_j + c_j        (the code update's input)
    E_j c     = R c + d_j (c_j . c)  (the atom update's input)

and changes R only on the rows where the old or the new code is stored.
Those lie in the visit's one row set, its *union*: the rows whose
``E_j^T d_j`` passes the threshold, where alone the new code can be
stored, and the old code's rows.  An atom changes only at its own visit,
so ``learn`` forms the correlations ``R^T d_j`` of the next 16
(``_BLOCK``) unparked atoms with one GEMM.  A visit then costs one
screen of its correlation row plus work in proportion to its union:

- it adds ``c_j`` to the row on the old code's rows, screens the row once
  into two reusable N-byte masks, marks the old code's rows in that
  screen mask and reads the union off it, already sorted;
- :func:`truncated_hard_threshold` sees the row on the union only, and
  its result is the new code on the union; at ``lam = 0`` a passing row
  whose correlation is exactly 0 gets no code but stays in the union
  with zero weights;
- it gathers the union rows of R once (``_GATHER`` at a time, through
  ``take``), forms the new atom from them and scatters back the rank-2
  update ``+ c_old d_old^T - c_new d_new^T``; it never reads the other
  codes;
- it moves the correlations of the block's later atoms by that update,
  on the union columns only, taken and written back the same way.

A union of all N rows is ``arange(N)``, so its chunks are slices of R and
of the correlations, updated in place with no gather or scatter.

An atom is *parked* while its code is empty and its column is exactly
``e1``, where the atom step puts an atom whose code comes back empty, as
the paper does.  Its ``E_j^T d_j`` is then exactly ``R[:, 0]``, so its
visit takes no GEMM row and no correction.  ``learn`` keeps an N-byte
record of the rows whose ``R[i, 0]`` passes the threshold, ``passing``,
brought up to date on each visit's union rows after its atom step.  That
record is a parked visit's screen, and with no old code its union, so a
parked visit screens nothing.  While ``passing.any()`` is false, the
common case, no row can pass: the visit calls the threshold on no values
and the atom step on no rows, builds no union and leaves R alone, and the
atom stays ``e1``.  Parking changes only at an atom's own visit, so each
block is known exactly when it is formed.

The codes are kept as per-atom ``(rows, values)`` pairs and assembled
into one CSC array on return; the per-sweep objective is ``||R||_F^2 +
lam^2 nnz``.  Besides ``Y``, a run holds the N x n residual (none with
``overwrite_y``, which works in ``Y``'s own memory), the _BLOCK x N
correlations, two N-byte masks, the N-byte record of passing rows, the
codes and gathers of at most _GATHER x n.  The public single-column steps
(:func:`code_rhs`, :func:`atom_rhs` and the steps built on them) form
``R^T d_j`` and ``R c`` from ``Y`` and ``C`` instead, and share the
``d_j (c_j . c)`` term, the threshold and the atom normalization with
``learn``.

Zeros in ``C`` are structural: an entry is zero iff it was never
assigned a nonzero value, and nnz counts are exact with no tolerance.
``learn`` starts from zero codes.  Every function that takes codes reads
them, dense or sparse, once through one gate as real, finite canonical
CSC: duplicates summed, stored zeros dropped.
All arithmetic is float64.  For a fixed BLAS thread count and the fixed
block and chunk constants (``_BLOCK``, ``_GATHER``), a run is
reproducible bit for bit, whether or not it overwrites ``Y`` and
whatever ``Y``'s memory order: which atoms share a GEMM follows from the
data and ``_BLOCK`` alone, so the bits still depend only on these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .exceptions import ConfigError, InvariantError, as_finite, as_integer, as_real_array, as_real_number

__all__ = [
    "LearnConfig",
    "LearnTrace",
    "truncated_hard_threshold",
    "code_rhs",
    "sparse_code_step",
    "atom_rhs",
    "atom_update_step",
    "learn",
]

# Unit-norm slack accepted on input dictionaries before exact renormalization.
_NORM_TOL = 1e-8

# Unparked atoms whose correlations with R one GEMM forms in learn (a
# _BLOCK x N buffer; the parked visits among them take no row), and signals
# that one gather takes at once (_GATHER x n buffers in learn, n x _GATHER
# in atom_rhs).  Results depend on both, so changing either changes the bits
# of a run.  Each GEMM reads all of R: at
# N=62,001 (2 BLAS threads) those of one sweep took 177 ms in blocks of 8,
# 104 ms in blocks of 16 and 74 ms in blocks of 32, but blocks of 32 raised
# the peak RSS of a 256x256 denoise from 108 to 115 MB.
_BLOCK = 16
_GATHER = 4096

# Relative rise of the per-sweep objective that learn accepts as rounding;
# near a perfect fit, eps * ||Y||_F^2 absolute is the larger allowance.
_RISE_TOL = 1e-9


def truncated_hard_threshold(b: np.ndarray, lam: float, code_bound: float) -> np.ndarray:
    """Hard-threshold ``b`` at ``lam``, then clip magnitudes to ``code_bound``.

    This is the exact minimizer of the single-column code update: entry i
    of the result is 0 when ``|b_i| < lam``, ``b_i`` when
    ``lam <= |b_i| <= code_bound``, and ``sign(b_i) * code_bound`` above.
    A magnitude exactly ``lam`` is kept (the minimizer is non-unique
    there; keeping it makes the operator deterministic).  Requires
    ``code_bound > lam`` (otherwise clipping could produce nonzeros that
    thresholding should have removed).  NaN in ``b`` survives, an
    infinity clips to the bound, and complex ``b`` raises.
    """
    lam = as_real_number(lam, "lam", low=0.0)
    code_bound = as_real_number(code_bound, "code_bound", low=lam, exclusive=True)
    b = as_real_array(b, "threshold input")
    out = np.where(_survives(b, lam), b, 0.0)
    return np.clip(out, -code_bound, code_bound, out=out)


def _survives(b: np.ndarray, lam: float, out=None) -> np.ndarray:
    """Where the threshold keeps ``b``: ``~(-lam < b < lam)``, which is
    ``~(|b| < lam)`` without a float temporary (and keeps NaN).  The masks
    are formed in ``out``, two bool arrays shaped like ``b`` (fresh ones by
    default), and the result is the first."""
    if out is None:
        out = np.empty(np.shape(b), dtype=bool), np.empty(np.shape(b), dtype=bool)
    keep, above = out
    np.less(b, lam, out=keep)
    keep &= np.greater(b, -lam, out=above)
    return np.logical_not(keep, out=keep)


def _code_matrix(C, N: int, J: int) -> sparse.csc_array:
    """``C``, dense or scipy-sparse, as canonical CSC: a real, finite
    float64 copy of shape (N, J) with duplicates summed and stored zeros
    (-0.0 too) dropped, so each column's rows are sorted and distinct and
    ``nnz`` counts the structural nonzeros.  Anything else raises
    :class:`ConfigError`."""
    if np.shape(C) != (N, J):
        raise ConfigError(f"code matrix shape {np.shape(C)} does not match (N, J)=({N}, {J})")
    if np.iscomplexobj(C):
        raise ConfigError("code matrix must be real")
    C = sparse.csc_array(C, dtype=float, copy=True)
    C.sum_duplicates()
    C.eliminate_zeros()
    as_real_array(C.data, "code matrix", finite=True)
    return C


def _code_entries(C: sparse.csc_array, j: int):
    """Column j of a canonical CSC ``C`` as ``(rows, values)``, its stored entries."""
    span = slice(C.indptr[j], C.indptr[j + 1])
    return C.indices[span].astype(np.intp), C.data[span]


def _correlations(Y: np.ndarray, D: np.ndarray, atoms, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``D[:, atoms]^T Y`` as one GEMM: row k is ``Y^T d`` for ``atoms[k]``."""
    return np.matmul(D[:, atoms].T, Y, out=out)


def _atom_term(d: np.ndarray, vals: np.ndarray, c_at_rows: np.ndarray) -> np.ndarray:
    """``d_j (c_j . c)``, by which ``E_j c`` exceeds ``R c``.

    ``vals`` is c_j on rows that hold all its stored entries, and
    ``c_at_rows`` the new code on the same rows.
    """
    return d * float(vals @ c_at_rows)


def _step_inputs(Y, D, C, j):
    """``Y`` and ``D`` as real, finite 2-D arrays with as many rows, ``C``
    through :func:`_code_matrix` and the atom index ``j`` checked against ``D``."""
    Y = as_real_array(Y, "training matrix", ndim=2, finite=True)
    D = as_real_array(D, "dictionary", ndim=2, finite=True)
    if D.shape[0] != Y.shape[0]:
        raise ConfigError(f"dictionary rows {D.shape[0]} do not match the signal length {Y.shape[0]}")
    C = _code_matrix(C, Y.shape[1], D.shape[1])
    j = as_integer(j, "atom index")
    if not 0 <= j < D.shape[1]:
        raise ConfigError(f"atom index {j} out of range for {D.shape[1]} atoms")
    return Y, D, C, j


def _new_code(new_code, N: int) -> np.ndarray:
    """``new_code`` as a real 1-D array of length ``N``."""
    c = as_real_array(new_code, "new code", ndim=1)
    if c.size != N:
        raise ConfigError(f"new code length {c.size} does not match N={N}")
    return c


def code_rhs(Y: np.ndarray, D: np.ndarray, C, j: int) -> np.ndarray:
    """Correlation vector driving the code update for atom ``j``.

    Returns ``E_j^T d_j`` where ``E_j = Y - sum_{k != j} d_k c_k^T`` is
    the residual with atom j's contribution excluded, computed as

        Y^T d_j - C (D^T d_j) + c_j

    so the n x N matrix ``E_j`` is never materialized; ``c_j`` is added
    over its stored entries only.  ``C`` may be dense or scipy-sparse; it
    is read as real, finite canonical CSC.  Column j must hold the current
    (pre-update) code.
    """
    return _code_rhs(*_step_inputs(Y, D, C, j))


def _code_rhs(Y: np.ndarray, D: np.ndarray, C: sparse.csc_array, j: int) -> np.ndarray:
    """:func:`code_rhs` on checked inputs."""
    rhs = _correlations(Y, D, [j])[0] - C @ (D.T @ D[:, j])
    rows, vals = _code_entries(C, j)
    rhs[rows] += vals  # canonical rows are distinct
    return rhs


def sparse_code_step(
    Y: np.ndarray,
    D: np.ndarray,
    C,
    j: int,
    lam: float,
    code_bound: float,
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
        Coefficient matrix, read as real, finite canonical CSC; column j
        holds the pre-update code.
    j : int
        Atom index, in ``[0, J)``.
    lam : float
        Sparsity weight (threshold level).
    code_bound : float
        Magnitude cap; must exceed ``lam``.

    Returns
    -------
    ndarray, shape (N,)
        The updated code column.  Every nonzero entry has magnitude in
        ``[lam, code_bound]``.
    """
    return truncated_hard_threshold(_code_rhs(*_step_inputs(Y, D, C, j)), lam, code_bound)


def atom_rhs(Y: np.ndarray, D: np.ndarray, C, j: int, new_code: np.ndarray) -> np.ndarray:
    """Residual/code product driving the atom update for atom ``j``.

    Returns ``E_j @ new_code`` computed as

        Y c - D (C^T c) + d_j (c_j^T c),        c = new_code

    with ``Y c`` taken over the support of ``c`` only, gathering at most
    ``_GATHER`` columns of ``Y`` at a time,
    where ``C`` and ``D`` are the matrices from *before* the code commit
    (column j of ``C`` is the pre-update code ``c_j``, column j of ``D``
    the pre-update atom).  As with :func:`code_rhs`, ``E_j`` is never
    formed and ``C`` is read as canonical CSC.
    """
    Y, D, C, j = _step_inputs(Y, D, C, j)
    return _atom_rhs(Y, D, C, j, _new_code(new_code, Y.shape[1]))


def _atom_rhs(Y: np.ndarray, D: np.ndarray, C: sparse.csc_array, j: int, c: np.ndarray) -> np.ndarray:
    """:func:`atom_rhs` on checked inputs."""
    rows, vals = _code_entries(C, j)
    h = _atom_term(D[:, j], vals, c[rows]) - D @ (C.T @ c)
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
) -> np.ndarray:
    """Exact single-atom update following a code update.

    Computes the unit-norm global minimizer of the fit term with respect
    to ``d_j``: the normalized product of the atom-j residual with the
    freshly updated code.  ``C`` and ``D`` must still be in their
    pre-commit state (column j of ``C`` is the code that ``new_code``
    replaces), matching the sweep order in :func:`learn`.

    When ``new_code`` is identically zero any unit vector is optimal, and
    the step returns ``e1``, the first standard basis vector, as the
    paper does.

    Raises
    ------
    InvariantError
        If ``new_code`` is nonzero but the residual/code product is the
        zero vector.  After an exact code update this cannot happen, so
        it is surfaced instead of silently normalized.
    """
    Y, D, C, j = _step_inputs(Y, D, C, j)
    c = _new_code(new_code, Y.shape[1])
    return _unit_atom(_atom_rhs(Y, D, C, j, c) if np.any(c) else None, Y.shape[0], j)


def _unit_atom(h: Optional[np.ndarray], n: int, j: int) -> np.ndarray:
    """The new atom j from ``h = E_j c``: ``h / ||h||``, where a zero ``h``
    raises, or for an empty code (``h=None``) ``e1`` of length ``n``."""
    if h is None:
        e1 = np.zeros(n)
        e1[0] = 1.0
        return e1
    norm = np.sqrt(h.dot(h))  # np.linalg.norm's own sum for a 1-D vector
    if norm == 0.0:
        raise InvariantError(
            f"atom {j}: residual/code product vanished for a nonzero code; "
            "the preceding code update cannot have been exact"
        )
    return h / norm


def _atom_step(R: np.ndarray, D: np.ndarray, j: int, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Atom j's exact update on the signal-major residual ``R = Y^T - C D^T``.

    ``rows`` are sorted, distinct signals that hold every stored entry of
    c_j before and after its code update, and ``w`` (2 x rows.size) is the
    old and the new c_j on them.  ``R`` and ``D`` hold the state before the
    visit.  Those rows of ``R`` are taken ``_GATHER`` at a time: the new
    atom is ``E_j c`` from them, normalized by :func:`_unit_atom`, and they
    get back the rank-2 update ``+ c_old d_old^T - c_new d_new^T``.  So on
    return ``R`` is the residual of the new code and atom.  Rows that fit
    one chunk are taken once; more are taken again for the update; all N
    rows are worked on as slices of ``R``, in place; no rows (both codes
    empty) leave ``R`` alone.  Returns the new atom and leaves ``D`` as it
    was.
    """
    d = D[:, j]
    if not rows.size:
        return _unit_atom(None, d.size, j)
    # Sorted, distinct and N of them, the rows are arange(N).
    whole = rows.size == R.shape[0]
    spans = [slice(lo, lo + _GATHER) for lo in range(0, rows.size, _GATHER)]

    def gather(s):
        return R[s] if whole else R.take(rows[s], axis=0)

    kept = gather(spans[0]) if len(spans) == 1 else None
    h = None
    if np.any(w[1]):
        h = _atom_term(d, w[0], w[1])
        for s in spans:
            part = gather(s) if kept is None else kept
            h += part.T @ w[1, s]
    d_new = _unit_atom(h, d.size, j)
    change = np.empty((2, d.size))
    change[0] = d
    np.negative(d_new, out=change[1])
    for s in spans:
        part = gather(s) if kept is None else kept
        part += w[:, s].T @ change
        if not whole:
            R[rows[s]] = part
    return d_new


@dataclass
class LearnConfig:
    """Settings for :func:`learn`.

    An explicit ``code_bound`` must be above ``lam``, so ``lam`` must be
    below the largest float.  ``code_bound=None`` resolves at call time to
    the larger of ``||Y||_F`` and the next float above ``lam``.  The second
    wins only when ``||Y||_F <= lam``; the objective then starts at or
    below ``lam^2`` and never rises, so at most one code entry is ever
    stored, of magnitude at most ``lam``, and every bound above ``lam``
    gives the same run.  Learning starts from all-zero codes.  There is one
    sweep: atoms in index order, and ``e1`` for an atom whose code comes
    back empty.  :func:`learn` checks every setting before it copies ``Y``.
    """

    num_atoms: int
    iterations: int
    lam: float
    init_dictionary: Optional[np.ndarray] = None
    code_bound: Optional[float] = None


@dataclass
class LearnTrace:
    """Per-sweep diagnostics collected by :func:`learn`.

    All arrays have one entry per outer iteration.  ``delta_dict`` and
    ``delta_codes`` are Frobenius norms of the change from the previous
    iterate (iteration 1 measures the change from the initialization).
    ``nsre`` is NaN when the training matrix is all zero.  ``objective``
    never rises: :func:`learn` raises instead.  ``empty_atoms`` counts the
    atoms whose code is empty at the end of the sweep; the trace CSV does
    not hold it, so a trace read back from one has none.
    """

    objective: np.ndarray = field(default_factory=lambda: np.empty(0))
    nsre: np.ndarray = field(default_factory=lambda: np.empty(0))
    sparsity_factor: np.ndarray = field(default_factory=lambda: np.empty(0))
    delta_dict: np.ndarray = field(default_factory=lambda: np.empty(0))
    delta_codes: np.ndarray = field(default_factory=lambda: np.empty(0))
    empty_atoms: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    def __len__(self) -> int:
        return len(self.objective)


def _validated_dictionary(D, n: int, J: int) -> np.ndarray:
    D = as_real_array(D, "init dictionary", finite=True)
    if D.shape != (n, J):
        raise ConfigError(f"init dictionary must have shape ({n}, {J}), got {D.shape}")
    norms = np.linalg.norm(D, axis=0)
    if np.any(np.abs(norms - 1.0) > _NORM_TOL):
        raise ConfigError("init dictionary columns must have unit l2 norm")
    return D / norms


def _union(keep: np.ndarray, old: np.ndarray) -> np.ndarray:
    """The sorted rows that the screen mask ``keep`` holds or ``old`` names.

    Marks ``old`` in ``keep`` (an N-byte mask) and reads the union off it,
    with no sort.
    """
    keep[old] = True
    return np.flatnonzero(keep)


def _shift(corr: np.ndarray, g: np.ndarray, rows: np.ndarray, w: np.ndarray) -> None:
    """``corr[:, rows] += g @ w``, ``_GATHER`` columns at a time.

    The columns are taken and written back, or, when ``rows`` holds every
    column (so it is ``arange(N)``), updated in place as slices.
    """
    whole = rows.size == corr.shape[1]
    for lo in range(0, rows.size, _GATHER):
        s = slice(lo, lo + _GATHER)
        if whole:
            corr[:, s] += g @ w[:, s]
        else:
            cols = rows[s]
            corr[:, cols] = corr.take(cols, axis=1) + g @ w[:, s]


def learn(Y: np.ndarray, config: LearnConfig, overwrite_y: bool = False):
    """Run the block coordinate descent learner.

    Each of ``config.iterations`` sweeps visits the atoms in index order,
    j = 0, ..., J-1, and performs the code update followed by the atom
    update, in that fixed order, always against the latest values of all
    other blocks.

    Parameters
    ----------
    Y : ndarray, shape (n, N)
        Training matrix, one signal per column.  Must be finite.  An
        all-zero matrix is allowed.  Not written unless ``overwrite_y``.
    config : LearnConfig
    overwrite_y : bool
        Carry the residual in ``Y``'s memory instead of a private N x n
        copy; ``Y`` must then be a writeable, F-ordered float64 ndarray
        (signal-major, as the patch extractors make it; the denoiser
        trains in patches gathered this way).  On return ``Y`` holds the
        final residual ``Y - D C^T``; the results are the bits of a run
        without ``overwrite_y``.  If ``learn`` raises after validation,
        ``Y``'s contents are undefined.

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
        On invalid settings (including ``code_bound <= lam``, and ``lam``
        at the largest float, above which no bound lies), or a training
        matrix whose squared norm overflows.
    InvariantError
        If the objective turns non-finite or rises over a sweep, or an
        atom update sees a vanishing residual/code product for a nonzero
        code.
    """
    given = Y
    Y = as_real_array(Y, "training matrix", ndim=2, finite=True)
    if Y.size == 0:
        raise ConfigError(f"training matrix must be non-empty, got shape {Y.shape}")
    if overwrite_y and (Y is not given or not Y.flags.writeable or not Y.T.flags.c_contiguous):
        raise ConfigError("overwrite_y needs the training matrix as a writeable, F-ordered float64 ndarray")
    n, N = Y.shape

    J = as_integer(config.num_atoms, "num_atoms", low=1)
    K = as_integer(config.iterations, "iterations", low=0)
    lam = as_real_number(config.lam, "lam", low=0.0)
    if lam == np.finfo(float).max:  # no finite code_bound lies above it
        raise ConfigError(f"lam must be below the largest float, got {lam!r}")
    bound = config.code_bound
    if bound is not None:
        bound = as_real_number(bound, "code_bound", low=lam, exclusive=True)
    if config.init_dictionary is None:
        raise ConfigError("init_dictionary is required (see the dictionaries module)")
    D = _validated_dictionary(config.init_dictionary, n, J)

    # The residual Y^T - C D^T, signal-major: row i is signal i.  The codes
    # start at zero, so it starts as Y^T.  Taken over R, ||Y||_F sums in one
    # order whatever Y's memory order.
    R = Y.T if overwrite_y else np.array(Y.T, order="C")
    # ||Y||_F^2, the objective of zero codes
    prev = as_finite(np.vdot(R, R), "training matrix is too large: its squared norm")
    ynorm = math.sqrt(prev)
    if bound is None:  # with ||Y||_F <= lam, every bound above lam gives the same run
        bound = max(ynorm, math.nextafter(lam, math.inf))

    codes = [(np.empty(0, dtype=np.intp), np.empty(0))] * J
    nnz = 0

    trace = LearnTrace(
        objective=np.empty(K),
        nsre=np.empty(K),
        sparsity_factor=np.empty(K),
        delta_dict=np.empty(K),
        delta_codes=np.empty(K),
        empty_atoms=np.empty(K, dtype=np.intp),
    )
    rounding = np.finfo(float).eps * ynorm * ynorm

    # Atom j is parked while its code is empty and its column is e1: its
    # E_j^T d_j is then exactly R[:, 0], and only the passing rows, where
    # R[i, 0] passes the threshold, can survive.  A visit changes R only on its
    # union rows, so after the atom step it rescreens R[:, 0] there, into the
    # record of passing rows.
    e1 = np.zeros(n)
    e1[0] = 1.0
    parked = (D == e1[:, None]).all(axis=0)  # every code starts empty
    passing = _survives(R[:, 0], lam)
    # One buffer serves every block and two N-byte masks every screen, so a
    # visit allocates in proportion to its union, not to N.
    corr = np.empty((min(_BLOCK, J), N))
    masks = np.empty((2, N), dtype=bool)
    # The old and new atom as the columns of g's operand; C-ordered, as an
    # F-ordered one changes the bits of the product.
    pair = np.empty((n, 2))
    for t in range(K):
        D_prev = D.copy()
        delta_codes_sq = 0.0

        lo = 0
        while lo < J:
            # An atom changes (and parks or unparks) only at its own visit, so
            # one GEMM gives every correlation R^T d_j of the next _BLOCK
            # unparked atoms; each visit then moves those of the later ones by
            # its own change to R.  The parked visits among them read R[:, 0].
            free = lo + np.flatnonzero(~parked[lo:])
            hi = free[_BLOCK] if free.size > _BLOCK else J
            block = free[:_BLOCK]
            if block.size:
                _correlations(R.T, D, block, out=corr[: block.size])
                block_atoms = D[:, block].T
            k = 0  # rows of corr used so far
            for j in range(lo, hi):
                old = codes[j]
                if parked[j] and not passing.any():
                    # No row can pass, so the code stays empty and the atom step
                    # has no rows: the atom stays e1.
                    truncated_hard_threshold(old[1], lam, bound)
                    D[:, j] = _atom_step(R, D, j, old[0], np.empty((2, 0)))
                    continue
                # The union: the rows that pass the threshold, where alone the
                # new code can live, and the old code's rows.
                if parked[j]:  # E_j^T d_j = R[:, 0], old is empty and passing its screen
                    e = R[:, 0]
                    union = np.flatnonzero(passing)
                else:  # E_j^T d_j = R^T d_j + c_j; a code's rows are distinct
                    e = corr[k]
                    e[old[0]] += old[1]
                    k += 1
                    union = _union(_survives(e, lam, masks), old[0])
                # c_j before and after on the union
                w = np.zeros((2, union.size))
                w[0, np.searchsorted(union, old[0])] = old[1]
                w[1] = truncated_hard_threshold(e[union], lam, bound)
                kept = np.flatnonzero(w[1])
                codes[j] = (union[kept], w[1, kept])
                try:
                    d_new = _atom_step(R, D, j, union, w)
                except InvariantError as exc:
                    raise InvariantError(f"iteration {t + 1}, {exc}") from exc
                passing[union] = _survives(R[union, 0], lam)
                if k < block.size and union.size:
                    # R moved by c_old d_old^T - c_new d_new^T, and so do the
                    # later correlations R^T d_i.
                    pair[:, 0] = D[:, j]
                    np.negative(d_new, out=pair[:, 1])
                    g = block_atoms[k:] @ pair
                    _shift(corr[k : block.size], g, union, w)
                delta_codes_sq += float(np.sum((w[1] - w[0]) ** 2))
                D[:, j] = d_new
                nnz += kept.size - old[0].size
                parked[j] = kept.size == 0  # an emptied atom is e1
            lo = hi

        # Exact updates cannot raise the objective, so a rise (or a NaN) is a
        # fault.  No stored code costs exactly 0, even where lam^2 overflows.
        fit = float(np.vdot(R, R))
        obj = fit + (lam * lam * nnz if nnz else 0.0)
        if not obj - prev <= max(_RISE_TOL * prev, rounding):
            raise InvariantError(f"objective rose or went non-finite at iteration {t + 1}: {prev!r} -> {obj!r}")
        trace.objective[t] = prev = obj
        trace.nsre[t] = np.sqrt(fit) / ynorm if ynorm > 0.0 else np.nan
        trace.sparsity_factor[t] = nnz / (n * N)
        trace.delta_dict[t] = float(np.linalg.norm(D - D_prev))
        trace.delta_codes[t] = np.sqrt(delta_codes_sq)
        trace.empty_atoms[t] = int(parked.sum())  # every atom was visited: parked iff its code is empty

    # Before the result is allocated, so as not to pin them in the heap; e is
    # the last visit's view of R or corr (unbound if there was no visit).
    R = corr = masks = passing = e = None
    indptr = np.concatenate(([0], np.cumsum([rows.size for rows, _ in codes])))
    C = sparse.csc_array(
        (np.concatenate([vals for _, vals in codes]), np.concatenate([rows for rows, _ in codes]), indptr),
        shape=(N, J),
    )
    return D, C, trace
