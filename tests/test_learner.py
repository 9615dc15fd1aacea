import tracemalloc

import numpy as np
import pytest
from conftest import (
    HalfStepObjectives,
    dense_objective,
    dense_residual_excluding,
    make_textured_scene,
    random_instance,
    reverse_atom_steps,
    unit_columns,
)
from scipy import sparse

import sparsedl.learner
from sparsedl.denoise import add_gaussian_noise
from sparsedl.dictionaries import overcomplete_dct_dictionary
from sparsedl.exceptions import ConfigError, InvariantError
from sparsedl.learner import (
    LearnConfig,
    atom_rhs,
    atom_update_step,
    code_rhs,
    learn,
    sparse_code_step,
    truncated_hard_threshold,
)
from sparsedl.patches import extract_patches


class TestThresholding:
    def test_threshold_semantics_under_the_bound(self):
        b = np.array([0.5, -1.0, 1.0, 1.5, -2.5, 0.0, -0.999999])
        out = truncated_hard_threshold(b, 1.0, 10.0)
        assert np.array_equal(out, [0.0, -1.0, 1.0, 1.5, -2.5, 0.0, 0.0])

    def test_threshold_keeps_exact_boundary(self):
        # magnitude exactly lam is kept, not zeroed
        assert truncated_hard_threshold(np.array([2.0, -2.0]), 2.0, 3.0).tolist() == [2.0, -2.0]

    def test_threshold_is_total(self):
        """NaN survives the threshold; an infinity clips to the bound."""
        out = truncated_hard_threshold(np.array([np.nan, np.inf, -np.inf]), 1.0, 3.0)
        assert np.isnan(out[0]) and out[1] == 3.0 and out[2] == -3.0

    def test_truncated_threshold_semantics(self):
        b = np.array([0.5, -1.0, 1.5, -2.5, 3.0])
        out = truncated_hard_threshold(b, 1.0, 2.0)
        assert np.array_equal(out, [0.0, -1.0, 1.5, -2.0, 2.0])

    def test_truncated_threshold_scalar_shape(self):
        assert truncated_hard_threshold(np.zeros(4), 0.5, 1.0).shape == (4,)

    def test_bound_must_exceed_lam(self):
        with pytest.raises(ConfigError):
            truncated_hard_threshold(np.ones(3), 1.0, 1.0)
        with pytest.raises(ConfigError):
            truncated_hard_threshold(np.ones(3), 2.0, 0.5)

    def test_zero_lam_keeps_everything(self):
        b = np.array([0.1, -0.2, 0.0])
        assert np.array_equal(truncated_hard_threshold(b, 0.0, 5.0), b)

    @pytest.mark.parametrize("lam", [0.0, 1e-300, 0.7, 2.5])
    def test_truncated_threshold_equals_clipped_hard_threshold(self, lam):
        """The threshold equals the clip of the whole hard-thresholded
        vector, formed from ``|b| >= lam``, at every boundary value (NaN,
        which the oracle would zero, is left out of the draws)."""
        rng = np.random.default_rng(18)
        bound = 3.0
        tiny = np.finfo(float).smallest_subnormal
        salt = [lam, -lam, bound, -bound, 0.0, -0.0, tiny, -tiny, 1e3 * tiny, np.inf, -np.inf, np.nan]
        for _ in range(20):
            b = np.concatenate((rng.standard_normal(200) * 2.0, rng.choice(salt, 100)))
            rng.shuffle(b)
            b = b[~np.isnan(b)]
            want = np.clip(np.where(np.abs(b) >= lam, b, 0.0), -bound, bound)
            assert np.array_equal(truncated_hard_threshold(b, lam, bound), want)


def _non_canonical(C):
    """Dense ``C`` as a CSC array that is not canonical: every nonzero is
    stored as two halves, each column also stores 0.0 on its first row and
    -0.0 on its last, and the rows of a column are not sorted."""
    N, J = C.shape
    rows, cols = np.nonzero(C)
    halves = C[rows, cols] / 2.0
    r = np.concatenate([rows, rows, np.zeros(J, int), np.full(J, N - 1)])
    c = np.concatenate([cols, cols, np.arange(J), np.arange(J)])
    v = np.concatenate([halves, halves, np.zeros(J), np.full(J, -0.0)])
    order = np.argsort(c, kind="stable")
    M = sparse.csc_array((v[order], r[order], np.searchsorted(c[order], np.arange(J + 1))), shape=(N, J))
    assert not M.has_canonical_format and M.nnz == 2 * rows.size + 2 * J
    return M


class TestStepOracles:
    def test_code_rhs_matches_dense_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, N, J = rng.integers(2, 9), rng.integers(3, 15), rng.integers(2, 7)
            Y, D, C = random_instance(rng, n, N, J)
            j = int(rng.integers(J))
            want = dense_residual_excluding(Y, D, C, j).T @ D[:, j]
            got = code_rhs(Y, D, C, j)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)
            for codes in (sparse.csc_array(C), _non_canonical(C)):
                assert np.allclose(code_rhs(Y, D, codes, j), want, rtol=1e-10, atol=1e-12)

    def test_atom_rhs_matches_dense_residual(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n, N, J = rng.integers(2, 9), rng.integers(3, 15), rng.integers(2, 7)
            Y, D, C = random_instance(rng, n, N, J)
            j = int(rng.integers(J))
            c_new = rng.standard_normal(N) * (rng.random(N) < 0.5)
            want = dense_residual_excluding(Y, D, C, j) @ c_new
            for codes in (C, sparse.csc_array(C), _non_canonical(C)):
                assert np.allclose(atom_rhs(Y, D, codes, j, c_new), want, rtol=1e-10, atol=1e-12)

    def test_atom_rhs_gathers_a_support_wider_than_one_chunk(self):
        rng = np.random.default_rng(19)
        Y, D, C = random_instance(rng, 6, 10_000, 4)
        c_new = rng.standard_normal(10_000)
        want = dense_residual_excluding(Y, D, C, 2) @ c_new
        for codes in (C, sparse.csc_array(C)):
            assert np.allclose(atom_rhs(Y, D, codes, 2, c_new), want, rtol=1e-10, atol=1e-12)

    def test_sparse_code_step_is_thresholded_rhs(self):
        rng = np.random.default_rng(13)
        Y, D, C = random_instance(rng, 6, 20, 4)
        got = sparse_code_step(Y, D, C, 1, 0.8, 4.0)
        want = truncated_hard_threshold(code_rhs(Y, D, C, 1), 0.8, 4.0)
        assert np.array_equal(got, want)

    def test_sparse_code_step_improves_objective(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            Y, D, C = random_instance(rng, 5, 12, 3)
            lam, bound = 0.5, 10.0
            j = int(rng.integers(3))
            before = dense_objective(Y, D, C, lam)
            C2 = np.array(C)
            C2[:, j] = sparse_code_step(Y, D, C, j, lam, bound)
            assert dense_objective(Y, D, C2, lam) <= before + 1e-10 * abs(before)

    @pytest.mark.parametrize("j", [-1, 3, 1.5])
    def test_single_column_steps_reject_bad_index(self, j):
        """An index outside [0, J) or not an integer raises, for a dense or
        a sparse C alike; -1 does not wrap to the last atom."""
        rng = np.random.default_rng(15)
        Y, D, C = random_instance(rng, 4, 6, 3)
        code = np.ones(6)
        for codes in (C, sparse.csc_array(C)):
            for call in (
                lambda: code_rhs(Y, D, codes, j),
                lambda: sparse_code_step(Y, D, codes, j, 0.5, 2.0),
                lambda: atom_rhs(Y, D, codes, j, code),
                lambda: atom_update_step(Y, D, codes, j, code),
            ):
                with pytest.raises(ConfigError, match="atom index"):
                    call()

    def test_atom_update_is_normalized_rhs(self):
        rng = np.random.default_rng(16)
        Y, D, C = random_instance(rng, 6, 15, 4)
        c_new = sparse_code_step(Y, D, C, 2, 0.3, 50.0)
        d = atom_update_step(Y, D, C, 2, c_new)
        h = atom_rhs(Y, D, C, 2, c_new)
        assert np.allclose(d, h / np.linalg.norm(h), rtol=1e-12, atol=1e-14)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12

    def test_atom_update_zero_code_gives_e1(self):
        rng = np.random.default_rng(17)
        Y, D, C = random_instance(rng, 5, 8, 3)
        e1 = atom_update_step(Y, D, C, 0, np.zeros(8))
        assert np.array_equal(e1, np.eye(5)[0])

    def test_atom_update_zero_product_is_invariant_error(self):
        # nonzero code whose residual/code product vanishes by construction
        D = np.eye(2)
        C = np.zeros((2, 2))
        Y = np.zeros((2, 2))
        c_new = np.array([1.0, -1.0])
        Y[:, 0] = 0.0  # E_0 = Y = 0, so E_0 @ c_new = 0
        with pytest.raises(InvariantError):
            atom_update_step(Y, D, C, 0, c_new)


def _default_config(J, K, lam, D0, **kw):
    return LearnConfig(num_atoms=J, iterations=K, lam=lam, init_dictionary=D0, **kw)


# J=5 fits in one of the learner's blocks of correlations; the others put
# one atom either side of a full block, fill one block exactly, and leave one
# atom for a third block.  37 ends on a partial block.  The J=5 cases keep
# their original ids.  A "warm" case restarts, from zero codes, on the
# dictionary that two sweeps of learn made from the drawn one, so atoms that
# learn emptied start on e1, parked, next to atoms it adapted.
_B = sparsedl.learner._BLOCK
_SWEEP_CASES = [(warm, J) for J in (5, _B - 1, _B, _B + 1, 2 * _B + 1, 37) for warm in (False, True)]
_SWEEP_IDS = [("warm" if warm else "zero-init") + (f"-J{J}" if J != 5 else "") for warm, J in _SWEEP_CASES]
# What each trial of the reference sweep draws on top of its case.  "mixed"
# alternates a lam that keeps most codes with one high enough that some come
# back empty, so atoms park on e1; "clipping" sets code_bound just above lam,
# so the truncation binds; "lam-zero" keeps every code, so no atom parks;
# "most-parked" empties most codes, so several atoms sit on e1 at once;
# "zero-signals" zeros about a third of the signals; "e1-atoms" starts the
# first and last atoms on e1, so they are parked from the start.
_SWEEP_REGIMES = ["mixed", "clipping", "lam-zero", "most-parked", "zero-signals", "e1-atoms"]


def _reference_sweeps(Y, D0, K, lam, bound):
    """A literal sweep of the public single-column operations, K times,
    from zero codes.

    Code step, then atom step, both against the pre-commit state, atoms in
    index order.  Returns ``(D, C, visits with an empty code)``.
    """
    J = D0.shape[1]
    D_ref = np.array(D0, dtype=float)
    C_ref = np.zeros((Y.shape[1], J))
    empty = 0
    for _ in range(K):
        for j in range(J):
            c = sparse_code_step(Y, D_ref, C_ref, j, lam, bound)
            d = atom_update_step(Y, D_ref, C_ref, j, c)
            empty += not c.any()
            C_ref[:, j] = c
            D_ref[:, j] = d
    return D_ref, C_ref, empty


def _assert_matches_reference(Y, D0, K, lam, bound=None):
    """Assert that ``learn`` ends on the reference sweeps at 1e-10.

    ``bound=None`` is ``learn``'s default, ``||Y||_F``.  Returns ``learn``'s
    D, its C as a dense array and the reference's count of visits with an
    empty code.
    """
    D_ref, C_ref, empty = _reference_sweeps(Y, D0, K, lam, float(np.linalg.norm(Y)) if bound is None else bound)
    D, C, _ = learn(Y, _default_config(D0.shape[1], K, lam, D0, code_bound=bound))
    C = C.toarray()
    assert np.allclose(D, D_ref, rtol=1e-10, atol=1e-12)
    assert np.allclose(C, C_ref, rtol=1e-10, atol=1e-12)
    return D, C, empty


def _record_gemm_atoms(monkeypatch):
    """Wrap ``learn``'s block GEMM; returns the list of atom lists it receives."""
    gemms = []
    correlations = sparsedl.learner._correlations

    def spy(Y, D, atoms, out=None):
        gemms.append([int(a) for a in atoms])
        return correlations(Y, D, atoms, out)

    monkeypatch.setattr(sparsedl.learner, "_correlations", spy)
    return gemms


def _small_scene_patches(size=48):
    """Centered 8x8 patches (stride 1) of a small noisy scene at sigma 20."""
    noisy = add_gaussian_noise(make_textured_scene(size=size, seed=3), 20.0, seed=1)
    Y = extract_patches(noisy, 8, 1)
    Y -= Y.mean(axis=0)
    return Y


class TestLearn:
    @pytest.mark.parametrize("regime", _SWEEP_REGIMES)
    @pytest.mark.parametrize("warm, J", _SWEEP_CASES, ids=_SWEEP_IDS)
    def test_matches_reference_sweep_of_public_steps(self, warm, J, regime):
        """The fused implementation must equal a literal sweep of the
        public single-column operations (code step, then atom step, both
        against the pre-commit state), in each regime of _SWEEP_REGIMES.
        The reference steps form their own correlations, so the cases with
        J above the learner's block of _BLOCK unparked atoms check the
        blocked ones."""
        rng = np.random.default_rng(30)
        n, N, K, trials = 6, 25, 3, 8
        empty = clipped = 0
        for trial in range(trials):
            Y = rng.standard_normal((n, N)) * 2.0
            D0 = unit_columns(rng, n, J)
            lam = (0.6, 4.0)[trial % 2]
            bound = None
            if regime == "clipping":
                bound = lam + 0.5
            elif regime == "lam-zero":
                lam = 0.0
            elif regime == "most-parked":
                lam = 4.5
            elif regime == "zero-signals":
                zero = rng.random(N) < 0.3
                Y[:, zero] = 0.0
            if warm:
                D0 = learn(Y, _default_config(J, 2, lam, D0, code_bound=bound))[0]
            if regime == "e1-atoms":
                D0[:, [0, -1]] = np.eye(n)[:, [0]]
            _, C, visits = _assert_matches_reference(Y, D0, K, lam, bound)
            empty += visits
            if bound is not None:
                clipped += np.count_nonzero(np.abs(C) == bound)
            if regime == "zero-signals":
                assert not C[zero].any()  # a zero signal's residual row stays zero
        if regime == "lam-zero":
            assert empty == 0
        elif regime == "most-parked":
            assert empty > trials * K * J // 2
        else:
            assert empty > 0
        if regime == "clipping":
            assert clipped > 0

    @pytest.mark.parametrize("lam", [0.4, 5.0], ids=["wide-codes", "parking"])
    @pytest.mark.parametrize("warm", [False, True], ids=["zero-init", "warm"])
    def test_training_matrix_buffer_contract(self, warm, lam):
        """learn(Y) never writes Y; with overwrite_y it leaves the residual
        there; the memory order of Y and overwriting change no bit.  At the
        low lam some codes span two _GATHER chunks; at the high one atoms
        park every sweep, so parked visits read R[:, 0] from the buffer.  A
        warm run restarts on the dictionary of a two-sweep run."""
        rng = np.random.default_rng(45)
        n, N, J = 6, 5000, 9  # N over one _GATHER, so some supports span two chunks
        Y0 = rng.standard_normal((n, N)) + 3.0 * rng.standard_normal((n, 1))
        D0 = unit_columns(rng, n, J)
        if warm:
            D0 = learn(Y0, _default_config(J, 2, lam, D0))[0]
        config = _default_config(J, 3, lam, D0)

        def run(Y, **kw):
            D, C, trace = learn(Y, config, **kw)
            return D, C.toarray(), trace.objective, trace.nsre, trace.delta_codes, trace.empty_atoms

        want = run(Y0.copy())
        for Y in (Y0.copy(), np.asfortranarray(Y0)):
            assert all(np.array_equal(a, b) for a, b in zip(run(Y), want))
            assert np.array_equal(Y, Y0)
        assert np.abs(want[1]).max() > 0.0
        if lam < 1.0:
            assert any(np.count_nonzero(want[1][:, j]) > sparsedl.learner._GATHER for j in range(J))
        else:
            assert want[5].min() > 0
        residual = Y0 - want[0] @ want[1].T
        Y = np.asfortranarray(Y0)
        got = run(Y, overwrite_y=True)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert np.linalg.norm(Y - residual) <= 1e-10 * np.linalg.norm(residual)
        frozen = np.asfortranarray(Y0)
        frozen.flags.writeable = False
        for bad in (Y0.astype(np.float32), Y0.tolist(), frozen, Y0.copy()):
            with pytest.raises(ConfigError, match="overwrite_y"):
                learn(bad, config, overwrite_y=True)

    @pytest.mark.parametrize("overwrite", [False, True], ids=["private", "overwrite_y"])
    def test_memory_is_one_residual_at_most(self, overwrite):
        """At N=20,000, n=64, J=256 the traced peak of learn is one N x n
        residual (none with overwrite_y) plus the block of correlations,
        two gather chunks and a few N-vectors.  A constant atom gives a
        code with full support, whose gather must still be chunked."""
        rng = np.random.default_rng(46)
        n, N, J = 64, 20_000, 256
        Y = np.asfortranarray(50.0 + 10.0 * rng.standard_normal((n, N)))
        D0 = unit_columns(rng, n, J)
        D0[:, 0] = 1.0 / np.sqrt(n)
        config = _default_config(J, 1, 30.0, D0)
        residual = N * n * 8
        working = (sparsedl.learner._BLOCK + 16) * N * 8 + 2 * sparsedl.learner._GATHER * n * 8
        tracemalloc.start()
        try:
            _, C, _ = learn(Y, config, overwrite_y=overwrite)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert C[:, [0]].nnz == N
        assert peak <= working + (0 if overwrite else residual)
        assert working < residual

    @pytest.mark.parametrize(
        "settings",
        [
            {"init_dictionary": None},
            {"init_dictionary": np.ones((64, 8))},
            {"lam": "0.5"},
            {"num_atoms": True, "init_dictionary": np.eye(64, 1)},
            {"iterations": True},
            {"code_bound": "5"},
            {"code_bound": np.nan},
            {"code_bound": 0.5},
        ],
        ids=[
            "no_dictionary",
            "dictionary_shape",
            "lam_string",
            "num_atoms_bool",
            "iterations_bool",
            "code_bound_string",
            "code_bound_nan",
            "code_bound_not_above_lam",
        ],
    )
    def test_bad_config_is_rejected_before_copying_y(self, settings):
        """A config error is raised before the N x n residual copy of Y is made."""
        Y = np.ones((64, 20_000))
        D0 = unit_columns(np.random.default_rng(7), 64, 16)
        config = LearnConfig(**{**dict(num_atoms=16, iterations=1, lam=1.0, init_dictionary=D0), **settings})
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError):
                learn(Y, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < Y.nbytes / 4

    def test_thresholds_the_union_of_passing_and_old_rows(self, monkeypatch):
        """Each visit hands the threshold its correlations on the rows it
        then hands the atom step, parked or not, and a value there below lam
        lies on a row of the old code: the other rows passed the screen."""
        Y = _small_scene_patches()
        lam, J, K = 100.0, 64, 3
        inputs, steps = [], []
        threshold = sparsedl.learner.truncated_hard_threshold
        step = sparsedl.learner._atom_step

        def threshold_spy(b, *args):
            inputs.append(np.array(b))
            return threshold(b, *args)

        def step_spy(R, D, j, rows, w):
            steps.append(w[0].copy())
            return step(R, D, j, rows, w)

        monkeypatch.setattr(sparsedl.learner, "truncated_hard_threshold", threshold_spy)
        monkeypatch.setattr(sparsedl.learner, "_atom_step", step_spy)
        learn(Y, _default_config(J, K, lam, overcomplete_dct_dictionary(64, J)))
        assert len(inputs) == len(steps) == K * J
        below = 0
        for b, old in zip(inputs, steps):
            assert b.size == old.size
            low = np.abs(b) < lam
            assert np.all(old[low] != 0.0)
            below += int(np.count_nonzero(low))
        assert below > 0

    def test_trace_matches_recomputation(self):
        rng = np.random.default_rng(31)
        Y = rng.standard_normal((8, 30))
        D0 = unit_columns(rng, 8, 6)
        lam = 0.5
        D, C, trace = learn(Y, _default_config(6, 4, lam, D0))
        assert len(trace) == 4
        dense = C.toarray()
        assert np.isclose(trace.objective[-1], dense_objective(Y, D, dense, lam), rtol=1e-10)
        assert np.isclose(trace.nsre[-1], np.linalg.norm(Y - D @ dense.T) / np.linalg.norm(Y), rtol=1e-10)
        assert np.isclose(trace.sparsity_factor[-1], C.nnz / (8 * 30), rtol=1e-12)
        assert np.all(np.diff(trace.objective) <= 1e-9 * np.abs(trace.objective[:-1]))

    def test_empty_atoms_counts_the_empty_codes_of_each_sweep(self):
        """On the patches of a small noisy scene at the denoiser's lam, many
        codes come back empty; trace.empty_atoms[t] counts them after sweep
        t + 1, as the codes of a (t + 1)-sweep run show."""
        Y = _small_scene_patches()
        D0 = overcomplete_dct_dictionary(64, 64)
        K = 4
        _, _, trace = learn(Y, _default_config(64, K, 100.0, D0))
        want = [np.sum(np.diff(learn(Y, _default_config(64, t, 100.0, D0))[1].indptr) == 0) for t in range(1, K + 1)]
        assert trace.empty_atoms.tolist() == want and min(want) > 0
        assert learn(Y, _default_config(64, 0, 100.0, D0))[2].empty_atoms.size == 0

    def test_delta_columns_measure_iterate_change(self):
        rng = np.random.default_rng(32)
        Y = rng.standard_normal((6, 18))
        D0 = unit_columns(rng, 6, 4)
        D1, C1, t1 = learn(Y, _default_config(4, 1, 0.4, D0))
        assert np.isclose(t1.delta_dict[0], np.linalg.norm(D1 - D0), rtol=1e-12)
        # from zero initial codes, the first code delta is ||C^1||_F
        assert np.isclose(t1.delta_codes[0], sparse.linalg.norm(C1), rtol=1e-12)

    def test_rank_one_exact_recovery_lam_zero(self):
        rng = np.random.default_rng(33)
        u = rng.standard_normal(7)
        v = rng.standard_normal(40)
        Y = np.outer(u, v)
        D0 = unit_columns(rng, 7, 1)
        D, C, trace = learn(Y, _default_config(1, 2, 0.0, D0, code_bound=1e6))
        fit = np.linalg.norm(Y - D @ np.asarray(C.todense()).T) ** 2
        assert fit < 1e-20 * np.linalg.norm(Y) ** 2
        assert trace.nsre[-1] < 1e-10

    def test_lam_zero_stores_no_zeros(self):
        # Zero signals give exactly zero correlations, which a threshold at
        # 0 keeps in the dense code; the store must still drop them.
        rng = np.random.default_rng(44)
        Y = rng.standard_normal((5, 30))
        Y[:, ::3] = 0.0
        D0 = unit_columns(rng, 5, 4)
        _, C, _ = learn(Y, _default_config(4, 2, 0.0, D0, code_bound=1e6))
        assert C.nnz > 0 and np.all(C.data != 0)

    def test_rank_one_with_threshold_counts_support(self):
        rng = np.random.default_rng(34)
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v = np.array([3.0, 0.0, -2.0, 0.0, 0.0, 1.5, 0.0, 0.0])
        Y = np.outer(u, v)
        D, C, trace = learn(
            Y, _default_config(1, 3, 1.0, u[:, None], code_bound=100.0)
        )
        c = np.asarray(C.todense()).ravel()
        assert set(np.flatnonzero(c)) == {0, 2, 5}
        # exact fit on the surviving support, so objective = lam^2 * nnz
        assert trace.objective[-1] == pytest.approx(1.0 * 3, rel=1e-10)

    def test_half_step_objectives_never_rise(self, monkeypatch):
        rng = np.random.default_rng(35)
        Y = rng.standard_normal((6, 20))
        D0 = unit_columns(rng, 6, 5)
        half_steps = HalfStepObjectives(monkeypatch, Y, D0, 0.5)
        D, C, _ = learn(Y, _default_config(5, 3, 0.5, D0))
        half_steps.assert_replays(D, C)
        seq = half_steps.sequence(3, 5)
        assert seq[0] == dense_objective(Y, D0, np.zeros((20, 5)), 0.5)
        drops = np.diff(seq)
        assert np.all(drops <= 1e-9 * np.abs(seq[:-1]))

    def test_objective_rise_names_the_iteration(self, monkeypatch):
        # Inexact atom steps from the second sweep on: learn must stop there.
        rng = np.random.default_rng(38)
        Y = rng.standard_normal((6, 30))
        D0 = unit_columns(rng, 6, 5)
        reverse_atom_steps(monkeypatch, from_visit=5)
        with pytest.raises(InvariantError, match=r"objective rose or went non-finite at iteration 2: ") as err:
            learn(Y, _default_config(5, 3, 0.5, D0))
        before, after = map(float, str(err.value).rsplit(": ", 1)[1].split(" -> "))
        assert after > before > 0.0

    def test_exact_fits_are_not_taken_for_rises(self):
        # A rank-one Y at lam 0 is fit exactly, so each sweep's objective
        # is rounding noise that may grow relative to itself.
        rng = np.random.default_rng(39)
        for _ in range(50):
            Y = np.outer(unit_columns(rng, 5, 1), rng.standard_normal(8) * 10 ** rng.uniform(-3, 3))
            _, _, trace = learn(Y, _default_config(1, 4, 0.0, unit_columns(rng, 5, 1), code_bound=1e9))
            assert trace.objective[-1] < 1e-20 * np.linalg.norm(Y) ** 2

    def test_zero_iterations_returns_init(self):
        rng = np.random.default_rng(36)
        Y = rng.standard_normal((4, 9))
        D0 = unit_columns(rng, 4, 3)
        D, C, trace = learn(Y, _default_config(3, 0, 0.5, D0))
        assert np.allclose(D, D0)
        assert C.nnz == 0
        assert len(trace) == 0

    def test_vanishing_product_names_iteration_and_atom(self, monkeypatch):
        rng = np.random.default_rng(43)
        Y = rng.standard_normal((4, 10))
        D0 = unit_columns(rng, 4, 3)
        step = sparsedl.learner._atom_step

        def zero_product(R, D, j, rows, w):
            # A zero residual and old code make E_j c vanish for any new code.
            return step(np.zeros_like(R), D, j, rows, w * [[0.0], [1.0]])

        monkeypatch.setattr(sparsedl.learner, "_atom_step", zero_product)
        with pytest.raises(InvariantError, match=r"iteration 1, atom 0:"):
            learn(Y, _default_config(3, 2, 0.1, D0))

    def test_zero_training_matrix(self):
        """The default bound, ||Y||_F = 0 at or below lam, gives the bits of
        any explicit bound above lam."""
        Y = np.zeros((3, 5))
        D0 = np.eye(3)

        def run(**kw):
            D, C, trace = learn(Y, _default_config(3, 1, 0.5, D0, **kw))
            return D, C, trace, [D, C.indptr, C.indices, C.data, *vars(trace).values()]

        D, C, trace, got = run()
        want = run(code_bound=1.0)[3]
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))
        assert C.nnz == 0
        assert np.isnan(trace.nsre[0]) and trace.objective[0] == 0.0
        assert np.array_equal(D, np.column_stack([np.eye(3)[0]] * 3))  # every emptied atom is e1

    def test_huge_lam_stores_no_code_and_keeps_the_objective(self):
        """At lam 1e200, lam^2 overflows; with no code stored the objective is the fit."""
        _, C, trace = learn(np.ones((4, 6)), LearnConfig(4, 1, 1e200, np.eye(4)))
        assert C.nnz == 0 and trace.objective.tolist() == [24.0]

    def test_largest_lam_is_config_error(self):
        """No finite code_bound lies above the largest float, so that lam is
        rejected by name even when the caller sets no bound."""
        with pytest.raises(ConfigError, match="^lam must be below the largest float"):
            learn(np.ones((4, 6)), LearnConfig(4, 1, np.finfo(float).max, np.eye(4)))

    @pytest.mark.parametrize("code_bound", [None, 1e300], ids=["default-bound", "explicit-bound"])
    def test_overflowing_training_matrix_is_config_error(self, code_bound):
        """A finite Y whose ||Y||_F^2 overflows is rejected by name, with no
        warning and before the residual is written, whatever the bound."""
        Y = np.full((4, 6), 1e160, order="F")
        with pytest.raises(ConfigError, match="^training matrix is too large"):
            learn(Y, LearnConfig(4, 1, 1.0, np.eye(4), code_bound=code_bound), overwrite_y=True)
        assert np.all(Y == 1e160)

    def test_default_bound_at_a_norm_of_lam(self):
        """With ||Y||_F = lam one code entry, of magnitude lam, can be stored;
        the default bound keeps it, as every bound above lam does."""
        Y = np.zeros((3, 5))
        Y[0, 2] = 0.5
        runs = [learn(Y, _default_config(3, 2, 0.5, np.eye(3), **kw)) for kw in ({}, {"code_bound": 1e6})]
        for D, C, trace in runs:
            assert np.array_equal(D, runs[0][0]) and np.array_equal(trace.objective, [0.25, 0.25])
            assert C.nnz == 1 and C[2, 0] == 0.5

    def test_codes_respect_bound_exactly(self):
        rng = np.random.default_rng(39)
        Y = 5.0 * rng.standard_normal((4, 30))
        D0 = unit_columns(rng, 4, 3)
        bound = 2.0
        _, C, _ = learn(Y, _default_config(3, 3, 0.5, D0, code_bound=bound))
        assert C.nnz > 0
        assert np.max(np.abs(C.data)) <= bound
        assert np.min(np.abs(C.data)) >= 0.5  # surviving entries cleared the threshold

    def test_validation_errors(self):
        rng = np.random.default_rng(40)
        Y = rng.standard_normal((4, 6))
        D0 = unit_columns(rng, 4, 3)
        with pytest.raises(ConfigError):
            learn(np.full((4, 6), np.nan), _default_config(3, 1, 0.5, D0))
        with pytest.raises(ConfigError):
            learn(Y[0], _default_config(3, 1, 0.5, D0))
        with pytest.raises(ConfigError):
            learn(Y, _default_config(0, 1, 0.5, D0))
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, -1, 0.5, D0))
        with pytest.raises(ConfigError, match="real"):
            learn(np.ones((4, 6)) + 1j, _default_config(3, 1, 0.5, D0))
        with pytest.raises(ConfigError, match="num_atoms must be an integer"):
            learn(Y, _default_config(4.5, 1, 0.5, D0))
        with pytest.raises(ConfigError, match="iterations must be an integer"):
            learn(Y, _default_config(3, 1.7, 0.5, D0))
        for settings, match in (
            (dict(lam="0.5"), "lam must be a real number"),
            (dict(lam=np.complex128(0.5)), "lam must be a real number"),
            (dict(J=True, D0=D0[:, :1]), "num_atoms must be an integer"),
        ):
            with pytest.raises(ConfigError, match=match):
                learn(Y, _default_config(**{**dict(J=3, K=1, lam=0.5, D0=D0), **settings}))
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, 1, -0.5, D0))
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, 1, 0.5, D0, code_bound=0.4))  # bound <= lam
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, 1, 0.5, None))
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, 1, 0.5, 2.0 * D0))  # columns not unit
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, 1, 0.5, D0[:, :2]))  # shape mismatch
        with pytest.raises(ConfigError, match="real"):
            learn(Y, _default_config(3, 1, 0.5, D0 + 0j))
        codes = np.zeros((6, 3), dtype=complex)
        codes[0, 0] = 1.0 + 1j
        C = np.zeros((6, 3))
        nan_codes = C.copy()
        nan_codes[2, 1] = np.nan
        bad_codes = (
            (nan_codes, "finite"),
            (sparse.csc_array(nan_codes), "finite"),
            (np.zeros((6, 2)), "shape"),
            (sparse.csc_array((5, 3)), "shape"),
            (np.zeros(6), "shape"),
        )
        for Cb, match in bad_codes:
            for call in (
                lambda: code_rhs(Y, D0, Cb, 0),
                lambda: sparse_code_step(Y, D0, Cb, 0, 0.5, 3.0),
                lambda: atom_rhs(Y, D0, Cb, 0, np.ones(6)),
                lambda: atom_update_step(Y, D0, Cb, 0, np.ones(6)),
            ):
                with pytest.raises(ConfigError, match=match):
                    call()
        non_finite = ((np.where(Y > 0, np.nan, Y), D0, "training matrix"), (Y, np.full_like(D0, np.inf), "dictionary"))
        for Yb, Db, match in non_finite:
            for call in (
                lambda: code_rhs(Yb, Db, C, 0),
                lambda: sparse_code_step(Yb, Db, C, 0, 0.5, 3.0),
                lambda: atom_rhs(Yb, Db, C, 0, np.ones(6)),
                lambda: atom_update_step(Yb, Db, C, 0, np.ones(6)),
            ):
                with pytest.raises(ConfigError, match=f"^{match} must be finite$"):
                    call()
        # Y, D and the new code must agree in shape with each other, not only with C.
        D3 = unit_columns(rng, 3, 3)
        for call in (
            lambda: code_rhs(Y, D3, C, 0),
            lambda: sparse_code_step(Y, D3, C, 0, 0.5, 3.0),
            lambda: atom_rhs(Y, D3, C, 0, np.ones(6)),
            lambda: atom_update_step(Y, D3, C, 0, np.ones(6)),
        ):
            with pytest.raises(ConfigError, match="dictionary rows 3 do not match the signal length 4"):
                call()
        for new_code, match in ((np.ones(5), "new code length 5"), (np.ones((6, 1)), "new code must be 1-D")):
            for step in (atom_rhs, atom_update_step):
                with pytest.raises(ConfigError, match=match):
                    step(Y, D0, C, 0, new_code)
        # A negative lam would keep every entry, so no step would minimize the objective.
        for lam in (1j, "0.5", None, np.nan, -1.0):
            for call in (
                lambda: truncated_hard_threshold(np.array([2.0, 0.1]), lam, 3.0),
                lambda: sparse_code_step(Y, D0, C, 0, lam, 3.0),
            ):
                with pytest.raises(ConfigError, match="lam must be"):
                    call()
        for code_bound in ("3", 3j):
            with pytest.raises(ConfigError, match="code_bound must be"):
                truncated_hard_threshold(np.array([2.0, 0.1]), 0.5, code_bound)
        complex_code = np.array([1.0 + 1j, 0.0, 0.0, 0.0, 0.0, 0.0])
        for call in (
            lambda: truncated_hard_threshold(np.array([2 + 1j, 0.1]), 0.5, 3.0),
            lambda: code_rhs(Y + 1j, D0, C, 0),
            lambda: code_rhs(Y, D0 + 0j, C, 0),
            lambda: code_rhs(Y, D0, codes, 0),
            lambda: code_rhs(Y, D0, sparse.csc_array(codes), 0),
            lambda: sparse_code_step(Y + 1j, D0, C, 0, 0.5, 3.0),
            lambda: atom_rhs(Y + 1j, D0, C, 0, np.ones(6)),
            lambda: atom_rhs(Y, D0, C, 0, complex_code),
            lambda: atom_update_step(Y, D0, C, 0, complex_code),
        ):
            with pytest.raises(ConfigError, match="real"):
                call()

    def test_single_row_signals(self):
        rng = np.random.default_rng(41)
        Y = rng.standard_normal((1, 12))
        D0 = np.array([[1.0, -1.0]])
        D, C, trace = learn(Y, _default_config(2, 2, 0.1, D0))
        assert D.shape == (1, 2)
        assert np.allclose(np.abs(D), 1.0)
        assert np.all(np.diff(trace.objective) <= 1e-12 + 1e-9 * np.abs(trace.objective[:-1]))


class TestParkedAtoms:
    """An atom whose code is empty and whose column is e1 is parked: ``learn``
    reads its correlations from ``R[:, 0]``, over the rows that can pass the
    threshold, instead of a row of a block GEMM.  These cases are built so
    that the row count changes inside a block."""

    # Signals are columns; atom 1 is e1, so it starts parked.
    D0 = np.column_stack(([1.0, 1.0, 0.0, 0.0], np.eye(4)[0], [0.6, 0.0, 0.8, 0.0])) / [np.sqrt(2.0), 1.0, 1.0]

    # Signal 0 is the one row whose first entry passes lam = 0.5, and atom 0
    # takes it in sweep 1; atom 2 correlates below lam with every signal, so
    # its first visit empties its code and puts it on e1.
    Y_ONE_HOT_ROW = np.array([[2.0, 0.0, 0.1], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 2.0]])

    @staticmethod
    def _lifted_row_family(monkeypatch, trials=40, lam=0.5, K=3):
        """Yield ``(Y, D0, lam, K, run)`` for seeded small instances with
        atom 1 on e1, where ``run()`` calls ``learn`` and returns whether a
        parked visit took a row that did not pass when its block's GEMM was
        formed: a row that an earlier visit of the block lifted over lam.
        J = 3 is one block per sweep, formed at the sweep's first visit."""
        rng = np.random.default_rng(49)
        n, N, J = 4, 6, 3
        e1 = np.eye(n)[0]
        correlations = sparsedl.learner._correlations
        step = sparsedl.learner._atom_step
        state = {}

        def gemm_spy(R, D, atoms, out=None):
            state["passing"] = np.abs(R[0]) >= lam  # R here is R^T, so R[0] is R[:, 0]
            state["sweep"] = state["visits"] // J
            return correlations(R, D, atoms, out)

        def step_spy(R, D, j, rows, w):
            same_block = state["sweep"] == state["visits"] // J
            if same_block and np.array_equal(D[:, j], e1) and not w[0].any():  # parked
                state["lifted"] |= bool(np.any(w[1][~state["passing"][rows]]))
            state["visits"] += 1
            return step(R, D, j, rows, w)

        monkeypatch.setattr(sparsedl.learner, "_correlations", gemm_spy)
        monkeypatch.setattr(sparsedl.learner, "_atom_step", step_spy)
        for _ in range(trials):
            Y = rng.standard_normal((n, N))
            D0 = unit_columns(rng, n, J)
            D0[:, 1] = e1

            def run(Y=Y, D0=D0):
                state.update(visits=0, sweep=-1, lifted=False)
                learn(Y, _default_config(J, K, lam, D0))
                return state["lifted"]

            yield Y, D0, lam, K, run

    def test_parked_visit_takes_a_row_an_earlier_visit_lifted(self, monkeypatch):
        """A parked atom's screen is the record of passing rows, brought up to
        date by each visit of its block.  Over a seeded family, parked visits
        take rows that an earlier visit of the block lifted over lam, and
        learn still ends on the reference sweeps."""
        lifted = 0
        for Y, D0, lam, K, run in self._lifted_row_family(monkeypatch):
            lifted += run()
            _assert_matches_reference(Y, D0, K, lam)
        assert lifted > 0

    def test_only_gemm_rows_are_screened(self, monkeypatch):
        """In the lifted-row family, parked visits read their screen off the
        record of passing rows: the screens into the reusable masks (the
        _survives calls with out=) are the rows of the block GEMMs."""
        gemms = _record_gemm_atoms(monkeypatch)
        screens = []
        survives = sparsedl.learner._survives

        def spy(b, lam, out=None):
            if out is not None:
                screens.append(np.size(b))
            return survives(b, lam, out)

        monkeypatch.setattr(sparsedl.learner, "_survives", spy)
        lifted = 0
        for *_, run in self._lifted_row_family(monkeypatch):
            gemms.clear()
            screens.clear()
            lifted += run()
            assert len(screens) == sum(map(len, gemms)) > 0
        assert lifted > 0

    def test_parked_visit_after_the_last_hot_row_stays_empty(self, monkeypatch):
        """Signal 0 is the one row with |R[i, 0]| >= lam; atom 0's visit takes
        it into its code.  Atom 1's parked visit must then threshold no rows
        and stay parked, sweep after sweep; atom 2 parks after sweep 1."""
        Y, lam = self.Y_ONE_HOT_ROW, 0.5
        assert np.count_nonzero(np.abs(Y[0]) >= lam) == 1
        D, C, _ = _assert_matches_reference(Y, self.D0, 3, lam)
        assert not C[:, 1:].any() and np.array_equal(D[:, 1], np.eye(4)[0])
        gemms = _record_gemm_atoms(monkeypatch)
        sizes = []
        threshold = sparsedl.learner.truncated_hard_threshold

        def spy(b, *args):
            sizes.append(np.size(b))
            return threshold(b, *args)

        monkeypatch.setattr(sparsedl.learner, "truncated_hard_threshold", spy)
        learn(Y, _default_config(3, 3, lam, self.D0))
        assert gemms == [[0, 2], [0], [0]]
        assert sizes[1::3] == [0, 0, 0]  # atom 1's visits threshold no rows

    def test_parked_visit_without_a_hot_row_builds_no_union(self, monkeypatch):
        """With no hot row left, parked visits still threshold and take the
        atom step, on no rows, but gather nothing: no union of old and new
        code is built for atom 1, nor for atom 2 once it parks."""
        events = []
        union = sparsedl.learner._union
        step = sparsedl.learner._atom_step

        def union_spy(*args):
            events.append(("union",))
            return union(*args)

        def step_spy(R, D, j, rows, w):
            events.append(("step", int(j), rows.size))
            return step(R, D, j, rows, w)

        monkeypatch.setattr(sparsedl.learner, "_union", union_spy)
        monkeypatch.setattr(sparsedl.learner, "_atom_step", step_spy)
        learn(self.Y_ONE_HOT_ROW, _default_config(3, 3, 0.5, self.D0))
        sweep_1 = [("union",), ("step", 0), ("step", 1), ("union",), ("step", 2)]
        parked_2 = [("union",), ("step", 0), ("step", 1), ("step", 2)]
        assert [e[:2] for e in events] == sweep_1 + parked_2 * 2
        assert [e[2] for e in events if e[0] == "step" and e[1] > 0] == [0] * 6  # atoms 1 and 2 take no rows

    def test_parked_visit_keeps_the_atom_its_step_returns(self, monkeypatch):
        """A parked visit with no hot row takes its atom from the atom step,
        like every other visit: a wrapped step that answers -e1 on no rows
        moves atom 1 there."""
        returned = {}
        step = sparsedl.learner._atom_step

        def flip_spy(R, D, j, rows, w):
            d_new = step(R, D, j, rows, w)
            returned[int(j)] = d_new = -d_new if not rows.size else d_new
            return d_new

        monkeypatch.setattr(sparsedl.learner, "_atom_step", flip_spy)
        D, C, _ = learn(self.Y_ONE_HOT_ROW, _default_config(3, 3, 0.5, self.D0))
        assert C[:, [1]].nnz == 0 and np.array_equal(returned[1], -np.eye(4)[0])
        for j, d in returned.items():
            assert np.array_equal(D[:, j], d)

    @pytest.mark.parametrize("J", sorted({J for _, J in _SWEEP_CASES}))
    def test_an_emptied_visit_leaves_its_atom_on_e1(self, monkeypatch, J):
        """``learn`` parks an atom as soon as its visit empties its code,
        trusting the atom step to have put it exactly on e1.  Every visit
        whose new code is empty must return e1 bit for bit, and the atoms
        of the last sweep's empty codes, which the trace counts, sit on e1."""
        rng = np.random.default_rng(48)
        n, N, K = 6, 25, 3
        Y = rng.standard_normal((n, N)) * 2.0
        D0 = unit_columns(rng, n, J)
        e1 = np.eye(n)[0]
        returned = []
        step = sparsedl.learner._atom_step

        def step_spy(R, D, j, rows, w):
            d_new = step(R, D, j, rows, w)
            returned.append((not w[1].any(), d_new.copy()))
            return d_new

        monkeypatch.setattr(sparsedl.learner, "_atom_step", step_spy)
        D, C, trace = learn(Y, _default_config(J, K, 4.5, D0))
        assert len(returned) == K * J
        emptied = [d for empty, d in returned if empty]
        assert emptied and all(np.array_equal(d, e1) for d in emptied)
        empty_codes = np.flatnonzero(~C.toarray().any(axis=0))
        assert trace.empty_atoms[-1] == empty_codes.size > 0
        assert all(np.array_equal(D[:, j], e1) for j in empty_codes)

    @pytest.mark.parametrize("J", [64, 81, 100, 144])
    def test_gemms_take_each_unparked_atom_once(self, monkeypatch, J):
        """Per sweep, the block GEMMs receive exactly the atoms that are not
        parked at their visit, each once, and every GEMM but a sweep's last
        takes _BLOCK of them; the threshold and the atom step run once per
        visit.  The DCT dictionary has no e1, so no atom starts parked; at
        the denoiser's lam, atoms park every sweep from the second on.  In the
        first sweep, where no atom is parked, the dictionary sizes fill whole
        blocks (64, 144) or end on a partial one (81, 100)."""
        Y = _small_scene_patches()
        n, K = 64, 4
        D0 = overcomplete_dct_dictionary(n, J)
        assert not any(np.array_equal(D0[:, j], np.eye(n)[0]) for j in range(J))
        empty = np.ones(J, dtype=bool)
        events = []  # ("gemm", atoms), ("threshold",), ("step", j, parked at the visit)

        def parked(D, j):
            return bool(empty[j]) and np.array_equal(D[:, j], np.eye(n)[0])

        correlations = sparsedl.learner._correlations
        threshold = sparsedl.learner.truncated_hard_threshold
        step = sparsedl.learner._atom_step

        def gemm_spy(R, D, atoms, out=None):
            assert not any(parked(D, j) for j in atoms)
            events.append(("gemm", [int(j) for j in atoms]))
            return correlations(R, D, atoms, out)

        def threshold_spy(*args):
            events.append(("threshold",))
            return threshold(*args)

        def step_spy(R, D, j, rows, w):
            events.append(("step", int(j), parked(D, j)))
            empty[j] = not w[1].any()
            return step(R, D, j, rows, w)

        monkeypatch.setattr(sparsedl.learner, "_correlations", gemm_spy)
        monkeypatch.setattr(sparsedl.learner, "truncated_hard_threshold", threshold_spy)
        monkeypatch.setattr(sparsedl.learner, "_atom_step", step_spy)
        learn(Y, _default_config(J, K, 100.0, D0))

        assert [e[0] for e in events if e[0] != "gemm"] == ["threshold", "step"] * (K * J)
        B = sparsedl.learner._BLOCK
        gemms, unparked, parked_visits = [[] for _ in range(K)], [[] for _ in range(K)], np.zeros(K, int)
        visits = 0
        for e in events:
            if e[0] == "gemm":
                gemms[visits // J].append(e[1])
            elif e[0] == "step":
                if e[2]:
                    parked_visits[visits // J] += 1
                else:
                    unparked[visits // J].append(e[1])
                visits += 1
        for t in range(K):
            assert sorted(j for atoms in gemms[t] for j in atoms) == sorted(unparked[t])
            u = len(unparked[t])
            assert [len(atoms) for atoms in gemms[t]] == [B] * (u // B) + ([u % B] if u % B else [])
        assert not parked_visits[0] and np.all(parked_visits[1:] > 0) and all(len(g) > 1 for g in gemms)


def _atom_step_by_fancy_indexing(R, D, j, rows, w):
    """``_atom_step`` for a nonempty new code, written with plain fancy
    indexing (``R[rows]``, ``R[rows] = part``), ``np.stack`` and
    ``np.linalg.norm``, over the same ``_GATHER`` chunks."""
    spans = [slice(lo, lo + sparsedl.learner._GATHER) for lo in range(0, rows.size, sparsedl.learner._GATHER)]
    d = D[:, j]
    h = d * float(w[0] @ w[1])
    for s in spans:
        h += R[rows[s]].T @ w[1, s]
    d_new = h / np.linalg.norm(h)
    change = np.stack((d, -d_new))
    for s in spans:
        part = R[rows[s]]
        part += w[:, s].T @ change
        R[rows[s]] = part
    return d_new


class TestVisitDataPaths:
    """The visit's gathers and scatters go through ``take``, slices of all N
    rows and the screen mask; each must give the bits of plain fancy
    indexing."""

    G = sparsedl.learner._GATHER
    N = 2 * G + 37

    def _case(self, size, N=None, seed=0):
        rng = np.random.default_rng(seed)
        N = self.N if N is None else N
        R = rng.standard_normal((N, 6))
        D = unit_columns(rng, 6, 3)
        rows = np.sort(rng.choice(N, size, replace=False))
        w = rng.standard_normal((2, size)) * (rng.random((2, size)) < 0.7)
        w[1, 0] = 1.5  # a nonempty new code
        return R, D, rows, w

    @pytest.mark.parametrize(
        "size, N",
        [(1, N), (100, N), (G + 50, N), (N, N), (50, 50)],
        ids=["one", "under-gather", "over-gather", "all", "all-in-one-gather"],
    )
    def test_atom_step_equals_fancy_indexing(self, size, N):
        R, D, rows, w = self._case(size, N)
        R_ref = R.copy()
        d_new = sparsedl.learner._atom_step(R, D, 1, rows, w)
        d_ref = _atom_step_by_fancy_indexing(R_ref, D, 1, rows, w)
        assert np.array_equal(d_new, d_ref) and np.array_equal(R, R_ref)

    @pytest.mark.parametrize("size", [1, G - 1, G + 50, N], ids=["one", "under-gather", "over-gather", "all"])
    def test_atom_step_for_an_emptied_code_takes_e1(self, size):
        R, D, rows, w = self._case(size, seed=1)
        w[1] = 0.0
        R_ref = R.copy()
        d_new = sparsedl.learner._atom_step(R, D, 0, rows, w)
        for lo in range(0, size, self.G):
            s = slice(lo, lo + self.G)
            R_ref[rows[s]] += w[:, s].T @ np.stack((D[:, 0], -d_new))
        assert np.array_equal(d_new, np.eye(6)[0]) and np.array_equal(R, R_ref)

    @pytest.mark.parametrize("size", [1, 100, G + 50, N], ids=["one", "under-gather", "over-gather", "all"])
    def test_shift_equals_fancy_indexing(self, size):
        _, _, rows, w = self._case(size, seed=2)
        rng = np.random.default_rng(3)
        buffer = rng.standard_normal((sparsedl.learner._BLOCK, self.N))
        g = rng.standard_normal((7, 2))
        expected = buffer.copy()
        for lo in range(0, size, self.G):
            s = slice(lo, lo + self.G)
            expected[4:11, rows[s]] += g @ w[:, s]
        sparsedl.learner._shift(buffer[4:11], g, rows, w)  # a block's later rows, as learn passes them
        assert np.array_equal(buffer, expected)

    @pytest.mark.parametrize("old_size", [0, 1, 40])
    def test_union_reads_the_screen_mask_marked_with_the_old_rows(self, old_size):
        rng = np.random.default_rng(old_size)
        keep = rng.random(200) < 0.2
        old = np.sort(rng.choice(200, old_size, replace=False))
        expected = np.union1d(np.flatnonzero(keep), old)
        marked = keep.copy()
        marked[old] = True
        union = sparsedl.learner._union(keep, old)
        assert union.dtype == np.intp and np.array_equal(union, expected)
        assert np.array_equal(keep, marked)


def _record_step_unions(monkeypatch):
    """Wrap ``learn``'s atom step; returns the list of ``(rows, w)`` it receives."""
    calls = []
    step = sparsedl.learner._atom_step

    def spy(R, D, j, rows, w):
        calls.append((rows.copy(), w.copy()))
        return step(R, D, j, rows, w)

    monkeypatch.setattr(sparsedl.learner, "_atom_step", spy)
    return calls


class TestWholeUnions:
    """Visits whose union holds every signal, which the atom step and the
    shift work on as slices of R and of the correlations."""

    def test_a_code_on_every_signal_matches_the_references(self, monkeypatch):
        """Raw 4x4 patches keep their mean, so the DCT dictionary's constant
        atom correlates with every one above lam and its code covers all N
        signals, more than one gather's worth.  J spans two blocks, so that
        visit also shifts later correlations on every column."""
        Y = extract_patches(make_textured_scene(size=68, seed=3), 4, 1)
        n, N = Y.shape
        J, K, lam = 25, 2, 20.0
        assert N > sparsedl.learner._GATHER
        D0 = overcomplete_dct_dictionary(n, J)
        _assert_matches_reference(Y, D0, K, lam)
        calls = _record_step_unions(monkeypatch)
        half_steps = HalfStepObjectives(monkeypatch, Y, D0, lam)
        D, C, _ = learn(Y, _default_config(J, K, lam, D0))
        half_steps.assert_replays(D, C)
        seq = half_steps.sequence(K, J)
        assert np.all(np.diff(seq) <= 1e-9 * np.abs(seq[:-1]))
        assert any(rows.size == N for rows, _ in calls)

    def test_a_passing_row_with_a_zero_code_joins_the_union_with_zero_weights(self, monkeypatch):
        """At lam = 0 every row passes the screen.  Signal 3 is all zero, so
        its correlations are exactly 0 and its code stays 0; it joins every
        union, with zero old and new weights, and changes nothing."""
        rng = np.random.default_rng(48)
        n, N, J, K = 5, 30, 4, 3
        Y = rng.standard_normal((n, N))
        Y[:, 3] = 0.0
        D0 = unit_columns(rng, n, J)
        _assert_matches_reference(Y, D0, K, 0.0)
        calls = _record_step_unions(monkeypatch)
        half_steps = HalfStepObjectives(monkeypatch, Y, D0, 0.0)
        D, C, _ = learn(Y, _default_config(J, K, 0.0, D0))
        half_steps.assert_replays(D, C)
        seq = half_steps.sequence(K, J)
        assert np.all(np.diff(seq) <= 1e-9 * np.abs(seq[:-1]))
        assert len(calls) == K * J
        for rows, w in calls:
            assert np.array_equal(rows, np.arange(N)) and not w[:, 3].any()
        assert C[[3]].nnz == 0 and C.nnz == (N - 1) * J
