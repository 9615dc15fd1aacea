import numpy as np
import pytest
from conftest import (
    HalfStepObjectives,
    dense_objective,
    dense_residual_excluding,
    random_instance,
    reverse_atom_steps,
)
from scipy import sparse

from sparsedl.exceptions import ConfigError, InvariantError
from sparsedl.learner import (
    LearnConfig,
    atom_rhs,
    atom_update_step,
    code_rhs,
    hard_threshold,
    learn,
    nsre,
    objective,
    sparse_code_step,
    sparsity_factor,
    truncated_hard_threshold,
)


class TestThresholding:
    def test_hard_threshold_semantics(self):
        b = np.array([0.5, -1.0, 1.0, 1.5, -2.5, 0.0, -0.999999])
        out = hard_threshold(b, 1.0)
        assert np.array_equal(out, [0.0, -1.0, 1.0, 1.5, -2.5, 0.0, 0.0])

    def test_threshold_keeps_exact_boundary(self):
        # magnitude exactly lam is kept, not zeroed
        assert hard_threshold(np.array([2.0, -2.0]), 2.0).tolist() == [2.0, -2.0]

    def test_hard_threshold_is_total(self):
        out = hard_threshold(np.array([np.nan, np.inf, -np.inf]), 1.0)
        assert np.isnan(out[0]) and out[1] == np.inf and out[2] == -np.inf

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
        """Clipping only the survivors gives exactly the clip of the
        whole hard-thresholded vector, at every boundary value."""
        rng = np.random.default_rng(18)
        bound = 3.0
        tiny = np.finfo(float).smallest_subnormal
        salt = [lam, -lam, bound, -bound, 0.0, -0.0, tiny, -tiny, 1e3 * tiny, np.inf, -np.inf, np.nan]
        for _ in range(20):
            b = np.concatenate((rng.standard_normal(200) * 2.0, rng.choice(salt, 100)))
            rng.shuffle(b)
            t = hard_threshold(b, lam)
            want = np.sign(t) * np.minimum(np.abs(t), bound)
            assert np.array_equal(truncated_hard_threshold(b, lam, bound), want, equal_nan=True)


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
            got_sparse = code_rhs(Y, D, sparse.csc_array(C), j)
            assert np.allclose(got_sparse, want, rtol=1e-10, atol=1e-12)

    def test_atom_rhs_matches_dense_residual(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n, N, J = rng.integers(2, 9), rng.integers(3, 15), rng.integers(2, 7)
            Y, D, C = random_instance(rng, n, N, J)
            j = int(rng.integers(J))
            c_new = rng.standard_normal(N) * (rng.random(N) < 0.5)
            want = dense_residual_excluding(Y, D, C, j) @ c_new
            assert np.allclose(atom_rhs(Y, D, C, j, c_new), want, rtol=1e-10, atol=1e-12)
            assert np.allclose(
                atom_rhs(Y, D, sparse.csc_array(C), j, c_new), want, rtol=1e-10, atol=1e-12
            )

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

    def test_sparse_code_step_rejects_bad_index(self):
        rng = np.random.default_rng(15)
        Y, D, C = random_instance(rng, 4, 6, 3)
        with pytest.raises(ConfigError):
            sparse_code_step(Y, D, C, 3, 0.5, 2.0)

    def test_atom_update_is_normalized_rhs(self):
        rng = np.random.default_rng(16)
        Y, D, C = random_instance(rng, 6, 15, 4)
        c_new = sparse_code_step(Y, D, C, 2, 0.3, 50.0)
        d = atom_update_step(Y, D, C, 2, c_new)
        h = atom_rhs(Y, D, C, 2, c_new)
        assert np.allclose(d, h / np.linalg.norm(h), rtol=1e-12, atol=1e-14)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12

    def test_atom_update_zero_code_policies(self):
        rng = np.random.default_rng(17)
        Y, D, C = random_instance(rng, 5, 8, 3)
        zero = np.zeros(8)
        e1 = atom_update_step(Y, D, C, 0, zero, policy="unit_basis")
        assert np.array_equal(e1, np.eye(5)[0])
        kept = atom_update_step(Y, D, C, 0, zero, policy="keep_previous")
        assert np.array_equal(kept, D[:, 0])
        drawn = atom_update_step(Y, D, C, 0, zero, policy="random_unit", rng=np.random.default_rng(3))
        again = atom_update_step(Y, D, C, 0, zero, policy="random_unit", rng=np.random.default_rng(3))
        assert np.array_equal(drawn, again)
        assert abs(np.linalg.norm(drawn) - 1.0) < 1e-12
        with pytest.raises(ConfigError):
            atom_update_step(Y, D, C, 0, zero, policy="random_unit")  # rng missing
        with pytest.raises(ConfigError):
            atom_update_step(Y, D, C, 0, zero, policy="nonsense")

    def test_atom_update_zero_product_is_invariant_error(self):
        # nonzero code whose residual/code product vanishes by construction
        D = np.eye(2)
        C = np.zeros((2, 2))
        Y = np.zeros((2, 2))
        c_new = np.array([1.0, -1.0])
        Y[:, 0] = 0.0  # E_0 = Y = 0, so E_0 @ c_new = 0
        with pytest.raises(InvariantError):
            atom_update_step(Y, D, C, 0, c_new)


class TestMetrics:
    def test_objective_matches_dense(self):
        rng = np.random.default_rng(20)
        Y, D, C = random_instance(rng, 5, 11, 4)
        lam = 0.7
        want = dense_objective(Y, D, C, lam)
        assert np.isclose(objective(Y, D, C, lam), want, rtol=1e-12)
        assert np.isclose(objective(Y, D, sparse.csc_array(C), lam), want, rtol=1e-12)

    def test_objective_counts_structural_zeros_exactly(self):
        Y = np.zeros((2, 3))
        D = np.eye(2)
        C = np.zeros((3, 2))
        C[0, 0] = 1e-300  # tiny but nonzero: must count
        assert objective(Y, D, C, 2.0) == pytest.approx(1e-600 + 4.0)

    def test_nsre_definition(self):
        rng = np.random.default_rng(21)
        Y, D, C = random_instance(rng, 4, 9, 3)
        want = np.linalg.norm(Y - D @ C.T) / np.linalg.norm(Y)
        assert np.isclose(nsre(Y, D, C), want, rtol=1e-12)

    def test_nsre_rejects_zero_matrix(self):
        with pytest.raises(ConfigError):
            nsre(np.zeros((3, 4)), np.eye(3), np.zeros((4, 3)))

    def test_sparsity_factor_uses_signal_dim(self):
        C = np.zeros((10, 6))
        C[:4, 0] = 1.0
        assert sparsity_factor(C, 8) == pytest.approx(4 / 80)
        assert sparsity_factor(sparse.csc_array(C), 8) == pytest.approx(4 / 80)
        with pytest.raises(ConfigError):
            sparsity_factor(C, 0)


def _default_config(J, K, lam, D0, **kw):
    return LearnConfig(num_atoms=J, iterations=K, lam=lam, init_dictionary=D0, **kw)


def _unit_columns(rng, n, J):
    D = rng.standard_normal((n, J))
    return D / np.linalg.norm(D, axis=0)


# With the learner's blocks of 8 correlations, J=5 fits in one block, 16
# fills two exactly, 17 leaves one atom for a third block and 37 ends on a
# partial fifth one.  The J=5 cases keep their original ids.
_SWEEP_CASES = [(warm, J) for J in (5, 16, 17, 37) for warm in (False, True)]
_SWEEP_IDS = [("warm" if warm else "zero-init") + (f"-J{J}" if J != 5 else "") for warm, J in _SWEEP_CASES]


class TestLearn:
    @pytest.mark.parametrize("warm, J", _SWEEP_CASES, ids=_SWEEP_IDS)
    @pytest.mark.parametrize("policy", ["unit_basis", "keep_previous", "random_unit"])
    @pytest.mark.parametrize("order", ["cyclic", "random"])
    def test_matches_reference_sweep_of_public_steps(self, order, policy, warm, J):
        """The fused implementation must equal a literal sweep of the
        public single-column operations (code step, then atom step, both
        against the pre-commit state).  Every other trial uses a lam high
        enough that some codes come back empty, so the policy is used.
        The reference steps form their own correlations, so the cases with
        J above the learner's block of 8 check the blocked ones."""
        rng = np.random.default_rng(30)
        empty = 0
        for trial in range(8):
            n, N, K = 6, 25, 3
            Y = rng.standard_normal((n, N)) * 2.0
            D0 = _unit_columns(rng, n, J)
            lam, bound = (0.6, 4.0)[trial % 2], float(np.linalg.norm(Y))
            C0 = rng.uniform(-1.0, 1.0, (N, J)) * (rng.random((N, J)) < 0.3) if warm else None
            D_ref = D0.copy()
            C_ref = np.zeros((N, J)) if C0 is None else C0.copy()
            ref_rng = np.random.default_rng(trial)
            for _ in range(K):
                for j in np.arange(J) if order == "cyclic" else ref_rng.permutation(J):
                    c = sparse_code_step(Y, D_ref, C_ref, j, lam, bound)
                    d = atom_update_step(Y, D_ref, C_ref, j, c, policy, ref_rng)
                    empty += not c.any()
                    C_ref[:, j] = c
                    D_ref[:, j] = d
            config = _default_config(
                J, K, lam, D0, atom_order=order, empty_code_policy=policy, seed=trial,
                init_codes=None if C0 is None else sparse.csc_array(C0),
            )
            D_got, C_got, _ = learn(Y, config)
            assert np.allclose(D_got, D_ref, rtol=1e-10, atol=1e-12)
            assert np.allclose(np.asarray(C_got.todense()), C_ref, rtol=1e-10, atol=1e-12)
        assert empty > 0

    def test_trace_matches_recomputation(self):
        rng = np.random.default_rng(31)
        Y = rng.standard_normal((8, 30))
        D0 = _unit_columns(rng, 8, 6)
        lam = 0.5
        D, C, trace = learn(Y, _default_config(6, 4, lam, D0))
        assert len(trace) == 4
        assert np.isclose(trace.objective[-1], objective(Y, D, C, lam), rtol=1e-10)
        assert np.isclose(trace.nsre[-1], nsre(Y, D, C), rtol=1e-10)
        assert np.isclose(trace.sparsity_factor[-1], sparsity_factor(C, 8), rtol=1e-12)
        assert np.all(np.diff(trace.objective) <= 1e-9 * np.abs(trace.objective[:-1]))

    def test_delta_columns_measure_iterate_change(self):
        rng = np.random.default_rng(32)
        Y = rng.standard_normal((6, 18))
        D0 = _unit_columns(rng, 6, 4)
        D1, C1, t1 = learn(Y, _default_config(4, 1, 0.4, D0))
        assert np.isclose(t1.delta_dict[0], np.linalg.norm(D1 - D0), rtol=1e-12)
        # from zero initial codes, the first code delta is ||C^1||_F
        assert np.isclose(t1.delta_codes[0], sparse.linalg.norm(C1), rtol=1e-12)

    def test_rank_one_exact_recovery_lam_zero(self):
        rng = np.random.default_rng(33)
        u = rng.standard_normal(7)
        v = rng.standard_normal(40)
        Y = np.outer(u, v)
        D0 = _unit_columns(rng, 7, 1)
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
        D0 = _unit_columns(rng, 5, 4)
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
        D0 = _unit_columns(rng, 6, 5)
        half_steps = HalfStepObjectives(monkeypatch, Y, D0, 0.5)
        learn(Y, _default_config(5, 3, 0.5, D0))
        seq = half_steps.sequence(3, 5)
        assert seq[0] == dense_objective(Y, D0, np.zeros((20, 5)), 0.5)
        drops = np.diff(seq)
        assert np.all(drops <= 1e-9 * np.abs(seq[:-1]))

    def test_objective_rise_names_the_iteration(self, monkeypatch):
        # Inexact atom steps from the second sweep on: learn must stop there.
        rng = np.random.default_rng(38)
        Y = rng.standard_normal((6, 30))
        D0 = _unit_columns(rng, 6, 5)
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
            Y = np.outer(_unit_columns(rng, 5, 1), rng.standard_normal(8) * 10 ** rng.uniform(-3, 3))
            _, _, trace = learn(Y, _default_config(1, 4, 0.0, _unit_columns(rng, 5, 1), code_bound=1e9))
            assert trace.objective[-1] < 1e-20 * np.linalg.norm(Y) ** 2

    def test_zero_iterations_returns_init(self):
        rng = np.random.default_rng(36)
        Y = rng.standard_normal((4, 9))
        D0 = _unit_columns(rng, 4, 3)
        D, C, trace = learn(Y, _default_config(3, 0, 0.5, D0))
        assert np.allclose(D, D0)
        assert C.nnz == 0
        assert len(trace) == 0

    def test_warm_start_from_previous_codes(self):
        rng = np.random.default_rng(37)
        Y = rng.standard_normal((6, 22))
        D0 = _unit_columns(rng, 6, 4)
        bound = float(np.linalg.norm(Y))
        D1, C1, t1 = learn(Y, _default_config(4, 2, 0.4, D0, code_bound=bound))
        D2, C2, t2 = learn(
            Y, _default_config(4, 2, 0.4, D1, code_bound=bound, init_codes=C1)
        )
        assert t2.objective[0] <= t1.objective[-1] + 1e-9 * abs(t1.objective[-1])
        # dense init codes behave identically
        D3, C3, _ = learn(
            Y,
            _default_config(4, 2, 0.4, D1, code_bound=bound, init_codes=np.asarray(C1.todense())),
        )
        assert np.allclose(D3, D2) and np.allclose(C3.todense(), C2.todense())

    def test_init_codes_count_only_true_nonzeros(self):
        rng = np.random.default_rng(42)
        Y = rng.standard_normal((5, 12))
        D0 = _unit_columns(rng, 5, 3)
        codes = np.zeros((12, 3))
        codes[[0, 4, 7], [0, 1, 2]] = [0.8, -1.2, 0.5]
        stored_zero = sparse.csc_array(
            ([0.8, 0.0, -1.2, 0.5], [0, 3, 4, 7], [0, 2, 3, 4]), shape=(12, 3)
        )
        assert stored_zero.nnz == 4
        negative_zero = codes.copy()
        negative_zero[2, 1] = -0.0
        for init in (stored_zero, negative_zero):
            _, C0, _ = learn(Y, _default_config(3, 0, 0.5, D0, init_codes=init))
            assert C0.nnz == 3
            _, C1, t1 = learn(Y, _default_config(3, 1, 0.5, D0, init_codes=init))
            assert C1.nnz == np.count_nonzero(C1.toarray())
            assert t1.sparsity_factor[0] == C1.nnz / (5 * 12)

    def test_vanishing_product_names_iteration_and_atom(self, monkeypatch):
        rng = np.random.default_rng(43)
        Y = rng.standard_normal((4, 10))
        D0 = _unit_columns(rng, 4, 3)
        monkeypatch.setattr("sparsedl.learner.atom_rhs", lambda Y, D, C, j, c: np.zeros(D.shape[0]))
        with pytest.raises(InvariantError, match=r"iteration 1, atom 0:"):
            learn(Y, _default_config(3, 2, 0.1, D0))

    def test_zero_training_matrix_policies(self):
        Y = np.zeros((3, 5))
        D0 = np.eye(3)
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, 1, 0.5, D0))  # default bound ||Y||_F = 0
        D, C, trace = learn(Y, _default_config(3, 1, 0.5, D0, code_bound=1.0))
        assert C.nnz == 0
        assert np.isnan(trace.nsre[0]) and trace.objective[0] == 0.0
        assert np.allclose(D, np.column_stack([np.eye(3)[0]] * 3))  # unit_basis policy
        D_keep, _, _ = learn(
            Y, _default_config(3, 1, 0.5, D0, code_bound=1.0, empty_code_policy="keep_previous")
        )
        assert np.allclose(D_keep, D0)
        D_rand, _, _ = learn(
            Y, _default_config(3, 1, 0.5, D0, code_bound=1.0, empty_code_policy="random_unit", seed=5)
        )
        D_rand2, _, _ = learn(
            Y, _default_config(3, 1, 0.5, D0, code_bound=1.0, empty_code_policy="random_unit", seed=5)
        )
        assert np.allclose(D_rand, D_rand2)
        assert np.allclose(np.linalg.norm(D_rand, axis=0), 1.0)

    def test_random_order_is_seeded_and_monotone(self):
        rng = np.random.default_rng(38)
        Y = rng.standard_normal((6, 20))
        D0 = _unit_columns(rng, 6, 5)
        a = learn(Y, _default_config(5, 3, 0.5, D0, atom_order="random", seed=9))
        b = learn(Y, _default_config(5, 3, 0.5, D0, atom_order="random", seed=9))
        assert np.allclose(a[0], b[0])
        assert np.all(np.diff(a[2].objective) <= 1e-9 * np.abs(a[2].objective[:-1]))

    def test_codes_respect_bound_exactly(self):
        rng = np.random.default_rng(39)
        Y = 5.0 * rng.standard_normal((4, 30))
        D0 = _unit_columns(rng, 4, 3)
        bound = 2.0
        _, C, _ = learn(Y, _default_config(3, 3, 0.5, D0, code_bound=bound))
        assert C.nnz > 0
        assert np.max(np.abs(C.data)) <= bound
        assert np.min(np.abs(C.data)) >= 0.5  # surviving entries cleared the threshold

    def test_validation_errors(self):
        rng = np.random.default_rng(40)
        Y = rng.standard_normal((4, 6))
        D0 = _unit_columns(rng, 4, 3)
        with pytest.raises(ConfigError):
            learn(np.full((4, 6), np.nan), _default_config(3, 1, 0.5, D0))
        with pytest.raises(ConfigError):
            learn(Y[0], _default_config(3, 1, 0.5, D0))
        with pytest.raises(ConfigError):
            learn(Y, _default_config(0, 1, 0.5, D0))
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, -1, 0.5, D0))
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
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, 1, 0.5, D0, atom_order="shuffled"))
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, 1, 0.5, D0, empty_code_policy="zero"))
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, 1, 0.5, D0, init_codes=np.zeros((5, 3))))
        big = np.zeros((6, 3))
        big[0, 0] = 1e9
        with pytest.raises(ConfigError):
            learn(Y, _default_config(3, 1, 0.5, D0, init_codes=big))

    def test_single_row_signals(self):
        rng = np.random.default_rng(41)
        Y = rng.standard_normal((1, 12))
        D0 = np.array([[1.0, -1.0]])
        D, C, trace = learn(Y, _default_config(2, 2, 0.1, D0))
        assert D.shape == (1, 2)
        assert np.allclose(np.abs(D), 1.0)
        assert np.all(np.diff(trace.objective) <= 1e-12 + 1e-9 * np.abs(trace.objective[:-1]))
