import numpy as np
import pytest
from conftest import make_textured_scene, unit_columns
from scipy import sparse

from sparsedl.denoise import DenoiseConfig, add_gaussian_noise
from sparsedl.dictionaries import overcomplete_dct_dictionary, random_dictionary
from sparsedl.exceptions import ConfigError
from sparsedl.omp import (
    _BAND,
    DEGENERATE,
    REACHED_ATOM_CAP,
    REACHED_ERROR_GOAL,
    omp_code,
    omp_code_matrix,
)
from sparsedl.patches import extract_patches


def _orthonormal(n, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def _textbook_omp(D, y, goal, cap):
    """Oracle: plain OMP that re-solves least squares on the whole support
    at every step and forms the residual explicitly.

    Returns the support in selection order, its coefficients and the
    status.  A pick counts as degenerate when no atom correlates with the
    residual or the atom lies within 1e-6 of its norm of the support's span.
    """
    support, coef, r = [], np.zeros(0), y
    while r @ r > goal:
        if len(support) == cap:
            return support, coef, REACHED_ATOM_CAP
        corr = D.T @ r
        p = int(np.argmax(np.abs(corr)))  # first maximum: lowest index
        a = D[:, p]
        off = a - D[:, support] @ np.linalg.lstsq(D[:, support], a, rcond=None)[0] if support else a
        if corr[p] == 0.0 or np.linalg.norm(off) <= 1e-6 * np.linalg.norm(a):
            return support, coef, DEGENERATE
        support.append(p)
        coef = np.linalg.lstsq(D[:, support], y, rcond=None)[0]
        r = y - D[:, support] @ coef
    return support, coef, REACHED_ERROR_GOAL


def _assert_matches_textbook(D, Y, goal):
    C, statuses = omp_code_matrix(D, Y, goal)
    codes = C.toarray()
    for i in range(Y.shape[1]):
        support, coef, status = _textbook_omp(D, Y[:, i], goal, min(D.shape))
        assert statuses[i] == status, i
        assert np.array_equal(np.flatnonzero(codes[i]), np.sort(support)), i
        assert np.linalg.norm(codes[i, support] - coef) <= 1e-10 * np.linalg.norm(coef), i
    return statuses, codes


class TestOmpCode:
    def test_meets_error_goal_or_reports_why_not(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n, J = int(rng.integers(4, 12)), int(rng.integers(4, 20))
            D = unit_columns(rng, n, J)
            y = rng.standard_normal(n) * 3.0
            goal = float(rng.uniform(0.01, 2.0))
            code, status = omp_code(D, y, goal)
            rsq = float(np.sum((y - D @ code) ** 2))
            if status == REACHED_ERROR_GOAL:
                assert rsq <= goal + 1e-9
            else:
                assert status in (REACHED_ATOM_CAP, DEGENERATE)
                assert np.count_nonzero(code) <= min(n, J)

    def test_coefficients_are_least_squares_on_support(self):
        rng = np.random.default_rng(2)
        D = unit_columns(rng, 8, 12)
        y = rng.standard_normal(8)
        code, _ = omp_code(D, y, 1e-12)
        sel = np.flatnonzero(code)
        want, *_ = np.linalg.lstsq(D[:, sel], y, rcond=None)
        assert np.allclose(code[sel], want, rtol=1e-8, atol=1e-10)

    def test_exact_sparse_recovery_on_orthonormal_dictionary(self):
        D = _orthonormal(10, 3)
        truth = np.zeros(10)
        truth[[2, 7]] = [1.5, -0.75]
        y = D @ truth
        code, status = omp_code(D, y, 1e-18)
        assert status == REACHED_ERROR_GOAL
        assert np.allclose(code, truth, atol=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        D = np.column_stack([e1, e1])  # identical atoms: correlations tie
        code, status = omp_code(D, e1, 1e-20)
        assert code[0] == pytest.approx(1.0) and code[1] == 0.0
        assert status == REACHED_ERROR_GOAL

    def test_duplicate_atom_never_picked_twice(self):
        a = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        b = np.array([0.0, 0.0, 1.0])
        D = np.column_stack([a, a, b])
        y = np.array([2.0, 2.0, 0.5])
        # needs both directions; the duplicated atom must never be picked twice
        code, status = omp_code(D, y, 1e-20)
        assert status == REACHED_ERROR_GOAL
        assert np.count_nonzero(code) == 2

    def test_residual_orthogonal_to_span_stops_degenerate(self):
        a = np.array([1.0, 0.0, 0.0])
        D = np.column_stack([a, a])
        y = np.array([1.0, 2.0, 0.0])  # after atom 0 the residual is unreachable
        code, status = omp_code(D, y, 1e-20)
        assert status == DEGENERATE
        assert np.count_nonzero(code) == 1
        assert code[0] == pytest.approx(1.0)

    def test_zero_signal_codes_to_zero(self):
        D = random_dictionary(5, 8, 1)
        code, status = omp_code(D, np.zeros(5), 0.0)
        assert not code.any()
        assert status == REACHED_ERROR_GOAL

    def test_atom_cap_limits_support(self):
        """Two atoms in nine dimensions: a generic signal takes both and
        stops at the cap of min(n, J) atoms, short of a zero goal."""
        rng = np.random.default_rng(4)
        D = unit_columns(rng, 9, 2)
        y = rng.standard_normal(9)
        code, status = omp_code(D, y, 0.0)
        assert np.count_nonzero(code) == 2
        assert status == REACHED_ATOM_CAP

    def test_validation(self):
        D = random_dictionary(4, 6, 0)
        y = np.ones(4)
        with pytest.raises(ConfigError):
            omp_code(D, np.ones(5), 1.0)
        with pytest.raises(ConfigError):
            omp_code(D, y, -1.0)
        for goal in (np.complex128(1 + 1j), "1", True):
            with pytest.raises(ConfigError, match="error_goal must be a real number"):
                omp_code_matrix(D, y[:, None], goal)
        # A 2-D patch: raveled in C order it would code as the transpose of
        # its column-major vector, [5, -1, -2, 0] instead of [5, -2, -1, 0].
        patch = np.array([[1.0, 2.0], [3.0, 4.0]])
        for signal in (patch, patch.ravel(order="F")[:, None]):
            with pytest.raises(ConfigError, match="1-D"):
                omp_code(overcomplete_dct_dictionary(4, 4), signal, 0.0)
        for bad_D, bad_y in ((D, y + 1j), (D + 0j, y)):
            with pytest.raises(ConfigError, match="real"):
                omp_code(bad_D, bad_y, 1.0)
            with pytest.raises(ConfigError, match="real"):
                omp_code_matrix(bad_D, bad_y[:, None], 1.0)


class TestOmpCodeMatrix:
    def test_matches_per_signal_calls(self):
        rng = np.random.default_rng(5)
        D = unit_columns(rng, 6, 9)
        Y = rng.standard_normal((6, 11))
        C, statuses = omp_code_matrix(D, Y, 0.3)
        assert isinstance(C, sparse.csc_array)
        assert C.shape == (11, 9)
        assert len(statuses) == 11
        dense = np.asarray(C.todense())
        for i in range(11):
            code, status = omp_code(D, Y[:, i], 0.3)
            assert np.array_equal(dense[i], code)
            assert statuses[i] == status

    def test_statuses_are_the_module_constants(self):
        """The status list repeats the three constants: no string of its own per signal."""
        rng = np.random.default_rng(6)
        D = overcomplete_dct_dictionary(16, 36)
        Y = rng.standard_normal((16, 1500))
        Y[:, :500] = 0.0  # codes to zero at once
        # two atoms in 16 dimensions stop most signals at the atom cap
        for Dg, goal in ((D, 1.0), (unit_columns(rng, 16, 2), 1.0), (D, 0.0)):
            _, statuses = omp_code_matrix(Dg, Y, goal)
            assert len(statuses) == 1500
            assert len({id(s) for s in statuses}) <= 3
            assert all(s is REACHED_ERROR_GOAL or s is REACHED_ATOM_CAP or s is DEGENERATE for s in statuses)

    def test_rejects_non_matrix(self):
        with pytest.raises(ConfigError):
            omp_code_matrix(random_dictionary(4, 4, 0), np.ones(4), 1.0)

    @pytest.mark.parametrize(
        "case",
        [
            "no-signals-negative-goal",
            "no-signals-row-mismatch",
            "no-signals-no-atoms",
            "dictionary-not-2d",
            "nan-signal",
            "inf-atom",
        ],
    )
    def test_validates_before_coding_any_signal(self, case):
        D = random_dictionary(4, 6, 0)
        Y = np.ones((4, 3))
        goal = 1.0
        if case == "no-signals-negative-goal":
            Y, goal = np.ones((4, 0)), -1.0
        elif case == "no-signals-row-mismatch":
            Y = np.ones((5, 0))
        elif case == "no-signals-no-atoms":
            D, Y = np.ones((4, 0)), np.ones((4, 0))
        elif case == "dictionary-not-2d":
            D = np.ones(4)
        elif case == "nan-signal":
            Y[2, 1] = np.nan
        elif case == "inf-atom":
            D[1, 3] = np.inf
        with pytest.raises(ConfigError):
            omp_code_matrix(D, Y, goal)

    def test_overflowing_signal_is_config_error(self):
        """A finite signal whose squared norm overflows is rejected, with no
        warning, instead of being coded as zero with the goal met."""
        Y = np.ones((16, 3))
        Y[:, 1] = 1e160
        with pytest.raises(ConfigError, match="^signal matrix is too large"):
            omp_code_matrix(overcomplete_dct_dictionary(16, 16), Y, 0.1)


class TestAgainstTextbookOmp:
    def test_random_dictionaries(self):
        rng = np.random.default_rng(21)
        seen = set()
        for _ in range(200):
            n = int(rng.integers(3, 17))
            J = int(rng.integers(2, 3 * n + 1))
            D = unit_columns(rng, n, J)
            Y = rng.standard_normal((n, 6))
            goal = float(rng.uniform(0.02, 0.6)) * n
            seen.update(_assert_matches_textbook(D, Y, goal)[0])  # J < n can stop at the cap
        assert seen == {REACHED_ERROR_GOAL, REACHED_ATOM_CAP}

    def test_rank_deficient_dictionaries_stop_when_the_span_is_used_up(self):
        """Atoms confined to an r-dimensional subspace: every signal with a
        part outside it takes r atoms and stops degenerate, never an atom
        picked from rounding noise.  r >= 2, because in a line all atoms
        are parallel and their correlations tie only up to rounding."""
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(4, 12))
            r = int(rng.integers(2, n))
            basis, _ = np.linalg.qr(rng.standard_normal((n, r)))
            D = basis @ rng.standard_normal((r, int(rng.integers(r + 1, 3 * n))))
            D /= np.linalg.norm(D, axis=0)
            Y = rng.standard_normal((n, 5))
            statuses, codes = _assert_matches_textbook(D, Y, 1e-6)
            assert statuses == [DEGENERATE] * 5
            assert np.all(np.count_nonzero(codes, axis=1) == r)

    @pytest.mark.parametrize("goal_divisor", [1, 8])
    def test_dct_on_noisy_centered_patches(self, goal_divisor):
        """The denoiser's DCT pass on a stride-8 grid of the textured scene,
        at its error goal and at one 8 times lower (longer supports)."""
        config = DenoiseConfig(sigma=20.0)
        noisy = add_gaussian_noise(make_textured_scene(256).astype(float), config.sigma, seed=3)
        Y = extract_patches(noisy, config.patch_size, 8)
        Y -= Y.mean(axis=0)
        n = config.patch_size**2
        D = overcomplete_dct_dictionary(n, config.num_atoms)
        goal = n * config.error_gain**2 * config.sigma**2 / goal_divisor
        statuses, _ = _assert_matches_textbook(D, Y, goal)
        assert set(statuses) == {REACHED_ERROR_GOAL}


class TestBatchIndependence:
    def test_rows_do_not_depend_on_the_other_signals(self):
        """Permuting, subsetting or splitting the columns of Y, across band
        edges, gives bit-identical rows and statuses."""
        rng = np.random.default_rng(22)
        D = unit_columns(rng, 8, 20)
        N = _BAND + 300
        Y = rng.standard_normal((8, N)) * rng.uniform(0.3, 3.0, N)
        C, statuses = omp_code_matrix(D, Y, 2.0)
        codes = C.toarray()
        assert len({np.count_nonzero(row) for row in codes}) >= 4

        perm = rng.permutation(N)
        Cp, sp = omp_code_matrix(D, Y[:, perm], 2.0)
        assert np.array_equal(Cp.toarray(), codes[perm])
        assert sp == [statuses[i] for i in perm]

        subset = np.flatnonzero(rng.random(N) < 0.4)
        Cs, ss = omp_code_matrix(D, Y[:, subset], 2.0)
        assert np.array_equal(Cs.toarray(), codes[subset])
        assert ss == [statuses[i] for i in subset]

        for i in range(N):
            code, status = omp_code(D, Y[:, i], 2.0)
            assert np.array_equal(code, codes[i]) and status == statuses[i], i

    def test_uneven_column_splits_match_one_call(self):
        """Coding a patch matrix in uneven column splits, as denoise_image
        codes it band by band, gives the rows and statuses of one call."""
        rng = np.random.default_rng(24)
        image = add_gaussian_noise(make_textured_scene(80, 2).astype(float), 20.0, 3)
        Y = extract_patches(image, 8, 1)
        Y -= Y.mean(axis=0)
        D = overcomplete_dct_dictionary(64, 256)
        D[:, 200:] = D[:, [0]]  # repeated atoms, as the learner's parked ones
        goal = 64 * 1.15**2 * 400.0
        for Dc in (D, D[:, 1:3]):  # two atoms in 64 dimensions stop at the atom cap
            C, statuses = omp_code_matrix(Dc, Y, goal)
            cuts = np.sort(rng.choice(np.arange(1, Y.shape[1]), size=4, replace=False))
            bounds = [0, 1, *cuts, Y.shape[1] - 1, Y.shape[1]]
            parts = [omp_code_matrix(Dc, Y[:, lo:hi], goal) for lo, hi in zip(bounds, bounds[1:])]
            assert np.array_equal(sparse.vstack([c for c, _ in parts]).toarray(), C.toarray())
            assert [s for _, part in parts for s in part] == statuses

    def test_mixed_stops_in_one_call_match_single_calls(self):
        """One call where signals stop at the goal, at the cap and on a
        residual no atom correlates with; every row equals its own
        single-column call."""
        rng = np.random.default_rng(23)
        e = np.eye(5)
        # four atoms in five dimensions: the cap is 4, and nothing reaches the last coordinate
        D = np.column_stack([e[0], e[1], e[2], e[1] + e[2] + e[3]])
        D /= np.linalg.norm(D, axis=0)
        kinds = rng.integers(0, 3, 300)
        Y = np.zeros((5, kinds.size))
        for i, kind in enumerate(kinds):
            if kind == 0:  # one atom's worth: meets the goal
                Y[:, i] = D[:, rng.integers(4)] * rng.uniform(1.0, 3.0)
            elif kind == 1:  # generic in the span plus an unreachable part: takes all four atoms
                Y[:4, i] = rng.uniform(1.0, 2.0, 4) * rng.choice([-1.0, 1.0], 4)
                Y[4, i] = rng.uniform(1.0, 3.0)
            else:  # along atom 0 plus an unreachable part
                Y[0, i] = rng.uniform(1.0, 3.0)
                Y[4, i] = rng.uniform(1.0, 3.0)
        C, statuses = omp_code_matrix(D, Y, 1e-6)
        want = {0: REACHED_ERROR_GOAL, 1: REACHED_ATOM_CAP, 2: DEGENERATE}
        assert statuses == [want[k] for k in kinds]
        _assert_matches_textbook(D, Y, 1e-6)
        codes = C.toarray()
        for i in range(kinds.size):
            code, status = omp_code(D, Y[:, i], 1e-6)
            assert np.array_equal(code, codes[i]) and status == statuses[i], i
        assert np.all(np.count_nonzero(codes[kinds == 2], axis=1) == 1)


class TestBandKernel:
    @pytest.mark.parametrize("J", [107, 11])
    def test_rows_match_single_calls_when_the_last_band_holds_one_signal(self, J):
        """One GEMM forms a band's correlations, and a one-signal band doubles
        its row; 107 or 11 atoms of length 64 leave a tail past the last
        multiple of 8, which BLAS rounds by the row count unless padded.
        11 atoms stop many signals at the atom cap."""
        rng = np.random.default_rng(25)
        D = unit_columns(rng, 64, J)
        N = _BAND + 1
        Y = rng.standard_normal((64, N)) * rng.uniform(0.5, 1.0, N)
        C, statuses = omp_code_matrix(D, Y, 24.0)
        codes = C.toarray()
        assert len({np.count_nonzero(row) for row in codes}) >= 3
        for i in range(N):
            code, status = omp_code(D, Y[:, i], 24.0)
            assert np.array_equal(code, codes[i]) and status == statuses[i], i

    def test_duplicated_atoms_code_like_their_first_occurrence(self):
        """Copies of atoms, placed anywhere after their first occurrence,
        change no code or status; picks land on the first occurrence."""
        rng = np.random.default_rng(26)
        D = unit_columns(rng, 10, 21)
        D[:, 0] = 0.0
        D[0, 0] = 1.0  # e1, where the learner parks atoms with empty codes
        order = list(range(21))
        for j in rng.integers(0, 21, 30):
            order.insert(int(rng.integers(order.index(j) + 1, len(order) + 1)), int(j))
        order += [0] * 12
        Y = rng.standard_normal((10, 400)) * rng.uniform(0.3, 3.0, 400)
        for goal in (0.8, 0.05):
            C, statuses = omp_code_matrix(D, Y, goal)
            Cd, sd = omp_code_matrix(D[:, order], Y, goal)
            first = np.array([order.index(j) for j in range(21)])
            want = np.zeros((400, len(order)))
            want[:, first] = C.toarray()
            assert sd == statuses
            assert np.array_equal(Cd.toarray(), want)

    def test_long_supports_across_bands(self):
        """Most signals take 8 or more atoms, so the active set shrinks over
        many steps of every band."""
        rng = np.random.default_rng(27)
        D = unit_columns(rng, 16, 40)
        N = _BAND + 400
        Y = rng.standard_normal((16, N))
        statuses, codes = _assert_matches_textbook(D, Y, 0.5)
        support = np.count_nonzero(codes, axis=1)
        assert np.mean(support >= 8) > 0.5 and len(set(support)) >= 6
        for i in range(N):
            code, status = omp_code(D, Y[:, i], 0.5)
            assert np.array_equal(code, codes[i]) and status == statuses[i], i
