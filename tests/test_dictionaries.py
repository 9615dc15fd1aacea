import numpy as np
import pytest

from sparsedl.dictionaries import INIT_KINDS, initial_dictionary, overcomplete_dct_dictionary, random_dictionary
from sparsedl.exceptions import ConfigError


class TestOvercompleteDct:
    def test_complete_4x4_is_orthonormal(self):
        D = overcomplete_dct_dictionary(4, 4)
        assert np.max(np.abs(D.T @ D - np.eye(4))) < 1e-12

    def test_small_case_matches_hand_construction(self):
        # p = q = 2: base cosine table is [[1, 1], [1, 0]]; removing the
        # mean of the second column gives [[1, .5], [1, -.5]].
        A = np.array([[1.0, 0.5], [1.0, -0.5]])
        want = np.kron(A, A)
        want /= np.linalg.norm(want, axis=0)
        assert np.allclose(overcomplete_dct_dictionary(4, 4), want, atol=1e-12)

    def test_shape_and_unit_norms(self):
        D = overcomplete_dct_dictionary(64, 256)
        assert D.shape == (64, 256)
        assert np.allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)

    def test_first_atom_is_constant(self):
        D = overcomplete_dct_dictionary(64, 256)
        assert np.allclose(D[:, 0], 1.0 / 8.0)

    def test_base_columns_beyond_first_have_zero_mean(self):
        # kron row blocks replicate the base, so summing the first atom
        # against any other base-only atom (index k, k < q) must vanish
        D = overcomplete_dct_dictionary(16, 36)
        for k in range(1, 6):
            assert abs(D[:, k].sum()) < 1e-10

    def test_rejects_non_square_dims(self):
        with pytest.raises(ConfigError):
            overcomplete_dct_dictionary(63, 256)
        with pytest.raises(ConfigError):
            overcomplete_dct_dictionary(64, 200)
        for dims in ((64.0, 256), (64, np.float64(256))):
            with pytest.raises(ConfigError, match="must be an integer"):
                overcomplete_dct_dictionary(*dims)

    def test_rejects_undercomplete(self):
        with pytest.raises(ConfigError):
            overcomplete_dct_dictionary(64, 16)

    def test_rejects_degenerate_one_pixel(self):
        with pytest.raises(ConfigError):
            overcomplete_dct_dictionary(1, 4)


class TestRandomDictionary:
    def test_unit_norms_and_shape(self):
        D = random_dictionary(10, 7, seed=2)
        assert D.shape == (10, 7)
        assert np.allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)

    def test_seed_reproducible(self):
        assert np.array_equal(random_dictionary(6, 4, seed=9), random_dictionary(6, 4, seed=9))
        assert not np.array_equal(random_dictionary(6, 4, seed=9), random_dictionary(6, 4, seed=10))

    def test_rejects_bad_seed(self):
        """A seed is a non-negative integer, for either kind of start."""
        for seed, match in (
            (-1, "seed must be at least 0"),
            (1.5, "seed must be an integer"),
            (True, "integer"),
            (np.random.default_rng(5), "integer"),
        ):
            with pytest.raises(ConfigError, match=match):
                random_dictionary(4, 3, seed)
            for kind in INIT_KINDS:
                with pytest.raises(ConfigError, match=match):
                    initial_dictionary(kind, 4, 4, seed)

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            random_dictionary(0, 3)
        with pytest.raises(ConfigError):
            random_dictionary(3, 0)
