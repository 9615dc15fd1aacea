import weakref

import numpy as np
import pytest

import sparsedl.denoise
from sparsedl.denoise import (
    DenoiseConfig,
    add_gaussian_noise,
    denoise_image,
    psnr,
    quantize_pixels,
)
from sparsedl.dictionaries import overcomplete_dct_dictionary
from sparsedl.exceptions import ConfigError
from sparsedl.patches import aggregate_patches


class TestNoise:
    def test_stream_is_pinned(self):
        """The exact deviate stream is part of the contract: a seeded
        64-bit PCG source feeding one cosine Box-Muller branch."""
        img = np.full((4, 3), 100.0)
        rng = np.random.default_rng(5)
        u1 = 1.0 - rng.random((4, 3))
        u2 = rng.random((4, 3))
        want = img + 7.0 * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        assert np.array_equal(add_gaussian_noise(img, 7.0, seed=5), want)

    def test_seed_reproducible(self):
        img = np.zeros((8, 8))
        assert np.array_equal(add_gaussian_noise(img, 3.0, 1), add_gaussian_noise(img, 3.0, 1))
        assert not np.array_equal(add_gaussian_noise(img, 3.0, 1), add_gaussian_noise(img, 3.0, 2))

    def test_moments_roughly_match(self):
        noise = add_gaussian_noise(np.zeros((512, 512)), 20.0, 0)
        assert abs(noise.mean()) < 0.3
        assert abs(noise.std() - 20.0) < 0.3

    def test_not_clipped(self):
        img = np.zeros((64, 64))
        assert add_gaussian_noise(img, 50.0, 3).min() < 0.0

    def test_sigma_zero_is_identity(self):
        img = np.arange(6, dtype=float).reshape(2, 3)
        assert np.array_equal(add_gaussian_noise(img, 0.0, 0), img)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigError):
            add_gaussian_noise(np.zeros((2, 2)), -1.0)


class TestPsnr:
    def test_known_value(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 10.0)
        assert psnr(a, b) == pytest.approx(20.0 * np.log10(255.0 / 10.0))

    def test_identical_is_inf(self):
        a = np.ones((4, 4))
        assert psnr(a, a) == np.inf

    def test_custom_peak(self):
        a = np.zeros((3, 3))
        b = np.ones((3, 3))
        assert psnr(a, b, peak=1.0) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            psnr(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            psnr(np.zeros((2, 2)), np.zeros((2, 2)), peak=0.0)


class TestQuantize:
    def test_clip_and_round(self):
        x = np.array([[-3.2, 0.4, 254.6, 300.0]])
        assert quantize_pixels(x).tolist() == [[0, 0, 255, 255]]
        assert quantize_pixels(x).dtype == np.uint8


def _tiny_config(**kw):
    base = dict(sigma=20.0, patch_size=4, num_atoms=16, iterations=2, stride=2, seed=0)
    base.update(kw)
    return DenoiseConfig(**base)


class TestDenoiseImage:
    def test_improves_psnr_on_noisy_image(self, small_image):
        clean = small_image.astype(float)
        noisy = add_gaussian_noise(clean, 20.0, seed=4)
        estimate, result = denoise_image(noisy, _tiny_config(patch_size=8, num_atoms=64))
        assert estimate.shape == clean.shape
        assert np.all(np.isfinite(estimate))
        gain = psnr(clean, estimate) - psnr(clean, noisy)
        assert gain > 2.0
        assert result.num_patches == result.num_train_patches
        assert result.error_goal == pytest.approx(64 * 1.15**2 * 400.0)
        assert result.prior_weight == pytest.approx(1.0)
        assert len(result.trace) == 2

    def test_zero_iterations_uses_fixed_dct(self, small_image):
        noisy = add_gaussian_noise(small_image.astype(float), 15.0, seed=1)
        estimate, result = denoise_image(noisy, _tiny_config(sigma=15.0, iterations=0))
        assert result.trace is None
        assert np.array_equal(result.dictionary, overcomplete_dct_dictionary(16, 16))
        assert np.all(np.isfinite(estimate))

    def test_deterministic(self, small_image):
        noisy = add_gaussian_noise(small_image.astype(float), 10.0, seed=2)
        a, _ = denoise_image(noisy, _tiny_config(sigma=10.0))
        b, _ = denoise_image(noisy, _tiny_config(sigma=10.0))
        assert np.array_equal(a, b)

    def test_subsampled_training_is_seeded(self, small_image):
        noisy = add_gaussian_noise(small_image.astype(float), 10.0, seed=2)
        cfg = _tiny_config(sigma=10.0, max_train_patches=200)
        a, ra = denoise_image(noisy, cfg)
        b, rb = denoise_image(noisy, cfg)
        assert ra.num_train_patches == 200 and rb.num_train_patches == 200
        assert ra.num_patches > 200
        assert np.array_equal(a, b)

    def test_aggregation_formula_with_explicit_prior(self):
        """With iterations=0 the pipeline is fully determined by the DCT
        coding; rebuild the aggregation by hand and compare."""
        rng = np.random.default_rng(6)
        noisy = rng.random((12, 12)) * 255
        cfg = _tiny_config(sigma=5.0, iterations=0, stride=2, prior_weight=3.0)
        estimate, result = denoise_image(noisy, cfg)

        from sparsedl.omp import omp_code_matrix
        from sparsedl.patches import extract_patches

        Y = extract_patches(noisy, 4, 2)
        means = Y.mean(axis=0)
        D = overcomplete_dct_dictionary(16, 16)
        codes, _ = omp_code_matrix(D, Y - means, result.error_goal)
        patches = np.asarray(codes @ D.T).T + means
        total, cover = aggregate_patches(patches, noisy.shape, 4, 2)
        want = (3.0 * noisy + total) / (3.0 + cover)
        assert np.allclose(estimate, want, atol=1e-10)

    def test_zero_prior_requires_full_coverage(self):
        rng = np.random.default_rng(7)
        noisy = rng.random((13, 13)) * 255  # stride 2 leaves the last row/col uncovered
        with pytest.raises(ConfigError):
            denoise_image(noisy, _tiny_config(prior_weight=0.0))
        covered = noisy[:12, :12]
        estimate, _ = denoise_image(covered, _tiny_config(prior_weight=0.0))
        assert np.all(np.isfinite(estimate))

    def test_near_clean_input_stays_close(self):
        img = np.full((16, 16), 120.0)
        estimate, _ = denoise_image(img + 0.01, _tiny_config(sigma=0.5, iterations=0))
        assert np.max(np.abs(estimate - 120.0)) < 1.0

    def test_validation(self, monkeypatch):
        def no_extraction(*args, **kwargs):
            raise AssertionError("settings must be checked before any patch is extracted")

        monkeypatch.setattr(sparsedl.denoise, "extract_patches", no_extraction)
        img = np.zeros((16, 16))
        with pytest.raises(ConfigError):
            denoise_image(np.zeros(16), _tiny_config())
        with pytest.raises(ConfigError):
            denoise_image(np.full((16, 16), np.nan), _tiny_config())
        for bad in (
            dict(sigma=0.0),
            dict(error_gain=1.0),
            dict(error_gain=np.inf),
            dict(prior_weight=-1.0),
            dict(prior_weight=np.nan),
            dict(prior_weight=np.inf),
            dict(init="fourier"),
            dict(lam_multiplier=0.0),
            dict(lam_multiplier=np.nan),
            dict(lam_multiplier=np.inf),
            dict(iterations=-2),
            dict(max_train_patches=0),
        ):
            with pytest.raises(ConfigError):
                denoise_image(img, _tiny_config(**bad))

    def test_patches_are_freed_before_aggregation(self, small_image, monkeypatch):
        extract = sparsedl.denoise.extract_patches
        aggregate = sparsedl.denoise.aggregate_patches
        extracted = []

        def tracked_extract(*args, **kwargs):
            patches = extract(*args, **kwargs)
            extracted.append(weakref.ref(patches))
            return patches

        def checked_aggregate(*args, **kwargs):
            assert extracted[-1]() is None, "the patch matrix is still alive at aggregation"
            return aggregate(*args, **kwargs)

        monkeypatch.setattr(sparsedl.denoise, "extract_patches", tracked_extract)
        monkeypatch.setattr(sparsedl.denoise, "aggregate_patches", checked_aggregate)
        noisy = add_gaussian_noise(small_image[:48, :48].astype(float), 20.0, seed=3)
        for config in (_tiny_config(), _tiny_config(iterations=0), _tiny_config(max_train_patches=100)):
            denoise_image(noisy, config)
        assert len(extracted) == 3
