import re
import tracemalloc
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
from sparsedl.patches import aggregate_patches, extract_patches, patch_cover


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
        with pytest.raises(ConfigError, match="real"):
            add_gaussian_noise(np.zeros((2, 2)) + 1j, 1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="image must be finite"):
                add_gaussian_noise(np.array([[bad, 0.0]]), 1.0)
        for sigma in (np.complex128(2 + 1j), "2", None, True):
            with pytest.raises(ConfigError, match="sigma must be a real number"):
                add_gaussian_noise(np.zeros((2, 2)), sigma)
        for seed, match in ((-1, "seed must be at least 0"), (1.5, "seed must be an integer")):
            with pytest.raises(ConfigError, match=match):
                add_gaussian_noise(np.zeros((2, 2)), 1.0, seed)

    def test_overflowing_noise_is_config_error(self):
        """Noise that takes a pixel past the float range is rejected by
        sigma, with no warning, instead of returned as infinite pixels."""
        with pytest.raises(ConfigError, match="^the image plus noise of sigma 1e[+]308 overflows a float$"):
            add_gaussian_noise(np.zeros((4, 4)), 1e308)


class TestPsnr:
    def test_known_value(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 10.0)
        assert psnr(a, b) == pytest.approx(20.0 * np.log10(255.0 / 10.0))

    def test_identical_is_inf(self):
        a = np.ones((4, 4))
        assert psnr(a, a) == np.inf

    def test_validation(self):
        with pytest.raises(ConfigError):
            psnr(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ConfigError, match="empty"):
            psnr(np.zeros((0, 3)), np.zeros((0, 3)))
        for a, b in ((np.zeros((2, 2)) + 1j, np.zeros((2, 2))), (np.zeros((2, 2)), np.zeros((2, 2)) + 1j)):
            with pytest.raises(ConfigError, match="real"):
                psnr(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        """A NaN or infinite pixel has no error to measure: psnr raises
        instead of returning nan or -inf."""
        clean = np.zeros((2, 2))
        dirty = clean.copy()
        dirty[0, 1] = bad
        with pytest.raises(ConfigError, match="estimate must be finite"):
            psnr(clean, dirty)
        with pytest.raises(ConfigError, match="reference must be finite"):
            psnr(dirty, clean)

    def test_overflowing_error_is_config_error(self):
        """Finite inputs whose squared error overflows raise, with no
        warning, instead of giving -inf dB."""
        with pytest.raises(ConfigError, match="^the mean squared error of estimate and reference overflows"):
            psnr(np.zeros((4, 4)), np.full((4, 4), 1e200))


class TestQuantize:
    def test_clip_and_round(self):
        x = np.array([[-3.2, 0.4, 254.6, 300.0]])
        assert quantize_pixels(x).tolist() == [[0, 0, 255, 255]]
        assert quantize_pixels(x).dtype == np.uint8
        with pytest.raises(ConfigError, match="real"):
            quantize_pixels(x + 1j)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        """A NaN pixel has no uint8 value, and an infinite one is no gray
        level to round: both raise instead of being cast or clipped."""
        with pytest.raises(ConfigError, match="image must be finite"):
            quantize_pixels([[bad, 1.0]])


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
        total = aggregate_patches(patches, noisy.shape, 4, 2)
        want = (3.0 * noisy + total) / (3.0 + np.outer(*patch_cover(noisy.shape, 4, 2)))
        assert np.allclose(estimate, want, atol=1e-10)

    def test_zero_prior_requires_full_coverage(self):
        rng = np.random.default_rng(7)
        noisy = rng.random((13, 13)) * 255  # stride 2 leaves the last row/col uncovered
        with pytest.raises(ConfigError):
            denoise_image(noisy, _tiny_config(prior_weight=0.0))
        covered = noisy[:12, :12]
        estimate, _ = denoise_image(covered, _tiny_config(prior_weight=0.0))
        assert np.all(np.isfinite(estimate))

    def test_coverage_is_checked_before_any_work(self, monkeypatch):
        """The prior_weight=0 coverage rule is decided from the shape, the
        patch size and the stride alone, and agrees with the overlap counts
        of the patch grid."""

        class Reached(Exception):
            pass

        def unreachable(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(sparsedl.denoise, "extract_patches", unreachable)
        monkeypatch.setattr(sparsedl.denoise, "learn", unreachable)
        with pytest.raises(ConfigError, match="full patch coverage"):
            denoise_image(np.zeros((131, 131)), DenoiseConfig(sigma=20.0, stride=2, prior_weight=0.0))
        for H in range(4, 12):
            for W in (4, 9):
                for p in (2, 3, 4):
                    for stride in range(1, 7):
                        config = _tiny_config(patch_size=p, stride=stride, prior_weight=0.0)
                        gap = np.any(np.outer(*patch_cover((H, W), p, stride)) == 0.0)
                        with pytest.raises(ConfigError if gap else Reached):
                            denoise_image(np.zeros((H, W)), config)

    @pytest.mark.parametrize(
        "sigma, error_gain", [(1e200, 1.15), (20.0, 1e300), (1e100, 1e100)], ids=["sigma", "gain", "product"]
    )
    def test_overflowing_error_goal_is_checked_before_any_work(self, monkeypatch, sigma, error_gain):
        """The OMP goal n * error_gain^2 * sigma^2 must be a float: one that
        overflows, in a power or in the product, is rejected with the other
        settings, before a dictionary is built or learning runs."""

        def unreachable(*args, **kwargs):
            raise AssertionError("the goal must be checked before any work")

        for name in ("overcomplete_dct_dictionary", "extract_patches", "learn"):
            monkeypatch.setattr(sparsedl.denoise, name, unreachable)
        with pytest.raises(ConfigError, match="^" + re.escape(f"the OMP goal of sigma {sigma} and error_gain {error_gain} overflows")):
            denoise_image(np.zeros((16, 16)), _tiny_config(sigma=sigma, error_gain=error_gain))

    def test_error_goal_keeps_the_bits_of_its_powers(self):
        """At this sigma, sigma**2 and sigma*sigma round apart: the goal is
        the powers' value."""
        sigma, gain = 13.506677, 1.9098
        _, result = denoise_image(np.full((16, 16), 100.0), _tiny_config(sigma=sigma, error_gain=gain, iterations=0))
        assert result.error_goal == 16 * gain**2 * sigma**2 != 16 * (gain * gain) * (sigma * sigma)

    @pytest.mark.parametrize(
        "settings, peak, message",
        [
            (dict(sigma=1e-320), 100.0, "the default prior_weight 20 / sigma of sigma 1e-320 overflows a float"),
            (dict(prior_weight=1e308), 100.0, "prior_weight 1e+308 times the image's largest pixel magnitude 100 "),
            (
                dict(sigma=1e-300),
                1e10,
                "the default prior_weight 20 / sigma of sigma 1e-300 times the image's largest pixel magnitude 1e+10 ",
            ),
        ],
        ids=["tiny-sigma", "huge-prior", "default-prior-times-image"],
    )
    @pytest.mark.parametrize("iterations", [0, 2])
    def test_overflowing_prior_is_checked_before_any_work(self, monkeypatch, settings, peak, message, iterations):
        """The prior weight, default or set, times the largest pixel
        magnitude must be a float, or the estimate holds NaN or infinite
        pixels; it is checked before a dictionary is built or learning
        runs, with no warning."""

        def unreachable(*args, **kwargs):
            raise AssertionError("the prior must be checked before any work")

        for name in ("overcomplete_dct_dictionary", "extract_patches", "learn"):
            monkeypatch.setattr(sparsedl.denoise, name, unreachable)
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            denoise_image(np.full((16, 16), peak), _tiny_config(iterations=iterations, **settings))

    def test_tiny_sigma_gives_a_finite_image(self):
        """At a sigma whose default prior is half the largest float, an
        image of small enough magnitude denoises into a finite image."""
        sigma = 40.0 / np.finfo(float).max
        img = add_gaussian_noise(np.full((16, 16), 100.0), 1.0, seed=1) / 1e300
        estimate, result = denoise_image(img, _tiny_config(sigma=sigma, iterations=0))
        assert np.isfinite(result.prior_weight) and np.all(np.isfinite(estimate))

    @pytest.mark.parametrize("iterations", [0, 2])
    def test_overflowing_image_is_config_error(self, iterations):
        """Patches whose squared norms overflow are rejected, by OMP on the
        DCT pass and by learn otherwise, not denoised into a finite image."""
        img = add_gaussian_noise(np.full((16, 16), 100.0), 20.0, seed=1) * 1e160
        with pytest.raises(ConfigError, match="is too large"):
            denoise_image(img, _tiny_config(iterations=iterations))

    def test_oversize_patch_is_a_geometry_error(self):
        with pytest.raises(ConfigError, match="does not fit"):
            denoise_image(np.zeros((20, 20)), DenoiseConfig(sigma=20.0, patch_size=32))

    @pytest.mark.parametrize("iterations", [0, 2])
    def test_starts_from_the_dct_once(self, monkeypatch, iterations):
        """The start is built by the sparsedl.denoise name of the DCT, once per call."""
        calls = []

        def spy(*args):
            calls.append(args)
            return overcomplete_dct_dictionary(*args)

        monkeypatch.setattr(sparsedl.denoise, "overcomplete_dct_dictionary", spy)
        img = add_gaussian_noise(np.full((16, 16), 100.0), 20.0, seed=1)
        denoise_image(img, _tiny_config(iterations=iterations))
        assert calls == [(16, 16)]

    def test_flat_image_is_returned(self):
        """A flat image has all-zero mean-removed patches, which learn with
        the default code bound."""
        flat = np.full((32, 32), 120.0)
        estimate, result = denoise_image(flat, DenoiseConfig(sigma=5.0, patch_size=4, num_atoms=16, iterations=1))
        assert np.array_equal(estimate, flat)
        assert len(result.trace) == 1

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
        with pytest.raises(ConfigError, match="real"):
            denoise_image(img + 1j, _tiny_config())
        for bad in (
            dict(sigma=0.0),
            dict(error_gain=1.0),
            dict(error_gain=np.inf),
            dict(prior_weight=-1.0),
            dict(prior_weight=np.nan),
            dict(prior_weight=np.inf),
            dict(iterations=-2),
            dict(max_train_patches=0),
            dict(patch_size=2.5),
            dict(iterations=1.5),
            dict(max_train_patches=50.5),
            dict(num_atoms=16.0),
        ):
            with pytest.raises(ConfigError):
                denoise_image(img, _tiny_config(**bad))
        for bad, name in (
            (dict(sigma="20"), "sigma"),
            (dict(sigma=None), "sigma"),
            (dict(error_gain="2"), "error_gain"),
            (dict(prior_weight=1j), "prior_weight"),
            (dict(iterations=True), "iterations"),
            (dict(seed=-1), "seed"),
            (dict(seed=-1, iterations=0), "seed"),
        ):
            with pytest.raises(ConfigError, match=f"{name} must be"):
                denoise_image(img, _tiny_config(**bad))

    def test_estimates_overwrite_the_patch_buffer(self, small_image, monkeypatch):
        """aggregate_patches reads the estimates from the buffer that
        extract_patches made, so no second N x n patch matrix exists."""
        extract = sparsedl.denoise.extract_patches
        aggregate = sparsedl.denoise.aggregate_patches
        extracted = []
        shared = []

        def tracked_extract(*args, **kwargs):
            extracted.append(extract(*args, **kwargs))
            return extracted[-1]

        def checked_aggregate(patches, *args, **kwargs):
            shared.append(np.shares_memory(patches, extracted[-1]))
            return aggregate(patches, *args, **kwargs)

        monkeypatch.setattr(sparsedl.denoise, "extract_patches", tracked_extract)
        monkeypatch.setattr(sparsedl.denoise, "aggregate_patches", checked_aggregate)
        noisy = add_gaussian_noise(small_image[:48, :48].astype(float), 20.0, seed=3)
        for config in (_tiny_config(), _tiny_config(iterations=0), _tiny_config(max_train_patches=100)):
            denoise_image(noisy, config)
        assert shared == [True, True, True]

    def test_bands_share_one_patch_buffer(self, small_image, monkeypatch):
        """Every band is extracted into one buffer, made once per call."""
        extract = sparsedl.denoise.extract_patches
        buffers = []

        def tracked_extract(*args, out, **kwargs):
            buffers.append(out)
            return extract(*args, out=out, **kwargs)

        monkeypatch.setattr(sparsedl.denoise, "extract_patches", tracked_extract)
        monkeypatch.setattr(sparsedl.denoise, "_BAND_PATCHES", 100)
        noisy = add_gaussian_noise(small_image[:48, :48].astype(float), 20.0, seed=4)
        denoise_image(noisy, _tiny_config(iterations=0))
        assert len(buffers) > 1
        assert all(np.shares_memory(b, buffers[0]) for b in buffers)

    @pytest.mark.parametrize("iterations", [0, 2])
    def test_bands_do_not_change_the_bits(self, small_image, monkeypatch, iterations):
        """On a 31 x 31 patch grid, bands of one, two and four blocks of
        grid rows give the same estimates, bit for bit."""
        extract = sparsedl.denoise.extract_patches
        calls = []

        def counted_extract(*args, **kwargs):
            calls[-1] += 1
            return extract(*args, **kwargs)

        monkeypatch.setattr(sparsedl.denoise, "extract_patches", counted_extract)
        noisy = add_gaussian_noise(small_image[:96, :96].astype(float), 20.0, seed=6)
        estimates = []
        for band_patches in (sparsedl.denoise._BAND_PATCHES, 700, 100):
            monkeypatch.setattr(sparsedl.denoise, "_BAND_PATCHES", band_patches)
            calls.append(0)
            estimates.append(denoise_image(noisy, _tiny_config(stride=3, iterations=iterations))[0])
        assert calls == [1, 2, 4]
        assert all(np.array_equal(e, estimates[0]) for e in estimates[1:])

    @pytest.mark.parametrize("subsample", [None, 100])
    def test_learns_inside_the_patch_buffer(self, small_image, monkeypatch, subsample):
        """learn works in place in a training set gathered from the image
        before any patch is extracted, and OMP codes the centered patches
        that extract_patches takes from the image, bit for bit."""
        extract = sparsedl.denoise.extract_patches
        learn = sparsedl.denoise.learn
        omp = sparsedl.denoise.omp_code_matrix
        seen = {"extracted": 0, "learned": 0, "omp_input": []}

        def counted_extract(*args, **kwargs):
            seen["extracted"] += 1
            return extract(*args, **kwargs)

        def checked_learn(Y, config, **kwargs):
            assert kwargs == {"overwrite_y": True}
            assert seen["extracted"] == 0
            assert Y.T.flags.c_contiguous
            seen["learned"] += 1
            return learn(Y, config, **kwargs)

        def checked_omp(D, Y, *args):
            seen["omp_input"].append(Y.copy())
            return omp(D, Y, *args)

        monkeypatch.setattr(sparsedl.denoise, "extract_patches", counted_extract)
        monkeypatch.setattr(sparsedl.denoise, "learn", checked_learn)
        monkeypatch.setattr(sparsedl.denoise, "omp_code_matrix", checked_omp)
        noisy = add_gaussian_noise(small_image[:48, :48].astype(float), 20.0, seed=5)
        denoise_image(noisy, _tiny_config(max_train_patches=subsample))

        want = extract_patches(noisy, 4, 2)
        want -= want.mean(axis=0)
        assert seen["learned"] == 1
        assert np.array_equal(np.hstack(seen["omp_input"]), want)

    def test_learns_at_five_sigma(self, small_image, monkeypatch):
        """learn is handed the sparsity weight lam = 5 * sigma."""
        seen = []

        class Reached(Exception):
            pass

        def spy(Y, config, **kwargs):
            seen.append(config.lam)
            raise Reached

        monkeypatch.setattr(sparsedl.denoise, "learn", spy)
        for sigma in (5.0, 20.0):
            with pytest.raises(Reached):
                denoise_image(small_image[:48, :48].astype(float), _tiny_config(sigma=sigma))
        assert seen == [25.0, 100.0]

    def test_training_buffer_is_freed_before_coding(self, small_image, monkeypatch):
        """The buffer learn trained in is released before OMP codes the
        first band, whether it holds every patch or a subsample."""
        learn = sparsedl.denoise.learn
        omp = sparsedl.denoise.omp_code_matrix
        refs = []

        def tracked_learn(Y, config, **kwargs):
            owner = Y
            while owner.base is not None:
                owner = owner.base
            refs.append(weakref.ref(owner))
            return learn(Y, config, **kwargs)

        def checked_omp(*args):
            assert refs and refs[-1]() is None, "the training buffer outlives learning"
            return omp(*args)

        monkeypatch.setattr(sparsedl.denoise, "learn", tracked_learn)
        monkeypatch.setattr(sparsedl.denoise, "omp_code_matrix", checked_omp)
        noisy = add_gaussian_noise(small_image[:48, :48].astype(float), 20.0, seed=4)
        for config in (_tiny_config(), _tiny_config(max_train_patches=100)):
            denoise_image(noisy, config)
        assert len(refs) == 2

    def test_subsample_is_the_centered_patch_rows(self, small_image, monkeypatch):
        """The training set, gathered from the image by grid index, holds
        the bits of the seeded rows of the whole centered patch buffer, or
        of all of it when learning is not capped."""
        learn = sparsedl.denoise.learn
        seen = []

        def tracked_learn(Y, config, **kwargs):
            seen.append(Y.copy())
            return learn(Y, config, **kwargs)

        monkeypatch.setattr(sparsedl.denoise, "learn", tracked_learn)
        noisy = add_gaussian_noise(small_image.astype(float), 20.0, seed=6)
        for stride, m in ((1, 3000), (2, 500), (2, None)):
            config = _tiny_config(patch_size=8, num_atoms=64, stride=stride, max_train_patches=m, seed=3)
            denoise_image(noisy, config)
            Y = extract_patches(noisy, 8, stride)
            Y -= Y.mean(axis=0)
            if m is not None:
                Y = Y.T[np.random.default_rng(3).choice(Y.shape[1], size=m, replace=False)].T
            assert np.array_equal(seen[-1], Y)

    def test_default_cap_subsamples_only_above_it(self, monkeypatch):
        """The default cap, 2**18 patches, leaves every image up to 512 x 512
        (255,025 patches) learning on all of them, and caps a larger one."""
        assert DenoiseConfig(sigma=20.0).max_train_patches == 2**18 > 505 * 505
        learn = sparsedl.denoise.learn
        trained = []

        def counted_learn(Y, config, **kwargs):
            trained.append(Y.shape[1])
            return learn(Y, config, **kwargs)

        monkeypatch.setattr(sparsedl.denoise, "learn", counted_learn)
        noisy = add_gaussian_noise(np.full((520, 520), 128.0), 20.0, seed=7)
        _, result = denoise_image(noisy, DenoiseConfig(sigma=20.0, num_atoms=64, iterations=1))
        assert trained == [2**18] == [result.num_train_patches]
        assert result.num_patches == 513 * 513
        assert sum(result.omp_statuses.values()) == 513 * 513

    def test_coding_pass_peak_does_not_grow_with_the_image(self, natural_image):
        """The DCT pass codes one band of patch-grid rows at a time, so its
        traced peak is about the same at 128 x 128 and 256 x 256, while the
        whole 8 x 8 patch matrix grows by 24 MB between them."""
        peaks = []
        for size in (128, 256):
            noisy = add_gaussian_noise(natural_image[:size, :size].astype(float), 20.0, seed=8)
            tracemalloc.start()
            try:
                denoise_image(noisy, DenoiseConfig(sigma=20.0, iterations=0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 4e6
