"""Patch-based grayscale denoising with a learned dictionary.

Pipeline, parameterized by the (known) noise level sigma:

1. extract every overlapping patch of the noisy image and remove each
   patch's mean;
2. learn a dictionary on the centered patches (sparsity weight
   ``lam_multiplier * sigma``, magnitude bound ``||Y_train||_F``, DCT
   initialization, zero initial codes), then discard the learned codes;
3. re-code every centered patch against the learned dictionary with
   error-constrained OMP at goal ``n * error_gain^2 * sigma^2``;
4. rebuild patch estimates, restore their means, and average overlaps
   together with a noisy-image prior weighted by ``prior_weight``
   (default ``20 / sigma``):

       x = (prior_weight * noisy + patch_sum) / (prior_weight + cover)

Setting ``iterations=0`` skips step 2 and codes against the fixed DCT
dictionary, which is the baseline the reports compare against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

# overcomplete_dct_dictionary stays importable from here: perfbench wraps it by this name.
from .dictionaries import initial_dictionary, overcomplete_dct_dictionary  # noqa: F401
from .exceptions import ConfigError
from .learner import LearnConfig, LearnTrace, learn
from .omp import omp_code_matrix
from .patches import aggregate_patches, extract_patches

__all__ = [
    "add_gaussian_noise",
    "psnr",
    "quantize_pixels",
    "DenoiseConfig",
    "DenoiseResult",
    "denoise_image",
]


def add_gaussian_noise(image: np.ndarray, sigma: float, seed: int = 0) -> np.ndarray:
    """Add iid zero-mean Gaussian noise of standard deviation ``sigma``.

    The deviates come from a seeded 64-bit PCG generator through the
    Box-Muller transform, ``sqrt(-2 ln u1) * cos(2 pi u2)`` with
    ``u1 = 1 - uniform`` kept away from zero.  The exact stream (not
    just the distribution) is pinned so seeded runs reproduce bit for
    bit.  The result is float and NOT clipped to [0, 255].
    """
    img = np.asarray(image, dtype=float)
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ConfigError(f"sigma must be finite and nonnegative, got {sigma}")
    rng = np.random.default_rng(seed)
    u1 = 1.0 - rng.random(img.shape)
    u2 = rng.random(img.shape)
    return img + sigma * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def psnr(reference: np.ndarray, estimate: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio ``20 log10(peak / rmse)`` in dB.

    Returns ``inf`` for identical inputs.
    """
    a = np.asarray(reference, dtype=float)
    b = np.asarray(estimate, dtype=float)
    if a.shape != b.shape:
        raise ConfigError(f"shape mismatch {a.shape} vs {b.shape}")
    if peak <= 0.0:
        raise ConfigError(f"peak must be positive, got {peak}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(20.0 * np.log10(peak / np.sqrt(mse)))


def quantize_pixels(image: np.ndarray) -> np.ndarray:
    """Round and clip a float image to uint8 pixels in [0, 255]."""
    return np.clip(np.rint(np.asarray(image, dtype=float)), 0.0, 255.0).astype(np.uint8)


@dataclass
class DenoiseConfig:
    """Settings for :func:`denoise_image`.

    ``prior_weight=None`` resolves to ``20 / sigma``.  ``error_gain``
    must exceed 1 (the OMP goal must sit above the noise floor).
    ``max_train_patches`` subsamples the learning set (seeded); coding
    always uses every patch.  ``stride`` applies to both extraction and
    aggregation; 1 uses maximum overlap.
    """

    sigma: float
    patch_size: int = 8
    num_atoms: int = 256
    iterations: int = 10
    stride: int = 1
    lam_multiplier: float = 5.0
    error_gain: float = 1.15
    prior_weight: Optional[float] = None
    max_train_patches: Optional[int] = None
    init: str = "dct"
    seed: int = 0


@dataclass
class DenoiseResult:
    """Diagnostics from one denoising run."""

    dictionary: np.ndarray
    trace: Optional[LearnTrace]
    num_patches: int
    num_train_patches: int
    error_goal: float
    prior_weight: float
    omp_statuses: dict


def denoise_image(noisy_image: np.ndarray, config: DenoiseConfig):
    """Denoise a grayscale image; returns ``(estimate, DenoiseResult)``.

    ``noisy_image`` is float or uint8, already noisy.  The estimate is
    float and unclipped; quantize with :func:`quantize_pixels` before
    writing 8-bit output.
    """
    noisy = np.asarray(noisy_image, dtype=float)
    if noisy.ndim != 2:
        raise ConfigError(f"expected a 2-D image, got shape {noisy.shape}")
    if not np.all(np.isfinite(noisy)):
        raise ConfigError("noisy image must be finite")
    sigma = float(config.sigma)
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ConfigError(f"sigma must be finite and positive, got {sigma}")
    if not 1.0 < config.error_gain < np.inf:
        raise ConfigError(f"error_gain must be finite and exceed 1, got {config.error_gain}")
    if not 0.0 < config.lam_multiplier < np.inf:
        raise ConfigError(f"lam_multiplier must be finite and positive, got {config.lam_multiplier}")
    prior = 20.0 / sigma if config.prior_weight is None else float(config.prior_weight)
    if not 0.0 <= prior < np.inf:
        raise ConfigError(f"prior_weight must be finite and nonnegative, got {prior}")
    if config.iterations < 0:
        raise ConfigError(f"iterations must be nonnegative, got {config.iterations}")
    m = config.max_train_patches
    if m is not None and m < 1:
        raise ConfigError(f"max_train_patches must be positive, got {m}")

    p = int(config.patch_size)
    J = int(config.num_atoms)
    n = p * p
    D0 = initial_dictionary(config.init, n, J, config.seed)
    Y = extract_patches(noisy, p, config.stride)
    N = Y.shape[1]
    means = Y.mean(axis=0)
    Y -= means

    rng = np.random.default_rng(config.seed)
    train = Y[:, rng.choice(N, size=int(m), replace=False)] if m is not None and m < N else Y

    trace = None
    D = D0
    if config.iterations > 0:
        D, _, trace = learn(
            train,
            LearnConfig(
                num_atoms=J,
                iterations=int(config.iterations),
                lam=config.lam_multiplier * sigma,
                init_dictionary=D0,
                seed=config.seed,
            ),
        )

    error_goal = n * config.error_gain**2 * sigma**2
    codes, statuses = omp_code_matrix(D, Y, error_goal)
    num_train = train.shape[1]
    del Y, train  # not read again: free the patches before the estimates
    estimates = codes @ D.T
    estimates += means[:, None]
    estimates = estimates.T

    total, cover = aggregate_patches(estimates, noisy.shape, p, config.stride)
    if prior == 0.0 and np.any(cover == 0.0):
        raise ConfigError(
            "prior_weight 0 needs full patch coverage; shrink the stride or keep the prior"
        )
    estimate = (prior * noisy + total) / (prior + cover)

    result = DenoiseResult(
        dictionary=D,
        trace=trace,
        num_patches=N,
        num_train_patches=num_train,
        error_goal=error_goal,
        prior_weight=prior,
        omp_statuses=dict(Counter(statuses)),
    )
    return estimate, result
