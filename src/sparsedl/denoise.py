"""Patch-based grayscale denoising with a learned dictionary.

Pipeline, parameterized by the (known) noise level sigma:

1. take the overlapping patches of the noisy image and remove each
   patch's mean;
2. learn a dictionary on the centered patches (sparsity weight
   ``lam_multiplier * sigma``, magnitude bound ``||Y_train||_F``, DCT
   initialization, zero initial codes).  The training patches are
   gathered from the image by grid index: all of them, or above
   ``max_train_patches`` patches a seeded subsample.  The learner works
   inside that buffer, and it is dropped once learning returns;
3. re-code every centered patch against the learned dictionary with
   error-constrained OMP at goal ``n * error_gain^2 * sigma^2``;
4. overwrite the patches with their estimates (each patch's mean plus
   ``D c`` of its code), and average their overlaps together with a
   noisy-image prior weighted by ``prior_weight`` (default ``20 / sigma``):

       x = (prior_weight * noisy + patch_sum) / (prior_weight + cover)

Steps 1, 3 and 4 run on one band of patch-grid rows at a time, in grid
order: a band of about ``_BAND_PATCHES`` patches is taken, centered,
coded, turned into estimates and added into ``patch_sum``, and the next
band takes its place.  A band's patches come from the image through
:func:`extract_patches`.  So besides image-sized buffers (the noisy
image, ``patch_sum``, ``cover`` and the estimate) the coding pass holds
the band it codes and, while the next band is taken, the one before.
Every pixel sums its patch estimates in the order of one whole-grid
aggregation, and OMP codes each patch as it would alone, so the bands do
not change the bits.

Setting ``iterations=0`` skips step 2 and codes against the fixed DCT
dictionary, which is the baseline the reports compare against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dictionaries import overcomplete_dct_dictionary
from .exceptions import ConfigError, as_integer
from .learner import LearnConfig, LearnTrace, _add_products, learn
from .omp import omp_code_matrix
from .patches import (
    _GRID_ROWS,
    _gather_patches,
    aggregate_patches,
    extract_patches,
    patch_cover,
    patch_grid_shape,
)

# Patches coded at a time: the coding pass takes bands of whole _GRID_ROWS blocks
# of grid rows holding about this many (64 grid rows at 256x256, 16 at 1024x1024),
# so its working set does not grow with the image.  Each band pays OMP's set-up
# (validation, distinct atoms, G): the 256x256 DCT pass took 59 ms in bands of 8
# grid rows (about 2k patches) and 55 ms in bands of 64.
_BAND_PATCHES = 1 << 14

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
    if a.size == 0:
        raise ConfigError("cannot compare empty arrays")
    if not (np.isfinite(peak) and peak > 0.0):
        raise ConfigError(f"peak must be finite and positive, got {peak}")
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
    ``max_train_patches`` caps the learning set: an image with more
    patches learns on a seeded subsample of that many, and coding always
    uses every patch.  Its default, 2**18 = 262,144, is above the 255,025
    patches of a 512 x 512 image, so it changes outputs only above the
    cap; ``None`` learns on every patch.  ``stride`` applies to both
    extraction and aggregation; 1 uses maximum overlap.  Learning always
    starts from ``overcomplete_dct_dictionary(patch_size**2, num_atoms)``,
    so ``num_atoms`` must be a perfect square of at least ``patch_size**2``.
    """

    sigma: float
    patch_size: int = 8
    num_atoms: int = 256
    iterations: int = 10
    stride: int = 1
    lam_multiplier: float = 5.0
    error_gain: float = 1.15
    prior_weight: Optional[float] = None
    max_train_patches: Optional[int] = 1 << 18
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
    writing 8-bit output.  Once the patch geometry is checked, the start
    is ``overcomplete_dct_dictionary(patch_size**2, num_atoms)``, which
    ``iterations=0`` codes against as it is.
    """
    if np.iscomplexobj(noisy_image):
        raise ConfigError("noisy image must be real")
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
    K = as_integer(config.iterations, "iterations")
    if K < 0:
        raise ConfigError(f"iterations must be nonnegative, got {K}")
    m = config.max_train_patches
    if m is not None and as_integer(m, "max_train_patches") < 1:
        raise ConfigError(f"max_train_patches must be positive, got {m}")

    gr, gc = patch_grid_shape(noisy.shape, config.patch_size, config.stride)
    p = int(config.patch_size)
    s = int(config.stride)
    J = as_integer(config.num_atoms, "num_atoms")
    n = p * p
    if prior == 0.0:
        # a pixel lies under some patch iff both of its axis counts are positive
        if not all(cover.all() for cover in patch_cover(noisy.shape, p, s)):
            raise ConfigError(
                "prior_weight 0 needs full patch coverage; shrink the stride or keep the prior"
            )
    D0 = overcomplete_dct_dictionary(n, J)
    N = gr * gc
    num_train = N if m is None else min(int(m), N)

    trace = None
    D = D0
    if K > 0:
        if num_train < N:
            index = np.random.default_rng(config.seed).choice(N, size=num_train, replace=False)
        else:
            index = np.arange(N)
        train = _gather_patches(noisy, p, s, index)  # train.T is C-ordered: learn works in it
        train -= train.mean(axis=0)
        D, _, trace = learn(
            train,
            LearnConfig(
                num_atoms=J,
                iterations=K,
                lam=config.lam_multiplier * sigma,
                init_dictionary=D0,
                seed=config.seed,
            ),
            overwrite_y=True,
        )
        del train  # learn left its residual here; coding takes the patches anew

    error_goal = n * config.error_gain**2 * sigma**2
    total = np.zeros(noisy.shape)
    statuses = Counter()
    # Each band is whole _GRID_ROWS blocks of grid rows, taken in ascending order, so
    # every pixel sums its patch estimates in the order of one whole-grid aggregation.
    band = max(1, _BAND_PATCHES // (gc * _GRID_ROWS)) * _GRID_ROWS
    for g0 in range(0, gr, band):
        g1 = min(gr, g0 + band)
        y0, y1 = g0 * s, (g1 - 1) * s + p  # the image rows the band's patches cover
        P = extract_patches(noisy[y0:y1], p, s)
        mu = P.mean(axis=0)
        P -= mu
        codes, stops = omp_code_matrix(D, P, error_goal)
        statuses.update(stops)
        # the estimates overwrite the patches: each patch's mean plus D c
        P.T[...] = mu[:, None]
        _add_products(P.T, codes, D)
        aggregate_patches(P, (y1 - y0, noisy.shape[1]), p, s, out=total[y0:y1])
    cover = np.outer(*patch_cover(noisy.shape, p, s))
    estimate = (prior * noisy + total) / (prior + cover)

    result = DenoiseResult(
        dictionary=D,
        trace=trace,
        num_patches=N,
        num_train_patches=num_train,
        error_goal=error_goal,
        prior_weight=prior,
        omp_statuses=dict(statuses),
    )
    return estimate, result
