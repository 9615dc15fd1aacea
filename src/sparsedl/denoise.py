"""Patch-based grayscale denoising with a learned dictionary.

Pipeline, parameterized by the (known) noise level sigma:

1. take the overlapping patches of the noisy image and remove each
   patch's mean;
2. learn a dictionary on the centered patches (sparsity weight
   ``5 * sigma``, magnitude bound ``||Y_train||_F``, DCT initialization,
   zero initial codes).  The training patches are
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
:func:`extract_patches`, into one band-sized buffer that every band
reuses.  So besides image-sized buffers (the noisy image, ``patch_sum``,
``cover`` and the estimate) the coding pass holds that buffer and OMP's
work on it, and takes no new patch matrix per band.
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
from .exceptions import ConfigError, as_finite, as_integer, as_real_array, as_real_number
from .learner import LearnConfig, LearnTrace, learn
from .omp import omp_code_matrix
from .patches import (
    _GRID_ROWS,
    _check_geometry,
    _gather_patches,
    aggregate_patches,
    extract_patches,
    patch_cover,
)

# Patches coded at a time: the coding pass takes bands of whole _GRID_ROWS blocks
# of grid rows holding about this many (64 grid rows at 256x256, 16 at 1024x1024),
# so its working set does not grow with the image.  Each band pays OMP's set-up
# (validation, distinct atoms, G): the 256x256 DCT pass took 59 ms in bands of 8
# grid rows (about 2k patches) and 55 ms in bands of 64.
_BAND_PATCHES = 1 << 14

# The sparsity weight per unit of sigma: the denoiser learns at a weight
# proportional to the noise level, lam = 5 * sigma.
_LAM_PER_SIGMA = 5.0

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
    bit.  The result is float and NOT clipped to [0, 255].  The image must
    be finite, and so is the result: a noisy pixel past the float range
    raises :class:`ConfigError` naming ``sigma``.
    """
    img = as_real_array(image, "image", finite=True)
    sigma = as_real_number(sigma, "sigma", low=0.0)
    rng = np.random.default_rng(as_integer(seed, "seed", low=0))
    u1 = 1.0 - rng.random(img.shape)
    u2 = rng.random(img.shape)
    return as_finite(
        lambda: img + sigma * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2),
        f"the image plus noise of sigma {sigma}",
    )


def psnr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Peak signal-to-noise ratio ``20 log10(255 / rmse)`` in dB, for
    8-bit gray levels.

    Returns ``inf`` for identical inputs and a finite float otherwise;
    NaN or an infinity in either input, or a mean squared error past the
    float range, raises :class:`ConfigError`.
    """
    a = as_real_array(reference, "reference", finite=True)
    b = as_real_array(estimate, "estimate", finite=True)
    if a.shape != b.shape:
        raise ConfigError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ConfigError("cannot compare empty arrays")
    mse = as_finite(lambda: np.mean((a - b) ** 2), "the mean squared error of estimate and reference")
    if mse == 0.0:
        return float("inf")
    return float(20.0 * np.log10(255.0 / np.sqrt(mse)))


def quantize_pixels(image: np.ndarray) -> np.ndarray:
    """Round and clip a finite float image to uint8 pixels in [0, 255]."""
    return np.clip(np.rint(as_real_array(image, "image", finite=True)), 0.0, 255.0).astype(np.uint8)


@dataclass
class DenoiseConfig:
    """Settings for :func:`denoise_image`.

    Learning runs at the sparsity weight ``lam = 5 * sigma``.
    ``prior_weight=None`` resolves to ``20 / sigma``, which must be a
    float, and the weight times the image's largest pixel magnitude must
    be one too, so the estimate is a finite image.  ``error_gain``
    must exceed 1 (the OMP goal must sit above the noise floor), and that
    goal, ``patch_size**2 * error_gain**2 * sigma**2``, must not overflow.
    ``max_train_patches`` caps the learning set: an image with more
    patches learns on a seeded subsample of that many, and coding always
    uses every patch.  Its default, 2**18 = 262,144, is above the 255,025
    patches of a 512 x 512 image, so it changes outputs only above the
    cap; ``None`` learns on every patch.  ``seed``, a non-negative
    integer, draws that subsample.  ``stride`` applies to both
    extraction and aggregation; 1 uses maximum overlap.
    Learning always starts from
    ``overcomplete_dct_dictionary(patch_size**2, num_atoms)``, so
    ``num_atoms`` must be a perfect square of at least ``patch_size**2``.
    :func:`denoise_image` checks every setting before any work starts,
    ``seed`` included when no learning reads it.
    """

    sigma: float
    patch_size: int = 8
    num_atoms: int = 256
    iterations: int = 10
    stride: int = 1
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
    noisy = as_real_array(noisy_image, "noisy image", ndim=2, finite=True)
    sigma = as_real_number(config.sigma, "sigma", low=0.0, exclusive=True)
    gain = as_real_number(config.error_gain, "error_gain", low=1.0, exclusive=True)
    prior = config.prior_weight
    if prior is None:
        named = f"the default prior_weight 20 / sigma of sigma {sigma}"
        prior = as_finite(20.0 / sigma, named)
    else:
        prior = as_real_number(prior, "prior_weight", low=0.0)
        named = f"prior_weight {prior}"
    K = as_integer(config.iterations, "iterations", low=0)
    m = config.max_train_patches
    m = None if m is None else as_integer(m, "max_train_patches", low=1)
    seed = as_integer(config.seed, "seed", low=0)
    _, p, s, (gr, gc) = _check_geometry(noisy.shape, config.patch_size, config.stride)
    n = p * p
    error_goal = as_finite(lambda: n * gain**2 * sigma**2, f"the OMP goal of sigma {sigma} and error_gain {gain}")
    peak = float(np.abs(noisy).max())
    as_finite(prior * peak, f"{named} times the image's largest pixel magnitude {peak:g}")
    if prior == 0.0:
        # a pixel lies under some patch iff both of its axis counts are positive
        if not all(cover.all() for cover in patch_cover(noisy.shape, p, s)):
            raise ConfigError(
                "prior_weight 0 needs full patch coverage; shrink the stride or keep the prior"
            )
    D0 = overcomplete_dct_dictionary(n, config.num_atoms)
    N = gr * gc
    num_train = N if m is None else min(m, N)

    trace = None
    D = D0
    if K > 0:
        rng = np.random.default_rng(seed)
        index = rng.choice(N, size=num_train, replace=False) if num_train < N else None
        train = _gather_patches(noisy, p, s, index)  # train.T is C-ordered: learn works in it
        train -= train.mean(axis=0)
        D, _, trace = learn(
            train,
            LearnConfig(
                num_atoms=D0.shape[1],
                iterations=K,
                lam=_LAM_PER_SIGMA * sigma,
                init_dictionary=D0,
            ),
            overwrite_y=True,
        )
        del train  # learn left its residual here; coding takes the patches anew

    total = np.zeros(noisy.shape)
    statuses = Counter()
    # Each band is whole _GRID_ROWS blocks of grid rows, taken in ascending order, so
    # every pixel sums its patch estimates in the order of one whole-grid aggregation.
    band = max(1, _BAND_PATCHES // (gc * _GRID_ROWS)) * _GRID_ROWS
    # One buffer serves every band, so no band-sized matrix is freed between
    # OMP's small allocations in the C heap: the heap the pass leaves, and so
    # the peak of the next call, would then vary from run to run.
    buf = np.empty((min(band, gr) * gc, n))
    for g0 in range(0, gr, band):
        g1 = min(gr, g0 + band)
        y0, y1 = g0 * s, (g1 - 1) * s + p  # the image rows the band's patches cover
        P = extract_patches(noisy[y0:y1], p, s, out=buf[: (g1 - g0) * gc])
        mu = P.mean(axis=0)
        P -= mu
        codes, stops = omp_code_matrix(D, P, error_goal)
        statuses.update(stops)
        # the estimates overwrite the patches: each patch's mean plus D c
        np.add(mu[:, None], codes @ D.T, out=P.T)
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
