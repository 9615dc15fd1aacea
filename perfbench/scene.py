"""Seeded synthetic grayscale scene for the benchmark workloads.

The test suite's fallback scene is so smooth that DCT-OMP codes it at
about 0.1 atoms per patch, which would time OMP on near-empty supports.
This scene mixes a 1/f^1.2 random field (the power law of natural
photos) with hard edges (a disc and a box) and a periodic texture band,
so coding and learning see realistic support sizes.

Targets, fixed before the scene was tried: at sigma 20 with the default
OMP gain 1.15, DCT-OMP averages 1 to 4 atoms per patch, and learned
denoising gains at least 3 dB over the noisy input and stays within
0.3 dB of the DCT baseline.  The benchmark reports the measured values
on every run and counts a miss as a failed check.
"""

from __future__ import annotations

import numpy as np

SPECTRAL_EXPONENT = 1.2
FIELD_STD = 28.0  # gray levels


def make_scene(size: int, seed) -> np.ndarray:
    """A ``size`` x ``size`` uint8 scene drawn from ``seed``.

    ``seed`` is anything ``numpy.random.default_rng`` accepts.

    Every seed shares the field's power spectrum and standard deviation,
    the shapes' sizes and the stripes' frequency, so the patch statistics
    (and with them the work per patch) vary little between seeds; the
    seed draws the field's phases, the shapes' positions and the stripes'
    phase.
    """
    rng = np.random.default_rng(seed)
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.fftfreq(size)[None, :]
    # One frequency of each +-k pair, with a fixed 1/f amplitude and a
    # random phase: the pairs cannot interfere, so every seed has exactly
    # the same power spectrum.
    half = (fy > 0) | ((fy == 0) & (fx > 0))
    amplitude = np.where(half, np.hypot(fy, fx), 1.0) ** -SPECTRAL_EXPONENT * half
    phase = np.exp(2j * np.pi * rng.random(amplitude.shape))
    field = np.fft.ifft2(amplitude * phase).real
    field *= FIELD_STD / field.std()

    y, x = np.mgrid[0:size, 0:size] / size
    # the shapes and the band never overlap, so every seed has the same edges
    cy, cx = rng.uniform(0.2, 0.3, size=2)
    disc = (y - cy) ** 2 + (x - cx) ** 2 < 0.15**2
    by, bx = rng.uniform(0.35, 0.5), rng.uniform(0.65, 0.75)
    box = (np.abs(y - by) < 0.15) & (np.abs(x - bx) < 0.12)
    band = (y > 0.78) & (y < 0.95)
    stripes = np.sin(2 * np.pi * (17 * x + 10 * y) + rng.uniform(0.0, 2 * np.pi))

    img = 128.0 + field + 50.0 * disc - 45.0 * box + 30.0 * stripes * band
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)
