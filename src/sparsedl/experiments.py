"""Experiment harnesses behind the command line: each runs a protocol
and writes a CSV with a header row.

Every CSV written here round-trips through :func:`read_csv_table`, which
this module re-exports from :mod:`sparsedl.io`.  Timings use
``time.perf_counter`` and are wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .denoise import DenoiseConfig, add_gaussian_noise, denoise_image, psnr, quantize_pixels
from .dictionaries import initial_dictionary, overcomplete_dct_dictionary
from .exceptions import ConfigError, as_integer, as_real_array, as_real_number
from .io import read_csv_table, read_pgm, write_csv_table, write_trace_csv
from .learner import LearnConfig, learn
from .patches import _gather_patches, patch_grid_shape

__all__ = [
    "REFERENCE_PSNR",
    "DENOISE_COLUMNS",
    "read_csv_table",
    "write_csv_table",
    "sample_patch_columns",
    "compare_with_dct",
    "denoise_csv_row",
    "convergence_trace",
    "lambda_sweep",
    "denoise_table",
    "scaling_bench",
]

# Reference PSNRs (dB) for the 512x512 standard test images under this
# pipeline's settings (8x8 patches, 256 atoms).  Keyed by lower-case
# image stem and sigma; values are (noisy, dct_baseline, learned).
# denoise_table prints deltas against these when an input matches.
REFERENCE_PSNR = {
    ("couple", 5): (34.16, 37.25, 37.28),
    ("couple", 10): (28.11, 33.40, 33.50),
    ("couple", 20): (22.11, 29.71, 29.99),
    ("couple", 25): (20.17, 28.53, 28.92),
    ("couple", 30): (18.58, 27.53, 27.97),
    ("couple", 100): (8.13, 22.59, 22.71),
    ("barbara", 5): (34.15, 37.94, 38.04),
    ("barbara", 10): (28.14, 33.96, 34.37),
    ("barbara", 20): (22.13, 29.95, 30.79),
    ("barbara", 25): (20.17, 28.68, 29.64),
    ("barbara", 30): (18.59, 27.62, 28.63),
    ("barbara", 100): (8.11, 21.87, 21.97),
    ("boat", 5): (34.15, 37.09, 37.16),
    ("boat", 10): (28.13, 33.43, 33.60),
    ("boat", 20): (22.10, 29.92, 30.37),
    ("boat", 25): (20.17, 28.79, 29.30),
    ("boat", 30): (18.60, 27.93, 28.43),
    ("boat", 100): (8.13, 22.79, 22.96),
    ("hill", 5): (34.15, 37.02, 37.05),
    ("hill", 10): (28.14, 33.26, 33.44),
    ("hill", 20): (22.10, 29.85, 30.20),
    ("hill", 25): (20.18, 28.89, 29.31),
    ("hill", 30): (18.57, 28.14, 28.56),
    ("hill", 100): (8.16, 24.00, 24.03),
    ("lena", 5): (34.16, 38.52, 38.55),
    ("lena", 10): (28.12, 35.30, 35.47),
    ("lena", 20): (22.11, 32.02, 32.40),
    ("lena", 25): (20.18, 30.89, 31.32),
    ("lena", 30): (18.59, 29.98, 30.46),
    ("lena", 100): (8.14, 24.45, 24.63),
}


# Columns of a denoising comparison: the image, sigma and three PSNRs (dB).
DENOISE_COLUMNS = ("image", "sigma", "noisy_psnr", "odct_psnr", "learned_psnr")

# The DenoiseConfig fields that denoise_table lets a caller set; the protocol
# keeps every other field at its default.
_TABLE_SETTINGS = ("stride", "num_atoms", "iterations", "max_train_patches", "error_gain")


def sample_patch_columns(image: np.ndarray, patch_size: int, count: int, seed: int = 0) -> np.ndarray:
    """Raw (not mean-removed) patches from ``count`` random grid locations:
    columns ``default_rng(seed).choice(N, count, replace=False)`` of
    ``extract_patches(image, patch_size)``, and only those are extracted."""
    img = as_real_array(image, "image")
    gr, gc = patch_grid_shape(img.shape, patch_size, 1)
    N = gr * gc
    count = as_integer(count, "patch count", low=1)
    if count > N:
        raise ConfigError(f"patch count must be at most {N}, got {count}")
    rng = np.random.default_rng(as_integer(seed, "seed", low=0))
    return _gather_patches(img, patch_size, 1, rng.choice(N, size=count, replace=False))


def convergence_trace(
    image: np.ndarray,
    out_csv,
    *,
    num_patches: int = 30000,
    num_atoms: int = 256,
    lam: float = 69.0,
    iterations: int = 30,
    seed: int = 0,
    init: str = "dct",
):
    """Learn on randomly sampled patches and write the per-iteration trace."""
    iterations = as_integer(iterations, "iterations", low=1)
    Y = sample_patch_columns(image, 8, num_patches, seed)
    D0 = initial_dictionary(init, Y.shape[0], num_atoms, seed)
    _, _, trace = learn(
        Y,
        LearnConfig(num_atoms=num_atoms, iterations=iterations, lam=lam, init_dictionary=D0),
    )
    write_trace_csv(out_csv, trace)
    return trace


def lambda_sweep(
    image: np.ndarray,
    out_csv,
    lambdas=(100, 80, 69, 55, 40, 30, 20, 15),
    *,
    num_patches: int = 30000,
    num_atoms: int = 256,
    iterations: int = 10,
    seed: int = 0,
    init: str = "dct",
):
    """Re-learn from the same start for each sparsity weight.

    Writes rows (lambda, nsre, sparsity_factor, seconds); returns them
    as a list of tuples.  Patches and initialization are shared across
    the grid so only lambda varies.
    """
    lambdas = [as_real_number(v, "lambda", low=0.0) for v in lambdas]
    if not lambdas:
        raise ConfigError("lambda grid must be non-empty")
    iterations = as_integer(iterations, "iterations", low=1)
    Y = sample_patch_columns(image, 8, num_patches, seed)
    D0 = initial_dictionary(init, Y.shape[0], num_atoms, seed)
    rows = []
    for lam in lambdas:
        start = time.perf_counter()
        _, _, trace = learn(
            Y,
            LearnConfig(num_atoms=num_atoms, iterations=iterations, lam=lam, init_dictionary=D0),
        )
        seconds = time.perf_counter() - start
        rows.append((lam, float(trace.nsre[-1]), float(trace.sparsity_factor[-1]), seconds))
    write_csv_table(
        out_csv,
        ("lambda", "nsre", "sparsity_factor", "seconds"),
        [(format(a, ".17g"), format(b, ".17g"), format(c, ".17g"), format(d, ".6f")) for a, b, c, d in rows],
    )
    return rows


def compare_with_dct(clean: np.ndarray, noisy: np.ndarray, config: DenoiseConfig):
    """Denoise ``noisy`` as ``config`` says and with the fixed-DCT baseline.

    The baseline is the same run with ``iterations=0``.  Returns
    ``(pixels, result, psnrs)``: the learned estimate quantized to uint8,
    its :class:`DenoiseResult`, and the PSNRs against ``clean`` of the
    quantized noisy image, the baseline and the learned estimate, in the
    order of :data:`DENOISE_COLUMNS`.
    """
    estimate, result = denoise_image(noisy, config)
    pixels = quantize_pixels(estimate)
    dct_estimate, _ = denoise_image(noisy, replace(config, iterations=0))
    psnrs = tuple(psnr(clean, quantize_pixels(image)) for image in (noisy, dct_estimate, pixels))
    return pixels, result, psnrs


def denoise_csv_row(name: str, sigma: float, psnrs):
    """One :data:`DENOISE_COLUMNS` row, with the PSNRs to 4 decimals."""
    return (name, format(sigma, "g"), *(format(v, ".4f") for v in psnrs))


def denoise_table(clean_images, sigmas, out_csv, *, seed: int = 0, log=print, **settings):
    """Noise/denoise grid over clean images and sigma values.

    ``clean_images`` holds PGM paths; each image is noised per sigma
    with a seed derived as ``seed*10000 + image_index*100 + sigma_index``
    and compared by :func:`compare_with_dct` under a
    :class:`DenoiseConfig` of that sigma and that seed.  ``settings`` may
    set its ``stride``, ``num_atoms``, ``iterations``,
    ``max_train_patches`` and ``error_gain``; every other field keeps its
    default.  Writes :data:`DENOISE_COLUMNS` rows and prints a delta line
    whenever (image stem, sigma) appears in REFERENCE_PSNR.
    """
    unknown = sorted(set(settings) - set(_TABLE_SETTINGS))
    if unknown:
        raise ConfigError(f"denoise_table cannot set {', '.join(unknown)}; it sets {_TABLE_SETTINGS}")
    sigmas = [as_real_number(s, "sigma", low=0.0, exclusive=True) for s in sigmas]
    seed = as_integer(seed, "seed", low=0)
    paths = list(clean_images)
    if not paths or not sigmas:
        raise ConfigError("denoise_table needs at least one image and one sigma")
    rows = []
    for i, path in enumerate(paths):
        clean = np.asarray(read_pgm(path), dtype=float)
        name = Path(path).stem
        for k, sigma in enumerate(sigmas):
            noise_seed = seed * 10000 + i * 100 + k
            noisy = add_gaussian_noise(clean, sigma, noise_seed)
            config = DenoiseConfig(sigma=sigma, seed=noise_seed, **settings)
            _, _, (noisy_psnr, odct_psnr, learned_psnr) = compare_with_dct(clean, noisy, config)
            rows.append((name, sigma, noisy_psnr, odct_psnr, learned_psnr))
            ref = REFERENCE_PSNR.get((name.lower(), sigma))  # 20.0 finds the key 20
            if ref is not None:
                log(
                    f"{name} sigma={sigma:g}: learned {learned_psnr:.2f} dB "
                    f"(reference {ref[2]:.2f}, delta {learned_psnr - ref[2]:+.2f}); "
                    f"dct {odct_psnr:.2f} dB (reference {ref[1]:.2f}, delta {odct_psnr - ref[1]:+.2f})"
                )
            else:
                log(
                    f"{name} sigma={sigma:g}: noisy {noisy_psnr:.2f} dB, "
                    f"dct {odct_psnr:.2f} dB, learned {learned_psnr:.2f} dB"
                )
    write_csv_table(
        out_csv, DENOISE_COLUMNS, [denoise_csv_row(name, s, psnrs) for name, s, *psnrs in rows]
    )
    return rows


def scaling_bench(
    image: np.ndarray,
    out_csv,
    sizes=(30000, 60000),
    *,
    num_atoms: int = 256,
    lam: float = 69.0,
    iterations: int = 3,
    seed: int = 0,
):
    """Per-iteration learning wall time as the signal count grows.

    Per size, one untimed warm-up sweep runs.  Then ``iterations`` rounds
    each time one one-sweep ``learn`` call per size, from the same start,
    and each size reports its fastest call: interleaved, a spell of load
    from other processes slows every size alike instead of one.
    Writes rows (num_signals, seconds_per_iteration).
    """
    sizes = [as_integer(s, "size", low=1) for s in sizes]
    if not sizes:
        raise ConfigError("scaling_bench needs at least one size")
    iterations = as_integer(iterations, "iterations", low=1)
    signals = [sample_patch_columns(image, 8, size, seed) for size in sizes]
    D0 = overcomplete_dct_dictionary(8 * 8, num_atoms)
    config = LearnConfig(num_atoms=num_atoms, iterations=1, lam=lam, init_dictionary=D0)
    for Y in signals:
        learn(Y, config)  # warm-up, untimed
    best = [np.inf] * len(sizes)
    for _ in range(iterations):
        for k, Y in enumerate(signals):
            start = time.perf_counter()
            learn(Y, config)
            best[k] = min(best[k], time.perf_counter() - start)
    rows = list(zip(sizes, best))
    write_csv_table(
        out_csv,
        ("num_signals", "seconds_per_iteration"),
        [(str(s), format(t, ".6f")) for s, t in rows],
    )
    return rows
