"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test prints one `ACCEPTANCE <k> PASS: ...` line with the measured
quantities when it succeeds; a failed assertion marks the criterion
red.  Oracles here recompute every claimed quantity from definitions
(dense residuals, exhaustive search, random probes) rather than through
the library's fast paths.
"""

import subprocess
import sys
from dataclasses import replace

import numpy as np
from conftest import HalfStepObjectives, cli_env, dense_objective, dense_residual_excluding

from sparsedl.denoise import (
    DenoiseConfig,
    add_gaussian_noise,
    denoise_image,
    psnr,
    quantize_pixels,
)
from sparsedl.dictionaries import overcomplete_dct_dictionary
from sparsedl.experiments import lambda_sweep, sample_patch_columns, scaling_bench
from sparsedl.io import read_csv_table, write_pgm
from sparsedl.learner import LearnConfig, atom_update_step, code_rhs, atom_rhs, learn, sparse_code_step


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _exhaustive_single_atom_optimum(Y, d, lam, bound):
    """Global minimum over all supports for a one-atom dictionary.

    Enumerates every support; on a support the best coefficient is the
    correlation clipped to the magnitude bound (coordinate-wise exact).
    The winning candidate is re-scored from the dense definition.
    """
    N = Y.shape[1]
    b = Y.T @ d
    clipped = np.clip(b, -bound, bound)
    masks = ((np.arange(2**N)[:, None] >> np.arange(N)) & 1).astype(bool)
    cands = np.where(masks, clipped, 0.0)
    fit = (Y**2).sum() - 2.0 * cands @ b + (cands**2).sum(axis=1)
    f = fit + lam * lam * np.count_nonzero(cands, axis=1)
    k = int(np.argmin(f))
    f_dense = dense_objective(Y, d[:, None], cands[k][:, None], lam)
    assert abs(f_dense - f[k]) <= 1e-9 * max(1.0, abs(f_dense))
    return f_dense


def test_criterion_01_code_step_attains_exhaustive_optimum():
    """500 random one-atom problems: the closed-form code update must
    match brute-force search over all 2^N supports to 1e-10 relative."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 13))
        Y = rng.standard_normal((n, N)) * float(rng.choice([0.5, 1.0, 3.0]))
        d = _unit(rng, n)
        lam = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.1, 2.5))
        bound = 1e3 if rng.random() < 0.2 else lam + float(rng.uniform(0.2, 4.0))
        C = (rng.uniform(-bound, bound, (N, 1))) * (rng.random((N, 1)) < 0.4)
        c = sparse_code_step(Y, d[:, None], C, 0, lam, bound)
        f_step = dense_objective(Y, d[:, None], c[:, None], lam)
        f_opt = _exhaustive_single_atom_optimum(Y, d, lam, bound)
        gap = (f_step - f_opt) / max(1.0, abs(f_opt))
        assert -1e-10 <= gap <= 1e-10, f"step {f_step} vs exhaustive {f_opt}"
        worst = max(worst, gap)
    print(f"ACCEPTANCE 1 PASS: 500 exhaustive comparisons, worst relative gap {worst:.2e}")


def test_criterion_02_atom_step_beats_random_unit_probes():
    """500 random instances: the closed-form atom update never loses to
    any of 100 random unit-norm competitors on the dense fit."""
    rng = np.random.default_rng(102)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        N = int(rng.integers(2, 13))
        J = int(rng.integers(1, 7))
        Y = rng.standard_normal((n, N))
        D = rng.standard_normal((n, J))
        D /= np.linalg.norm(D, axis=0)
        C = rng.standard_normal((N, J)) * (rng.random((N, J)) < 0.4)
        j = int(rng.integers(J))
        c_new = np.zeros(N)
        while not c_new.any():
            c_new = rng.standard_normal(N) * (rng.random(N) < 0.5)
        d_star = atom_update_step(Y, D, C, j, c_new)
        E = dense_residual_excluding(Y, D, C, j)
        f_star = float(((E - np.outer(d_star, c_new)) ** 2).sum())
        V = rng.standard_normal((n, 100))
        V /= np.linalg.norm(V, axis=0)
        diffs = E[None, :, :] - V.T[:, :, None] * c_new[None, None, :]
        f_probes = (diffs**2).sum(axis=(1, 2))
        assert f_star <= f_probes.min() + 1e-9 * max(1.0, f_probes.min())
    print("ACCEPTANCE 2 PASS: 500 instances x 100 unit probes, atom update never beaten")


def test_criterion_03_objective_never_increases_within_sweeps(monkeypatch):
    """200 learning runs (n=16, J=32, N=200, 5 sweeps): the dense
    objective, taken before and after every half-step, never rises by
    more than 1e-9 relative, starting from the initialization."""
    rng = np.random.default_rng(103)
    n, N, J, K = 16, 200, 32, 5
    worst = -np.inf
    for _ in range(200):
        Y = rng.standard_normal((n, N))
        D0 = rng.standard_normal((n, J))
        D0 /= np.linalg.norm(D0, axis=0)
        lam = float(rng.uniform(0.1, 6.0))
        rng.integers(2**31)  # unused, but the later instances follow this draw in the stream
        with monkeypatch.context() as patch:
            half_steps = HalfStepObjectives(patch, Y, D0, lam)
            D, C, _ = learn(Y, LearnConfig(num_atoms=J, iterations=K, lam=lam, init_dictionary=D0))
        half_steps.assert_replays(D, C)
        seq = half_steps.sequence(K, J)
        assert seq.shape == (1 + 2 * K * J,)
        rises = np.diff(seq) / np.maximum(np.abs(seq[:-1]), 1e-12)
        worst = max(worst, float(rises.max()))
        assert rises.max() <= 1e-9
    print(f"ACCEPTANCE 3 PASS: 200 runs x 321 half-steps, worst relative rise {worst:.2e}")


def test_criterion_04_memory_lean_paths_match_dense_residuals():
    """100 random instances: both matrix-free right-hand sides agree
    with explicit residual materialization to 1e-10 relative."""
    from scipy import sparse

    rng = np.random.default_rng(104)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 10))
        N = int(rng.integers(2, 16))
        J = int(rng.integers(1, 8))
        scale = float(rng.choice([1.0, 1e3]))
        Y = rng.standard_normal((n, N)) * scale
        D = rng.standard_normal((n, J))
        D /= np.linalg.norm(D, axis=0)
        C = (rng.standard_normal((N, J)) * (rng.random((N, J)) < 0.4)) * scale
        Cin = sparse.csc_array(C) if trial % 2 else C
        j = int(rng.integers(J))
        E = dense_residual_excluding(Y, D, C, j)
        want_b = E.T @ D[:, j]
        got_b = code_rhs(Y, D, Cin, j)
        err_b = np.linalg.norm(got_b - want_b) / max(1.0, np.linalg.norm(want_b))
        c_new = rng.standard_normal(N) * (rng.random(N) < 0.5) * scale
        want_h = E @ c_new
        got_h = atom_rhs(Y, D, Cin, j, c_new)
        err_h = np.linalg.norm(got_h - want_h) / max(1.0, np.linalg.norm(want_h))
        worst = max(worst, err_b, err_h)
        assert err_b <= 1e-10 and err_h <= 1e-10
    print(f"ACCEPTANCE 4 PASS: 100 instances, worst relative deviation {worst:.2e}")


def test_criterion_05_iterate_changes_decay_on_patch_data(smooth_image):
    """30000 random 8x8 patches, 256 atoms, weight 69, 30 sweeps from
    the DCT start: both per-iteration change norms must fall to <= 10%
    of their second-iteration values, with final code density between
    1% and 6% of the signal budget."""
    Y = sample_patch_columns(smooth_image.astype(float), 8, 30000, seed=0)
    D0 = overcomplete_dct_dictionary(64, 256)
    _, _, trace = learn(Y, LearnConfig(num_atoms=256, iterations=30, lam=69.0, init_dictionary=D0))
    dict_ratio = trace.delta_dict[-1] / trace.delta_dict[1]
    code_ratio = trace.delta_codes[-1] / trace.delta_codes[1]
    sparsity = trace.sparsity_factor[-1]
    assert dict_ratio <= 0.1, f"dictionary change ratio {dict_ratio:.4f}"
    assert code_ratio <= 0.1, f"code change ratio {code_ratio:.4f}"
    assert 0.01 <= sparsity <= 0.06, f"sparsity {sparsity:.4f}"
    print(
        f"ACCEPTANCE 5 PASS: change ratios dict {dict_ratio:.4f} / codes {code_ratio:.4f} "
        f"(limit 0.1), sparsity {sparsity * 100:.2f}% in [1%, 6%]"
    )


def test_criterion_06_error_decreases_across_sparsity_weights(natural_image, tmp_path):
    """A decreasing weight grid must drive the normalized error strictly
    down, its lowest code density at most 3% and its highest at least 15%."""
    out = tmp_path / "sweep.csv"
    rows = lambda_sweep(
        natural_image.astype(float),
        out,
        [85.0, 69.0, 50.0, 35.0, 25.0, 18.0, 13.0, 10.0],
        num_patches=30000,
        num_atoms=256,
        iterations=10,
        seed=0,
    )
    errors = np.array([r[1] for r in rows])
    densities = np.array([r[2] for r in rows])
    assert np.all(np.diff(errors) < 0.0), f"errors not strictly decreasing: {errors}"
    assert densities.min() <= 0.03 and densities.max() >= 0.15, f"span {densities}"
    header, parsed = read_csv_table(out)
    assert header == ["lambda", "nsre", "sparsity_factor", "seconds"] and len(parsed) == 8
    print(
        f"ACCEPTANCE 6 PASS: error {errors[0]:.4f} -> {errors[-1]:.4f} strictly decreasing, "
        f"density span {densities.min() * 100:.2f}%-{densities.max() * 100:.2f}%"
    )


def test_criterion_07_noise_psnr_convention(natural_image):
    """Adding sigma=20 noise to a 512x512 image must measure
    22.11 +/- 0.15 dB against the clean original."""
    clean = natural_image.astype(float)
    values = []
    for seed in (0, 1, 2):
        noisy = add_gaussian_noise(clean, 20.0, seed=seed)
        values.append(psnr(clean, noisy))
    for v in values:
        assert abs(v - 22.11) <= 0.15, f"noisy PSNR {v:.3f} outside 22.11 +/- 0.15"
    shown = ", ".join(f"{v:.3f}" for v in values)
    print(f"ACCEPTANCE 7 PASS: noisy PSNR at sigma=20 over 3 seeds: {shown} dB")


def test_criterion_08_denoising_beats_noise_and_fixed_dictionary(natural_image):
    """Standard licensed benchmark photos are not distributed with this
    repository, so the substitute property applies: on a natural image
    at sigma=20, the learned-dictionary result must beat the noisy
    input by at least 3 dB and sit within 0.3 dB of (or above) the
    fixed-DCT baseline."""
    clean = natural_image.astype(float)
    noisy = add_gaussian_noise(clean, 20.0, seed=0)
    config = DenoiseConfig(sigma=20.0, stride=1, iterations=10, seed=0)
    learned_img, _ = denoise_image(noisy, config)
    dct_img, _ = denoise_image(noisy, replace(config, iterations=0))
    noisy_db = psnr(clean, noisy)
    learned_db = psnr(clean, quantize_pixels(learned_img))
    odct_db = psnr(clean, quantize_pixels(dct_img))
    assert learned_db >= noisy_db + 3.0, f"{learned_db:.2f} vs noisy {noisy_db:.2f}"
    assert learned_db >= odct_db - 0.3, f"{learned_db:.2f} vs dct {odct_db:.2f}"
    print(
        f"ACCEPTANCE 8 PASS: noisy {noisy_db:.2f} dB, dct {odct_db:.2f} dB, "
        f"learned {learned_db:.2f} dB (gain {learned_db - noisy_db:+.2f}, "
        f"vs dct {learned_db - odct_db:+.2f})"
    )


def test_criterion_09_per_iteration_cost_scales_linearly(natural_image, tmp_path):
    """Doubling the signal count from 30000 to 60000 must raise the
    per-iteration wall time by at most 2.6x (the cost model says 2x).
    A one-sweep call takes only about 25 ms at 30000, so the fastest of
    nine such calls per size is timed: with three, outside load on the
    shared cores alone could lift the ratio past the bound."""
    out = tmp_path / "bench.csv"
    rows = scaling_bench(
        natural_image.astype(float), out, sizes=(30000, 60000), iterations=9, seed=0
    )
    ratio = rows[1][1] / rows[0][1]
    assert ratio <= 2.6, f"scaling ratio {ratio:.2f}"
    header, parsed = read_csv_table(out)
    assert header == ["num_signals", "seconds_per_iteration"] and len(parsed) == 2
    print(
        f"ACCEPTANCE 9 PASS: {rows[0][1]:.3f} s/iter at 30000 -> {rows[1][1]:.3f} s/iter "
        f"at 60000, ratio {ratio:.2f} <= 2.6"
    )


def test_criterion_10_denoise_command_is_bit_deterministic(natural_image, tmp_path):
    """Two denoise command runs with identical flags and seed must emit
    byte-identical images and reports."""
    clean = natural_image[:96, :96]
    noisy = quantize_pixels(add_gaussian_noise(clean.astype(float), 20.0, seed=5))
    clean_path = tmp_path / "clean.pgm"
    noisy_path = tmp_path / "noisy.pgm"
    write_pgm(clean_path, clean)
    write_pgm(noisy_path, noisy)
    outputs = []
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"den_{tag}.pgm"
        report = tmp_path / f"rep_{tag}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "sparsedl.cli", "denoise",
                "--in", str(noisy_path), "--out", str(out),
                "--sigma", "20", "--clean", str(clean_path), "--report", str(report),
                "--atoms", "64", "--iters", "2", "--stride", "2",
                "--subsample", "800", "--seed", "3",
            ],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
        reports.append(report.read_bytes())
    assert outputs[0] == outputs[1], "denoised images differ between identical runs"
    assert reports[0] == reports[1], "reports differ between identical runs"
    print(
        f"ACCEPTANCE 10 PASS: identical runs produced byte-identical image "
        f"({len(outputs[0])} bytes) and report"
    )
