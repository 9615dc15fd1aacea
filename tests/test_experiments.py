import tracemalloc

import numpy as np
import pytest

from sparsedl.exceptions import ConfigError, FormatError
from sparsedl.experiments import (
    REFERENCE_PSNR,
    convergence_trace,
    denoise_table,
    lambda_sweep,
    read_csv_table,
    sample_patch_columns,
    scaling_bench,
    write_csv_table,
)
from sparsedl.io import read_trace_csv, write_pgm
from sparsedl.patches import extract_patches


@pytest.fixture()
def texture(natural_image):
    return natural_image[:96, :96].astype(float)


class TestCsvTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ("a", "b")
        rows = [("1", "x"), ("2", "y")]
        write_csv_table(path, header, rows)
        got_header, got_rows = read_csv_table(path)
        assert got_header == list(header)
        assert got_rows == [list(r) for r in rows]

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(FormatError):
            read_csv_table(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            read_csv_table(path)


class TestPatchSampling:
    def test_columns_come_from_the_image(self, texture):
        P = sample_patch_columns(texture, 8, 50, seed=3)
        assert P.shape == (64, 50)
        allp = extract_patches(texture, 8, 1)
        # every sampled column appears verbatim among the full patch set
        for col in P.T[:5]:
            assert np.any(np.all(allp == col[:, None], axis=0))

    def test_seeded_and_distinct(self, texture):
        a = sample_patch_columns(texture, 8, 40, seed=1)
        b = sample_patch_columns(texture, 8, 40, seed=1)
        c = sample_patch_columns(texture, 8, 40, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_picks_the_seeded_grid_columns(self, texture):
        allp = extract_patches(texture, 8, 1)
        pick = np.random.default_rng(4).choice(allp.shape[1], size=300, replace=False)
        P = sample_patch_columns(texture, 8, 300, seed=4)
        assert np.array_equal(P, allp[:, pick])
        assert P.flags.f_contiguous

    def test_extracts_only_the_sampled_patches(self):
        """The traced peak is a few times the result, not the full stride-1 grid."""
        image = np.random.default_rng(5).integers(0, 256, (256, 256)).astype(float)
        tracemalloc.start()
        try:
            P = sample_patch_columns(image, 8, 10_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * P.nbytes

    def test_gathers_into_the_result_without_a_second_copy(self):
        """The picked windows go straight into the result, a few hundred at a
        time, so the traced peak stays within 10 % of it."""
        image = np.random.default_rng(6).integers(0, 256, (512, 512)).astype(float)
        tracemalloc.start()
        try:
            P = sample_patch_columns(image, 8, 30_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * P.nbytes

    def test_count_bounds(self, texture):
        with pytest.raises(ConfigError):
            sample_patch_columns(texture, 8, 0)
        with pytest.raises(ConfigError):
            sample_patch_columns(texture, 8, 10**9)
        with pytest.raises(ConfigError, match="real"):
            sample_patch_columns(texture + 1j, 8, 10)
        with pytest.raises(ConfigError, match="patch count must be an integer"):
            sample_patch_columns(texture, 8, 10.0)
        with pytest.raises(ConfigError, match="seed must be at least 0"):
            sample_patch_columns(texture, 8, 10, seed=-1)


class TestConvergenceTrace:
    def test_writes_parseable_monotone_trace(self, texture, tmp_path):
        out = tmp_path / "trace.csv"
        trace = convergence_trace(
            texture, out, num_patches=400, num_atoms=64, lam=40.0, iterations=3, seed=0
        )
        assert len(trace) == 3
        got = read_trace_csv(out)
        assert np.array_equal(got.objective, trace.objective)
        assert np.all(np.diff(trace.objective) <= 1e-9 * np.abs(trace.objective[:-1]))
        header, rows = read_csv_table(out)
        assert header[0] == "iter" and len(rows) == 3

    def test_random_init(self, texture, tmp_path):
        trace = convergence_trace(
            texture, tmp_path / "t.csv", num_patches=200, num_atoms=20, lam=40.0,
            iterations=2, seed=1, init="random",
        )
        assert len(trace) == 2

    def test_bad_init_rejected(self, texture, tmp_path):
        with pytest.raises(ConfigError):
            convergence_trace(texture, tmp_path / "t.csv", num_patches=100, init="wavelet")


class TestLambdaSweep:
    def test_rows_and_csv(self, texture, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = lambda_sweep(
            texture, out, [60.0, 25.0], num_patches=400, num_atoms=64, iterations=2, seed=0
        )
        assert [r[0] for r in rows] == [60.0, 25.0]
        for _, err, sparsity, seconds in rows:
            assert 0.0 < err < 1.0
            assert 0.0 <= sparsity < 1.0
            assert seconds > 0.0
        header, data = read_csv_table(out)
        assert header == ["lambda", "nsre", "sparsity_factor", "seconds"]
        assert len(data) == 2
        assert float(data[0][1]) == pytest.approx(rows[0][1])

    def test_lambda_above_the_data_norm_stores_nothing(self, texture, tmp_path):
        """Above ||Y||_F no correlation passes the threshold, so the codes
        stay empty: the error is all of Y."""
        high = 2.0 * np.linalg.norm(sample_patch_columns(texture, 8, 200, seed=0))
        rows = lambda_sweep(texture, tmp_path / "s.csv", [60.0, high], num_patches=200, num_atoms=64, iterations=1)
        assert rows[1][:3] == (high, 1.0, 0.0)
        assert rows[0][1] < 1.0

    def test_empty_grid_rejected(self, texture, tmp_path):
        with pytest.raises(ConfigError):
            lambda_sweep(texture, tmp_path / "s.csv", [], num_patches=100)
        with pytest.raises(ConfigError, match="lambda must be a real number"):
            lambda_sweep(texture, tmp_path / "s.csv", [40.0, "30"], num_patches=100)


class TestDenoiseTable:
    def test_grid_with_reference_deltas(self, texture, tmp_path):
        clean = tmp_path / "barbara.pgm"  # name present in the reference table
        write_pgm(clean, texture.astype(np.uint8))
        out = tmp_path / "table.csv"
        logged = []
        rows = denoise_table(
            [clean],
            [20.0],
            out,
            stride=4,
            num_atoms=64,
            iterations=1,
            max_train_patches=300,
            seed=0,
            log=logged.append,
        )
        assert len(rows) == 1
        name, sigma, noisy_db, odct_db, learned_db = rows[0]
        assert name == "barbara" and sigma == 20.0
        assert noisy_db < odct_db  # any denoising beats raw noise here
        assert len(logged) == 1
        ref = REFERENCE_PSNR[("barbara", 20)]
        assert f"reference {ref[2]:.2f}" in logged[0] and "delta" in logged[0]
        header, data = read_csv_table(out)
        assert header == ["image", "sigma", "noisy_psnr", "odct_psnr", "learned_psnr"]
        assert data[0][0] == "barbara"

    def test_unknown_image_logs_plain_line(self, texture, tmp_path):
        clean = tmp_path / "yard.pgm"
        write_pgm(clean, texture.astype(np.uint8))
        logged = []
        denoise_table(
            [clean], [12.5], tmp_path / "t.csv", stride=4, num_atoms=64,
            iterations=0, seed=0, log=logged.append,
        )
        assert "reference" not in logged[0]

    def test_needs_images_and_sigmas(self, tmp_path):
        with pytest.raises(ConfigError):
            denoise_table([], [20.0], tmp_path / "t.csv")
        with pytest.raises(ConfigError):
            denoise_table(["x.pgm"], [], tmp_path / "t.csv")
        # rejected before "x.pgm" (which does not exist) is read
        for sigma in ("20", 0.0, np.inf):
            with pytest.raises(ConfigError, match="sigma must be"):
                denoise_table(["x.pgm"], [sigma], tmp_path / "t.csv")
        with pytest.raises(ConfigError, match="seed must be at least 0"):
            denoise_table(["x.pgm"], [20.0], tmp_path / "t.csv", seed=-1)

    @pytest.mark.parametrize("field", ["patch_size", "lam_multiplier", "prior_weight", "init", "sigma"])
    def test_protocol_fields_are_fixed(self, tmp_path, field):
        # rejected before "x.pgm" (which does not exist) is read
        with pytest.raises(ConfigError, match=field):
            denoise_table(["x.pgm"], [20.0], tmp_path / "t.csv", **{field: 4})


class TestScalingBench:
    def test_rows_and_csv(self, texture, tmp_path):
        out = tmp_path / "bench.csv"
        rows = scaling_bench(
            texture, out, sizes=(150, 300), num_atoms=64, lam=40.0, iterations=1, seed=0
        )
        assert [r[0] for r in rows] == [150, 300]
        assert all(r[1] > 0.0 for r in rows)
        header, data = read_csv_table(out)
        assert header == ["num_signals", "seconds_per_iteration"]
        assert [int(r[0]) for r in data] == [150, 300]

    def test_validation(self, texture, tmp_path):
        with pytest.raises(ConfigError):
            scaling_bench(texture, tmp_path / "b.csv", sizes=())
        with pytest.raises(ConfigError):
            scaling_bench(texture, tmp_path / "b.csv", sizes=(100,), iterations=0)
        with pytest.raises(ConfigError, match="iterations must be an integer"):
            scaling_bench(texture, tmp_path / "b.csv", sizes=(100,), iterations=1.5)
        for size in (150.0, "150", True):
            with pytest.raises(ConfigError, match="size must be an integer"):
                scaling_bench(texture, tmp_path / "b.csv", sizes=(100, size), num_atoms=64)
