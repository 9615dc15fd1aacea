import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import cli_env, reverse_atom_steps

import sparsedl.cli as cli
import sparsedl.learner
from sparsedl.denoise import add_gaussian_noise, quantize_pixels
from sparsedl.exceptions import InvariantError
from sparsedl.io import read_matrix_text, read_pgm, read_trace_csv, write_matrix_text, write_pgm


def run_cli(*args, env_extra=None):
    env = cli_env()
    env.pop("SPARSEDL_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sparsedl.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture()
def train_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "train.txt"
    write_matrix_text(path, rng.standard_normal((9, 40)))
    return path


@pytest.fixture()
def image_files(tmp_path, natural_image):
    clean = natural_image[:48, :48]
    noisy = quantize_pixels(add_gaussian_noise(clean.astype(float), 20.0, seed=11))
    clean_path = tmp_path / "clean.pgm"
    noisy_path = tmp_path / "noisy.pgm"
    write_pgm(clean_path, clean)
    write_pgm(noisy_path, noisy)
    return clean_path, noisy_path


class TestLearnCommand:
    def test_success_writes_dict_and_trace(self, tmp_path, train_file):
        out_dict = tmp_path / "dict.txt"
        out_trace = tmp_path / "trace.csv"
        out_codes = tmp_path / "codes.txt"
        proc = run_cli(
            "learn", "--data", train_file, "--atoms", 6, "--lambda", 0.5, "--iters", 3,
            "--out-dict", out_dict, "--out-trace", out_trace, "--out-codes", out_codes,
        )
        assert proc.returncode == 0, proc.stderr
        D = read_matrix_text(out_dict)
        assert D.shape == (9, 6)
        assert np.allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-10)
        trace = read_trace_csv(out_trace)
        assert len(trace.objective) == 3
        assert np.all(np.diff(trace.objective) <= 1e-9 * np.abs(trace.objective[:-1]))
        assert read_matrix_text(out_codes).shape == (40, 6)
        assert "objective" in proc.stdout

    def test_lambda_zero_with_bound_is_least_squares_mode(self, tmp_path, train_file):
        proc = run_cli(
            "learn", "--data", train_file, "--atoms", 4, "--lambda", 0.0, "--iters", 2,
            "--bound", 1000.0, "--out-dict", tmp_path / "d.txt", "--out-trace", tmp_path / "t.csv",
        )
        assert proc.returncode == 0, proc.stderr

    def test_missing_required_flag_is_usage_error(self):
        proc = run_cli("learn", "--atoms", 4)
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()

    def test_unknown_command_is_usage_error(self):
        proc = run_cli("transmogrify")
        assert proc.returncode == 1

    def test_missing_data_file_is_io_error(self, tmp_path):
        proc = run_cli(
            "learn", "--data", tmp_path / "absent.txt", "--atoms", 4, "--lambda", 1,
            "--iters", 1, "--out-dict", tmp_path / "d.txt", "--out-trace", tmp_path / "t.csv",
        )
        assert proc.returncode == 2

    def test_malformed_data_file_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n1 2\n3 oops\n")
        proc = run_cli(
            "learn", "--data", bad, "--atoms", 4, "--lambda", 1, "--iters", 1,
            "--out-dict", tmp_path / "d.txt", "--out-trace", tmp_path / "t.csv",
        )
        assert proc.returncode == 2

    def test_bad_bound_is_config_error(self, tmp_path, train_file):
        proc = run_cli(
            "learn", "--data", train_file, "--atoms", 4, "--lambda", 2.0, "--iters", 1,
            "--bound", 1.0, "--out-dict", tmp_path / "d.txt", "--out-trace", tmp_path / "t.csv",
        )
        assert proc.returncode == 1

    def test_invariant_failure_maps_to_exit_3(self, tmp_path, train_file, monkeypatch):
        def boom(*a, **k):
            raise InvariantError("synthetic numeric failure")

        monkeypatch.setattr(sparsedl.learner, "learn", boom)
        code = cli.main(
            [
                "learn", "--data", str(train_file), "--atoms", "4", "--lambda", "1",
                "--iters", "1", "--out-dict", str(tmp_path / "d.txt"),
                "--out-trace", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 3

    def test_objective_rise_exits_3(self, tmp_path, train_file, monkeypatch, capsys):
        reverse_atom_steps(monkeypatch, from_visit=4)
        code = cli.main(
            [
                "learn", "--data", str(train_file), "--atoms", "4", "--lambda", "0.5",
                "--iters", "3", "--out-dict", str(tmp_path / "d.txt"),
                "--out-trace", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 3
        assert "objective rose or went non-finite at iteration 2: " in capsys.readouterr().err

    def test_auto_init_falls_back_for_awkward_shapes(self, tmp_path, train_file):
        # 9 rows is a perfect square but 5 atoms is not: auto must fall
        # back to a random dictionary instead of failing
        proc = run_cli(
            "learn", "--data", train_file, "--atoms", 5, "--lambda", 0.5, "--iters", 1,
            "--out-dict", tmp_path / "d.txt", "--out-trace", tmp_path / "t.csv",
        )
        assert proc.returncode == 0, proc.stderr


class TestDenoiseCommand:
    def test_end_to_end_with_report(self, tmp_path, image_files):
        clean, noisy = image_files
        out = tmp_path / "den.pgm"
        report = tmp_path / "report.csv"
        proc = run_cli(
            "denoise", "--in", noisy, "--out", out, "--sigma", 20, "--clean", clean,
            "--report", report, "--patch", 4, "--atoms", 16, "--iters", 1, "--stride", 3,
        )
        assert proc.returncode == 0, proc.stderr
        img = read_pgm(out)
        assert img.shape == (48, 48)
        text = report.read_text().splitlines()
        assert text[0] == "image,sigma,noisy_psnr,odct_psnr,learned_psnr"
        fields = text[1].split(",")
        assert fields[0] == "noisy.pgm"
        noisy_db, odct_db, learned_db = map(float, fields[2:])
        assert learned_db > noisy_db

    def test_report_without_clean_is_usage_error(self, tmp_path, image_files):
        _, noisy = image_files
        proc = run_cli(
            "denoise", "--in", noisy, "--out", tmp_path / "o.pgm", "--sigma", 20,
            "--report", tmp_path / "r.csv",
        )
        assert proc.returncode == 1

    def test_non_finite_prior_weight_is_usage_error(self, tmp_path, image_files):
        _, noisy = image_files
        out = tmp_path / "den.pgm"
        code = cli.main(
            ["denoise", "--in", str(noisy), "--out", str(out), "--sigma", "20", "--prior-weight", "nan"]
        )
        assert code == 1
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path):
        proc = run_cli("denoise", "--in", tmp_path / "nope.pgm", "--out", tmp_path / "o.pgm", "--sigma", 20)
        assert proc.returncode == 2

    def test_sigma_required(self, tmp_path, image_files):
        _, noisy = image_files
        proc = run_cli("denoise", "--in", noisy, "--out", tmp_path / "o.pgm")
        assert proc.returncode == 1
        assert "sigma" in proc.stderr

    def test_config_file_supplies_defaults_and_flags_win(self, tmp_path, image_files):
        _, noisy = image_files
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("# pipeline settings\nsigma = 10\npatch = 4\natoms = 16\niters = 0\nstride = 3\n")
        out = tmp_path / "o.pgm"
        proc = run_cli("denoise", "--in", noisy, "--out", out, "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        # flag overrides the file: sigma 20 -> error goal 16 * 1.15^2 * 400
        proc = run_cli("denoise", "--in", noisy, "--out", out, "--config", cfg, "--sigma", 20)
        assert proc.returncode == 0, proc.stderr
        assert f"error goal {16 * 1.15 ** 2 * 400:.6g}" in proc.stdout

    def test_unknown_config_key_is_usage_error(self, tmp_path, image_files):
        _, noisy = image_files
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma=20\nwindow=7\n")
        proc = run_cli("denoise", "--in", noisy, "--out", tmp_path / "o.pgm", "--config", cfg)
        assert proc.returncode == 1

    def test_config_line_without_equals_is_format_error(self, tmp_path, image_files):
        _, noisy = image_files
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma 20\n")
        proc = run_cli("denoise", "--in", noisy, "--out", tmp_path / "o.pgm", "--config", cfg)
        assert proc.returncode == 2


class TestExperimentCommands:
    def test_all_kinds_run_on_tiny_inputs(self, tmp_path, image_files):
        clean, _ = image_files
        outs = {
            "conv": tmp_path / "conv.csv",
            "sweep": tmp_path / "sweep.csv",
            "table": tmp_path / "table.csv",
            "bench": tmp_path / "bench.csv",
        }
        runs = [
            ("experiment", "convergence-trace", "--image", clean, "--out", outs["conv"],
             "--patches", 200, "--atoms", 64, "--lambda", 40, "--iters", 2),
            ("experiment", "lambda-sweep", "--image", clean, "--out", outs["sweep"],
             "--lambdas", "60,25", "--patches", 200, "--atoms", 64, "--iters", 1),
            ("experiment", "denoise-table", "--images", clean, "--sigmas", "20", "--out",
             outs["table"], "--stride", 4, "--atoms", 64, "--iters", 1, "--subsample", 200),
            ("experiment", "scaling-bench", "--image", clean, "--out", outs["bench"],
             "--sizes", "100,200", "--atoms", 64, "--lambda", 40, "--iters", 1),
        ]
        for args in runs:
            proc = run_cli(*args)
            assert proc.returncode == 0, (args[1], proc.stderr)
        for path in outs.values():
            assert path.exists() and path.read_text().count("\n") >= 2

    def test_missing_kind_is_usage_error(self):
        assert run_cli("experiment").returncode == 1

    def test_bad_lambda_list_is_usage_error(self, tmp_path, image_files):
        clean, _ = image_files
        proc = run_cli(
            "experiment", "lambda-sweep", "--image", clean, "--out", tmp_path / "s.csv",
            "--lambdas", "a,b",
        )
        assert proc.returncode == 1


class TestThreadPinning:
    def test_env_seeding(self, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("SPARSEDL_THREADS", "2")
        monkeypatch.setenv("MKL_NUM_THREADS", "8")  # explicit setting wins
        cli._pin_threads()
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["MKL_NUM_THREADS"] == "8"

    def test_invalid_value_is_usage_error(self):
        proc = run_cli("learn", "--help", env_extra={"SPARSEDL_THREADS": "many"})
        assert proc.returncode == 1
        assert "SPARSEDL_THREADS" in proc.stderr

    def test_valid_value_passes_through(self, tmp_path, train_file):
        proc = run_cli(
            "learn", "--data", train_file, "--atoms", 4, "--lambda", 1, "--iters", 1,
            "--out-dict", tmp_path / "d.txt", "--out-trace", tmp_path / "t.csv",
            env_extra={"SPARSEDL_THREADS": "1"},
        )
        assert proc.returncode == 0, proc.stderr


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
    assert run_cli("denoise", "--help").returncode == 0
