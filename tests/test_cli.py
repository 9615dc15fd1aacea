import inspect
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from conftest import cli_env, reverse_atom_steps
from scipy import sparse

import sparsedl.cli as cli
import sparsedl.denoise
import sparsedl.experiments
import sparsedl.learner
from sparsedl.denoise import DenoiseConfig, DenoiseResult, add_gaussian_noise, psnr, quantize_pixels
from sparsedl.dictionaries import random_dictionary
from sparsedl.exceptions import InvariantError
from sparsedl.experiments import DENOISE_COLUMNS
from sparsedl.io import (
    read_csv_table,
    read_matrix_text,
    read_pgm,
    read_trace_csv,
    write_matrix_text,
    write_pgm,
)
from sparsedl.learner import LearnConfig, LearnTrace, atom_update_step, learn
from sparsedl.omp import omp_code, omp_code_matrix


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

    def test_zero_matrix_needs_no_bound(self, tmp_path):
        data = tmp_path / "zeros.txt"
        write_matrix_text(data, np.zeros((4, 10)))
        proc = run_cli(
            "learn", "--data", data, "--atoms", 4, "--lambda", 0.5, "--iters", 2,
            "--out-dict", tmp_path / "d.txt", "--out-trace", tmp_path / "t.csv",
        )
        assert proc.returncode == 0, proc.stderr
        assert np.array_equal(read_trace_csv(tmp_path / "t.csv").objective, [0.0, 0.0])

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

    def test_header_larger_than_memory_is_format_error(self, tmp_path):
        bad = tmp_path / "huge.txt"
        bad.write_text("1000000000000 1000000000000\n")
        proc = run_cli(
            "learn", "--data", bad, "--atoms", 4, "--lambda", 1, "--iters", 1,
            "--out-dict", tmp_path / "d.txt", "--out-trace", tmp_path / "t.csv",
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

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

    def test_report_names_a_non_ascii_image(self, tmp_path, image_files):
        clean, noisy = image_files
        named = noisy.rename(tmp_path / "café.pgm")
        report = tmp_path / "report.csv"
        proc = run_cli(
            "denoise", "--in", named, "--out", tmp_path / "den.pgm", "--sigma", 20, "--clean", clean,
            "--report", report, "--patch", 4, "--atoms", 16, "--iters", 1, "--stride", 3,
        )
        assert proc.returncode == 0, proc.stderr
        _, rows = read_csv_table(report)
        assert [row[0] for row in rows] == ["café.pgm"]

    def test_flat_image_is_returned(self, tmp_path):
        flat = np.full((32, 32), 120, dtype=np.uint8)
        source, out = tmp_path / "flat.pgm", tmp_path / "den.pgm"
        write_pgm(source, flat)
        proc = run_cli(
            "denoise", "--in", source, "--out", out, "--sigma", 5, "--patch", 4, "--atoms", 16, "--iters", 1,
        )
        assert proc.returncode == 0, proc.stderr
        assert np.array_equal(read_pgm(out), flat)

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

    def test_header_larger_than_memory_is_format_error(self, tmp_path):
        bad = tmp_path / "huge.pgm"
        bad.write_bytes(b"P2\n100000000000 100000000000\n255\n")
        proc = run_cli("denoise", "--in", bad, "--out", tmp_path / "o.pgm", "--sigma", 20)
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

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

    def test_repeated_config_key_is_format_error(self, tmp_path, image_files):
        _, noisy = image_files
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("sigma=20\npatch=4\nsigma=30\n")
        proc = run_cli("denoise", "--in", noisy, "--out", tmp_path / "o.pgm", "--config", cfg)
        assert proc.returncode == 2
        assert f"{cfg}:3" in proc.stderr and "sigma" in proc.stderr

    def test_config_line_without_equals_is_format_error(self, tmp_path, image_files):
        _, noisy = image_files
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma 20\n")
        proc = run_cli("denoise", "--in", noisy, "--out", tmp_path / "o.pgm", "--config", cfg)
        assert proc.returncode == 2

    @pytest.mark.parametrize("reference, exit_code", [("missing", 2), ("wrong_shape", 1)])
    def test_clean_reference_is_checked_before_any_work(
        self, tmp_path, image_files, monkeypatch, reference, exit_code
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("denoise_image ran before the reference was checked")

        monkeypatch.setattr(sparsedl.denoise, "denoise_image", unreachable)
        monkeypatch.setattr(sparsedl.experiments, "denoise_image", unreachable)
        _, noisy = image_files
        clean = tmp_path / "reference.pgm"
        if reference == "wrong_shape":
            write_pgm(clean, np.zeros((40, 48), dtype=np.uint8))
        out = tmp_path / "den.pgm"
        code = cli.main(
            ["denoise", "--in", str(noisy), "--out", str(out), "--sigma", "20", "--clean", str(clean)]
        )
        assert code == exit_code
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--sigma", "1e200", "--iters", "0", "--atoms", "64"], ["--sigma", "20", "--omp-gain", "1e300"],
         ["--sigma", "1e100", "--omp-gain", "1e100"]],
        ids=["sigma", "gain", "product"],
    )
    def test_overflowing_error_goal_is_config_error(self, tmp_path, image_files, monkeypatch, capsys, flags):
        """An OMP goal past the float range ends in exit 1 and one error
        line, before a dictionary is built or learning runs."""

        def unreachable(*args, **kwargs):
            raise AssertionError("the goal must be checked before any work")

        for name in ("overcomplete_dct_dictionary", "extract_patches", "learn"):
            monkeypatch.setattr(sparsedl.denoise, name, unreachable)
        _, noisy = image_files
        out = tmp_path / "den.pgm"
        assert cli.main(["denoise", "--in", str(noisy), "--out", str(out), *flags]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: the OMP goal of sigma")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, setting",
        [
            (["--sigma", "1e-320"], "sigma 1e-320"),
            (["--sigma", "20", "--prior-weight", "1e308"], "prior_weight 1e+308"),
        ],
        ids=["tiny-sigma", "huge-prior"],
    )
    def test_overflowing_prior_is_config_error(self, tmp_path, image_files, monkeypatch, capsys, flags, setting):
        """A prior weight, default or set, that takes a pixel's weighted
        value past the float range ends in exit 1 and one error line that
        names the setting, before any patch is taken or learning runs, and
        never in a NaN or infinite estimate."""

        def unreachable(*args, **kwargs):
            raise AssertionError("the prior must be checked before any work")

        for name in ("extract_patches", "learn"):
            monkeypatch.setattr(sparsedl.denoise, name, unreachable)
        _, noisy = image_files
        out = tmp_path / "den.pgm"
        assert cli.main(["denoise", "--in", str(noisy), "--out", str(out), *flags]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and setting in lines[0]
        assert lines[0].endswith("overflows a float")
        assert not out.exists()

    def test_report_row_is_the_shared_comparison(self, tmp_path, image_files, monkeypatch, capsys):
        compare = sparsedl.experiments.compare_with_dct
        seen = []

        def spy(*args):
            pixels, result, psnrs = compare(*args)
            seen.append(psnrs)
            return pixels, result, psnrs

        monkeypatch.setattr(sparsedl.experiments, "compare_with_dct", spy)
        clean, noisy = image_files
        report = tmp_path / "report.csv"
        code = cli.main(
            [
                "denoise", "--in", str(noisy), "--out", str(tmp_path / "den.pgm"), "--sigma", "20",
                "--clean", str(clean), "--report", str(report), "--patch", "4", "--atoms", "16",
                "--iters", "1", "--stride", "3",
            ]
        )
        assert code == 0
        (psnrs,) = seen
        header, rows = read_csv_table(report)
        assert header == list(DENOISE_COLUMNS)
        assert rows == [["noisy.pgm", "20", *(format(v, ".4f") for v in psnrs)]]
        line = "noisy {:.2f} dB, dct baseline {:.2f} dB, denoised {:.2f} dB".format(*psnrs)
        assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command", ["learn", "denoise", "convergence-trace"])
def test_negative_seed_is_config_error(tmp_path, train_file, image_files, capsys, command):
    """A seed below 0 ends in exit 1 and an error line, as any bad setting does."""
    clean, noisy = image_files
    args = {
        "learn": ["learn", "--data", train_file, "--atoms", 4, "--lambda", 0.5, "--iters", 1,
                  "--out-dict", tmp_path / "d.txt", "--out-trace", tmp_path / "t.csv"],
        "denoise": ["denoise", "--in", noisy, "--out", tmp_path / "o.pgm", "--sigma", 20,
                    "--patch", 4, "--atoms", 16, "--iters", 1],
        "convergence-trace": ["experiment", "convergence-trace", "--image", clean,
                              "--out", tmp_path / "c.csv", "--patches", 100, "--atoms", 64, "--iters", 1],
    }[command]
    assert cli.main([str(arg) for arg in args] + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be at least 0") and "Traceback" not in err
    assert not any((tmp_path / name).exists() for name in ("d.txt", "t.csv", "o.pgm", "c.csv"))


@pytest.mark.parametrize("flag", [["--order", "random"], ["--policy", "keep_previous"]], ids=["order", "policy"])
def test_learn_takes_no_sweep_order_or_policy(tmp_path, train_file, capsys, flag):
    """learn runs the one sweep, so an order or empty-code policy flag is a usage error."""
    args = ["learn", "--data", train_file, "--atoms", 4, "--lambda", 0.5, "--iters", 1,
            "--out-dict", tmp_path / "d.txt", "--out-trace", tmp_path / "t.csv", *flag]
    assert cli.main([str(arg) for arg in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sparsedl: error: unrecognized arguments: " + " ".join(flag)) and "usage:" in err
    assert not (tmp_path / "d.txt").exists()


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

    def test_denoise_table_names_a_non_ascii_image(self, tmp_path, image_files):
        clean, _ = image_files
        named = clean.rename(tmp_path / "café.pgm")
        out = tmp_path / "table.csv"
        proc = run_cli(
            "experiment", "denoise-table", "--images", named, "--sigmas", "20", "--out", out,
            "--stride", 4, "--atoms", 64, "--iters", 1, "--subsample", 200,
        )
        assert proc.returncode == 0, proc.stderr
        _, rows = read_csv_table(out)
        assert [row[0] for row in rows] == ["café"]

    def test_missing_kind_is_usage_error(self):
        assert run_cli("experiment").returncode == 1

    @pytest.mark.parametrize(
        "kind, flags",
        [("convergence-trace", ()), ("lambda-sweep", ("--lambdas", "60,25"))],
    )
    def test_zero_iterations_is_config_error(self, tmp_path, image_files, kind, flags):
        """Zero sweeps leave no final row to report: the run stops before
        any patch is sampled and writes no CSV."""
        clean, _ = image_files
        out = tmp_path / "out.csv"
        proc = run_cli(
            "experiment", kind, "--image", clean, "--out", out, *flags,
            "--patches", 200, "--atoms", 64, "--iters", 0,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert lines == ["error: iterations must be at least 1, got 0"]
        assert not out.exists()

    def test_bad_lambda_list_is_usage_error(self, tmp_path, image_files):
        clean, _ = image_files
        proc = run_cli(
            "experiment", "lambda-sweep", "--image", clean, "--out", tmp_path / "s.csv",
            "--lambdas", "a,b",
        )
        assert proc.returncode == 1


class TestThreadPinning:
    def test_importing_the_cli_loads_no_numpy(self):
        """The thread variables are seeded before numpy loads, so the CLI
        module and the exceptions it imports leave numpy unloaded."""
        code = "import sys, sparsedl.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr

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


HELP_COMMANDS = [
    (),
    ("learn",),
    ("denoise",),
    ("experiment",),
    ("experiment", "convergence-trace"),
    ("experiment", "lambda-sweep"),
    ("experiment", "denoise-table"),
    ("experiment", "scaling-bench"),
]


@pytest.mark.parametrize("command", HELP_COMMANDS, ids=lambda c: " ".join(c) or "top")
def test_help_exits_zero(command):
    proc = run_cli(*command, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: sparsedl")


class TestShellParity:
    """Run with only its required flags, every command hands the library
    nothing but what it was given, so the library's own defaults apply."""

    def test_learn(self, tmp_path, train_file, monkeypatch):
        seen = []

        def fake_learn(Y, config):
            seen.append(config)
            return config.init_dictionary, sparse.csc_array((Y.shape[1], config.num_atoms)), LearnTrace()

        monkeypatch.setattr(sparsedl.learner, "learn", fake_learn)
        code = cli.main(
            [
                "learn", "--data", str(train_file), "--atoms", "4", "--lambda", "1", "--iters", "1",
                "--out-dict", str(tmp_path / "d.txt"), "--out-trace", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 0
        (config,) = seen
        assert (config.num_atoms, config.iterations, config.lam) == (4, 1, 1.0)
        for f in fields(LearnConfig):
            if f.name not in ("num_atoms", "iterations", "lam", "init_dictionary"):
                assert getattr(config, f.name) == f.default, f.name
        # 4 atoms cannot hold the 9-dimensional DCT: auto falls back to random at the default seed
        assert np.array_equal(config.init_dictionary, random_dictionary(9, 4, 0))

    def test_denoise(self, tmp_path, image_files, monkeypatch):
        seen = []

        def fake_denoise(noisy, config):
            seen.append(config)
            return noisy, DenoiseResult(None, None, 1, 1, 1.0, 1.0, {})

        monkeypatch.setattr(sparsedl.denoise, "denoise_image", fake_denoise)
        _, noisy = image_files
        code = cli.main(["denoise", "--in", str(noisy), "--out", str(tmp_path / "o.pgm"), "--sigma", "20"])
        assert code == 0
        assert seen == [DenoiseConfig(sigma=20.0)]

    @pytest.mark.parametrize(
        "kind, flags, entry, returns",
        [
            ("convergence-trace", (), "convergence_trace", LearnTrace(objective=np.ones(1))),
            ("lambda-sweep", (), "lambda_sweep", []),
            ("denoise-table", ("--sigmas", "20"), "denoise_table", []),
            ("scaling-bench", (), "scaling_bench", []),
        ],
    )
    def test_experiment(self, tmp_path, image_files, monkeypatch, kind, flags, entry, returns):
        signature = inspect.signature(getattr(sparsedl.experiments, entry))
        seen = []

        def record(*args, **kwargs):
            seen.append(signature.bind(*args, **kwargs))
            return returns

        monkeypatch.setattr(sparsedl.experiments, entry, record)
        clean, _ = image_files
        image_flag = "--images" if kind == "denoise-table" else "--image"
        argv = ["experiment", kind, image_flag, str(clean), "--out", str(tmp_path / "o.csv"), *flags]
        assert cli.main(argv) == 0
        (bound,) = seen
        given = set(bound.arguments)
        bound.apply_defaults()
        for name, param in signature.parameters.items():
            if param.default is not param.empty:
                assert name not in given and bound.arguments[name] == param.default, name
            elif param.kind is param.VAR_KEYWORD:
                assert bound.arguments[name] == {}, name

    def test_denoise_table_config(self, tmp_path, image_files, monkeypatch):
        seen = []

        def fake_compare(clean, noisy, config):
            seen.append(config)
            return None, None, (1.0, 2.0, 3.0)

        monkeypatch.setattr(sparsedl.experiments, "compare_with_dct", fake_compare)
        clean, _ = image_files
        argv = [
            "experiment", "denoise-table", "--images", str(clean), "--sigmas", "20",
            "--out", str(tmp_path / "t.csv"),
        ]
        assert cli.main(argv) == 0
        assert seen == [DenoiseConfig(sigma=20.0)]


def test_settable_surface_is_pinned():
    """The settings a caller can reach: a new field or parameter must be
    added here on purpose, and one that no entry point sets taken out."""
    assert [f.name for f in fields(DenoiseConfig)] == [
        "sigma", "patch_size", "num_atoms", "iterations", "stride",
        "error_gain", "prior_weight", "max_train_patches", "seed",
    ]
    assert [f.name for f in fields(LearnConfig)] == [
        "num_atoms", "iterations", "lam", "init_dictionary", "code_bound",
    ]
    functions = (learn, atom_update_step, omp_code, omp_code_matrix, psnr, write_pgm)
    assert {fn.__name__: list(inspect.signature(fn).parameters) for fn in functions} == {
        "learn": ["Y", "config", "overwrite_y"],
        "atom_update_step": ["Y", "D", "C", "j", "new_code"],
        "omp_code": ["D", "y", "error_goal"],
        "omp_code_matrix": ["D", "Y", "error_goal"],
        "psnr": ["reference", "estimate"],
        "write_pgm": ["path", "image"],
    }
