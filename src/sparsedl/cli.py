"""Command line front end.

Exit codes: 0 success, 1 usage or configuration error, 2 file or
format error, 3 numeric/invariant failure.

Every subcommand passes on only the settings it was given: a flag's
``dest`` is the name of the library parameter it sets, and an omitted
flag leaves that parameter at the library's default.

SPARSEDL_THREADS, when set, becomes the default BLAS thread count:
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS are seeded
from it before numpy loads (variables already set by the user win).
Numeric imports therefore happen only after that, in the parser and
the command handlers, not at module level.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .exceptions import ConfigError, FormatError, InvariantError

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The denoise settings: config-file key (the flag is "--" + key with "-" for "_")
# -> DenoiseConfig field, value type and help ("{}" shows the field's default).
_DENOISE_KEYS = {
    "sigma": ("sigma", float, "noise standard deviation"),
    "omp_gain": ("error_gain", float, "error-goal gain, > 1 (default {})"),
    "stride": ("stride", int, "patch grid stride (default {})"),
    "subsample": (
        "max_train_patches",
        int,
        "cap on training patches (default {}, which changes outputs only for images with more patches)",
    ),
    "patch": ("patch_size", int, "patch side length (default {})"),
    "atoms": ("num_atoms", int, "dictionary size (default {})"),
    "iters": ("iterations", int, "learning iterations (default {}; 0 = DCT only)"),
    "prior_weight": ("prior_weight", float, "noisy-image weight (default 20/sigma)"),
    "seed": ("seed", int, None),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 1
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _pin_threads() -> None:
    value = os.environ.get("SPARSEDL_THREADS")
    if not value:
        return
    if not (value.isascii() and value.isdigit()) or int(value) < 1:
        raise ConfigError(f"SPARSEDL_THREADS must be a positive integer, got {value!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, value)


def _list_of(kind, what: str):
    """An argparse ``type=`` for a non-empty comma-separated list of ``kind``."""

    def parse(text: str):
        try:
            values = [kind(v.strip()) for v in text.split(",") if v.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated {what} list, got {text!r}"
            ) from None
        if not values:
            raise argparse.ArgumentTypeError(f"expected a non-empty {what} list, got {text!r}")
        return values

    return parse


def _build_parser() -> _Parser:
    from .denoise import DenoiseConfig
    from .dictionaries import INIT_KINDS
    from .experiments import _TABLE_SETTINGS

    parser = _Parser(prog="sparsedl", description="Sparse dictionary learning tools.")
    sub = parser.add_subparsers(dest=argparse.SUPPRESS, required=True, metavar="command")
    quiet = dict(argument_default=argparse.SUPPRESS)  # an omitted flag sets nothing

    def add_denoise_flags(p, fields):
        for key, (field, kind, text) in _DENOISE_KEYS.items():
            if field in fields:
                text = text and text.format(getattr(DenoiseConfig, field, None))
                p.add_argument("--" + key.replace("_", "-"), dest=field, type=kind, help=text)

    p = sub.add_parser("learn", help="learn a dictionary from a matrix text file", **quiet)
    p.add_argument("--data", required=True, help="training matrix (text format, one signal per column)")
    p.add_argument("--atoms", dest="num_atoms", type=int, required=True, help="dictionary size J")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="sparsity weight")
    p.add_argument("--iters", dest="iterations", type=int, required=True, help="outer iterations")
    p.add_argument(
        "--bound", dest="code_bound", type=float,
        help="code magnitude bound, above lambda (default: the larger of ||Y||_F and the next float above lambda)",
    )
    p.add_argument(
        "--init",
        choices=("auto",) + INIT_KINDS,
        default="auto",
        help="initial dictionary (auto: separable DCT when shapes allow, else random)",
    )
    p.add_argument("--seed", type=int, help="seed of the random initial dictionary (default 0)")
    p.add_argument("--out-dict", required=True, help="output dictionary (matrix text)")
    p.add_argument("--out-trace", required=True, help="output per-iteration trace (CSV)")
    p.add_argument("--out-codes", help="optional output codes (dense matrix text)")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("denoise", help="denoise a noisy PGM image", **quiet)
    p.add_argument("--in", dest="input", required=True, help="noisy input image (PGM)")
    p.add_argument("--out", required=True, help="denoised output image (PGM)")
    p.add_argument("--clean", help="clean reference image enabling PSNR reporting")
    p.add_argument("--report", help="PSNR report CSV (needs --clean)")
    add_denoise_flags(p, [field for field, _, _ in _DENOISE_KEYS.values()])
    p.add_argument("--config", help="key=value file supplying defaults for the flags above")
    p.set_defaults(func=_cmd_denoise)

    pe = sub.add_parser("experiment", help="run a benchmark harness, writing CSV")
    se = pe.add_subparsers(dest=argparse.SUPPRESS, required=True, metavar="kind")

    p = se.add_parser(
        "convergence-trace", help="per-iteration learning diagnostics on sampled patches", **quiet
    )
    p.add_argument("--image", required=True, help="source image (PGM)")
    p.add_argument("--out", dest="out_csv", required=True, help="output trace CSV")
    p.add_argument("--patches", dest="num_patches", type=int)
    p.add_argument("--atoms", dest="num_atoms", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--iters", dest="iterations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--init", choices=INIT_KINDS)
    p.set_defaults(func=_cmd_convergence)

    p = se.add_parser("lambda-sweep", help="final error and sparsity across sparsity weights", **quiet)
    p.add_argument("--image", required=True)
    p.add_argument("--out", dest="out_csv", required=True)
    p.add_argument(
        "--lambdas",
        type=_list_of(float, "number"),
        help="comma-separated grid (default: eight weights from 100 down to 15)",
    )
    p.add_argument("--patches", dest="num_patches", type=int)
    p.add_argument("--atoms", dest="num_atoms", type=int)
    p.add_argument("--iters", dest="iterations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--init", choices=INIT_KINDS)
    p.set_defaults(func=_cmd_lambda_sweep)

    p = se.add_parser("denoise-table", help="PSNR grid over clean images and noise levels", **quiet)
    p.add_argument(
        "--images",
        dest="clean_images",
        type=_list_of(str, "image"),
        required=True,
        help="comma-separated clean PGM paths",
    )
    p.add_argument(
        "--sigmas", type=_list_of(float, "number"), required=True, help="comma-separated noise levels"
    )
    p.add_argument("--out", dest="out_csv", required=True)
    add_denoise_flags(p, _TABLE_SETTINGS)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_denoise_table)

    p = se.add_parser("scaling-bench", help="per-iteration learning time versus signal count", **quiet)
    p.add_argument("--image", required=True)
    p.add_argument("--out", dest="out_csv", required=True)
    p.add_argument("--sizes", type=_list_of(int, "integer"), help="comma-separated signal counts")
    p.add_argument("--atoms", dest="num_atoms", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument(
        "--iters",
        dest="iterations",
        type=int,
        help="one-sweep learn calls timed per size; the fastest counts",
    )
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_scaling_bench)

    return parser


def _cmd_learn(opts) -> int:
    from . import io
    from .dictionaries import initial_dictionary
    from .learner import LearnConfig, learn

    data, out_dict, out_trace = opts.pop("data"), opts.pop("out_dict"), opts.pop("out_trace")
    out_codes, init, seed = opts.pop("out_codes", None), opts.pop("init"), opts.pop("seed", 0)
    config = LearnConfig(**opts)
    Y = io.read_matrix_text(data)
    kind = "dct" if init == "auto" else init
    try:
        config.init_dictionary = initial_dictionary(kind, Y.shape[0], config.num_atoms, seed)
    except ConfigError:
        if init != "auto":
            raise
        config.init_dictionary = initial_dictionary("random", Y.shape[0], config.num_atoms, seed)
    D, C, trace = learn(Y, config)
    io.write_matrix_text(out_dict, D)
    io.write_trace_csv(out_trace, trace)
    if out_codes:
        io.write_matrix_text(out_codes, C.toarray())
    if len(trace):
        print(
            f"learned {config.num_atoms} atoms in {config.iterations} iterations: "
            f"objective {trace.objective[-1]:.6g}, nsre {trace.nsre[-1]:.6g}, "
            f"sparsity {trace.sparsity_factor[-1]:.6g}"
        )
    else:
        print("wrote the initial dictionary (0 iterations)")
    return 0


def _read_config_file(path):
    values = {}
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for num, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{num}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key in values:
                raise FormatError(f"{path}:{num}: key {key!r} is set again")
            values[key] = val.strip()
    return values


def _add_config_file(opts, path) -> None:
    """Set the denoise settings that no flag gave from a key=value file."""
    values = _read_config_file(path)
    for key in values:
        if key not in _DENOISE_KEYS:
            raise ConfigError(f"unknown config key {key!r}; known keys: {', '.join(sorted(_DENOISE_KEYS))}")
    for key, text in values.items():
        field, kind, _ = _DENOISE_KEYS[key]
        if field not in opts:
            try:
                opts[field] = kind(text)
            except ValueError:
                raise ConfigError(f"config value {key}={text!r} is not valid") from None


def _cmd_denoise(opts) -> int:
    from . import io
    from .denoise import DenoiseConfig, denoise_image, quantize_pixels

    source, out = opts.pop("input"), opts.pop("out")
    clean_path, report = opts.pop("clean", None), opts.pop("report", None)
    if "config" in opts:
        _add_config_file(opts, opts.pop("config"))
    if "sigma" not in opts:
        raise ConfigError("sigma is required (--sigma flag or config file)")
    if report and not clean_path:
        raise ConfigError("--report needs --clean for PSNR references")
    config = DenoiseConfig(**opts)
    noisy = _load_image(source)
    if clean_path:
        # the reference is read and checked before any denoising work
        clean = _load_image(clean_path)
        if clean.shape != noisy.shape:
            raise ConfigError(f"clean image shape {clean.shape} does not match input {noisy.shape}")
        from .experiments import compare_with_dct

        pixels, result, psnrs = compare_with_dct(clean, noisy, config)
    else:
        estimate, result = denoise_image(noisy, config)
        pixels = quantize_pixels(estimate)
    io.write_pgm(out, pixels)
    print(
        f"wrote {out}: {result.num_patches} patches, "
        f"{result.num_train_patches} used for learning, error goal {result.error_goal:.6g}"
    )
    if clean_path:
        print("noisy {:.2f} dB, dct baseline {:.2f} dB, denoised {:.2f} dB".format(*psnrs))
        if report:
            from .experiments import DENOISE_COLUMNS, denoise_csv_row

            row = denoise_csv_row(Path(source).name, config.sigma, psnrs)
            io.write_csv_table(report, DENOISE_COLUMNS, [row])
    return 0


def _load_image(path):
    from . import io

    return io.read_pgm(path).astype(float)


def _cmd_convergence(opts) -> int:
    from .experiments import convergence_trace

    trace = convergence_trace(_load_image(opts.pop("image")), **opts)
    print(f"wrote {opts['out_csv']}: {len(trace)} iterations, final objective {trace.objective[-1]:.6g}")
    return 0


def _cmd_lambda_sweep(opts) -> int:
    from .experiments import lambda_sweep

    rows = lambda_sweep(_load_image(opts.pop("image")), **opts)
    print(f"wrote {opts['out_csv']}: {len(rows)} sparsity weights")
    return 0


def _cmd_denoise_table(opts) -> int:
    from .experiments import denoise_table

    rows = denoise_table(**opts)
    print(f"wrote {opts['out_csv']}: {len(rows)} image/sigma pairs")
    return 0


def _cmd_scaling_bench(opts) -> int:
    from .experiments import scaling_bench

    rows = scaling_bench(_load_image(opts.pop("image")), **opts)
    for size, per_iter in rows:
        print(f"{size} signals: {per_iter:.3f} s/iteration")
    print(f"wrote {opts['out_csv']}")
    return 0


def main(argv=None) -> int:
    try:
        _pin_threads()
        opts = vars(_build_parser().parse_args(argv))
        return opts.pop("func")(opts)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
