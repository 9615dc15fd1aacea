"""Command line front end.

Exit codes: 0 success, 1 usage or configuration error, 2 file or
format error, 3 numeric/invariant failure.

SPARSEDL_THREADS, when set, becomes the default BLAS thread count:
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS are seeded
from it before numpy loads (variables already set by the user win).
Numeric imports therefore happen inside the command handlers, not at
module level.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .exceptions import ConfigError, FormatError, InvariantError

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# denoise settings a key=value config file may supply (flags win)
_DENOISE_KEYS = {
    "sigma": float,
    "patch": int,
    "atoms": int,
    "iters": int,
    "stride": int,
    "omp_gain": float,
    "subsample": int,
    "prior_weight": float,
    "seed": int,
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
    if not value.isdigit() or int(value) < 1:
        raise ConfigError(f"SPARSEDL_THREADS must be a positive integer, got {value!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, value)


def _int_list(text: str):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ConfigError(f"expected a non-empty integer list, got {text!r}")
    return values


def _float_list(text: str):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}") from None
    if not values:
        raise ConfigError(f"expected a non-empty number list, got {text!r}")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsedl", description="Sparse dictionary learning tools.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("learn", help="learn a dictionary from a matrix text file")
    p.add_argument("--data", required=True, help="training matrix (text format, one signal per column)")
    p.add_argument("--atoms", type=int, required=True, help="dictionary size J")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="sparsity weight")
    p.add_argument("--iters", type=int, required=True, help="outer iterations")
    p.add_argument("--bound", type=float, default=None, help="code magnitude bound (default ||Y||_F)")
    p.add_argument("--order", choices=("cyclic", "random"), default="cyclic", help="atom sweep order")
    p.add_argument(
        "--policy",
        choices=("unit_basis", "keep_previous", "random_unit"),
        default="unit_basis",
        help="atom replacement when a code comes back empty",
    )
    p.add_argument(
        "--init",
        choices=("auto", "dct", "random"),
        default="auto",
        help="initial dictionary (auto: separable DCT when shapes allow, else random)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dict", required=True, help="output dictionary (matrix text)")
    p.add_argument("--out-trace", required=True, help="output per-iteration trace (CSV)")
    p.add_argument("--out-codes", default=None, help="optional output codes (dense matrix text)")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("denoise", help="denoise a noisy PGM image")
    p.add_argument("--in", dest="input", required=True, help="noisy input image (PGM)")
    p.add_argument("--out", required=True, help="denoised output image (PGM)")
    p.add_argument("--sigma", type=float, default=None, help="noise standard deviation")
    p.add_argument("--clean", default=None, help="clean reference image enabling PSNR reporting")
    p.add_argument("--report", default=None, help="PSNR report CSV (needs --clean)")
    p.add_argument("--omp-gain", dest="omp_gain", type=float, default=None, help="error-goal gain, > 1 (default 1.15)")
    p.add_argument("--stride", type=int, default=None, help="patch grid stride (default 1)")
    p.add_argument("--subsample", type=int, default=None, help="cap on training patches (default: all)")
    p.add_argument("--patch", type=int, default=None, help="patch side length (default 8)")
    p.add_argument("--atoms", type=int, default=None, help="dictionary size (default 256)")
    p.add_argument("--iters", type=int, default=None, help="learning iterations (default 10; 0 = DCT only)")
    p.add_argument("--prior-weight", dest="prior_weight", type=float, default=None, help="noisy-image weight (default 20/sigma)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value file supplying defaults for the flags above")
    p.set_defaults(func=_cmd_denoise)

    pe = sub.add_parser("experiment", help="run a benchmark harness, writing CSV")
    se = pe.add_subparsers(dest="kind", required=True, metavar="kind")

    p = se.add_parser("convergence-trace", help="per-iteration learning diagnostics on sampled patches")
    p.add_argument("--image", required=True, help="source image (PGM)")
    p.add_argument("--out", required=True, help="output trace CSV")
    p.add_argument("--patches", type=int, default=30000)
    p.add_argument("--atoms", type=int, default=256)
    p.add_argument("--lambda", dest="lam", type=float, default=69.0)
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=("dct", "random"), default="dct")
    p.set_defaults(func=_cmd_convergence)

    p = se.add_parser("lambda-sweep", help="final error and sparsity across sparsity weights")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lambdas", default="100,80,69,55,40,30,20,15", help="comma-separated grid")
    p.add_argument("--patches", type=int, default=30000)
    p.add_argument("--atoms", type=int, default=256)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=("dct", "random"), default="dct")
    p.set_defaults(func=_cmd_lambda_sweep)

    p = se.add_parser("denoise-table", help="PSNR grid over clean images and noise levels")
    p.add_argument("--images", required=True, help="comma-separated clean PGM paths")
    p.add_argument("--sigmas", required=True, help="comma-separated noise levels")
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--atoms", type=int, default=256)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--subsample", type=int, default=None)
    p.add_argument("--omp-gain", dest="omp_gain", type=float, default=1.15)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_denoise_table)

    p = se.add_parser("scaling-bench", help="per-iteration learning time versus signal count")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sizes", default="30000,60000", help="comma-separated signal counts")
    p.add_argument("--atoms", type=int, default=256)
    p.add_argument("--lambda", dest="lam", type=float, default=69.0)
    p.add_argument("--iters", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_scaling_bench)

    return parser


def _cmd_learn(args) -> int:
    from . import io
    from .dictionaries import initial_dictionary
    from .learner import LearnConfig, learn

    Y = io.read_matrix_text(args.data)
    kind = "dct" if args.init == "auto" else args.init
    try:
        D0 = initial_dictionary(kind, Y.shape[0], args.atoms, args.seed)
    except ConfigError:
        if args.init != "auto":
            raise
        D0 = initial_dictionary("random", Y.shape[0], args.atoms, args.seed)
    D, C, trace = learn(
        Y,
        LearnConfig(
            num_atoms=args.atoms,
            iterations=args.iters,
            lam=args.lam,
            init_dictionary=D0,
            code_bound=args.bound,
            atom_order=args.order,
            empty_code_policy=args.policy,
            seed=args.seed,
        ),
    )
    io.write_matrix_text(args.out_dict, D)
    io.write_trace_csv(args.out_trace, trace)
    if args.out_codes:
        io.write_matrix_text(args.out_codes, C.toarray())
    if len(trace):
        print(
            f"learned {args.atoms} atoms in {args.iters} iterations: "
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
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve_denoise_settings(args):
    file_values = _read_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in _DENOISE_KEYS:
            raise ConfigError(f"unknown config key {key!r}; known keys: {', '.join(sorted(_DENOISE_KEYS))}")

    def pick(name, default):
        flag = getattr(args, name)
        if flag is not None:
            return flag
        if name in file_values:
            try:
                return _DENOISE_KEYS[name](file_values[name])
            except ValueError:
                raise ConfigError(f"config value {name}={file_values[name]!r} is not valid") from None
        return default

    sigma = pick("sigma", None)
    if sigma is None:
        raise ConfigError("sigma is required (--sigma flag or config file)")
    return dict(
        sigma=sigma,
        patch_size=pick("patch", 8),
        num_atoms=pick("atoms", 256),
        iterations=pick("iters", 10),
        stride=pick("stride", 1),
        error_gain=pick("omp_gain", 1.15),
        max_train_patches=pick("subsample", None),
        prior_weight=pick("prior_weight", None),
        seed=pick("seed", 0),
    )


def _cmd_denoise(args) -> int:
    from dataclasses import replace

    from . import io
    from .denoise import DenoiseConfig, denoise_image, psnr, quantize_pixels

    settings = _resolve_denoise_settings(args)
    if args.report and not args.clean:
        raise ConfigError("--report needs --clean for PSNR references")
    noisy = io.read_pgm(args.input).astype(float)
    config = DenoiseConfig(**settings)
    estimate, result = denoise_image(noisy, config)
    io.write_pgm(args.out, quantize_pixels(estimate))
    print(
        f"wrote {args.out}: {result.num_patches} patches, "
        f"{result.num_train_patches} used for learning, error goal {result.error_goal:.6g}"
    )
    if args.clean:
        clean = io.read_pgm(args.clean).astype(float)
        if clean.shape != noisy.shape:
            raise ConfigError(f"clean image shape {clean.shape} does not match input {noisy.shape}")
        dct_estimate, _ = denoise_image(noisy, replace(config, iterations=0))
        noisy_psnr = psnr(clean, noisy)
        odct_psnr = psnr(clean, quantize_pixels(dct_estimate))
        learned_psnr = psnr(clean, quantize_pixels(estimate))
        print(f"noisy {noisy_psnr:.2f} dB, dct baseline {odct_psnr:.2f} dB, denoised {learned_psnr:.2f} dB")
        if args.report:
            from .experiments import write_csv_table

            write_csv_table(
                args.report,
                ("image", "sigma", "noisy_psnr", "odct_psnr", "learned_psnr"),
                [
                    (
                        Path(args.input).name,
                        format(settings["sigma"], "g"),
                        format(noisy_psnr, ".4f"),
                        format(odct_psnr, ".4f"),
                        format(learned_psnr, ".4f"),
                    )
                ],
            )
    return 0


def _load_image(path):
    from . import io

    return io.read_pgm(path).astype(float)


def _cmd_convergence(args) -> int:
    from .experiments import convergence_trace

    trace = convergence_trace(
        _load_image(args.image),
        args.out,
        num_patches=args.patches,
        num_atoms=args.atoms,
        lam=args.lam,
        iterations=args.iters,
        seed=args.seed,
        init=args.init,
    )
    print(f"wrote {args.out}: {len(trace)} iterations, final objective {trace.objective[-1]:.6g}")
    return 0


def _cmd_lambda_sweep(args) -> int:
    from .experiments import lambda_sweep

    rows = lambda_sweep(
        _load_image(args.image),
        args.out,
        _float_list(args.lambdas),
        num_patches=args.patches,
        num_atoms=args.atoms,
        iterations=args.iters,
        seed=args.seed,
        init=args.init,
    )
    print(f"wrote {args.out}: {len(rows)} sparsity weights")
    return 0


def _cmd_denoise_table(args) -> int:
    from .experiments import denoise_table

    paths = [v.strip() for v in args.images.split(",") if v.strip()]
    if not paths:
        raise ConfigError(f"expected a non-empty image list, got {args.images!r}")
    rows = denoise_table(
        paths,
        _float_list(args.sigmas),
        args.out,
        stride=args.stride,
        num_atoms=args.atoms,
        iterations=args.iters,
        max_train_patches=args.subsample,
        error_gain=args.omp_gain,
        seed=args.seed,
    )
    print(f"wrote {args.out}: {len(rows)} image/sigma pairs")
    return 0


def _cmd_scaling_bench(args) -> int:
    from .experiments import scaling_bench

    rows = scaling_bench(
        _load_image(args.image),
        args.out,
        _int_list(args.sizes),
        num_atoms=args.atoms,
        lam=args.lam,
        iterations=args.iters,
        seed=args.seed,
    )
    for size, per_iter in rows:
        print(f"{size} signals: {per_iter:.3f} s/iteration")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        _pin_threads()
        args = _build_parser().parse_args(argv)
        return args.func(args)
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
