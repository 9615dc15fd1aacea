"""Sparse dictionary learning with l0-penalized rank-one updates.

Importing this package is deliberately lightweight: submodules (and
numpy with them) load on first attribute access, so the command line
front end can pin BLAS thread counts via environment variables before
any numeric code runs.
"""

from .exceptions import ConfigError, FormatError, InvariantError

__version__ = "0.1.0"

_EXPORTS = {
    "hard_threshold": "learner",
    "truncated_hard_threshold": "learner",
    "code_rhs": "learner",
    "sparse_code_step": "learner",
    "atom_rhs": "learner",
    "atom_update_step": "learner",
    "learn": "learner",
    "objective": "learner",
    "nsre": "learner",
    "sparsity_factor": "learner",
    "LearnConfig": "learner",
    "LearnTrace": "learner",
    "initial_dictionary": "dictionaries",
    "overcomplete_dct_dictionary": "dictionaries",
    "random_dictionary": "dictionaries",
    "omp_code": "omp",
    "omp_code_matrix": "omp",
    "extract_patches": "patches",
    "patch_grid_shape": "patches",
    "patch_cover": "patches",
    "aggregate_patches": "patches",
    "add_gaussian_noise": "denoise",
    "psnr": "denoise",
    "denoise_image": "denoise",
    "DenoiseConfig": "denoise",
    "read_matrix_text": "io",
    "write_matrix_text": "io",
    "read_trace_csv": "io",
    "write_trace_csv": "io",
    "read_pgm": "io",
    "write_pgm": "io",
}

__all__ = sorted(_EXPORTS) + ["ConfigError", "FormatError", "InvariantError", "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
