"""Exception types shared across the package, and the two input checks
that raise one: :func:`as_integer` for counts and sizes,
:func:`as_real_array` for arrays.

The CLI maps these onto its exit-code contract: configuration/usage
problems exit 1, file-format and I/O problems exit 2, numeric or
invariant failures exit 3.
"""

import operator


class ConfigError(ValueError):
    """Invalid parameter or configuration (bad shapes, bounds, flags)."""


class FormatError(ValueError):
    """Malformed input file (matrix text, trace CSV, PGM)."""


class InvariantError(RuntimeError):
    """A numeric invariant that should hold by construction was violated."""


def as_integer(value, name: str) -> int:
    """``value`` as an int if it is a Python or NumPy integer (what
    ``operator.index`` takes); anything else, a float included, raises
    :class:`ConfigError` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def as_real_array(value, name: str, ndim: int | None = None, finite: bool = False):
    """``value`` as a float64 ndarray (``value`` itself if it already is
    one).  Complex input, an ``ndim`` other than the one asked for, or,
    with ``finite``, a NaN or an infinity raises :class:`ConfigError`
    naming ``name``: none is cut to its real part."""
    # Imported here: the CLI imports this module before it pins the BLAS threads.
    import numpy as np

    if np.iscomplexobj(value):
        raise ConfigError(f"{name} must be real")
    array = np.asarray(value, dtype=float)
    if ndim is not None and array.ndim != ndim:
        raise ConfigError(f"{name} must be {ndim}-D, got shape {array.shape}")
    if finite and not np.isfinite(array).all():
        raise ConfigError(f"{name} must be finite")
    return array
