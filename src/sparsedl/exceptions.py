"""Exception types shared across the package, and the three input checks
that raise one: :func:`as_integer` for counts, sizes and seeds,
:func:`as_real_number` for real settings such as weights and noise levels,
and :func:`as_real_array` for arrays.  The two scalar checks take an
optional lower bound.

The CLI maps these onto its exit-code contract: configuration/usage
problems exit 1, file-format and I/O problems exit 2, numeric or
invariant failures exit 3.
"""

import math
import numbers
import operator


class ConfigError(ValueError):
    """Invalid parameter or configuration (bad shapes, bounds, flags)."""


class FormatError(ValueError):
    """Malformed input file (matrix text, trace CSV, PGM)."""


class InvariantError(RuntimeError):
    """A numeric invariant that should hold by construction was violated."""


def as_integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int if it is a Python or NumPy integer other than a
    bool, and at least ``low`` if that is given; anything else, a float or
    an array included, raises :class:`ConfigError` naming ``name``."""
    # int first: a check against the numbers.Integral ABC alone costs ~0.5 us.
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be at least {low}, got {value}")
    return operator.index(value)


def as_real_number(value, name: str, low: float | None = None, exclusive: bool = False) -> float:
    """``value`` as a finite float if it is a Python or NumPy real scalar
    other than a bool, and at least ``low`` (above it, with ``exclusive``)
    if that is given.  Anything else, a string, None, a complex number, NaN
    or an infinity among them, raises :class:`ConfigError` naming ``name``."""
    # float and int first: a check against the numbers.Real ABC alone costs ~0.5 us.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if low is not None and (number <= low if exclusive else number < low):
        raise ConfigError(f"{name} must be {'above' if exclusive else 'at least'} {low}, got {number}")
    return number


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
