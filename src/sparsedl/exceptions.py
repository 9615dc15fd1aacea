"""Exception types shared across the package, the three input checks
that raise one: :func:`as_integer` for counts, sizes and seeds,
:func:`as_real_number` for real settings such as weights and noise levels,
and :func:`as_real_array` for arrays, and one gate for derived values,
:func:`as_finite`.  The two scalar checks take an optional lower bound.

The package's one rule on the float range lives here: a value derived
from finite input (a squared norm, a goal, a weight, a result) is finite,
or it raises :class:`ConfigError`.  No other module tests for an infinity
or a NaN, or catches :class:`OverflowError`; the file reader alone turns
a non-finite entry into a :class:`FormatError`.

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


def as_finite(value, what: str):
    """``value`` as a float, or as the ndarray it is, when every entry is
    finite; otherwise :class:`ConfigError` ``"{what} overflows a float"``.

    ``value`` may instead be a function of no arguments that computes it.
    The gate then calls it with NumPy's overflow and invalid-value
    warnings off and reads a Python :class:`OverflowError` (``x**2`` raises
    one) as an infinity, so an overflow anywhere in the computation is
    reported here, once, and the value keeps the bits of the computation
    as written."""
    import numpy as np

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = value() if callable(value) else value
        if not isinstance(value, np.ndarray):
            value = float(value)
    except OverflowError:  # of a power, or an int past the float range
        value = math.inf
    if not np.isfinite(value).all():
        raise ConfigError(f"{what} overflows a float")
    return value
