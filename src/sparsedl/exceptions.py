"""Exception types shared across the package, and the integer check
that raises one.

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
