"""Exception types shared across the package, and the two type rules of numeric arguments.

``_real`` and ``_integer`` own the type check of every real and integer
argument, from the constraint weight to the sampler's settings, so each
entry point rejects the same values with the same error. They live here,
below every other module, so that ``instance`` can share them with
``bounds``, which imports it.
"""

import operator


class CspError(ValueError):
    """Base class for every error raised by this package."""


class FormatError(CspError):
    """Malformed input text or structurally invalid constraint data.

    ``line`` is the 1-based line number of the offending input when the
    error comes from a parser, ``None`` when raised at construction time.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.message = message
        self.line = line


class UnsupportedError(CspError):
    """Input or operation outside the supported problem class."""


class DomainError(CspError):
    """Numeric argument outside its mathematical domain."""


class DimensionError(CspError):
    """Assignment length does not match the instance."""


class SizeError(CspError):
    """Instance too large for exhaustive enumeration."""


class BudgetOverflowError(CspError):
    """Iteration budget exceeds 2^63; set max_iterations to cap the run."""


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, a string, or anything float() rejects is a DomainError."""
    # numpy's bools are told by their dtype kind: importing numpy here, first
    # in the package, raised the RSS of `import maxcsp` by 0.6 MB
    numpy_bool = getattr(getattr(value, "dtype", None), "kind", None) == "b"
    if not (numpy_bool or isinstance(value, (bool, str, bytes, bytearray))):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise DomainError(f"{name} must be a real number, got {value!r}")


def _integer(name: str, value) -> int:
    """``value`` as an int; Python and numpy integers pass, a bool or any other is a DomainError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")
