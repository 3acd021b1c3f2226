"""Shared exception types and the argument rules every entry point applies.

Everything raised on purpose by this package derives from FansqError, so
callers (and the CLI) can distinguish "you asked for something invalid"
(DomainError) from "the computation could not be completed" (the rest).

Each rule below checks the kind of one argument and raises a DomainError
naming it: an int is a Python int that is not a bool, a float is an int
or a float but never a bool, NaN or +-inf.  Rules about what a value
means (an even moment order, min < max) stay with the code they serve,
but for one: no request may ask for more than `_MAX_CELLS` cells.
"""

import math


class FansqError(Exception):
    """Base class for all package-specific failures."""


class DomainError(FansqError, ValueError):
    """Arguments outside the defined domain of an operation."""


class SingularNonlinearity(FansqError, ArithmeticError):
    """The nonlinearity hit a zero of the denominator Laguerre polynomial.

    The state itself is ill-defined at such points, so evaluation aborts
    with the offending Fock index instead of skipping terms.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SeriesNotConverged(FansqError, ArithmeticError):
    """A series hit its term cap before meeting the tail criterion."""


class TruncationTooSmall(FansqError, ValueError):
    """A truncated Fock vector is too short for the requested operation."""


class EmptyBoundary(FansqError):
    """No sign change found, so there is no boundary/curve to trace."""


def positive_int(name: str, value: int) -> None:
    """DomainError unless value is an int >= 1."""
    if type(value) is not int or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")


def nonnegative_int(name: str, value: int) -> None:
    """DomainError unless value is an int >= 0."""
    if type(value) is not int or value < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")


def _finite(value: float) -> bool:
    try:  # a bool is an int subclass; a non-number or an int past float range raises
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def finite_float(name: str, value: float) -> None:
    """DomainError unless value is a finite float."""
    if not _finite(value):
        raise DomainError(f"{name} must be a finite float, got {value!r}")


def nonnegative_float(name: str, value: float) -> None:
    """DomainError unless value is a finite float >= 0."""
    if not (_finite(value) and value >= 0):
        raise DomainError(f"{name} must be a finite float >= 0, got {value!r}")


def positive_float(name: str, value: float) -> None:
    """DomainError unless value is a finite float > 0."""
    if not (_finite(value) and value > 0):
        raise DomainError(f"{name} must be a finite float > 0, got {value!r}")


_MAX_CELLS = 1 << 22  # cells one request may allocate: 64 MiB of complex amplitudes


def _check_cells(what: str, cells: int) -> None:
    """DomainError, before anything is allocated, past the `_MAX_CELLS` ceiling."""
    if cells > _MAX_CELLS:
        raise DomainError(f"{what} needs {cells} cells, past the ceiling of {_MAX_CELLS}")
