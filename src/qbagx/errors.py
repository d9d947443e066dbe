"""Exception types shared across the package, and the one number rule that
every real and integer entering it goes through."""

import numbers
import sys


class QbagError(Exception):
    """Base class for all domain errors raised by this package."""


class GraphFormatError(QbagError):
    """Malformed graph document or structurally invalid graph."""


class UnknownArgumentError(QbagError):
    """An operation referenced an argument id not present in the graph."""


class DomainError(QbagError):
    """A base score lies outside the strength domain of the semantics."""


class InvalidChangeError(QbagError):
    """A strength change entry is invalid (equals the current base score,
    violates the domain, or names an unknown argument)."""


class CyclicGraphError(QbagError):
    """The operation requires an acyclic graph."""


class UndefinedStrengthError(QbagError):
    """A final strength needed by the operation is undefined."""


class BudgetError(QbagError):
    """A brute-force enumeration exceeded its configured budget."""


def checked_real(value, what: str, error: type[Exception] = ValueError) -> float:
    """`value` as a float, or `error` naming `what`. A real is a
    numbers.Real that is not a bool and fits a float: the comparison
    rejects NaN, both infinities and integers too large for a float, and
    raises no OverflowError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise error(f"{what} must be finite, got {value!r}")
    return float(value)


def checked_int(value, what: str, least: int | None = None, error: type[Exception] = ValueError) -> int:
    """`value` as an int, or `error` naming `what`: a numbers.Integral that
    is not a bool and, when `least` is given, not below it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{what} must be >= {least}, got {value!r}")
    return int(value)
