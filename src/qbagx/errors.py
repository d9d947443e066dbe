"""Exception types shared across the package, the one number rule that
every real and integer entering it goes through, the one identifier rule
that every collection of argument ids goes through, and the one document
rule that every JSON document it reads goes through."""

import json
import numbers
import sys
from collections import Counter
from collections.abc import Iterable, Mapping


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


def checked_items(values, what: str, items: str, error: type[Exception] = ValueError) -> tuple:
    """`values` as a tuple, or `error` naming `what` as a list of `items` if
    it is a string, a mapping or not iterable."""
    if isinstance(values, (str, Mapping)) or not isinstance(values, Iterable):
        raise error(f"{what} must be a list of {items}, got {values!r}")
    return tuple(values)


def checked_ids(ids, what: str, error: type[Exception] = ValueError) -> tuple[str, ...]:
    """`ids` as a tuple, or `error` naming `what`: a collection
    (checked_items) of non-empty strs. A bulk pass decides; only when it
    fails does a loop name the first bad id."""
    ids = checked_items(ids, what, "argument ids", error)
    if not (set(map(type, ids)) <= {str} and all(ids)):
        for x in ids:
            if not isinstance(x, str) or not x:
                raise error(f"argument id must be a non-empty string, got {x!r} in {what}")
    return ids


def _no_constant(name: str):
    """json.loads parse_constant hook: NaN, Infinity and -Infinity are no JSON."""
    raise ValueError(f"{name} is not a JSON number")


def _unique_keys(pairs: list) -> dict:
    """json.loads object_pairs_hook: an object names each key once."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"duplicate key {next(k for k, n in counts.items() if n > 1)!r}")
    return doc


def json_document(data: str | bytes, what: str, error: type[Exception] = ValueError):
    """The JSON value in `data`, text or UTF-8 bytes, or `error` naming
    `what` for bytes that are not UTF-8, text that is not JSON, the literals
    NaN, Infinity and -Infinity, an object that names a key twice, and
    nesting deeper than the decoder's recursion limit. A number too large
    for a float decodes to an infinity, which checked_real refuses."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data, parse_constant=_no_constant,
                          object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise error(f"invalid JSON in {what}: {exc}") from exc


def checked_object(doc, what: str, keys, error: type[Exception] = ValueError) -> Mapping:
    """`doc`, or `error` naming `what` if it is not an object or has a key
    outside `keys`."""
    if not isinstance(doc, Mapping):
        raise error(f"{what} must be a JSON object")
    unknown = doc.keys() - keys
    if unknown:
        raise error(f"unknown keys in {what}: {sorted(unknown)}")
    return doc


def json_object(data: str | bytes, what: str, keys, error: type[Exception] = ValueError) -> dict:
    """The JSON object in `data`, under json_document's and checked_object's
    rules."""
    return checked_object(json_document(data, what, error), what, keys, error)
