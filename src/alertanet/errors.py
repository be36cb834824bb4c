"""Exception taxonomy shared across the package.

Every failure the library can report deliberately is an ``AlertaNetError``
subclass, so callers (and the CLI) can distinguish our diagnostics from
genuine bugs.  :func:`check_fields` is the one checker of the settings that
the config dataclasses declare.
"""

import math
from dataclasses import fields

import numpy as np


class AlertaNetError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AlertaNetError):
    """Matrix/vector shapes are incompatible for the requested operation."""


class DomainError(AlertaNetError, ValueError):
    """A scalar argument violates its precondition (e.g. nonpositive price)."""


class UsageError(AlertaNetError):
    """The API was called out of order or with conflicting arguments."""


class SchemaError(AlertaNetError):
    """An input file is missing required columns."""


class ParseError(AlertaNetError):
    """An input file contains a cell that cannot be parsed, or a value cannot be written in a file's format."""


class DataIntegrityError(AlertaNetError):
    """Input data violates an integrity rule (duplicate dates, bad prices)."""


class PreprocessingError(AlertaNetError):
    """Feature values violate preprocessing preconditions (negative entries)."""


class ConfigError(AlertaNetError):
    """A configuration value or combination is invalid."""


class TrainingError(AlertaNetError):
    """Training aborted (e.g. non-finite loss)."""


class CheckpointError(AlertaNetError):
    """A checkpoint file is malformed or inconsistent with the data."""


class UndefinedMetricError(AlertaNetError):
    """The requested metric is undefined for the given inputs."""


def _is_number(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
            and abs(value) < math.inf)


# by field annotation: the test a value passes and its name (bools pass isinstance(v, int), so int rejects them)
_FIELD_TYPES = {
    "bool": (lambda v: isinstance(v, (bool, np.bool_)), "true or false"),
    "int": (lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool), "an integer"),
    "float": (_is_number, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[str]": (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), "a list of strings"),
    "tuple[float, float]": (lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)),
                            "a pair of finite numbers"),
}


def _bound_rule(bound) -> str:
    """A bound in words, such as ``>= 1``, ``> 0`` or ``in [0, 1)``, and its note, if it has one."""
    closed = "min" in bound
    low = bound["min"] if closed else bound["above"]
    rule = (f"in {'[' if closed else '('}{low}, {bound['below']})" if "below" in bound
            else f"{'>=' if closed else '>'} {low}")
    return f"{rule} ({bound['note']})" if "note" in bound else rule


def check_fields(config, what: str = "") -> None:
    """Raise a :class:`ConfigError` for the first field of dataclass ``config`` of the wrong type or out of bounds.

    Fields are checked in order, each first for the type its annotation names
    (``<what> '<name>' is <value!r>, expected <type>``, where ``what`` names the
    owner and may be empty), then for the bound in
    its ``metadata`` (``<name> must be <rule>, got <value>``).  The keys of a
    bound are a lower one, ``min`` (value >= min) or ``above`` (value > above);
    optionally ``below`` (value < below); and ``note``, a reason the message
    gives after the rule.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        fits, want = _FIELD_TYPES[f.type]
        if not fits(value):
            raise ConfigError(f"{what} {f.name!r} is {value!r}, expected {want}".lstrip())
        bound = f.metadata
        if bound and not ((value >= bound["min"] if "min" in bound else value > bound["above"])
                          and value < bound.get("below", math.inf)):
            raise ConfigError(f"{f.name} must be {_bound_rule(bound)}, got {value}")
