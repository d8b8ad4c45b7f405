"""Exception taxonomy shared across the package.

Each class maps onto one failure family so callers (and the CLI exit-code
mapping) can distinguish bad shapes, bad data files, broken numerics, and
violated call contracts without string matching.  `read_text` is how every
input file is read, so a file that is not text is a ParseError too;
`write_json` is how every JSON output is written, `write_csv` how every CSV
output is, with each cell printed by `format_value` (a float as its
`repr`, so it reads back exactly); and `require_finite` is how a settings
dataclass rejects a NaN or infinite float.
"""

import dataclasses
import json
import math

import numpy as np


class OdegateError(Exception):
    """Base class for all package errors."""


class DimensionError(OdegateError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(OdegateError):
    """A call precondition was violated (wrong mode, index out of range, ...)."""


class NumericError(OdegateError):
    """A computation produced or consumed non-finite values."""


class ValidationError(OdegateError):
    """Input data failed a semantic check (bad index, negative weight, ...)."""


class ParseError(ValidationError):
    """A file could not be parsed; message carries row/column context."""


def read_text(path) -> str:
    """The whole text of an input file; undecodable bytes are a ParseError."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc})") from exc


def write_json(path, payload) -> None:
    """`payload` as JSON with sorted keys, one space of indent, and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def format_value(value) -> str:
    """`true`/`false` for a bool, `repr(float(v))` for any float, else `str(v)`."""
    if type(value) is float:   # nearly every cell of a series: keep it one test
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):   # np.float32 is no float
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """One `header` line, then one line of `format_value` cells per row."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_value, row)) + "\n")


def require_finite(settings) -> None:
    """ValidationError unless every float field of a settings dataclass is finite."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        # postponed annotations: a field's type is the string "float"
        if f.type == "float" and not math.isfinite(value):
            raise ValidationError(f"{type(settings).__name__}.{f.name} must be "
                                  f"finite, got {value!r}")
