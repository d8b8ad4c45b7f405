"""Exception taxonomy shared across the package.

Each class maps onto one failure family so callers (and the CLI exit-code
mapping) can distinguish bad shapes, bad data files, broken numerics, and
violated call contracts without string matching.  `read_text` is how every
input file is read, so a file that is not text is a ParseError too;
`write_json` is how every JSON output is written; and `require_finite` is
how a settings dataclass rejects a NaN or infinite float.
"""

import dataclasses
import json
import math


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


def require_finite(settings) -> None:
    """ValidationError unless every float field of a settings dataclass is finite."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        # postponed annotations: a field's type is the string "float"
        if f.type == "float" and not math.isfinite(value):
            raise ValidationError(f"{type(settings).__name__}.{f.name} must be "
                                  f"finite, got {value!r}")
