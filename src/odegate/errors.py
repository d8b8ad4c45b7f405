"""Exception taxonomy shared across the package.

Each class maps onto one failure family so callers (and the CLI exit-code
mapping) can distinguish bad shapes, bad data files, broken numerics, and
violated call contracts without string matching.

Each file format has one reader and one writer here.  `read_text` is how
every input file is read, so a file that is not text is a ParseError too.
`read_csv` is the one CSV dialect: cells split on commas with no quoting,
blank lines skipped, spaces around a header name or a cell ignored, the
header checked whole, every row's width checked, and each cell converted
(a digit-group underscore such as `1_0` is a ParseError, though `int` and
`float` accept it).  `read_json` takes a file whose top level is a JSON
object with no repeated key.  `write_json` is how every JSON output is
written, `write_csv` how every CSV output is, with each cell printed by
`format_value` (a float as its `repr`, so it reads back exactly); and
`require_finite` is how a settings dataclass rejects a NaN or infinite
float.

The writers cost little more than the `repr` of their numbers, and their
bytes never depend on which path wrote them.  `write_json` writes exactly
`json.dumps(payload, sort_keys=True, indent=1)` and a newline; with an
indent, `json.dumps` never uses its C encoder, so `_encode` builds the same
text with C-level joins, an all-float list (a checkpoint's parameter rows)
in one join over `float.__repr__`.  A non-finite float, or any type
`_encode` does not take, sends the payload to `json.dumps`, which writes it
or raises as it always has; a non-finite float is then written as `null`.
`write_csv` joins a row whose cells are all plain `int` and `float` (a
series row) by `repr` in one call, which is `format_value` cell by cell;
any other row goes through `format_value`.
"""

import dataclasses
import json
import math
from json.encoder import encode_basestring_ascii

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


def read_csv(path, header, kinds) -> list:
    """`(line number, converted cells)` for each data row of a CSV input file.

    `header` is the column names, or a function from the header's width to
    them; `kinds[i]` converts column i, and the last kind every further column.
    """
    text = read_text(path)
    lines = text.splitlines() or [""]
    names = [name.strip() for name in lines[0].split(",")]
    expected = list(header(len(names)) if callable(header) else header)
    if names != expected:
        raise ParseError(f"{path}: line 1: expected header {','.join(expected)!r}")
    underscore = text.find("_", len(lines[0]))   # one search, not a test per cell
    if underscore >= 0:
        raise ParseError(f"{path}: line {len(text[:underscore + 1].splitlines())}: "
                         f"'_' is not allowed in a number")
    del text   # the lines hold the same characters; keeping both raises the peak
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise ParseError(f"{path}: line {lineno}: expected {len(names)} cells, "
                             f"got {len(cells)}")
        try:
            row = [kind(cell) for kind, cell in zip(kinds, cells)]
            row.extend(map(kinds[-1], cells[len(kinds):]))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        rows.append((lineno, row))
    return rows


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def read_json(path) -> dict:
    """The top-level object of a JSON input file; no object may repeat a key."""
    try:
        payload = json.loads(read_text(path), object_pairs_hook=_unique_keys)
    except ValueError as exc:   # bad syntax, a repeated key, an integer too long to read
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return payload


def _encode(value, indent: str) -> str:
    """`json.dumps(value, sort_keys=True, indent=1)` nested at `indent` (a
    newline and the spaces before the value's closing bracket); ValueError
    for a non-finite float and for any type it leaves to `json.dumps`."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("a non-finite float")
        return float.__repr__(value)
    inner = indent + " "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:   # an all-float list is one join; float.__repr__ rejects any other item
            body = ("," + inner).join(map(float.__repr__, value))
        except TypeError:
            body = ("," + inner).join([_encode(item, inner) for item in value])
        else:
            if "n" in body:   # "nan" or "inf": no finite float's text has an n
                raise ValueError("a non-finite float")
        return "[" + inner + body + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in sorted(value.items()):
            if not isinstance(key, str):   # json.dumps quotes a scalar key's text
                if not (key is None or isinstance(key, (int, float))):
                    raise ValueError(f"a key of type {type(key).__name__}")
                key = _encode(key, inner)
            items.append(encode_basestring_ascii(key) + ": " + _encode(item, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise ValueError(f"a value of type {type(value).__name__}")


def write_json(path, payload) -> None:
    """`payload` as JSON with sorted keys, one space of indent, and a final
    newline; a non-finite float, which RFC 8259 lacks, as `null`."""
    try:
        text = _encode(payload, "\n")
    except (ValueError, RecursionError):   # json.dumps takes it, or names the fault
        try:
            text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
        except ValueError:   # a non-finite float: only such a payload is read back
            nulled = json.loads(json.dumps(payload), parse_constant=lambda _: None)
            text = json.dumps(nulled, sort_keys=True, indent=1)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def format_value(value) -> str:
    """`true`/`false` for a bool, `repr(float(v))` for any float, else `str(v)`."""
    if type(value) is float:   # nearly every cell of a series: keep it one test
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):   # np.float32 is no float
        return repr(float(value))
    return str(value)


_PLAIN = frozenset((int, float))   # types whose repr is their format_value


def _csv_line(row) -> str:
    if _PLAIN.issuperset(map(type, row)):   # a series row: one C-level join
        return ",".join(map(repr, row)) + "\n"
    return ",".join(map(format_value, row)) + "\n"


def write_csv(path, header, rows) -> None:
    """One `header` line, then one line of `format_value` cells per row
    (each row a sequence, read twice)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(_csv_line, rows))


def require_finite(settings) -> None:
    """ValidationError unless every float field of a settings dataclass is finite."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        # postponed annotations: a field's type is the string "float"
        if f.type == "float" and not math.isfinite(value):
            raise ValidationError(f"{type(settings).__name__}.{f.name} must be "
                                  f"finite, got {value!r}")
