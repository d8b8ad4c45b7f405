"""Exception taxonomy shared across the package.

Each class maps onto one failure family so callers (and the CLI exit-code
mapping) can distinguish bad shapes, bad data files, broken numerics, and
violated call contracts without string matching.  `read_text` is how every
input file is read, so a file that is not text is a ParseError too.
"""


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
