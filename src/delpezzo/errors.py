"""Error taxonomy shared by every module, the one check of every work budget,
the one integer rule, and the readers of the JSON parsers (profile, counting
model, fiber tree): files, documents, fields named by their path, and exact
integers (within int64, the contract of the JSON formats; the kernels are
exact at any size), rationals, booleans and strings.

The integer rule: every exact integer input of the package is read by
`_index`, and every vector or matrix of them by `_ints`, entry by entry as
`_index` reads one.  Numpy integers are read as Python ints, and a bool, a
float, a string or None is refused with DomainError.

The CLI maps ToolkitError subclasses to exit code 1; argument/usage problems
are argparse errors and exit with code 2.
"""

import json
import operator
import re
from contextlib import contextmanager
from fractions import Fraction
from functools import partial


class ToolkitError(Exception):
    """Base class for all library errors."""


class DomainError(ToolkitError):
    """An input violates a documented precondition."""


class FieldError(DomainError):
    """A missing or malformed field of a JSON document, named by its path."""

    def __init__(self, doc: str, path: str, reason: str):
        super().__init__(f"{doc} JSON field '{path}': {reason}")
        self.path, self.reason = path, reason


def _index(x, what: str) -> int:
    """x as a Python int (numpy integers too); a bool or anything else that is
    not an integer raises DomainError("{what} must be an integer, got {x!r}")."""
    try:
        if type(x) is not bool:
            return operator.index(x)
    except TypeError:
        pass
    raise DomainError(f"{what} must be an integer, got {x!r}")


def _ints(v, what: str, depth: int = 1) -> tuple:
    """v as a tuple of Python ints, each entry read as `_index` reads one, or
    at depth d > 1 as a tuple of its rows read at depth d - 1; any other entry,
    or a v that is not iterable, raises DomainError("{what}: {v!r}"), v the
    innermost one that fails.  Nothing is formatted on success: `picard.pair`
    reads here."""
    try:
        if depth > 1:
            return tuple(_ints(row, what, depth - 1) for row in v)
        entries = tuple(v)
        if bool not in map(type, entries):
            return tuple(map(operator.index, entries))
    except TypeError:
        pass
    raise DomainError(f"{what}: {v!r}")


def _check_budget(amount, budget, message: str) -> None:
    """Raise CapExceeded(message) when `amount` passes `budget`, both read by `_index`."""
    if _index(amount, "work amount") > _index(budget, "work budget"):
        raise CapExceeded(message)


_REQUIRED = object()


def _json_field(doc: str, data, key: str, convert, default=_REQUIRED):
    """convert(data[key]) for a JSON object `data`; `default` when the key is
    absent and a default is given.

    Every error the conversion raises becomes a FieldError naming the key, a
    FieldCapExceeded where it is a CapExceeded; a FieldError from a nested
    document comes back, of its own class, with the key as its prefix.
    """
    if not isinstance(data, dict):
        raise DomainError(f"{doc} JSON must be an object")
    if key not in data:
        if default is _REQUIRED:
            raise FieldError(doc, key, "missing")
        return default
    try:
        return convert(data[key])
    except FieldError as ex:
        raise type(ex)(doc, f"{key}.{ex.path}", ex.reason) from None
    except (DomainError, TypeError, ValueError, ArithmeticError, AttributeError) as ex:
        refusal = FieldCapExceeded if isinstance(ex, CapExceeded) else FieldError
        raise refusal(doc, key, str(ex)) from None


@contextmanager
def _json_document(doc: str, data):
    """The field reader `_json_field` of the JSON object `data`, for a block
    that builds the document `doc`: a DomainError raised in the block by a
    constructor's checks across fields is re-raised naming `doc`, a
    CapExceeded as a CapExceeded; a FieldError passes through unchanged."""
    if not isinstance(data, dict):
        raise DomainError(f"{doc} JSON must be an object")
    try:
        yield partial(_json_field, doc, data)
    except FieldError:
        raise
    except DomainError as ex:
        refusal = CapExceeded if isinstance(ex, CapExceeded) else DomainError
        raise refusal(f"{doc} JSON: {ex}") from None


def _read_json(doc: str, path):
    """The JSON in the regular file `path`; a path that is not one (missing, a
    directory, a device such as /dev/zero, which would be read without end), or
    a file that cannot be read (not UTF-8) or parsed (also an integer past 4300
    digits, or nesting past the recursion limit) raises one DomainError naming
    `doc`."""
    try:
        if not path.is_file():
            raise OSError("missing, or not a regular file")
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as ex:
        raise DomainError(f"cannot load {doc} {path}: {ex}") from None


def _json_int(x) -> int:
    """A JSON integer within int64, read by `_index`; a float, string or
    boolean raises DomainError, and an integer past int64 ValueError."""
    x = _index(x, "value")
    if not -(2**63) <= x < 2**63:
        raise ValueError(f"an integer of {x.bit_length()} bits is outside int64")
    return x


# the decimal exponent of a rational string, in the syntax Fraction reads
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _json_rational(x, max_exponent: int) -> Fraction:
    """A rational read exactly, such as the counting base q of a model file or
    of `--q`: a JSON integer within int64, or a string such as "5/2", "2.5" or
    "1e3".  A decimal exponent larger in size than `max_exponent` raises
    CapExceeded, read from one digit more than it has, before Fraction expands it."""
    if not isinstance(x, str):
        return Fraction(_json_int(x))
    exponent = _EXPONENT.search(x)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    _check_budget(int(digits[: len(str(max_exponent)) + 1] or 0), max_exponent,
                  f"a decimal exponent larger in size than {max_exponent} is past the "
                  "counting budget")
    return Fraction(x)


def _json_bool(x) -> bool:
    if not isinstance(x, bool):
        raise TypeError(f"expected true or false, got {x!r}")
    return x


def _json_str(x) -> str:
    if not isinstance(x, str):
        raise TypeError(f"expected a string, got {x!r}")
    return x


class HeightBelowModel(DomainError):
    """Requested section height lies below the rigid section of the model."""


class NonIntegralCoefficient(DomainError):
    """A breaking decomposition would need a fractional fiber coefficient."""


class CapExceeded(DomainError):
    """A work budget refused by `_check_budget`, or a rank counting lacks."""


class FieldCapExceeded(FieldError, CapExceeded):
    """A work budget refused inside a JSON field: the field's FieldError, and
    a CapExceeded as the same refusal outside a document is."""


class DecompositionNotFound(ToolkitError):
    """The bounded decomposition search exhausted without writing the class
    as a sum over the fixed generating set.

    This firing on a nef integral class of a degree >= 2 lattice is evidence
    that the generating set must be enlarged; the message carries the residual
    class and the generating set size so the event is auditable.  The set is
    never extended silently.
    """


class NotFound(ToolkitError):
    """An exhaustive subgroup search ended without a match."""


class NotApplicable(ToolkitError):
    """A lemma-shaped query whose hypothesis the input does not satisfy."""
