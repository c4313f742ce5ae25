"""Error taxonomy shared by every module, and the readers of the JSON parsers
(profile, counting model, fiber tree): files, fields named by their path, and
exact integers, booleans and strings.

The CLI maps ToolkitError subclasses to exit code 1; argument/usage problems
are raised as click.UsageError and exit with code 2.
"""

import json


class ToolkitError(Exception):
    """Base class for all library errors."""


class DomainError(ToolkitError):
    """An input violates a documented precondition."""


class FieldError(DomainError):
    """A missing or malformed field of a JSON document, named by its path."""

    def __init__(self, doc: str, path: str, reason: str):
        super().__init__(f"{doc} JSON field '{path}': {reason}")
        self.path, self.reason = path, reason


_REQUIRED = object()


def _json_field(doc: str, data, key: str, convert, default=_REQUIRED):
    """convert(data[key]) for a JSON object `data`; `default` when the key is
    absent and a default is given.

    Every error the conversion raises becomes a FieldError naming the key; a
    FieldError from a nested document comes back with the key as its prefix.
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
        raise FieldError(doc, f"{key}.{ex.path}", ex.reason) from None
    except (DomainError, TypeError, ValueError, ArithmeticError, AttributeError) as ex:
        raise FieldError(doc, key, str(ex)) from None


def _read_json(doc: str, path):
    """The JSON in the file `path`; a file that cannot be read (missing, a
    directory, not UTF-8) or parsed raises one DomainError naming `doc`."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as ex:
        raise DomainError(f"cannot load {doc} {path}: {ex}") from None


def _json_int(x) -> int:
    """A JSON integer as it is; a float, string or boolean raises TypeError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


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


class CapExceeded(ToolkitError):
    """A bounded search or closure passed its element budget."""


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
