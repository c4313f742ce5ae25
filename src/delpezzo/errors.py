"""Error taxonomy shared by every module, and the field reader of the JSON
parsers (profile, counting model, fiber tree), whose errors name the field path.

The CLI maps ToolkitError subclasses to exit code 1; argument/usage problems
are raised as click.UsageError and exit with code 2.
"""


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
