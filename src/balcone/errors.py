"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GeometryError):
    """Invalid input data or an impossible object construction."""


class ScenarioError(ValidationError):
    """A scenario document failed to parse or validate.

    Carries the position of the offending node: a path into the document
    for semantic errors, a line/column pair for syntax errors.
    """

    def __init__(self, message, path=None, line=None, column=None):
        self.path = path
        self.line = line
        self.column = column
        if line is not None:
            prefix = f"line {line}, column {column}: "
        elif path:
            prefix = f"at {path}: "
        else:
            prefix = ""
        super().__init__(prefix + message)


def _entries(value, message, size=None, kinds=None, path=None) -> tuple:
    """``value`` as a tuple: the one rule for every list the library is handed.  Refused with
    ``message``, a ``ScenarioError`` at ``path`` if given, unless a list or tuple of ``size``
    entries whose exact types are all in ``kinds``, each if given (a bool is not an ``int``)."""
    if (isinstance(value, (list, tuple)) and (size is None or len(value) == size)
            and (kinds is None or kinds.issuperset(map(type, value)))):
        return tuple(value)
    raise ScenarioError(message, path=path) if path else ValidationError(message)


def _located(path, build, *args):
    """``build(*args)``, its ``ValidationError`` re-raised as a ``ScenarioError`` at ``path``;
    a ``ScenarioError`` that names a path of its own is re-raised unchanged."""
    try:
        return build(*args)
    except ValidationError as e:
        if getattr(e, "path", None):
            raise
        raise ScenarioError(str(e), path=path) from e


def _immutable(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of the records that refuse attribute assignment."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class ComputationError(GeometryError):
    """A well-formed request that cannot be computed on the given values."""


class DegreeMismatchError(ComputationError):
    """Factors whose total degree differs from the required one."""

    def __init__(self, expected, actual):
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"total degree of factors is {actual}, expected {expected}"
        )


class DegeneratePairingError(ComputationError):
    """A singular pairing matrix where invertibility is required."""


class UnknownNameError(GeometryError):
    """A class or divisor name that the scenario does not declare."""
