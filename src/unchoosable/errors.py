"""Exception types shared across the toolkit."""


class UnchoosableError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(UnchoosableError, ValueError):
    """An argument lies outside the operation's domain (bad size, bad id, ...)."""


class PreconditionError(UnchoosableError, ValueError):
    """A documented precondition does not hold (non-clique pasting set, precolor
    outside a vertex's list, ...)."""


class ParseError(UnchoosableError, ValueError):
    """Malformed input file. `offset` is the byte position where parsing failed,
    when that position is known."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)


class ResourceLimitError(UnchoosableError, RuntimeError):
    """A configured size cap would be exceeded; retry with a larger cap or a
    non-materializing mode."""


class SearchTimeout(UnchoosableError, RuntimeError):
    """Wall-clock budget expired before the search reached a verdict.  The
    answer is unknown; no guess is returned."""


class ConstructionRefuted(UnchoosableError, RuntimeError):
    """A verification step found a counterexample to a claimed property.

    `vector` carries the offending color vector when a gadget failed to
    block its root coloring.
    """

    def __init__(self, message: str, vector=None):
        super().__init__(message)
        self.vector = vector
