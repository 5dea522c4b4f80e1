"""Exception hierarchy shared by all adaptchain modules.

A domain error is raised as ``SomeError(template, *values)``: a constant
:meth:`str.format` template (never outside text: an id holding ``{`` would
break it) and the outside values it names, which only
:class:`AdapterChainError` turns into text, each clipped to a short line.
"""

import string

BRIEF_CHARS = 80


def clip(text: str) -> str:
    """``text`` for an error message: whole when it has at most BRIEF_CHARS
    characters, else its first BRIEF_CHARS and its length, so a huge value
    from a document or a command line gives a short message."""
    if len(text) <= BRIEF_CHARS:
        return text
    return f"{text[:BRIEF_CHARS]}... ({len(text)} characters)"


def brief(value: object) -> str:
    """``repr(value)`` for an error message, clipped like :func:`clip`."""
    return clip(repr(value))


class _Shown(string.Formatter):
    """``{!r}`` shows :func:`brief` of a value, ``{}`` :func:`clip` of its
    ``str``; an int is shown whole either way."""

    def convert_field(self, value, conversion):
        if isinstance(value, int):
            return value
        return brief(value) if conversion == "r" else clip(str(value))


class AdapterChainError(Exception):
    """Base class for all domain errors raised by this package. A template
    raised with no values is the message as given."""

    def __init__(self, template: str, *values: object):
        message = _Shown().vformat(template, values, {}) if values else template
        super().__init__(message)


class ValidationError(AdapterChainError):
    """A declared interface, adapter, or graph violates a well-formedness rule."""


class DuplicateMethodName(ValidationError):
    pass


class DuplicateAbstractValue(ValidationError):
    pass


class EmptyDomain(ValidationError):
    pass


class ReservedName(ValidationError):
    pass


class UnknownValue(ValidationError):
    pass


class DuplicateInput(ValidationError):
    pass


class ArityMismatch(ValidationError):
    pass


class UnknownInterface(ValidationError):
    pass


class DuplicateId(ValidationError):
    pass


class InterfaceMismatch(ValidationError):
    pass


class EndpointMismatch(ValidationError):
    pass


class CycleDetected(ValidationError):
    pass


class CapExceeded(AdapterChainError):
    """Materializing an adaptation table, or drawing a random dependency
    function, would exceed the configured cap."""

    def __init__(self, template: str, *values: object, required_size: int, cap: int):
        super().__init__(template, *values)
        self.required_size = required_size
        self.cap = cap


class NoChain(AdapterChainError):
    """No acyclic adapter chain connects the requested interfaces."""


class TooLarge(AdapterChainError):
    """Instance exceeds the exhaustive-search guard."""


class InvalidParams(AdapterChainError):
    pass


class GraphSyntaxError(AdapterChainError):
    """A graph document is not well-formed."""
