"""Exception hierarchy shared by all adaptchain modules.

A domain error is raised as ``SomeError(template, *values)``: a constant
:meth:`str.format` template (never outside text: an id holding ``{`` would
break it) and the outside values it names, which only
:class:`AdapterChainError` turns into text, each clipped to a short line.
"""

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


def digits(value: int) -> str:
    """The decimal digits of an int, also past the interpreter's limit on
    int-to-text conversion (4300 digits by default), which ``decimal``
    does not apply. ``decimal`` is imported here, on this rare path only."""
    import decimal

    return str(decimal.Decimal(value))


def _escaped(text: str) -> str:
    """``text`` with each character that is not printable (a newline, a
    control character) as its backslash escape, so it stays on one line."""
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


class _Shown:
    """One value of a message: ``{!r}`` shows :func:`brief` of it, ``{}``
    :func:`clip` of its ``str`` with unprintable characters escaped; an int
    is shown whole either way, unless it has too many digits to turn into
    text, when :func:`clip` cuts its :func:`digits`."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def _int(self) -> str:
        try:
            return str(self.value)
        except ValueError:
            return clip(digits(self.value))

    def __repr__(self) -> str:
        return self._int() if isinstance(self.value, int) else brief(self.value)

    def __format__(self, spec: str) -> str:
        if isinstance(self.value, int):
            return format(self._int(), spec)
        return format(clip(_escaped(str(self.value))), spec)


class AdapterChainError(Exception):
    """Base class for all domain errors raised by this package. A template
    raised with no values is the message as given."""

    def __init__(self, template: str, *values: object):
        message = template.format(*map(_Shown, values)) if values else template
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
    """Work would pass the one cap, ``ADAPTCHAIN_TABULATE_CAP``: a table, a
    ``gen`` run, a chain walk or greedy's pushes; the message names the cap."""


class NoChain(AdapterChainError):
    """No acyclic adapter chain connects the requested interfaces."""


class InvalidParams(AdapterChainError):
    pass


class GraphSyntaxError(AdapterChainError):
    """A graph document is not well-formed."""
