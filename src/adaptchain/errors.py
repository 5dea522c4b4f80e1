"""Exception hierarchy shared by all adaptchain modules."""


class AdapterChainError(Exception):
    """Base class for all domain errors raised by this package."""


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

    def __init__(self, message: str, required_size: int, cap: int):
        super().__init__(message)
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
