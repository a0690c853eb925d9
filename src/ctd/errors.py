"""Exception types shared across the package."""

from __future__ import annotations


class CtdError(Exception):
    """Base class for every error this package raises deliberately."""


class UnknownPort(CtdError):
    """External drive referenced a port the circuit never declared."""


class DuplicatePort(CtdError):
    """A port name was declared twice on the same circuit."""


class UnknownNeuron(CtdError):
    """A neuron id was referenced before being added to the circuit."""


class BadArity(CtdError):
    """Sensor channel count is not divisible by 3."""


class NegativeWeight(CtdError):
    """Judge-bank weight matrices must be nonnegative."""


class BinMismatch(CtdError):
    """Correlation operands were binned with different bin widths."""


class ParseError(CtdError):
    """Scenario text is not well formed; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(CtdError):
    """Scenario content violates an invariant (which one is in the message)."""


class UnknownKey(CtdError):
    """Scenario document contains a key the format does not define."""
