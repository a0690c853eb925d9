"""Exception types, and the one rule for what a failure raises.

A bad argument to a library call raises ValueError naming the bad value. A
bad scenario, file or directory raises a CtdError: ParseError for text that is
not JSON, ValidationError for content that breaks an invariant (naming the
field), and CtdError itself for an unreadable or unwritable path. The CLI
prints a CtdError as one `error:` line and exits 2.
"""

from __future__ import annotations


class CtdError(Exception):
    """A bad scenario, file or directory; the CLI exits 2 on it."""


class ParseError(CtdError):
    """Scenario text is not well formed; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(CtdError):
    """Scenario content breaks an invariant or holds an unknown key."""
