"""Shared exception types.

Exit-code mapping in the CLI, through its one handler-error exit:
PropertyViolation (and subclasses) means a mathematical invariant was
falsified and maps to exit code 1; input-side errors map to exit 2.
These are ValueError, which ParseError and TriangularityError subclass,
OSError, and RecursionError, raised on an input nested or long past the
interpreter's recursion limit (such as deeply nested parentheses).
"""


class TriangularityError(ValueError):
    """A tuple fails the triangular shape constraints."""


class ParseError(ValueError):
    """Syntax or format error in the text grammar, with source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class PropertyViolation(Exception):
    """A checked mathematical property failed on concrete data."""


class CapExceededError(PropertyViolation):
    """An iteration ceiling was hit where theory guarantees termination.

    Signals an implementation bug or invalid input that slipped validation,
    never an expected mathematical outcome.
    """
