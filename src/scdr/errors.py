"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies.
"""

from __future__ import annotations


class ScdrError(Exception):
    """Base class for all package errors."""


class ValidationError(ScdrError, ValueError):
    """A config value, argument, or file content violates a stated invariant."""


class IngestError(ValidationError):
    """A rating file could not be parsed into a dataset."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class DivergenceError(ScdrError, ArithmeticError):
    """Training produced a non-finite loss or gradient, or a loss past the divergence bound."""

    def __init__(self, message: str, epoch: int | None = None, learning_rate: float | None = None):
        self.epoch = epoch
        self.learning_rate = learning_rate
        if epoch is not None:
            message = f"{message} (epoch {epoch}, learning_rate {learning_rate})"
        super().__init__(message)


class MissingInputError(ScdrError, FileNotFoundError):
    """A required input file or checkpoint is absent."""
