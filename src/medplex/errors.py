"""Error types shared across the package.

Exit-code mapping used by the CLI: UsageError -> 1, DataError -> 2,
NumericError -> 3. Library code raises these directly so callers can
distinguish bad invocations from bad data from numeric blow-ups.
"""


class MedplexError(Exception):
    """Base class for package errors."""


class UsageError(MedplexError):
    """Bad invocation: unknown flags, missing arguments, malformed config."""


class DataError(MedplexError):
    """Malformed or inconsistent input data. path is the input file that the
    message names, or None while it names none (see data.reading)."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class NumericError(MedplexError):
    """Non-finite values where finite ones are required (loss, params, grads)."""
