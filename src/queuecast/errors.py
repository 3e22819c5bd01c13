"""Exception types shared across the package: one family per exit code.

``ConfigError`` (an invalid run configuration) maps to exit code 2,
``DataError`` (malformed or inconsistent input data or artifacts) to 3 and
``NumericalError`` (an estimation or evaluation failure) to 4. Library
callers catch a family; its message names the fault. An error is rebuilt
from its message and attributes alone, so default exception pickling carries
one back from a pool worker.
"""


class QueuecastError(Exception):
    """Base class for all package errors."""


class ConfigError(QueuecastError):
    """Invalid run configuration."""


class DataError(QueuecastError):
    """Malformed or inconsistent input data."""

    line_no = None  # the input line at fault, where one is known
    path = None  # the file at fault, where one is known

    def __init__(self, message, line_no=None):
        """``line_no`` None leaves the fault to be positioned later (``at_line``)."""
        super().__init__(message)
        if line_no is not None:
            self.at_line(line_no)

    def at_line(self, line_no: int) -> "DataError":
        """Prefix the message with the input line at fault; returns self."""
        self.line_no = line_no
        self.args = (f"line {line_no}: {self}",)
        return self

    def in_file(self, path) -> "DataError":
        """Append the file that holds the fault to the message, unless one is
        already named (the reader nearest the fault names it); returns self."""
        if self.path is None:
            self.path = path
            self.args = (f"{self} (in {path})",)
        return self


class NumericalError(QueuecastError):
    """Estimation or evaluation failure."""
