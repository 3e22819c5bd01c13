"""Exception types shared across the package: one family per exit code.

``ConfigError`` (an invalid run configuration) maps to exit code 2,
``DataError`` (malformed or inconsistent input data or artifacts) to 3 and
``NumericalError`` (an estimation or evaluation failure) to 4. Library
callers catch a family; its message names the fault. An error is rebuilt
from its message and attributes alone, so default exception pickling carries
one back from a pool worker.

``whole_price_units`` is the one rule for a tick size, here so that the
config parser checks it without loading the modules that price a book.
"""

import math


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


TICK_SIZE_RULE = "a whole number of price units (0.0001), at least one"


def whole_price_units(tick_size: float) -> bool:
    """Whether ``tick_size`` is ``TICK_SIZE_RULE``, allowing float rounding;
    LOBSTER prices are integers in those units."""
    units = tick_size * 10000
    return math.isfinite(units) and round(units) >= 1 and math.isclose(units, round(units))
