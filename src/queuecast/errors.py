"""Exception types shared across the package.

Two broad families matter for the CLI exit-code mapping: ``DataError``
(malformed or inconsistent input data, exit code 3) and ``NumericalError``
(estimation or evaluation failures, exit code 4). ``ConfigError`` maps to
exit code 2.
"""


class QueuecastError(Exception):
    """Base class for all package errors."""


class ConfigError(QueuecastError):
    """Invalid run configuration."""


class DataError(QueuecastError):
    """Malformed or inconsistent input data."""

    line_no = None  # the input line at fault, where one is known
    path = None  # the file at fault, where one is known

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


# --- order book ------------------------------------------------------------

class UnknownOrderId(DataError):
    def __init__(self, order_id, context=""):
        self.order_id = order_id
        suffix = f" ({context})" if context else ""
        super().__init__(f"unknown order id {order_id}{suffix}")


class OverReduce(DataError):
    def __init__(self, order_id, delta, resting):
        self.order_id = order_id
        super().__init__(
            f"reduce of {delta} exceeds resting size {resting} for order {order_id}"
        )


class CrossedSubmit(DataError):
    def __init__(self, order_id, price, opposite_best):
        self.order_id = order_id
        super().__init__(
            f"submit {order_id} at price {price} crosses opposite best {opposite_best}"
        )


class EmptySide(DataError):
    """A quote was requested while one or both book sides were empty."""


class BothQueuesEmpty(NumericalError):
    """Queue imbalance is undefined when nb + na == 0."""


# --- ingest ----------------------------------------------------------------

class MalformedRow(DataError):
    def __init__(self, line_no, reason):
        """``line_no`` None leaves the row to be positioned later (``at_line``)."""
        super().__init__(reason)
        if line_no is not None:
            self.at_line(line_no)


class NonMonotoneTime(DataError):
    def __init__(self, line_no):
        self.line_no = line_no
        super().__init__(f"line {line_no}: timestamp decreases")


class UnknownTypeCode(DataError):
    def __init__(self, line_no, code):
        """``line_no`` None leaves the row to be positioned later (``at_line``)."""
        self.code = code
        super().__init__(f"unknown message type code {code}")
        if line_no is not None:
            self.at_line(line_no)


class LengthMismatch(DataError):
    def __init__(self, n_reconstructed, n_reference):
        super().__init__(
            f"row count mismatch: {n_reconstructed} reconstructed vs "
            f"{n_reference} reference"
        )


class NoData(DataError):
    """No instrument-days available for aggregation."""


# --- simulator -------------------------------------------------------------

class DegenerateConfig(ConfigError):
    """Simulator configuration cannot produce the requested stream."""


class UnknownPreset(ConfigError):
    def __init__(self, name):
        super().__init__(f"unknown regime preset {name!r}")


# --- sampling --------------------------------------------------------------

class PointSkipped(NumericalError):
    """A sample point could not be drawn; day drivers count these."""


class OneSidedBook(PointSkipped):
    """The prevailing book state has an empty side; imbalance undefined."""


class EmptyInterior(PointSkipped):
    """Interval too narrow to contain a strictly interior nanosecond."""


class TooFewPoints(NumericalError):
    def __init__(self, n, minimum):
        super().__init__(f"need at least {minimum} points, got {n}")


# --- inference -------------------------------------------------------------

class AllOneLabel(NumericalError):
    """Logistic fit requires both label values to be present."""


class NotConverged(NumericalError):
    """Test requested on a fit that did not converge (or separated)."""


class NotNested(NumericalError):
    """Nested model log-likelihood exceeds the full model's: optimizer fault."""


class OutOfDomain(NumericalError):
    def __init__(self, value):
        super().__init__(f"imbalance {value} outside [-1, 1]")


# --- evaluation ------------------------------------------------------------

class OneClassOnly(NumericalError):
    """ROC analysis requires both labels to be present."""


class EmptyInput(NumericalError):
    """Operation requires a nonempty input."""
