"""LOBSTER-format message parsing and best-quote reconstruction.

Message files are comma-separated rows of six fields:

    time,type,order_id,size,price,direction

with time in seconds after midnight (up to nanosecond decimals), price in
units of currency x 10000, and direction +1 for buy orders / -1 for sell
orders. Type codes: 1 submission, 2 partial cancel, 3 full delete,
4 execution of a visible order, 5 execution of a hidden order, 6 auction
message, 7 trading halt. Codes 5-7 never mutate the visible book.

The companion orderbook file carries one row per message; its first four
columns are ask price x 10000, ask size, bid price x 10000, bid size, which
is what ``L1Verifier`` checks the reconstruction against.

A day is one pass with no per-message list: ``replay`` pulls messages from
``parse_messages`` one at a time, applies each to the book in its own loop,
and sends the book events and the level-1 rows to append targets as it makes
them. A level-1 row changes with the quote only, so the level-1 target gets
one ``(message ordinal, row)`` record per change of the row and an end record
``(n, None)``: a file writer (``l1_writer``) writes each row once per run,
and an ``L1Verifier`` checks them against the orderbook file a block at a
time, keeping only the mismatches. What grows with the day is the quote
timeline, one record per nanosecond at which the quote changed.

Both files are read a block of ``BLOCK_LINES`` lines at a time, one block
held at a time. A message block whose every line is a canonical row
(nine-decimal stamp, ASCII digits, LF ending; see ``_CANONICAL_ROW``) and
whose times never go back is converted in one numpy call; an orderbook block
whose text equals the rows forward-filled from the records is checked with
one string comparison. Every other block (fewer decimals, spaces, CRLF,
``+`` signs, leading zeros, long fields, more columns, blank lines, a
mismatch, a fault) goes through the per-line parser from its first line (an
orderbook block is read again from there), so it parses, or fails with the
same error at the same line, as if the file were read line by line.

Times are parsed to integer nanoseconds; no float time arithmetic anywhere.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass, field
from bisect import bisect_left, bisect_right
from itertools import chain, islice, repeat
from math import inf
from operator import itemgetter
from typing import (
    Callable, ContextManager, Generator, Iterable, Iterator, NamedTuple, Optional, Sequence,
    TextIO,
)

from . import book as bk
from .errors import ConfigError, DataError, TICK_SIZE_RULE, whole_price_units

NS = 1_000_000_000

# sentinel quote values used by LOBSTER for an empty side
EMPTY_ASK_PRICE = 9999999999
EMPTY_BID_PRICE = -9999999999

SUBMISSION = 1
PARTIAL_CANCEL = 2
FULL_DELETE = 3
EXECUTION = 4
HIDDEN_EXECUTION = 5
AUCTION = 6
HALT = 7

_VALID_CODES = frozenset((1, 2, 3, 4, 5, 6, 7))
_ORDINAL = itemgetter(0)
# replay's last record before it has one: a quote with sizes no book has
_NO_RECORD = (None, None, None, -1, -1)

# Lines that parse_messages, and rows that L1Verifier, read at a time.
BLOCK_LINES = 1024
# A canonical message row: a nine-decimal stamp, type 1-7, direction +1 or -1,
# ASCII digits, at most 18 of them a field (so every value fits an int64),
# and an LF ending. A block of them is its lines joined with a space.
_CANONICAL_ROW = r"[0-9]{1,9}\.[0-9]{9},[1-7],-?[0-9]{1,18},[0-9]{1,18},-?[0-9]{1,18},-?1\n"
_CANONICAL_BLOCK = re.compile(f"{_CANONICAL_ROW}(?: {_CANONICAL_ROW})*+")


class LobsterMessage(NamedTuple):
    """The fields of a message, in order. Parsed and simulated messages are
    plain tuples in this order; a LobsterMessage serves wherever one does."""

    t_ns: int
    type_code: int
    order_id: int
    size: int
    price: int  # currency x 10000
    direction: int  # +1 buy, -1 sell


@dataclass(frozen=True)
class SessionWindow:
    """Half-open sampling window [open, close) in seconds after midnight."""

    open_s: int = 36000  # 10:00
    close_s: int = 55800  # 15:30

    def __post_init__(self):
        if not self.open_s < self.close_s:
            raise ValueError("session open must precede close")

    @property
    def open_ns(self) -> int:
        return self.open_s * NS

    @property
    def close_ns(self) -> int:
        return self.close_s * NS


def parse_time_ns(text: str) -> int:
    """Parse a decimal seconds-after-midnight stamp to integer nanoseconds."""
    whole, dot, frac = text.strip().partition(".")
    if not whole.isdigit():
        raise ValueError(f"bad time field {text!r}")
    t = int(whole) * NS
    if dot:
        if not frac.isdigit() or len(frac) > 9:
            raise ValueError(f"bad time field {text!r}")
        t += int(frac.ljust(9, "0"))
    return t


def format_time_ns(t_ns: int) -> str:
    """Canonical 9-decimal rendering; parse_time_ns round-trips it exactly."""
    return f"{t_ns // NS}.{t_ns % NS:09d}"


def format_message(msg: tuple) -> str:
    """A message, in ``LobsterMessage`` field order, as a message-file row."""
    t_ns, code, order_id, size, price, direction = msg
    return f"{t_ns // NS}.{t_ns % NS:09d},{code},{order_id},{size},{price},{direction}"


def _open_lines(source) -> ContextManager[Iterable[str]]:
    """The lines of ``source``, as a context that closes a file it opened.

    Bytes and paths split lines alike, at LF, CRLF or a lone CR. A non-ASCII
    byte decodes to a lone surrogate, which no field parser accepts, so it is
    reported as a DataError on its own line."""
    if isinstance(source, str):
        return open(source, "r", encoding="ascii", errors="surrogateescape")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("ascii", errors="surrogateescape"), newline=None)
    return contextlib.nullcontext(source)


def parse_messages(source) -> Iterator[tuple]:
    """Parse a message file (path, text-file object, or line iterable).

    Yields messages, plain tuples in ``LobsterMessage`` field order, in file
    order as they are pulled; raises a positioned error on the first malformed
    row, non-monotone timestamp, or unknown type code. A fault that the
    consumer finds in a message and throws back into this generator
    (``replay`` does) is positioned at the message's file line.

    The source is read ``BLOCK_LINES`` lines at a time. A canonical block is
    converted in one numpy call; any other block goes through ``_parse_lines``
    from its first line, which parses it as if the file were read line by line.
    """
    prev_t = -1
    start = 0  # lines before the block
    with _open_lines(source) as lines:
        lines = iter(lines)
        while block := list(islice(lines, BLOCK_LINES)):
            values = _canonical_values(block, prev_t)
            if values is None:
                prev_t = yield from _parse_lines(block, start, prev_t)
            else:
                prev_t = values[-6]
                for line_no, msg in enumerate(zip(*[iter(values)] * 6), start + 1):
                    try:
                        yield msg
                    except DataError as exc:  # thrown back: the consumer's fault in this message
                        raise exc.at_line(line_no) from None
            start += len(block)


def _canonical_values(block: list[str], prev_t: int) -> Optional[list[int]]:
    """The six values of each line of ``block`` in order, if every line is a
    canonical row and time never goes back from ``prev_t``; else None.

    The lines are joined with a space, which no canonical row holds, so the
    block regex matches only when each line is one whole row."""
    import numpy as np  # here, so that importing this module loads no numpy

    text = " ".join(block)
    if _CANONICAL_BLOCK.fullmatch(text) is None:
        return None
    values = np.fromstring(text.replace(".", "").replace("\n", ","), dtype=np.int64, sep=",")
    t = values[::6]
    if values.size != 6 * len(block) or t[0] < prev_t or (t[1:] < t[:-1]).any():
        return None
    return values.tolist()


def _parse_lines(
    lines: Iterable[str], start: int, prev_t: int
) -> Generator[tuple, None, int]:
    """Parse ``lines``, the lines after the first ``start`` of the file, one at
    a time; time must not go back from ``prev_t``. Returns the last time."""
    for line_no, line in enumerate(lines, start=start + 1):
        row = line.strip()
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != 6:
            raise DataError(f"expected 6 fields, got {len(parts)}", line_no)
        stamp, code, order_id, size, price, direction = parts
        try:
            t_ns = parse_time_ns(stamp)
            code = int(code)
            order_id = int(order_id)
            size = int(size)
            price = int(price)
            direction = int(direction)
        except ValueError as exc:
            raise DataError(str(exc), line_no) from None
        if code not in _VALID_CODES:
            raise DataError(f"unknown message type code {code}", line_no)
        if direction not in (1, -1):
            raise DataError(f"direction must be +1 or -1, got {direction}", line_no)
        if size < 0:
            raise DataError(f"negative size {size}", line_no)
        if t_ns < prev_t:
            raise DataError("timestamp decreases", line_no)
        prev_t = t_ns
        try:
            yield t_ns, code, order_id, size, price, direction
        except DataError as exc:  # thrown back: the consumer's fault in this message
            raise exc.at_line(line_no) from None
    return prev_t


def message_writer(fh: TextIO) -> Callable[[tuple], None]:
    """Append target that writes each message to ``fh`` as a message-file row."""
    write = fh.write

    def append(msg: tuple) -> None:
        write(format_message(msg) + "\n")

    return append


def write_messages(path, msgs: Iterable[tuple]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        append = message_writer(fh)
        for m in msgs:
            append(m)


def _l1_rows(lines: Iterable[str], start: int) -> Iterator[tuple[int, tuple[int, int, int, int]]]:
    """The ``(file line, first four columns)`` of each row of ``lines``, the
    lines after the first ``start`` of a LOBSTER orderbook file, parsed row
    by row as they are pulled."""
    last_line = l1 = None
    for line_no, line in enumerate(lines, start=start + 1):
        if line != last_line:  # a row repeats while the quote is unchanged
            row = line.strip()
            if not row:
                continue
            parts = row.split(",", 4)
            if len(parts) < 4:
                raise DataError(f"expected >= 4 fields, got {len(parts)}", line_no)
            try:
                l1 = (int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise DataError(str(exc), line_no) from None
            last_line = line
        yield line_no, l1


def parse_l1_file(source) -> list[tuple[int, int, int, int]]:
    """The first four columns of each row of a LOBSTER orderbook file."""
    with _open_lines(source) as lines:
        return [row for _, row in _l1_rows(lines, 0)]


def _l1_text(row: tuple[int, int, int, int]) -> str:
    """A level-1 row as an orderbook-file line."""
    return "%d,%d,%d,%d\n" % row


def l1_writer(fh: TextIO) -> Callable[[tuple[int, Optional[tuple]]], None]:
    """Append target for replay's level-1 records that writes the orderbook
    file to ``fh``, one row per message: each row once per run."""
    write = fh.write
    start, text = 0, ""

    def append(record: tuple[int, Optional[tuple]]) -> None:
        nonlocal start, text
        i, row = record
        write(text * (i - start))
        start, text = i, "" if row is None else _l1_text(row)

    return append


def write_l1_file(path, rows: Iterable[tuple[int, int, int, int]]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(map(_l1_text, rows))


def event_writer(fh: TextIO) -> Callable[[tuple], None]:
    """Append target for replay's book events that writes them to ``fh`` as
    an events CSV: the header, then one row per event, its first six fields
    with ``price_ticks`` empty off a submission."""
    write = fh.write
    write("seq,t_ns,kind,order_id,price_ticks,size_delta\n")

    def append(ev: tuple) -> None:
        seq, t_ns, kind, order_id, price, size, _ = ev
        write(f"{seq},{t_ns},{kind},{order_id},{'' if price is None else price},{size}\n")

    return append


# --- replay -------------------------------------------------------------------

@dataclass
class ReplayCounters:
    messages: int = 0
    events: int = 0
    hidden_volume: int = 0
    ignored_messages: int = 0  # auction / halt codes
    crossing_submits: int = 0


@dataclass
class DayStats:
    """Session-window accumulators behind the summary-statistics table."""

    executed_volume_i4: int = 0  # sum of size x price (currency x 10000)
    best_quote_limit_volume_i4: int = 0
    trade_price_min_i4: Optional[int] = None
    trade_price_max_i4: Optional[int] = None
    nb_time_integral: int = 0  # shares x ns, two-sided instants only
    na_time_integral: int = 0
    spread_time_integral: int = 0  # ticks x ns
    two_sided_ns: int = 0


@dataclass
class ReplayResult:
    timeline: list[bk.BestQuoteState] = field(default_factory=list)
    l1_rows: list[tuple[int, int, int, int]] = field(default_factory=list)
    events: list[tuple] = field(default_factory=list)
    counters: ReplayCounters = field(default_factory=ReplayCounters)
    stats: DayStats = field(default_factory=DayStats)
    first_session_event_ns: Optional[int] = None


def messages_to_events(msgs: Iterable[tuple], tick_size: float = 0.01) -> list[tuple]:
    """Convert a message stream into the normalized book-event stream, tuples
    in ``BookEvent`` field order."""
    return replay(msgs, tick_size=tick_size, keep_events=True).events


def replay(
    msgs: Iterable[tuple],
    tick_size: float = 0.01,
    window: Optional[SessionWindow] = None,
    record_l1: bool | Optional[Callable[[tuple[int, Optional[tuple]]], None]] = False,
    keep_events: bool | Optional[Callable[[tuple], None]] = False,
    ob: Optional[bk.OrderBook] = None,
) -> ReplayResult:
    """Replay a message stream through a fresh book.

    Returns the quote timeline and session-window accumulators for the
    summary-statistics table. The timeline holds the last best quote of each
    nanosecond at which it changed: several changes stamped alike leave one
    record, and none if they net out to the record before. So times rise
    strictly and no record repeats the quote of the one before it. Events
    outside the window still evolve the book (warm start); the window only
    scopes the stats and marks the first in-session event time for sampling.
    A day ends at the earlier of its last message and the close: its quote
    time is integrated over [open, min(close, the last message's stamp)).

    The loop applies each message with the book's mutators. A submission is
    checked here once (size, tick lattice, live id, crossing) and rested
    unchecked; one that crosses (synthetic or foreign data: LOBSTER reports
    executions) becomes executions against the opposite queue in priority
    order plus a residual submission. The quote is read from the book's
    tables only after a message that changed it, and after the first message,
    and compared with the last record's; a ``BestQuoteState`` is built only
    for a record that is kept.

    ``keep_events`` says where the book events go: nowhere (False or None),
    to the result's ``events`` list (True), or to an append target, a
    callable that takes each one as it is made. An event is a plain tuple in
    ``BookEvent`` field order, whose ``seq`` starts at 0 and rises strictly;
    a crossing submission makes its executions, then the submission of the
    residual that rests, if any. ``record_l1`` says where the level-1 rows
    go, one per message, the quote after its own message: to ``l1_rows``
    (True), or to an append target, which gets a record ``(i, row)`` when
    the row of message ``i`` (from 0) differs from the row before, and
    ``(n, None)`` once the first ``n`` rows are final: at the end, or before
    a fault in message ``n + 1`` is raised.

    ``tick_size`` must be a whole number of price units (ConfigError).
    A message is a tuple in ``LobsterMessage`` field order, read by position.
    Messages are pulled one at a time, so a generator that reads ``ob`` sees
    the book after its previous message was applied. A fault in a message
    (unknown order id, over-reduce, an invalid submission) is raised
    positioned at its line: the file line when ``msgs`` is ``parse_messages``,
    else the message's ordinal.
    """
    if not whole_price_units(tick_size):
        raise ConfigError(f"tick_size must be {TICK_SIZE_RULE}")
    if ob is None:
        ob = bk.OrderBook(tick_size=tick_size)
    tick_i4 = round(tick_size * 10000)
    res = ReplayResult()
    timeline = res.timeline
    kept: list[tuple[int, Optional[tuple]]] = []
    l1 = kept.append if record_l1 is True else record_l1 or None
    emit = res.events.append if keep_events is True else keep_events or None
    open_ns, close_ns = (window.open_ns, window.close_ns) if window is not None else (-inf, inf)
    no_window = window is None  # every message is in session, with no float comparison
    orders, best, rest, reduce, delete = ob._orders, ob._best, ob._rest, ob.reduce, ob.delete
    Quote, BUY, SELL = bk.BestQuoteState, bk.BUY, bk.SELL
    bid_totals, ask_totals = ob._totals[BUY], ob._totals[SELL]
    rt, rb, ra, rnb, rna = _NO_RECORD  # the last record, unpacked
    first_session_ns = pmin = pmax = None
    n = seq = silent = volume = limit_volume = hidden = ignored = crossing = 0
    try:
        for n, (t, code, order_id, size, price_i4, direction) in enumerate(msgs, start=1):
            in_session = no_window or open_ns <= t < close_ns
            if first_session_ns is None and in_session:
                first_session_ns = t
            if code == SUBMISSION:
                price = price_i4 // tick_i4
                if size < 1 or price < 1 or price * tick_i4 != price_i4 or order_id in orders:
                    raise _submission_fault(ob, order_id, size, price_i4, tick_i4)
                side = BUY if direction == 1 else SELL
                opp = best[-side]
                changed = False
                if opp is not None and (price >= opp if side == BUY else price <= opp):
                    crossing += 1
                    changed, size, trades = _cross(ob, t, seq, side, price, size, emit)
                    seq += len(trades) - (not size)  # the advance below: the residual's
                    for p, fill in trades if in_session else ():
                        p *= tick_i4
                        volume += fill * p
                        pmin = p if pmin is None or p < pmin else pmin
                        pmax = p if pmax is None or p > pmax else pmax
                if size:
                    if emit is not None:
                        emit((seq, t, bk.SUBMIT, order_id, price, size, side))
                    if rest(order_id, side, price, size):
                        changed = True
                        if in_session:
                            limit_volume += size * price_i4
            elif code == FULL_DELETE:
                changed = delete(order_id)
                if emit is not None:
                    emit((seq, t, bk.DELETE, order_id, None, 0, None))
            elif code == EXECUTION:
                if size < 1:
                    raise DataError("execution with size 0")
                entry = orders.get(order_id)  # None: reduce raises on an unknown id
                filled = entry is not None and size == entry[2][order_id]
                changed = delete(order_id) if filled else reduce(order_id, size)
                if emit is not None:
                    emit((seq, t, bk.EXECUTE, order_id, None, size, None))
                if in_session:
                    p = entry[1] * tick_i4
                    volume += size * p
                    pmin = p if pmin is None or p < pmin else pmin
                    pmax = p if pmax is None or p > pmax else pmax
            elif code == PARTIAL_CANCEL:
                if size < 1:
                    raise DataError("partial cancel with size 0")
                changed = reduce(order_id, size)
                if emit is not None:
                    emit((seq, t, bk.REDUCE, order_id, None, size, None))
            else:
                if code == HIDDEN_EXECUTION:
                    hidden += size
                elif code == AUCTION or code == HALT:
                    ignored += 1
                else:
                    raise DataError(f"unknown message type code {code}")
                silent += 1
                changed = False
            seq += 1
            if changed or not timeline:
                bid, ask = best[BUY], best[SELL]
                nb = 0 if bid is None else bid_totals[bid]
                na = 0 if ask is None else ask_totals[ask]
                # a changed message may net out to the last record (intra-message flicker)
                if nb != rnb or na != rna or bid != rb or ask != ra:
                    # only the last quote of a nanosecond is observable: it replaces the
                    # record made earlier in that nanosecond, or nets out to the one before
                    if rt == t:
                        timeline.pop()
                        rt, rb, ra, rnb, rna = timeline[-1] if timeline else _NO_RECORD
                    if nb != rnb or na != rna or bid != rb or ask != ra:
                        timeline.append(tuple.__new__(Quote, (t, bid, ask, nb, na)))
                        rt, rb, ra, rnb, rna = t, bid, ask, nb, na
                    if l1 is not None:
                        l1((n - 1, (EMPTY_ASK_PRICE if ask is None else ask * tick_i4, na,
                                    EMPTY_BID_PRICE if bid is None else bid * tick_i4, nb)))
    except DataError as exc:
        if exc.line_no is None:  # a fault in message n
            n -= 1
            exc = _at_message(msgs, exc, n + 1)
        if l1 is not None:  # the rows before the fault are checked first
            l1((n, None))
        raise exc from None
    if l1 is not None:
        l1((n, None))
    runs = zip(kept, kept[1:])
    res.l1_rows = list(chain.from_iterable(repeat(row, j - i) for (i, row), (j, _) in runs))
    res.counters = ReplayCounters(n, seq - silent, hidden, ignored, crossing)
    res.stats = stats = DayStats(volume, limit_volume, pmin, pmax)
    res.first_session_event_ns = first_session_ns
    if n:  # t is the last message's stamp
        (stats.nb_time_integral, stats.na_time_integral, stats.spread_time_integral,
         stats.two_sided_ns) = integrate_timeline(timeline, open_ns, min(close_ns, t))
    return res


def _cross(
    ob: bk.OrderBook, t_ns: int, seq: int, side: int, price: int, size: int,
    emit: Optional[Callable[[tuple], None]],
) -> tuple[bool, int, list[tuple[int, int]]]:
    """Execute a submission of ``size`` at ``price`` against the opposite
    queue in priority order while it crosses, numbering the execution
    events from ``seq``. Returns whether the quote changed, the size left to
    rest, and the executed ``(price_ticks, size)`` pairs."""
    best = ob._best
    changed, trades = False, []
    opp = best[-side]
    while opp is not None and (price >= opp if side == bk.BUY else price <= opp):
        head = ob.first_at_best(-side)
        fill = min(size, head.size)
        trades.append((head.price, fill))
        changed |= ob.reduce(head.id, fill)
        if emit is not None:
            emit((seq + len(trades) - 1, t_ns, bk.EXECUTE, head.id, None, fill, None))
        size -= fill
        if size == 0:
            break
        opp = best[-side]
    return changed, size, trades


def _submission_fault(
    ob: bk.OrderBook, order_id: int, size: int, price_i4: int, tick_i4: int
) -> DataError:
    """The error of a submission that failed replay's check."""
    if size < 1:
        reason = "submission with size 0"
    elif ob.has_order(order_id):
        reason = f"submission reuses live order id {order_id}"
    elif price_i4 % tick_i4:
        reason = f"price {price_i4} not on the {tick_i4} tick lattice"
    else:
        reason = f"price {price_i4} below one tick"
    return DataError(reason)


def _at_message(msgs: Iterable, exc: DataError, ordinal: int) -> DataError:
    """Position a fault found in message ``ordinal`` of ``msgs``.

    The fault is thrown back into a generator source: ``parse_messages``
    positions it at the message's file line, which differs from the ordinal
    after a blank line. Any other source leaves it to the ordinal.
    """
    throw = getattr(msgs, "throw", None)
    if throw is not None:
        try:
            throw(exc)
        except DataError:
            pass
    return exc if exc.line_no is not None else exc.at_line(ordinal)


def integrate_timeline(
    timeline: Sequence[bk.BestQuoteState], open_ns: int, close_ns: int
) -> tuple[int, int, int, int]:
    """Time integrals of (nb, na, spread) over two-sided instants in [open, close).

    The timeline is piecewise constant between change records; the last
    record extends to the window close. Returns integer (nb, na, spread)
    integrals in value x ns plus the covered two-sided duration in ns, so
    the result is exact.
    """
    nb_int = na_int = sp_int = covered = 0
    ends = chain(map(_ORDINAL, islice(timeline, 1, None)), (close_ns,))
    for (t0, bid, ask, nb, na), t_end in zip(timeline, ends):
        if t0 < open_ns:
            t0 = open_ns
        dt = (t_end if t_end < close_ns else close_ns) - t0
        if dt <= 0 or bid is None or ask is None:
            continue
        nb_int += nb * dt
        na_int += na * dt
        sp_int += (ask - bid) * dt
        covered += dt
    return nb_int, na_int, sp_int, covered


# --- verification and summaries ------------------------------------------------

@dataclass
class Mismatch:
    index: int
    reconstructed: tuple[int, int, int, int]
    reference: tuple[int, int, int, int]


@dataclass
class VerificationReport:
    checked: int
    mismatches: list[Mismatch]

    @property
    def ok(self) -> bool:
        return not self.mismatches


class L1Verifier:
    """Append target for replay's level-1 records that checks the rows they
    stand for against a LOBSTER orderbook file (a path, bytes or a seekable
    text file read with LF line ends), keeping only the mismatches.

    Each ``BLOCK_LINES`` rows that the records cover are checked with one
    comparison: the file's next characters against those rows as canonical
    lines (``_l1_text``). A block that differs is read again from its start
    and parsed and compared row by row, so every mismatch and fault is the one
    that reading the file row by row finds, at its line; no line after its
    last row is read. A file that cannot seek (a FIFO) raises the OSError of
    ``tell``. A DataError from reading the file names ``source``.
    """

    def __init__(self, reference, source=None):
        self._file = _opened(reference)
        self._source = source
        self._line_no = 0  # lines read
        self._rows = 0  # reference rows checked
        self._records: list[tuple[int, tuple]] = []  # from the one that holds row _rows on
        self.mismatches: list[Mismatch] = []

    def check(self, record: tuple[int, Optional[tuple]]) -> None:
        i, row = record
        if row is not None:
            self._records.append(record)
            if i - self._rows < BLOCK_LINES:
                return
            i -= (i - self._rows) % BLOCK_LINES  # whole blocks until the end
        try:
            self._check_rows(i)
        except DataError as exc:
            self._rows = inf  # a failed check checks no more rows
            self._file.close()
            raise self._named(exc) from None

    def _check_rows(self, end: int) -> None:
        """Check the reference rows before ``end``."""
        while (lo := self._rows) < end:
            fh = next(self._file)
            n = min(end - lo, BLOCK_LINES)
            runs = self._runs(lo, lo + n)
            expected = "".join([_l1_text(row) * count for row, count in runs])
            at = fh.tell()
            if fh.read(len(expected)) == expected:
                self._rows += n
                self._line_no += n
                continue
            fh.seek(at)
            rows = chain.from_iterable(repeat(row, count) for row, count in runs)
            line_no = self._line_no
            # rows first: no line after the block's last row is read
            for row, (line_no, ref) in zip(rows, _l1_rows(iter(fh.readline, ""), line_no)):
                if ref != row:
                    self.mismatches.append(Mismatch(self._rows, row, ref))
                self._rows += 1
            self._line_no = line_no
            if self._rows < lo + n:
                return  # the reference ran out

    def _runs(self, lo: int, hi: int) -> list[tuple[tuple, int]]:
        """Rows ``lo`` to ``hi`` as runs ``(row, count)``; drops the records
        of rows before ``lo``."""
        records = self._records
        del records[:bisect_right(records, lo, key=_ORDINAL) - 1]
        runs = records[:bisect_left(records, hi, key=_ORDINAL)]
        bounds = [lo, *[i for i, _ in runs[1:]], hi]
        return [(row, end - start) for (_, row), start, end in zip(runs, bounds, bounds[1:])]

    def report(self, checked: int) -> VerificationReport:
        """End the check after ``checked`` rows (replay's message count):
        a DataError if the reference has another number of rows."""
        left_over = 0
        try:
            fh = next(self._file)
            if line := fh.readline():  # rows may be left over; at the end none are parsed
                left_over = sum(1 for _ in _l1_rows(chain([line], fh), self._line_no))
        except DataError as exc:
            raise self._named(exc) from None
        finally:
            self._file.close()
        if self._rows + left_over != checked:
            raise self._named(DataError(f"row count mismatch: {checked} reconstructed vs "
                                        f"{self._rows + left_over} reference"))
        return VerificationReport(checked, self.mismatches)

    def _named(self, exc: DataError) -> DataError:
        return exc if self._source is None else exc.in_file(self._source)


def _opened(source) -> Iterator[TextIO]:
    """The text file of ``source``, opened at the first ``next`` and returned
    by every one after it; ``close`` closes a file it opened."""
    with _open_lines(source) as fh:
        while True:
            yield fh


def verify_against_l1(
    reconstructed: Sequence[tuple[int, int, int, int]],
    reference: Sequence[tuple[int, int, int, int]],
) -> VerificationReport:
    """Compare per-message level-1 rows against a reference orderbook file's rows."""
    verifier = L1Verifier(io.StringIO("".join(map(_l1_text, reference))))
    rows = list(map(tuple, reconstructed))
    for i, row in enumerate(rows):
        if not i or row != rows[i - 1]:
            verifier.check((i, row))
    verifier.check((len(rows), None))
    return verifier.report(len(rows))


@dataclass
class SummaryRecord:
    """Aggregate trading-activity statistics across instrument-days."""

    days: int
    executed_volume: float  # currency
    best_quote_limit_volume: float  # currency
    trade_price_min: Optional[float]
    trade_price_max: Optional[float]
    # time-weighted over two-sided session time; None if the book never had both sides
    mean_nb: Optional[float]  # shares
    mean_na: Optional[float]
    mean_spread: Optional[float]  # currency


def summary_stats(day_stats: Sequence[DayStats], tick_size: float = 0.01) -> SummaryRecord:
    if not day_stats:
        raise DataError("no instrument-days to summarize")
    total_ns = sum(d.two_sided_ns for d in day_stats)
    pmins = [d.trade_price_min_i4 for d in day_stats if d.trade_price_min_i4 is not None]
    pmaxs = [d.trade_price_max_i4 for d in day_stats if d.trade_price_max_i4 is not None]
    return SummaryRecord(
        days=len(day_stats),
        executed_volume=sum(d.executed_volume_i4 for d in day_stats) / 10000.0,
        best_quote_limit_volume=sum(d.best_quote_limit_volume_i4 for d in day_stats) / 10000.0,
        trade_price_min=min(pmins) / 10000.0 if pmins else None,
        trade_price_max=max(pmaxs) / 10000.0 if pmaxs else None,
        mean_nb=sum(d.nb_time_integral for d in day_stats) / total_ns if total_ns else None,
        mean_na=sum(d.na_time_integral for d in day_stats) / total_ns if total_ns else None,
        mean_spread=(sum(d.spread_time_integral for d in day_stats) / total_ns * tick_size
                     if total_ns else None),
    )
