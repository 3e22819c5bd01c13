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
``parse_messages`` one at a time, and sends each level-1 row and book event
to an append target as it makes them, a list, a file writer
(``l1_writer``) or an ``L1Verifier``, which compares the row with the next
row of a lazily parsed orderbook file and keeps only the mismatches. What
grows with the day is the quote timeline, one record per quote change.

Times are parsed to integer nanoseconds; no float time arithmetic anywhere.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field, replace
from typing import (
    Callable, ContextManager, Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO,
)

from . import book as bk
from .errors import (
    DataError,
    LengthMismatch,
    MalformedRow,
    NoData,
    NonMonotoneTime,
    UnknownTypeCode,
)

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


class LobsterMessage(NamedTuple):
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


def format_message(msg: LobsterMessage) -> str:
    return (
        f"{format_time_ns(msg.t_ns)},{msg.type_code},{msg.order_id},"
        f"{msg.size},{msg.price},{msg.direction}"
    )


def _open_lines(source) -> ContextManager[Iterable[str]]:
    """The lines of ``source``, as a context that closes a file it opened.

    A non-ASCII byte decodes to a lone surrogate, which no field parser
    accepts, so it is reported as a MalformedRow on its own line."""
    if isinstance(source, str):
        return open(source, "r", encoding="ascii", errors="surrogateescape")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("ascii", errors="surrogateescape"))
    return contextlib.nullcontext(source)


def parse_messages(source) -> Iterator[LobsterMessage]:
    """Parse a message file (path, text-file object, or line iterable).

    Yields messages in file order as they are pulled; raises a positioned
    error on the first malformed row, non-monotone timestamp, or unknown type
    code. A fault that the consumer finds in a message and throws back into
    this generator (``replay`` does) is positioned at the message's file line.
    """
    new, message = tuple.__new__, LobsterMessage  # the named tuple without its Python __new__
    prev_t = -1
    with _open_lines(source) as lines:
        for line_no, line in enumerate(lines, start=1):
            row = line.strip()
            if not row:
                continue
            parts = row.split(",")
            if len(parts) != 6:
                raise MalformedRow(line_no, f"expected 6 fields, got {len(parts)}")
            stamp, code, order_id, size, price, direction = parts
            whole, dot, frac = stamp.partition(".")
            try:
                if whole.isdecimal() and (not dot or frac.isdecimal() and len(frac) <= 9):
                    t_ns = int(whole + frac.ljust(9, "0"))
                else:  # spaces around the stamp, or a bad stamp
                    t_ns = parse_time_ns(stamp)
                code = int(code)
                order_id = int(order_id)
                size = int(size)
                price = int(price)
                direction = int(direction)
            except ValueError as exc:
                raise MalformedRow(line_no, str(exc)) from None
            if code not in _VALID_CODES:
                raise UnknownTypeCode(line_no, code)
            if direction not in (1, -1):
                raise MalformedRow(line_no, f"direction must be +1 or -1, got {direction}")
            if size < 0:
                raise MalformedRow(line_no, f"negative size {size}")
            if t_ns < prev_t:
                raise NonMonotoneTime(line_no)
            prev_t = t_ns
            try:
                yield new(message, (t_ns, code, order_id, size, price, direction))
            except DataError as exc:  # thrown back: the consumer's fault in this message
                raise exc.at_line(line_no) from None


def message_writer(fh: TextIO) -> Callable[[LobsterMessage], None]:
    """Append target that writes each message to ``fh`` as a message-file row."""
    write = fh.write

    def append(msg: LobsterMessage) -> None:
        write(format_message(msg) + "\n")

    return append


def write_messages(path, msgs: Iterable[LobsterMessage]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        append = message_writer(fh)
        for m in msgs:
            append(m)


def parse_l1_rows(source) -> Iterator[tuple[int, int, int, int]]:
    """Parse the first four columns of a LOBSTER orderbook file, row by row
    as they are pulled."""
    last_line = l1 = None
    with _open_lines(source) as lines:
        for line_no, line in enumerate(lines, start=1):
            if line != last_line:  # a row repeats while the quote is unchanged
                row = line.strip()
                if not row:
                    continue
                parts = row.split(",", 4)
                if len(parts) < 4:
                    raise MalformedRow(line_no, f"expected >= 4 fields, got {len(parts)}")
                try:
                    l1 = (int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]))
                except ValueError as exc:
                    raise MalformedRow(line_no, str(exc)) from None
                last_line = line
            yield l1


def parse_l1_file(source) -> list[tuple[int, int, int, int]]:
    """Every row of ``parse_l1_rows``, as a list."""
    return list(parse_l1_rows(source))


def l1_writer(fh: TextIO) -> Callable[[tuple[int, int, int, int]], None]:
    """Append target that writes each level-1 row to ``fh`` as an orderbook-file row."""
    write = fh.write
    last = text = None

    def append(row: tuple[int, int, int, int]) -> None:
        nonlocal last, text
        if row is not last:  # replay repeats the row object while the quote is unchanged
            last, text = row, f"{row[0]},{row[1]},{row[2]},{row[3]}\n"
        write(text)

    return append


def write_l1_file(path, rows: Iterable[tuple[int, int, int, int]]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        append = l1_writer(fh)
        for r in rows:
            append(r)


# --- message -> event translation ---------------------------------------------

@dataclass
class ReplayCounters:
    messages: int = 0
    events: int = 0
    hidden_volume: int = 0
    ignored_messages: int = 0  # auction / halt codes
    crossing_submits: int = 0


def apply_message(
    ob: bk.OrderBook,
    msg: LobsterMessage,
    seq: int,
    tick_i4: int,
    counters: ReplayCounters,
    emit: Optional[Callable[[bk.BookEvent], None]] = None,
) -> tuple[bool, int, Sequence[tuple[int, int]], Optional[tuple[int, int]]]:
    """Translate one message into book mutations and apply them in order.

    Returns ``(changed, n_events, trades, submit)``: whether the best quote
    changed, how many book events the message became (numbered from
    ``seq``), the executed ``(price_ticks, size)`` pairs, and the
    ``(price_ticks, size)`` of a submission that rests at its side's best,
    else None. The ``BookEvent``s are built only when an ``emit`` append
    target is given, and go to it in order. A fault in the message is raised
    without a line; ``replay`` positions it.

    Submissions, the commonest message, are checked here once (size, tick
    lattice, live id, crossing) and rested with the book's unchecked insert.
    Crossing submissions are decomposed into executions against the opposite
    queue in priority order plus a residual submission; LOBSTER streams
    report executions explicitly, so this path only fires on synthetic or
    foreign data.
    """
    t_ns, code, order_id, size, price_i4, direction = msg
    if code == SUBMISSION:
        price = price_i4 // tick_i4
        if size < 1 or price < 1 or price * tick_i4 != price_i4 or order_id in ob._orders:
            raise _submission_fault(ob, order_id, size, price_i4, tick_i4)
        side = bk.BUY if direction == 1 else bk.SELL
        best = ob._best
        opp = best[-side]
        changed, n, trades = False, 0, ()
        if opp is not None and (price >= opp if side == bk.BUY else price <= opp):
            counters.crossing_submits += 1
            trades = []
            while opp is not None and (price >= opp if side == bk.BUY else price <= opp):
                head = ob.first_at_best(-side)
                fill = min(size, head.size)
                trades.append((head.price, fill))
                changed |= ob.reduce(head.id, fill)
                if emit is not None:
                    emit(bk.BookEvent.execute(t_ns, seq + n, head.id, fill))
                n += 1
                size -= fill
                if size == 0:
                    return changed, n, trades, None
                opp = best[-side]
        order = bk.Order(order_id, side, price, size, seq + n)
        if emit is not None:  # the book shrinks its order in place; the event keeps a copy
            emit(bk.BookEvent.submit(t_ns, seq + n, replace(order)))
        at_best = ob._rest(order)
        return changed or at_best, n + 1, trades, (price, size) if at_best else None
    if code == FULL_DELETE:
        changed = ob.delete(order_id)
        if emit is not None:
            emit(bk.BookEvent.delete(t_ns, seq, order_id))
        return changed, 1, (), None
    if code == EXECUTION:
        if size < 1:
            raise MalformedRow(None, "execution with size 0")
        price = ob.get_order(order_id).price
        changed = ob.reduce(order_id, size)
        if emit is not None:
            emit(bk.BookEvent.execute(t_ns, seq, order_id, size))
        return changed, 1, ((price, size),), None
    if code == PARTIAL_CANCEL:
        if size < 1:
            raise MalformedRow(None, "partial cancel with size 0")
        changed = ob.reduce(order_id, size)
        if emit is not None:
            emit(bk.BookEvent.reduce(t_ns, seq, order_id, size))
        return changed, 1, (), None
    if code == HIDDEN_EXECUTION:
        counters.hidden_volume += size
    elif code == AUCTION or code == HALT:
        counters.ignored_messages += 1
    else:
        raise UnknownTypeCode(None, code)
    return False, 0, (), None


def _submission_fault(
    ob: bk.OrderBook, order_id: int, size: int, price_i4: int, tick_i4: int
) -> MalformedRow:
    """The error of a submission that failed apply_message's check."""
    if size < 1:
        reason = "submission with size 0"
    elif ob.has_order(order_id):
        reason = f"submission reuses live order id {order_id}"
    elif price_i4 % tick_i4:
        reason = f"price {price_i4} not on the {tick_i4} tick lattice"
    else:
        reason = f"price {price_i4} below one tick"
    return MalformedRow(None, reason)


def messages_to_events(msgs: Iterable[LobsterMessage], tick_size: float = 0.01) -> list[bk.BookEvent]:
    """Convert a message stream into the normalized book-event stream."""
    return replay(msgs, tick_size=tick_size, keep_events=True).events


# --- replay -------------------------------------------------------------------

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
    events: list[bk.BookEvent] = field(default_factory=list)
    counters: ReplayCounters = field(default_factory=ReplayCounters)
    stats: DayStats = field(default_factory=DayStats)
    first_session_event_ns: Optional[int] = None


def replay(
    msgs: Iterable[LobsterMessage],
    tick_size: float = 0.01,
    window: Optional[SessionWindow] = None,
    record_l1: bool | Optional[Callable[[tuple[int, int, int, int]], None]] = False,
    keep_events: bool | Optional[Callable[[bk.BookEvent], None]] = False,
    ob: Optional[bk.OrderBook] = None,
) -> ReplayResult:
    """Replay a message stream through a fresh book.

    Returns the change timeline (one BestQuoteState per best-quote change)
    and session-window accumulators for the summary-statistics table. Events
    outside the window still evolve the book (warm start); the window only
    scopes the stats and marks the first in-session event time for sampling.

    ``record_l1`` and ``keep_events`` say where the per-message level-1 rows
    and the book events go: nowhere (False or None), to the result's ``l1_rows`` or
    ``events`` list (True), or to an append target, a callable that takes
    each one as it is made (a file writer, an ``L1Verifier.check``). Neither
    is built when it goes nowhere.

    The quote is read (``ob.state``) only after a message that changed it,
    and after the first message; otherwise it equals the last timeline
    record, so a level-1 row repeats the previous row object.

    A message is a LobsterMessage or a plain tuple in its field order; both
    are read by position. Messages are pulled one at a time, so a generator
    that reads ``ob`` sees the book after its previous message was applied.
    A fault in a message (unknown order id, over-reduce, an invalid
    submission) is raised positioned at its line: the file line when ``msgs``
    is ``parse_messages``, else the message's ordinal.
    """
    if ob is None:
        ob = bk.OrderBook(tick_size=tick_size)
    tick_i4 = round(tick_size * 10000)
    res = ReplayResult()
    counters = res.counters
    stats = res.stats
    timeline = res.timeline
    l1 = _append_target(record_l1, res.l1_rows)
    emit = _append_target(keep_events, res.events)
    open_ns = window.open_ns if window is not None else None
    close_ns = window.close_ns if window is not None else None
    first_session_ns = None
    row = None
    seq = n_messages = n_events = 0
    try:
        for n_messages, msg in enumerate(msgs, start=1):
            t = msg[0]
            in_session = window is None or (open_ns <= t < close_ns)
            if in_session and first_session_ns is None:
                first_session_ns = t
            changed, n, trades, submit = apply_message(ob, msg, seq, tick_i4, counters, emit)
            n_events += n
            seq += n or 1
            if in_session:
                for price_ticks, size in trades:
                    price_i4 = price_ticks * tick_i4
                    stats.executed_volume_i4 += size * price_i4
                    if stats.trade_price_min_i4 is None or price_i4 < stats.trade_price_min_i4:
                        stats.trade_price_min_i4 = price_i4
                    if stats.trade_price_max_i4 is None or price_i4 > stats.trade_price_max_i4:
                        stats.trade_price_max_i4 = price_i4
                if submit is not None:
                    stats.best_quote_limit_volume_i4 += submit[1] * submit[0] * tick_i4
            if changed or not timeline:
                st = ob.state(t)
                # a changed message may net out to the last record (intra-message flicker)
                if not timeline or timeline[-1][1:] != st[1:]:
                    timeline.append(st)
                    if l1 is not None:
                        row = (st.ask * tick_i4 if st.ask is not None else EMPTY_ASK_PRICE, st.na,
                               st.bid * tick_i4 if st.bid is not None else EMPTY_BID_PRICE, st.nb)
            if l1 is not None:
                l1(row)
    except DataError as exc:
        if exc.line_no is not None:  # a fault in reading, positioned by its reader
            raise
        raise _at_message(msgs, exc, n_messages) from None
    counters.messages, counters.events = n_messages, n_events
    res.first_session_event_ns = first_session_ns
    if window is not None:
        (stats.nb_time_integral, stats.na_time_integral, stats.spread_time_integral,
         stats.two_sided_ns) = integrate_timeline(timeline, open_ns, close_ns)
    return res


def _append_target(spec, kept: list) -> Optional[Callable]:
    """Where a ``record_l1`` / ``keep_events`` argument sends its items."""
    if spec is True:
        return kept.append
    return spec or None


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
    ends = [st.t_ns for st in timeline[1:]]
    ends.append(close_ns)
    for st, t_end in zip(timeline, ends):
        t0 = max(st.t_ns, open_ns)
        dt = min(t_end, close_ns) - t0
        if dt <= 0 or st.bid is None or st.ask is None:
            continue
        nb_int += st.nb * dt
        na_int += st.na * dt
        sp_int += (st.ask - st.bid) * dt
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
    """Append target for replay's level-1 rows: ``check`` compares each row
    with the next reference row as it comes, keeping only the mismatches.

    The reference is pulled lazily, so a parsed orderbook file is read in
    step with the message file. A DataError from reading it names ``source``.
    """

    def __init__(self, reference: Iterable[tuple[int, int, int, int]], source=None):
        self._reference = enumerate(reference)
        self._source = source
        self._unmatched = 0  # rows checked after the reference ran out
        self.mismatches: list[Mismatch] = []

    def check(self, row: tuple[int, int, int, int]) -> None:
        try:
            for i, ref in self._reference:  # one step
                if ref != row:
                    self.mismatches.append(Mismatch(i, row, ref))
                return
        except DataError as exc:
            raise self._named(exc) from None
        self._unmatched += 1

    def report(self, checked: int) -> VerificationReport:
        """End the check after ``checked`` rows (replay's message count).

        Reads the reference rows left over; LengthMismatch if the reference
        does not have exactly ``checked`` rows, whichever is longer."""
        try:
            left_over = sum(1 for _ in self._reference)
        except DataError as exc:
            raise self._named(exc) from None
        n_reference = checked - self._unmatched + left_over
        if n_reference != checked:
            raise self._named(LengthMismatch(checked, n_reference))
        return VerificationReport(checked, self.mismatches)

    def _named(self, exc: DataError) -> DataError:
        return exc if self._source is None else exc.in_file(self._source)


def verify_against_l1(
    reconstructed: Sequence[tuple[int, int, int, int]],
    reference: Sequence[tuple[int, int, int, int]],
) -> VerificationReport:
    """Compare per-message level-1 rows against a reference orderbook file's rows."""
    verifier = L1Verifier(map(tuple, reference))
    for row in reconstructed:
        verifier.check(tuple(row))
    return verifier.report(len(reconstructed))


@dataclass
class SummaryRecord:
    """Aggregate trading-activity statistics across instrument-days."""

    days: int
    executed_volume: float  # currency
    best_quote_limit_volume: float  # currency
    trade_price_min: Optional[float]
    trade_price_max: Optional[float]
    mean_nb: float  # time-weighted shares
    mean_na: float
    mean_spread: float  # currency


def summary_stats(day_stats: Sequence[DayStats], tick_size: float = 0.01) -> SummaryRecord:
    if not day_stats:
        raise NoData("no instrument-days to summarize")
    total_ns = sum(d.two_sided_ns for d in day_stats)
    if total_ns == 0:
        raise NoData("no two-sided session time observed")
    pmins = [d.trade_price_min_i4 for d in day_stats if d.trade_price_min_i4 is not None]
    pmaxs = [d.trade_price_max_i4 for d in day_stats if d.trade_price_max_i4 is not None]
    return SummaryRecord(
        days=len(day_stats),
        executed_volume=sum(d.executed_volume_i4 for d in day_stats) / 10000.0,
        best_quote_limit_volume=sum(d.best_quote_limit_volume_i4 for d in day_stats) / 10000.0,
        trade_price_min=min(pmins) / 10000.0 if pmins else None,
        trade_price_max=max(pmaxs) / 10000.0 if pmaxs else None,
        mean_nb=sum(d.nb_time_integral for d in day_stats) / total_ns,
        mean_na=sum(d.na_time_integral for d in day_stats) / total_ns,
        mean_spread=sum(d.spread_time_integral for d in day_stats) / total_ns * tick_size,
    )
