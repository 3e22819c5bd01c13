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
is what ``verify_against_l1`` checks the reconstruction against.

Times are parsed to integer nanoseconds; no float time arithmetic anywhere.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import book as bk
from .errors import (
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
_ZERO_SIZE_NAMES = {SUBMISSION: "submission", PARTIAL_CANCEL: "partial cancel", EXECUTION: "execution"}


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


def _open_lines(source) -> Iterable[str]:
    # A non-ASCII byte decodes to a lone surrogate, which no field parser
    # accepts, so it is reported as a MalformedRow on its own line.
    if isinstance(source, str):
        return open(source, "r", encoding="ascii", errors="surrogateescape")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("ascii", errors="surrogateescape"))
    return source


def parse_messages(source) -> Iterator[LobsterMessage]:
    """Parse a message file (path, text-file object, or line iterable).

    Yields messages in file order; raises a positioned error on the first
    malformed row, non-monotone timestamp, or unknown type code.
    """
    prev_t = -1
    for line_no, line in enumerate(_open_lines(source), start=1):
        row = line.strip()
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != 6:
            raise MalformedRow(line_no, f"expected 6 fields, got {len(parts)}")
        try:
            t_ns = parse_time_ns(parts[0])
            code = int(parts[1])
            order_id = int(parts[2])
            size = int(parts[3])
            price = int(parts[4])
            direction = int(parts[5])
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
        yield LobsterMessage(t_ns, code, order_id, size, price, direction)


def write_messages(path, msgs: Iterable[LobsterMessage]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for m in msgs:
            fh.write(format_message(m))
            fh.write("\n")


def parse_l1_file(source) -> list[tuple[int, int, int, int]]:
    """Parse the first four columns of a LOBSTER orderbook file."""
    rows = []
    for line_no, line in enumerate(_open_lines(source), start=1):
        row = line.strip()
        if not row:
            continue
        parts = row.split(",")
        if len(parts) < 4:
            raise MalformedRow(line_no, f"expected >= 4 fields, got {len(parts)}")
        try:
            rows.append(tuple(int(p) for p in parts[:4]))
        except ValueError as exc:
            raise MalformedRow(line_no, str(exc)) from None
    return rows


def write_l1_file(path, rows: Iterable[tuple[int, int, int, int]]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for r in rows:
            fh.write(",".join(str(v) for v in r))
            fh.write("\n")


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
    line_no: int = 0,
    events: Optional[list[bk.BookEvent]] = None,
) -> tuple[bool, int, Sequence[tuple[int, int]], Optional[tuple[int, int]]]:
    """Translate one message into book mutations and apply them in order.

    Returns ``(changed, n_events, trades, submit)``: whether the best quote
    changed, how many book events the message became (numbered from
    ``seq``), the executed ``(price_ticks, size)`` pairs, and the
    ``(price_ticks, size)`` of a submission that rests at its side's best,
    else None. The ``BookEvent``s are built only when an ``events`` list is
    given, and are appended to it.

    Crossing submissions are decomposed into executions against the opposite
    queue in priority order plus a residual submission; LOBSTER streams
    report executions explicitly, so this path only fires on synthetic or
    foreign data.
    """
    t_ns, code, order_id, size, price_i4, direction = msg
    if code == FULL_DELETE:
        changed = ob.delete(order_id)
        if events is not None:
            events.append(bk.BookEvent.delete(t_ns, seq, order_id))
        return changed, 1, (), None
    if code == HIDDEN_EXECUTION or code == AUCTION or code == HALT:
        if code == HIDDEN_EXECUTION:
            counters.hidden_volume += size
        else:
            counters.ignored_messages += 1
        return False, 0, (), None
    name = _ZERO_SIZE_NAMES.get(code)  # the codes left: 1, 2 and 4
    if name is None:
        raise UnknownTypeCode(line_no, code)
    if size < 1:
        raise MalformedRow(line_no, f"{name} with size 0")
    if code == EXECUTION:
        price = ob.get_order(order_id).price
        changed = ob.reduce(order_id, size)
        if events is not None:
            events.append(bk.BookEvent.execute(t_ns, seq, order_id, size))
        return changed, 1, ((price, size),), None
    if code == PARTIAL_CANCEL:
        changed = ob.reduce(order_id, size)
        if events is not None:
            events.append(bk.BookEvent.reduce(t_ns, seq, order_id, size))
        return changed, 1, (), None
    if ob.has_order(order_id):
        raise MalformedRow(line_no, f"submission reuses live order id {order_id}")
    price = _price_to_ticks(price_i4, tick_i4, line_no)
    side = bk.BUY if direction == 1 else bk.SELL
    changed, n, trades = False, 0, ()
    opp = ob.best(-side)
    if opp is not None and (price >= opp if side == bk.BUY else price <= opp):
        counters.crossing_submits += 1
        trades = []
        while size > 0:
            opp = ob.best(-side)
            if opp is None or not (price >= opp if side == bk.BUY else price <= opp):
                break
            head = ob.first_at_best(-side)
            fill = min(size, head.size)
            trades.append((head.price, fill))
            changed |= ob.reduce(head.id, fill)
            if events is not None:
                events.append(bk.BookEvent.execute(t_ns, seq + n, head.id, fill))
            n += 1
            size -= fill
    if size == 0:
        return changed, n, trades, None
    order = bk.Order(order_id, side, price, size, seq + n)
    if events is not None:  # the book shrinks its order in place; the event keeps a copy
        events.append(bk.BookEvent.submit(t_ns, seq + n, replace(order)))
    at_best = ob.submit(order)
    return changed or at_best, n + 1, trades, (price, size) if at_best else None


def _price_to_ticks(price_i4: int, tick_i4: int, line_no: int) -> int:
    ticks, rem = divmod(price_i4, tick_i4)
    if rem:
        raise MalformedRow(line_no, f"price {price_i4} not on the {tick_i4} tick lattice")
    if ticks < 1:
        raise MalformedRow(line_no, f"price {price_i4} below one tick")
    return ticks


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
    record_l1: bool = False,
    keep_events: bool = False,
    ob: Optional[bk.OrderBook] = None,
) -> ReplayResult:
    """Replay a message stream through a fresh book.

    Returns the change timeline (one BestQuoteState per best-quote change),
    optional per-message level-1 rows for verification, and session-window
    accumulators for the summary-statistics table. Events outside the window
    still evolve the book (warm start); the window only scopes the stats and
    marks the first in-session event time for sampling.

    The quote is read (``ob.state``) only after a message that changed it,
    and after the first message; otherwise it equals the last timeline
    record, so a level-1 row repeats the previous row object. Book events
    are built only with ``keep_events``.

    Messages are pulled one at a time, so a generator that reads ``ob`` sees
    the book after its previous message was applied.
    """
    if ob is None:
        ob = bk.OrderBook(tick_size=tick_size)
    tick_i4 = round(tick_size * 10000)
    res = ReplayResult()
    counters = res.counters
    stats = res.stats
    timeline = res.timeline
    l1_rows = res.l1_rows
    events = res.events if keep_events else None
    open_ns = window.open_ns if window is not None else None
    close_ns = window.close_ns if window is not None else None
    first_session_ns = None
    row = None
    seq = n_messages = n_events = 0
    for n_messages, msg in enumerate(msgs, start=1):
        t = msg.t_ns
        in_session = window is None or (open_ns <= t < close_ns)
        if in_session and first_session_ns is None:
            first_session_ns = t
        changed, n, trades, submit = apply_message(ob, msg, seq, tick_i4, counters, n_messages, events)
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
                if record_l1:
                    row = (st.ask * tick_i4 if st.ask is not None else EMPTY_ASK_PRICE, st.na,
                           st.bid * tick_i4 if st.bid is not None else EMPTY_BID_PRICE, st.nb)
        if record_l1:
            l1_rows.append(row)
    counters.messages, counters.events = n_messages, n_events
    res.first_session_event_ns = first_session_ns
    if window is not None:
        (stats.nb_time_integral, stats.na_time_integral, stats.spread_time_integral,
         stats.two_sided_ns) = integrate_timeline(timeline, open_ns, close_ns)
    return res


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


def verify_against_l1(
    reconstructed: Sequence[tuple[int, int, int, int]],
    reference: Sequence[tuple[int, int, int, int]],
) -> VerificationReport:
    """Compare per-message level-1 rows against a reference orderbook file."""
    if len(reconstructed) != len(reference):
        raise LengthMismatch(len(reconstructed), len(reference))
    mismatches = [
        Mismatch(i, tuple(a), tuple(b))
        for i, (a, b) in enumerate(zip(reconstructed, reference))
        if tuple(a) != tuple(b)
    ]
    return VerificationReport(len(reconstructed), mismatches)


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
