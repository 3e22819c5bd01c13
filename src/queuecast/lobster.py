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
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

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


@dataclass(frozen=True, slots=True)
class LobsterMessage:
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


@dataclass
class MessageOutcome:
    """Events applied for one message, plus the side effects replay tracks."""

    events: list[bk.BookEvent]
    changed: bool
    trades: list[tuple[int, int, int]]  # (side, price_ticks, size) executed
    submit: Optional[tuple[int, int, int, bool]] = None  # side, price, size, at_best


def apply_message(
    ob: bk.OrderBook,
    msg: LobsterMessage,
    seq: int,
    tick_i4: int,
    counters: ReplayCounters,
    line_no: int = 0,
) -> MessageOutcome:
    """Translate one message into book events and apply them in order.

    Crossing submissions are decomposed into executions against the opposite
    queue in priority order plus a residual submission; LOBSTER streams
    report executions explicitly, so this path only fires on synthetic or
    foreign data.
    """
    code = msg.type_code
    if code in (HIDDEN_EXECUTION, AUCTION, HALT):
        if code == HIDDEN_EXECUTION:
            counters.hidden_volume += msg.size
        else:
            counters.ignored_messages += 1
        return MessageOutcome([], False, [])
    side = bk.BUY if msg.direction == 1 else bk.SELL
    events: list[bk.BookEvent] = []
    trades: list[tuple[int, int, int]] = []
    changed = False
    if msg.size < 1 and code != FULL_DELETE:
        raise MalformedRow(line_no, f"{_ZERO_SIZE_NAMES[code]} with size 0")
    if code == SUBMISSION:
        if ob.has_order(msg.order_id):
            raise MalformedRow(line_no, f"submission reuses live order id {msg.order_id}")
        price = _price_to_ticks(msg.price, tick_i4, line_no)
        remaining = msg.size
        opp = ob.best(-side)
        if opp is not None and (price >= opp if side == bk.BUY else price <= opp):
            counters.crossing_submits += 1
            while remaining > 0:
                opp = ob.best(-side)
                if opp is None or not (price >= opp if side == bk.BUY else price <= opp):
                    break
                head = ob.first_at_best(-side)
                fill = min(remaining, head.size)
                ev = bk.BookEvent.execute(msg.t_ns, seq + len(events), head.id, fill)
                trades.append((head.side, head.price, fill))
                changed |= ob.apply(ev)
                events.append(ev)
                remaining -= fill
        submit_info = None
        if remaining > 0:
            order = bk.Order(msg.order_id, side, price, remaining, seq + len(events))
            ev = bk.BookEvent.submit(msg.t_ns, seq + len(events), order)
            changed |= ob.apply(ev)
            events.append(ev)
            submit_info = (side, price, remaining, ob.best(side) == price)
        return MessageOutcome(events, changed, trades, submit_info)
    if code == PARTIAL_CANCEL:
        ev = bk.BookEvent.reduce(msg.t_ns, seq, msg.order_id, msg.size)
    elif code == FULL_DELETE:
        ev = bk.BookEvent.delete(msg.t_ns, seq, msg.order_id)
    elif code == EXECUTION:
        order = ob.get_order(msg.order_id)
        trades.append((order.side, order.price, msg.size))
        ev = bk.BookEvent.execute(msg.t_ns, seq, msg.order_id, msg.size)
    else:
        raise UnknownTypeCode(line_no, code)
    return MessageOutcome([ev], ob.apply(ev), trades)


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
    open_ns = window.open_ns if window is not None else None
    close_ns = window.close_ns if window is not None else None
    seq = 0
    for line_no, msg in enumerate(msgs, start=1):
        counters.messages += 1
        t = msg.t_ns
        in_session = window is None or (open_ns <= t < close_ns)
        if in_session and res.first_session_event_ns is None:
            res.first_session_event_ns = t
        outcome = apply_message(ob, msg, seq, tick_i4, counters, line_no)
        counters.events += len(outcome.events)
        if keep_events:
            res.events.extend(outcome.events)
        seq += max(1, len(outcome.events))
        if in_session:
            for _side, price_ticks, size in outcome.trades:
                price_i4 = price_ticks * tick_i4
                stats.executed_volume_i4 += size * price_i4
                if stats.trade_price_min_i4 is None or price_i4 < stats.trade_price_min_i4:
                    stats.trade_price_min_i4 = price_i4
                if stats.trade_price_max_i4 is None or price_i4 > stats.trade_price_max_i4:
                    stats.trade_price_max_i4 = price_i4
            if outcome.submit is not None and outcome.submit[3]:
                _side, price_ticks, size, _ = outcome.submit
                stats.best_quote_limit_volume_i4 += size * price_ticks * tick_i4
        st = ob.state(t)
        if outcome.changed:
            if timeline and timeline[-1][1:] == st[1:]:
                pass  # intra-message flicker netted out
            else:
                timeline.append(st)
        elif not timeline:
            timeline.append(st)
        if record_l1:
            ask_p = st.ask * tick_i4 if st.ask is not None else EMPTY_ASK_PRICE
            bid_p = st.bid * tick_i4 if st.bid is not None else EMPTY_BID_PRICE
            res.l1_rows.append((ask_p, st.na, bid_p, st.nb))
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
