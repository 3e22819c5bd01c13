"""Zero-intelligence order-flow simulator.

Limit orders, market orders, and cancellations arrive as mutually
independent Poisson processes (Gillespie competition over exponential
waiting times): limit orders at rate ``limit_rate`` per price level per
side, uniformly over the ``levels`` lattice points at or inside the
opposite best minus one tick; market orders at rate ``market_rate`` per
side, executing against the opposite best in priority order; each resting
order cancels at rate ``cancel_rate``.

The stream is generated lazily in LOBSTER message form (the initial book is
a preamble of submissions) and fed to ``lobster.replay``, the loop ingest
uses, so the ground-truth quote records and trade statistics are replay's
own. The generator reads the book replay mutates, so each draw sees the
book after the previous message. Feeding the serialized stream back through
parse + replay must reproduce those records bit for bit.

Randomness comes from a single PCG64 generator consumed as a sequential
uniform stream, so identical seeds give byte-identical output on any
platform.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

import numpy as np

from . import book as bk
from . import lobster as lb
from .errors import DegenerateConfig, UnknownPreset

NS = lb.NS


@dataclass(frozen=True)
class ZiConfig:
    limit_rate: float  # per price level per side, events/sec
    levels: int  # lattice points available to limit orders
    market_rate: float  # per side, events/sec
    cancel_rate: float  # per resting order, events/sec
    order_size: int = 1  # shares per order
    tick_size: float = 0.01
    horizon: float = 1800.0  # seconds of simulated flow
    seed: int = 0
    start_time_s: int = 36000  # emitted timestamps begin here
    initial_price: int = 2000  # initial best bid, in ticks
    initial_spread: int = 1  # initial ask = bid + this many ticks
    initial_levels: int = 5  # prefilled levels per side
    initial_depth: int = 5  # orders per prefilled level

    def validate(self) -> None:
        if self.levels < 1:
            raise DegenerateConfig("levels must be >= 1")
        if min(self.limit_rate, self.market_rate, self.cancel_rate) < 0:
            raise DegenerateConfig("rates must be nonnegative")
        if self.horizon <= 0:
            raise DegenerateConfig("horizon must be positive")
        if self.order_size < 1:
            raise DegenerateConfig("order_size must be >= 1")
        if self.initial_levels < 1 or self.initial_depth < 1:
            raise DegenerateConfig("initial book must occupy both sides")
        if self.initial_price <= self.initial_levels:
            raise DegenerateConfig("initial price too low for the prefilled levels")
        if self.initial_spread < 1:
            raise DegenerateConfig("initial spread must be >= 1 tick")


@dataclass
class SimResult:
    config: ZiConfig
    messages: list[lb.LobsterMessage] = field(default_factory=list)
    l1_rows: list[tuple[int, int, int, int]] = field(default_factory=list)
    timeline: list[bk.BestQuoteState] = field(default_factory=list)
    stats: lb.DayStats = field(default_factory=lb.DayStats)
    counters: lb.ReplayCounters = field(default_factory=lb.ReplayCounters)
    process_counts: dict = field(default_factory=dict)
    order_ns: int = 0  # integral of resting-order count over time, order x ns
    side_depleted: bool = False
    first_event_ns: int = 0
    end_ns: int = 0


def _uniforms(rng: np.random.Generator, block: int = 8192) -> Iterator[float]:
    """Sequential uniform [0,1) draws, block-buffered for speed."""
    return itertools.chain.from_iterable(iter(lambda: rng.random(block).tolist(), None))


def simulate(
    cfg: ZiConfig,
    messages: Optional[Callable[[lb.LobsterMessage], None]] = None,
    l1_rows: Optional[Callable[[tuple[int, int, int, int]], None]] = None,
) -> SimResult:
    """Run the zero-intelligence flow for one simulated session.

    Each message and each level-1 row goes to its append target as it is
    generated (``lobster.message_writer`` and ``l1_writer`` write them to
    files); without a target they are kept in ``messages`` and ``l1_rows``
    of the result."""
    kept_messages, kept_rows = [], []
    res = _session(cfg, messages or kept_messages.append, l1_rows or kept_rows.append)
    res.messages, res.l1_rows = kept_messages, kept_rows
    return res


def _session(
    cfg: ZiConfig,
    messages: Optional[Callable[[lb.LobsterMessage], None]] = None,
    l1_rows: Optional[Callable[[tuple[int, int, int, int]], None]] = None,
) -> SimResult:
    """One simulated session, its messages and level-1 rows sent to the
    append targets given. A pipeline day reads neither, so it runs without
    them and gets the same timeline, stats and counts."""
    cfg.validate()
    ob = bk.OrderBook(tick_size=cfg.tick_size)
    start_ns = cfg.start_time_s * NS
    res = SimResult(config=cfg, first_event_ns=start_ns, end_ns=start_ns + round(cfg.horizon * NS))
    flow = _order_flow(cfg, ob, res)
    if messages is not None:
        flow = _kept(flow, messages)
    rep = lb.replay(flow, tick_size=cfg.tick_size, record_l1=l1_rows, ob=ob)
    res.timeline, res.stats, res.counters = rep.timeline, rep.stats, rep.counters
    # after a side depletion the last state is one-sided, so integrating
    # to the horizon adds nothing past the final message
    (res.stats.nb_time_integral, res.stats.na_time_integral, res.stats.spread_time_integral,
     res.stats.two_sided_ns) = lb.integrate_timeline(res.timeline, start_ns, res.end_ns)
    return res


def _kept(flow: Iterator[tuple], append: Callable[[lb.LobsterMessage], None]) -> Iterator[tuple]:
    """Pass ``flow`` through, giving each message to ``append`` as a LobsterMessage."""
    new, message = tuple.__new__, lb.LobsterMessage
    for msg in flow:
        append(new(message, msg))
        yield msg


def _order_flow(cfg: ZiConfig, ob: bk.OrderBook, res: SimResult) -> Iterator[tuple]:
    """Yield the session's messages, recording the process counts, the
    side depletion and the order-time integral in ``res``; ``ob`` is the
    book replay applies each message to. A message is a plain tuple in
    ``LobsterMessage`` field order, which replay reads by position; building
    the named tuple would add about 200 ns to each message."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    draw = _uniforms(rng).__next__
    tick_i4 = round(cfg.tick_size * 10000)
    counts = {"buy_limit": 0, "sell_limit": 0, "buy_market": 0, "sell_market": 0, "cancel": 0}
    res.process_counts = counts
    SUBMISSION, EXECUTION, FULL_DELETE = lb.SUBMISSION, lb.EXECUTION, lb.FULL_DELETE
    BUY, SELL = bk.BUY, bk.SELL
    # the book's own tables, read-only here: replay is the one writer
    best, orders, book_levels = ob._best, ob._orders, ob._levels
    size, levels, market_rate, cancel_rate = cfg.order_size, cfg.levels, cfg.market_rate, cfg.cancel_rate
    registry: list[int] = []  # resting order ids, swap-removed on exit
    pos: dict[int, int] = {}
    next_id = 1
    start_ns, end_ns = res.first_event_ns, res.end_ns

    def drop_resting(order_id: int) -> None:
        i = pos.pop(order_id)
        last = registry.pop()
        if last != order_id:
            registry[i] = last
            pos[last] = i

    # initial book preamble: plain submissions at the start timestamp
    for lvl in range(cfg.initial_levels):
        for price in (cfg.initial_price - lvl, cfg.initial_price + cfg.initial_spread + lvl):
            side = BUY if price <= cfg.initial_price else SELL
            for _ in range(cfg.initial_depth):
                yield (start_ns, SUBMISSION, next_id, size, price * tick_i4, side)
                pos[next_id] = len(registry)
                registry.append(next_id)
                next_id += 1

    rate_limit_side = cfg.limit_rate * levels
    rate_limit = 2.0 * rate_limit_side
    rate_buy_market = rate_limit + market_rate
    base_rate = rate_limit + 2.0 * market_rate
    t_ns = start_ns
    order_ns = 0
    while True:
        n_resting = len(registry)
        total_rate = base_rate + cancel_rate * n_resting
        if total_rate <= 0.0:
            break
        dt_ns = int(-math.log(1.0 - draw()) / total_rate * 1e9) + 1
        if t_ns + dt_ns >= end_ns:
            order_ns += n_resting * (end_ns - t_ns)
            break
        order_ns += n_resting * dt_ns
        t_ns += dt_ns
        v = draw() * total_rate
        if v < rate_limit:
            side = BUY if v < rate_limit_side else SELL
            anchor = best[-side]
            if anchor is None:
                res.side_depleted = True
                break
            offset = int(draw() * levels)
            if offset >= levels:  # guard against a draw of exactly 1.0
                offset = levels - 1
            price = anchor - 1 - offset if side == BUY else anchor + 1 + offset
            if price < 1:
                price = 1
            counts["buy_limit" if side == BUY else "sell_limit"] += 1
            yield (t_ns, SUBMISSION, next_id, size, price * tick_i4, side)
            pos[next_id] = len(registry)
            registry.append(next_id)
            next_id += 1
        elif v < base_rate:
            side = BUY if v < rate_buy_market else SELL
            counts["buy_market" if side == BUY else "sell_market"] += 1
            remaining = size
            while remaining > 0:
                top = best[-side]
                if top is None:
                    res.side_depleted = True
                    break
                head = next(iter(book_levels[-side][top].values()))  # FIFO head at the best
                fill = min(remaining, head.size)
                yield (t_ns, EXECUTION, head.id, fill, top * tick_i4, -side)
                if head.id not in orders:
                    drop_resting(head.id)
                remaining -= fill
            if res.side_depleted:
                break
        else:
            idx = int(draw() * n_resting)
            if idx >= n_resting:
                idx = n_resting - 1
            oid = registry[idx]
            order = orders[oid]
            counts["cancel"] += 1
            yield (t_ns, FULL_DELETE, oid, order.size, order.price * tick_i4, order.side)
            drop_resting(oid)
        if best[BUY] is None or best[SELL] is None:
            res.side_depleted = True
            break
    res.order_ns = order_ns


# --- regime presets -------------------------------------------------------------

# Rates tuned by measurement (see tests): the large-tick regime pins the
# spread near one tick with deep best queues (time-weighted spread/tick
# ~1.14, mean best queue ~74 over 252 seeded days), the small-tick regime
# keeps queues short and the spread wide (~7.8 ticks, best queue ~1.1).
_PRESETS = {
    "large-tick": ZiConfig(
        limit_rate=5.0,
        levels=5,
        market_rate=7.0,
        cancel_rate=0.01,
        order_size=1,
        horizon=300.0,
        initial_price=2000,
        initial_spread=1,
        initial_levels=5,
        initial_depth=75,
    ),
    "small-tick": ZiConfig(
        limit_rate=0.025,
        levels=180,
        market_rate=0.05,
        cancel_rate=0.15,
        order_size=1,
        horizon=600.0,
        initial_price=3000,
        initial_spread=15,
        initial_levels=30,
        initial_depth=1,
    ),
}


def regime_preset(name: str, seed: int = 0, horizon: Optional[float] = None) -> ZiConfig:
    """Named parameter sets contrasting large-tick and small-tick behaviour."""
    try:
        cfg = _PRESETS[name]
    except KeyError:
        raise UnknownPreset(name) from None
    kwargs = {"seed": seed}
    if horizon is not None:
        kwargs["horizon"] = horizon
    return replace(cfg, **kwargs)
