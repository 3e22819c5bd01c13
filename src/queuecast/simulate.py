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
from math import log
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

from numpy.random import PCG64, Generator, SeedSequence

from . import book as bk
from . import lobster as lb
from .errors import ConfigError, TICK_SIZE_RULE, whole_price_units

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
            raise ConfigError("levels must be >= 1")
        if min(self.limit_rate, self.market_rate, self.cancel_rate) < 0:
            raise ConfigError("rates must be nonnegative")
        if not 0 < self.horizon <= 86400:
            raise ConfigError("horizon must be positive and at most 86400 s")
        if self.order_size < 1:
            raise ConfigError("order_size must be >= 1")
        if not whole_price_units(self.tick_size):
            raise ConfigError(f"tick_size must be {TICK_SIZE_RULE}")
        if self.initial_levels < 1 or self.initial_depth < 1:
            raise ConfigError("initial book must occupy both sides")
        if self.initial_price <= self.initial_levels:
            raise ConfigError("initial price too low for the prefilled levels")
        if self.initial_spread < 1:
            raise ConfigError("initial spread must be >= 1 tick")


@dataclass
class SimResult(lb.ReplayResult):
    """``lobster.replay``'s result for the session, with its kept messages."""

    messages: list[tuple] = field(default_factory=list)  # in LobsterMessage field order
    side_depleted: bool = False


def _uniforms(rng: Generator) -> Iterator[float]:
    """Sequential uniform [0,1) draws, drawn 8192 at a time for speed."""
    return itertools.chain.from_iterable(iter(lambda: rng.random(8192).tolist(), None))


def simulate(
    cfg: ZiConfig,
    messages: bool | Optional[Callable[[tuple], None]] = True,
    l1_rows: bool | Optional[Callable[[tuple[int, Optional[tuple]]], None]] = True,
    window: Optional[lb.SessionWindow] = None,
) -> SimResult:
    """Run the zero-intelligence flow for one simulated session.

    ``messages`` and ``l1_rows`` say where the messages and the level-1 rows
    go, as ``lobster.replay``'s ``record_l1`` does: into the result's lists
    of those names, one level-1 row per message (True), nowhere (False or
    None), or to an append target that gets each as it is generated
    (``lobster.message_writer`` and ``l1_writer`` write them to files; the
    level-1 target gets replay's records, one per change of the row). A
    pipeline day reads neither, and gets the same timeline, stats and counts.

    The stats are replay's: the trades and the quote time of the flow up to
    its last message, or only those before the close of ``window``, a
    session that opens as the flow starts. ``side_depleted`` says that a
    side of the book ran out, which stops the flow; it ends one-sided in no
    other way."""
    cfg.validate()
    ob = bk.OrderBook(tick_size=cfg.tick_size)
    kept: list[tuple] = []
    append = kept.append if messages is True else messages or None
    flow = _order_flow(cfg, ob) if append is None else _kept(_order_flow(cfg, ob), append)
    if window is not None and cfg.start_time_s * NS + round(cfg.horizon * NS) <= window.close_ns:
        window = None  # the flow ends by the close: nothing to leave out
    rep = lb.replay(flow, tick_size=cfg.tick_size, window=window, record_l1=l1_rows, ob=ob)
    depleted = ob.best(bk.BUY) is None or ob.best(bk.SELL) is None
    return SimResult(**vars(rep), messages=kept, side_depleted=depleted)


def _kept(flow: Iterator[tuple], append: Callable[[tuple], None]) -> Iterator[tuple]:
    """Pass ``flow`` through, giving each message to ``append``."""
    for msg in flow:
        append(msg)
        yield msg


def _order_flow(cfg: ZiConfig, ob: bk.OrderBook) -> Iterator[tuple]:
    """Yield the session's messages, plain tuples in ``LobsterMessage`` field
    order, up to the horizon or until a side of the book runs out; ``ob`` is
    the book replay applies each message to."""
    rng = Generator(PCG64(SeedSequence(cfg.seed)))
    draw = _uniforms(rng).__next__
    tick_i4 = round(cfg.tick_size * 10000)
    SUBMISSION, EXECUTION, FULL_DELETE = lb.SUBMISSION, lb.EXECUTION, lb.FULL_DELETE
    BUY, SELL = bk.BUY, bk.SELL
    # the book's own tables, read-only here: replay is the one writer
    best, orders, book_levels = ob._best, ob._orders, ob._levels
    size, levels, market_rate, cancel_rate = cfg.order_size, cfg.levels, cfg.market_rate, cfg.cancel_rate
    registry: list[int] = []  # resting order ids, swap-removed on exit
    pos: dict[int, int] = {}
    next_id = 1
    start_ns = cfg.start_time_s * NS
    end_ns = start_ns + round(cfg.horizon * NS)

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
    # int(draw() * n) < n for every draw below 1.0 and every n < 2**53, so an
    # offset or a resting-order index drawn that way needs no clamp
    while True:
        n_resting = len(registry)
        total_rate = base_rate + cancel_rate * n_resting
        if total_rate <= 0.0:
            break
        t_ns += int(-log(1.0 - draw()) / total_rate * 1e9) + 1
        if t_ns >= end_ns:
            break
        v = draw() * total_rate
        if v < rate_limit:
            side = BUY if v < rate_limit_side else SELL
            anchor = best[-side]
            if anchor is None:
                return
            offset = int(draw() * levels)
            price = anchor - 1 - offset if side == BUY else anchor + 1 + offset
            if price < 1:
                price = 1
            yield (t_ns, SUBMISSION, next_id, size, price * tick_i4, side)
            pos[next_id] = n_resting
            registry.append(next_id)
            next_id += 1
        elif v < base_rate:
            side = BUY if v < rate_buy_market else SELL
            remaining = size
            while remaining > 0:
                top = best[-side]
                if top is None:
                    break
                for oid, head_size in book_levels[-side][top].items():  # the FIFO head
                    break
                fill = head_size if head_size < remaining else remaining
                yield (t_ns, EXECUTION, oid, fill, top * tick_i4, -side)
                if oid not in orders:  # filled: swap-remove it from the registry
                    i, last = pos.pop(oid), registry.pop()
                    if last != oid:
                        registry[i], pos[last] = last, i
                remaining -= fill
            if best[-side] is None:  # it took the last order on that side
                return
        else:
            i = int(draw() * n_resting)
            oid = registry[i]
            side, price, level = orders[oid]
            yield (t_ns, FULL_DELETE, oid, level[oid], price * tick_i4, side)
            del pos[oid]
            last = registry.pop()
            if last != oid:
                registry[i], pos[last] = last, i
            if best[side] is None:  # it was the last order on its side
                return


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
        raise ConfigError(f"unknown regime preset {name!r}") from None
    kwargs = {"seed": seed}
    if horizon is not None:
        kwargs["horizon"] = horizon
    return replace(cfg, **kwargs)
