"""Limit order book state with price-time priority.

Prices live on an integer tick lattice (1 unit = one tick) and sizes are
integer share counts. The mid price is therefore a half-tick quantity; we
carry it as the integer ``bid + ask`` (twice the mid, in ticks) so that
mid-change detection is an exact integer comparison, never a float one.

The book is a pure resting-order automaton: submissions must not cross the
opposite best. Crossing order flow has to be decomposed upstream (ingest or
simulator) into explicit executions plus a residual submission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (
    BothQueuesEmpty,
    CrossedSubmit,
    EmptySide,
    OverReduce,
    UnknownOrderId,
)

BUY = 1
SELL = -1

SUBMIT = "submit"
REDUCE = "reduce"
DELETE = "delete"
EXECUTE = "execute"


@dataclass(slots=True)
class Order:
    """A resting limit order; ``size`` is the current remaining quantity."""

    id: int
    side: int  # BUY or SELL
    price: int  # integer tick count, >= 1
    size: int  # integer shares, >= 1
    entry_seq: int = 0


class BookEvent(NamedTuple):
    """A normalized book mutation.

    ``order`` is set for SUBMIT events; ``order_id``/``delta`` for the rest.
    ``seq`` must be strictly increasing within a stream and breaks time ties
    for price-time priority.
    """

    t_ns: int
    seq: int
    kind: str
    order: Optional[Order]
    order_id: int
    delta: int

    @classmethod
    def submit(cls, t_ns: int, seq: int, order: Order) -> "BookEvent":
        return cls(t_ns, seq, SUBMIT, order, order.id, 0)

    @classmethod
    def reduce(cls, t_ns: int, seq: int, order_id: int, delta: int) -> "BookEvent":
        return cls(t_ns, seq, REDUCE, None, order_id, delta)

    @classmethod
    def delete(cls, t_ns: int, seq: int, order_id: int) -> "BookEvent":
        return cls(t_ns, seq, DELETE, None, order_id, 0)

    @classmethod
    def execute(cls, t_ns: int, seq: int, order_id: int, delta: int) -> "BookEvent":
        return cls(t_ns, seq, EXECUTE, None, order_id, delta)


class BestQuoteState(NamedTuple):
    """Best-quote tuple allowing empty sides (bid/ask None, size 0)."""

    t_ns: int
    bid: Optional[int]
    ask: Optional[int]
    nb: int
    na: int

    @property
    def two_sided(self) -> bool:
        return self.bid is not None and self.ask is not None

    @property
    def mid2(self) -> Optional[int]:
        if self.bid is None or self.ask is None:
            return None
        return self.bid + self.ask


def queue_imbalance(nb: int, na: int) -> float:
    """Normalized best-queue imbalance (nb - na) / (nb + na) in [-1, 1]."""
    if nb < 0 or na < 0:
        raise ValueError("queue lengths must be nonnegative")
    total = nb + na
    if total == 0:
        raise BothQueuesEmpty("imbalance undefined: both best queues empty")
    return (nb - na) / total


class OrderBook:
    """Event-sourced two-sided book exposing best quotes and queue sizes.

    Single-writer per instrument-day; ``state()`` hands out immutable
    values. ``tick_size`` (currency per tick) is metadata used by ingest,
    not by the matching logic.
    """

    def __init__(self, tick_size: float = 0.01):
        self.tick_size = tick_size
        # side -> {price: {order_id: Order}}; dict preserves FIFO insertion
        # order within a level, which is exactly price-time priority after
        # entry_seq-ordered submission.
        self._levels: dict[int, dict[int, dict[int, Order]]] = {BUY: {}, SELL: {}}
        self._totals: dict[int, dict[int, int]] = {BUY: {}, SELL: {}}
        self._orders: dict[int, Order] = {}
        self._best: dict[int, Optional[int]] = {BUY: None, SELL: None}
        self.last_t_ns = 0

    # -- inspection ---------------------------------------------------------

    def best(self, side: int) -> Optional[int]:
        return self._best[side]

    def get_order(self, order_id: int) -> Order:
        try:
            return self._orders[order_id]
        except KeyError:
            raise UnknownOrderId(order_id) from None

    def has_order(self, order_id: int) -> bool:
        return order_id in self._orders

    def first_at_best(self, side: int) -> Order:
        """Highest-priority resting order on a side (FIFO head at the best)."""
        best = self._best[side]
        if best is None:
            raise EmptySide(f"no resting orders on side {side}")
        return next(iter(self._levels[side][best].values()))

    def state(self, t_ns: Optional[int] = None) -> BestQuoteState:
        bb, ba = self._best[BUY], self._best[SELL]
        nb = self._totals[BUY][bb] if bb is not None else 0
        na = self._totals[SELL][ba] if ba is not None else 0
        return BestQuoteState(self.last_t_ns if t_ns is None else t_ns, bb, ba, nb, na)

    # -- mutation -----------------------------------------------------------

    def apply(self, ev: BookEvent) -> bool:
        """Apply one event; returns whether the best quotes changed.

        True iff any of (bid, ask, nb, na) changed, including transitions
        into or out of a one-sided state. The quote is not read: the mutator
        decides from the touched side alone, since an event moves the quote
        iff it touches that side's best level.
        """
        kind = ev.kind
        if kind == SUBMIT:
            if ev.order is None:
                raise ValueError("submit event carries no order")
            o = ev.order  # the event keeps its order as submitted
            changed = self.submit(Order(o.id, o.side, o.price, o.size, o.entry_seq))
        elif kind == REDUCE or kind == EXECUTE:
            # the same book mutation; trade vs cancel matters only to callers
            changed = self.reduce(ev.order_id, ev.delta)
        elif kind == DELETE:
            changed = self.delete(ev.order_id)
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        self.last_t_ns = ev.t_ns
        return changed

    def submit(self, order: Order) -> bool:
        """Rest ``order``, which the book keeps and later shrinks in place.

        Returns whether the quote changed: iff the price is the side's best
        after the insert (a new best, or it joined the best level).
        """
        side, price, order_id = order.side, order.price, order.id
        if price < 1 or order.size < 1:
            raise ValueError(f"order {order_id}: price and size must be >= 1")
        if side != BUY and side != SELL:
            raise ValueError(f"order {order_id}: bad side {side}")
        if order_id in self._orders:
            raise ValueError(f"order id {order_id} already active")
        opposite = self._best[-side]
        if opposite is not None and (price >= opposite if side == BUY else price <= opposite):
            raise CrossedSubmit(order_id, price, opposite)
        return self._rest(order)

    def _rest(self, order: Order) -> bool:
        """``submit`` without its checks, for callers that made them: the
        order is valid, its id is not live and it does not cross."""
        side, price, order_id = order.side, order.price, order.id
        lvl = self._levels[side].get(price)
        if lvl is None:
            self._levels[side][price] = {order_id: order}
            self._totals[side][price] = order.size
        else:
            lvl[order_id] = order
            self._totals[side][price] += order.size
        self._orders[order_id] = order
        best = self._best
        own = best[side]
        if own is None or (price > own if side == BUY else price < own):
            best[side] = price
            return True
        return price == own

    def reduce(self, order_id: int, delta: int) -> bool:
        """Take ``delta`` shares off an order, removing it when none remain.

        Returns whether the quote changed: iff the order rested at the best.
        """
        if delta < 1:
            raise ValueError("reduce delta must be >= 1")
        order = self.get_order(order_id)
        if delta > order.size:
            raise OverReduce(order_id, delta, order.size)
        if delta == order.size:
            return self.delete(order_id)
        order.size -= delta
        self._totals[order.side][order.price] -= delta
        return order.price == self._best[order.side]

    def delete(self, order_id: int) -> bool:
        """Remove an order; returns whether the quote changed: iff it rested at the best."""
        order = self._orders.pop(order_id, None)
        if order is None:
            raise UnknownOrderId(order_id)
        side, price = order.side, order.price
        levels = self._levels[side]
        lvl = levels[price]
        del lvl[order_id]
        at_best = price == self._best[side]
        if lvl:
            self._totals[side][price] -= order.size
        else:
            del levels[price]
            del self._totals[side][price]
            if at_best and levels:
                self._best[side] = max(levels) if side == BUY else min(levels)
            elif at_best:
                self._best[side] = None
        return at_best
