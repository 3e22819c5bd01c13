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

from typing import NamedTuple, Optional

from .errors import DataError

BUY = 1
SELL = -1

SUBMIT = "submit"
REDUCE = "reduce"
DELETE = "delete"
EXECUTE = "execute"


class Order(NamedTuple):
    """A snapshot of a resting limit order; ``size`` is its remaining
    quantity when the snapshot was taken."""

    id: int
    side: int  # BUY or SELL
    price: int  # integer tick count, >= 1
    size: int  # integer shares, >= 1


class BookEvent(NamedTuple):
    """The fields of a book event, in order. Replay's events are plain tuples
    in this order; a BookEvent serves wherever one does.

    The first six are the events CSV's columns. ``price_ticks`` and ``side``
    are None except on a SUBMIT, whose ``size_delta`` is the size that rests
    (after a crossing, the residual). A DELETE's ``size_delta`` is 0. ``seq``
    rises strictly within a stream and breaks time ties for price-time
    priority.
    """

    seq: int
    t_ns: int
    kind: str
    order_id: int
    price_ticks: Optional[int]
    size_delta: int
    side: Optional[int]


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


class OrderBook:
    """Event-sourced two-sided book exposing best quotes and queue sizes.

    Single-writer per instrument-day; ``state()`` hands out immutable
    values. ``tick_size`` (currency per tick) is metadata; the matching
    logic works in ticks and does not read it.

    The book holds plain sizes, not order objects: a price level is a dict
    ``{order_id: size}`` in arrival order, and ``_orders`` maps each live id
    to ``(side, price, level)``, ``level`` being that live dict. The
    mutators below keep these tables, the per-level totals and the bests
    consistent.
    """

    def __init__(self, tick_size: float = 0.01):
        self.tick_size = tick_size
        # side -> {price: {order_id: size}}; dict preserves FIFO insertion
        # order within a level, which is exactly price-time priority after
        # seq-ordered submission.
        self._levels: dict[int, dict[int, dict[int, int]]] = {BUY: {}, SELL: {}}
        self._totals: dict[int, dict[int, int]] = {BUY: {}, SELL: {}}
        self._orders: dict[int, tuple[int, int, dict[int, int]]] = {}
        self._best: dict[int, Optional[int]] = {BUY: None, SELL: None}
        self.last_t_ns = 0

    # -- inspection ---------------------------------------------------------

    def best(self, side: int) -> Optional[int]:
        return self._best[side]

    def get_order(self, order_id: int) -> Order:
        try:
            side, price, level = self._orders[order_id]
        except KeyError:
            raise DataError(f"unknown order id {order_id}") from None
        return Order(order_id, side, price, level[order_id])

    def has_order(self, order_id: int) -> bool:
        return order_id in self._orders

    def first_at_best(self, side: int) -> Order:
        """Highest-priority resting order on a side (FIFO head at the best)."""
        best = self._best[side]
        if best is None:
            raise DataError(f"no resting orders on side {side}")
        order_id, size = next(iter(self._levels[side][best].items()))
        return Order(order_id, side, best, size)

    def state(self, t_ns: Optional[int] = None) -> BestQuoteState:
        bb, ba = self._best[BUY], self._best[SELL]
        nb = self._totals[BUY][bb] if bb is not None else 0
        na = self._totals[SELL][ba] if ba is not None else 0
        return BestQuoteState(self.last_t_ns if t_ns is None else t_ns, bb, ba, nb, na)

    # -- mutation -----------------------------------------------------------

    def apply(self, ev: tuple) -> bool:
        """Apply one event, a tuple in ``BookEvent`` field order; returns
        whether the best quotes changed.

        True iff any of (bid, ask, nb, na) changed, including transitions
        into or out of a one-sided state. The quote is not read: the mutator
        decides from the touched side alone, since an event moves the quote
        iff it touches that side's best level. A submission is checked
        (size and price >= 1, side, live id, no crossing) before it rests.
        """
        _, t_ns, kind, order_id, price, size, side = ev
        if kind == SUBMIT:
            if price < 1 or size < 1:
                raise ValueError(f"order {order_id}: price and size must be >= 1")
            if side != BUY and side != SELL:
                raise ValueError(f"order {order_id}: bad side {side}")
            if order_id in self._orders:
                raise ValueError(f"order id {order_id} already active")
            opp = self._best[-side]
            if opp is not None and (price >= opp if side == BUY else price <= opp):
                raise DataError(f"submit {order_id} at price {price} crosses opposite best {opp}")
            changed = self._rest(order_id, side, price, size)
        elif kind == REDUCE or kind == EXECUTE:
            # the same book mutation; trade vs cancel matters only to callers
            changed = self.reduce(order_id, size)
        elif kind == DELETE:
            changed = self.delete(order_id)
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        self.last_t_ns = t_ns
        return changed

    def _rest(self, order_id: int, side: int, price: int, size: int) -> bool:
        """Rest an order without ``apply``'s checks, for callers that made
        them: it is valid, its id is not live and it does not cross.
        Returns whether the quote changed: iff the price is the side's best
        after the insert (a new best, or it joined the best level)."""
        level = self._levels[side].get(price)
        if level is None:
            level = self._levels[side][price] = {order_id: size}
            self._totals[side][price] = size
        else:
            level[order_id] = size
            self._totals[side][price] += size
        self._orders[order_id] = (side, price, level)
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
        entry = self._orders.get(order_id)
        if entry is None:
            raise DataError(f"unknown order id {order_id}")
        side, price, level = entry
        size = level[order_id]
        if delta > size:
            raise DataError(f"reduce of {delta} exceeds resting size {size} for order {order_id}")
        if delta == size:
            return self.delete(order_id)
        level[order_id] = size - delta
        self._totals[side][price] -= delta
        return price == self._best[side]

    def delete(self, order_id: int) -> bool:
        """Remove an order; returns whether the quote changed: iff it rested at the best."""
        entry = self._orders.pop(order_id, None)
        if entry is None:
            raise DataError(f"unknown order id {order_id}")
        side, price, level = entry
        size = level.pop(order_id)
        at_best = price == self._best[side]
        if level:
            self._totals[side][price] -= size
        else:
            levels = self._levels[side]
            del levels[price]
            del self._totals[side][price]
            if at_best and levels:
                self._best[side] = max(levels) if side == BUY else min(levels)
            elif at_best:
                self._best[side] = None
        return at_best
