import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from queuecast.book import (
    BUY,
    DELETE,
    EXECUTE,
    REDUCE,
    SELL,
    SUBMIT,
    BookEvent,
    OrderBook,
)
from queuecast import lobster as lb
from queuecast.errors import DataError, NumericalError
from queuecast.sampling import queue_imbalance

from oracles import NaiveBook


# Events are plain tuples in BookEvent field order:
# (seq, t_ns, kind, order_id, price_ticks, size_delta, side)


def make_book(bids=(), asks=()):
    """bids/asks: iterables of (price, size) tuples, submitted in order."""
    ob = OrderBook()
    oid = 0
    for price, size in bids:
        oid += 1
        ob.apply((oid, oid, SUBMIT, oid, price, size, BUY))
    for price, size in asks:
        oid += 1
        ob.apply((oid, oid, SUBMIT, oid, price, size, SELL))
    return ob, oid


class TestQuote:
    def test_hand_traced_quote(self):
        ob, oid = make_book(bids=[(100, 5), (100, 10)], asks=[(101, 7)])
        q = ob.state()
        assert q == (oid, 100, 101, 15, 7)
        assert q.two_sided
        assert q.mid2 == 201
        assert ob.state(99).t_ns == 99

    def test_minimum_spread_adjacent_ticks(self):
        ob, _ = make_book(bids=[(100, 1)], asks=[(101, 1)])
        q = ob.state()
        assert q.ask - q.bid == 1

    def test_empty_side_raises(self):
        ob, _ = make_book(bids=[(100, 5)])
        q = ob.state()
        assert (q.bid, q.ask, q.nb, q.na) == (100, None, 5, 0)
        assert not q.two_sided and q.mid2 is None
        with pytest.raises(DataError, match="^no resting orders on side -1$"):
            ob.first_at_best(SELL)


class TestApplyEvent:
    def test_submit_inside_spread_lifts_bid(self):
        # ask at 101, bid queue {100: [50]}; a buy inside the spread becomes
        # the new best bid with its own queue
        ob, oid = make_book(bids=[(100, 50)], asks=[(101, 10)])
        # widen so there is room inside the spread
        ob2, oid = make_book(bids=[(100, 50)], asks=[(102, 10)])
        # a BookEvent serves wherever its plain tuple does
        changed = ob2.apply(BookEvent(oid + 1, 10, SUBMIT, 99, 101, 10, BUY))
        assert changed is True
        snap = ob2.state()
        assert snap.bid == 101 and snap.nb == 10 and snap.t_ns == 10

    def test_submit_with_empty_opposite_side(self):
        # no ask resting: any buy price is non-crossing and lifts the bid
        ob, oid = make_book(bids=[(100, 50)])
        changed = ob.apply((oid + 1, 10, SUBMIT, 99, 101, 10, BUY))
        assert changed and not ob.state().two_sided  # still one-sided, no quote
        assert ob.best(BUY) == 101
        assert ob.state().nb == 10  # the size resting at the new best bid

    def test_partial_execute_keeps_fifo_priority(self):
        ob, oid = make_book(bids=[(100, 1)], asks=[(101, 7), (101, 5)])
        head = ob.first_at_best(SELL)
        ob.apply((oid + 1, 10, EXECUTE, head.id, None, 3, None))
        assert ob.first_at_best(SELL).id == head.id
        assert ob.first_at_best(SELL).size == 4

    def test_execute_depletes_level(self):
        ob, oid = make_book(bids=[(100, 30), (99, 70)], asks=[(101, 5)])
        changed = ob.apply((oid + 1, 10, EXECUTE, 1, None, 30, None))
        assert changed
        snap = ob.state()
        assert snap.bid == 99 and snap.nb == 70

    def test_reduce_keeps_quotes(self):
        ob, oid = make_book(bids=[(100, 20)], asks=[(101, 5)])
        changed = ob.apply((oid + 1, 10, REDUCE, 1, None, 5, None))
        assert changed  # nb changed even though prices did not
        snap = ob.state()
        assert (snap.bid, snap.ask, snap.nb) == (100, 101, 15)

    def test_unknown_id(self):
        ob, oid = make_book(bids=[(100, 20)])
        with pytest.raises(DataError, match="^unknown order id 777$"):
            ob.apply((oid + 1, 10, DELETE, 777, None, 0, None))

    def test_over_reduce(self):
        ob, oid = make_book(bids=[(100, 20)])
        with pytest.raises(DataError, match="^reduce of 21 exceeds resting size 20 for order 1$"):
            ob.apply((oid + 1, 10, REDUCE, 1, None, 21, None))

    def test_crossed_submit_rejected(self):
        # a submission at the opposite best crosses, from either side
        ob, oid = make_book(bids=[(100, 20)], asks=[(101, 5)])
        for side, price in [(BUY, 101), (SELL, 100)]:
            with pytest.raises(
                DataError, match=f"^submit 50 at price {price} crosses opposite best {price}$"
            ):
                ob.apply((oid + 1, 10, SUBMIT, 50, price, 1, side))

    @pytest.mark.parametrize(
        "price, size, side, error",
        [
            (99, 0, BUY, "price and size must be >= 1"),
            (0, 5, BUY, "price and size must be >= 1"),
            (99, 5, 0, "bad side 0"),
        ],
        ids=["size-0", "price-0", "side-0"],
    )
    def test_invalid_submit_rejected(self, price, size, side, error):
        ob, oid = make_book(bids=[(100, 20)], asks=[(101, 5)])
        with pytest.raises(ValueError, match=f"^order 50: {error}$"):
            ob.apply((oid + 1, 10, SUBMIT, 50, price, size, side))
        assert not ob.has_order(50)

    def test_duplicate_id_rejected(self):
        ob, oid = make_book(bids=[(100, 20)])
        with pytest.raises(ValueError):
            ob.apply((oid + 1, 10, SUBMIT, 1, 99, 1, BUY))

    def test_unchanged_deep_submit(self):
        ob, oid = make_book(bids=[(100, 20)], asks=[(101, 5)])
        changed = ob.apply((oid + 1, 10, SUBMIT, 50, 95, 5, BUY))
        assert changed is False
        snap = ob.state()
        assert (snap.bid, snap.nb) == (100, 20)
        # one tick is the lowest price that rests
        assert ob.apply((oid + 2, 11, SUBMIT, 51, 1, 5, BUY)) is False
        assert ob.get_order(51).price == 1


class TestQueueImbalance:
    def test_two_to_one_queues(self):
        assert queue_imbalance(200, 100) == pytest.approx(1.0 / 3.0)

    def test_antisymmetric_mirror(self):
        assert queue_imbalance(100, 200) == pytest.approx(-1.0 / 3.0)

    @pytest.mark.parametrize("k", [1, 7, 12345])
    def test_symmetry_zero(self, k):
        assert queue_imbalance(k, k) == 0.0

    def test_both_empty(self):
        with pytest.raises(NumericalError, match="^imbalance undefined: both best queues empty$"):
            queue_imbalance(0, 0)

    @given(
        nb=st.integers(min_value=0, max_value=10**9),
        na=st.integers(min_value=0, max_value=10**9),
    )
    def test_antisymmetry_and_bounds(self, nb, na):
        if nb + na == 0:
            with pytest.raises(NumericalError, match="both best queues empty"):
                queue_imbalance(nb, na)
            return
        v = queue_imbalance(nb, na)
        assert v == -queue_imbalance(na, nb)
        assert abs(v) <= 1.0
        assert (abs(v) == 1.0) == (nb == 0 or na == 0)


def random_event_stream(seed, n_events=400):
    """A valid random stream exercising submits, reduces, deletes, executes."""
    rng = np.random.default_rng(seed)
    ob = OrderBook()
    naive = NaiveBook()
    events = []
    live = []
    next_id = 1
    t = 0
    for seq in range(1, n_events + 1):
        t += int(rng.integers(1, 50))
        roll = rng.random()
        if roll < 0.45 or not live:
            side = BUY if rng.random() < 0.5 else SELL
            opp = ob.best(-side)
            if side == BUY:
                hi = (opp - 1) if opp is not None else 105
                price = int(rng.integers(max(1, hi - 6), hi + 1))
            else:
                lo = (opp + 1) if opp is not None else 106
                price = int(rng.integers(lo, lo + 7))
            size = int(rng.integers(1, 30))
            ev = (seq, t, SUBMIT, next_id, price, size, side)
            naive.submit(next_id, side, price, size)
            live.append(next_id)
            next_id += 1
        else:
            oid = live[int(rng.integers(len(live)))]
            size = ob.get_order(oid).size
            sub = rng.random()
            if sub < 0.4:
                ev = (seq, t, DELETE, oid, None, 0, None)
                naive.remove(oid)
                live.remove(oid)
            elif sub < 0.7 and size > 1:
                delta = int(rng.integers(1, size))
                ev = (seq, t, REDUCE, oid, None, delta, None)
                naive.remove(oid, delta)
            else:
                delta = int(rng.integers(1, size + 1))
                ev = (seq, t, EXECUTE, oid, None, delta, None)
                naive.remove(oid, delta if delta < size else None)
                if delta == size:
                    live.remove(oid)
        ob.apply(ev)
        events.append(ev)
        yield ob, naive, ev


class TestAgainstNaiveRebuild:
    @pytest.mark.parametrize("seed", range(8))
    def test_quotes_match_full_rescan(self, seed):
        for ob, naive, _ev in random_event_stream(seed):
            st_ = ob.state()
            assert (st_.bid, st_.ask, st_.nb, st_.na) == naive.best_quotes()

    @pytest.mark.parametrize("seed", range(8))
    def test_never_crossed(self, seed):
        for ob, _naive, _ev in random_event_stream(seed):
            bid, ask = ob.best(BUY), ob.best(SELL)
            if bid is not None and ask is not None:
                assert bid < ask

    def test_determinism_byte_for_byte(self):
        def run(seed):
            return [ob.state() for ob, _n, _e in random_event_stream(seed, 300)]

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestReplayAgainstNaiveRebuild:
    """replay checks each message itself and calls the book's mutators, not
    OrderBook.apply: its level-1 rows are held to the same oracle."""

    CODES = {SUBMIT: lb.SUBMISSION, REDUCE: lb.PARTIAL_CANCEL, DELETE: lb.FULL_DELETE,
             EXECUTE: lb.EXECUTION}

    @pytest.mark.parametrize("seed", range(8))
    def test_level_1_rows_match_full_rescan(self, seed):
        msgs, expected, resting = [], [], {}
        for _ob, naive, (_seq, t, kind, oid, price, size, side) in random_event_stream(seed):
            if kind == SUBMIT:
                resting[oid] = (side, price)
            side, price = resting[oid]
            msgs.append((t, self.CODES[kind], oid, size, price * 100, side))
            bid, ask, nb, na = naive.best_quotes()
            expected.append((lb.EMPTY_ASK_PRICE if ask is None else ask * 100, na,
                             lb.EMPTY_BID_PRICE if bid is None else bid * 100, nb))
        assert lb.replay(msgs, tick_size=0.01, record_l1=True).l1_rows == expected


class TestChangeFlag:
    @pytest.mark.parametrize("seed", range(8))
    def test_flag_matches_full_rescan(self, seed):
        # replay the stream on a fresh book; the flag must equal a change of
        # the rescanned quote, whatever the event and wherever it lands
        events = [ev for _ob, _naive, ev in random_event_stream(seed)]
        ob, naive = OrderBook(), NaiveBook()
        one_sided_transitions = at_best_reductions = 0
        for ev in events:
            _seq, _t, kind, oid, price, delta, side = ev
            before = naive.best_quotes()
            if kind == SUBMIT:
                naive.submit(oid, side, price, delta)
            else:
                side, price, size = naive.active[oid]
                if kind == DELETE:
                    naive.remove(oid)
                else:
                    naive.remove(oid, delta if delta < size else None)
                    best = before[0] if side == BUY else before[1]
                    at_best_reductions += kind in (REDUCE, EXECUTE) and price == best
            after = naive.best_quotes()
            assert ob.apply(ev) == (before != after)
            one_sided_transitions += (None in before[:2]) != (None in after[:2])
        assert one_sided_transitions > 0 and at_best_reductions > 0
