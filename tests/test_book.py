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
    Order,
    OrderBook,
    queue_imbalance,
)
from queuecast.errors import (
    BothQueuesEmpty,
    CrossedSubmit,
    EmptySide,
    OverReduce,
    UnknownOrderId,
)

from oracles import NaiveBook


def make_book(bids=(), asks=()):
    """bids/asks: iterables of (price, size) tuples, submitted in order."""
    ob = OrderBook()
    oid = 0
    for price, size in bids:
        oid += 1
        ob.apply(BookEvent.submit(oid, oid, Order(oid, BUY, price, size, oid)))
    for price, size in asks:
        oid += 1
        ob.apply(BookEvent.submit(oid, oid, Order(oid, SELL, price, size, oid)))
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
        with pytest.raises(EmptySide):
            ob.first_at_best(SELL)


class TestApplyEvent:
    def test_submit_inside_spread_lifts_bid(self):
        # ask at 101, bid queue {100: [50]}; a buy inside the spread becomes
        # the new best bid with its own queue
        ob, oid = make_book(bids=[(100, 50)], asks=[(101, 10)])
        # widen so there is room inside the spread
        ob2, oid = make_book(bids=[(100, 50)], asks=[(102, 10)])
        changed = ob2.apply(BookEvent.submit(10, oid + 1, Order(99, BUY, 101, 10, oid + 1)))
        assert changed is True
        snap = ob2.state()
        assert snap.bid == 101 and snap.nb == 10 and snap.t_ns == 10

    def test_submit_with_empty_opposite_side(self):
        # no ask resting: any buy price is non-crossing and lifts the bid
        ob, oid = make_book(bids=[(100, 50)])
        changed = ob.apply(BookEvent.submit(10, oid + 1, Order(99, BUY, 101, 10, oid + 1)))
        assert changed and not ob.state().two_sided  # still one-sided, no quote
        assert ob.best(BUY) == 101
        assert ob.state().nb == 10  # the size resting at the new best bid

    def test_partial_execute_keeps_fifo_priority(self):
        ob, oid = make_book(bids=[(100, 1)], asks=[(101, 7), (101, 5)])
        head = ob.first_at_best(SELL)
        ob.apply(BookEvent.execute(10, oid + 1, head.id, 3))
        assert ob.first_at_best(SELL).id == head.id
        assert ob.first_at_best(SELL).size == 4

    def test_execute_depletes_level(self):
        ob, oid = make_book(bids=[(100, 30), (99, 70)], asks=[(101, 5)])
        changed = ob.apply(BookEvent.execute(10, oid + 1, 1, 30))
        assert changed
        snap = ob.state()
        assert snap.bid == 99 and snap.nb == 70

    def test_reduce_keeps_quotes(self):
        ob, oid = make_book(bids=[(100, 20)], asks=[(101, 5)])
        changed = ob.apply(BookEvent.reduce(10, oid + 1, 1, 5))
        assert changed  # nb changed even though prices did not
        snap = ob.state()
        assert (snap.bid, snap.ask, snap.nb) == (100, 101, 15)

    def test_unknown_id(self):
        ob, oid = make_book(bids=[(100, 20)])
        with pytest.raises(UnknownOrderId):
            ob.apply(BookEvent.delete(10, oid + 1, 777))

    def test_over_reduce(self):
        ob, oid = make_book(bids=[(100, 20)])
        with pytest.raises(OverReduce):
            ob.apply(BookEvent.reduce(10, oid + 1, 1, 21))

    def test_crossed_submit_rejected(self):
        ob, oid = make_book(bids=[(100, 20)], asks=[(101, 5)])
        with pytest.raises(CrossedSubmit):
            ob.apply(BookEvent.submit(10, oid + 1, Order(50, BUY, 101, 1, oid + 1)))

    def test_duplicate_id_rejected(self):
        ob, oid = make_book(bids=[(100, 20)])
        with pytest.raises(ValueError):
            ob.apply(BookEvent.submit(10, oid + 1, Order(1, BUY, 99, 1, oid + 1)))

    def test_unchanged_deep_submit(self):
        ob, oid = make_book(bids=[(100, 20)], asks=[(101, 5)])
        changed = ob.apply(BookEvent.submit(10, oid + 1, Order(50, BUY, 95, 5, oid + 1)))
        assert changed is False
        snap = ob.state()
        assert (snap.bid, snap.nb) == (100, 20)


class TestQueueImbalance:
    def test_two_to_one_queues(self):
        assert queue_imbalance(200, 100) == pytest.approx(1.0 / 3.0)

    def test_antisymmetric_mirror(self):
        assert queue_imbalance(100, 200) == pytest.approx(-1.0 / 3.0)

    @pytest.mark.parametrize("k", [1, 7, 12345])
    def test_symmetry_zero(self, k):
        assert queue_imbalance(k, k) == 0.0

    def test_both_empty(self):
        with pytest.raises(BothQueuesEmpty):
            queue_imbalance(0, 0)

    @given(
        nb=st.integers(min_value=0, max_value=10**9),
        na=st.integers(min_value=0, max_value=10**9),
    )
    def test_antisymmetry_and_bounds(self, nb, na):
        if nb + na == 0:
            with pytest.raises(BothQueuesEmpty):
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
            ev = BookEvent.submit(t, seq, Order(next_id, side, price, size, seq))
            naive.submit(next_id, side, price, size)
            live.append(next_id)
            next_id += 1
        else:
            oid = live[int(rng.integers(len(live)))]
            size = ob.get_order(oid).size
            sub = rng.random()
            if sub < 0.4:
                ev = BookEvent.delete(t, seq, oid)
                naive.remove(oid)
                live.remove(oid)
            elif sub < 0.7 and size > 1:
                delta = int(rng.integers(1, size))
                ev = BookEvent.reduce(t, seq, oid, delta)
                naive.remove(oid, delta)
            else:
                delta = int(rng.integers(1, size + 1))
                ev = BookEvent.execute(t, seq, oid, delta)
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


class TestChangeFlag:
    @pytest.mark.parametrize("seed", range(8))
    def test_flag_matches_full_rescan(self, seed):
        # replay the stream on a fresh book; the flag must equal a change of
        # the rescanned quote, whatever the event and wherever it lands
        events = [ev for _ob, _naive, ev in random_event_stream(seed)]
        ob, naive = OrderBook(), NaiveBook()
        one_sided_transitions = at_best_reductions = 0
        for ev in events:
            before = naive.best_quotes()
            if ev.kind == SUBMIT:
                naive.submit(ev.order.id, ev.order.side, ev.order.price, ev.order.size)
            else:
                side, price, size = naive.active[ev.order_id]
                if ev.kind == DELETE:
                    naive.remove(ev.order_id)
                else:
                    naive.remove(ev.order_id, ev.delta if ev.delta < size else None)
                    best = before[0] if side == BUY else before[1]
                    at_best_reductions += ev.kind in (REDUCE, EXECUTE) and price == best
            after = naive.best_quotes()
            assert ob.apply(ev) == (before != after)
            one_sided_transitions += (None in before[:2]) != (None in after[:2])
        assert one_sided_transitions > 0 and at_best_reductions > 0
