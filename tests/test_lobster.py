import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuecast import book as bk
from queuecast import lobster as lb
from queuecast.errors import (
    DataError,
    LengthMismatch,
    MalformedRow,
    NoData,
    NonMonotoneTime,
    OverReduce,
    UnknownOrderId,
    UnknownTypeCode,
)


class TestParse:
    def test_documented_submission_row(self):
        (m,) = lb.parse_messages(["34200.189608,1,11885113,21,2238200,1"])
        assert m.t_ns == 34200_189608000
        assert m.type_code == 1
        assert m.order_id == 11885113
        assert m.size == 21
        assert m.price == 2238200
        assert m.direction == 1

    def test_deletion_row(self):
        (m,) = lb.parse_messages(["36000.5,3,42,100,1000000,-1"])
        assert m.type_code == 3 and m.order_id == 42 and m.direction == -1

    def test_direction_zero_rejected(self):
        with pytest.raises(MalformedRow):
            list(lb.parse_messages(["36000.5,1,42,100,1000000,0"]))

    def test_wrong_field_count(self):
        with pytest.raises(MalformedRow) as ei:
            list(lb.parse_messages(["1,2,3"]))
        assert ei.value.line_no == 1

    def test_unknown_type_code(self):
        with pytest.raises(UnknownTypeCode):
            list(lb.parse_messages(["36000.5,9,42,100,1000000,1"]))

    def test_non_monotone_time(self):
        rows = ["36000.5,1,1,10,1000000,1", "36000.4,1,2,10,1000100,1"]
        with pytest.raises(NonMonotoneTime) as ei:
            list(lb.parse_messages(rows))
        assert ei.value.line_no == 2

    @pytest.mark.parametrize(
        "parse, row",
        [(lb.parse_messages, "36000.5,1,1,10,1000000,1"), (lb.parse_l1_file, "10100,5,10000,7")],
        ids=["message", "l1"],
    )
    def test_non_ascii_byte_is_positioned_malformed_row(self, tmp_path, parse, row):
        # far past the first 8 KB decode chunk, so the line number must come
        # from the row, not from where decoding failed
        path = tmp_path / "day.csv"
        bad = row.replace("0,", "\xe9,", 1).encode("latin-1")
        path.write_bytes(f"{row}\n".encode() * 2000 + bad)
        with pytest.raises(MalformedRow) as ei:
            list(parse(str(path)))
        assert ei.value.line_no == 2001

    def test_time_precision_nanoseconds(self):
        (m,) = lb.parse_messages(["0.000000001,7,0,0,0,1"])
        assert m.t_ns == 1
        with pytest.raises(MalformedRow):
            list(lb.parse_messages(["0.0000000001,7,0,0,0,1"]))

    @given(
        t_ns=st.integers(min_value=0, max_value=86400 * lb.NS),
        code=st.sampled_from([1, 2, 3, 4, 5, 6, 7]),
        oid=st.integers(min_value=0, max_value=2**40),
        size=st.integers(min_value=0, max_value=10**6),
        price=st.integers(min_value=0, max_value=10**8),
        direction=st.sampled_from([1, -1]),
    )
    def test_parse_serialize_roundtrip(self, t_ns, code, oid, size, price, direction):
        msg = lb.LobsterMessage(t_ns, code, oid, size, price, direction)
        (back,) = lb.parse_messages([lb.format_message(msg)])
        assert back == msg


def msg_rows(rows):
    return list(lb.parse_messages(rows))


class TestMessageTranslation:
    def test_hidden_execution_no_events(self):
        msgs = msg_rows(
            [
                "100.0,1,1,10,10000,1",
                "100.0,1,2,10,10200,-1",
                "101.0,5,0,7,10100,1",
            ]
        )
        res = lb.replay(msgs, keep_events=True)
        assert len(res.events) == 2  # only the two submissions
        assert res.counters.hidden_volume == 7

    def test_auction_and_halt_logged_not_applied(self):
        msgs = msg_rows(
            [
                "100.0,1,1,10,10000,1",
                "100.5,6,0,5,10000,1",
                "101.0,7,0,0,0,-1",
            ]
        )
        res = lb.replay(msgs, keep_events=True)
        assert len(res.events) == 1
        assert res.counters.ignored_messages == 2

    def test_partial_cancel_maps_to_reduce(self):
        msgs = msg_rows(
            ["100.0,1,1,25,10000,1", "100.5,2,1,10,10000,1"]
        )
        events = lb.messages_to_events(msgs)
        assert events[-1].kind == bk.REDUCE
        assert events[-1].order_id == 1 and events[-1].delta == 10

    def test_crossing_buy_decomposed_in_priority_order(self):
        # ask queue [7, 5] at one price; buy submit of 10 at that price
        msgs = msg_rows(
            [
                "100.0,1,1,50,9900,1",
                "100.0,1,2,7,10000,-1",
                "100.0,1,3,5,10000,-1",
                "101.0,1,9,10,10000,1",
            ]
        )
        res = lb.replay(msgs, keep_events=True)
        tail = res.events[3:]
        assert [(e.kind, e.order_id, e.delta) for e in tail] == [
            (bk.EXECUTE, 2, 7),
            (bk.EXECUTE, 3, 3),
        ]
        assert res.counters.crossing_submits == 1
        assert lb.messages_to_events(msgs) == res.events

    def test_crossing_buy_with_residual_submit(self):
        msgs = msg_rows(
            [
                "100.0,1,1,50,9900,1",
                "100.0,1,2,7,10000,-1",
                "101.0,1,9,10,10000,1",
            ]
        )
        events = lb.messages_to_events(msgs)
        tail = events[2:]
        assert [e.kind for e in tail] == [bk.EXECUTE, bk.SUBMIT]
        assert tail[0].delta == 7
        assert tail[1].order.size == 3 and tail[1].order.price == 100

    def test_execution_sum_equals_traded_volume(self):
        rng = np.random.default_rng(5)
        rows = ["100.0,1,1,500,10000,1", "100.0,1,2,500,10100,-1"]
        t = 101.0
        executed = 0
        for i in range(40):
            qty = int(rng.integers(1, 10))
            executed += qty
            side_id = 1 if i % 2 == 0 else 2
            price = 10000 if side_id == 1 else 10100
            direction = 1 if side_id == 1 else -1
            rows.append(f"{t:.3f},4,{side_id},{qty},{price},{direction}")
            t += 0.5
        msgs = msg_rows(rows)
        events = lb.messages_to_events(msgs)
        assert sum(e.delta for e in events if e.kind == bk.EXECUTE) == executed

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("100.5,2,1,0,10000,1", "partial cancel with size 0"),
            ("100.5,4,1,0,10000,1", "execution with size 0"),
            ("100.5,1,1,5,9900,1", "reuses live order id 1"),
            ("100.5,1,3,5,0,1", "price 0 below one tick"),
            ("100.5,1,3,0,9900,1", "submission with size 0"),
            ("100.5,1,3,5,9950,1", "price 9950 not on the 100 tick lattice"),
            ("100.5,1,3,5,-100,1", "price -100 below one tick"),
            # the checks run in this order; the first failing one is reported
            ("100.5,1,1,0,9950,1", "submission with size 0"),
            ("100.5,1,1,5,-150,1", "reuses live order id 1"),
            ("100.5,1,3,5,-150,1", "price -150 not on the 100 tick lattice"),
        ],
        ids=["cancel-0", "execution-0", "duplicate-id", "price-0", "submission-0",
             "off-lattice", "negative-price", "size-before-id", "id-before-price",
             "lattice-before-floor"],
    )
    def test_invalid_message_is_positioned_malformed_row(self, row, reason):
        msgs = msg_rows(["100.0,1,1,25,10000,1", "100.0,1,2,25,10100,-1", row])
        with pytest.raises(MalformedRow, match=reason) as ei:
            lb.replay(msgs)
        assert ei.value.line_no == 3

    @pytest.mark.parametrize(
        "row, error, text",
        [
            ("100.5,4,99,5,10000,1", UnknownOrderId, "unknown order id 99"),
            ("100.5,3,99,5,10000,1", UnknownOrderId, "unknown order id 99"),
            ("100.5,2,1,50,10000,1", OverReduce,
             "reduce of 50 exceeds resting size 25 for order 1"),
        ],
        ids=["execution", "delete", "over-reduce"],
    )
    def test_book_fault_is_positioned(self, row, error, text):
        msgs = msg_rows(["100.0,1,1,25,10000,1", "100.0,1,2,25,10100,-1", row])
        with pytest.raises(error) as ei:
            lb.replay(msgs)
        assert str(ei.value) == f"line 3: {text}"
        assert ei.value.line_no == 3

    @pytest.mark.parametrize(
        "size, tail, last",
        [
            (4, [(bk.EXECUTE, 1, 4)], (100, 101, 6, 5)),
            (10, [(bk.EXECUTE, 1, 4), (bk.EXECUTE, 2, 6)], (None, 101, 0, 5)),
            (12, [(bk.EXECUTE, 1, 4), (bk.EXECUTE, 2, 6), (bk.SUBMIT, 9, 0)], (None, 100, 0, 2)),
        ],
        ids=["head-only", "whole-level", "residual"],
    )
    def test_sell_touching_best_bid_is_decomposed(self, size, tail, last):
        # bid queue [4, 6] at 100; a sell at exactly 100 trades, it does not rest
        msgs = msg_rows(
            [
                "100.0,1,1,4,10000,1",
                "100.0,1,2,6,10000,1",
                "100.0,1,3,5,10100,-1",
                f"101.0,1,9,{size},10000,-1",
            ]
        )
        res = lb.replay(msgs, keep_events=True, window=lb.SessionWindow(0, 200))
        assert [(e.kind, e.order_id, e.delta) for e in res.events[3:]] == tail
        assert res.counters.crossing_submits == 1
        assert res.timeline[-1][1:] == last
        assert res.stats.executed_volume_i4 == min(size, 10) * 10000
        assert res.stats.trade_price_min_i4 == res.stats.trade_price_max_i4 == 10000

    def test_resubmitting_a_removed_id_is_allowed(self):
        msgs = msg_rows(["100.0,1,1,25,10000,1", "100.5,3,1,25,10000,1", "101.0,1,1,5,9900,1"])
        assert lb.replay(msgs).timeline[-1] == (101 * lb.NS, 99, None, 5, 0)


class TestReplayReadsQuoteOnChange:
    MSGS = [
        "100.0,1,1,10,10000,1",  # one-sided bid
        "100.0,1,2,10,10200,-1",  # two-sided
        "100.5,1,3,5,9900,1",  # deep: no change
        "101.0,5,0,7,10100,1",  # hidden execution
        "101.5,6,0,5,10000,1",  # auction
        "102.0,7,0,0,0,-1",  # halt
        "102.5,1,4,3,10100,1",  # new best bid ...
        "102.5,3,4,3,10100,1",  # ... gone in the same nanosecond
        "103.0,2,1,4,10000,1",  # partial cancel at the best
        "103.5,4,2,4,10200,-1",  # partial execution at the best
        "104.0,1,5,9,10200,1",  # crossing buy: takes 6, rests 3 at 10200
        "104.5,2,3,1,9900,1",  # partial cancel below the best
        "105.0,3,5,3,10200,1",  # bid back to 10000
        "105.5,3,1,6,10000,1",
        "105.5,3,3,4,9900,1",  # bid side empty
        "106.0,1,6,2,10100,1",
    ]

    @staticmethod
    def reference(msgs):
        """Replay one message at a time on one book, reading the quote after each."""
        ob = bk.OrderBook()
        timeline, l1_rows, events = [], [], []
        counters = lb.ReplayCounters()
        seq = 0
        for msg in msgs:
            step = lb.replay([msg], ob=ob, keep_events=True)
            for ev in step.events:
                order = ev.order
                if order is not None:
                    order = bk.Order(order.id, order.side, order.price, order.size,
                                     order.entry_seq + seq)
                events.append(ev._replace(seq=ev.seq + seq, order=order))
            seq += max(1, len(step.events))
            for name in vars(counters):
                setattr(counters, name, getattr(counters, name) + getattr(step.counters, name))
            st_ = ob.state(msg.t_ns)
            if not timeline or timeline[-1][1:] != st_[1:]:
                timeline.append(st_)
            ask = st_.ask * 100 if st_.ask is not None else lb.EMPTY_ASK_PRICE
            bid = st_.bid * 100 if st_.bid is not None else lb.EMPTY_BID_PRICE
            l1_rows.append((ask, st_.na, bid, st_.nb))
        return timeline, l1_rows, events, counters

    def test_matches_reading_the_quote_after_every_message(self):
        msgs = msg_rows(self.MSGS)
        res = lb.replay(msgs, record_l1=True, keep_events=True)
        timeline, l1_rows, events, counters = self.reference(msgs)
        assert res.timeline == timeline
        assert res.l1_rows == l1_rows
        assert res.events == events
        assert res.counters == counters
        assert counters.crossing_submits == 1 and counters.ignored_messages == 2
        assert [st_.t_ns for st_ in timeline].count(102_500_000_000) == 2


# per field, values that a row must be rejected for, in one context or another
FAULTY_FIELDS = [
    ["", "x", "1.0000000001", "-1.0", "1e3"],
    ["0", "8", "x"],
    ["x", ""],
    ["0", "-1", "1.5"],
    ["10150", "0", "-100", ""],
    ["0", "2", "+"],
]


@st.composite
def message_rows(draw):
    """Six-field rows over a few order ids and overlapping bid and ask
    prices, so that books form and cross. Some rows carry a fault: a blank
    line (not a fault), a garbled field, a wrong field count, time going back."""
    rows, t_ns = [], 36000 * lb.NS
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.integers(0, 15))
        if kind == 0:
            rows.append(draw(st.sampled_from(["", "  "])))
            continue
        t_ns += draw(st.integers(-1, 30))
        fields = [
            lb.format_time_ns(t_ns),
            draw(st.sampled_from("1111234567")),  # submissions are the commonest
            str(draw(st.integers(1, 9))),
            str(draw(st.integers(1, 12))),
            str(draw(st.integers(98, 102)) * 100),
            draw(st.sampled_from(["1", "-1"])),
        ]
        if kind == 1:
            i = draw(st.integers(0, 5))
            fields[i] = draw(st.sampled_from(FAULTY_FIELDS[i])
                             | st.text(alphabet="0123456789.-+ x\xe9", max_size=4))
        elif kind == 2:
            fields = fields[: draw(st.integers(1, 5))] or fields + ["1"]
        rows.append(",".join(fields))
    return rows


class TestArbitraryRows:
    @settings(deadline=None)  # a property of the rows, not of how fast a loaded machine replays them
    @given(rows=message_rows())
    def test_replay_succeeds_or_raises_positioned_data_error(self, rows):
        try:
            lb.replay(lb.parse_messages(rows), record_l1=True, keep_events=True)
        except DataError as exc:
            line = exc.line_no
            assert line is not None and str(exc).startswith(f"line {line}: ")
            assert 1 <= line <= len(rows) and rows[line - 1].strip()
            # the fault is in that file line: the rows before it are clean
            lb.replay(lb.parse_messages(rows[: line - 1]))
            with pytest.raises(DataError):
                lb.replay(lb.parse_messages(rows[:line]))

    def test_fault_after_a_blank_line_names_its_file_line(self):
        rows = ["36000.0,1,1,10,10000,1", "", "36001.0,1,2,10,10200,-1", "36002.0,4,99,1,10000,1"]
        with pytest.raises(UnknownOrderId) as ei:
            lb.replay(lb.parse_messages(rows))
        assert str(ei.value) == "line 4: unknown order id 99"
        # a list of messages has no file lines: its ordinal stands in
        with pytest.raises(UnknownOrderId, match="^line 3: "):
            lb.replay(list(lb.parse_messages(rows)))


class TestSessionFilter:
    def test_boundaries(self):
        # the window is half-open: a trade at the close is outside it
        msgs = msg_rows(
            [
                "35999.99,1,1,10,10000,1",
                "35999.99,1,2,10,10100,-1",
                "35999.999999999,4,2,1,10100,-1",
                "36000.0,4,2,2,10100,-1",
                "55799.999999999,4,2,3,10100,-1",
                "55800.0,4,2,4,10100,-1",
            ]
        )
        res = lb.replay(msgs, window=lb.SessionWindow())
        assert res.first_session_event_ns == 36000 * lb.NS
        assert res.stats.executed_volume_i4 == (2 + 3) * 10100
        assert res.stats.two_sided_ns == (55800 - 36000) * lb.NS

    def test_empty_day(self):
        res = lb.replay([], window=lb.SessionWindow())
        assert res.timeline == [] and res.first_session_event_ns is None
        assert res.stats == lb.DayStats()

    def test_window_never_changes_book_evolution(self):
        msgs = msg_rows(
            [
                "35000.0,1,1,10,10000,1",
                "35000.0,1,2,10,10100,-1",
                "36500.0,1,3,4,10000,1",
                "40000.0,4,1,10,10000,1",
                "56000.0,3,2,10,10100,-1",
            ]
        )
        with_window = lb.replay(msgs, window=lb.SessionWindow())
        without = lb.replay(msgs)
        assert with_window.timeline == without.timeline

    def test_warm_start_state_evolves_pre_open(self):
        msgs = msg_rows(
            [
                "35000.0,1,1,10,10000,1",
                "35000.0,1,2,10,10100,-1",
                "40000.0,4,1,10,10000,1",
            ]
        )
        res = lb.replay(msgs, window=lb.SessionWindow())
        assert res.first_session_event_ns == 40000 * lb.NS
        # pre-open submissions still shaped the book
        assert res.timeline[0].t_ns == 35000 * lb.NS


class TestVerification:
    def _sim_rows(self):
        return msg_rows(
            [
                "36000.0,1,1,10,10000,1",
                "36001.0,1,2,4,10100,-1",
                "36002.0,4,2,4,10100,-1",
                "36003.0,1,3,6,10200,-1",
                "36004.0,2,1,5,10000,1",
            ]
        )

    def test_self_consistent_roundtrip(self):
        msgs = self._sim_rows()
        res = lb.replay(msgs, record_l1=True)
        report = lb.verify_against_l1(res.l1_rows, res.l1_rows)
        assert report.ok and report.checked == len(msgs)

    def test_single_perturbed_row(self):
        msgs = self._sim_rows()
        res = lb.replay(msgs, record_l1=True)
        ref = [list(r) for r in res.l1_rows]
        ref[2][3] += 1  # perturb nb
        report = lb.verify_against_l1(res.l1_rows, [tuple(r) for r in ref])
        assert len(report.mismatches) == 1
        assert report.mismatches[0].index == 2

    def test_truncated_reference(self):
        msgs = self._sim_rows()
        res = lb.replay(msgs, record_l1=True)
        with pytest.raises(LengthMismatch):
            lb.verify_against_l1(res.l1_rows, res.l1_rows[:-1])


class TestSummaryStats:
    def test_single_trade(self):
        msgs = msg_rows(
            [
                "36000.0,1,1,10,200000,1",
                "36000.0,1,2,10,200100,-1",
                "36100.0,4,1,10,200000,1",
            ]
        )
        res = lb.replay(msgs, window=lb.SessionWindow())
        rec = lb.summary_stats([res.stats])
        assert rec.executed_volume == pytest.approx(10 * 20.0)
        assert rec.trade_price_min == pytest.approx(20.0)
        assert rec.trade_price_max == pytest.approx(20.0)

    def test_constant_book_time_weighted_spread(self):
        msgs = msg_rows(
            ["36000.0,1,1,10,200000,1", "36000.0,1,2,10,200300,-1"]
        )
        res = lb.replay(msgs, window=lb.SessionWindow())
        rec = lb.summary_stats([res.stats])
        assert rec.mean_spread == pytest.approx(0.03)
        assert rec.mean_nb == pytest.approx(10.0)
        assert rec.mean_na == pytest.approx(10.0)

    def test_no_data(self):
        with pytest.raises(NoData):
            lb.summary_stats([])

    def test_matches_single_pass_accumulation_oracle(self):
        # random valid stream; oracle reimplements the accumulation directly
        rng = np.random.default_rng(11)
        rows = ["36000.0,1,1,40,10000,1", "36000.0,1,2,40,10100,-1"]
        live = {1: (10000, 40, 1), 2: (10100, 40, -1)}
        next_id = 3
        t = 36001.0
        for _ in range(300):
            t += float(rng.integers(1, 30)) / 10.0
            if rng.random() < 0.55 or not live:
                side = 1 if rng.random() < 0.5 else -1
                price = 10000 if side == 1 else 10100
                # keep to two price levels so the book stays two-sided
                size = int(rng.integers(1, 20))
                rows.append(f"{t:.1f},1,{next_id},{size},{price},{side}")
                live[next_id] = (price, size, side)
                next_id += 1
            else:
                oid = list(live)[int(rng.integers(len(live)))]
                price, size, side = live[oid]
                if sum(1 for p, _s, sd in live.values() if sd == side) <= 1:
                    continue  # keep both sides occupied
                if rng.random() < 0.5:
                    rows.append(f"{t:.1f},4,{oid},{size},{price},{side}")
                else:
                    rows.append(f"{t:.1f},3,{oid},{size},{price},{side}")
                del live[oid]
        msgs = msg_rows(rows)
        res = lb.replay(msgs, window=lb.SessionWindow())
        rec = lb.summary_stats([res.stats])

        # oracle: independent accumulation over messages
        exec_vol = 0.0
        pmin = pmax = None
        for m in msgs:
            if m.type_code == 4 and 36000 * lb.NS <= m.t_ns < 55800 * lb.NS:
                exec_vol += m.size * m.price / 10000.0
                p = m.price / 10000.0
                pmin = p if pmin is None else min(pmin, p)
                pmax = p if pmax is None else max(pmax, p)
        assert rec.executed_volume == pytest.approx(exec_vol)
        assert rec.trade_price_min == pytest.approx(pmin)
        assert rec.trade_price_max == pytest.approx(pmax)

        # oracle for time-weighted nb: integrate a naive book row by row
        naive_book = {}
        prev_t = None
        prev_nb = 0
        prev_two = False
        nb_int = 0.0
        covered = 0.0
        close = 55800 * lb.NS
        openns = 36000 * lb.NS
        for m in msgs:
            if prev_two and prev_t is not None:
                lo, hi = max(prev_t, openns), min(m.t_ns, close)
                if hi > lo:
                    nb_int += prev_nb * (hi - lo)
                    covered += hi - lo
            if m.type_code == 1:
                naive_book[m.order_id] = (m.price, m.size, m.direction)
            elif m.type_code in (3, 4):
                naive_book.pop(m.order_id, None)
            bids = [(p, s) for p, s, d in naive_book.values() if d == 1]
            asks = [(p, s) for p, s, d in naive_book.values() if d == -1]
            prev_two = bool(bids) and bool(asks)
            if prev_two:
                bb = max(p for p, _ in bids)
                prev_nb = sum(s for p, s in bids if p == bb)
            prev_t = m.t_ns
        if prev_two:
            lo = max(prev_t, openns)
            if close > lo:
                nb_int += prev_nb * (close - lo)
                covered += close - lo
        assert rec.mean_nb == pytest.approx(nb_int / covered)
