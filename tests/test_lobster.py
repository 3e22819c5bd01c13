import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuecast import book as bk
from queuecast import lobster as lb
from queuecast.errors import ConfigError, DataError
from queuecast.sampling import EVENT, build_day_samples

from oracles import coalesced_timeline, verify_row_by_row


class TestParse:
    def test_documented_submission_row(self):
        ((t_ns, code, order_id, size, price, direction),) = lb.parse_messages(
            ["34200.189608,1,11885113,21,2238200,1"])
        assert t_ns == 34200_189608000
        assert code == 1
        assert order_id == 11885113
        assert size == 21
        assert price == 2238200
        assert direction == 1

    def test_deletion_row(self):
        ((_, code, order_id, _, _, direction),) = lb.parse_messages(["36000.5,3,42,100,1000000,-1"])
        assert code == 3 and order_id == 42 and direction == -1

    def test_direction_zero_rejected(self):
        with pytest.raises(DataError, match="^line 1: direction must be \\+1 or -1, got 0$"):
            list(lb.parse_messages(["36000.5,1,42,100,1000000,0"]))

    def test_wrong_field_count(self):
        with pytest.raises(DataError, match="^line 1: expected 6 fields, got 3$") as ei:
            list(lb.parse_messages(["1,2,3"]))
        assert ei.value.line_no == 1

    def test_unknown_type_code(self):
        with pytest.raises(DataError, match="^line 1: unknown message type code 9$"):
            list(lb.parse_messages(["36000.5,9,42,100,1000000,1"]))

    def test_non_monotone_time(self):
        rows = ["36000.5,1,1,10,1000000,1", "36000.4,1,2,10,1000100,1"]
        with pytest.raises(DataError, match="^line 2: timestamp decreases$") as ei:
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
        with pytest.raises(DataError, match="^line 2001: invalid literal for int") as ei:
            list(parse(str(path)))
        assert ei.value.line_no == 2001

    def test_time_precision_nanoseconds(self):
        ((t_ns, *_),) = lb.parse_messages(["0.000000001,7,0,0,0,1"])
        assert t_ns == 1
        with pytest.raises(DataError, match="^line 1: bad time field "):
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
        last = bk.BookEvent(*events[-1])
        assert last.kind == bk.REDUCE
        assert last.order_id == 1 and last.size_delta == 10

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
        assert [(kind, oid, delta) for _, _, kind, oid, _, delta, _ in tail] == [
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
        tail = [bk.BookEvent(*ev) for ev in events[2:]]
        assert [e.kind for e in tail] == [bk.EXECUTE, bk.SUBMIT]
        assert tail[0].size_delta == 7
        assert tail[1].size_delta == 3 and tail[1].price_ticks == 100

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
        assert sum(delta for _, _, kind, _, _, delta, _ in events if kind == bk.EXECUTE) == executed

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
        with pytest.raises(DataError, match=reason) as ei:
            lb.replay(msgs)
        assert ei.value.line_no == 3

    @pytest.mark.parametrize("tick_size", [0.0, 0.00004, 0.00015, -0.01, float("nan")])
    def test_tick_off_the_price_units_rejected(self, tick_size):
        with pytest.raises(ConfigError, match=r"^tick_size must be a whole number of price "
                                              r"units \(0\.0001\), at least one$"):
            lb.replay(msg_rows(["100.0,1,1,25,10000,1"]), tick_size=tick_size)

    @pytest.mark.parametrize(
        "row, text",
        [
            ("100.5,4,99,5,10000,1", "unknown order id 99"),
            ("100.5,3,99,5,10000,1", "unknown order id 99"),
            ("100.5,2,1,50,10000,1", "reduce of 50 exceeds resting size 25 for order 1"),
            ("100.5,4,1,50,10000,1", "reduce of 50 exceeds resting size 25 for order 1"),
        ],
        ids=["execution", "delete", "over-reduce", "over-execution"],
    )
    def test_book_fault_is_positioned(self, row, text):
        msgs = msg_rows(["100.0,1,1,25,10000,1", "100.0,1,2,25,10100,-1", row])
        with pytest.raises(DataError, match=text) as ei:
            lb.replay(msgs)
        assert str(ei.value) == f"line 3: {text}"
        assert ei.value.line_no == 3

    @pytest.mark.parametrize(
        "size, tail, last",
        [
            (4, [(bk.EXECUTE, 1, 4)], (100, 101, 6, 5)),
            (10, [(bk.EXECUTE, 1, 4), (bk.EXECUTE, 2, 6)], (None, 101, 0, 5)),
            # the residual submission's size_delta is the 2 that rest
            (12, [(bk.EXECUTE, 1, 4), (bk.EXECUTE, 2, 6), (bk.SUBMIT, 9, 2)], (None, 100, 0, 2)),
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
        assert [(kind, oid, delta) for _, _, kind, oid, _, delta, _ in res.events[3:]] == tail
        assert res.counters.crossing_submits == 1
        assert res.timeline[-1][1:] == last
        assert res.stats.executed_volume_i4 == min(size, 10) * 10000
        assert res.stats.trade_price_min_i4 == res.stats.trade_price_max_i4 == 10000

    def test_resubmitting_a_removed_id_is_allowed(self):
        msgs = msg_rows(["100.0,1,1,25,10000,1", "100.5,3,1,25,10000,1", "101.0,1,1,5,9900,1"])
        assert lb.replay(msgs).timeline[-1] == (101 * lb.NS, 99, None, 5, 0)


def l1_row(q):
    """The level-1 row of quote ``q`` at a 0.01 tick."""
    ask = q.ask * 100 if q.ask is not None else lb.EMPTY_ASK_PRICE
    bid = q.bid * 100 if q.bid is not None else lb.EMPTY_BID_PRICE
    return (ask, q.na, bid, q.nb)


@st.composite
def bursty_messages(draw):
    """Valid messages in bursts of one nanosecond: submissions on both sides
    that never cross (bids at 98-100, asks at 101-103 ticks), deletes,
    partial cancels and executions of live orders, hidden executions, and
    flickers: a one-lot submission at the innermost bid or ask price (which
    changes the quote), deleted in the same nanosecond."""
    msgs, live, t_ns, next_id = [], {}, 36000 * lb.NS, 1
    for _ in range(draw(st.integers(1, 40))):
        t_ns += draw(st.sampled_from([0, 0, 0, 1, 2]))
        kind = draw(st.integers(0, 7))
        if kind <= 2 or not live:  # submission
            side = draw(st.sampled_from([1, -1]))
            price = draw(st.integers(98, 100) if side == 1 else st.integers(101, 103)) * 100
            size = draw(st.integers(1, 4))
            msgs.append(lb.LobsterMessage(t_ns, 1, next_id, size, price, side))
            live[next_id] = [side, price, size]
            next_id += 1
        elif kind == 3:  # flicker
            side = draw(st.sampled_from([1, -1]))
            price = 100 * (100 if side == 1 else 101)
            msgs.append(lb.LobsterMessage(t_ns, 1, next_id, 1, price, side))
            msgs.append(lb.LobsterMessage(t_ns, 3, next_id, 1, price, side))
            next_id += 1
        elif kind == 7:
            msgs.append(lb.LobsterMessage(t_ns, 5, 0, 3, 10000, 1))
        else:
            oid = draw(st.sampled_from(sorted(live)))
            side, price, size = live[oid]
            if kind == 4 or size == 1:
                msgs.append(lb.LobsterMessage(t_ns, 3, oid, size, price, side))
                del live[oid]
            else:
                cut = draw(st.integers(1, size - 1))
                msgs.append(lb.LobsterMessage(t_ns, 2 if kind == 5 else 4, oid, cut, price, side))
                live[oid][2] -= cut
    return msgs


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
        """Replay one message at a time on one book, reading the quote after
        each; the timeline is those quotes coalesced by the oracle."""
        ob = bk.OrderBook()
        quotes, l1_rows, events = [], [], []
        counters = lb.ReplayCounters()
        seq = 0
        for msg in msgs:
            step = lb.replay([msg], ob=ob, keep_events=True)
            events += [(ev[0] + seq, *ev[1:]) for ev in step.events]
            seq += max(1, len(step.events))
            for name in vars(counters):
                setattr(counters, name, getattr(counters, name) + getattr(step.counters, name))
            st_ = ob.state(msg[0])
            quotes.append(st_)
            l1_rows.append(l1_row(st_))
        return coalesced_timeline(quotes), l1_rows, events, counters

    def test_matches_reading_the_quote_after_every_message(self):
        msgs = msg_rows(self.MSGS)
        res = lb.replay(msgs, record_l1=True, keep_events=True)
        timeline, l1_rows, events, counters = self.reference(msgs)
        assert res.timeline == timeline
        assert res.l1_rows == l1_rows
        assert res.events == events
        assert res.counters == counters
        assert counters.crossing_submits == 1 and counters.ignored_messages == 2
        # the bid at 102.5 s comes and goes within the nanosecond: no record
        assert [st_.t_ns for st_ in timeline].count(102_500_000_000) == 0

    def test_records_are_best_quote_states(self):
        text = "".join(row + "\n" for row in self.MSGS)
        timeline = lb.replay(lb.parse_messages(io.StringIO(text))).timeline
        assert timeline == self.reference(msg_rows(self.MSGS))[0]
        assert all(type(st_) is bk.BestQuoteState for st_ in timeline)

    def test_same_nanosecond_flicker_coalesced(self):
        msgs = msg_rows([
            "1.0,1,1,5,10000,1",
            "1.0,1,2,5,10200,-1",  # two-sided at the end of the first nanosecond
            "7.0,1,3,5,10100,1",  # mid up...
            "7.0,3,3,5,10100,1",  # ...and back within the same ns
            "9.0,1,4,5,10100,1",
        ])
        timeline = lb.replay(msgs).timeline
        assert timeline == [(lb.NS, 100, 102, 5, 5), (9 * lb.NS, 101, 102, 5, 5)]
        # so the mid moves once: up, at 9 s
        day = build_day_samples(timeline, lb.NS, 10 * lb.NS, EVENT, np.random.default_rng(0))
        assert [(p[1], p[3]) for p in day.points] == [(9 * lb.NS, 1)]  # (t_change_ns, y)

    @settings(deadline=None)
    @given(msgs=bursty_messages())
    def test_timeline_is_the_last_quote_of_each_nanosecond(self, msgs):
        res = lb.replay(msgs, record_l1=True)
        ob = bk.OrderBook()
        quotes = []
        for msg in msgs:
            lb.replay([msg], ob=ob)
            quotes.append(ob.state(msg.t_ns))
        assert res.timeline == coalesced_timeline(quotes)
        assert res.l1_rows == [l1_row(q) for q in quotes]



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
        with pytest.raises(DataError, match="unknown order id 99") as ei:
            lb.replay(lb.parse_messages(rows))
        assert str(ei.value) == "line 4: unknown order id 99"
        # a list of messages has no file lines: its ordinal stands in
        with pytest.raises(DataError, match="^line 3: unknown order id 99$"):
            lb.replay(list(lb.parse_messages(rows)))


@st.composite
def message_text(draw):
    """Message-file text mixing canonical rows with rows the block parser
    must leave to the per-line parser: fewer decimals, spaces, CRLF, ``+``
    signs, fields over 18 digits, blank lines, garbled fields, a wrong field
    count and time going back. The last row may lack its LF."""
    rows, t_ns = [], 36000 * lb.NS
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            rows.append(draw(st.sampled_from(["\n", "  \n", "\r\n"])))
            continue
        t_ns += draw(st.integers(-1, 30))
        fields = [
            lb.format_time_ns(t_ns),
            draw(st.sampled_from("1111234567")),
            str(draw(st.integers(1, 9))),
            str(draw(st.integers(1, 12))),
            str(draw(st.integers(98, 102)) * 100),
            draw(st.sampled_from(["1", "-1"])),
        ]
        end = "\n"
        i = draw(st.integers(0, 5))
        if kind == 1:
            fields[0] = fields[0].rstrip("0") or "0"
        elif kind == 2:
            fields[i] = draw(st.sampled_from([" ", "\t"])) + fields[i]
        elif kind == 3:
            end = "\r\n"
        elif kind == 4:
            fields[i] = "+" + fields[i]
        elif kind == 5:  # over 18 digits, with the value unchanged or not
            fields[i] = draw(st.sampled_from(["0" * 18, "9" * 19])) + fields[i].lstrip("-")
        elif kind == 6:
            fields[i] = draw(st.sampled_from(FAULTY_FIELDS[i])
                             | st.text(alphabet="0123456789.-+ x\xe9", max_size=4))
        elif kind == 7:
            fields = fields[: draw(st.integers(1, 5))] or fields + ["1"]
        rows.append(",".join(fields) + end)
    text = "".join(rows)
    return text.rstrip("\n") if draw(st.booleans()) else text


def outcome(run):
    """What ``run()`` returns, or the class, line and text of the DataError it raises."""
    try:
        return run()
    except DataError as exc:
        return type(exc), exc.line_no, str(exc)


def per_line(text):
    """The per-line parser over the whole text: the block parser's oracle."""
    return lb._parse_lines(io.StringIO(text), 0, -1)


class TestBlockParse:
    """Blocks of canonical rows are converted in one numpy call; every other
    block goes through the per-line parser. The split must not show."""

    @settings(deadline=None, max_examples=200)
    @given(text=message_text())
    def test_blocks_parse_as_lines(self, text):
        expected = outcome(lambda: list(per_line(text)))
        replayed = outcome(lambda: lb.replay(per_line(text), record_l1=True).l1_rows)
        for size in (1, 2, 3):
            with mock.patch.object(lb, "BLOCK_LINES", size):
                sources = [io.StringIO(text), text.splitlines(keepends=True)]
                if text.isascii():
                    sources.append(text.encode("ascii"))
                for source in sources:
                    assert outcome(lambda: list(lb.parse_messages(source))) == expected
                assert outcome(lambda: lb.replay(
                    lb.parse_messages(io.StringIO(text)), record_l1=True).l1_rows) == replayed

    def test_canonical_block_is_converted_whole(self, monkeypatch):
        rows = [lb.LobsterMessage(36000 * lb.NS + i, 1 + i % 7, 10**17 + i, i, -1 if i % 2 else i,
                                  1 if i % 3 else -1) for i in range(7)]
        text = "".join(lb.format_message(m) + "\n" for m in rows)
        monkeypatch.setattr(lb, "_parse_lines", None)  # the per-line parser is not called
        monkeypatch.setattr(lb, "BLOCK_LINES", 3)
        assert list(lb.parse_messages(io.StringIO(text))) == rows
        assert all(type(m) is tuple for m in lb.parse_messages(text.encode()))

    def test_per_line_rows_are_plain_tuples(self):
        # a row with fewer decimals leaves its block to the per-line parser
        text = "36000.000000000,1,1,10,10000,1\n36000.5,1,2,10,10200,-1\n"
        assert lb._canonical_values(text.splitlines(keepends=True), -1) is None
        for msgs in (list(per_line(text)), list(lb.parse_messages(io.StringIO(text)))):
            assert msgs == [(36000 * lb.NS, 1, 1, 10, 10000, 1), (36000_500000000, 1, 2, 10, 10200, -1)]
            assert all(type(m) is tuple for m in msgs)

    def test_book_fault_in_a_canonical_block_names_its_file_line(self, monkeypatch):
        # block 1 holds a blank line and goes line by line; block 2 is canonical
        rows = ["36000.000000000,1,1,10,10000,1", "", "36001.000000000,1,2,10,10200,-1",
                "36001.500000000,1,3,10,10100,1", "36002.000000000,1,4,10,10300,-1",
                "36002.000000000,4,99,1,10000,1", "36003.000000000,1,5,10,10000,1"]
        monkeypatch.setattr(lb, "BLOCK_LINES", 4)
        with pytest.raises(DataError, match="unknown order id 99") as ei:
            lb.replay(lb.parse_messages(io.StringIO("".join(f"{r}\n" for r in rows))))
        assert str(ei.value) == "line 6: unknown order id 99"


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

    @pytest.mark.parametrize("open_s, close_s, two_sided_s, nb_integral_s", [
        (36000, 55800, 200, 10 * 100 + 6 * 100),
        (36000, 36150, 150, 10 * 100 + 6 * 50),
        (36300, 55800, 0, 0),
    ], ids=["last-message-before-close", "messages-past-close", "messages-before-open"])
    def test_day_ends_at_last_message_or_close(self, open_s, close_s, two_sided_s, nb_integral_s):
        # a cancel at 36100 leaves 6 of the 10 bid shares; the hidden execution
        # at 36200 changes no quote, but it is the day's last message
        msgs = msg_rows(["36000.0,1,1,10,10000,1", "36000.0,1,2,10,10100,-1",
                         "36100.0,2,1,4,10000,1", "36200.0,5,0,3,10100,-1"])
        res = lb.replay(msgs, window=lb.SessionWindow(open_s, close_s))
        assert res.stats.two_sided_ns == two_sided_s * lb.NS
        assert res.stats.nb_time_integral == nb_integral_s * lb.NS
        assert res.stats.spread_time_integral == two_sided_s * lb.NS  # one tick throughout

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
        with pytest.raises(DataError, match="^row count mismatch: "):
            lb.verify_against_l1(res.l1_rows, res.l1_rows[:-1])


@st.composite
def orderbook_text(draw):
    """Per-message level-1 rows, in runs that repeat a row, and an orderbook
    text for them that mixes canonical lines with lines the block check must
    leave to the per-row parse: CRLF or lone-CR ends, spaces, more than four
    columns, leading zeros, blank lines, a changed value (a mismatch), a
    garbled field or a short row (faults), a row dropped or added. The last
    line may lack its LF."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = (draw(st.sampled_from([10100, 10200, lb.EMPTY_ASK_PRICE])), draw(st.integers(0, 3)),
               draw(st.sampled_from([10000, lb.EMPTY_BID_PRICE])), draw(st.integers(0, 3)))
        rows += [row] * draw(st.integers(1, 4))
    lines = []
    for row in rows:
        fields = [str(v) for v in row]
        end = "\n"
        kind = draw(st.integers(0, 24))
        i = draw(st.integers(0, 3))
        if kind == 1:
            end = "\r\n"
        elif kind == 2:
            fields[i] = " " + fields[i]
        elif kind == 3:
            fields += ["10300", "4"]
        elif kind == 4:
            fields[i] = "0" + fields[i]
        elif kind == 5:
            lines.append(draw(st.sampled_from(["\n", "  \n", "\r\n"])))
        elif kind == 6:
            fields[i] = str(int(fields[i]) + 1)
        elif kind == 7:
            fields[i] = draw(st.sampled_from(["x", "", "1.5", "\xe9"]))
        elif kind == 8:
            fields = fields[:draw(st.integers(1, 3))]
        elif kind == 9:
            continue
        lines.append(",".join(fields) + end)
        if kind == 10:
            lines.append(lines[-1])
        elif kind == 11:
            lines[-1] = lines[-1][:-1] + "\r"
    text = "".join(lines)
    return rows, text.rstrip("\n") if draw(st.booleans()) else text


def verify_by_block(rows, reference, checked=None):
    """L1Verifier on ``reference`` fed replay's records of ``rows``: ended
    after ``checked`` rows (as before a fault in the next message), or
    reported after all."""
    verifier = lb.L1Verifier(reference)
    n = len(rows) if checked is None else checked
    for i, row in enumerate(rows[:n]):
        if i == 0 or row != rows[i - 1]:
            verifier.check((i, row))
    verifier.check((n, None))
    return verifier.mismatches if checked is not None else verifier.report(n)


class TestLineEnds:
    """Bytes and a path holding the same bytes split lines alike, at LF, CRLF
    or a lone CR, through every reader of the package."""

    MESSAGES = ["36000.0,1,1,10,10000,1", "36001.0,1,2,10,10200,-1"]
    L1 = [(lb.EMPTY_ASK_PRICE, 0, 10000, 10), (10200, 10, 10000, 10)]

    @pytest.mark.parametrize("tail", ["", "x"], ids=["rows", "fault"])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("reader", ["messages", "l1", "verifier"])
    def test_bytes_read_as_their_file(self, tmp_path, reader, end, tail):
        lines = self.MESSAGES if reader == "messages" else ["%d,%d,%d,%d" % r for r in self.L1]
        read = {"messages": lambda src: list(lb.parse_messages(src)),
                "l1": lb.parse_l1_file,
                "verifier": lambda src: verify_by_block(self.L1, src)}[reader]
        data = "".join(line + end for line in lines + [tail] if line).encode()
        path = tmp_path / "day.csv"
        path.write_bytes(data)
        expected = outcome(lambda: read(data.replace(end.encode(), b"\n")))
        assert outcome(lambda: read(data)) == outcome(lambda: read(str(path))) == expected
        if tail:
            assert expected[:2] == (DataError, 3)
        else:
            assert not isinstance(expected, tuple)  # read, not a fault


class TestBlockVerification:
    """Blocks whose text is canonical are checked with one comparison; every
    other block goes through the per-row parse and compare. The split must
    not show."""

    @settings(deadline=None, max_examples=300)
    @given(case=orderbook_text(), data=st.data())
    def test_blocks_verify_as_rows(self, tmp_path_factory, case, data):
        # a path source is read through the newline decoder that tell and
        # seek must restore; the oracle reads the same bytes, decoded alike
        rows, text = case
        checked = data.draw(st.none() | st.integers(0, len(rows)))
        path = tmp_path_factory.getbasetemp() / "blocks_verify_as_rows.csv"
        path.write_bytes(text.encode("latin-1"))
        expected = outcome(lambda: verify_row_by_row(rows, io.StringIO(text), checked))
        with lb._open_lines(str(path)) as fh:
            expected_path = outcome(lambda: verify_row_by_row(rows, fh, checked))
        for size in (1, 2, 3, lb.BLOCK_LINES):
            with mock.patch.object(lb, "BLOCK_LINES", size):
                assert outcome(lambda: verify_by_block(rows, io.StringIO(text), checked)) == expected
                assert outcome(lambda: verify_by_block(rows, str(path), checked)) == expected_path

    def test_canonical_blocks_take_one_comparison(self, monkeypatch):
        rows = [(10100, 1, 10000, 2)] * 5 + [(10200, 3, 10000, 2)] * 4
        text = "".join("%d,%d,%d,%d\n" % row for row in rows)
        monkeypatch.setattr(lb, "_l1_rows", None)  # the per-row parser is not called
        monkeypatch.setattr(lb, "BLOCK_LINES", 2)
        assert verify_by_block(rows, io.StringIO(text)) == lb.VerificationReport(9, [])

    def test_no_line_after_the_rows_checked_is_parsed(self):
        # the block read for row 0 runs into line 2, a fault: a fault in
        # message 2 is checked against row 0 only, so line 2 is not parsed
        rows = [(lb.EMPTY_ASK_PRICE, 0, 10000, 10), (10200, 1, 10000, 1)]
        text = "10200,1,10000,1\nx\n"
        mismatch = [lb.Mismatch(0, rows[0], (10200, 1, 10000, 1))]
        assert verify_row_by_row(rows, io.StringIO(text), 1) == mismatch
        assert verify_by_block(rows, io.StringIO(text), 1) == mismatch

    @pytest.mark.parametrize("source", ["path", "text"])
    @pytest.mark.parametrize("row_10, parsed_to", [("10200,3,10000,9", 13),
                                                   ("10200,x,10000,2", 12)],
                             ids=["mismatch", "fault"])
    def test_only_differing_blocks_are_parsed(self, monkeypatch, tmp_path, source, row_10,
                                              parsed_to):
        # blocks of 3 rows: block 0 differs (a blank line, a mismatch on row
        # 1), blocks 1 and 2 are canonical, block 3 differs on row 10 (line
        # 12) and is parsed to its last row or to the fault; each canonical
        # block takes one read and none of its lines is parsed, and what is
        # found, and at which line, is the oracle's
        rows = [(10100, 1, 10000, 2)] * 4 + [(10200, 3, 10000, 2)] * 8
        lines = ["%d,%d,%d,%d\n" % row for row in rows]
        lines[1] = "10100,1,10000,3\n"
        lines[10] = f"{row_10}\n"
        lines.insert(1, "\n")
        text = "".join(lines)
        expected = outcome(lambda: verify_row_by_row(rows, io.StringIO(text)))

        class CountedReads(io.StringIO):
            reads = 0

            def read(self, size=-1):
                self.reads += 1
                return super().read(size)

        reference = CountedReads(text)
        if source == "path":
            (tmp_path / "o.csv").write_text(text)
            reference = str(tmp_path / "o.csv")
        parsed, l1_rows = [], lb._l1_rows
        monkeypatch.setattr(lb, "_l1_rows", lambda lines, start: l1_rows(
            (parsed.append(line) or line for line in lines), start))
        monkeypatch.setattr(lb, "BLOCK_LINES", 3)
        assert outcome(lambda: verify_by_block(rows, reference)) == expected
        assert parsed == lines[:4] + lines[10:parsed_to]
        if source == "text":
            assert reference.reads == 4

    @pytest.mark.parametrize("block_lines", [1, 2, 1024])
    @pytest.mark.parametrize("second", ["10100,1,10000,2", "10100,1,10000,3"],
                             ids=["canonical", "mismatch"])
    def test_length_mismatch_counts_every_left_over_row(self, monkeypatch, block_lines, second):
        # 3 rows checked against 5 lines: both lines after the last checked
        # row are counted, whether the checked rows' text matched or not
        rows = [(10100, 1, 10000, 2)] * 3
        text = "10100,1,10000,2\n" + f"{second}\n" + "10100,1,10000,2\n" * 3
        monkeypatch.setattr(lb, "BLOCK_LINES", block_lines)
        with pytest.raises(DataError, match="^row count mismatch: ") as ei:
            verify_by_block(rows, io.StringIO(text))
        assert str(ei.value) == "row count mismatch: 3 reconstructed vs 5 reference"

    @pytest.mark.parametrize("block_lines", [2, 8])
    def test_orderbook_fault_before_a_later_message_fault(self, monkeypatch, block_lines):
        # the orderbook fault is on row 2 and message 6 is the message fault:
        # the rows before message 6 are checked first, whether row 2's block
        # is checked during replay (2 lines) or once message 6 faults (8)
        msgs = ["36000.0,1,1,10,10000,1", "36001.0,1,2,10,10200,-1", "36002.0,2,1,3,10000,1",
                "36003.0,1,3,5,10100,1", "36004.0,1,4,5,10300,-1", "36005.0,4,99,1,10000,1"]
        monkeypatch.setattr(lb, "BLOCK_LINES", block_lines)
        for line_2, error in [
            ("10200,x,10000,10", "line 2: invalid literal for int() with base 10: 'x' (in o)"),
            ("10200,10,10000,10", "line 6: unknown order id 99"),
        ]:
            lines = ["9999999999,0,10000,10", line_2, "10200,10,10000,7", "10200,10,10100,5",
                     "10200,10,10100,5", "10200,10,10100,5"]
            verifier = lb.L1Verifier(io.StringIO("".join(f"{r}\n" for r in lines)), source="o")
            with pytest.raises(DataError) as ei:
                lb.replay(lb.parse_messages(msgs), record_l1=verifier.check)
            assert str(ei.value) == error


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
        # a hidden execution at the close leaves the book alone and ends the day there
        msgs = msg_rows(
            ["36000.0,1,1,10,200000,1", "36000.0,1,2,10,200300,-1", "55800.0,5,0,1,200000,1"]
        )
        res = lb.replay(msgs, window=lb.SessionWindow())
        rec = lb.summary_stats([res.stats])
        assert rec.mean_spread == pytest.approx(0.03)
        assert rec.mean_nb == pytest.approx(10.0)
        assert rec.mean_na == pytest.approx(10.0)

    def test_no_data(self):
        with pytest.raises(DataError, match="^no instrument-days to summarize$"):
            lb.summary_stats([])

    def test_one_sided_session_has_no_means(self):
        msgs = msg_rows(["36000.0,1,1,10,200000,1", "36001.0,1,2,5,200100,1"])
        rec = lb.summary_stats([lb.replay(msgs, window=lb.SessionWindow()).stats])
        assert (rec.days, rec.best_quote_limit_volume) == (1, 300.05)
        assert (rec.mean_nb, rec.mean_na, rec.mean_spread) == (None, None, None)

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
        for t_ns, code, _, size, price, _ in msgs:
            if code == 4 and 36000 * lb.NS <= t_ns < 55800 * lb.NS:
                exec_vol += size * price / 10000.0
                p = price / 10000.0
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
        for t_ns, code, order_id, size, price, direction in msgs:
            if prev_two and prev_t is not None:
                lo, hi = max(prev_t, openns), min(t_ns, close)
                if hi > lo:
                    nb_int += prev_nb * (hi - lo)
                    covered += hi - lo
            if code == 1:
                naive_book[order_id] = (price, size, direction)
            elif code in (3, 4):
                naive_book.pop(order_id, None)
            bids = [(p, s) for p, s, d in naive_book.values() if d == 1]
            asks = [(p, s) for p, s, d in naive_book.values() if d == -1]
            prev_two = bool(bids) and bool(asks)
            if prev_two:
                bb = max(p for p, _ in bids)
                prev_nb = sum(s for p, s in bids if p == bb)
            prev_t = t_ns
        # the day ends at the earlier of its last message and the close
        end = min(close, prev_t)
        if prev_two:
            lo = max(prev_t, openns)
            if end > lo:
                nb_int += prev_nb * (end - lo)
                covered += end - lo
        assert rec.mean_nb == pytest.approx(nb_int / covered)
