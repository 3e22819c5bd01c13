import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from queuecast import sampling as sp
from queuecast.book import BestQuoteState
from queuecast.errors import DataError, NumericalError
from queuecast.sampling import (
    EVENT,
    UNIFORM,
    build_day_samples,
    read_samples_csv,
    split_indices,
    subsample_day,
    write_samples_csv,
)
from queuecast.simulate import regime_preset, simulate

from oracles import mid_changes, reference_day_sample

NEVER = 10**18  # a session close after every record


def states(*rows):
    """rows of (t, bid, ask, nb, na)."""
    return [BestQuoteState(*r) for r in rows]


def changes_seen(tl, t0, close=NEVER):
    """(t_change, y) of every point event mode draws from ``tl``: one per
    in-session mid change while the book stays two-sided."""
    res = build_day_samples(tl, t0, close, EVENT, np.random.default_rng(0))
    return [(t_change, y) for _, t_change, _, y, _, _ in res.points]


class TestMidChangeTimes:
    def test_hand_traced_path(self):
        # mid path 100.5, 100.5, 101, 100.5 at t=1,2,3,4
        tl = states(
            (1, 100, 101, 5, 5),
            (2, 100, 101, 9, 5),  # queue change, same mid
            (3, 100, 102, 9, 4),  # mid up to 101
            (4, 100, 101, 9, 2),  # mid back down to 100.5
        )
        assert changes_seen(tl, 1) == [(3, 1), (4, 0)]

    def test_constant_mid_empty(self):
        tl = states((1, 100, 101, 5, 5), (2, 100, 101, 1, 9))
        res = build_day_samples(tl, 1, NEVER, UNIFORM, np.random.default_rng(0))
        assert (res.points, res.n_changes) == ([], 0)

    def test_single_upward_change(self):
        tl = states((1, 100, 101, 5, 5), (9, 101, 102, 5, 5))
        assert changes_seen(tl, 1) == [(9, 1)]

    def test_change_at_t0_not_counted(self):
        tl = states((1, 100, 101, 5, 5), (5, 101, 102, 5, 5), (9, 100, 101, 2, 2))
        assert changes_seen(tl, 5) == [(9, 0)]


def alternating(n, width, inside=()):
    """A timeline whose mid moves up and down again at every multiple of
    ``width`` up to n * width, queues (3, 7); between the moves, one queue
    change at each offset in ``inside``, nb rising from 6."""
    rows = []
    for k in range(n + 1):
        mid = 100 + k % 2
        rows.append((k * width, mid, mid + 1, 3, 7))
        if k < n:
            rows.extend((k * width + dt, mid, mid + 1, 6 + i, 7) for i, dt in enumerate(inside))
    return states(*rows)


class TestUniformTimeSampling:
    def test_draw_strictly_inside(self):
        tl = alternating(200, 10)
        res = build_day_samples(tl, 0, NEVER, UNIFORM, np.random.default_rng(0))
        assert len(res.points) == 200
        for t_sample, t_change, imbalance, *_ in res.points:
            assert t_change - 10 < t_sample < t_change
            assert imbalance == pytest.approx((3 - 7) / 10)

    def test_reproducible_given_seed(self):
        tl = alternating(3, 10**9)
        a = build_day_samples(tl, 0, NEVER, UNIFORM, np.random.default_rng(7))
        b = build_day_samples(tl, 0, NEVER, UNIFORM, np.random.default_rng(7))
        assert a == b

    def test_uniformity_ks_99(self):
        width = 10**9
        res = build_day_samples(
            alternating(100_000, width), 0, NEVER, UNIFORM, np.random.default_rng(12345)
        )
        draws = np.array([t_sample - (t_change - width) for t_sample, t_change, *_ in res.points],
                         dtype=float)
        assert len(draws) == 100_000
        stat = sps.kstest(draws / width, "uniform").pvalue
        assert stat > 0.01

    def test_one_sided_skipped(self):
        # the ask empties 1 ns after the open and returns with the mid moved:
        # every instant strictly inside the interval is one-sided
        tl = states((0, 100, 101, 3, 7), (1, 100, None, 3, 0), (20, 101, 102, 3, 7))
        res = build_day_samples(tl, 0, NEVER, UNIFORM, np.random.default_rng(0))
        assert (res.points, res.n_changes, res.skipped_one_sided) == ([], 1, 1)

    def test_empty_interior(self):
        tl = states((0, 100, 101, 3, 7), (10, 101, 102, 3, 7), (11, 100, 101, 3, 7))
        rng = np.random.default_rng(0)
        res = build_day_samples(tl, 0, NEVER, UNIFORM, rng)
        assert [p[1] for p in res.points] == [10]
        assert (res.n_changes, res.skipped_empty_interval) == (2, 1)
        # the skipped interval draws nothing: one draw was made, for (0, 10)
        again = np.random.default_rng(0)
        again.integers(1, 10)
        assert rng.integers(2**62) == again.integers(2**62)


class TestEventTimeSampling:
    def test_single_update_chosen_surely(self):
        tl = states((0, 100, 101, 5, 5), (50, 100, 101, 9, 5), (100, 101, 102, 5, 5))
        res = build_day_samples(tl, 0, NEVER, EVENT, np.random.default_rng(0))
        (p,) = res.points
        assert (p[0], p[4], res.fallback_points) == (50, 9, 0)

    def test_chi_square_uniform_over_updates(self):
        n = 21_000
        tl = alternating(n, 100, inside=range(10, 80, 10))  # updates at 10..70
        res = build_day_samples(tl, 0, NEVER, EVENT, np.random.default_rng(99))
        offsets = [p[0] % 100 for p in res.points]
        assert len(offsets) == n and res.fallback_points == 0
        counts = np.bincount(offsets, minlength=100)[10:80:10]
        assert counts.sum() == n
        stat = sps.chisquare(counts).pvalue
        assert stat > 0.001

    def test_fallback_to_interval_start(self):
        tl = states((5, 100, 101, 3, 7), (50, 101, 102, 3, 7))
        res = build_day_samples(tl, 5, NEVER, EVENT, np.random.default_rng(1))
        (p,) = res.points
        assert p[0] == 5 and res.fallback_points == 1
        assert p[2] == pytest.approx(-0.4)

    def test_endpoints_excluded(self):
        # the only updates sit on the interval ends: neither is drawn
        tl = states((0, 100, 101, 5, 5), (10, 101, 102, 6, 5), (50, 100, 101, 7, 5))
        for seed in range(20):
            res = build_day_samples(tl, 0, NEVER, EVENT, np.random.default_rng(seed))
            assert [(t_sample, nb) for t_sample, _, _, _, nb, _ in res.points] == [(0, 5), (10, 6)]
            assert res.fallback_points == 2


class TestHandTracedDay:
    """One timeline that makes every kind of point and every skip, traced by hand."""

    TL = states(
        (0, 100, 101, 4, 2),  # the open: mid 201
        (10, 101, 102, 3, 3),  # up: (0, 10) has no record inside
        (11, 100, 101, 2, 5),  # down: (10, 11) has no interior nanosecond
        (12, None, 101, 0, 5),  # the bid empties: (11, 16) is one-sided throughout
        (16, 100, 102, 2, 5),  # up
        (20, 100, 102, 6, 5),  # a queue change inside (16, 30)
        (30, 101, 102, 6, 1),  # up
        (40, 100, 102, 6, 1),  # down, at the close: dropped
        (50, 100, 101, 6, 1),  # down, after the close: dropped
    )

    def counts(self, res):
        return (res.n_changes, res.dropped_after_close, res.skipped_one_sided,
                res.skipped_empty_interval, res.fallback_points)

    def test_uniform(self):
        res = build_day_samples(self.TL, 0, 40, UNIFORM, np.random.default_rng(3))
        assert self.counts(res) == (4, 2, 1, 1, 0)
        (t_s1, t_c1, i1, y1, nb1, na1), (t_s2, t_c2, _, y2, nb2, na2) = res.points
        assert (t_c1, y1, nb1, na1) == (10, 1, 4, 2)
        assert 0 < t_s1 < 10 and i1 == pytest.approx(1 / 3)
        assert (t_c2, y2) == (30, 1) and 16 < t_s2 < 30
        assert (nb2, na2) == ((2, 5) if t_s2 < 20 else (6, 5))

    def test_event(self):
        res = build_day_samples(self.TL, 0, 40, EVENT, np.random.default_rng(3))
        assert self.counts(res) == (4, 2, 0, 0, 3)
        assert res.points == [
            (0, 10, 1 / 3, 1, 4, 2),  # fallback
            (10, 11, 0.0, 0, 3, 3),  # fallback
            (11, 16, -3 / 7, 1, 2, 5),  # fallback
            (20, 30, 1 / 11, 1, 6, 5),
        ]


@st.composite
def sampled_days(draw):
    """A timeline as replay makes it, times rising strictly, with 1 ns gaps,
    one-sided records, repeated mids and empty queues; a first event before,
    on or between its records; and a close anywhere."""
    rows, t = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 25))):
        t += draw(st.sampled_from([1, 1, 2, 3, 5, 40]))
        bid = draw(st.sampled_from([None, 99, 100, 100, 101]))
        ask = draw(st.sampled_from([None, 1, 2])) if bid is not None else draw(
            st.sampled_from([None, 101]))
        if bid is not None and ask is not None:
            ask += bid
        rows.append((t, bid, ask, draw(st.integers(0, 3)), draw(st.integers(0, 3))))
    t0 = draw(st.integers(0, t + 2))
    close = draw(st.integers(0, t + 45))
    return states(*rows), t0, close


class TestAgainstReference:
    @settings(deadline=None, max_examples=300)
    @given(day=sampled_days(), mode=st.sampled_from([UNIFORM, EVENT]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_naive_sampler_draw_for_draw(self, day, mode, seed):
        tl, t0, close = day
        res = build_day_samples(tl, t0, close, mode, np.random.default_rng(seed))
        points, counts = reference_day_sample(tl, t0, close, mode, np.random.default_rng(seed))
        assert res.points == [p[:6] for p in points]  # the oracle's per-point fallback dropped
        assert {name: getattr(res, name) for name in counts} == counts


class TestSubsample:
    def test_exact_size(self):
        pts = [(i, i + 1, 0.0, 1, 1, 1) for i in range(2500)]
        out, flagged = subsample_day(pts, 100, np.random.default_rng(0))
        assert len(out) == 100 and not flagged
        assert len(set(p[0] for p in out)) == 100

    def test_short_day_flagged(self):
        pts = [(i, i + 1, 0.0, 1, 1, 1) for i in range(60)]
        out, flagged = subsample_day(pts, 100, np.random.default_rng(0))
        assert len(out) == 60 and flagged

    def test_same_seed_identical(self):
        pts = [(i, i + 1, 0.0, 1, 1, 1) for i in range(500)]
        a, _ = subsample_day(pts, 100, np.random.default_rng(11))
        b, _ = subsample_day(pts, 100, np.random.default_rng(11))
        assert a == b


class TestSplit:
    def test_80_20_sizes_at_25200(self):
        train, test = split_indices(25200, 0.8, np.random.default_rng(0))
        assert len(train) == 20160
        assert len(test) == 5040

    def test_small_arithmetic(self):
        train, test = split_indices(10, 0.8, np.random.default_rng(0))
        assert (len(train), len(test)) == (8, 2)

    @pytest.mark.parametrize("frac, n, n_train", [(0.7, 1400, 980), (0.29, 100, 29)])
    def test_train_size_survives_float_rounding(self, frac, n, n_train):
        assert frac * n < n_train  # the product falls just short of the whole number
        train, test = split_indices(n, frac, np.random.default_rng(0))
        assert (len(train), len(test)) == (n_train, n - n_train)

    def test_partition_property(self):
        train, test = split_indices(137, 0.8, np.random.default_rng(5))
        assert sorted(train.tolist() + test.tolist()) == list(range(137))
        assert not set(train.tolist()) & set(test.tolist())

    def test_too_few(self):
        with pytest.raises(NumericalError, match="^need at least 5 points, got 4$"):
            split_indices(4, 0.8)


SIM_DAY = regime_preset("large-tick", seed=77, horizon=60.0)
SIM_END_NS = (SIM_DAY.start_time_s + 60) * 10**9  # the flow's horizon


@pytest.fixture(scope="module")
def sim_day():
    return simulate(SIM_DAY)


class TestDayPipeline:
    def test_labels_match_recomputed_mid_changes(self, sim_day):
        rng = np.random.default_rng(1)
        ds = build_day_samples(
            sim_day.timeline, sim_day.first_session_event_ns, SIM_END_NS, UNIFORM, rng
        )
        changes = dict(mid_changes(sim_day.timeline, sim_day.first_session_event_ns))
        assert len(ds.points) > 50
        for t_sample, t_change, imbalance, y, _, _ in ds.points:
            assert y == changes[t_change]
            assert t_sample < t_change
            assert -1.0 < imbalance < 1.0

    def test_uniform_and_event_modes_share_labels(self, sim_day):
        u = build_day_samples(
            sim_day.timeline, sim_day.first_session_event_ns, SIM_END_NS, UNIFORM,
            np.random.default_rng(1),
        )
        e = build_day_samples(
            sim_day.timeline, sim_day.first_session_event_ns, SIM_END_NS, EVENT,
            np.random.default_rng(2),
        )
        assert [(p[1], p[3]) for p in u.points] == [(p[1], p[3]) for p in e.points]

    def test_full_day_determinism(self, sim_day):
        a = build_day_samples(
            sim_day.timeline, sim_day.first_session_event_ns, SIM_END_NS, UNIFORM,
            np.random.default_rng(42),
        )
        b = build_day_samples(
            sim_day.timeline, sim_day.first_session_event_ns, SIM_END_NS, UNIFORM,
            np.random.default_rng(42),
        )
        assert a.points == b.points

    @pytest.mark.parametrize("mode", [UNIFORM, EVENT])
    def test_matches_naive_sampler(self, sim_day, mode):
        res = build_day_samples(
            sim_day.timeline, sim_day.first_session_event_ns, SIM_END_NS, mode,
            np.random.default_rng(5),
        )
        points, counts = reference_day_sample(
            sim_day.timeline, sim_day.first_session_event_ns, SIM_END_NS, mode,
            np.random.default_rng(5),
        )
        assert res.points == [p[:6] for p in points]  # the oracle's per-point fallback dropped
        assert {name: getattr(res, name) for name in counts} == counts

    def test_strict_interior_for_non_fallback(self, sim_day):
        ds = build_day_samples(
            sim_day.timeline, sim_day.first_session_event_ns, SIM_END_NS, EVENT,
            np.random.default_rng(9),
        )
        changes = [t for t, _ in mid_changes(sim_day.timeline, sim_day.first_session_event_ns)]
        prev = {t: p for t, p in zip(changes, [sim_day.first_session_event_ns] + changes[:-1])}
        # a fallback point is stamped at its interval's start; any other lies inside
        fallbacks = 0
        for t_sample, t_change, *_ in ds.points:
            fallbacks += t_sample == prev[t_change]
            assert t_sample == prev[t_change] or prev[t_change] < t_sample < t_change
        assert fallbacks == ds.fallback_points

    def test_changes_after_close_dropped(self, sim_day):
        close = sim_day.first_session_event_ns + 30 * 10**9
        ds = build_day_samples(
            sim_day.timeline, sim_day.first_session_event_ns, close, UNIFORM,
            np.random.default_rng(1),
        )
        assert ds.dropped_after_close > 0
        assert all(p[1] < close for p in ds.points)


class TestCsvRoundTrip:
    def test_schema_and_values(self, tmp_path):
        pts = [
            (36000000000001, 36000000002000, 1 / 3, 1, 2, 1),
            (36000000003000, 36000000004000, -0.123456789012345, 0, 3, 4),
        ]
        path = tmp_path / "samples.csv"
        write_samples_csv(path, pts, "SIM", [3, 3])
        text = path.read_text().splitlines()
        assert text[0] == "instrument,day,t_sample_ns,t_change_ns,I,y"
        assert text[1].split(",")[4] == "0.333333333333"
        back = read_samples_csv(path)
        assert len(back) == 2
        assert back.label.tolist() == [1, 0]
        assert back.imbalance[0] == pytest.approx(1 / 3, abs=1e-12)
        # each I is float() of its text, bit for bit
        texts = [row.split(",")[4] for row in text[1:]]
        assert back.imbalance.tobytes() == np.array([float(t) for t in texts]).tobytes()


@st.composite
def samples_text(draw):
    """samples.csv text mixing rows as write_samples_csv writes them with rows
    that the column-at-a-time read must leave to the per-row path: LF ends,
    spaces, ``+`` signs, exponents, nan and inf, a non-ASCII byte, a field
    too many or too few, over 18 digits, and I or y out of range. The header
    may be wrong and the last row may lack its line end."""
    header = ",".join(sp.SAMPLE_COLUMNS)
    if draw(st.integers(0, 14)) == 0:
        header = draw(st.sampled_from([header[:-2], header + ",z", header.upper(), " " + header]))
    lines = [header + "\r\n"]
    for _ in range(draw(st.integers(0, 8))):
        fields = [draw(st.sampled_from(["SIM", "", "A B", "x-1.2_Z"])),
                  str(draw(st.integers(0, 300))), str(draw(st.integers(0, 10**14))),
                  str(draw(st.integers(0, 10**14))),
                  f"{draw(st.floats(-1, 1)):.12g}", draw(st.sampled_from("01"))]
        end = "\r\n"
        kind = draw(st.sampled_from(["canonical"] * 20 + [
            "lf", "space", "plus", "exponent", "nan", "non-ascii", "short", "long",
            "I-range", "I-range", "I-range", "y-range", "digits", "quote"]))
        i = draw(st.integers(0, 5))
        if kind == "lf":
            end = "\n"
        elif kind == "space":
            fields[i] = " " + fields[i]
        elif kind == "plus":
            fields[i] = "+" + fields[i]
        elif kind == "exponent":
            fields[4] = draw(st.sampled_from(["1e-05", "5E-1", "-2.5e-3", "1e999", "0.5e+00", "-0"]))
        elif kind == "nan":
            fields[4] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN"]))
        elif kind == "non-ascii":
            fields[i] = fields[i][:1] + "\xe9" + fields[i][1:]
        elif kind == "short":
            del fields[i]
        elif kind == "long":
            fields.insert(i, "7")
        elif kind == "I-range":
            fields[4] = draw(st.sampled_from(["1.5", "-1.0000001", "2", "-1", "1"]))
        elif kind == "y-range":
            fields[5] = draw(st.sampled_from(["2", "-1", "01", "1.0", ""]))
        elif kind == "digits":
            fields[i] = "9" * 19
        elif kind == "quote":
            fields[0] = '"SIM"'
        lines.append(",".join(fields) + end)
    text = "".join(lines)
    if draw(st.integers(0, 3)) == 0:
        text = text.rstrip("\r\n")
    return text


def read_outcome(read, path):
    """The arrays that ``read(path)`` returns, as dtypes and bytes, or the
    line and text of the DataError it raises."""
    try:
        return [(a.dtype.str, a.tobytes()) for a in read(path)]
    except DataError as exc:
        return exc.line_no, str(exc)


class TestBlockRead:
    """A canonical samples.csv is converted a column at a time; any other
    text goes through the per-row path. The split must not show."""

    @settings(deadline=None, max_examples=300)
    @given(text=samples_text())
    def test_columns_read_as_rows(self, text):
        def columns(path):
            table = read_samples_csv(path)
            return table.imbalance, table.label

        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "samples.csv"
            path.write_bytes(text.encode("latin-1"))
            got = read_outcome(columns, path)
            with mock.patch.object(sp, "_SAMPLES", re.compile("(?!)")):  # rows only
                assert read_outcome(columns, path) == got

    def test_canonical_file_is_converted_whole(self, tmp_path, monkeypatch):
        pts = [(36000000000001 + i, 36000000002000 + i, (i - 3) / 4, i % 2, 1, 1)
               for i in range(7)]
        path = tmp_path / "samples.csv"
        write_samples_csv(path, pts, "SIM", [3] * 7)
        monkeypatch.setattr(sp, "read_csv", None)  # the per-row path is not called
        back = read_samples_csv(path)
        assert back.imbalance.tolist() == [(i - 3) / 4 for i in range(7)]
        assert back.label.tolist() == [i % 2 for i in range(7)]
