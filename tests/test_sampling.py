import numpy as np
import pytest
from scipy import stats as sps

from queuecast.book import BestQuoteState
from queuecast.errors import EmptyInterior, OneSidedBook, TooFewPoints
from queuecast.sampling import (
    EVENT,
    UNIFORM,
    QuoteTimeline,
    SamplePoint,
    build_day_samples,
    mid_change_times,
    read_samples_csv,
    sample_event_time,
    sample_uniform_time,
    split_indices,
    subsample_day,
    write_samples_csv,
)
from queuecast.simulate import regime_preset, simulate


def states(*rows):
    """rows of (t, bid, ask, nb, na)."""
    return [BestQuoteState(*r) for r in rows]


class TestMidChangeTimes:
    def test_hand_traced_path(self):
        # mid path 100.5, 100.5, 101, 100.5 at t=1,2,3,4
        tl = QuoteTimeline(
            states(
                (1, 100, 101, 5, 5),
                (2, 100, 101, 9, 5),  # queue change, same mid
                (3, 100, 102, 9, 4),  # mid up to 101
                (4, 100, 101, 9, 2),  # mid back down to 100.5
            )
        )
        out = mid_change_times(tl, t0_ns=1)
        assert out == [(3, 1), (4, 0)]

    def test_constant_mid_empty(self):
        tl = QuoteTimeline(
            states((1, 100, 101, 5, 5), (2, 100, 101, 1, 9))
        )
        assert mid_change_times(tl, 1) == []

    def test_single_upward_change(self):
        tl = QuoteTimeline(
            states((1, 100, 101, 5, 5), (9, 101, 102, 5, 5))
        )
        assert mid_change_times(tl, 1) == [(9, 1)]

    def test_change_at_t0_not_counted(self):
        tl = QuoteTimeline(
            states((1, 100, 101, 5, 5), (5, 101, 102, 5, 5), (9, 100, 101, 2, 2))
        )
        out = mid_change_times(tl, t0_ns=5)
        assert out == [(9, 0)]


class TestUniformTimeSampling:
    def test_draw_strictly_inside(self):
        tl = QuoteTimeline(states((0, 100, 101, 3, 7)))
        rng = np.random.default_rng(0)
        for _ in range(200):
            t, imb, nb, na = sample_uniform_time(tl, 10, 20, rng)
            assert 10 < t < 20
            assert imb == pytest.approx((3 - 7) / 10)

    def test_reproducible_given_seed(self):
        tl = QuoteTimeline(states((0, 100, 101, 3, 7)))
        a = sample_uniform_time(tl, 0, 10**9, np.random.default_rng(7))
        b = sample_uniform_time(tl, 0, 10**9, np.random.default_rng(7))
        assert a == b

    def test_uniformity_ks_99(self):
        tl = QuoteTimeline(states((0, 100, 101, 3, 7)))
        rng = np.random.default_rng(12345)
        width = 10**9
        draws = np.array(
            [sample_uniform_time(tl, 0, width, rng)[0] for _ in range(100_000)],
            dtype=float,
        )
        stat = sps.kstest(draws / width, "uniform").pvalue
        assert stat > 0.01

    def test_one_sided_skipped(self):
        tl = QuoteTimeline(states((0, 100, None, 3, 0)))
        with pytest.raises(OneSidedBook):
            sample_uniform_time(tl, 10, 20, np.random.default_rng(0))

    def test_empty_interior(self):
        tl = QuoteTimeline(states((0, 100, 101, 3, 7)))
        with pytest.raises(EmptyInterior):
            sample_uniform_time(tl, 10, 11, np.random.default_rng(0))


class TestEventTimeSampling:
    def _timeline(self):
        rows = [(0, 100, 101, 5, 5)]
        for i, t in enumerate(range(10, 80, 10)):  # updates at 10..70
            rows.append((t, 100, 101, 5 + i + 1, 5))
        return QuoteTimeline(states(*rows))

    def test_single_update_chosen_surely(self):
        tl = QuoteTimeline(
            states((0, 100, 101, 5, 5), (50, 100, 101, 9, 5))
        )
        rng = np.random.default_rng(0)
        t, imb, nb, na, fb = sample_event_time(tl, 0, 100, rng)
        assert t == 50 and not fb
        assert nb == 9

    def test_chi_square_uniform_over_updates(self):
        tl = self._timeline()
        rng = np.random.default_rng(99)
        counts = {t: 0 for t in range(10, 80, 10)}
        n = 21_000
        for _ in range(n):
            t, *_ = sample_event_time(tl, 0, 100, rng)
            counts[t] += 1
        stat = sps.chisquare(list(counts.values())).pvalue
        assert stat > 0.001

    def test_fallback_to_interval_start(self):
        tl = QuoteTimeline(states((5, 100, 101, 3, 7)))
        t, imb, nb, na, fb = sample_event_time(tl, 5, 50, np.random.default_rng(1))
        assert fb and t == 5
        assert imb == pytest.approx(-0.4)

    def test_endpoints_excluded(self):
        tl = QuoteTimeline(
            states((0, 100, 101, 5, 5), (10, 100, 101, 6, 5), (50, 100, 101, 7, 5))
        )
        rng = np.random.default_rng(3)
        for _ in range(50):
            t, *_rest, fb = sample_event_time(tl, 10, 50, rng)
            assert fb is False or t == 10
            if not fb:
                assert 10 < t < 50


class TestSubsample:
    def test_exact_size(self):
        pts = [SamplePoint("X", 0, i, i + 1, 0.0, 1) for i in range(2500)]
        out, flagged = subsample_day(pts, 100, np.random.default_rng(0))
        assert len(out) == 100 and not flagged
        assert len(set(p.t_sample_ns for p in out)) == 100

    def test_short_day_flagged(self):
        pts = [SamplePoint("X", 0, i, i + 1, 0.0, 1) for i in range(60)]
        out, flagged = subsample_day(pts, 100, np.random.default_rng(0))
        assert len(out) == 60 and flagged

    def test_same_seed_identical(self):
        pts = [SamplePoint("X", 0, i, i + 1, 0.0, 1) for i in range(500)]
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

    def test_partition_property(self):
        train, test = split_indices(137, 0.8, np.random.default_rng(5))
        assert sorted(train.tolist() + test.tolist()) == list(range(137))
        assert not set(train.tolist()) & set(test.tolist())

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            split_indices(4, 0.8)


@pytest.fixture(scope="module")
def sim_day():
    return simulate(regime_preset("large-tick", seed=77, horizon=60.0))


class TestDayPipeline:
    def test_labels_match_recomputed_mid_changes(self, sim_day):
        rng = np.random.default_rng(1)
        ds = build_day_samples(
            sim_day.timeline, sim_day.first_event_ns, sim_day.end_ns, UNIFORM, rng
        )
        tl = QuoteTimeline(sim_day.timeline)
        changes = dict(mid_change_times(tl, sim_day.first_event_ns))
        assert len(ds.points) > 50
        for p in ds.points:
            assert p.label == changes[p.t_change_ns]
            assert p.t_sample_ns < p.t_change_ns
            assert -1.0 < p.imbalance < 1.0

    def test_uniform_and_event_modes_share_labels(self, sim_day):
        u = build_day_samples(
            sim_day.timeline, sim_day.first_event_ns, sim_day.end_ns, UNIFORM,
            np.random.default_rng(1),
        )
        e = build_day_samples(
            sim_day.timeline, sim_day.first_event_ns, sim_day.end_ns, EVENT,
            np.random.default_rng(2),
        )
        assert [(p.t_change_ns, p.label) for p in u.points] == [
            (p.t_change_ns, p.label) for p in e.points
        ]

    def test_full_day_determinism(self, sim_day):
        a = build_day_samples(
            sim_day.timeline, sim_day.first_event_ns, sim_day.end_ns, UNIFORM,
            np.random.default_rng(42),
        )
        b = build_day_samples(
            sim_day.timeline, sim_day.first_event_ns, sim_day.end_ns, UNIFORM,
            np.random.default_rng(42),
        )
        assert a.points == b.points

    def test_strict_interior_for_non_fallback(self, sim_day):
        ds = build_day_samples(
            sim_day.timeline, sim_day.first_event_ns, sim_day.end_ns, EVENT,
            np.random.default_rng(9),
        )
        tl = QuoteTimeline(sim_day.timeline)
        changes = [t for t, _ in mid_change_times(tl, sim_day.first_event_ns)]
        prev = {t: p for t, p in zip(changes, [sim_day.first_event_ns] + changes[:-1])}
        for p in ds.points:
            if not p.fallback:
                assert prev[p.t_change_ns] < p.t_sample_ns < p.t_change_ns

    def test_changes_after_close_dropped(self, sim_day):
        close = sim_day.first_event_ns + 30 * 10**9
        ds = build_day_samples(
            sim_day.timeline, sim_day.first_event_ns, close, UNIFORM,
            np.random.default_rng(1),
        )
        assert ds.dropped_after_close > 0
        assert all(p.t_change_ns < close for p in ds.points)


class TestCsvRoundTrip:
    def test_schema_and_values(self, tmp_path):
        pts = [
            SamplePoint("SIM", 3, 36000000000001, 36000000002000, 1 / 3, 1),
            SamplePoint("SIM", 3, 36000000003000, 36000000004000, -0.123456789012345, 0),
        ]
        path = tmp_path / "samples.csv"
        write_samples_csv(path, pts)
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
