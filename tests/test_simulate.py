import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuecast import lobster as lb
from queuecast import simulate as sim
from queuecast.errors import ConfigError
from queuecast.book import BestQuoteState
from queuecast.lobster import integrate_timeline
from queuecast.simulate import ZiConfig, regime_preset, simulate

from oracles import integrated_timeline, process_counts, reference_order_flow


def small_cfg(**over):
    base = dict(
        limit_rate=1.0,
        levels=4,
        market_rate=0.8,
        cancel_rate=0.05,
        horizon=60.0,
        seed=42,
        initial_price=500,
        initial_spread=1,
        initial_levels=3,
        initial_depth=10,
    )
    base.update(over)
    return ZiConfig(**base)


class TestConfig:
    def test_all_rates_zero_gives_empty_flow(self):
        res = simulate(small_cfg(limit_rate=0.0, market_rate=0.0, cancel_rate=0.0))
        # the initial-book preamble is the only content
        assert all(code == lb.SUBMISSION for _, code, *_ in res.messages)
        assert all(t_ns == res.first_session_event_ns for t_ns, *_ in res.messages)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError, match="^levels must be >= 1$"):
            simulate(small_cfg(levels=0))
        for horizon in (0.0, 86401.0, math.nan):
            with pytest.raises(ConfigError, match="^horizon must be positive and at most 86400 s$"):
                simulate(small_cfg(horizon=horizon))
        with pytest.raises(ConfigError, match="^rates must be nonnegative$"):
            simulate(small_cfg(market_rate=-1.0))
        with pytest.raises(ConfigError, match="^initial book must occupy both sides$"):
            simulate(small_cfg(initial_depth=0))
        # not a whole number of price units, or below one
        for tick_size in (0.00015, 0.0, -0.01, math.nan):
            with pytest.raises(ConfigError, match=r"^tick_size must be a whole number of price "
                                                  r"units \(0\.0001\), at least one$"):
                simulate(small_cfg(tick_size=tick_size), False, False)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="^unknown regime preset 'medium'$"):
            regime_preset("medium")


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = simulate(small_cfg())
        b = simulate(small_cfg())
        assert a.messages == b.messages
        assert a.timeline == b.timeline
        text_a = "\n".join(lb.format_message(m) for m in a.messages)
        text_b = "\n".join(lb.format_message(m) for m in b.messages)
        assert text_a == text_b

    def test_different_seed_differs(self):
        a = simulate(small_cfg(seed=1))
        b = simulate(small_cfg(seed=2))
        assert a.messages != b.messages


class TestFlowProperties:
    def test_limit_only_flow_volume_nondecreasing(self):
        res = simulate(small_cfg(market_rate=0.0, cancel_rate=0.0, horizon=30.0))
        assert all(code == lb.SUBMISSION for _, code, *_ in res.messages)
        # every mid change must come from an inside-spread submission: the
        # half-tick mid path only moves when a submission improves a best
        mids = [st.mid2 for st in res.timeline if st.two_sided]
        assert len(mids) > 2
        # volume never decreases: replay and check total book size grows
        rep = lb.replay(iter(res.messages))
        assert rep.counters.events == len(res.messages)

    def test_records_are_best_quote_states(self):
        res = simulate(small_cfg(horizon=30.0))
        assert res.timeline and all(type(st_) is BestQuoteState for st_ in res.timeline)

    def test_messages_are_plain_tuples(self):
        res = simulate(small_cfg(horizon=30.0))
        assert res.messages and all(type(m) is tuple and len(m) == 6 for m in res.messages)

    def test_scaled_draw_stays_below_its_bound(self):
        # the flow draws a price offset as int(draw() * levels) and a cancel as
        # int(draw() * n_resting), unclamped; the product rises with the draw,
        # so the largest draw below 1.0 must truncate below n
        u = np.nextafter(1.0, 0.0)
        small = np.arange(1, 2**20 + 1, dtype=np.int64)
        large = np.random.default_rng(0).integers(1, 2**53, size=10**6)
        for n in (small, large):
            assert ((u * n.astype(np.float64)).astype(np.int64) < n).all()
        assert all(int(float(u) * n) < n for n in large[:1000].tolist())

    def test_time_strictly_monotone_after_preamble(self):
        res = simulate(small_cfg())
        ts = [t_ns for t_ns, *_ in res.messages]
        assert ts == sorted(ts)

    def test_poisson_counts_within_4_sigma(self):
        cfg = small_cfg(horizon=400.0, seed=9)
        res = simulate(cfg)
        assert not res.side_depleted
        preamble = 2 * cfg.initial_levels * cfg.initial_depth
        end_ns = cfg.start_time_s * lb.NS + round(cfg.horizon * lb.NS)
        counts, order_ns = process_counts(res.messages, preamble, res.first_session_event_ns, end_ns)
        horizon = cfg.horizon
        expect_limit = cfg.limit_rate * cfg.levels * horizon
        expect_market = cfg.market_rate * horizon
        for key, mean in [
            ("buy_limit", expect_limit),
            ("sell_limit", expect_limit),
            ("buy_market", expect_market),
            ("sell_market", expect_market),
        ]:
            got = counts[key]
            assert abs(got - mean) < 4.0 * math.sqrt(mean), (key, got, mean)
        # cancellations: conditionally Poisson with mean delta * integral N dt
        cancel_mean = cfg.cancel_rate * order_ns / 1e9
        got = counts["cancel"]
        assert abs(got - cancel_mean) < 4.0 * math.sqrt(cancel_mean)

    def test_side_depletion_flags_and_ends_stream(self):
        # one resting order per side and an overwhelming market rate: the
        # first market order wipes a side out
        res = simulate(
            small_cfg(
                limit_rate=0.0,
                cancel_rate=0.0,
                market_rate=50.0,
                initial_levels=1,
                initial_depth=1,
                horizon=600.0,
            )
        )
        assert res.side_depleted
        _, code, *_ = res.messages[-1]
        assert code == lb.EXECUTION

    def test_round_trip_reproduces_ground_truth(self):
        cfg = small_cfg(horizon=120.0, seed=5)
        res = simulate(cfg)
        text = "".join(lb.format_message(m) + "\n" for m in res.messages)
        msgs = list(lb.parse_messages(io.StringIO(text)))
        rep = lb.replay(msgs, record_l1=True)
        assert rep.l1_rows == res.l1_rows
        assert rep.timeline == res.timeline
        # with the horizon as the session window, replay's statistics are
        # the simulator's own
        window = lb.SessionWindow(cfg.start_time_s, cfg.start_time_s + 120)
        assert lb.replay(msgs, window=window).stats == res.stats


class TestUnrecordedSession:
    """A session run without messages and level-1 rows (a pipeline day's)
    is the recorded session minus those two lists."""

    sessions = pytest.mark.parametrize(
        "cfg",
        [
            regime_preset("large-tick", seed=3, horizon=60.0),
            regime_preset("small-tick", seed=3, horizon=120.0),
            small_cfg(limit_rate=0.0, cancel_rate=0.0, market_rate=50.0,
                      initial_levels=1, initial_depth=1, horizon=600.0),
        ],
        ids=["large-tick", "small-tick", "side-depleted"],
    )

    @sessions
    def test_matches_recorded_session(self, cfg):
        full = simulate(cfg)
        lean = sim.simulate(cfg, False, False)
        assert full.messages and full.l1_rows
        assert lean.messages == [] and lean.l1_rows == []
        for name in ("timeline", "stats", "counters", "side_depleted", "first_session_event_ns"):
            assert getattr(lean, name) == getattr(full, name), name

    @sessions
    def test_records_are_best_quote_states(self, cfg):
        window = lb.SessionWindow(cfg.start_time_s, cfg.start_time_s + 30)
        res = sim.simulate(cfg, False, False, window=window)
        assert res.timeline and all(type(st_) is BestQuoteState for st_ in res.timeline)


class TestFlowOracle:
    """The simulator's message stream is the reference generator's, message
    for message, and so is its side-depletion flag."""

    CASES = {
        "large-tick": lambda seed: regime_preset("large-tick", seed=seed, horizon=8.0),
        "small-tick": lambda seed: regime_preset("small-tick", seed=seed, horizon=60.0),
        # market orders outpace a thin book: a side runs out within the horizon
        "side-depleting": lambda seed: small_cfg(
            seed=seed, limit_rate=0.2, market_rate=4.0, cancel_rate=0.1,
            initial_levels=2, initial_depth=2, horizon=120.0),
        # orders of three shares
        "sized": lambda seed: small_cfg(seed=seed, order_size=3, horizon=40.0),
    }

    @settings(deadline=None, max_examples=40)
    @given(case=st.sampled_from(sorted(CASES)), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_flow(self, case, seed):
        cfg = self.CASES[case](seed)
        res = simulate(cfg)
        messages, depleted = reference_order_flow(cfg)
        assert res.messages == messages
        assert res.side_depleted == depleted

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_case_runs_its_path(self, case):
        # the side-depleting case depletes, the others run to the horizon
        assert simulate(self.CASES[case](11)).side_depleted == (case == "side-depleting")


class TestPresets:
    def test_large_tick_regime_measurements(self):
        stats_all = []
        for day in range(3):
            res = simulate(regime_preset("large-tick", seed=1000 + day))
            assert not res.side_depleted
            stats_all.append(res.stats)
        rec_spread = sum(s.spread_time_integral for s in stats_all) / sum(
            s.two_sided_ns for s in stats_all
        )
        rec_nb = sum(s.nb_time_integral for s in stats_all) / sum(
            s.two_sided_ns for s in stats_all
        )
        assert 1.0 <= rec_spread <= 1.5
        assert rec_nb >= 50.0

    def test_small_tick_regime_measurements(self):
        stats_all = []
        for day in range(3):
            res = simulate(regime_preset("small-tick", seed=1000 + day))
            assert not res.side_depleted
            stats_all.append(res.stats)
        rec_spread = sum(s.spread_time_integral for s in stats_all) / sum(
            s.two_sided_ns for s in stats_all
        )
        rec_nb = sum(s.nb_time_integral for s in stats_all) / sum(
            s.two_sided_ns for s in stats_all
        )
        assert rec_spread >= 5.0
        assert rec_nb <= 10.0


class TestIntegrateTimeline:
    def test_piecewise_constant_integral(self):
        tl = [
            BestQuoteState(0, 10, 12, 5, 3),
            BestQuoteState(100, 10, 11, 5, 7),
            BestQuoteState(300, None, 11, 0, 7),
        ]
        nb, na, sp, cov = integrate_timeline(tl, 0, 400)
        assert cov == 300
        assert nb == 5 * 100 + 5 * 200
        assert na == 3 * 100 + 7 * 200
        assert sp == 2 * 100 + 1 * 200

    def test_window_clipping(self):
        tl = [BestQuoteState(0, 10, 12, 5, 3)]
        nb, na, sp, cov = integrate_timeline(tl, 50, 80)
        assert cov == 30 and nb == 150

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_matches_naive_integration(self, data):
        # records with rising times, some one-sided, some before the open
        # and some at or after the close; the empty timeline too
        times = sorted(data.draw(st.sets(st.integers(0, 120), max_size=8)))
        price = st.one_of(st.none(), st.integers(1, 20))
        timeline = []
        for t in times:
            bid, ask = data.draw(price), data.draw(price)
            if bid is not None and ask is not None and ask <= bid:
                bid, ask = ask, bid + 1
            nb = data.draw(st.integers(1, 9)) if bid is not None else 0
            na = data.draw(st.integers(1, 9)) if ask is not None else 0
            timeline.append(BestQuoteState(t, bid, ask, nb, na))
        open_ns = data.draw(st.integers(0, 120))
        close_ns = data.draw(st.integers(open_ns, 140))
        assert integrate_timeline(timeline, open_ns, close_ns) == integrated_timeline(
            timeline, open_ns, close_ns)

    def test_empty_timeline_integrates_to_zero(self):
        assert integrate_timeline([], 0, 100) == (0, 0, 0, 0)
