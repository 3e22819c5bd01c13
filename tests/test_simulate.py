import io
import math

import pytest

from queuecast import lobster as lb
from queuecast import simulate as sim
from queuecast.errors import DegenerateConfig, UnknownPreset
from queuecast.book import BestQuoteState
from queuecast.lobster import integrate_timeline
from queuecast.simulate import ZiConfig, regime_preset, simulate


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
        assert all(m.type_code == lb.SUBMISSION for m in res.messages)
        assert all(m.t_ns == res.first_event_ns for m in res.messages)

    def test_bad_config_rejected(self):
        with pytest.raises(DegenerateConfig):
            simulate(small_cfg(levels=0))
        with pytest.raises(DegenerateConfig):
            simulate(small_cfg(horizon=0.0))
        with pytest.raises(DegenerateConfig):
            simulate(small_cfg(market_rate=-1.0))
        with pytest.raises(DegenerateConfig):
            simulate(small_cfg(initial_depth=0))

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
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
        assert all(m.type_code == lb.SUBMISSION for m in res.messages)
        # every mid change must come from an inside-spread submission: the
        # half-tick mid path only moves when a submission improves a best
        mids = [st.mid2 for st in res.timeline if st.two_sided]
        assert len(mids) > 2
        # volume never decreases: replay and check total book size grows
        rep = lb.replay(iter(res.messages))
        assert rep.counters.events == len(res.messages)

    def test_time_strictly_monotone_after_preamble(self):
        res = simulate(small_cfg())
        ts = [m.t_ns for m in res.messages]
        assert ts == sorted(ts)

    def test_poisson_counts_within_4_sigma(self):
        cfg = small_cfg(horizon=400.0, seed=9)
        res = simulate(cfg)
        assert not res.side_depleted
        horizon = cfg.horizon
        expect_limit = cfg.limit_rate * cfg.levels * horizon
        expect_market = cfg.market_rate * horizon
        for key, mean in [
            ("buy_limit", expect_limit),
            ("sell_limit", expect_limit),
            ("buy_market", expect_market),
            ("sell_market", expect_market),
        ]:
            got = res.process_counts[key]
            assert abs(got - mean) < 4.0 * math.sqrt(mean), (key, got, mean)
        # cancellations: conditionally Poisson with mean delta * integral N dt
        cancel_mean = cfg.cancel_rate * res.order_ns / 1e9
        got = res.process_counts["cancel"]
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
        assert res.messages[-1].type_code == lb.EXECUTION

    def test_round_trip_reproduces_ground_truth(self):
        res = simulate(small_cfg(horizon=120.0, seed=5))
        text = "".join(lb.format_message(m) + "\n" for m in res.messages)
        msgs = list(lb.parse_messages(io.StringIO(text)))
        rep = lb.replay(msgs, record_l1=True)
        assert rep.l1_rows == res.l1_rows
        assert rep.timeline == res.timeline
        # with the horizon as the session window, replay's statistics are
        # the simulator's own
        window = lb.SessionWindow(res.config.start_time_s, res.config.start_time_s + 120)
        assert lb.replay(msgs, window=window).stats == res.stats


class TestUnrecordedSession:
    """A session run without messages and level-1 rows (a pipeline day's)
    is the recorded session minus those two lists."""

    @pytest.mark.parametrize(
        "cfg",
        [
            regime_preset("large-tick", seed=3, horizon=60.0),
            regime_preset("small-tick", seed=3, horizon=120.0),
            small_cfg(limit_rate=0.0, cancel_rate=0.0, market_rate=50.0,
                      initial_levels=1, initial_depth=1, horizon=600.0),
        ],
        ids=["large-tick", "small-tick", "side-depleted"],
    )
    def test_matches_recorded_session(self, cfg):
        full = simulate(cfg)
        lean = sim._session(cfg)
        assert full.messages and full.l1_rows
        assert lean.messages == [] and lean.l1_rows == []
        for name in ("timeline", "stats", "process_counts", "side_depleted", "order_ns",
                     "first_event_ns", "end_ns"):
            assert getattr(lean, name) == getattr(full, name), name


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
