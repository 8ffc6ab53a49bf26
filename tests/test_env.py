import numpy as np
import pytest

from clmmlab import env as envmod
from clmmlab.amm import mint_band
from clmmlab.backtest import BacktestResult, RunConfig, RunError, write_run_dir
from clmmlab.cli import main
from clmmlab.env import EnvConfig, LPEnv
from clmmlab.features import compute_feature_matrix
from clmmlab.marketdata import Candle, CandleSeries, synth_gbm

from oracles import fee_over_path, lvr_vform_oracle, micro_fee_oracle

T0 = 1609459200
HOUR = 3600


def flat_rows(n, p=100.0):
    return [Candle(T0 + HOUR * i, p, p, p, p, 5.0) for i in range(n)]


def flat_candles(n, p=100.0):
    return CandleSeries.from_rows(flat_rows(n, p))


def cfg(**kw):
    kw.setdefault("episode_length", 5)
    return EnvConfig(**kw)


def make_env(n_hours=300, seed=3, sigma=0.004, p0=100.0, **kw):
    candles = synth_gbm(p0, 0.0, sigma, n_hours, seed=seed)
    return LPEnv(candles, cfg(**kw))


class TestReset:
    def test_initial_account(self):
        env = make_env()
        env.reset(210)
        assert env.cash == 0.0
        assert env.width == 1
        assert abs(env.value - env.config.l0) < 1e-9

    def test_same_offset_same_state(self):
        env = make_env()
        env.reset(210)
        pos1, c1 = env.position, env.center_tick
        env.reset(210)
        assert env.position == pos1
        assert env.center_tick == c1

    def test_offset_inside_warmup_rejected(self):
        candles = synth_gbm(100.0, 0.0, 0.004, 300, seed=3)
        env = LPEnv(candles, cfg(), compute_feature_matrix(candles))
        with pytest.raises(ValueError):
            env.reset(150)

    def test_offset_without_full_episode_rejected(self):
        env = make_env()
        with pytest.raises(ValueError):
            env.reset(299)
        env.reset(env.max_offset())

    def test_sample_offset_bounds(self):
        env = make_env()
        rng = np.random.default_rng(0)
        offs = [env.sample_offset(rng) for _ in range(200)]
        assert min(offs) >= env.min_offset()
        assert max(offs) <= env.max_offset()


class TestStep:
    def test_flat_hour_hold_is_free(self):
        env = LPEnv(flat_candles(260), cfg())
        env.reset(210)
        c0, pos0 = env.cash, env.position
        obs, r, done, record = env.step(0)
        assert r == 0.0
        assert record.fee == 0.0 and record.lvr == 0.0 and record.gas == 0.0
        assert env.cash == c0
        assert env.position == pos0
        assert env.t == 211

    def test_action_validation(self):
        env = make_env()
        env.reset(210)
        with pytest.raises(ValueError):
            env.step(-1)
        with pytest.raises(ValueError):
            env.step(11)

    def test_step_after_done_rejected(self):
        env = make_env(episode_length=1)
        env.reset(210)
        _, _, done, _ = env.step(0)
        assert done
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_reward_formula_on_reallocation(self):
        env = make_env(sigma=0.01)
        env.reset(210)
        _, r, _, record = env.step(3)
        assert record.gas == env.config.gas == 1.0
        assert r == pytest.approx(-1.0 + record.fee + record.lvr, abs=1e-15)
        assert env.width == 3

    def test_unhedged_reward_uses_value_change(self):
        env = make_env(sigma=0.01, reward_mode="unhedged")
        env.reset(210)
        _, r, _, record = env.step(2)
        assert r == pytest.approx(-1.0 + record.fee + record.dv, abs=1e-15)

    def test_cash_rule(self):
        env = make_env(sigma=0.01)
        env.reset(210)
        _, _, _, i1 = env.step(0)
        assert env.cash == pytest.approx(i1.fee)
        _, _, _, i2 = env.step(0)
        assert env.cash == pytest.approx(i1.fee + i2.fee)
        _, _, _, i3 = env.step(2)
        assert env.cash == pytest.approx(i3.fee)

    def test_wealth_invested_at_reallocation(self):
        env = make_env(sigma=0.01)
        env.reset(210)
        env.step(0)
        close = env.candles[env.t].close
        budget = env.cash + env.value
        env.step(4)
        assert env.position.value(close) == pytest.approx(budget, abs=1e-9)

    def test_reallocation_spends_last_records_value_and_cash(self, monkeypatch):
        """A reallocation's budget is the cash and value of the hour before,
        bit for bit, and that value is amm's value of the old position at
        the close, inside the band or outside it."""
        budgets = []

        def spy(price, width, spacing, budget):
            budgets.append(budget)
            return mint_band(price, width, spacing, budget)

        env = make_env(sigma=0.02, episode_length=150)
        env.reset(10)
        monkeypatch.setattr(envmod, "mint_band", spy)
        rng = np.random.default_rng(13)
        before, reallocations, outside = None, 0, 0
        for action in rng.integers(0, 4, size=150).tolist():
            position, close = env.position, env.candles[env.t].close
            budgets.clear()
            _, _, _, record = env.step(action)
            if before is None:
                before = record
                continue
            assert float.hex(before.value) == float.hex(position.value(close))
            outside += not position.price_lower < close < position.price_upper
            if action:
                reallocations += 1
                assert [float.hex(b) for b in budgets] == [float.hex(before.cash + before.value)]
            before = record
        assert reallocations > 50 and outside > 10


class TestEpisodeIdentities:
    def run_episode(self, env, actions, offset=210):
        env.reset(offset)
        records, rewards = [], []
        for a in actions:
            _, r, done, record = env.step(a)
            rewards.append(r)
            records.append(record)
            if done:
                break
        return rewards, records

    def test_reward_decomposition_hedged(self):
        env = make_env(sigma=0.012, episode_length=60)
        rng = np.random.default_rng(7)
        actions = rng.integers(0, 4, size=60)
        rewards, records = self.run_episode(env, actions)
        total_fee = sum(r.fee for r in records)
        total_lvr = sum(r.lvr for r in records)
        n_re = sum(r.action != 0 for r in records)
        assert sum(rewards) == pytest.approx(total_fee - env.config.gas * n_re + total_lvr,
                                             abs=1e-9)

    def test_reward_decomposition_unhedged(self):
        env = make_env(sigma=0.012, episode_length=60, reward_mode="unhedged")
        rng = np.random.default_rng(8)
        actions = rng.integers(0, 4, size=60)
        rewards, records = self.run_episode(env, actions)
        total = sum(r.fee for r in records) + sum(r.dv for r in records)
        total -= env.config.gas * sum(r.action != 0 for r in records)
        assert sum(rewards) == pytest.approx(total, abs=1e-9)

    def test_wealth_conservation(self):
        env = make_env(sigma=0.012, episode_length=80)
        rng = np.random.default_rng(9)
        actions = rng.integers(0, 3, size=80)
        _, records = self.run_episode(env, actions)
        wealth = env.cash + env.value
        expected = env.config.l0 + sum(r.fee + r.dv for r in records)
        assert wealth == pytest.approx(expected, abs=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(11)
        actions = list(rng.integers(0, 5, size=40))
        r1, _ = self.run_episode(make_env(sigma=0.01, episode_length=40), actions)
        r2, _ = self.run_episode(make_env(sigma=0.01, episode_length=40), actions)
        assert r1 == r2

    def test_path_models_agree_without_wicks(self):
        # intra_factor 0 pins high/low to the open/close bracket
        candles = synth_gbm(100.0, 0.0, 0.01, 300, seed=13, intra_factor=0.0)
        rng = np.random.default_rng(5)
        actions = list(rng.integers(0, 4, size=50))
        ra, _ = self.run_episode(
            LPEnv(candles, cfg(episode_length=50, path_model="candle")), actions)
        rb, _ = self.run_episode(
            LPEnv(candles, cfg(episode_length=50, path_model="open-close")), actions)
        assert ra == rb

    def test_swap_replay_rejected(self, tmp_path, capsys):
        # no swaps are ever ingested, so the model is gone rather than
        # silently equal to open-close
        assert envmod.PATH_MODELS == ("candle", "open-close")
        with pytest.raises(ValueError, match="path_model must be one of"):
            cfg(path_model="swap-replay")
        with pytest.raises(RunError, match="path_model must be one of"):
            RunConfig(method="tau-reset", path_model="swap-replay")
        code = main(["backtest", "--method", "tau-reset", "--tau", "4",
                     "--candles", "unused.csv", "--path-model", "swap-replay",
                     "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err.strip()
        assert code == 1
        assert err.startswith("error: config: path_model must be one of")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("model", ["bogus", "swap-replay", "Candle", ""])
    def test_hour_path_rejects_unknown_model(self, model):
        series = CandleSeries.from_rows([Candle(T0, 98.0, 99.5, 97.0, 99.0, 1.0),
                                         Candle(T0 + 3600, 100.0, 101.0, 99.0, 100.5, 1.0),
                                         Candle(T0 + 7200, 100.0, 102.0, 97.5, 98.0, 1.0)])
        assert envmod.hour_paths(series, "candle").tolist() == [
            [99.0, 100.0, 99.0, 101.0, 100.5], [100.5, 100.0, 102.0, 97.5, 98.0]]
        assert envmod.hour_paths(series, "open-close").tolist() == [
            [99.0, 100.0, 100.5], [100.5, 100.0, 98.0]]
        with pytest.raises(ValueError) as exc:
            envmod.hour_paths(series, model)
        with pytest.raises(ValueError) as cfg_exc:
            cfg(path_model=model)
        assert str(exc.value) == str(cfg_exc.value)
        assert str(exc.value) == (
            f"path_model must be one of ('candle', 'open-close'), got {model!r}")


class TestRangeExitOracle:
    def test_fee_and_lvr_against_micro_oracle(self):
        candles = flat_rows(215)
        # hour 211 rallies through the upper bound of a width-1 band
        candles[211] = Candle(T0 + HOUR * 211, 100.0, 103.0, 100.0, 102.5, 5.0)
        candles[212] = Candle(T0 + HOUR * 212, 102.5, 102.5, 102.5, 102.5, 5.0)
        env = LPEnv(CandleSeries.from_rows(candles), cfg(episode_length=2))
        env.reset(210)
        pos = env.position
        assert candles[211].close > pos.price_upper  # the path really exits
        _, _, _, record = env.step(0)
        path = [100.0, 100.0, 100.0, 103.0, 102.5]
        oracle_fee = micro_fee_oracle(
            pos.liquidity, pos.price_lower, pos.price_upper, path,
            env.config.pool.fee_tier)
        assert record.fee == pytest.approx(oracle_fee, rel=1e-6)
        assert record.lvr < 0.0
        assert record.lvr == pytest.approx(
            lvr_vform_oracle(pos.liquidity, pos.price_lower, pos.price_upper, path),
            abs=1e-9)
        # out-of-range segment earns nothing: unclipped fee would be larger
        unclipped = fee_over_path(
            pos.liquidity, pos.price_lower * 0.5, pos.price_upper * 2.0,
            path, env.config.pool.fee_tier)
        assert record.fee < unclipped


class TestObservations:
    def test_observation_shape_and_account_slots(self):
        candles = synth_gbm(100.0, 0.0, 0.005, 260, seed=21)
        env = LPEnv(candles, EnvConfig(episode_length=5),
                    compute_feature_matrix(candles))
        obs = env.reset(210)
        assert obs.shape == (32,)
        assert obs[28] == 0.0  # no cash yet
        assert obs[31] == pytest.approx(1.0)  # l / l0
        assert obs[30] == pytest.approx(1 / 10)
        obs2, _, _, _ = env.step(0)
        assert obs2.shape == (32,)

    def test_no_features_means_no_observation(self):
        env = make_env()
        assert env.features is None
        assert env.reset(210) is None


def ledger_result(fees, gases, lvrs, l0=250.0):
    """A hedged BacktestResult whose hourly ledger is given column by column."""
    records = [envmod.HourRecord(t=t, action=0, fee=f, lvr=v, gas=g, dv=0.0,
                                 reward=0.0, cash=0.0, center_tick=0, width=0,
                                 value=0.0, close=0.0)
               for t, (f, g, v) in enumerate(zip(fees, gases, lvrs), 1)]
    return BacktestResult(RunConfig(method="tau-reset", tau=1, l0=l0),
                          "0" * 12, 1, len(records), envmod.HourTrace.of_records(records))


class TestRelativePnl:
    def test_zero(self):
        assert ledger_result([0.0, 0.0], [0.0, 0.0], [0.0, 0.0]).relative_pnl() == 0.0

    def test_table_value(self):
        l0 = 250.0
        fee = 0.373 * l0 / 4 + 1.5
        res = ledger_result([fee] * 4, [1.0] * 4, [-0.5] * 4, l0)
        assert res.relative_pnl() == pytest.approx(0.373)

    def test_linearity(self):
        cols = ([1.0, 0.0, 3.5], [0.0, 2.0, 0.0], [-0.1, -0.2, 0.0])
        base = ledger_result(*cols).relative_pnl()
        scaled = ledger_result(*([5 * x for x in c] for c in cols)).relative_pnl()
        assert scaled == pytest.approx(5 * base)

    def test_bad_l0(self):
        with pytest.raises(RunError):
            RunConfig(method="tau-reset", tau=1, l0=0.0)


def test_trace_csv(tmp_path):
    env = make_env(sigma=0.01, episode_length=6)
    env.reset(210)
    records = []
    for a in [0, 2, 0, 0, 1, 0]:
        _, _, _, record = env.step(a)
        records.append(record)
    config = RunConfig(method="tau-reset", tau=1, seed=7)
    paths = write_run_dir(BacktestResult(config, "0" * 12, 210, 6,
                                         envmod.HourTrace.of_records(records)),
                          str(tmp_path))
    lines = open(paths["trace"]).read().strip().splitlines()
    assert lines[0] == ",".join(envmod.TRACE_CSV_HEADER + ["config_hash", "seed"])
    assert len(lines) == 7
    row = lines[2].split(",")
    assert row[1] == "2"
    assert row[2] == repr(records[1].fee)
    assert float(row[2]) == records[1].fee
    assert row[-1] == "7"
