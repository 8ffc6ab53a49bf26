import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from clmmlab import amm, backtest, cli, dqn, nets
from clmmlab.backtest import RunConfig
from clmmlab.baselines import (
    EWA_DEFAULTS,
    EWAConfig,
    TAU_DEFAULTS,
    WALK_HOURS,
    ewa_weights,
    run_ewa,
    run_tau_reset,
)
from clmmlab.dqn import (
    DDQNConfig,
    ReplayBuffer,
    TRAINING_LOG_HEADER,
    TrainingDiverged,
    ddqn_target,
    greedy_rollout,
    train_ddqn,
)
from clmmlab.env import PATH_MODELS, REWARD_MODES, EnvConfig
from clmmlab.marketdata import Candle, CandleSeries, save_candles_csv, synth_gbm
from clmmlab.nets import NetworkParams
from clmmlab.tabular import policy_value, value_iteration
from clmmlab import toymdp
from clmmlab.toymdp import (
    N_STATES,
    ToyConfig,
    ToyPriceCycleEnv,
    build_tabular_mdp,
    greedy_policy_from_net,
    state_index,
    state_tuple,
)


def const_q_net(values, v0=None):
    """Zero-trunk net whose q-vector equals `values` for every input."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if v0 is None:
        v0 = values.mean()
    p = NetworkParams(
        w1=np.zeros((3, 2)), b1=np.zeros(2),
        w2=np.zeros((2, 2)), b2=np.zeros(2),
        wv=np.zeros((2, 1)), bv=np.array([v0]),
        wa=np.zeros((2, n)), ba=values - values.mean() + values.mean() - v0 + values - values,
    )
    # ba must satisfy v0 + ba - mean(ba) = values
    p.ba[:] = values - v0
    return p


class TestValueIteration:
    def test_geometric_series(self):
        t = np.ones((1, 1, 1))
        r = np.ones((1, 1))
        q, pol = value_iteration(t, r, 0.9)
        assert q[0, 0] == pytest.approx(10.0, abs=1e-8)
        assert pol[0] == 0

    def test_zero_rewards(self):
        rng = np.random.default_rng(1)
        t = rng.dirichlet(np.ones(4), size=(4, 2))
        q, _ = value_iteration(t, np.zeros((4, 2)), 0.9)
        assert np.all(np.abs(q) < 1e-9)

    def test_random_mdp_fixed_point(self):
        rng = np.random.default_rng(2)
        t = rng.dirichlet(np.ones(5), size=(5, 3))
        r = rng.normal(size=(5, 3))
        tol = 1e-10
        q, pol = value_iteration(t, r, 0.95, tol=tol)
        # one more sweep barely moves Q and leaves the greedy policy unchanged
        q2 = r + 0.95 * t @ q.max(axis=1)
        assert np.max(np.abs(q2 - q)) < 100 * tol
        assert np.array_equal(q2.argmax(axis=1), pol)

    def test_non_stochastic_rows_rejected(self):
        t = np.ones((2, 1, 2))  # rows sum to 2
        with pytest.raises(ValueError):
            value_iteration(t, np.zeros((2, 1)), 0.9)

    def test_policy_value_of_optimal_policy(self):
        rng = np.random.default_rng(3)
        t = rng.dirichlet(np.ones(5), size=(5, 3))
        r = rng.normal(size=(5, 3))
        q, pol = value_iteration(t, r, 0.9)
        v = policy_value(pol, t, r, 0.9)
        assert np.allclose(v, q.max(axis=1), atol=1e-7)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(5, 2)
        for i in range(8):
            buf.add(np.full(2, i), i, float(i), np.full(2, i + 1))
        assert len(buf) == 5
        assert set(buf.actions.tolist()) == {3, 4, 5, 6, 7}

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(10, 1)
        for i in range(10):
            buf.add([i], i, 0.0, [i])
        rng = np.random.default_rng(0)
        _, actions, _, _ = buf.sample(10, rng)
        assert sorted(actions.tolist()) == list(range(10))

    def test_sample_too_large(self):
        buf = ReplayBuffer(10, 1)
        buf.add([0], 0, 0.0, [0])
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))


def one_target(r, local, target):
    """ddqn_target on a batch of one transition from the zero state."""
    y = ddqn_target(np.array([r]), np.zeros((1, 3)), local, target, 0.9)
    assert y.shape == (1,)
    return y[0]


class TestDdqnTarget:
    def test_formula(self):
        local = const_q_net([0.2, 0.8])
        target = const_q_net([0.0, 0.5])
        assert one_target(1.0, local, target) == pytest.approx(1.45)

    def test_tie_breaks_to_lowest_action(self):
        local = const_q_net([0.5, 0.5])
        target = const_q_net([2.0, 7.0])
        assert one_target(0.0, local, target) == pytest.approx(0.9 * 2.0)

    def test_reward_shift_moves_target_exactly(self):
        local = const_q_net([0.1, 0.9])
        target = const_q_net([0.4, 0.6])
        base = one_target(1.0, local, target)
        shifted = one_target(1.0 + 0.625, local, target)
        assert shifted - base == pytest.approx(0.625, abs=1e-12)

    def test_batched(self):
        local = const_q_net([0.2, 0.8])
        target = const_q_net([0.0, 0.5])
        y = ddqn_target(np.array([1.0, 2.0]), np.zeros((2, 3)), local, target, 0.9)
        assert y[0] == pytest.approx(1.45)
        assert y[1] == pytest.approx(2.45)


class RecordingEnv(ToyPriceCycleEnv):
    def __init__(self, config=None, fixed_offset=0):
        super().__init__(config)
        self.fixed_offset = fixed_offset
        self.recorded = []

    def sample_offset(self, rng):
        return self.fixed_offset

    def step(self, action):
        self.recorded.append(int(action))
        return super().step(action)


class TestTrainDdqn:
    def test_budget_below_warm_start_returns_initial_params(self):
        cfg = DDQNConfig(warm_start=10_000)
        env, ev = ToyPriceCycleEnv(), ToyPriceCycleEnv()
        res = train_ddqn(env, ev, cfg, budget=100, seed=5)
        fresh = nets.init_params(toymdp.OBS_DIM, env.config.n_actions + 1, seed=5)
        for n, a in fresh.arrays():
            assert np.array_equal(getattr(res.params, n), a)
        assert res.steps == 100

    def test_zero_epsilon_matches_greedy_rollout(self, monkeypatch):
        monkeypatch.setattr(dqn, "EPS_START", 0.0)
        monkeypatch.setattr(dqn, "EPS_END", 0.0)
        cfg = DDQNConfig(warm_start=10 ** 9)
        env = RecordingEnv(fixed_offset=2)
        res = train_ddqn(env, ToyPriceCycleEnv(), cfg, budget=64, seed=7)
        _, greedy_actions, _ = greedy_rollout(ToyPriceCycleEnv(), res.params, 2)
        assert env.recorded == greedy_actions

    def test_greedy_acts_in_one_activation_set(self, monkeypatch):
        """A greedy rollout and a training run each size one batch-1
        activation set and never call nets.forward, which allocates one per
        call; the actions are those of nets.forward, state by state."""
        params = nets.init_params(toymdp.OBS_DIM, ToyConfig().n_actions + 1, seed=3)
        total, actions, _ = greedy_rollout(ToyPriceCycleEnv(), params, 2)
        env, want = ToyPriceCycleEnv(), []
        obs, done = env.reset(2), False
        while not done:
            want.append(int(nets.forward(params, obs)[0].argmax()))
            obs, _, done, _ = env.step(want[-1])
        assert actions == want

        sized = []
        real = nets._activations

        def counted(rows, layout):
            sized.append(rows)
            return real(rows, layout)

        def no_forward(*args, **kwargs):
            raise AssertionError("nets.forward allocated a greedy act's activations")

        monkeypatch.setattr(nets, "_activations", counted)
        monkeypatch.setattr(nets, "forward", no_forward)
        assert greedy_rollout(ToyPriceCycleEnv(), params, 2)[:2] == (total, actions)
        assert sized == [1]
        sized.clear()
        cfg = DDQNConfig(batch_size=8, warm_start=10 ** 9, eval_every_episodes=1)
        res = train_ddqn(ToyPriceCycleEnv(), ToyPriceCycleEnv(), cfg, budget=64, seed=7)
        # the run's own, then one per evaluation (the Workspace sizes 2 * batch)
        assert sized == [16, 1] + [1] * res.episodes

    def test_fixed_values_are_not_settings(self):
        with pytest.raises(TypeError):
            DDQNConfig(gamma=0.5)

    @pytest.mark.parametrize("settings,message", [
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"buffer": 0}, "buffer must be >= batch_size=256, got 0"),
        ({"batch_size": 64, "buffer": 63}, "buffer must be >= batch_size=64, got 63"),
    ])
    def test_rejection_names_the_setting_at_fault(self, settings, message):
        with pytest.raises(ValueError) as err:
            DDQNConfig(**settings)
        assert str(err.value) == message

    def test_determinism(self):
        cfg = DDQNConfig(learning_rate=1e-3, batch_size=32, warm_start=200,
                         eval_every_episodes=5, buffer=10_000)
        r1 = train_ddqn(ToyPriceCycleEnv(), ToyPriceCycleEnv(), cfg, 1500, seed=3)
        r2 = train_ddqn(ToyPriceCycleEnv(), ToyPriceCycleEnv(), cfg, 1500, seed=3)
        for n, a in r1.params.arrays():
            assert np.array_equal(getattr(r2.params, n), a)
        assert r1.log == r2.log

    def test_nan_reward_raises_training_diverged(self):
        class NanRewardEnv(ToyPriceCycleEnv):
            def step(self, action):
                obs, _, done, record = super().step(action)
                return obs, math.nan, done, record

        cfg = DDQNConfig(batch_size=8, warm_start=8, buffer=100)
        with pytest.raises(TrainingDiverged, match="loss became nan"):
            train_ddqn(NanRewardEnv(), ToyPriceCycleEnv(), cfg, budget=50, seed=0)

    def test_training_log_csv(self, tmp_path, capsys):
        candles = str(tmp_path / "candles.csv")
        save_candles_csv(synth_gbm(2000.0, 0.0, 0.01, 420, seed=33), candles)
        out = tmp_path / "train"
        code = cli.main(["train", "--candles", candles, "--seed", "1",
                         "--episode-length", "40", "--budget", "400",
                         "--train-hours", "150", "--val-hours", "50",
                         "--out-dir", str(out)])
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        with open(out / "training_log.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRAINING_LOG_HEADER + ["config_hash", "seed"]
        # 10 episodes of 40 steps, evaluated once when the budget runs out
        assert len(rows) == 2
        assert rows[1][:2] == ["10", "400"]
        assert float(rows[1][4]) == run["best_val_return"]
        assert rows[1][-2:] == [run["config_hash"], "1"]


@pytest.fixture(scope="module")
def gbm_3202():
    return synth_gbm(2000.0, 0.0, 0.01, 3202, seed=9001)


def no_walk(*args, **kwargs):
    raise AssertionError("an hour was replayed before the settings were checked")


def scaled(candles, ticks):
    """The candles with every price times 1.0001**ticks."""
    f = 1.0001 ** ticks
    return CandleSeries.from_rows([Candle(c.timestamp, c.open * f, c.high * f, c.low * f,
                                          c.close * f, c.volume_usd) for c in candles])


def tau_records(*args):
    """run_tau_reset's trace as HourRecords."""
    return oracles.trace_records(run_tau_reset(*args))


def ewa_records(*args):
    """run_ewa's trace as HourRecords, and its final weights."""
    trace, weights = run_ewa(*args)
    return oracles.trace_records(trace), weights


class TestTauReset:
    def test_policy_rules(self):
        """A close outside the band held through the previous hour, and only
        such a close, resets into the width-tau band around that close; a
        close on a band edge holds."""
        spacing = EnvConfig().pool.tick_spacing
        center = amm.snap_tick(amm.price_to_tick(100.0), spacing)
        pa, pb = amm.band_for_center(center, 1, spacing)
        closes = [100.0, pb, pa, math.nextafter(pb, math.inf), 100.0]
        candles = CandleSeries.from_rows([Candle(3600 * i, p, p, p, p, 1.0)
                                          for i, p in enumerate(closes)])
        records = tau_records(candles, 0, 4, 1, EnvConfig())
        assert [r.action for r in records] == [0, 0, 0, 1]
        assert [r.gas for r in records] == [0.0, 0.0, 0.0, 1.0]
        assert records[3].center_tick == amm.snap_tick(amm.price_to_tick(closes[3]), spacing)

        candles = synth_gbm(100.0, 0.0, 0.015, 400, seed=4)
        records = tau_records(candles, 210, 150, 3, EnvConfig())
        center = amm.snap_tick(amm.price_to_tick(candles[210].close), spacing)
        for r in records:
            close = candles[r.t - 1].close  # the close the hour opens at
            pa, pb = amm.band_for_center(center, 3, spacing)
            if close < pa or close > pb:
                center = amm.snap_tick(amm.price_to_tick(close), spacing)
                assert r.action == 3
            else:
                assert r.action == 0
            assert (r.center_tick, r.width) == (center, 3)
        assert any(r.action for r in records)

    def test_run_resets_only_when_out_of_range(self):
        candles = synth_gbm(100.0, 0.0, 0.015, 400, seed=4)
        records = tau_records(candles, 210, 150, 3, EnvConfig())
        assert len(records) == 150
        # the episode opens at width tau: hour 0 holds it without reallocating
        assert (records[0].action, records[0].width) == (0, 3)
        assert any(r.action != 0 for r in records)  # vol is high enough to exit
        for prev, cur in zip(records, records[1:]):
            if cur.action != 0:
                assert cur.action == 3
        # after a reset the new width is tau
        first = next(r for r in records if r.action != 0)
        assert first.width == 3

    @pytest.mark.parametrize("sigma", [0.0, 0.02], ids=["held", "leaves"])
    @pytest.mark.parametrize("tau", [0, 11, 12])
    def test_tau_outside_actions_rejected_before_any_hour(self, monkeypatch, sigma, tau):
        """tau must be an action of the env: with a close that never leaves
        the band and with one that does, nothing is replayed."""
        candles = synth_gbm(100.0, 0.0, sigma, 300, seed=9)
        widest = oracles.run_tau_reset(candles, 210, 50, 12, EnvConfig(n_actions=12))
        assert any(r.action for r in widest) == (sigma > 0.0)
        monkeypatch.setattr("clmmlab.baselines.lvr_over_path", no_walk)
        with pytest.raises(ValueError, match=rf"^tau must be in 1..n_actions=10, got {tau}$"):
            run_tau_reset(candles, 210, 50, tau, EnvConfig(n_actions=10))

    @pytest.mark.parametrize("gas", [0.0, 1.0])
    @pytest.mark.parametrize("reward_mode", REWARD_MODES)
    @pytest.mark.parametrize("path_model", PATH_MODELS)
    def test_records_equal_env_replay(self, gbm_3202, path_model, reward_mode, gas):
        """The chunked replay gives the LPEnv replay's records bit for bit,
        at every tau of the env."""
        env = EnvConfig(l0=500.0, gas=gas, path_model=path_model, reward_mode=reward_mode)
        for tau in range(1, 11):
            got = tau_records(gbm_3202, 200, 600, tau, env)
            want = oracles.run_tau_reset(gbm_3202, 200, 600, tau, env)
            assert [repr(r) for r in got] == [repr(r) for r in want], tau

    @pytest.mark.parametrize("horizon", [1, WALK_HOURS - 1, WALK_HOURS, WALK_HOURS + 1, 3000])
    @pytest.mark.parametrize("path_model", PATH_MODELS)
    def test_horizons_equal_env_replay(self, gbm_3202, path_model, horizon):
        env = EnvConfig(path_model=path_model)
        for tau in (1, 6):
            got = tau_records(gbm_3202, 200, horizon, tau, env)
            assert len(got) == horizon
            want = oracles.run_tau_reset(gbm_3202, 200, horizon, tau, env)
            assert [repr(r) for r in got] == [repr(r) for r in want], tau

    # factors ~1e-6 and ~1e6, each a whole number of tick spacings
    @pytest.mark.parametrize("ticks", [-138180, 138180])
    @pytest.mark.parametrize("path_model", PATH_MODELS)
    def test_scaled_prices_equal_env_replay(self, gbm_3202, path_model, ticks):
        candles = scaled(gbm_3202[:801], ticks)
        env = EnvConfig(path_model=path_model)
        for tau in (1, 3, 10):
            got = tau_records(candles, 200, 600, tau, env)
            want = oracles.run_tau_reset(candles, 200, 600, tau, env)
            assert [repr(r) for r in got] == [repr(r) for r in want], tau

    @pytest.mark.parametrize("n_actions", [1, 12])
    def test_tau_of_the_widest_action_equals_env_replay(self, gbm_3202, n_actions):
        env = EnvConfig(n_actions=n_actions)
        got = tau_records(gbm_3202, 200, 600, n_actions, env)
        want = oracles.run_tau_reset(gbm_3202, 200, 600, n_actions, env)
        assert [repr(r) for r in got] == [repr(r) for r in want]

    def test_3000_hour_run_allocates_per_chunk(self, gbm_3202):
        """Peak traced allocation stays under 2 MB: the ledger walks a chunk
        of hours at a time, never the whole run in one array."""
        tracemalloc.start()
        try:
            run_tau_reset(gbm_3202, 200, 3000, 1, EnvConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def test_baseline_replays_build_no_bar_or_hour_objects(monkeypatch):
    """Loading, synthesis, tau-reset, EWA and the drift study run on columns:
    no Candle and no HourRecord is built on their paths."""
    from clmmlab import env as env_module, marketdata

    def refuse(*args, **kwargs):
        raise AssertionError("a per-candle or per-hour object was built")

    monkeypatch.setattr(marketdata, "Candle", refuse)
    monkeypatch.setattr(env_module, "HourRecord", refuse)
    fixture = marketdata.load_candles_csv(marketdata.bundled_candles_path())
    candles = synth_gbm(2000.0, 0.0, 0.01, 800, seed=4)
    for series in (fixture, candles):
        for config in (RunConfig(method="tau-reset", tau=3, offset=200, horizon=500),
                       RunConfig(method="ewa", ewa_widths=10, ewa_eta=1.0, ewa_t_re=24,
                                 offset=200, horizon=500)):
            assert len(backtest.run_backtest(series, config).trace) == 500
    backtest.drift_neutrality_study(n_seeds=2, horizon=50)


class TestEwa:
    def test_weights_uniform_when_zero(self):
        w = ewa_weights(np.zeros(5), eta=2.0)
        assert np.allclose(w, 0.2)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_softmax_example(self):
        w = ewa_weights([1.0, 0.0, 0.0], eta=1.0)
        e = math.e
        assert w[0] == pytest.approx(e / (e + 2), abs=1e-9)
        assert w[1] == pytest.approx(1 / (e + 2), abs=1e-9)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        r = np.array([0.3, -1.2, 2.0, 0.0])
        assert np.allclose(ewa_weights(r, 1.7), ewa_weights(r + 5.0, 1.7))

    def test_small_eta_near_uniform(self):
        w = ewa_weights([5.0, 0.0], eta=1e-9)
        assert np.allclose(w, 0.5, atol=1e-8)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EWAConfig(n_widths=0)
        with pytest.raises(ValueError):
            EWAConfig(eta=0.0)
        with pytest.raises(ValueError):
            EWAConfig(t_re=0)

    def test_trigger_cadence_and_gas(self):
        candles = synth_gbm(100.0, 0.0, 0.008, 300, seed=6)
        config = EWAConfig(n_widths=4, eta=1.0, t_re=3)
        records, weights = ewa_records(candles, 210, 8, config, EnvConfig(l0=250.0, gas=1.0))
        gas_hours = [r.t for r in records if r.gas > 0]
        assert gas_hours == [3, 6]
        assert all(r.gas in (0.0, 1.0) for r in records)  # one charge per event
        assert abs(weights.sum() - 1.0) < 1e-12

    def test_wealth_conservation(self):
        candles = synth_gbm(100.0, 0.0, 0.01, 300, seed=8)
        config = EWAConfig(n_widths=3, eta=2.0, t_re=5)
        records, _ = ewa_records(candles, 210, 40, config, EnvConfig(l0=250.0, gas=1.0))
        final = records[-1]
        wealth = final.cash + final.value
        expected = 250.0 + sum(r.fee + r.dv for r in records)
        assert wealth == pytest.approx(expected, abs=1e-9)

    def test_reward_is_hedged_net_of_gas(self):
        candles = synth_gbm(100.0, 0.0, 0.01, 300, seed=9)
        records, _ = ewa_records(candles, 210, 10, EWAConfig(3, 1.0, 4),
                             EnvConfig(l0=250.0, gas=1.0))
        for r in records:
            assert r.reward == pytest.approx(r.fee + r.lvr - r.gas, abs=1e-12)

    @pytest.mark.parametrize("path_model", ["candle", "open-close"])
    @pytest.mark.parametrize("n_widths,eta,t_re",
                             [(10, 1.0, 24), (5, 10.0, 12), (4, 2.0, 1), (1, 1.0, 7)])
    def test_matches_two_walk_oracle(self, path_model, n_widths, eta, t_re):
        candles = synth_gbm(2000.0, 0.0, 0.012, 520, seed=17)
        config = EWAConfig(n_widths, eta, t_re)
        got, w_got = ewa_records(candles, 210, 300, config,
                             EnvConfig(l0=500.0, gas=1.0, path_model=path_model))
        want, w_want = oracles.run_ewa(candles, 210, 300, config, l0=500.0,
                                       gas=1.0, path_model=path_model)
        assert w_got.tobytes() == w_want.tobytes()
        assert [r.action for r in got] == [i["action"] for i in want]
        for g, o in zip(got, want):
            for key in ("fee", "lvr", "dv", "cash", "value", "reward", "hedge_pnl"):
                value = g.lvr - g.dv if key == "hedge_pnl" else getattr(g, key)
                assert abs(value - o[key]) <= 1e-12 * max(1.0, abs(o[key])), key
        assert len(got) == len(want) == 300

    @pytest.mark.parametrize("path_model", ["candle", "open-close"])
    @pytest.mark.parametrize("n_widths,eta,t_re,horizon", [
        (10, 1.0, 24, 3000), (5, 10.0, 12, 3000), (1, 1.0, 1, 600), (3, 5.0, 1, 600),
        (10, 1.0, 7, 600), (7, 0.5, 3000, 3000), (4, 2.0, 2999, 3000),
        (10, 1.0, WALK_HOURS - 1, 600), (10, 1.0, WALK_HOURS, 600),
        (10, 1.0, WALK_HOURS + 1, 600)])
    def test_records_equal_per_width_replay(self, gbm_3202, path_model, n_widths,
                                            eta, t_re, horizon):
        """The chunk walk gives the per-width replay's records and weights
        exactly: the sweep's configs, reallocation every hour, t_re that
        does not divide the walk's chunk length, t_re next to it, and t_re
        beyond it."""
        config = EWAConfig(n_widths, eta, t_re)
        env = EnvConfig(l0=250.0, gas=1.0, path_model=path_model)
        got, w_got = ewa_records(gbm_3202, 200, horizon, config, env)
        want, w_want = oracles.run_ewa_per_width(gbm_3202, 200, horizon, config, env)
        assert len(got) == horizon
        assert [repr(r) for r in got] == [repr(r) for r in want]
        assert w_got.tobytes() == w_want.tobytes()

    @pytest.mark.parametrize("path_model", ["candle", "open-close"])
    @pytest.mark.parametrize("n_widths,eta,t_re,offset,horizon", [
        (10, 1.0, 24, 200, 3000), (5, 10.0, 12, 200, 3000), (4, 2.0, 1, 200, 600),
        (10, 1.0, 7, 211, 600), (4, 2.0, 257, 3, 1100), (7, 0.5, 3000, 200, 3000),
        (10, 1.0, WALK_HOURS - 1, 200, 600), (10, 1.0, WALK_HOURS, 200, 600),
        (10, 1.0, WALK_HOURS + 1, 200, 600), (3, 1.0, 5, 200, 1), (3, 1.0, 1, 200, 1)])
    def test_trace_equals_per_hour_replay(self, gbm_3202, path_model, n_widths, eta,
                                          t_re, offset, horizon):
        """A reallocation period at a time gives the per-hour replay's
        records and weights bit for bit: periods that a chunk end splits,
        one-hour periods, periods longer than a chunk, a one-hour run."""
        config = EWAConfig(n_widths, eta, t_re)
        env = EnvConfig(l0=250.0, gas=1.0, path_model=path_model)
        got, w_got = ewa_records(gbm_3202, offset, horizon, config, env)
        want, w_want = oracles.run_ewa_per_hour(gbm_3202, offset, horizon, config, env)
        assert [repr(r) for r in got] == [repr(r) for r in want]
        assert w_got.tobytes() == w_want.tobytes()

    def test_period_products_equal_hourly_products_on_every_kernel(self, tmp_path):
        """The stacked products of a period (ledger rows @ budgets, budgets @
        marks as a stack of columns) equal the hour-by-hour products on 200
        random spans, and run_ewa equals the per-hour replay, with numpy's
        and OpenBLAS's default kernels and with their narrowest; a single
        gemv over the marks does not equal them."""
        script = '''
import numpy as np, oracles
from clmmlab.baselines import EWAConfig, run_ewa
from clmmlab.env import EnvConfig
from clmmlab.marketdata import synth_gbm
rng = np.random.default_rng(0)
gemv_differs = 0
for _ in range(200):
    n, hours = int(rng.integers(1, 13)), int(rng.integers(1, 257))
    ledger = rng.random((hours, 3, n)) * 10.0 ** rng.integers(-8, 3)
    marks = rng.random((hours, n)) * 10.0 ** rng.integers(-3, 4)
    budgets = rng.random(n) * 100.0
    s = int(rng.integers(0, hours))
    e = int(rng.integers(s + 1, hours + 1))
    hourly = np.array([ledger[j] @ budgets for j in range(s, e)])
    assert (ledger[s:e] @ budgets).tobytes() == hourly.tobytes()
    values = np.array([float(budgets @ marks[j]) for j in range(s, e)])
    assert (budgets @ marks[s:e, :, None])[:, 0].tobytes() == values.tobytes()
    gemv_differs += (marks[s:e] @ budgets).tobytes() != values.tobytes()
assert gemv_differs > 0
candles = synth_gbm(2000.0, 0.0, 0.01, 800, seed=4)
for t_re in (24, 7, 1):
    trace, w = run_ewa(candles, 0, 700, EWAConfig(10, 1.0, t_re), EnvConfig())
    want, w_want = oracles.run_ewa_per_hour(candles, 0, 700, EWAConfig(10, 1.0, t_re),
                                            EnvConfig())
    assert oracles.trace_records(trace) == want and w.tobytes() == w_want.tobytes()
print("ok")
'''
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(backtest.__file__))
        base = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
        narrow = {"OPENBLAS_CORETYPE": "Prescott"}
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__
        except ImportError:
            __cpu_dispatch__ = ()
        groups = ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3")
        if set(groups) <= set(__cpu_dispatch__):  # x86-64 numpy 2: its narrowest paths too
            narrow["NPY_DISABLE_CPU_FEATURES"] = " ".join(groups)
        for env in ({k: v for k, v in base.items() if k not in narrow}, {**base, **narrow}):
            done = subprocess.run([sys.executable, "-c", script], env=env, cwd=str(tmp_path),
                                  capture_output=True, text=True, timeout=300)
            assert done.stdout.strip() == "ok", done.stderr

    @pytest.mark.parametrize("t_re", [24, 3000])
    def test_3000_hour_run_allocates_per_block(self, gbm_3202, t_re):
        """Peak traced allocation stays under 2 MB: the ledger walks a block
        of hours at a time, never the whole run in one array."""
        tracemalloc.start()
        try:
            run_ewa(gbm_3202, 200, 3000, EWAConfig(10, 1.0, t_re), EnvConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_unknown_path_model_rejected_before_any_hour(self, monkeypatch):
        monkeypatch.setattr("clmmlab.baselines.lvr_over_path", no_walk)
        candles = synth_gbm(100.0, 0.0, 0.01, 300, seed=9)
        with pytest.raises(ValueError,
                           match=r"path_model must be one of \('candle', 'open-close'\), "
                                 r"got 'bogus'"):
            run_ewa(candles, 210, 10, EWAConfig(3, 1.0, 4),
                    EnvConfig(path_model="bogus"))

    def test_default_tables(self):
        assert TAU_DEFAULTS[("usdt", 3, 250)] == 10
        assert TAU_DEFAULTS[("usdc", 1, 1000)] == 1
        assert EWA_DEFAULTS[("usdc", 2, 500)] == (10, 10.0, 24)
        c = RunConfig(method="ewa", pool="usdt", period=4).ewa_config()
        assert (c.n_widths, c.eta, c.t_re) == (10, 7.0, 21)
        assert len(TAU_DEFAULTS) == len(EWA_DEFAULTS) == 24


class TestToyMdp:
    def test_action_count_and_discount_are_not_settings(self):
        with pytest.raises(TypeError):
            ToyConfig(n_actions=3)
        assert ToyConfig.n_actions == toymdp.N_WIDTHS
        assert ToyConfig.gamma == dqn.GAMMA

    def test_level_prices_snap_to_their_own_ticks(self):
        for level in range(toymdp.N_LEVELS):
            center, _ = amm.mint_band(toymdp.level_price(level), 1,
                                      toymdp.TICK_SPACING, 1.0)
            assert center == toymdp.BASE_TICK + toymdp.TICK_SPACING * level

    def test_state_index_round_trip(self):
        for s in range(N_STATES):
            assert state_index(*state_tuple(s)) == s

    def test_observation_one_hot(self):
        obs = toymdp.observation_for(3, 2, 2)
        assert obs.sum() == 3.0
        assert obs[3] == 1.0 and obs[8 + 2] == 1.0 and obs[13 + 1] == 1.0

    def test_env_mirrors_tabular_tensors(self):
        cfg = ToyConfig(episode_length=50)
        env = ToyPriceCycleEnv(cfg)
        t, r = build_tabular_mdp(cfg)
        rng = np.random.default_rng(10)
        env.reset(5)
        for _ in range(50):
            s = env.state_index()
            a = int(rng.integers(0, 3))
            _, reward, done, _ = env.step(a)
            assert reward == r[s, a]
            assert env.state_index() == t[s, a].argmax()
            if done:
                env.reset(int(rng.integers(0, 8)))

    def test_optimum_beats_static_and_constant_policies(self):
        cfg = ToyConfig()
        t, r = build_tabular_mdp(cfg)
        q, _ = value_iteration(t, r, cfg.gamma)
        s0 = state_index(0, 0, 1)
        vstar = q[s0].max()
        hold = policy_value(np.zeros(N_STATES, dtype=int), t, r, cfg.gamma)
        best_hold = max(hold[state_index(0, c, w)]
                        for c in range(5) for w in (1, 2))
        always1 = policy_value(np.ones(N_STATES, dtype=int), t, r, cfg.gamma)[s0]
        always2 = policy_value(np.full(N_STATES, 2), t, r, cfg.gamma)[s0]
        assert vstar > 1.2 * best_hold
        assert 0.95 * vstar > max(always1, always2)

    def test_ddqn_learns_toy_optimum_single_seed(self):
        cfg = ToyConfig()
        t, r = build_tabular_mdp(cfg)
        q, _ = value_iteration(t, r, cfg.gamma)
        s0 = state_index(0, 0, 1)
        dcfg = DDQNConfig(learning_rate=3e-3, batch_size=64, warm_start=500,
                          eval_every_episodes=10, patience=10,
                          buffer=50_000)
        res = train_ddqn(ToyPriceCycleEnv(cfg), ToyPriceCycleEnv(cfg),
                         dcfg, budget=24_000, seed=0)
        pol = greedy_policy_from_net(res.params, cfg)
        v = policy_value(pol, t, r, cfg.gamma)[s0]
        assert v >= 0.95 * q[s0].max()
