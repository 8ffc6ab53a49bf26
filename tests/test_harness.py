import dataclasses
import json
import math
import os
import shutil
import sys

import numpy as np
import pytest

import oracles
from clmmlab.amm import LiquidityPosition
from clmmlab import backtest
from clmmlab.backtest import (
    EQUILIBRIUM_POOL,
    ORACLE_TUNED_LABEL,
    RunConfig,
    RunError,
    drift_gap,
    drift_neutrality_study,
    run_backtest,
    run_backtest_dir,
    run_digest,
    run_training,
    write_run_dir,
)
from clmmlab.baselines import EWAConfig, run_ewa
from clmmlab.dqn import TrainingResult, greedy_rollout
from clmmlab.env import EnvConfig, LPEnv
from clmmlab.features import (OBSERVATION_DIM, WARMUP_CANDLES, FeatureScaler,
                              compute_feature_matrix)
from clmmlab.marketdata import (HOUR, REFERENCE_PERIODS, CandleSeries, _utc,
                                bundled_candles_path, load_candles_csv, synth_gbm)
from clmmlab.nets import init_params, load_checkpoint, save_checkpoint
from clmmlab.report import (
    REPORT_CSV_HEADER,
    Report,
    ReportError,
    check_row_identity,
    verify_published_table,
    load_published_table,
    read_report_csv,
)


@pytest.fixture(scope="module")
def candles():
    return synth_gbm(2000.0, 0.0, 0.01, 500, seed=21)


class TestRunConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(RunError, match="method"):
            RunConfig(method="gridsearch")

    def test_rejects_bad_reward_mode(self):
        with pytest.raises(RunError, match="reward_mode"):
            RunConfig(method="tau-reset", reward_mode="leveraged")

    def test_rejects_bad_path_model(self):
        with pytest.raises(RunError, match="path_model"):
            RunConfig(method="tau-reset", path_model="brownian-bridge")

    def test_rejects_nonpositive_l0(self):
        with pytest.raises(RunError, match="l0"):
            RunConfig(method="ewa", l0=0.0)

    def test_rejects_bad_period(self):
        with pytest.raises(RunError, match="period"):
            RunConfig(method="ewa", period=5)

    def test_dict_round_trip(self):
        config = RunConfig(method="tau-reset", tau=6, seed=3, horizon=100)
        again = RunConfig(**config.to_dict())
        assert again == config

    # A settings dict is read through the run functions' gate, not RunConfig.
    def test_from_dict_rejects_unknown_field(self, tmp_path):
        with pytest.raises(RunError, match="unknown config field 'out_dir'"):
            run_backtest_dir({"method": "ewa", "out_dir": "/tmp/x"}, str(tmp_path))

    def test_from_dict_requires_method(self, tmp_path):
        with pytest.raises(RunError, match="method"):
            run_backtest_dir({"tau": 6}, str(tmp_path))

    def test_hash_ignores_dict_order(self, candles):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert run_digest(a, candles) == run_digest(b, candles)
        assert len(run_digest(a, candles)) == 12

    def test_hash_tracks_every_field(self, candles, tmp_path):
        def digest(series=candles, checkpoint_bytes=None, **settings):
            return run_digest(RunConfig(**settings).to_dict(), series, checkpoint_bytes)

        base = digest(method="tau-reset", tau=6)
        assert base == digest(method="tau-reset", tau=6)
        assert base != digest(method="tau-reset", tau=7)
        assert base != digest(method="tau-reset", tau=6, seed=1)
        # an edited candle is another input
        edited = list(candles)
        assert edited[100].close != edited[100].high
        edited[100] = edited[100]._replace(close=edited[100].high)
        assert base != digest(CandleSeries.from_rows(edited), method="tau-reset", tau=6)
        # the checkpoint counts by its bytes, not by its path
        paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
        for path, seed in zip(paths, (4, 4, 5)):
            save_checkpoint(str(path), init_params(OBSERVATION_DIM, 11, seed=seed))
        a, b, c = (digest(method="ddqn", checkpoint=str(path),
                          checkpoint_bytes=path.read_bytes()) for path in paths)
        assert a == b != c
        # a path-only change leaves the digest alone
        assert base == digest(method="tau-reset", tau=6, candles="elsewhere.csv")


class TestHyperparameterResolution:
    def test_tau_from_default_table_gets_labeled(self):
        config = RunConfig(method="tau-reset", pool="usdc", period=1)
        assert config.tau == 6
        assert config.label == ORACLE_TUNED_LABEL
        assert RunConfig(**config.to_dict()) == config

    def test_explicit_tau_keeps_label(self):
        config = RunConfig(method="tau-reset", tau=4, label="mine")
        assert config.tau == 4
        assert config.label == "mine"
        assert RunConfig(method="tau-reset", pool="usdc", period=1, tau=6).label == ""

    def test_table_default_keeps_given_label(self):
        config = RunConfig(method="tau-reset", pool="usdc", period=1, label="mine")
        assert config.tau == 6
        assert config.label == "mine"

    def test_unknown_key_asks_for_explicit_tau(self):
        with pytest.raises(RunError, match="pass tau explicitly"):
            RunConfig(method="tau-reset", pool="synth", period=None)

    def test_ewa_defaults_get_labeled(self):
        config = RunConfig(method="ewa", pool="usdc", period=2)
        assert (config.ewa_widths, config.ewa_eta, config.ewa_t_re) == (10, 10.0, 24)
        assert config.ewa_config() == EWAConfig(n_widths=10, eta=10.0, t_re=24)
        assert config.label == ORACLE_TUNED_LABEL
        assert RunConfig(**config.to_dict()) == config

    def test_partial_ewa_params_rejected(self):
        with pytest.raises(RunError, match="all of ewa_widths"):
            RunConfig(method="ewa", ewa_widths=10, ewa_eta=None, ewa_t_re=24)


class TestRunBacktest:
    def test_tau_reset_row_satisfies_identity(self, candles):
        config = RunConfig(method="tau-reset", tau=6, offset=10, horizon=200)
        result = run_backtest(candles, config)
        row = result.to_row()
        assert row["hours"] == 200
        assert len(result.trace) == 200
        assert check_row_identity(row) <= 1e-9
        assert row["reallocations"] == sum(
            1 for r in oracles.trace_records(result.trace) if r.action != 0)

    def test_unhedged_mode_reports_dv(self, candles):
        hedged = run_backtest(candles, RunConfig(
            method="tau-reset", tau=6, offset=10, horizon=150))
        unhedged = run_backtest(candles, RunConfig(
            method="tau-reset", tau=6, offset=10, horizon=150,
            reward_mode="unhedged"))
        diff = unhedged.relative_pnl() - hedged.relative_pnl()
        expected = (unhedged.total("dv") - hedged.total("lvr")) / 250.0
        assert diff == pytest.approx(expected, abs=1e-12)

    def test_ewa_runs_and_reports_weights(self, candles):
        config = RunConfig(method="ewa", ewa_widths=5, ewa_eta=1.0,
                           ewa_t_re=24, offset=5, horizon=150)
        result = run_backtest(candles, config)
        trace, weights = run_ewa(candles, 5, 150, config.ewa_config(),
                                 config.env_config(episode_length=150))
        assert oracles.trace_records(trace) == oracles.trace_records(result.trace)
        assert weights.shape == (5,)
        assert float(weights.sum()) == pytest.approx(1.0, abs=1e-12)
        assert check_row_identity(result.to_row()) <= 1e-9

    def test_window_must_fit_series(self, candles):
        config = RunConfig(method="tau-reset", tau=6, offset=10, horizon=1000)
        with pytest.raises(RunError, match="window"):
            run_backtest(candles, config)

    def test_default_window_skips_feature_warmup(self, candles):
        config = RunConfig(method="tau-reset", tau=6)
        result = run_backtest(candles, config)
        assert result.offset == WARMUP_CANDLES
        assert result.horizon == len(candles) - 1 - WARMUP_CANDLES

    def test_ddqn_needs_params_or_checkpoint(self, tmp_path):
        with pytest.raises(RunError, match="ddqn backtests need a checkpoint path"):
            run_backtest_dir({"method": "ddqn", "candles": str(tmp_path / "absent.csv")},
                             str(tmp_path / "out"))
        assert not os.listdir(tmp_path)

    def test_ddqn_offset_in_feature_warmup_rejected_before_checkpoint_loads(
            self, tmp_path):
        with pytest.raises(RunError, match=f"ddqn offset 10 is inside the "
                                           f"{WARMUP_CANDLES}-candle feature warmup"):
            RunConfig(method="ddqn", checkpoint=str(tmp_path / "absent.json"),
                      offset=10, horizon=50)

    def test_default_horizon_needs_an_hour_after_the_offset(self, candles):
        config = RunConfig(method="tau-reset", tau=6, offset=len(candles) - 1)
        with pytest.raises(RunError) as err:
            run_backtest(candles, config)
        assert str(err.value) == (f"window needs candles through index "
                                  f"{len(candles)}, series has {len(candles)}")

    def test_ddqn_without_checkpoint_is_run_error_before_any_file(
            self, candles, monkeypatch):
        def no_open(*args, **kwargs):
            raise AssertionError(f"opened {args[0]!r} before the config was checked")

        config = RunConfig(method="ddqn", offset=WARMUP_CANDLES, horizon=50)
        with monkeypatch.context() as m:
            m.setattr("builtins.open", no_open)
            with pytest.raises(RunError) as err:
                run_backtest(candles, config)
        assert str(err.value) == "ddqn backtests need a checkpoint path"

    def test_ddqn_digest_and_replay_come_from_one_read(self, candles, tmp_path,
                                                        monkeypatch):
        """A checkpoint replaced by another right after the run first opens
        it changes neither the run's digest nor its replay."""
        ckpt, other = str(tmp_path / "net.json"), str(tmp_path / "other.json")
        save_checkpoint(ckpt, init_params(OBSERVATION_DIM, 11, seed=1))
        save_checkpoint(other, init_params(OBSERVATION_DIM, 11, seed=2))
        config = RunConfig(method="ddqn", checkpoint=ckpt, offset=WARMUP_CANDLES,
                           horizon=120)
        want = run_backtest(candles, config)
        theirs = run_backtest(candles, dataclasses.replace(config, checkpoint=other))
        assert theirs.config_hash != want.config_hash
        assert oracles.trace_records(theirs.trace) != oracles.trace_records(want.trace)

        swap = str(tmp_path / "swap.json")
        shutil.copy(other, swap)
        real_open = open

        def open_then_swap(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            if os.fspath(path) == ckpt and os.path.exists(swap):
                os.replace(swap, ckpt)
            return fh

        with monkeypatch.context() as m:
            m.setattr("builtins.open", open_then_swap)
            got = run_backtest(candles, config)
        with open(ckpt, "rb") as a, open(other, "rb") as b:
            assert a.read() == b.read()  # the swap did happen
        assert got.config_hash == want.config_hash
        assert oracles.trace_records(got.trace) == oracles.trace_records(want.trace)

    def test_ddqn_greedy_actions_are_textbook_argmax(self, tmp_path):
        """On the fixture, every greedy action of a freshly trained net's
        backtest is the argmax of the textbook oracle's q: composing the
        dueling head into one map flips no action."""
        fixture = bundled_candles_path()
        run_training({"candles": fixture, "seed": 5, "episode_length": 50,
                      "budget": 1500, "batch_size": 64, "train_hours": 500,
                      "val_hours": 100}, str(tmp_path))
        ckpt = str(tmp_path / "checkpoint.json")
        config = RunConfig(method="ddqn", checkpoint=ckpt, offset=899, horizon=300)
        candles = load_candles_csv(fixture)
        actions = run_backtest(candles, config).trace["action"]
        assert len(actions) == 300 and len(set(actions.tolist())) > 1
        params, _, meta = load_checkpoint(ckpt)
        matrix = FeatureScaler.from_dict(meta["scaler"]).apply(
            compute_feature_matrix(candles))
        env = LPEnv(candles, config.env_config(episode_length=300), matrix)
        obs = env.reset(899)
        for a in actions.tolist():
            assert int(oracles.forward_all(params, obs[None])[0].argmax()) == a
            obs = env.step(a)[0]

    def test_action_histogram_counts_every_hour(self, candles):
        config = RunConfig(method="tau-reset", tau=4, offset=10, horizon=120)
        result = run_backtest(candles, config)
        hist = result.action_histogram()
        assert hist.shape == (config.n_actions + 1,)
        assert int(hist.sum()) == 120


def _around_test_range(period, hours_before, hours_after=0, seed=4):
    """GBM candles from hours_before hours before period's test range to
    hours_after hours past its last candle."""
    first, last = (_utc(d) for d in REFERENCE_PERIODS[period]["test"])
    n_hours = hours_before + (last - first) // HOUR + hours_after
    return synth_gbm(2000.0, 0.0, 0.01, n_hours, seed=seed,
                     start_ts=first - hours_before * HOUR)


class TestPeriodWindow:
    """A period replays its test range: the band opens at the close of the
    candle before the range and the run walks every candle inside it."""

    @pytest.mark.parametrize("period", sorted(REFERENCE_PERIODS))
    def test_replays_exactly_the_test_range(self, period):
        candles = _around_test_range(period, hours_before=30, hours_after=20)
        first, last = (_utc(d) for d in REFERENCE_PERIODS[period]["test"])
        result = run_backtest(candles, RunConfig(method="tau-reset", tau=4,
                                                 period=period))
        assert candles[result.offset + 1].timestamp == first
        assert result.horizon == len(result.trace) == (last - first) // HOUR
        # an hour's t is the candle it ends on
        assert candles[int(result.trace["t"][0])].timestamp == first
        assert candles[int(result.trace["t"][-1])].timestamp == last - HOUR
        assert result.to_row()["hours"] == result.horizon

    def test_period_one_is_984_hours_for_every_method(self):
        candles = _around_test_range(1, hours_before=1)
        for config in (RunConfig(method="tau-reset", tau=6, period=1),
                       RunConfig(method="ewa", pool="usdc", period=1)):
            result = run_backtest(candles, config)
            assert (result.offset, result.horizon) == (0, 984)
            assert len(result.trace) == 984

    @pytest.mark.parametrize("setting", [{"offset": 5}, {"horizon": 50},
                                         {"offset": 5, "horizon": 50}])
    def test_offset_or_horizon_with_period_is_rejected(self, setting):
        with pytest.raises(RunError) as err:
            RunConfig(method="tau-reset", tau=4, period=2, **setting)
        assert str(err.value) == ("period 2 replays its test range; offset and "
                                  "horizon cannot be set with it")

    @pytest.mark.parametrize("before,after", [(0, 10), (10, -1)],
                             ids=["no-candle-before", "short-by-an-hour"])
    def test_series_that_misses_the_range_names_its_dates(self, before, after):
        candles = _around_test_range(3, hours_before=before, hours_after=after)
        with pytest.raises(RunError) as err:
            run_backtest(candles, RunConfig(method="tau-reset", tau=4, period=3))
        assert err.value.category == "config"
        assert str(err.value) == (
            "series does not hold period 3's test range 2022-11-03 to "
            "2022-12-14 (UTC, end exclusive) and the candle before it")

    def test_series_far_from_the_range_is_rejected(self, candles):
        with pytest.raises(RunError, match="period 1's test range 2022-08-12"):
            run_backtest(candles, RunConfig(method="tau-reset", tau=4, period=1))
        with pytest.raises(RunError, match="does not hold"):
            run_backtest(CandleSeries.from_rows([]),
                         RunConfig(method="tau-reset", tau=4, period=1))

    def test_ddqn_range_inside_feature_warmup_is_rejected(self, tmp_path):
        candles = _around_test_range(4, hours_before=WARMUP_CANDLES)
        config = RunConfig(method="ddqn", period=4,
                           checkpoint=str(tmp_path / "absent.json"))
        with pytest.raises(RunError) as err:
            run_backtest(candles, config)
        assert str(err.value) == (
            f"period 4's test range 2022-12-15 to 2023-01-25 (UTC, end "
            f"exclusive) opens at candle {WARMUP_CANDLES - 1}, inside the ddqn "
            f"{WARMUP_CANDLES}-candle feature warmup")

    def test_ddqn_replays_the_range_after_the_warmup(self, tmp_path):
        ckpt = str(tmp_path / "net.json")
        save_checkpoint(ckpt, init_params(OBSERVATION_DIM, 11, seed=3))
        candles = _around_test_range(4, hours_before=WARMUP_CANDLES + 1)
        result = run_backtest(candles, RunConfig(method="ddqn", period=4,
                                                 checkpoint=ckpt))
        assert result.offset == WARMUP_CANDLES
        assert result.horizon == len(result.trace) == 41 * 24


class TestRunBacktestDir:
    def test_settings_are_required_and_known(self, tmp_path):
        for settings, message in (({"tau": 6}, "missing required field 'method'"),
                                  ({"method": "ewa"}, "missing required field 'candles'"),
                                  ({"method": "ewa", "out_dir": "/tmp/x"},
                                   "unknown config field 'out_dir'")):
            with pytest.raises(RunError) as err:
                run_backtest_dir(settings, str(tmp_path))
            assert (str(err.value), err.value.category) == (message, "config")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("setting,message", [
        ({"tau": "6"}, "tau must be an integer, got '6'"),
        ({"tau": True}, "tau must be an integer, got True"),
        ({"l0": "250"}, "l0 must be a number, got '250'"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ], ids=["tau-str", "tau-bool", "l0-str", "seed-float", "seed-negative"])
    def test_settings_are_checked_against_their_kinds(self, tmp_path, setting, message):
        """A library caller gets the CLI's refusals; the candle file does
        not exist, so nothing was read."""
        settings = dict(method="tau-reset", candles=str(tmp_path / "absent.csv"), **setting)
        with pytest.raises(RunError) as err:
            run_backtest_dir(settings, str(tmp_path / "out"))
        assert (str(err.value), err.value.category) == (message, "config")
        assert not (tmp_path / "out").exists()

    def test_writes_the_run_dir_of_run_backtest(self, tmp_path):
        """The one run path gives the bytes of its library steps."""
        settings = dict(method="ewa", ewa_widths=5, ewa_eta=1.0, ewa_t_re=12,
                        candles=bundled_candles_path(), horizon=80, seed=2)
        result = run_backtest_dir(settings, str(tmp_path / "got"))
        want = write_run_dir(run_backtest(load_candles_csv(settings["candles"]),
                                          RunConfig(**settings)), str(tmp_path / "want"))
        assert result.config == RunConfig(**settings)
        for name in map(os.path.basename, want.values()):
            assert ((tmp_path / "got" / name).read_bytes()
                    == (tmp_path / "want" / name).read_bytes()), name


class TestRunTraining:
    def test_settings_are_required_and_known(self, tmp_path):
        for settings, message in (({}, "missing required field 'candles'"),
                                  ({"candles": "c.csv", "episodes": 5},
                                   "unknown config field 'episodes'")):
            with pytest.raises(RunError) as err:
                run_training(settings, str(tmp_path))
            assert (str(err.value), err.value.category) == (message, "config")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("seed,message", [
        (1.5, "seed must be an integer, got 1.5"), (-1, "seed must be >= 0, got -1")],
        ids=["float", "negative"])
    def test_seed_is_checked_against_its_kind(self, tmp_path, seed, message):
        settings = {"candles": str(tmp_path / "absent.csv"), "seed": seed}
        with pytest.raises(RunError) as err:
            run_training(settings, str(tmp_path / "out"))
        assert (str(err.value), err.value.category) == (message, "config")
        assert not (tmp_path / "out").exists()

    def test_default_split_of_the_bundled_fixture(self, tmp_path, monkeypatch):
        """The protocol with the learner stubbed out: train_ddqn receives
        the envs run_training builds and returns an untrained net."""
        calls = []

        def train_ddqn(train_env, eval_env, config, budget, seed, eval_offset):
            calls.append(dict(train_env=train_env, eval_env=eval_env,
                              budget=budget, seed=seed, eval_offset=eval_offset))
            return TrainingResult(params=init_params(OBSERVATION_DIM, 11, seed=0),
                                  best_val_return=0.0)

        monkeypatch.setattr(backtest, "train_ddqn", train_ddqn)
        path = bundled_candles_path()
        run_training({"candles": path}, str(tmp_path))
        (call,) = calls
        train_env, eval_env = call["train_env"], call["eval_env"]
        # 1,200 candles: 999 hours after the warmup, 70% of them to train on
        rng = np.random.default_rng(0)
        offsets = {train_env.sample_offset(rng) for _ in range(5000)}
        assert (min(offsets), max(offsets)) == (200, 799)
        assert train_env.config.episode_length == 100
        assert len(train_env.candles) == 900
        assert call["eval_offset"] == 899
        assert eval_env.config.episode_length == 299
        assert len(eval_env.candles) == 1199
        assert (call["budget"], call["seed"]) == (5000, 0)
        config = json.loads((tmp_path / "run.json").read_text())["config"]
        assert (config["train_hours"], config["val_hours"]) == (699, 299)
        # the scaler is fit on the training hours alone
        matrix = compute_feature_matrix(load_candles_csv(path))
        _, _, meta = load_checkpoint(str(tmp_path / "checkpoint.json"))
        assert meta["scaler"] == FeatureScaler.fit(matrix[200:899]).to_dict()


class TestWriteRunDir:
    def test_artifacts_and_hash_stamp(self, candles, tmp_path):
        config = RunConfig(method="tau-reset", tau=6, offset=10, horizon=80,
                           seed=2)
        result = run_backtest(candles, config)
        paths = write_run_dir(result, str(tmp_path / "run"))
        for key in ("run", "report", "trace", "actions"):
            assert os.path.exists(paths[key])
        doc = json.loads(open(paths["run"]).read())
        rows = read_report_csv(paths["report"])
        assert len(rows) == 1
        assert rows[0]["config_hash"] == doc["config_hash"] == result.config_hash
        assert result.config_hash == run_digest(config.to_dict(), candles)
        with open(paths["trace"]) as fh:
            trace_lines = fh.read().strip().splitlines()
        assert len(trace_lines) == 81  # header + one row per hour
        assert trace_lines[0].endswith("config_hash,seed")

    def test_repeat_run_is_byte_identical(self, candles, tmp_path):
        config = RunConfig(method="ewa", ewa_widths=5, ewa_eta=1.0,
                           ewa_t_re=12, offset=5, horizon=60)
        a = write_run_dir(run_backtest(candles, config), str(tmp_path / "a"))
        b = write_run_dir(run_backtest(candles, config), str(tmp_path / "b"))
        for key in ("run", "report", "trace", "actions"):
            assert open(a[key], "rb").read() == open(b[key], "rb").read()


    @pytest.mark.parametrize("reward_mode", ["hedged", "unhedged"])
    @pytest.mark.parametrize("path_model", ["candle", "open-close"])
    @pytest.mark.parametrize("method", [
        dict(method="tau-reset", tau=4),
        dict(method="ewa", ewa_widths=10, ewa_eta=1.0, ewa_t_re=24),
        dict(method="ewa", ewa_widths=5, ewa_eta=10.0, ewa_t_re=1),
        dict(method="ddqn"),
    ], ids=["tau-reset", "ewa-10-1-24", "ewa-5-10-1", "ddqn"])
    def test_bytes_match_dict_row_oracle(self, candles, tmp_path, method,
                                         path_model, reward_mode):
        """The columns write the bytes the dict-row writer writes from the
        HourRecords of the per-hour replays (LPEnv's tau-reset, the per-hour
        EWA, the ddqn's env steps); no cell is a numpy scalar's repr."""
        if method["method"] == "ddqn":
            checkpoint = str(tmp_path / "checkpoint.json")
            save_checkpoint(checkpoint, init_params(OBSERVATION_DIM, 11, seed=4))
            method = dict(method, checkpoint=checkpoint)
        config = RunConfig(offset=WARMUP_CANDLES, horizon=150, seed=4,
                           path_model=path_model, reward_mode=reward_mode,
                           **method)
        result = run_backtest(candles, config)
        env = config.env_config(episode_length=150)
        if config.method == "tau-reset":
            records = oracles.run_tau_reset(candles, WARMUP_CANDLES, 150, config.tau, env)
        elif config.method == "ewa":
            records = oracles.run_ewa_per_hour(candles, WARMUP_CANDLES, 150,
                                               config.ewa_config(), env)[0]
        else:
            lp = LPEnv(candles, env, compute_feature_matrix(candles))
            records = greedy_rollout(lp, load_checkpoint(checkpoint)[0], WARMUP_CANDLES)[2]
        got = write_run_dir(result, str(tmp_path / "got"))
        want = oracles.write_run_dir(result, str(tmp_path / "want"), records)
        assert list(got) == list(want)
        for key in got:
            text = open(got[key], "rb").read()
            assert text == open(want[key], "rb").read(), key
            assert b"np." not in text, key


class TestReport:
    def _rows(self, candles, tmp_path):
        dirs = []
        for name, config in (
            ("tau", RunConfig(method="tau-reset", tau=6, offset=10,
                              horizon=60)),
            ("ewa", RunConfig(method="ewa", ewa_widths=5, ewa_eta=1.0,
                              ewa_t_re=12, offset=10, horizon=60)),
        ):
            d = str(tmp_path / name)
            write_run_dir(run_backtest(candles, config), d)
            dirs.append(d)
        return dirs

    def test_from_run_dirs_aggregates(self, candles, tmp_path):
        report = Report.from_run_dirs(self._rows(candles, tmp_path))
        assert len(report.rows) == 2
        assert {r["method"] for r in report.rows} == {"tau-reset", "ewa"}
        assert len(report.histograms) == 2

    def test_summary_csv_round_trips(self, candles, tmp_path):
        report = Report.from_run_dirs(self._rows(candles, tmp_path))
        out = str(tmp_path / "summary.csv")
        report.write_summary_csv(out)
        rows = read_report_csv(out)
        assert sorted(r["method"] for r in rows) == ["ewa", "tau-reset"]
        assert all(set(r) == set(REPORT_CSV_HEADER) for r in rows)
        by_method = {r["method"]: r for r in rows}
        for row in report.rows:
            assert by_method[row["method"]]["relative_pnl"] == pytest.approx(
                row["relative_pnl"], abs=1e-12)

    def test_cumulative_rows_run_per_method(self, candles, tmp_path):
        report = Report.from_run_dirs(self._rows(candles, tmp_path))
        cumulative = report.cumulative_rows()
        assert len(cumulative) == 2
        for row in cumulative:
            assert row["cumulative_relative_pnl"] == pytest.approx(
                row["relative_pnl"])

    def test_refuses_empty(self):
        with pytest.raises(ReportError, match="no rows"):
            Report([])

    def test_refuses_mixed_pools(self, candles, tmp_path):
        dirs = self._rows(candles, tmp_path)
        rows = Report.from_run_dirs(dirs).rows
        rows[1] = dict(rows[1], fee_tier=0.0005)
        with pytest.raises(ReportError, match="mismatched pool"):
            Report(rows)

    def test_refuses_broken_identity(self, candles, tmp_path):
        rows = Report.from_run_dirs(self._rows(candles, tmp_path)).rows
        rows[0] = dict(rows[0], relative_pnl=rows[0]["relative_pnl"] + 0.5)
        with pytest.raises(ReportError, match="identity"):
            Report(rows)


class TestPublishedTable:
    def test_fixture_has_32_rows(self):
        rows = load_published_table()
        assert len(rows) == 32
        assert {r["pool"] for r in rows} == {"usdc", "usdt"}
        assert {r["method"] for r in rows} == {"ddqn", "tau-reset", "ewa", "dp"}

    def test_reconstruction_matches_printed_decimals(self):
        chk = verify_published_table()
        assert chk.n_rows == 32
        assert chk.all_within_ulp
        assert chk.n_exact == 25
        assert chk.max_abs_error <= 1e-3 + 1e-9

    def test_example_row_is_exact(self):
        rows = [r for r in load_published_table()
                if r["pool"] == "usdc" and r["period"] == 1
                and r["method"] == "ddqn"]
        assert len(rows) == 1
        row = rows[0]
        assert row["relative_fee"] == 0.691
        assert row["relative_pnl"] == pytest.approx(
            row["relative_fee"] - row["relative_gas"] - row["relative_lvr"],
            abs=1e-12)


class TestDriftStudy:
    def test_gap_needs_two_drifts(self):
        with pytest.raises(ValueError, match="two"):
            drift_gap({0.0: {}}, "hedged")

    def test_gap_combines_errors(self):
        study = {
            0.0005: {"hedged_mean": 1.0, "hedged_se": 0.3},
            -0.0005: {"hedged_mean": 0.2, "hedged_se": 0.4},
        }
        diff, se = drift_gap(study, "hedged")
        assert diff == pytest.approx(0.8)
        assert se == pytest.approx(math.hypot(0.3, 0.4))

    def test_drifts_and_sigma_are_not_settings(self):
        with pytest.raises(TypeError):
            drift_neutrality_study(sigma=0.02)

    @pytest.mark.parametrize("n_seeds", [0, 1])
    def test_fewer_than_two_seeds_rejected_before_any_replay(self, monkeypatch, n_seeds):
        def no_replay(*args, **kwargs):
            raise AssertionError("a seed was replayed")

        monkeypatch.setattr(backtest, "synth_gbm", no_replay)
        monkeypatch.setattr(backtest, "_replay", no_replay)
        with pytest.raises(ValueError) as err:
            drift_neutrality_study(n_seeds=n_seeds, horizon=40)
        assert str(err.value) == f"n_seeds must be >= 2 for a standard error, got {n_seeds}"

    def test_small_study_shapes(self):
        study = drift_neutrality_study(n_seeds=3, horizon=40)
        assert set(study) == {0.0005, -0.0005}
        for stats in study.values():
            assert stats["n_seeds"] == 3
            assert stats["hedged_se"] > 0.0
            assert stats["unhedged_se"] > 0.0

    @pytest.mark.skipif(sys.version_info >= (3, 12),
                        reason="the oracle's sum() is compensated from Python 3.12")
    def test_matches_four_sum_oracle(self):
        got = drift_neutrality_study(n_seeds=3, horizon=60)
        assert repr(got) == repr(oracles.drift_neutrality_study(n_seeds=3, horizon=60))

    def test_study_computes_no_digest(self, monkeypatch):
        want = repr(drift_neutrality_study(n_seeds=3, horizon=60))

        def no_digest(*args, **kwargs):
            raise AssertionError("the study hashed a run it never writes")

        monkeypatch.setattr("clmmlab.backtest.run_digest", no_digest)
        assert repr(drift_neutrality_study(n_seeds=3, horizon=60)) == want

    def test_equilibrium_pool_tier(self):
        assert 0.0 < EQUILIBRIUM_POOL.fee_tier < 0.01
        assert EQUILIBRIUM_POOL.tick_spacing == 60

    def test_bundled_fixture_loads(self):
        series = load_candles_csv(bundled_candles_path())
        assert len(series) == 1200


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build,name", [
    (lambda x: RunConfig(method="tau-reset", l0=x), "l0"),
    (lambda x: RunConfig(method="tau-reset", gas=x), "gas"),
    (lambda x: RunConfig(method="ewa", ewa_eta=x), "ewa_eta"),
    (lambda x: EnvConfig(l0=x), "l0"),
    (lambda x: EnvConfig(gas=x), "gas"),
    (lambda x: EWAConfig(eta=x), "eta"),
    (lambda x: LiquidityPosition(1.0, 4.0, x), "liquidity"),
    (lambda x: LiquidityPosition(1.0, x, 1.0), "price_upper"),
], ids=["RunConfig.l0", "RunConfig.gas", "RunConfig.ewa_eta", "EnvConfig.l0",
        "EnvConfig.gas", "EWAConfig.eta", "LiquidityPosition.liquidity",
        "LiquidityPosition.price_upper"])
def test_non_finite_values_rejected(build, name, bad):
    with pytest.raises(ValueError, match=rf"\b{name} must be|< {name}, got"):
        build(bad)
