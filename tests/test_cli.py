import argparse
import csv
import filecmp
import json
import os
import platform
import shutil
import subprocess
import sys
from typing import get_args, get_type_hints

import pytest

from clmmlab import backtest
from clmmlab.backtest import (BACKTEST_FIELDS, KINDS, OUT_DIR_FILES, SETTING_KINDS,
                              TRAIN_FIELDS, RunConfig)
from clmmlab.cli import FEATURES_FIELDS, INGEST_FIELDS, build_parser, main
from clmmlab.dqn import DDQNConfig
from clmmlab.features import OBSERVATION_DIM, WARMUP_CANDLES
from clmmlab.marketdata import (HOUR, REFERENCE_PERIODS, CandleSeries, _utc,
                                bundled_candles_path, save_candles_csv, synth_gbm)
from clmmlab.nets import init_params, load_checkpoint, save_checkpoint
from clmmlab.report import Report, read_report_csv


@pytest.fixture(scope="module")
def candles_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "candles.csv")
    save_candles_csv(synth_gbm(2000.0, 0.0, 0.01, 420, seed=33), path)
    return path


@pytest.fixture(scope="module")
def period_csv(tmp_path_factory):
    """Candles from the hour before period 1's test range through the end
    of period 2's, which follows it."""
    start = _utc(REFERENCE_PERIODS[1]["test"][0]) - HOUR
    n_hours = (_utc(REFERENCE_PERIODS[2]["test"][1]) - start) // HOUR
    path = str(tmp_path_factory.mktemp("data") / "period.csv")
    save_candles_csv(synth_gbm(2000.0, 0.0, 0.01, n_hours, seed=34,
                               start_ts=start), path)
    return path


def _never(*args, **kwargs):
    raise AssertionError("a rejected run must not get this far")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestErrorContract:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["backtest", "--bogus"], capsys)
        assert code == 2
        assert err.strip().startswith("error: usage:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_command_is_usage_error(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 2
        assert err.strip().startswith("error: usage:")

    def test_bad_method_is_config_error(self, candles_csv, capsys, tmp_path):
        code, _, err = run_cli(
            ["backtest", "--method", "martingale", "--candles", candles_csv,
             "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert err.strip().startswith("error: config:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_required_field(self, candles_csv, capsys):
        code, _, err = run_cli(
            ["backtest", "--method", "tau-reset", "--tau", "4",
             "--candles", candles_csv], capsys)
        assert code == 1
        assert "out_dir" in err

    @pytest.mark.parametrize("tau", ["0", "12"])
    def test_tau_outside_actions_is_config_error(self, candles_csv, capsys,
                                                 tmp_path, tau):
        code, _, err = run_cli(
            ["backtest", "--method", "tau-reset", "--tau", tau,
             "--candles", candles_csv, "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert err.strip().startswith("error: config: tau must be in 1..n_actions=10")
        assert len(err.strip().splitlines()) == 1

    # The candles path below does not exist: each setting is rejected before
    # any candle loads, and no run directory is written.
    def _config_error(self, argv, capsys, tmp_path):
        code, _, err = run_cli(
            ["backtest", *argv, "--candles", str(tmp_path / "missing.csv"),
             "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()
        return err.strip()

    def test_tau_outside_tau_reset_is_config_error(self, capsys, tmp_path):
        err = self._config_error(["--method", "ewa", "--tau", "6"], capsys, tmp_path)
        assert err == "error: config: tau applies only to method tau-reset, got method ewa"

    @pytest.mark.parametrize("flag,value", [("--ewa-widths", "10"),
                                            ("--ewa-eta", "5"), ("--ewa-t-re", "24")])
    def test_ewa_setting_outside_ewa_is_config_error(self, capsys, tmp_path,
                                                     flag, value):
        err = self._config_error(["--method", "tau-reset", "--tau", "6", flag, value,
                                  "--checkpoint", "nonexist.json"], capsys, tmp_path)
        name = flag[2:].replace("-", "_")
        assert err == (f"error: config: {name} applies only to method ewa, "
                       f"got method tau-reset")

    def test_checkpoint_outside_ddqn_is_config_error(self, capsys, tmp_path):
        err = self._config_error(["--method", "tau-reset", "--tau", "6",
                                  "--checkpoint", "nonexist.json"], capsys, tmp_path)
        assert err == ("error: config: checkpoint applies only to method ddqn, "
                       "got method tau-reset")

    @pytest.mark.parametrize("flag,value,message", [
        ("--ewa-widths", "0", "ewa_widths must be >= 1, got 0"),
        ("--ewa-t-re", "0", "ewa_t_re must be >= 1, got 0"),
        ("--ewa-eta", "-1", "ewa_eta must be positive and finite, got -1.0"),
    ])
    def test_bad_ewa_value_is_config_error_before_candles_load(
            self, capsys, tmp_path, flag, value, message):
        err = self._config_error(["--method", "ewa", flag, value], capsys, tmp_path)
        assert err == f"error: config: {message}"

    @pytest.mark.parametrize("argv,message", [
        (["--method", "tau-reset", "--tau", "0"],
         "tau must be in 1..n_actions=10, got 0"),
        (["--method", "ewa", "--ewa-widths", "3"],
         "set all of ewa_widths/ewa_eta/ewa_t_re or none"),
        (["--method", "tau-reset", "--pool", "usdc", "--period", "1", "--l0", "300"],
         "no default tau for pool='usdc' period=1 l0=300; pass tau explicitly"),
        (["--method", "ddqn"], "ddqn backtests need a checkpoint path"),
        (["--method", "tau-reset", "--tau", "6", "--offset", "0"],
         "offset must be >= 1, got 0"),
        (["--method", "tau-reset", "--tau", "6", "--horizon", "0"],
         "horizon must be >= 1, got 0"),
        (["--method", "ddqn", "--offset", "5"],
         f"ddqn offset 5 is inside the {WARMUP_CANDLES}-candle feature warmup"),
    ], ids=["tau-range", "partial-ewa", "no-default-tau", "ddqn-no-checkpoint",
            "offset-zero", "horizon-zero", "ddqn-offset-in-warmup"])
    def test_settings_that_clash_are_config_error_before_candles_load(
            self, capsys, tmp_path, argv, message):
        err = self._config_error(argv, capsys, tmp_path)
        assert err == f"error: config: {message}"

    @pytest.mark.parametrize("flags", [["--offset", "250"], ["--horizon", "100"],
                                       ["--offset", "250", "--horizon", "100"]],
                             ids=["offset", "horizon", "both"])
    def test_period_with_offset_or_horizon_is_config_error_before_candles_load(
            self, candles_csv, capsys, tmp_path, monkeypatch, flags):
        monkeypatch.setattr(backtest, "load_candles_csv", _never)
        code, _, err = run_cli(
            ["backtest", "--method", "tau-reset", "--tau", "6", "--period", "1",
             *flags, "--candles", candles_csv, "--out-dir", str(tmp_path / "out")],
            capsys)
        assert code == 1
        assert err.strip() == ("error: config: period 1 replays its test range; "
                               "offset and horizon cannot be set with it")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method,message", [
        (["--method", "tau-reset", "--tau", "6", "--period", "3"],
         "series does not hold period 3's test range 2022-11-03 to 2022-12-14 "
         "(UTC, end exclusive) and the candle before it"),
        (["--method", "ddqn", "--period", "1", "--checkpoint", "absent.json"],
         "period 1's test range 2022-08-12 to 2022-09-22 (UTC, end exclusive) "
         f"opens at candle 0, inside the ddqn {WARMUP_CANDLES}-candle feature "
         "warmup"),
    ], ids=["uncovered-range", "ddqn-warmup-overlap"])
    def test_period_window_the_series_cannot_give_is_one_error(
            self, period_csv, capsys, tmp_path, method, message):
        code, _, err = run_cli(["backtest", *method, "--candles", period_csv,
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert err.strip() == f"error: config: {message}"
        assert not (tmp_path / "out").exists()

    def test_bad_checkpoint_shape_is_run_error(self, candles_csv, capsys,
                                               tmp_path):
        ckpt = tmp_path / "net.json"
        save_checkpoint(str(ckpt), init_params(32, 11, seed=0))
        doc = json.loads(ckpt.read_text())
        doc["params"]["bv"]["shape"] = [1.0]
        ckpt.write_text(json.dumps(doc))
        code, _, err = run_cli(
            ["backtest", "--method", "ddqn", "--checkpoint", str(ckpt),
             "--candles", candles_csv, "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert err.strip() == ("error: run: field bv: shape [1.0] is not a list "
                               "of non-negative ints")

    @pytest.mark.parametrize("edit,message", [
        (lambda s: s.update(columns=[0, 99]),
         "scaler columns must be indices 0..27, got [0, 99]"),
        (lambda s: s.pop("std"), "scaler std must be a list, got None"),
        (lambda s: s.update(mean=s["mean"][:3]), "scaler mean has 3 values, expected 28"),
        (lambda s: s.update(mean=["x"] * 28), "scaler mean must hold numbers"),
        (lambda s: s.update(std=["nan"] * 28), "scaler std must hold finite numbers >= 0"),
        (lambda s: s.update(std=["inf"] * 28), "scaler std must hold finite numbers >= 0"),
        (lambda s: s.update(std=["-1.0"] * 28), "scaler std must hold finite numbers >= 0"),
        (lambda s: s.update(mean=["nan"] * 28), "scaler mean must hold finite numbers"),
        (lambda s: s.update(columns=[0, 1, 0]), "scaler columns repeat an index: [0, 1, 0]"),
    ], ids=["column-out-of-range", "missing-std", "short-mean", "non-number", "nan-std",
            "inf-std", "negative-std", "nan-mean", "repeated-column"])
    def test_bad_checkpoint_scaler_is_run_error(self, candles_csv, capsys,
                                                tmp_path, edit, message):
        scaler = {"mean": ["0.0"] * 28, "std": ["1.0"] * 28, "columns": [0, 1]}
        edit(scaler)
        ckpt = str(tmp_path / "net.json")
        save_checkpoint(ckpt, init_params(OBSERVATION_DIM, 11, seed=0),
                        metadata={"scaler": scaler})
        code, _, err = run_cli(
            ["backtest", "--method", "ddqn", "--checkpoint", ckpt,
             "--candles", candles_csv, "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert err.strip() == f"error: run: metadata {message}"
        assert not (tmp_path / "out").exists()

    def test_candles_off_the_hourly_grid_are_run_error(self, capsys, tmp_path):
        path = tmp_path / "holey.csv"
        save_candles_csv(synth_gbm(2000.0, 0.0, 0.01, 300, seed=3), str(path))
        lines = path.read_text().splitlines()
        del lines[101]  # file line 102: the candle after it now follows a 2h hole
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            ["backtest", "--method", "tau-reset", "--tau", "4",
             "--candles", str(path), "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert err.strip().startswith("error: run: row 102: timestamp")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        lambda d, csv: ["--method", "tau-reset", "--tau", "6", "--candles", d,
                        "--out-dir", f"{d}/out"],
        lambda d, csv: ["--config", d],
        lambda d, csv: ["--method", "tau-reset", "--tau", "6", "--candles", csv,
                        "--out-dir", f"{d}/file"],
        lambda d, csv: ["--method", "ddqn", "--checkpoint", f"{d}/list.json",
                        "--candles", csv, "--out-dir", f"{d}/out"],
    ], ids=["candles-is-a-directory", "config-is-a-directory",
            "out-dir-is-a-file", "checkpoint-is-not-an-object"])
    def test_unreadable_input_or_output_is_one_run_error(self, candles_csv,
                                                         capsys, tmp_path, argv):
        (tmp_path / "file").write_text("")
        (tmp_path / "list.json").write_text("[1, 2]")
        code, _, err = run_cli(["backtest", *argv(str(tmp_path), candles_csv)],
                               capsys)
        assert code == 1
        assert err.startswith("error: run: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["train"], ["backtest", "--method", "tau-reset",
                                                   "--tau", "6"]], ids=["train", "backtest"])
    def test_out_dir_that_is_a_file_is_run_error_before_candles_load(
            self, candles_csv, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(backtest, "load_candles_csv", _never)
        (tmp_path / "file").write_text("")
        code, _, err = run_cli([*argv, "--candles", candles_csv,
                                "--out-dir", str(tmp_path / "file")], capsys)
        assert code == 1
        assert err.strip() == f"error: run: out_dir is not a directory: {tmp_path / 'file'}"

    def test_config_file_not_found(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["backtest", "--config", str(tmp_path / "nope.json")], capsys)
        assert code == 1
        assert err.strip().startswith("error: config:")

    def test_config_file_bad_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["backtest", "--config", str(bad)], capsys)
        assert code == 1
        assert "not valid JSON" in err

    def test_unknown_config_field(self, candles_csv, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "tau-reset", "tau": 4,
                                   "gas_limit": 30}))
        code, _, err = run_cli(
            ["backtest", "--config", str(cfg), "--candles", candles_csv,
             "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert "gas_limit" in err

    def test_bad_criteria_list(self, capsys):
        code, _, err = run_cli(["verify", "--criteria", "1,abc"], capsys)
        assert code == 2
        assert err.strip().startswith("error: usage:")


class TestBacktestCommand:
    def test_writes_run_dir(self, candles_csv, capsys, tmp_path):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            ["backtest", "--method", "tau-reset", "--tau", "6",
             "--candles", candles_csv, "--offset", "10", "--horizon", "200",
             "--out-dir", str(out)], capsys)
        assert code == 0
        assert "relative_pnl=" in stdout
        for name in ("run.json", "report.csv", "trace.csv", "actions.csv"):
            assert (out / name).exists()

    def test_flags_override_config_file(self, candles_csv, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "tau-reset", "tau": 4,
                                   "seed": 5, "offset": 10, "horizon": 100}))
        out = tmp_path / "run"
        code, _, _ = run_cli(
            ["backtest", "--config", str(cfg), "--seed", "9",
             "--candles", candles_csv, "--out-dir", str(out)], capsys)
        assert code == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["config"]["seed"] == 9
        assert doc["config"]["tau"] == 4

    @pytest.mark.parametrize("flags,field", [
        (["--method", "tau-reset", "--tau", "4", "--l0", "nan"], "l0"),
        (["--method", "tau-reset", "--tau", "4", "--l0", "inf"], "l0"),
        (["--method", "tau-reset", "--tau", "4", "--gas", "inf"], "gas"),
        (["--method", "tau-reset", "--tau", "4", "--gas=-inf"], "gas"),
        (["--method", "ewa", "--ewa-widths", "5", "--ewa-eta", "nan",
          "--ewa-t-re", "24"], "ewa_eta"),
        (["--method", "tau-reset", "--tau", "4", "--fee-tier", "nan"], "fee_tier"),
        (["--method", "tau-reset", "--tau", "4", "--tick-spacing", "0"],
         "tick_spacing"),
    ], ids=["l0-nan", "l0-inf", "gas-inf", "gas--inf", "ewa_eta-nan",
            "fee_tier-nan", "tick_spacing-0"])
    def test_non_finite_option_is_config_error(self, candles_csv, capsys,
                                               tmp_path, flags, field):
        out = tmp_path / "run"
        code, _, err = run_cli(["backtest", *flags, "--candles", candles_csv,
                                "--out-dir", str(out)], capsys)
        assert code == 1
        assert err.strip().startswith(f"error: config: {field} must be")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_oracle_tuned_label_lands_in_report(self, period_csv, capsys,
                                                tmp_path):
        """The period's test window is resolved into report.csv and
        run.json: period 1's 984 hours open at the fixture's first candle."""
        out = tmp_path / "run"
        code, _, _ = run_cli(
            ["backtest", "--method", "tau-reset", "--pool", "usdc",
             "--period", "1", "--candles", period_csv, "--out-dir", str(out)],
            capsys)
        assert code == 0
        rows = read_report_csv(str(out / "report.csv"))
        assert rows[0]["label"] == "oracle-tuned"
        assert (rows[0]["period"], rows[0]["offset"], rows[0]["hours"]) == (1, 0, 984)
        doc = json.loads((out / "run.json").read_text())
        assert (doc["offset"], doc["horizon"]) == (0, 984)
        assert (doc["config"]["offset"], doc["config"]["horizon"]) == (None, None)


class TestFeaturesCommand:
    def test_writes_matrix_and_scaler(self, candles_csv, capsys, tmp_path):
        out = tmp_path / "features.csv"
        scaler = tmp_path / "scaler.json"
        code, stdout, _ = run_cli(
            ["features", "--candles", candles_csv, "--out", str(out),
             "--scaler-out", str(scaler)], capsys)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 421  # header + one row per candle
        doc = json.loads(scaler.read_text())
        assert set(doc) == {"columns", "mean", "std"}

    @pytest.fixture
    def empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("timestamp,open,high,low,close,volume_usd\n")
        return str(path)

    def test_header_only_candles_write_header_only_matrix(self, empty_csv,
                                                          capsys, tmp_path):
        out = tmp_path / "features.csv"
        code, stdout, err = run_cli(
            ["features", "--candles", empty_csv, "--out", str(out)], capsys)
        assert code == 0, err
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 and rows[0][0] == "timestamp"
        assert "wrote 0 feature rows" in stdout

    def test_header_only_candles_cannot_fit_a_scaler(self, empty_csv, capsys,
                                                     tmp_path):
        code, _, err = run_cli(
            ["features", "--candles", empty_csv, "--out",
             str(tmp_path / "features.csv"), "--scaler-out",
             str(tmp_path / "scaler.json")], capsys)
        assert code == 1
        assert err.strip() == "error: run: no finite feature rows to fit scaler on"
        assert not (tmp_path / "scaler.json").exists()


class TestTrainCommand:
    def test_short_train_writes_artifacts(self, candles_csv, capsys, tmp_path):
        out = tmp_path / "train"
        code, stdout, _ = run_cli(
            ["train", "--candles", candles_csv, "--seed", "1",
             "--episode-length", "40", "--budget", "400",
             "--train-hours", "150", "--val-hours", "50",
             "--out-dir", str(out)], capsys)
        assert code == 0
        assert "wrote" in stdout
        params, _, meta = load_checkpoint(str(out / "checkpoint.json"))
        assert params.n_outputs == 11
        assert meta["seed"] == 1
        assert set(meta["scaler"]) == {"columns", "mean", "std"}
        assert (out / "training_log.csv").exists()
        assert (out / "run.json").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--budget", "0"), ("--budget", "-5"), ("--episode-length", "0"),
        ("--train-hours", "0"), ("--train-hours", "40"), ("--val-hours", "0"),
        ("--l0", "nan"), ("--gas", "inf"), ("--learning-rate", "nan"),
        ("--learning-rate", "inf"), ("--learning-rate", "0"),
        ("--batch-size", "0"), ("--buffer", "0"), ("--fee-tier", "nan"),
    ])
    def test_rejects_values_that_used_to_fall_back(self, candles_csv, capsys,
                                                   tmp_path, flag, value,
                                                   monkeypatch):
        """Each is one config error before the candle file is read; the
        episode length is 40, so 40 train hours hold no full episode."""
        monkeypatch.setattr(backtest, "load_candles_csv", _never)
        out = tmp_path / "t"
        code, _, err = run_cli(
            ["train", "--candles", candles_csv, "--episode-length", "40",
             flag, value, "--out-dir", str(out)], capsys)
        assert code == 1
        field = flag[2:].replace("-", "_")
        assert err.strip().startswith(f"error: config: {field} must be")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_episodes_is_not_a_flag(self, candles_csv, capsys, tmp_path):
        code, _, err = run_cli(
            ["train", "--candles", candles_csv, "--episodes", "0",
             "--out-dir", str(tmp_path / "t")], capsys)
        assert code == 2
        assert err.strip() == "error: usage: unrecognized arguments: --episodes 0"
        assert not (tmp_path / "t").exists()

    def test_rejects_non_integer_budget_from_config_file(self, candles_csv,
                                                         capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": "400"}))
        code, _, err = run_cli(
            ["train", "--config", str(cfg), "--candles", candles_csv,
             "--out-dir", str(tmp_path / "t")], capsys)
        assert code == 1
        assert err.strip() == "error: config: budget must be a positive integer, got '400'"

    def test_rejects_oversized_split(self, candles_csv, capsys, tmp_path,
                                     monkeypatch):
        monkeypatch.setattr(backtest, "compute_feature_matrix", _never)
        code, _, err = run_cli(
            ["train", "--candles", candles_csv, "--train-hours", "5000",
             "--val-hours", "50", "--out-dir", str(tmp_path / "t")], capsys)
        assert code == 1
        assert err.strip() == ("error: config: window needs candles through "
                               "index 5250, series has 420")

    def test_short_series_is_data_error(self, capsys, tmp_path):
        path = str(tmp_path / "candles.csv")
        save_candles_csv(synth_gbm(2000.0, 0.0, 0.01, 215, seed=1), path)
        code, _, err = run_cli(["train", "--candles", path, "--out-dir",
                                str(tmp_path / "t")], capsys)
        assert code == 1
        assert err.strip() == ("error: data: series too short to train on: 215 "
                               "candles, 9 train hours for 100-hour episodes")
        assert not (tmp_path / "t").exists()

    def test_default_train_hours_must_hold_an_episode(self, candles_csv, capsys,
                                                      tmp_path, monkeypatch):
        monkeypatch.setattr(backtest, "compute_feature_matrix", _never)
        code, _, err = run_cli(["train", "--candles", candles_csv, "--episode-length",
                                "200", "--out-dir", str(tmp_path / "t")], capsys)
        assert code == 1
        assert err.strip() == ("error: data: series too short to train on: 420 "
                               "candles, 153 train hours for 200-hour episodes")


class TestReportCommand:
    def test_aggregates_runs(self, candles_csv, capsys, tmp_path):
        dirs = []
        for name, argv in (
            ("tau", ["backtest", "--method", "tau-reset", "--tau", "6"]),
            ("ewa", ["backtest", "--method", "ewa", "--ewa-widths", "5",
                     "--ewa-eta", "1.0", "--ewa-t-re", "24"]),
        ):
            out = str(tmp_path / name)
            code, _, _ = run_cli(
                argv + ["--candles", candles_csv, "--offset", "10",
                        "--horizon", "150", "--out-dir", out], capsys)
            assert code == 0
            dirs.append(out)
        report_dir = tmp_path / "report"
        code, stdout, _ = run_cli(
            ["report", "--runs", *dirs, "--out-dir", str(report_dir)], capsys)
        assert code == 0
        rows = read_report_csv(str(report_dir / "summary.csv"))
        assert len(rows) == 2
        assert (report_dir / "cumulative_pnl.csv").exists()
        assert (report_dir / "actions.csv").exists()

    def test_run_dir_without_actions_csv_is_an_error(self, candles_csv, capsys,
                                                     tmp_path):
        run_dir = tmp_path / "tau"
        code, _, _ = run_cli(
            ["backtest", "--method", "tau-reset", "--tau", "6", "--candles",
             candles_csv, "--offset", "10", "--horizon", "150",
             "--out-dir", str(run_dir)], capsys)
        assert code == 0
        (run_dir / "actions.csv").unlink()
        code, _, err = run_cli(["report", "--runs", str(run_dir), "--out-dir",
                                str(tmp_path / "report")], capsys)
        assert code == 1
        assert err.strip().startswith("error: run:")
        assert "actions.csv" in err
        assert len(err.strip().splitlines()) == 1

    def test_refuses_the_same_run_twice(self, candles_csv, capsys, tmp_path):
        """A copied run directory is the same run: its histogram and PnL
        would otherwise be counted twice or dropped."""
        run_dir = tmp_path / "tau"
        code, _, _ = run_cli(
            ["backtest", "--method", "tau-reset", "--tau", "6", "--candles",
             candles_csv, "--offset", "10", "--horizon", "150",
             "--out-dir", str(run_dir)], capsys)
        assert code == 0
        shutil.copytree(run_dir, tmp_path / "copy")
        digest = json.loads((run_dir / "run.json").read_text())["config_hash"]
        code, _, err = run_cli(["report", "--runs", str(run_dir), str(tmp_path / "copy"),
                                "--out-dir", str(tmp_path / "report")], capsys)
        assert code == 1
        assert err.strip() == f"error: report: refusing to aggregate run {digest} twice"
        assert not (tmp_path / "report").exists()


class TestVerifyCommand:
    def test_single_fast_criterion(self, capsys):
        code, stdout, _ = run_cli(["verify", "--criteria", "8"], capsys)
        assert code == 0
        lines = [l for l in stdout.splitlines() if l.startswith("criterion 8")]
        assert len(lines) == 1
        assert "PASS" in lines[0]

    def test_unknown_criterion_number(self, capsys):
        code, _, err = run_cli(["verify", "--criteria", "99"], capsys)
        assert code == 1
        assert err.strip().startswith("error: run:")


DEAD_ENDPOINT = "http://127.0.0.1:9/subgraph"


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _same_tree(a, b):
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


class TestConfigFile:
    """A config file's values are checked like the flags' values."""

    @pytest.mark.parametrize("command,doc,message", [
        ("train", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("train", {"n_actions": 10.7}, "n_actions must be an integer, got 10.7"),
        ("train", {"episode_length": 40.9},
         "episode_length must be an integer, got 40.9"),
        ("train", {"l0": "250"}, "l0 must be a number, got '250'"),
        ("backtest", {"method": "tau-reset", "tau": 4, "fee_tier": "0.003"},
         "fee_tier must be a number, got '0.003'"),
        ("backtest", {"method": "tau-reset", "tau": 4.0},
         "tau must be an integer, got 4.0"),
        ("backtest", {"method": "tau-reset", "tau": 4, "seed": True},
         "seed must be an integer, got True"),
        ("features", {"window": 30}, "unknown config field 'window'"),
        ("ingest", {"retries": 3}, "unknown config field 'retries'"),
    ], ids=["train-seed", "train-n_actions", "train-episode_length",
            "train-l0", "backtest-fee_tier", "backtest-tau", "backtest-seed",
            "features-unknown", "ingest-unknown"])
    def test_wrong_value_is_one_config_error(self, candles_csv, capsys,
                                             tmp_path, command, doc, message):
        cfg = _write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        flags = {
            "train": ["--candles", candles_csv, "--budget", "400",
                      "--train-hours", "150", "--val-hours", "50",
                      "--out-dir", str(out)],
            "backtest": ["--candles", candles_csv, "--out-dir", str(out)],
            "features": ["--candles", candles_csv, "--out", str(out)],
            "ingest": ["--endpoint", DEAD_ENDPOINT, "--pool-id", "0xabc",
                       "--start", "2022-01-01", "--end", "2022-01-02",
                       "--cache-dir", str(out)],
        }[command]
        code, _, err = run_cli([command, "--config", cfg, *flags], capsys)
        assert code == 1
        assert err.strip() == f"error: config: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("command,flags", [
        ("backtest", ["--method", "tau-reset", "--tau", "4", "--offset", "10",
                      "--horizon", "100"]),
        ("train", ["--seed", "1", "--episode-length", "40", "--budget", "200",
                   "--train-hours", "150", "--val-hours", "50"]),
    ])
    def test_integer_float_setting_equals_its_flag(self, candles_csv, capsys,
                                                   tmp_path, command, flags):
        cfg = _write_json(tmp_path / "cfg.json", {"l0": 250})
        base = [command, *flags, "--candles", candles_csv]
        code, _, _ = run_cli(base + ["--config", cfg, "--out-dir",
                                     str(tmp_path / "file")], capsys)
        assert code == 0
        code, _, _ = run_cli(base + ["--l0", "250", "--out-dir",
                                     str(tmp_path / "flag")], capsys)
        assert code == 0
        assert _same_tree(tmp_path / "file", tmp_path / "flag")

    def test_config_key_order_does_not_change_checkpoint(self, candles_csv,
                                                          capsys, tmp_path):
        settings = [("candles", candles_csv), ("seed", 2), ("episode_length", 40),
                    ("budget", 200), ("train_hours", 150), ("val_hours", 50)]
        for name, items in (("fwd", settings), ("rev", settings[::-1])):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(dict(items)))
            code, _, err = run_cli(["train", "--config", str(cfg), "--out-dir",
                                    str(tmp_path / name)], capsys)
            assert code == 0, err
        assert _same_tree(tmp_path / "fwd", tmp_path / "rev")

    @pytest.mark.parametrize("command,flags", [
        ("backtest", ["--method", "ewa", "--ewa-widths", "5", "--ewa-eta", "1.0",
                      "--ewa-t-re", "24", "--offset", "10", "--horizon", "100"]),
        ("backtest", ["--method", "tau-reset", "--pool", "usdc", "--period", "1"]),
        ("backtest", ["--method", "ewa", "--pool", "usdc", "--period", "2"]),
        ("train", ["--seed", "2", "--episode-length", "40", "--budget", "200",
                   "--train-hours", "150", "--val-hours", "50"]),
    ], ids=["backtest", "backtest-tau-table", "backtest-ewa-table", "train"])
    def test_run_json_config_reruns_identically(self, candles_csv, period_csv,
                                                capsys, tmp_path, command, flags):
        candles = period_csv if "--period" in flags else candles_csv
        code, _, _ = run_cli([command, *flags, "--candles", candles,
                              "--out-dir", str(tmp_path / "a")], capsys)
        assert code == 0
        config = json.loads((tmp_path / "a" / "run.json").read_text())["config"]
        if command == "backtest" and "--period" not in flags:
            assert config["period"] is None  # null reads as unset
        cfg = _write_json(tmp_path / "cfg.json", config)
        code, _, err = run_cli([command, "--config", cfg, "--out-dir",
                                str(tmp_path / "b")], capsys)
        assert code == 0, err
        assert _same_tree(tmp_path / "a", tmp_path / "b")

    @pytest.mark.parametrize("command", ["report", "verify"])
    def test_commands_without_settings_take_no_config(self, capsys, tmp_path,
                                                      command):
        code, _, err = run_cli([command, "--config", str(tmp_path / "x.json")],
                               capsys)
        assert code == 2
        assert err.strip().startswith("error: usage: unrecognized arguments")


class TestRunIdentity:
    """A run's digest names the bytes it read, not the paths it read them
    from: the same inputs copied to two directories give the same
    artifacts, and run.json alone records where they were."""

    def _copies(self, candles_csv, tmp_path):
        ckpt = str(tmp_path / "net.json")
        save_checkpoint(ckpt, init_params(OBSERVATION_DIM, 11, seed=5))
        dirs = []
        for name in ("x", "y"):
            d = tmp_path / name
            d.mkdir()
            shutil.copyfile(candles_csv, d / "candles.csv")
            shutil.copyfile(ckpt, d / "net.json")
            dirs.append(d)
        return dirs

    def _only_paths_differ(self, a, b):
        doc_a, doc_b = (json.loads((d / "run.json").read_text()) for d in (a, b))
        assert doc_a != doc_b
        for key in ("candles", "checkpoint"):
            if doc_a["config"].get(key) is not None:
                assert doc_a["config"][key].startswith(str(a.parent))
                doc_a["config"][key] = doc_b["config"][key]
        assert doc_a == doc_b

    @pytest.mark.parametrize("method", [
        ["--method", "tau-reset", "--tau", "4"],
        ["--method", "ewa", "--ewa-widths", "5", "--ewa-eta", "1.0",
         "--ewa-t-re", "24"],
        ["--method", "ddqn", "--checkpoint", "{}/net.json"],
    ], ids=["tau-reset", "ewa", "ddqn"])
    def test_backtest_inputs_at_two_paths(self, candles_csv, capsys, tmp_path,
                                          method):
        for d in self._copies(candles_csv, tmp_path):
            argv = ["backtest", *(f.format(d) for f in method), "--candles",
                    str(d / "candles.csv"), "--offset", str(WARMUP_CANDLES),
                    "--horizon", "100", "--out-dir", str(d / "run")]
            code, _, err = run_cli(argv, capsys)
            assert code == 0, err
        a, b = tmp_path / "x" / "run", tmp_path / "y" / "run"
        for name in ("report.csv", "trace.csv", "actions.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        self._only_paths_differ(a, b)

    def test_train_inputs_at_two_paths(self, candles_csv, capsys, tmp_path):
        for d in self._copies(candles_csv, tmp_path):
            code, _, err = run_cli(
                ["train", "--candles", str(d / "candles.csv"), "--seed", "2",
                 "--episode-length", "40", "--budget", "200", "--train-hours",
                 "150", "--val-hours", "50", "--out-dir", str(d / "run")], capsys)
            assert code == 0, err
        a, b = tmp_path / "x" / "run", tmp_path / "y" / "run"
        for name in ("checkpoint.json", "training_log.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        self._only_paths_differ(a, b)

    def test_candle_edited_in_place_changes_hash(self, capsys, tmp_path):
        path = str(tmp_path / "candles.csv")
        candles = synth_gbm(2000.0, 0.0, 0.01, 300, seed=8)
        save_candles_csv(candles, path)

        def config_hash(name):
            code, _, err = run_cli(
                ["backtest", "--method", "tau-reset", "--tau", "4", "--candles",
                 path, "--out-dir", str(tmp_path / name)], capsys)
            assert code == 0, err
            return read_report_csv(str(tmp_path / name / "report.csv"))[0]["config_hash"]

        before = config_hash("before")
        assert candles[250].close != candles[250].low
        rows = list(candles)
        rows[250] = rows[250]._replace(close=rows[250].low)
        save_candles_csv(CandleSeries.from_rows(rows), path)
        assert config_hash("after") != before


@pytest.fixture(scope="module")
def command_dirs(candles_csv, tmp_path_factory):
    """A directory written by each command that takes --out-dir, named
    after it, and the argv that wrote it (without --out-dir)."""
    root = tmp_path_factory.mktemp("commands")
    argvs = {
        "train": ["train", "--candles", candles_csv, "--seed", "1",
                  "--episode-length", "40", "--budget", "200",
                  "--train-hours", "150", "--val-hours", "50"],
        "backtest": ["backtest", "--method", "tau-reset", "--tau", "6",
                     "--candles", candles_csv, "--offset", "10", "--horizon", "100"],
        "report": ["report", "--runs", str(root / "backtest")],
    }
    for command, argv in argvs.items():
        assert main(argv + ["--out-dir", str(root / command)]) == 0
    return root, argvs


def _tree_bytes(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


class TestOneSettingsGate:
    """backtest.check_settings checks every command's settings and out_dir
    before any file is read."""

    @pytest.mark.parametrize("argv", [["train"], ["backtest", "--method", "tau-reset",
                                                   "--tau", "6"]], ids=["train", "backtest"])
    def test_negative_seed_is_config_error_before_candles_load(
            self, candles_csv, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(backtest, "load_candles_csv", _never)
        code, _, err = run_cli([*argv, "--seed", "-1", "--candles", candles_csv,
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert err.strip() == "error: config: seed must be >= 0, got -1"
        assert not (tmp_path / "out").exists()

    def test_library_caller_integer_float_setting_equals_its_flag(
            self, candles_csv, capsys, tmp_path):
        argv = ["--method", "tau-reset", "--tau", "4", "--offset", "10",
                "--horizon", "100", "--candles", candles_csv]
        backtest.run_backtest_dir(dict(method="tau-reset", tau=4, offset=10, horizon=100,
                                       candles=candles_csv, l0=250), str(tmp_path / "lib"))
        code, _, _ = run_cli(["backtest", *argv, "--l0", "250",
                              "--out-dir", str(tmp_path / "flag")], capsys)
        assert code == 0
        assert _same_tree(tmp_path / "lib", tmp_path / "flag")

    def test_each_command_writes_the_files_it_declares(self, command_dirs):
        root, argvs = command_dirs
        for command in argvs:
            assert sorted(os.listdir(root / command)) == sorted(OUT_DIR_FILES[command])

    @pytest.mark.parametrize("command,onto,held", [
        ("backtest", "train", "checkpoint.json"),
        ("train", "backtest", "actions.csv"),
        ("report", "backtest", "report.csv"),
        ("backtest", "report", "cumulative_pnl.csv"),
    ], ids=["backtest-onto-train", "train-onto-backtest", "report-onto-backtest",
            "backtest-onto-report"])
    def test_out_dir_of_another_command_is_refused_before_any_read(
            self, command_dirs, capsys, tmp_path, monkeypatch, command, onto, held):
        root, argvs = command_dirs
        target = tmp_path / onto
        shutil.copytree(root / onto, target)
        before = _tree_bytes(target)
        monkeypatch.setattr(backtest, "load_candles_csv", _never)
        monkeypatch.setattr(Report, "from_run_dirs", _never)
        code, _, err = run_cli(argvs[command] + ["--out-dir", str(target)], capsys)
        assert code == 1
        assert err.strip() == f"error: run: out_dir {target} holds another command's {held}"
        assert _tree_bytes(target) == before

    @pytest.mark.parametrize("onto,held", [("train", "checkpoint.json"),
                                           ("report", "cumulative_pnl.csv")])
    def test_library_write_run_dir_refuses_another_commands_dir(
            self, command_dirs, candles_csv, tmp_path, onto, held):
        root, _ = command_dirs
        target = tmp_path / onto
        shutil.copytree(root / onto, target)
        before = _tree_bytes(target)
        result = backtest.run_backtest(backtest.load_candles_csv(candles_csv),
                                       RunConfig(method="tau-reset", tau=6, offset=10,
                                                 horizon=100))
        with pytest.raises(FileExistsError) as got:
            backtest.write_run_dir(result, str(target))
        assert str(got.value) == f"out_dir {target} holds another command's {held}"
        assert _tree_bytes(target) == before

    @pytest.mark.parametrize("command", ["train", "backtest", "report"])
    def test_rerun_into_its_own_directory_keeps_its_bytes(self, command_dirs, capsys,
                                                           tmp_path, command):
        root, argvs = command_dirs
        shutil.copytree(root / command, tmp_path / command)
        code, _, err = run_cli(argvs[command] + ["--out-dir", str(tmp_path / command)],
                               capsys)
        assert code == 0, err
        assert _same_tree(root / command, tmp_path / command)


class TestIngestCommand:
    @pytest.mark.parametrize("start,end,message", [
        ("2022-13-01", "2022-12-02",
         "start must be a YYYY-MM-DD date, got '2022-13-01'"),
        ("2022-01-01", "01/02/2022",
         "end must be a YYYY-MM-DD date, got '01/02/2022'"),
        ("2022-01-02", "2022-01-02",
         "end 2022-01-02 must be after start 2022-01-02"),
        ("2022-01-03", "2022-01-02",
         "end 2022-01-02 must be after start 2022-01-03"),
    ])
    def test_bad_dates_are_config_errors_before_any_request(
            self, capsys, tmp_path, start, end, message):
        cache = tmp_path / "cache"
        code, _, err = run_cli(
            ["ingest", "--endpoint", DEAD_ENDPOINT, "--pool-id", "0xabc",
             "--start", start, "--end", end, "--cache-dir", str(cache)], capsys)
        assert code == 1
        assert err.strip() == f"error: config: {message}"
        assert not cache.exists()


# (option, dest, type) of every flag: scripts name these, so generating the
# flags from SETTING_KINDS must keep them. report and verify take no --config.
PARSER_FLAGS = {
    "ingest": [
        ("--config", "config", None), ("--endpoint", "endpoint", None),
        ("--pool-id", "pool_id", None), ("--start", "start", None),
        ("--end", "end", None), ("--cache-dir", "cache_dir", None)],
    "features": [
        ("--config", "config", None), ("--candles", "candles", None),
        ("--out", "out", None), ("--scaler-out", "scaler_out", None)],
    "train": [
        ("--config", "config", None), ("--out-dir", "out_dir", None),
        ("--candles", "candles", None), ("--seed", "seed", int),
        ("--l0", "l0", float), ("--gas", "gas", float),
        ("--n-actions", "n_actions", int), ("--fee-tier", "fee_tier", float),
        ("--tick-spacing", "tick_spacing", int), ("--pool", "pool", None),
        ("--reward-mode", "reward_mode", None),
        ("--path-model", "path_model", None),
        ("--episode-length", "episode_length", int),
        ("--budget", "budget", int),
        ("--train-hours", "train_hours", int),
        ("--val-hours", "val_hours", int),
        ("--learning-rate", "learning_rate", float),
        ("--batch-size", "batch_size", int), ("--buffer", "buffer", int)],
    "backtest": [
        ("--config", "config", None), ("--out-dir", "out_dir", None),
        ("--method", "method", None), ("--candles", "candles", None),
        ("--pool", "pool", None), ("--fee-tier", "fee_tier", float),
        ("--tick-spacing", "tick_spacing", int), ("--period", "period", int),
        ("--offset", "offset", int), ("--horizon", "horizon", int),
        ("--l0", "l0", float), ("--gas", "gas", float),
        ("--n-actions", "n_actions", int),
        ("--reward-mode", "reward_mode", None),
        ("--path-model", "path_model", None), ("--seed", "seed", int),
        ("--tau", "tau", int), ("--ewa-widths", "ewa_widths", int),
        ("--ewa-eta", "ewa_eta", float), ("--ewa-t-re", "ewa_t_re", int),
        ("--checkpoint", "checkpoint", None), ("--label", "label", None)],
    "report": [("--runs", "runs", None), ("--out-dir", "out_dir", None)],
    "verify": [("--criteria", "criteria", None),
               ("--work-dir", "work_dir", None)],
}


def test_parser_flags_keep_their_names_dests_and_types():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: [(a.option_strings[0], a.dest, a.type) for a in p._actions
                  if a.dest != "help"]
           for name, p in sub.choices.items()}
    assert got == PARSER_FLAGS
    runs = next(a for a in sub.choices["report"]._actions if a.dest == "runs")
    assert runs.nargs == "+"


def test_every_setting_kind_is_declared_once_and_matches_its_field():
    """An int or float setting has a kind of its field's type, and every
    kind names some command's setting."""
    want = dict.fromkeys(("episode_length", "budget", "train_hours", "val_hours"), int)
    for name, hint in get_type_hints(RunConfig).items():
        (kind,) = set(get_args(hint) or (hint,)) - {type(None)}
        if kind in (int, float):
            want[name] = kind
    want.update({name: hint for name, hint in get_type_hints(DDQNConfig).items()
                 if name in TRAIN_FIELDS})
    assert {name: KINDS[SETTING_KINDS[name]][0] for name in want
            if name in SETTING_KINDS} == want
    commands = BACKTEST_FIELDS + TRAIN_FIELDS + INGEST_FIELDS + FEATURES_FIELDS
    assert set(SETTING_KINDS) <= set(commands)


def test_bundled_fixture_is_packaged():
    assert os.path.exists(bundled_candles_path())


def test_cli_and_backtest_import_no_http_client():
    """Only ingest needs the network stack: importing the CLI and the
    backtest loads neither http.client nor urllib.request."""
    src = os.path.dirname(os.path.dirname(backtest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, clmmlab.cli, clmmlab.backtest; "
            "print(sorted(m for m in ('http.client', 'urllib.request') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# numpy's dispatch groups above its x86-64 baseline; a run without them
# and on OpenBLAS's oldest x86-64 kernel takes the narrowest code paths
NARROW_NUMPY = ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3")


def test_tau_reset_bytes_do_not_depend_on_simd_or_blas_kernels(tmp_path):
    """A tau-reset backtest writes the same trace.csv and report.csv bytes
    with numpy's wider SIMD paths disabled and OpenBLAS on its Prescott
    kernel as with the defaults."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"the feature groups are x86-64's; this machine is "
                    f"{platform.machine()}")
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:
        pytest.skip("numpy before 2.0 does not report its dispatch groups")
    missing = sorted(set(NARROW_NUMPY) - set(__cpu_dispatch__))
    if missing:
        pytest.skip(f"numpy does not report the feature groups {missing}")
    narrow = {"NPY_DISABLE_CPU_FEATURES": " ".join(NARROW_NUMPY),
              "OPENBLAS_CORETYPE": "Prescott"}
    base = {k: v for k, v in os.environ.items() if k not in narrow}
    src = os.path.dirname(os.path.dirname(backtest.__file__))
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    runs = {}
    for name, env in (("default", base), ("narrow", {**base, **narrow})):
        runs[name] = tmp_path / name
        subprocess.run([sys.executable, "-m", "clmmlab.cli", "backtest",
                        "--method", "tau-reset", "--tau", "3", "--offset", "200",
                        "--horizon", "999", "--candles", bundled_candles_path(),
                        "--out-dir", str(runs[name])],
                       env=env, check=True, capture_output=True, timeout=300)
    for name in ("trace.csv", "report.csv"):
        assert filecmp.cmp(runs["default"] / name, runs["narrow"] / name,
                           shallow=False), name
