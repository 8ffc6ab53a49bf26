"""Command-line entry point.

Subcommands: ingest (fetch/cache pool hours), features (emit the
indicator matrix), train (DDQN), backtest (any method over a candle
window), report (aggregate run directories), verify (the property
suites). Every subcommand accepts --config pointing at a JSON file;
explicit flags win over config file values. Errors come out as a single
machine-parsable line: `error: <category>: <message>`.
"""

import argparse
import dataclasses
import json
import os
import sys
from typing import Dict, Optional, Sequence

from . import nets
from .backtest import RunConfig, RunError, dict_hash, run_backtest, write_run_dir
from .dqn import DDQNConfig, TRAINING_LOG_HEADER, train_ddqn
from .env import EnvConfig, LPEnv
from .features import (FEATURE_NAMES, FeatureScaler, WARMUP_CANDLES,
                       compute_feature_matrix)
from .marketdata import (DataValidationError, _utc, load_candles_csv)
from .report import Report, ReportError, in_header_order, write_csv_rows
from .amm import PoolSpec

PROG = "clmmlab"

DEFAULT_CACHE = os.environ.get("CLMMLAB_CACHE",
                               os.path.expanduser("~/.cache/clmmlab"))


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on one line."""

    def error(self, message):
        raise CliError("usage", message)


def _load_config(path: Optional[str]) -> Dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CliError("config", f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise CliError("config", f"config file {path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise CliError("config", f"config file {path} must hold a JSON object")
    return data


def _merge(args: argparse.Namespace, fields: Sequence[str]) -> Dict:
    """Config-file values overridden by explicitly passed flags."""
    data = _load_config(getattr(args, "config", None))
    for name in fields:
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    return data


def _require(data: Dict, key: str) -> object:
    if data.get(key) in (None, ""):
        raise CliError("config", f"missing required field {key!r}")
    return data[key]


# -- subcommands -----------------------------------------------------------

def cmd_ingest(args) -> int:
    from .subgraph import SubgraphClient, fetch_pool_hours
    data = _merge(args, ("endpoint", "pool_id", "start", "end", "cache_dir"))
    endpoint = _require(data, "endpoint")
    pool_id = _require(data, "pool_id")
    start = _utc(str(_require(data, "start")))
    end = _utc(str(_require(data, "end")))
    cache_dir = data.get("cache_dir") or DEFAULT_CACHE
    client = SubgraphClient(endpoint)
    candles = fetch_pool_hours(client, pool_id, start, end, cache_dir)
    print(f"ingested {len(candles)} hours for {pool_id} into {cache_dir} "
          f"({client.request_count} requests)")
    return 0


def cmd_features(args) -> int:
    data = _merge(args, ("candles", "out", "scaler_out"))
    candles = load_candles_csv(str(_require(data, "candles")))
    out = str(_require(data, "out"))
    matrix = compute_feature_matrix(candles)
    write_csv_rows(out, ["timestamp"] + FEATURE_NAMES,
                   [[c.timestamp] + row.tolist() for c, row in zip(candles, matrix)])
    print(f"wrote {len(matrix)} feature rows to {out}")
    if data.get("scaler_out"):
        scaler = FeatureScaler.fit(matrix[WARMUP_CANDLES:])
        with open(str(data["scaler_out"]), "w") as fh:
            fh.write(scaler.to_json())
        print(f"wrote scaler to {data['scaler_out']}")
    return 0


TRAIN_FIELDS = ("candles", "seed", "l0", "gas", "n_actions", "fee_tier",
                "tick_spacing", "pool", "reward_mode", "path_model",
                "episode_length", "episodes", "budget", "train_hours",
                "val_hours", "learning_rate", "batch_size", "buffer")

TRAIN_DEFAULTS = dict(seed=0, l0=250.0, gas=1.0, n_actions=10,
                      fee_tier=0.003, tick_spacing=60, pool="synth",
                      reward_mode="hedged", path_model="candle",
                      episode_length=100, episodes=50,
                      learning_rate=1e-4, batch_size=256, buffer=1_000_000)


def _train_settings(args) -> Dict:
    data = _merge(args, TRAIN_FIELDS)
    unknown = set(data) - set(TRAIN_FIELDS)
    if unknown:
        raise CliError("config", f"unknown config field {sorted(unknown)[0]!r}")
    merged = dict(TRAIN_DEFAULTS)
    merged.update({k: v for k, v in data.items() if v is not None})
    _require(merged, "candles")
    for key in ("budget", "episodes", "train_hours", "val_hours"):
        value = merged.get(key)
        if value is not None and not (isinstance(value, int) and value > 0):
            raise CliError("config", f"{key} must be a positive integer, got {value!r}")
    return merged


def cmd_train(args) -> int:
    s = _train_settings(args)
    out_dir = args.out_dir
    if not out_dir:
        raise CliError("config", "missing required field 'out_dir'")
    candles = load_candles_csv(str(s["candles"]))
    usable = len(candles) - WARMUP_CANDLES - 1
    if usable < 20:
        raise CliError("data", f"series too short to train on: {len(candles)} candles")
    train_hours = s.get("train_hours", int(usable * 0.7))
    val_hours = s.get("val_hours", max(len(candles) - WARMUP_CANDLES - 1
                                       - train_hours - 1, 10))
    episode_length = int(s["episode_length"])
    if train_hours < episode_length + 1:
        raise CliError("config", "train_hours must exceed episode_length")
    val_start = WARMUP_CANDLES + train_hours
    if val_start + val_hours >= len(candles):
        raise CliError("config", "train_hours + val_hours exceed the series")
    budget = s.get("budget", int(s["episodes"]) * episode_length)

    try:
        pool = PoolSpec(fee_tier=float(s["fee_tier"]),
                        tick_spacing=int(s["tick_spacing"]))
        train_config = EnvConfig(
            pool=pool, l0=float(s["l0"]), gas=float(s["gas"]),
            n_actions=int(s["n_actions"]), path_model=str(s["path_model"]),
            reward_mode=str(s["reward_mode"]), episode_length=episode_length)
        dconf = DDQNConfig(learning_rate=float(s["learning_rate"]),
                           batch_size=int(s["batch_size"]),
                           buffer_capacity=int(s["buffer"]))
    except ValueError as e:
        raise CliError("config", str(e))
    matrix = compute_feature_matrix(candles)
    scaler = FeatureScaler.fit(matrix[WARMUP_CANDLES:val_start])
    train_slice = slice(0, val_start + 1)
    train_env = LPEnv(candles[train_slice], train_config,
                      feature_matrix=matrix[train_slice], scaler=scaler)
    eval_env = LPEnv(candles[:val_start + val_hours + 1],
                     dataclasses.replace(train_config, episode_length=val_hours),
                     feature_matrix=matrix[:val_start + val_hours + 1],
                     scaler=scaler)
    result = train_ddqn(train_env, eval_env, dconf, budget,
                        seed=int(s["seed"]), eval_offsets=[val_start])

    os.makedirs(out_dir, exist_ok=True)
    settings = dict(s, train_hours=train_hours, val_hours=val_hours,
                    budget=budget, method="ddqn")
    digest = dict_hash(settings)
    seed = int(s["seed"])
    metadata = {"config_hash": digest, "seed": seed,
                "scaler": json.loads(scaler.to_json()),
                "settings": {k: v for k, v in settings.items()},
                "best_val_return": result.best_val_return,
                "episodes": result.episodes, "steps": result.steps}
    ckpt = os.path.join(out_dir, "checkpoint.json")
    nets.save_checkpoint(ckpt, result.params, metadata=metadata)
    write_csv_rows(os.path.join(out_dir, "training_log.csv"),
                   TRAINING_LOG_HEADER + ["config_hash", "seed"],
                   [values + [digest, seed] for values in
                    in_header_order(result.log, TRAINING_LOG_HEADER)])
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump({"config": settings, "config_hash": digest, "seed": seed,
                   "steps": result.steps, "episodes": result.episodes,
                   "best_val_return": result.best_val_return},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"trained {result.episodes} episodes ({result.steps} steps), "
          f"best val return {result.best_val_return:.4f}, wrote {ckpt}")
    return 0


BACKTEST_FIELDS = tuple(
    f for f in RunConfig.__dataclass_fields__)  # type: ignore[attr-defined]


def cmd_backtest(args) -> int:
    data = _merge(args, BACKTEST_FIELDS)
    out_dir = args.out_dir
    if not out_dir:
        raise CliError("config", "missing required field 'out_dir'")
    config = RunConfig.from_dict(data)
    if not config.candles:
        raise CliError("config", "missing required field 'candles'")
    candles = load_candles_csv(config.candles)
    result = run_backtest(candles, config)
    paths = write_run_dir(result, out_dir)
    row = result.to_row()
    print(f"wrote {paths['report']}: method={row['method']} "
          f"hours={row['hours']} relative_pnl={row['relative_pnl']:.6f}")
    return 0


def cmd_report(args) -> int:
    if not args.runs:
        raise CliError("usage", "report needs at least one --runs directory")
    out_dir = args.out_dir
    if not out_dir:
        raise CliError("config", "missing required field 'out_dir'")
    report = Report.from_run_dirs(args.runs)
    os.makedirs(out_dir, exist_ok=True)
    report.write_summary_csv(os.path.join(out_dir, "summary.csv"))
    report.write_cumulative_csv(os.path.join(out_dir, "cumulative_pnl.csv"))
    report.write_actions_csv(os.path.join(out_dir, "actions.csv"))
    print(f"aggregated {len(report.rows)} runs into {out_dir}")
    return 0


def cmd_verify(args) -> int:
    from . import verification
    criteria = None
    if args.criteria:
        try:
            criteria = sorted({int(x) for x in args.criteria.split(",")})
        except ValueError:
            raise CliError("usage", f"bad --criteria list: {args.criteria!r}")
    results = verification.run_checks(criteria, work_dir=args.work_dir,
                                      progress=print)
    return 0 if all(r.passed for r in results) else 1


# -- parser ----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, fn, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(run=fn)
        p.add_argument("--config", help="JSON config file; flags override it")
        return p

    p = add("ingest", cmd_ingest, "fetch and cache hourly pool data")
    p.add_argument("--endpoint")
    p.add_argument("--pool-id", dest="pool_id")
    p.add_argument("--start", help="YYYY-MM-DD (UTC)")
    p.add_argument("--end", help="YYYY-MM-DD (UTC, exclusive)")
    p.add_argument("--cache-dir", dest="cache_dir")

    p = add("features", cmd_features, "emit the feature matrix as CSV")
    p.add_argument("--candles")
    p.add_argument("--out")
    p.add_argument("--scaler-out", dest="scaler_out")

    p = add("train", cmd_train, "train the DDQN agent")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--candles")
    p.add_argument("--seed", type=int)
    p.add_argument("--l0", type=float)
    p.add_argument("--gas", type=float)
    p.add_argument("--n-actions", dest="n_actions", type=int)
    p.add_argument("--fee-tier", dest="fee_tier", type=float)
    p.add_argument("--tick-spacing", dest="tick_spacing", type=int)
    p.add_argument("--pool")
    p.add_argument("--reward-mode", dest="reward_mode")
    p.add_argument("--path-model", dest="path_model")
    p.add_argument("--episode-length", dest="episode_length", type=int)
    p.add_argument("--episodes", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--train-hours", dest="train_hours", type=int)
    p.add_argument("--val-hours", dest="val_hours", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--buffer", type=int)

    p = add("backtest", cmd_backtest, "replay one method over a window")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--method")
    p.add_argument("--candles")
    p.add_argument("--pool")
    p.add_argument("--fee-tier", dest="fee_tier", type=float)
    p.add_argument("--tick-spacing", dest="tick_spacing", type=int)
    p.add_argument("--period", type=int)
    p.add_argument("--offset", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--l0", type=float)
    p.add_argument("--gas", type=float)
    p.add_argument("--n-actions", dest="n_actions", type=int)
    p.add_argument("--reward-mode", dest="reward_mode")
    p.add_argument("--path-model", dest="path_model")
    p.add_argument("--seed", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--ewa-widths", dest="ewa_widths", type=int)
    p.add_argument("--ewa-eta", dest="ewa_eta", type=float)
    p.add_argument("--ewa-t-re", dest="ewa_t_re", type=int)
    p.add_argument("--checkpoint")
    p.add_argument("--label")

    p = add("report", cmd_report, "aggregate run directories")
    p.add_argument("--runs", nargs="+")
    p.add_argument("--out-dir", dest="out_dir")

    p = add("verify", cmd_verify, "run the property and oracle suites")
    p.add_argument("--criteria", help="comma list, e.g. 1,3,8 (default all)")
    p.add_argument("--work-dir", dest="work_dir")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise CliError("usage", "missing command "
                           "(ingest|features|train|backtest|report|verify)")
        return args.run(args)
    except CliError as e:
        print(f"error: {e.category}: {e.message}", file=sys.stderr)
        return 2 if e.category == "usage" else 1
    except RunError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 1
    except ReportError as e:
        print(f"error: report: {e}", file=sys.stderr)
        return 1
    except (DataValidationError, nets.CheckpointError, FileNotFoundError,
            ValueError, RuntimeError) as e:
        print(f"error: run: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
