"""Command-line entry point.

Subcommands: ingest (fetch/cache pool hours), features (emit the
indicator matrix), train (DDQN), backtest (any method over a candle
window), report (aggregate run directories), verify (the property
suites). Flags are the settings' names, typed by SETTING_KINDS. ingest,
features, train and backtest also take --config, a JSON file of settings;
flags win over its values. Every command's settings and out_dir pass the
one gate, backtest.check_settings. Errors come out as a single
machine-parsable line: `error: <category>: <message>`.
"""

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from . import nets
from .backtest import (BACKTEST_FIELDS, KINDS, RunError, SETTING_KINDS, TRAIN_FIELDS,
                       TRAIN_DEFAULTS,  # noqa: F401  also read as cli.TRAIN_DEFAULTS
                       check_settings, run_backtest_dir, run_training)
from .features import (FEATURE_NAMES, FeatureScaler, WARMUP_CANDLES,
                       compute_feature_matrix)
from .marketdata import (DataValidationError, _utc, load_candles_csv)
from .report import Report, ReportError, write_csv_columns

PROG = "clmmlab"

DEFAULT_CACHE = os.environ.get("CLMMLAB_CACHE",
                               os.path.expanduser("~/.cache/clmmlab"))

_HELP = {"config": "JSON config file; flags override it",
         "start": "YYYY-MM-DD (UTC)", "end": "YYYY-MM-DD (UTC, exclusive)",
         "criteria": "comma list, e.g. 1,3,8 (default all)"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on one line."""

    def error(self, message):
        raise RunError(message, "usage")


def _load_config(path: Optional[str]) -> Dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise RunError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise RunError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise RunError(f"config file {path} must hold a JSON object")
    return data


def _merge(args: argparse.Namespace, fields: Sequence[str]) -> Dict:
    """Config-file values, overridden by the flags that were passed."""
    data = _load_config(args.config)
    data.update({name: getattr(args, name) for name in fields
                 if getattr(args, name) is not None})
    return data


# -- subcommands -----------------------------------------------------------

INGEST_FIELDS = ("endpoint", "pool_id", "start", "end", "cache_dir")


def _date(data: Dict, key: str) -> int:
    try:
        return _utc(data[key])
    except ValueError:
        raise RunError(f"{key} must be a YYYY-MM-DD date, got {data[key]!r}")


def cmd_ingest(args) -> int:
    from .subgraph import SubgraphClient, fetch_pool_hours
    data = check_settings(_merge(args, INGEST_FIELDS), INGEST_FIELDS,
                          ("endpoint", "pool_id", "start", "end"))
    start, end = _date(data, "start"), _date(data, "end")
    if end <= start:
        raise RunError(f"end {data['end']} must be after start {data['start']}")
    cache_dir = data.get("cache_dir") or DEFAULT_CACHE
    client = SubgraphClient(data["endpoint"])
    candles = fetch_pool_hours(client, data["pool_id"], start, end, cache_dir)
    print(f"ingested {len(candles)} hours for {data['pool_id']} into {cache_dir} "
          f"({client.request_count} requests)")
    return 0


FEATURES_FIELDS = ("candles", "out", "scaler_out")


def cmd_features(args) -> int:
    data = check_settings(_merge(args, FEATURES_FIELDS), FEATURES_FIELDS,
                          ("candles", "out"))
    candles = load_candles_csv(data["candles"])
    matrix = compute_feature_matrix(candles)
    write_csv_columns(data["out"], ["timestamp"] + FEATURE_NAMES,
                      [candles.timestamp, *matrix.T])
    print(f"wrote {len(matrix)} feature rows to {data['out']}")
    if data.get("scaler_out"):
        scaler = FeatureScaler.fit(matrix[WARMUP_CANDLES:])
        with open(data["scaler_out"], "w") as fh:
            json.dump(scaler.to_dict(), fh)
        print(f"wrote scaler to {data['scaler_out']}")
    return 0


def cmd_train(args) -> int:
    result = run_training(_merge(args, TRAIN_FIELDS), args.out_dir)
    print(f"trained {result.episodes} episodes ({result.steps} steps), "
          f"best val return {result.best_val_return:.4f}, "
          f"wrote {os.path.join(args.out_dir, 'checkpoint.json')}")
    return 0


def cmd_backtest(args) -> int:
    row = run_backtest_dir(_merge(args, BACKTEST_FIELDS), args.out_dir).to_row()
    print(f"wrote {os.path.join(args.out_dir, 'report.csv')}: method={row['method']} "
          f"hours={row['hours']} relative_pnl={row['relative_pnl']:.6f}")
    return 0


def cmd_report(args) -> int:
    if not args.runs:
        raise RunError("report needs at least one --runs directory", "usage")
    check_settings({}, (), command="report", out_dir=args.out_dir)
    report = Report.from_run_dirs(args.runs)
    os.makedirs(args.out_dir, exist_ok=True)
    report.write_summary_csv(os.path.join(args.out_dir, "summary.csv"))
    report.write_cumulative_csv(os.path.join(args.out_dir, "cumulative_pnl.csv"))
    report.write_actions_csv(os.path.join(args.out_dir, "actions.csv"))
    print(f"aggregated {len(report.rows)} runs into {args.out_dir}")
    return 0


def cmd_verify(args) -> int:
    from . import verification
    criteria = None
    if args.criteria:
        try:
            criteria = sorted({int(x) for x in args.criteria.split(",")})
        except ValueError:
            raise RunError(f"bad --criteria list: {args.criteria!r}", "usage")
    results = verification.run_checks(criteria, work_dir=args.work_dir,
                                      progress=print)
    return 0 if all(r.passed for r in results) else 1


# -- parser ----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, run, helptext, flags in (
        ("ingest", cmd_ingest, "fetch and cache hourly pool data",
         ("config",) + INGEST_FIELDS),
        ("features", cmd_features, "emit the feature matrix as CSV",
         ("config",) + FEATURES_FIELDS),
        ("train", cmd_train, "train the DDQN agent",
         ("config", "out_dir") + TRAIN_FIELDS),
        ("backtest", cmd_backtest, "replay one method over a window",
         ("config", "out_dir") + BACKTEST_FIELDS),
        ("report", cmd_report, "aggregate run directories", ("runs", "out_dir")),
        ("verify", cmd_verify, "run the property and oracle suites",
         ("criteria", "work_dir")),
    ):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(run=run)
        for field in flags:
            kind = SETTING_KINDS.get(field)
            p.add_argument("--" + field.replace("_", "-"), dest=field,
                           type=KINDS[kind][0] if kind else None,
                           nargs="+" if field == "runs" else None,
                           help=_HELP.get(field))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise RunError("missing command "
                           "(ingest|features|train|backtest|report|verify)", "usage")
        return args.run(args)
    except (RunError, ReportError) as e:
        category = e.category if isinstance(e, RunError) else "report"
        print(f"error: {category}: {e}", file=sys.stderr)
        return 2 if category == "usage" else 1
    except (DataValidationError, nets.CheckpointError, OSError,
            ValueError, RuntimeError) as e:
        print(f"error: run: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
