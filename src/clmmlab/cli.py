"""Command-line entry point.

Subcommands: ingest (fetch/cache pool hours), features (emit the
indicator matrix), train (DDQN), backtest (any method over a candle
window), report (aggregate run directories), verify (the property
suites). Flags are the settings' names, typed by SETTING_KINDS. ingest,
features, train and backtest also take --config, a JSON file of settings
checked the same way; flags win over its values. Errors come out as a
single machine-parsable line: `error: <category>: <message>`.
"""

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from . import nets
from .backtest import (BACKTEST_FIELDS, RunConfig, RunError, TRAIN_FIELDS,
                       TRAIN_DEFAULTS,  # noqa: F401  also read as cli.TRAIN_DEFAULTS
                       run_backtest, run_training, write_run_dir)
from .features import (FEATURE_NAMES, FeatureScaler, WARMUP_CANDLES,
                       compute_feature_matrix)
from .marketdata import (DataValidationError, _utc, load_candles_csv)
from .report import Report, ReportError, write_csv_rows

PROG = "clmmlab"

DEFAULT_CACHE = os.environ.get("CLMMLAB_CACHE",
                               os.path.expanduser("~/.cache/clmmlab"))

# The kind of every integer and float setting; every other setting is a
# string. A kind gives the flag's type and what a config-file value must be.
_KINDS = {"int": (int, "an integer"), "count": (int, "a positive integer"),
          "float": (float, "a number")}
SETTING_KINDS = {
    **dict.fromkeys(("seed", "n_actions", "tick_spacing", "episode_length",
                     "batch_size", "buffer", "period", "offset", "horizon",
                     "tau", "ewa_widths", "ewa_t_re"), "int"),
    **dict.fromkeys(("budget", "train_hours", "val_hours"), "count"),
    **dict.fromkeys(("l0", "gas", "fee_tier", "learning_rate", "ewa_eta"), "float"),
}

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


def _checked(name: str, value):
    """value as setting `name` holds it: an int is exact (no bool), a float
    takes an int too and becomes a float, so a file's 250 equals --l0 250."""
    kind = SETTING_KINDS.get(name)
    if kind is None:
        ok = isinstance(value, str)
    elif kind == "float":
        ok = type(value) in (int, float)
    else:
        ok = type(value) is int and (kind == "int" or value > 0)
    if not ok:
        what = _KINDS[kind][1] if kind else "a string"
        raise RunError(f"{name} must be {what}, got {value!r}")
    return float(value) if kind == "float" else value


def _merge(args: argparse.Namespace, fields: Sequence[str]) -> Dict:
    """Config-file values overridden by explicitly passed flags, each
    checked against its kind, in `fields` order whatever the file's key
    order; a null file value counts as unset."""
    data = _load_config(args.config)
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise RunError(f"unknown config field {unknown[0]!r}")
    for name in fields:
        if getattr(args, name) is not None:
            data[name] = getattr(args, name)
    return {name: _checked(name, data[name]) for name in fields
            if data.get(name) is not None}


def _require(data: Dict, key: str) -> object:
    if data.get(key) in (None, ""):
        raise RunError(f"missing required field {key!r}")
    return data[key]


# -- subcommands -----------------------------------------------------------

INGEST_FIELDS = ("endpoint", "pool_id", "start", "end", "cache_dir")


def _date(data: Dict, key: str) -> int:
    value = _require(data, key)
    try:
        return _utc(value)
    except ValueError:
        raise RunError(f"{key} must be a YYYY-MM-DD date, got {value!r}")


def cmd_ingest(args) -> int:
    from .subgraph import SubgraphClient, fetch_pool_hours
    data = _merge(args, INGEST_FIELDS)
    endpoint = _require(data, "endpoint")
    pool_id = _require(data, "pool_id")
    start, end = _date(data, "start"), _date(data, "end")
    if end <= start:
        raise RunError(f"end {data['end']} must be after start {data['start']}")
    cache_dir = data.get("cache_dir") or DEFAULT_CACHE
    client = SubgraphClient(endpoint)
    candles = fetch_pool_hours(client, pool_id, start, end, cache_dir)
    print(f"ingested {len(candles)} hours for {pool_id} into {cache_dir} "
          f"({client.request_count} requests)")
    return 0


FEATURES_FIELDS = ("candles", "out", "scaler_out")


def cmd_features(args) -> int:
    data = _merge(args, FEATURES_FIELDS)
    candles = load_candles_csv(_require(data, "candles"))
    out = _require(data, "out")
    matrix = compute_feature_matrix(candles)
    write_csv_rows(out, ["timestamp"] + FEATURE_NAMES,
                   [[c.timestamp] + row.tolist() for c, row in zip(candles, matrix)])
    print(f"wrote {len(matrix)} feature rows to {out}")
    if data.get("scaler_out"):
        scaler = FeatureScaler.fit(matrix[WARMUP_CANDLES:])
        with open(data["scaler_out"], "w") as fh:
            json.dump(scaler.to_dict(), fh)
        print(f"wrote scaler to {data['scaler_out']}")
    return 0


def cmd_train(args) -> int:
    out_dir = _require(vars(args), "out_dir")
    result = run_training(_merge(args, TRAIN_FIELDS), out_dir)
    print(f"trained {result.episodes} episodes ({result.steps} steps), "
          f"best val return {result.best_val_return:.4f}, "
          f"wrote {os.path.join(out_dir, 'checkpoint.json')}")
    return 0


def cmd_backtest(args) -> int:
    data = _merge(args, BACKTEST_FIELDS)
    out_dir = _require(vars(args), "out_dir")
    config = RunConfig.from_dict(data)
    candles = load_candles_csv(_require(data, "candles"))
    result = run_backtest(candles, config)
    paths = write_run_dir(result, out_dir)
    row = result.to_row()
    print(f"wrote {paths['report']}: method={row['method']} "
          f"hours={row['hours']} relative_pnl={row['relative_pnl']:.6f}")
    return 0


def cmd_report(args) -> int:
    if not args.runs:
        raise RunError("report needs at least one --runs directory", "usage")
    out_dir = _require(vars(args), "out_dir")
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
                           type=_KINDS[kind][0] if kind else None,
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
