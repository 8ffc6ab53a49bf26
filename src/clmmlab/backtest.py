"""Backtest orchestration: run configs, method runners, training, drift studies.

A backtest replays one strategy over one candle series' window and
produces a result with its hour trace (an env.HourTrace: a column per
trace.csv field) plus the relative fee / gas / LVR / PnL decomposition,
totalled by accounting.ordered_sum. Strategies share the same accounting
(the env for the greedy net, the chunked replays of baselines for
tau-reset and EWA, all on the one ledger kernel), so rows from different
methods are directly comparable; the drift study replays through the
same runner, minus the digest. A run's
settings are resolved once, when its RunConfig is built (table defaults
and their label included); the env, the baselines and run.json read that
config.
"""

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .accounting import ordered_sum
from .amm import PoolSpec
from .baselines import (EWAConfig, EWA_DEFAULTS, TAU_DEFAULTS, run_ewa,
                        run_tau_reset)
from .dqn import (DDQNConfig, TRAINING_LOG_HEADER, TrainingResult,
                  greedy_rollout, train_ddqn)
from .env import EnvConfig, HourTrace, LPEnv, TRACE_CSV_HEADER
from .features import WARMUP_CANDLES, FeatureScaler, compute_feature_matrix
from .marketdata import (HOUR, REFERENCE_PERIODS, CandleSeries, _utc, load_candles_csv,
                         synth_gbm)
from .report import (REPORT_CSV_HEADER, in_header_order, write_csv_columns,
                     write_csv_rows)
from . import nets

METHODS = ("ddqn", "tau-reset", "ewa")

ORACLE_TUNED_LABEL = "oracle-tuned"

# settings that one method alone reads
METHOD_SETTINGS = {"tau": "tau-reset", "ewa_widths": "ewa", "ewa_eta": "ewa",
                   "ewa_t_re": "ewa", "checkpoint": "ddqn"}

# the EWAConfig field each ewa_* setting fills
EWA_SETTINGS = {"n_widths": "ewa_widths", "eta": "ewa_eta", "t_re": "ewa_t_re"}

# settings that name an input file: a run's digest covers the file's
# contents instead, and the path itself appears only in run.json
PATH_SETTINGS = ("candles", "checkpoint")


class RunError(ValueError):
    """A run that cannot be executed as given. category is the CLI's
    name for the cause: its settings (config), its command line (usage)
    or its candle series (data)."""

    def __init__(self, message: str, category: str = "config"):
        super().__init__(message)
        self.category = category


@dataclass(frozen=True)
class RunConfig:
    """The settings of a backtest, or of a training run's env.

    Complete once built: a method hyperparameter left unset is filled
    from the tuned tables, and such a run is labeled "oracle-tuned"
    unless it names its own label, since the table defaults were
    selected for best test-set performance. A period replays that study
    period's test range (REFERENCE_PERIODS) in place of offset/horizon.

    The output directory is deliberately not part of the config (or of
    run_digest): two runs of the same config into different directories
    must produce byte-identical artifacts.
    """

    method: str
    candles: Optional[str] = None
    pool: str = "synth"
    fee_tier: float = PoolSpec.fee_tier
    tick_spacing: int = PoolSpec.tick_spacing
    period: Optional[int] = None
    offset: Optional[int] = None
    horizon: Optional[int] = None
    l0: float = EnvConfig.l0
    gas: float = EnvConfig.gas
    n_actions: int = EnvConfig.n_actions
    reward_mode: str = EnvConfig.reward_mode
    path_model: str = EnvConfig.path_model
    seed: int = 0
    tau: Optional[int] = None
    ewa_widths: Optional[int] = None
    ewa_eta: Optional[float] = None
    ewa_t_re: Optional[int] = None
    checkpoint: Optional[str] = None
    label: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise RunError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.period is not None and self.period not in REFERENCE_PERIODS:
            raise RunError(f"period must be one of {list(REFERENCE_PERIODS)}, "
                           f"got {self.period}")
        if self.period is not None and (self.offset, self.horizon) != (None, None):
            raise RunError(f"period {self.period} replays its test range; "
                           f"offset and horizon cannot be set with it")
        for name, value in (("offset", self.offset), ("horizon", self.horizon)):
            if value is not None and value < 1:
                raise RunError(f"{name} must be >= 1, got {value}")
        if self.method == "ddqn" and (self.offset or WARMUP_CANDLES) < WARMUP_CANDLES:
            raise RunError(f"ddqn offset {self.offset} is inside the "
                           f"{WARMUP_CANDLES}-candle feature warmup")
        for name, method in METHOD_SETTINGS.items():
            if getattr(self, name) is not None and self.method != method:
                raise RunError(f"{name} applies only to method {method}, "
                               f"got method {self.method}")
        try:
            self.env_config()
        except ValueError as e:
            raise RunError(str(e)) from None
        try:
            self.ewa_config()
        except ValueError as e:
            # EWAConfig's messages open with its own field name
            field, rest = str(e).split(" ", 1)
            raise RunError(f"{EWA_SETTINGS[field]} {rest}") from None
        # the settings together, now that each one is valid on its own
        key = self.table_key()
        if self.method == "tau-reset":
            if self.tau is None:
                if key not in TAU_DEFAULTS:
                    raise RunError(f"no default tau for pool={self.pool!r} "
                                   f"period={self.period} l0={self.l0:g}; "
                                   f"pass tau explicitly")
                self._fill_from_table(tau=TAU_DEFAULTS[key])
            if not 1 <= self.tau <= self.n_actions:
                raise RunError(f"tau must be in 1..n_actions={self.n_actions}, "
                               f"got {self.tau}")
        if self.method == "ewa":
            unset = [getattr(self, name) is None for name in EWA_SETTINGS.values()]
            if any(unset) and not all(unset):
                raise RunError("set all of ewa_widths/ewa_eta/ewa_t_re or none")
            if all(unset):
                if key not in EWA_DEFAULTS:
                    raise RunError(
                        f"no default EWA parameters for pool={self.pool!r} "
                        f"period={self.period} l0={self.l0:g}; pass them explicitly")
                self._fill_from_table(**dict(zip(EWA_SETTINGS.values(),
                                                 EWA_DEFAULTS[key])))

    def _fill_from_table(self, **settings) -> None:
        for name, value in dict(settings, label=self.label or ORACLE_TUNED_LABEL).items():
            object.__setattr__(self, name, value)

    def table_key(self) -> Tuple[str, Optional[int], int]:
        """The key of the default hyperparameter tables."""
        return self.pool, self.period, int(self.l0)

    def pool_spec(self) -> PoolSpec:
        return PoolSpec(fee_tier=self.fee_tier, tick_spacing=self.tick_spacing)

    def env_config(self, **window) -> EnvConfig:
        """The env these settings describe; window sets the rest of
        EnvConfig (episode_length)."""
        return EnvConfig(pool=self.pool_spec(), l0=self.l0, n_actions=self.n_actions,
                         gas=self.gas, path_model=self.path_model,
                         reward_mode=self.reward_mode, **window)

    def ewa_config(self) -> EWAConfig:
        """The EWA rule these settings describe; EWAConfig defaults the
        ewa_* settings left unset."""
        return EWAConfig(**{f: getattr(self, name) for f, name in EWA_SETTINGS.items()
                            if getattr(self, name) is not None})

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


def _require_checkpoint(config: RunConfig) -> None:
    """Not in RunConfig: RunConfig(method="ddqn") is also a training run's env."""
    if config.method == "ddqn" and config.checkpoint is None:
        raise RunError("ddqn backtests need a checkpoint path")


def run_digest(settings: Dict, candles: CandleSeries,
               checkpoint: Optional[bytes] = None) -> str:
    """The run's identity, embedded in every artifact it writes.

    A 12-hex sha256 of the resolved settings without their path fields,
    of the candle series the run received and of the checkpoint bytes it
    replays, if any. The same inputs read from any path give the same
    digest; any edited input gives another.
    """
    doc = {k: v for k, v in settings.items() if k not in PATH_SETTINGS}
    series = hashlib.sha256()
    for column in candles.columns:
        series.update(column.tobytes())
    doc["candles_sha256"] = series.hexdigest()
    if checkpoint is not None:
        doc["checkpoint_sha256"] = hashlib.sha256(checkpoint).hexdigest()
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def write_run_json(out_dir: str, config: Dict, digest: str, **fields) -> str:
    """Write run.json: the config (paths included, so that it reruns the
    run through --config), its digest, the seed and the run's `fields`."""
    path = os.path.join(out_dir, "run.json")
    with open(path, "w") as fh:
        json.dump(dict(fields, config=config, config_hash=digest,
                       seed=config["seed"]), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


@dataclass
class BacktestResult:
    """One strategy replayed over one window, with its hour trace."""

    config: RunConfig
    config_hash: str  # run_digest of the config and the inputs it read;
    # "" in the drift study, whose replays write no artifact
    offset: int
    horizon: int
    trace: HourTrace

    def total(self, column: str) -> float:
        return ordered_sum(self.trace[column])

    def relative_pnl(self, reward_mode: Optional[str] = None) -> float:
        """(fee - gas + lvr) / l0, with dv for lvr when not hedged; the mode
        defaults to the config's reward_mode."""
        mode = reward_mode or self.config.reward_mode
        carry = self.total("lvr") if mode == "hedged" else self.total("dv")
        return (self.total("fee") - self.total("gas") + carry) / self.config.l0

    def action_histogram(self) -> np.ndarray:
        return np.bincount(self.trace["action"], minlength=self.config.n_actions + 1)

    def to_row(self) -> Dict:
        c = self.config
        l0 = c.l0
        return {
            "pool": c.pool,
            "fee_tier": c.fee_tier,
            "tick_spacing": c.tick_spacing,
            "period": "" if c.period is None else c.period,
            "method": c.method,
            "label": c.label,
            "l0": l0,
            "gas": c.gas,
            "seed": c.seed,
            "config_hash": self.config_hash,
            "reward_mode": c.reward_mode,
            "path_model": c.path_model,
            "offset": self.offset,
            "hours": self.horizon,
            "relative_fee": self.total("fee") / l0,
            "relative_gas": self.total("gas") / l0,
            "relative_lvr": -self.total("lvr") / l0,
            "relative_pnl": self.relative_pnl(),
            "reallocations": int(np.count_nonzero(self.trace["action"])),
        }


def _default_window(config: RunConfig, candles: CandleSeries) -> Tuple[int, int]:
    """(offset, horizon) config replays over candles.

    With a period, the band opens at the close of the candle before the
    period's test range and the run walks every candle inside it, so the
    series must hold both. Otherwise offset defaults to the warmup's end
    and horizon to the series' end, which must come at least one hour
    after offset.
    """
    if config.period is not None:
        first, last = REFERENCE_PERIODS[config.period]["test"]
        start, end = _utc(first), _utc(last)
        named = f"period {config.period}'s test range {first} to {last} (UTC, end exclusive)"
        i_start, i_end = candles.timestamp.searchsorted([start, end]).tolist()
        if i_start < 1 or i_end == i_start or candles.timestamp[-1] < end - HOUR:
            raise RunError(f"series does not hold {named} and the candle before it")
        offset, horizon = i_start - 1, i_end - i_start
        if config.method == "ddqn" and offset < WARMUP_CANDLES:
            raise RunError(f"{named} opens at candle {offset}, inside the ddqn "
                           f"{WARMUP_CANDLES}-candle feature warmup")
        return offset, horizon
    n_candles = len(candles)
    offset = config.offset if config.offset is not None else WARMUP_CANDLES
    horizon = config.horizon if config.horizon is not None else n_candles - 1 - offset
    if offset + max(horizon, 1) >= n_candles:
        raise RunError(f"window needs candles through index "
                       f"{offset + max(horizon, 1)}, series has {n_candles}")
    return offset, horizon


def run_backtest(candles: CandleSeries, config: RunConfig) -> BacktestResult:
    """Replay config.method over one window of the candle series.

    For ddqn the greedy policy of the network in config.checkpoint (which
    it requires) is used; it observes the feature matrix scaled once by
    the scaler in the checkpoint's metadata, or unscaled when there is
    none. The checkpoint file is read once: the digest hashes the bytes
    that are replayed. EWA always weighs widths by its own hedged
    per-width rewards; reward_mode only changes how the result row
    reports PnL.
    """
    offset, horizon = _default_window(config, candles)
    _require_checkpoint(config)
    checkpoint = None
    if config.method == "ddqn":
        with open(config.checkpoint, "rb") as fh:
            checkpoint = fh.read()
    digest = run_digest(config.to_dict(), candles, checkpoint)
    return BacktestResult(config, digest, offset, horizon,
                          _replay(candles, config, offset, horizon, checkpoint))


def _replay(candles: CandleSeries, config: RunConfig, offset: int,
            horizon: int, checkpoint: Optional[bytes] = None) -> HourTrace:
    """The trace of config.method over the window; a ddqn replay
    parses the checkpoint bytes given and transposes its env's records once."""
    env_config = config.env_config(episode_length=horizon)
    if config.method == "tau-reset":
        return run_tau_reset(candles, offset, horizon, config.tau, env_config)

    if config.method == "ewa":
        return run_ewa(candles, offset, horizon, config.ewa_config(), env_config)[0]

    # ddqn
    params, _, meta = nets.parse_checkpoint(checkpoint)
    if params.n_outputs != config.n_actions + 1:
        raise RunError(
            f"checkpoint has {params.n_outputs} actions, run needs "
            f"{config.n_actions + 1}")
    matrix = compute_feature_matrix(candles)
    if isinstance(meta, dict) and "scaler" in meta:
        try:
            scaler = FeatureScaler.from_dict(meta["scaler"])
        except ValueError as e:
            raise nets.CheckpointError(f"metadata {e}") from None
        matrix = scaler.apply(matrix)
    _, _, records = greedy_rollout(LPEnv(candles, env_config, matrix), params, offset)
    return HourTrace.of_records(records)


BACKTEST_FIELDS = tuple(RunConfig.__dataclass_fields__)  # type: ignore[attr-defined]

TRAIN_FIELDS = ("candles", "seed", "l0", "gas", "n_actions", "fee_tier",
                "tick_spacing", "pool", "reward_mode", "path_model",
                "episode_length", "budget", "train_hours", "val_hours",
                "learning_rate", "batch_size", "buffer")

# train's own defaults (budget's in episodes); RunConfig, DDQNConfig default the rest
TRAIN_DEFAULTS = {"episode_length": 100, "episodes": 50}

# The kind of every int and float setting of any command (the rest are strings):
# the flag's type, the words for a value of another type, the least value.
KINDS = {"int": (int, "an integer", None), "natural": (int, "an integer", 0),
         "count": (int, "a positive integer", 1), "float": (float, "a number", None)}
SETTING_KINDS = {
    "seed": "natural",
    **dict.fromkeys(("n_actions", "tick_spacing", "episode_length", "batch_size",
                     "buffer", "period", "offset", "horizon", "tau", "ewa_widths",
                     "ewa_t_re"), "int"),
    **dict.fromkeys(("budget", "train_hours", "val_hours"), "count"),
    **dict.fromkeys(("l0", "gas", "fee_tier", "learning_rate", "ewa_eta"), "float"),
}

# the files each command that takes an out_dir writes there
OUT_DIR_FILES = {"train": ("checkpoint.json", "training_log.csv", "run.json"),
                 "backtest": ("run.json", "report.csv", "trace.csv", "actions.csv"),
                 "report": ("summary.csv", "cumulative_pnl.csv", "actions.csv")}


def check_settings(settings: Dict, fields: Sequence[str], required: Sequence[str] = (),
                   command: Optional[str] = None, out_dir: Optional[str] = None) -> Dict:
    """Every command's one settings gate, passed before any file is read.

    In order: each setting is one of fields, each non-null one (null is
    unset) is of its kind, the required ones are set, and a command of
    OUT_DIR_FILES gets an out_dir that is a directory or absent and holds
    no file only other commands write. Returns the set settings in fields
    order: an int stays exact, never a bool; a float setting also takes an
    int and stores a float, so a file's 250 equals --l0 250."""
    unknown = sorted(set(settings) - set(fields))
    if unknown:
        raise RunError(f"unknown config field {unknown[0]!r}")
    checked = {}
    for name in fields:
        value = settings.get(name)
        if value is None:
            continue
        type_, what, least = (KINDS[SETTING_KINDS[name]] if name in SETTING_KINDS
                              else (str, "a string", None))
        if type(value) is not type_ and not (type_ is float and type(value) is int):
            raise RunError(f"{name} must be {what}, got {value!r}")
        if least is not None and value < least:
            raise RunError(f"{name} must be >= {least}, got {value}")
        checked[name] = type_(value)
    for name in required:
        if checked.get(name) in (None, ""):
            raise RunError(f"missing required field {name!r}")
    if command is not None:
        check_out_dir(command, out_dir)
    return checked


def check_out_dir(command: str, out_dir: Optional[str]) -> None:
    """Refuse an out_dir for command (a key of OUT_DIR_FILES) that is not a
    directory or absent, or that holds a file only other commands write."""
    if not out_dir:
        raise RunError("missing required field 'out_dir'")
    if os.path.isdir(out_dir):
        others = set().union(*OUT_DIR_FILES.values()) - set(OUT_DIR_FILES[command])
        held = sorted(others.intersection(os.listdir(out_dir)))
        if held:
            raise FileExistsError(f"out_dir {out_dir} holds another command's {held[0]}")
    elif os.path.exists(out_dir):
        raise NotADirectoryError(f"out_dir is not a directory: {out_dir}")


def run_backtest_dir(settings: Dict, out_dir: str) -> BacktestResult:
    """Replay settings (BACKTEST_FIELDS, unset ones left out), every one checked
    before the candle file loads, and write the run directory into out_dir."""
    config = RunConfig(**check_settings(settings, BACKTEST_FIELDS, ("method", "candles"),
                                        "backtest", out_dir))
    _require_checkpoint(config)
    result = run_backtest(load_candles_csv(config.candles), config)
    write_run_dir(result, out_dir)
    return result


def run_training(settings: Dict, out_dir: str) -> TrainingResult:
    """Train the DDQN on settings (TRAIN_FIELDS, unset ones left out) and
    write checkpoint.json, training_log.csv and run.json into out_dir.

    Every setting is checked before the candle file loads. Episodes start
    in the first train_hours after the feature warmup (default 70%), which
    alone fit the scaler; one validation episode covers the val_hours after.
    """
    s = check_settings(settings, TRAIN_FIELDS, ("candles",), "train", out_dir)
    episode_length = s.setdefault("episode_length", TRAIN_DEFAULTS["episode_length"])
    s.setdefault("budget", TRAIN_DEFAULTS["episodes"] * episode_length)
    try:
        run = RunConfig(method="ddqn", **{k: s[k] for k in s if k in BACKTEST_FIELDS})
        learner = DDQNConfig(**{k: s[k] for k in s if k in DDQNConfig.__dataclass_fields__})
        env_config = run.env_config(episode_length=episode_length)
    except ValueError as e:
        raise RunError(str(e)) from None
    if s["budget"] < learner.warm_start:  # the learner would never update
        raise RunError(f"budget must be >= warm_start={learner.warm_start}, got {s['budget']}")
    if s.get("train_hours", episode_length + 1) <= episode_length:
        raise RunError(f"train_hours must be > episode_length={episode_length}, "
                       f"got {s['train_hours']}")
    candles = load_candles_csv(run.candles)
    usable = len(candles) - WARMUP_CANDLES - 1
    train_hours = s.setdefault("train_hours", int(usable * 0.7))
    if usable < 20 or train_hours <= episode_length:  # a given one passed above
        raise RunError(f"series too short to train on: {len(candles)} candles, "
                       f"{train_hours} train hours for {episode_length}-hour "
                       f"episodes", "data")
    val_hours = s.setdefault("val_hours", max(usable - train_hours - 1, 10))
    val_start, val_hours = _default_window(dataclasses.replace(
        run, offset=WARMUP_CANDLES + train_hours, horizon=val_hours), candles)
    # every setting resolved, so run.json's config reruns this run via --config
    s.update(run.to_dict(), **dataclasses.asdict(learner))
    config = {k: s[k] for k in TRAIN_FIELDS}
    digest = run_digest(config, candles)

    matrix = compute_feature_matrix(candles)
    scaler = FeatureScaler.fit(matrix[WARMUP_CANDLES:val_start])
    matrix = scaler.apply(matrix)
    train_env = LPEnv(candles[:val_start + 1], env_config, matrix[:val_start + 1])
    eval_end = val_start + val_hours + 1
    eval_env = LPEnv(candles[:eval_end], run.env_config(episode_length=val_hours),
                     matrix[:eval_end])
    result = train_ddqn(train_env, eval_env, learner, s["budget"],
                        seed=run.seed, eval_offset=val_start)

    os.makedirs(out_dir, exist_ok=True)
    nets.save_checkpoint(os.path.join(out_dir, "checkpoint.json"), result.params,
                         metadata={"config_hash": digest, "seed": run.seed,
                                   "scaler": scaler.to_dict()})
    write_csv_rows(os.path.join(out_dir, "training_log.csv"),
                   TRAINING_LOG_HEADER + ["config_hash", "seed"],
                   [values + [digest, run.seed] for values in
                    in_header_order(result.log, TRAINING_LOG_HEADER)])
    write_run_json(out_dir, config, digest, steps=result.steps,
                   episodes=result.episodes, best_val_return=result.best_val_return)
    return result


def write_run_dir(result: BacktestResult, out_dir: str) -> Dict[str, str]:
    """Write run.json, report.csv, trace.csv, actions.csv for one run.

    Every file embeds the run's digest and seed so artifacts can be
    traced back to the exact run that produced them. An out_dir that
    check_out_dir refuses for a backtest raises before any file is written.
    """
    check_out_dir("backtest", out_dir)
    os.makedirs(out_dir, exist_ok=True)
    digest = result.config_hash
    seed = result.config.seed
    paths = {"run": write_run_json(out_dir, result.config.to_dict(), digest,
                                   label=result.config.label, offset=result.offset,
                                   horizon=result.horizon)}

    paths["report"] = os.path.join(out_dir, "report.csv")
    write_csv_rows(paths["report"], REPORT_CSV_HEADER,
                   in_header_order([result.to_row()], REPORT_CSV_HEADER))

    paths["trace"] = os.path.join(out_dir, "trace.csv")
    write_csv_columns(paths["trace"], TRACE_CSV_HEADER + ["config_hash", "seed"],
                      list(result.trace.columns.values()), (digest, seed))

    paths["actions"] = os.path.join(out_dir, "actions.csv")
    write_csv_rows(paths["actions"], ["action", "count", "config_hash", "seed"],
                   [(a, int(n), digest, seed)
                    for a, n in enumerate(result.action_histogram())])
    return paths


# The drift study's two drifts (per hour, opposite signs) and volatility
# (per sqrt(hour)).
DRIFT_MUS = (0.0005, -0.0005)
DRIFT_SIGMA = 0.01

# Fee tier at which tau-reset fees exactly cover LVR at DRIFT_SIGMA,
# calibrated on drift-free paths (seeds 10000-10099) disjoint from the
# study's default seeds. Close to the closed-form break-even
# delta/(1-delta) = sigma * E[z^2] / (2 E|z|).
EQUILIBRIUM_POOL = PoolSpec(fee_tier=0.00625, tick_spacing=60)


def drift_neutrality_study(
    n_seeds: int = 100,
    horizon: int = 1000,
    seed0: int = 0,
) -> Dict[float, Dict[str, float]]:
    """Tau-reset (tau = 12) on synthetic GBM at each of DRIFT_MUS, paired by seed.

    Seed k uses the same Gaussian draws under every drift, so the drift
    effect is isolated from path noise. Each run is one run_backtest
    (l0 = 250, prices from 2000, volatility DRIFT_SIGMA) accounted both
    ways from the same trace: hedged PnL uses the rebalancing residual,
    unhedged the value change.

    The fixed settings isolate the hedging mechanism itself. Hedged PnL
    is drift-neutral only when the variance-driven net (fee - LVR - gas)
    is zero at every price level: a non-zero net is rescaled by the
    drifting level, and a flat gas cost can only balance a level-scaled
    net at one price. Hence the study runs gas-free on a pool whose
    fee tier makes fees match LVR at the study's sigma
    (EQUILIBRIUM_POOL), and uses the wickless open-close hour path, since
    intra-hour zigzags add a buy-low-sell-high premium to the unhedged
    leg that masks its drift exposure. Fewer than two seeds leave no
    standard error, and raise ValueError before any replay.
    """
    if n_seeds < 2:
        raise ValueError(f"n_seeds must be >= 2 for a standard error, got {n_seeds}")
    config = RunConfig(
        method="tau-reset", fee_tier=EQUILIBRIUM_POOL.fee_tier,
        tick_spacing=EQUILIBRIUM_POOL.tick_spacing, offset=1, horizon=horizon,
        l0=250.0, gas=0.0, n_actions=12, path_model="open-close", tau=12)
    out: Dict[float, Dict[str, float]] = {}
    for mu in DRIFT_MUS:
        hedged = np.empty(n_seeds)
        unhedged = np.empty(n_seeds)
        for k in range(n_seeds):
            candles = synth_gbm(2000.0, mu, DRIFT_SIGMA, horizon + 2, seed=seed0 + k)
            # no artifact is written, so the replay skips the run's digest
            result = BacktestResult(config, "", 1, horizon,
                                    _replay(candles, config, 1, horizon))
            hedged[k] = result.relative_pnl("hedged")
            unhedged[k] = result.relative_pnl("unhedged")
        out[mu] = {
            "hedged_mean": float(hedged.mean()),
            "hedged_se": float(hedged.std(ddof=1) / math.sqrt(n_seeds)),
            "unhedged_mean": float(unhedged.mean()),
            "unhedged_se": float(unhedged.std(ddof=1) / math.sqrt(n_seeds)),
            "n_seeds": n_seeds,
        }
    return out


def drift_gap(study: Dict[float, Dict[str, float]], mode: str
              ) -> Tuple[float, float]:
    """(mean difference, combined SE) between the two drift signs."""
    if len(study) != 2:
        raise ValueError(f"need exactly two drifts, got {sorted(study)}")
    hi, lo = max(study), min(study)
    diff = study[hi][f"{mode}_mean"] - study[lo][f"{mode}_mean"]
    se = math.hypot(study[hi][f"{mode}_se"], study[lo][f"{mode}_se"])
    return diff, se
