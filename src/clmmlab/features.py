"""Market feature vector and observation assembly for the hourly env.

Each decision hour t gets 28 market features computed causally from candles
up to and including t, in a fixed column order (see FEATURE_NAMES).  The
observation appends the account block [cash, center_tick, width, position
value] for a 32-dim state.

Two normalization modes:

  raw     the features and account block as-is
  scaled  price/volume-scale columns z-scored with statistics frozen from a
          training window; cash and value divided by the initial fund; the
          center-tick slot becomes the price's offset from the interval
          center in half-widths; width divided by the action count

The first 200 candles are warm-up: every indicator here is finite from then
on, and asking for features earlier raises WarmupError.
"""

import csv
import json
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import indicators as ind
from .amm import price_to_tick
from .marketdata import Candle, candles_to_arrays

WARMUP_CANDLES = 200

FEATURE_NAMES = [
    "open",
    "high_over_open",
    "low_over_open",
    "close_over_open",
    "volume_usd",
    "dema_over_open",
    "sar_over_open",
    "adx",
    "apo",
    "aroon_osc",
    "bop",
    "cci_14",
    "cci_30",
    "cmo",
    "dx",
    "minus_dm",
    "momentum",
    "plus_dm",
    "trix",
    "ult_osc",
    "stoch_slow_k",
    "stoch_slow_d",
    "stoch_fast_k",
    "stoch_fast_d",
    "natr",
    "true_range",
    "ht_dc_period",
    "ht_dc_phase",
]

N_FEATURES = len(FEATURE_NAMES)  # 28

# columns on a price or volume scale; everything else is a ratio near 1 or a
# bounded oscillator and passes through unscaled
ZSCORE_COLUMNS = (0, 4, 8, 15, 16, 17, 25)


class WarmupError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureConfig:
    dema_period: int = 30
    sar_accel: float = 0.02
    sar_max_accel: float = 0.2
    adx_period: int = 14
    apo_fast: int = 12
    apo_slow: int = 26
    aroon_period: int = 14
    cci_fast: int = 14
    cci_slow: int = 30
    cmo_period: int = 14
    dx_period: int = 14
    dm_period: int = 14
    momentum_period: int = 10
    trix_period: int = 30
    ult_periods: Tuple[int, int, int] = (7, 14, 28)
    stoch_k: int = 5
    stoch_slow: int = 3
    stoch_d: int = 3
    stochf_k: int = 5
    stochf_d: int = 3
    natr_period: int = 14
    warmup: int = WARMUP_CANDLES
    zscore_columns: Tuple[int, ...] = ZSCORE_COLUMNS


def compute_feature_matrix(
    candles: Sequence[Candle], config: FeatureConfig = FeatureConfig()
) -> np.ndarray:
    """(T, 28) matrix over the whole series; rows before warm-up may hold NaN.

    All recurrences run forward only, so row t is unchanged by any edit to
    candles after t.
    """
    _, o, h, l, c, v = candles_to_arrays(candles)
    n = len(o)
    cols = np.full((n, N_FEATURES), np.nan)
    cols[:, 0] = o
    cols[:, 1] = h / o
    cols[:, 2] = l / o
    cols[:, 3] = c / o
    cols[:, 4] = v
    cols[:, 5] = ind.dema(c, config.dema_period) / o
    cols[:, 6] = ind.parabolic_sar(h, l, config.sar_accel, config.sar_max_accel) / o
    cols[:, 7] = ind.adx(h, l, c, config.adx_period)
    cols[:, 8] = ind.apo(c, config.apo_fast, config.apo_slow)
    cols[:, 9] = ind.aroon_osc(h, l, config.aroon_period)
    cols[:, 10] = ind.bop(o, h, l, c)
    cols[:, 11] = ind.cci(h, l, c, config.cci_fast)
    cols[:, 12] = ind.cci(h, l, c, config.cci_slow)
    cols[:, 13] = ind.cmo(c, config.cmo_period)
    cols[:, 14] = ind.dx(h, l, c, config.dx_period)
    cols[:, 15] = ind.minus_dm(h, l, config.dm_period)
    cols[:, 16] = ind.momentum(c, config.momentum_period)
    cols[:, 17] = ind.plus_dm(h, l, config.dm_period)
    cols[:, 18] = ind.trix(c, config.trix_period)
    cols[:, 19] = ind.ultimate_oscillator(h, l, c, *config.ult_periods)
    slow_k, slow_d = ind.stochastic(h, l, c, config.stoch_k, config.stoch_slow, config.stoch_d)
    cols[:, 20] = slow_k
    cols[:, 21] = slow_d
    fast_k, fast_d = ind.stochastic_fast(h, l, c, config.stochf_k, config.stochf_d)
    cols[:, 22] = fast_k
    cols[:, 23] = fast_d
    cols[:, 24] = ind.natr(h, l, c, config.natr_period)
    cols[:, 25] = ind.true_range(h, l, c)
    cols[:, 26] = ind.ht_dc_period(c)
    cols[:, 27] = ind.ht_dc_phase(c)
    return cols


def compute_features(
    candles: Sequence[Candle], t: int, config: FeatureConfig = FeatureConfig()
) -> np.ndarray:
    """28-vector at index t, computed from candles[: t + 1] only."""
    if t >= len(candles):
        raise IndexError(f"t={t} out of range for {len(candles)} candles")
    if t < config.warmup:
        raise WarmupError(
            f"need {config.warmup} warm-up candles before the first feature "
            f"row, got t={t}"
        )
    mat = compute_feature_matrix(candles[: t + 1], config)
    row = mat[-1]
    if not np.all(np.isfinite(row)):
        bad = [FEATURE_NAMES[i] for i in np.flatnonzero(~np.isfinite(row))]
        raise WarmupError(f"non-finite features at t={t} after warm-up: {bad}")
    return row


@dataclass
class FeatureScaler:
    """Frozen per-column z-scoring statistics.

    Fit once on a training window; applying it never recomputes anything, so
    validation and test features see only training statistics.
    """

    mean: np.ndarray
    std: np.ndarray
    columns: Tuple[int, ...] = ZSCORE_COLUMNS

    @classmethod
    def fit(cls, matrix: np.ndarray, columns: Tuple[int, ...] = ZSCORE_COLUMNS) -> "FeatureScaler":
        rows = matrix[np.all(np.isfinite(matrix), axis=1)]
        if len(rows) == 0:
            raise ValueError("no finite feature rows to fit scaler on")
        return cls(mean=rows.mean(axis=0), std=rows.std(axis=0), columns=tuple(columns))

    def apply(self, row: np.ndarray) -> np.ndarray:
        out = row.astype(float).copy()
        for j in self.columns:
            s = self.std[j]
            out[j] = (row[j] - self.mean[j]) / s if s > 1e-12 else 0.0
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "mean": [repr(x) for x in self.mean.tolist()],
                "std": [repr(x) for x in self.std.tolist()],
                "columns": list(self.columns),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FeatureScaler":
        d = json.loads(text)
        return cls(
            mean=np.array([float(x) for x in d["mean"]]),
            std=np.array([float(x) for x in d["std"]]),
            columns=tuple(d["columns"]),
        )


OBSERVATION_DIM = N_FEATURES + 4  # 32


def assemble_observation(
    features: np.ndarray,
    cash: float,
    center_tick: int,
    width: int,
    value: float,
    mode: str = "scaled",
    *,
    l0: float = 1.0,
    close: Optional[float] = None,
    tick_spacing: int = 60,
    n_actions: int = 10,
    scaler: Optional[FeatureScaler] = None,
) -> np.ndarray:
    """Flat 32-vector [f(28), cash, center, width, value]."""
    if len(features) != N_FEATURES:
        raise ValueError(f"expected {N_FEATURES} features, got {len(features)}")
    if mode == "raw":
        account = [cash, float(center_tick), float(width), value]
        return np.concatenate([features, account])
    if mode != "scaled":
        raise ValueError(f"unknown observation mode {mode!r}")
    if close is None:
        raise ValueError("scaled mode needs the current close price")
    f = scaler.apply(features) if scaler is not None else features.astype(float).copy()
    center_offset = (price_to_tick(close) - center_tick) / (tick_spacing * width)
    account = [cash / l0, center_offset, width / n_actions, value / l0]
    return np.concatenate([f, account])


def write_features_csv(matrix: np.ndarray, timestamps: Sequence[int], path: str) -> None:
    """Feature matrix rows keyed by timestamp, fixed header order."""
    if len(matrix) != len(timestamps):
        raise ValueError("matrix and timestamps length mismatch")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp"] + FEATURE_NAMES)
        for ts, row in zip(timestamps, matrix):
            w.writerow([ts] + [repr(float(x)) for x in row])
