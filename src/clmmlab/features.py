"""Market feature vector and observation assembly for the hourly env.

Each decision hour t gets 28 market features computed causally from candles
up to and including t, in a fixed column order (see FEATURE_NAMES).  The
observation appends the account block [cash, center_tick, width, position
value] for a 32-dim state. Price/volume-scale columns are z-scored once, over
the whole matrix, with statistics frozen from a training window
(FeatureScaler.apply); assemble_observation takes a row as given and
normalizes the account block: cash and value divided by the initial fund,
the center-tick slot as the price's offset from the interval center in
half-widths, width divided by the action count.

The first 200 candles are warm-up: every indicator here is finite from then
on, and rows of the feature matrix before that may hold NaN.
"""

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import indicators as ind
from .amm import price_to_tick
from .marketdata import CandleSeries

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


def compute_feature_matrix(candles: CandleSeries) -> np.ndarray:
    """(T, 28) matrix over the whole series; rows before warm-up may hold NaN.

    All recurrences run forward only, so row t is unchanged by any edit to
    candles after t.
    """
    _, o, h, l, c, v = candles.columns
    n = len(o)
    cols = np.full((n, N_FEATURES), np.nan)
    cols[:, 0] = o
    cols[:, 1] = h / o
    cols[:, 2] = l / o
    cols[:, 3] = c / o
    cols[:, 4] = v
    cols[:, 5] = ind.dema(c, 30) / o
    cols[:, 6] = ind.parabolic_sar(h, l) / o
    cols[:, 8] = ind.apo(c)
    cols[:, 9] = ind.aroon_osc(h, l)
    cols[:, 10] = ind.bop(o, h, l, c)
    cols[:, 11] = ind.cci(h, l, c)
    cols[:, 12] = ind.cci(h, l, c, 30)
    cols[:, 13] = ind.cmo(c)
    cols[:, 17], cols[:, 15], cols[:, 14], cols[:, 7] = ind.directional(h, l, c)
    cols[:, 16] = ind.momentum(c)
    cols[:, 18] = ind.trix(c)
    cols[:, 19] = ind.ultimate_oscillator(h, l, c)
    # stoch_slow_k and stoch_fast_d are one array: the 3-hour SMA of fast %K
    cols[:, 20], cols[:, 21], cols[:, 22], cols[:, 23] = ind.stochastics(h, l, c)
    cols[:, 24] = ind.natr(h, l, c)
    cols[:, 25] = ind.true_range(h, l, c)
    cols[:, 26] = ind.ht_dc_period(c)
    cols[:, 27] = ind.ht_dc_phase(c, cols[:, 26])
    return cols


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
    def fit(cls, matrix: np.ndarray) -> "FeatureScaler":
        rows = matrix[np.all(np.isfinite(matrix), axis=1)]
        if len(rows) == 0:
            raise ValueError("no finite feature rows to fit scaler on")
        return cls(mean=rows.mean(axis=0), std=rows.std(axis=0))

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """A scaled float copy of `matrix`, one feature row per line; a
        zero-variance column becomes 0 and NaN warm-up rows stay NaN."""
        out = np.array(matrix, dtype=float)
        for j in self.columns:
            s = self.std[j]
            out[:, j] = (out[:, j] - self.mean[j]) / s if s > 1e-12 else 0.0
        return out

    def to_dict(self) -> Dict:
        """The JSON form: floats as repr strings, so they round-trip exactly."""
        return {
            "mean": [repr(x) for x in self.mean.tolist()],
            "std": [repr(x) for x in self.std.tolist()],
            "columns": list(self.columns),
        }

    @classmethod
    def from_dict(cls, d) -> "FeatureScaler":
        """Inverse of to_dict; ValueError names the first malformed field."""
        fields = {}
        for name in ("mean", "std", "columns"):
            fields[name] = d.get(name) if isinstance(d, dict) else None
            if not isinstance(fields[name], list):
                raise ValueError(f"scaler {name} must be a list, got {fields[name]!r}")
        for name in ("mean", "std"):
            try:
                fields[name] = np.array([float(x) for x in fields[name]])
            except (TypeError, ValueError):
                raise ValueError(f"scaler {name} must hold numbers") from None
            if len(fields[name]) != N_FEATURES:
                raise ValueError(f"scaler {name} has {len(fields[name])} values, "
                                 f"expected {N_FEATURES}")
        if not np.isfinite(fields["mean"]).all():
            raise ValueError("scaler mean must hold finite numbers")
        if not (np.isfinite(fields["std"]) & (fields["std"] >= 0.0)).all():
            raise ValueError("scaler std must hold finite numbers >= 0")
        if not all(type(j) is int and 0 <= j < N_FEATURES for j in fields["columns"]):
            raise ValueError(f"scaler columns must be indices 0..{N_FEATURES - 1}, "
                             f"got {fields['columns']!r}")
        if len(set(fields["columns"])) != len(fields["columns"]):
            raise ValueError(f"scaler columns repeat an index: {fields['columns']!r}")
        return cls(fields["mean"], fields["std"], tuple(fields["columns"]))


OBSERVATION_DIM = N_FEATURES + 4  # 32


def assemble_observation(
    features: np.ndarray,
    cash: float,
    center_tick: int,
    width: int,
    value: float,
    *,
    l0: float,
    close: float,
    tick_spacing: int,
    n_actions: int,
) -> np.ndarray:
    """Flat 32-vector [f(28), cash, center, width, value]: the feature row as
    given (already scaled, if at all), the account block normalized as above."""
    if len(features) != N_FEATURES:
        raise ValueError(f"expected {N_FEATURES} features, got {len(features)}")
    center_offset = (price_to_tick(close) - center_tick) / (tick_spacing * width)
    account = [cash / l0, center_offset, width / n_actions, value / l0]
    return np.concatenate([features, account])
