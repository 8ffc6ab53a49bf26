"""Hourly candle acquisition, validation, synthesis, and study period dates.

Candles are hourly OHLCV bars with epoch-second timestamps and human-readable
decimal-adjusted prices.  The CSV schema is fixed:

    timestamp,open,high,low,close,volume_usd

Floats are written with repr so a load/save cycle is bit-exact.
"""

import csv
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import List, Sequence

import numpy as np

from .report import write_csv_rows

HOUR = 3600
CANDLE_CSV_HEADER = ["timestamp", "open", "high", "low", "close", "volume_usd"]


class DataValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Candle:
    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume_usd: float

    def __post_init__(self):
        for name in ("open", "high", "low", "close"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise DataValidationError(f"{name} must be positive and finite, got {v}")
        if not (self.low <= min(self.open, self.close) and max(self.open, self.close) <= self.high):
            raise DataValidationError(
                f"OHLC ordering violated at {self.timestamp}: "
                f"o={self.open} h={self.high} l={self.low} c={self.close}"
            )
        if self.volume_usd < 0.0 or not math.isfinite(self.volume_usd):
            raise DataValidationError(f"volume_usd must be >= 0, got {self.volume_usd}")


def validate_series(candles: Sequence[Candle], first_row: int = 1) -> None:
    """Check hourly spacing; the first candle is reported as row first_row."""
    for i, (a, b) in enumerate(zip(candles, candles[1:])):
        if b.timestamp - a.timestamp != HOUR:
            raise DataValidationError(
                f"row {i + 1 + first_row}: timestamp {b.timestamp} does not follow "
                f"{a.timestamp} by exactly {HOUR}s"
            )


def fill_gaps(candles: Sequence[Candle], max_gap_hours: int = 3) -> List[Candle]:
    """Forward-fill missing hours with flat bars at the previous close.

    Runs longer than max_gap_hours raise, listing the missing hours.
    """
    if not candles:
        return []
    out = [candles[0]]
    for c in candles[1:]:
        prev = out[-1]
        if c.timestamp <= prev.timestamp:
            raise DataValidationError(
                f"timestamps not strictly increasing: {c.timestamp} after {prev.timestamp}"
            )
        missing = (c.timestamp - prev.timestamp) // HOUR - 1
        if (c.timestamp - prev.timestamp) % HOUR:
            raise DataValidationError(
                f"timestamp {c.timestamp} is not hour-aligned with {prev.timestamp}"
            )
        if missing > max_gap_hours:
            hours = [prev.timestamp + HOUR * (k + 1) for k in range(missing)]
            raise DataValidationError(
                f"gap of {missing} hours exceeds limit {max_gap_hours}; missing: {hours}"
            )
        for k in range(missing):
            ts = prev.timestamp + HOUR * (k + 1)
            p = prev.close
            out.append(Candle(ts, p, p, p, p, 0.0))
        out.append(c)
    return out


def load_candles_csv(path: str) -> List[Candle]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CANDLE_CSV_HEADER:
            raise DataValidationError(
                f"bad candle CSV header in {path}: {header!r}, want {CANDLE_CSV_HEADER!r}"
            )
        out = []
        for i, row in enumerate(reader):
            if len(row) != 6:
                raise DataValidationError(f"row {i + 2}: expected 6 columns, got {len(row)}")
            try:
                out.append(
                    Candle(
                        int(row[0]), float(row[1]), float(row[2]),
                        float(row[3]), float(row[4]), float(row[5]),
                    )
                )
            except DataValidationError as e:
                raise DataValidationError(f"row {i + 2}: {e}") from None
            except ValueError:
                raise DataValidationError(f"row {i + 2}: unparseable value in {row!r}") from None
    validate_series(out, first_row=2)  # file line numbers: the header is line 1
    return out


def save_candles_csv(candles: Sequence[Candle], path: str) -> None:
    """Write through a temp file in the same directory, then os.replace it,
    so a crash mid-write never leaves a truncated file at `path`."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write_csv_rows(tmp, CANDLE_CSV_HEADER, (
            [c.timestamp, c.open, c.high, c.low, c.close, c.volume_usd]
            for c in candles))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def candles_to_arrays(candles: Sequence[Candle]):
    """Column arrays (timestamp, open, high, low, close, volume)."""
    ts = np.array([c.timestamp for c in candles], dtype=np.int64)
    o = np.array([c.open for c in candles])
    h = np.array([c.high for c in candles])
    l = np.array([c.low for c in candles])
    cl = np.array([c.close for c in candles])
    v = np.array([c.volume_usd for c in candles])
    return ts, o, h, l, cl, v


def bundled_candles_path() -> str:
    """Filesystem path of the packaged 1200-hour synthetic candle fixture."""
    import importlib.resources
    ref = importlib.resources.files("clmmlab").joinpath("data/candles_1200h.csv")
    return str(ref)


# ------------------------------------------------------------------ periods

def _utc(date: str) -> int:
    return int(datetime.strptime(date, "%Y-%m-%d").replace(tzinfo=timezone.utc).timestamp())


# the four study periods over 2021-2023 pool history: the (start, end) UTC
# dates of each period's train, validation and test ranges, end exclusive
REFERENCE_PERIODS = {
    1: {"train": ("2021-08-02", "2022-07-01"), "validation": ("2022-07-01", "2022-08-11"),
        "test": ("2022-08-12", "2022-09-22")},
    2: {"train": ("2021-09-12", "2022-08-11"), "validation": ("2022-08-12", "2022-09-22"),
        "test": ("2022-09-22", "2022-11-03")},
    3: {"train": ("2021-10-24", "2022-09-22"), "validation": ("2022-09-22", "2022-11-03"),
        "test": ("2022-11-03", "2022-12-14")},
    4: {"train": ("2021-12-05", "2022-11-03"), "validation": ("2022-11-03", "2022-12-14"),
        "test": ("2022-12-15", "2023-01-25")},
}


# ------------------------------------------------------------------ synthesis

DEFAULT_SYNTH_START = 1609459200  # 2021-01-01T00:00:00Z


def synth_gbm(
    p0: float,
    mu: float,
    sigma: float,
    n_hours: int,
    seed: int,
    start_ts: int = DEFAULT_SYNTH_START,
    intra_factor: float = 0.25,
) -> List[Candle]:
    """Geometric-Brownian hourly candles.

    close_{t+1} = close_t * exp((mu - sigma^2/2) + sigma * z_t) with unit z.
    Highs and lows extend the open/close bracket by intra_factor times the
    bar's absolute simple return; volume is a deterministic function of the
    move so downstream consumers always see positive flow.
    """
    if p0 <= 0.0:
        raise ValueError(f"p0 must be positive, got {p0}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if n_hours < 1:
        raise ValueError(f"n_hours must be >= 1, got {n_hours}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_hours)
    closes = np.empty(n_hours + 1)
    closes[0] = p0
    drift = mu - 0.5 * sigma * sigma
    for t in range(n_hours):
        closes[t + 1] = closes[t] * math.exp(drift + sigma * z[t])
    out = []
    for t in range(1, n_hours + 1):
        o = float(closes[t - 1])
        c = float(closes[t])
        ext = intra_factor * abs(c / o - 1.0)
        hi = max(o, c) * (1.0 + ext)
        lo = min(o, c) / (1.0 + ext)
        vol = 1e6 * (1.0 + abs(math.log(c / o)))
        out.append(Candle(start_ts + (t - 1) * HOUR, o, hi, lo, c, vol))
    return out
