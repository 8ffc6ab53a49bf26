"""Hourly candle acquisition, validation, synthesis, and study period dates.

Candles are hourly OHLCV bars with epoch-second timestamps and human-readable
decimal-adjusted prices.  The CSV schema is fixed:

    timestamp,open,high,low,close,volume_usd

Floats are written with repr so a load/save cycle is bit-exact.
"""

import csv
import math
import os
from datetime import datetime, timezone
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .report import write_csv_columns

HOUR = 3600
CANDLE_CSV_HEADER = ["timestamp", "open", "high", "low", "close", "volume_usd"]


class DataValidationError(ValueError):
    pass


class Candle(NamedTuple):
    """One hourly bar as Python values: a row of a CandleSeries."""

    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume_usd: float


def _arrays(timestamp, *fields) -> Tuple[np.ndarray, ...]:
    return (np.array(timestamp, dtype=np.int64), *(np.array(f, dtype=float) for f in fields))


def _check_bars(columns, first_row: Optional[int]) -> None:
    """Every bar's checks at once, in a bar's order: each price positive and
    finite, low <= open, close <= high, volume >= 0 and finite. The first
    bad bar raises its first failed check, prefixed "row N: " when the
    first bar's row number is given."""
    _, o, h, l, c, v = columns
    passed = [(p > 0.0) & (p < math.inf) for p in (o, h, l, c)]
    passed += [(l <= np.minimum(o, c)) & (np.maximum(o, c) <= h), (v >= 0.0) & (v < math.inf)]
    bad = ~np.logical_and.reduce(passed)
    if not bad.any():
        return
    i = int(bad.argmax())
    check = next(k for k, ok in enumerate(passed) if not ok[i])
    ts, o, h, l, c, v = (column[i].item() for column in columns)
    if check < 4:
        name = CANDLE_CSV_HEADER[1 + check]
        error = f"{name} must be positive and finite, got {(o, h, l, c)[check]}"
    elif check == 4:
        error = f"OHLC ordering violated at {ts}: o={o} h={h} l={l} c={c}"
    else:
        error = f"volume_usd must be >= 0, got {v}"
    raise DataValidationError(error if first_row is None else f"row {first_row + i}: {error}")


class CandleSeries:
    """An hourly candle series as read-only columns, checked once when built.

    Each bar passes its own checks (prices positive and finite, low <= open,
    close <= high, volume >= 0 and finite), the first bad one raising; then
    each timestamp follows the one before by exactly HOUR, counting rows
    from first_row (1 when unset; a bar's error names its row only when
    first_row is set). A slice is a series again, on views of the same
    columns; an index is a Candle.
    """

    __slots__ = tuple(CANDLE_CSV_HEADER)

    def __init__(self, timestamp, open, high, low, close, volume_usd,
                 first_row: Optional[int] = None):
        columns = _arrays(timestamp, open, high, low, close, volume_usd)
        _check_bars(columns, first_row)
        ts = columns[0]
        gaps = np.flatnonzero(np.diff(ts) != HOUR)
        if len(gaps):
            i = int(gaps[0])
            raise DataValidationError(
                f"row {i + 1 + (first_row or 1)}: timestamp {ts[i + 1]} does not follow "
                f"{ts[i]} by exactly {HOUR}s"
            )
        self._bind(columns)

    def _bind(self, columns) -> None:
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def from_rows(cls, rows: Sequence[Candle], first_row: Optional[int] = None):
        return cls(*(list(zip(*rows)) or [()] * 6), first_row=first_row)

    @property
    def columns(self) -> Tuple[np.ndarray, ...]:
        """(timestamp, open, high, low, close, volume_usd)."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return Candle(*(column[index].item() for column in self.columns))
        if index.step not in (None, 1):
            raise ValueError("a candle series slices into runs of consecutive hours")
        out = object.__new__(CandleSeries)
        out._bind(tuple(column[index] for column in self.columns))
        return out


def fill_gaps(candles: Sequence[Candle], max_gap_hours: int = 3) -> CandleSeries:
    """Forward-fill missing hours with flat bars at the previous close.

    Runs longer than max_gap_hours raise, listing the missing hours.
    """
    out = list(candles[:1])
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
    return CandleSeries.from_rows(out)


def load_candles_csv(path: str) -> CandleSeries:
    """The series in the CSV file at path; errors name file line numbers
    (the header is line 1). The rows before a malformed one are checked
    before it is reported, and the hourly spacing only once every row parsed."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CANDLE_CSV_HEADER:
            raise DataValidationError(
                f"bad candle CSV header in {path}: {header!r}, want {CANDLE_CSV_HEADER!r}"
            )
        rows, error = [], None
        for line, row in enumerate(reader, start=2):
            if len(row) != 6:
                error = f"row {line}: expected 6 columns, got {len(row)}"
                break
            try:
                rows.append((int(row[0]), *map(float, row[1:])))
            except ValueError:
                error = f"row {line}: unparseable value in {row!r}"
                break
    columns = list(zip(*rows)) or [()] * 6
    if error is not None:
        _check_bars(_arrays(*columns), first_row=2)
        raise DataValidationError(error)
    return CandleSeries(*columns, first_row=2)


def save_candles_csv(candles: CandleSeries, path: str) -> None:
    """Write through a temp file in the same directory, then os.replace it,
    so a crash mid-write never leaves a truncated file at `path`."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write_csv_columns(tmp, CANDLE_CSV_HEADER, candles.columns)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
) -> CandleSeries:
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
    closes = [float(p0)]
    # the scalar math.exp recursion: np.exp differs from it in the last bit
    exp = math.exp
    for step in (mu - 0.5 * sigma * sigma + sigma * z).tolist():
        closes.append(closes[-1] * exp(step))
    o, c = np.array(closes[:-1]), np.array(closes[1:])
    with np.errstate(all="ignore"):  # an overflow is the series check's to report
        ext = intra_factor * np.abs(c / o - 1.0)
        hi = np.maximum(o, c) * (1.0 + ext)
        lo = np.minimum(o, c) / (1.0 + ext)
        ratios = (c / o).tolist()
    ts = start_ts + HOUR * np.arange(n_hours)
    try:  # math.log, element by element, as np.log differs from it too
        vol = [1e6 * (1.0 + abs(math.log(r))) for r in ratios]
    except ValueError:  # the first close that is 0: the bars before it are checked first
        k = next(i for i, r in enumerate(ratios) if r <= 0.0)
        CandleSeries(ts[:k], o[:k], hi[:k], lo[:k], c[:k], [0.0] * k)
        raise
    return CandleSeries(ts, o, hi, lo, c, vol)
