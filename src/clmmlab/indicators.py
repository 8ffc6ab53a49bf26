"""Technical indicators over hourly OHLCV arrays.

All functions take float64 numpy arrays aligned by bar index and return an
array of the same length, NaN-filled over the indicator's warm-up prefix and
finite afterwards.  Recurrences run strictly forward, so the value at index t
never depends on bars after t; the feature layer leans on that for causality.

Conventions for degenerate (flat) windows are chosen so nothing ever divides
by zero: BOP and the stochastics return 0 when the bar or window has no
range, CCI returns 0 on zero mean deviation, DX returns 0 when both DIs
vanish, the ultimate oscillator returns 0 on zero true-range sum, and the
Hilbert dominant-cycle period holds its previous value when the homodyne
discriminator degenerates.

Windowed sums, means and extremes reduce over sliding-window views, and the
elementwise steps are array expressions.  The true recurrences (EMA, Wilder
sums, ADX, NATR, parabolic SAR and the Hilbert pass) stay sequential but run
over Python floats, which round exactly like numpy float64 scalars.  The
per-element loops these passes replaced are kept in tests/oracles.py, and
the tests hold every column bit-equal to them.
"""

import math
from itertools import accumulate
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _validate(*arrays):
    n = len(arrays[0])
    for a in arrays:
        if len(a) != n:
            raise ValueError("input arrays differ in length")
    return n


def _windows(x: np.ndarray, p: int) -> np.ndarray:
    """(n - p + 1, p) view of x's length-p windows, one row per end index."""
    return sliding_window_view(x, p) if len(x) >= p else np.empty((0, p))


def sma(x: np.ndarray, period: int) -> np.ndarray:
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    out = np.full(len(x), np.nan)
    if len(x) < period:
        return out
    c = np.cumsum(np.concatenate(([0.0], x)))
    out[period - 1:] = (c[period:] - c[:-period]) / period
    return out


def ema(x: np.ndarray, period: int) -> np.ndarray:
    """Exponential MA seeded with the SMA of the first `period` values."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    n = len(x)
    out = np.full(n, np.nan)
    if n < period:
        return out
    alpha = 2.0 / (period + 1.0)
    out[period - 1:] = list(accumulate(
        x[period:].tolist(), lambda prev, v: alpha * v + (1.0 - alpha) * prev,
        initial=float(np.mean(x[:period]))))
    return out


def dema(x: np.ndarray, period: int) -> np.ndarray:
    e1 = ema(x, period)
    start = period - 1
    e2_tail = ema(e1[start:], period)
    out = np.full(len(x), np.nan)
    out[start:] = 2.0 * e1[start:] - e2_tail
    return out


def true_range(high: np.ndarray, low: np.ndarray, close: np.ndarray) -> np.ndarray:
    n = _validate(high, low, close)
    out = np.full(n, np.nan)
    rng = high[1:] - low[1:]
    up, down = np.abs(high[1:] - close[:-1]), np.abs(low[1:] - close[:-1])
    # built-in max(rng, up, down): ties keep the earlier argument
    first = np.where(up > rng, up, rng)
    out[1:] = np.where(down > first, down, first)
    return out


def _wilder_sum(values: np.ndarray, period: int, first_index: int) -> np.ndarray:
    """Wilder smoothed running sum: s_i = s_{i-1} - s_{i-1}/n + v_i.

    values[first_index:] must be defined; the first output lands at
    first_index + period - 1 as the plain sum of the first `period` values.
    """
    n = len(values)
    out = np.full(n, np.nan)
    start = first_index + period - 1
    if start >= n:
        return out
    out[start:] = list(accumulate(
        values[start + 1:].tolist(), lambda s, v: s - s / period + v,
        initial=float(np.sum(values[first_index : first_index + period]))))
    return out


def _directional_movement(high: np.ndarray, low: np.ndarray):
    n = _validate(high, low)
    up = high[1:] - high[:-1]
    down = low[:-1] - low[1:]
    plus = np.zeros(n)
    minus = np.zeros(n)
    plus[1:] = np.where((up > down) & (up > 0.0), up, 0.0)
    minus[1:] = np.where((down > up) & (down > 0.0), down, 0.0)
    return plus, minus


def plus_dm(high: np.ndarray, low: np.ndarray, period: int = 14) -> np.ndarray:
    p, _ = _directional_movement(high, low)
    return _wilder_sum(p, period, 1)


def minus_dm(high: np.ndarray, low: np.ndarray, period: int = 14) -> np.ndarray:
    _, m = _directional_movement(high, low)
    return _wilder_sum(m, period, 1)


def _di(high, low, close, period):
    p, m = _directional_movement(high, low)
    tr = true_range(high, low, close)
    tr[:1] = 0.0
    ps = _wilder_sum(p, period, 1)
    ms = _wilder_sum(m, period, 1)
    trs = _wilder_sum(np.nan_to_num(tr), period, 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        pdi = np.where(trs > 0.0, 100.0 * ps / trs, 0.0)
        mdi = np.where(trs > 0.0, 100.0 * ms / trs, 0.0)
    pdi[np.isnan(ps)] = np.nan
    mdi[np.isnan(ms)] = np.nan
    return pdi, mdi


def dx(high: np.ndarray, low: np.ndarray, close: np.ndarray, period: int = 14) -> np.ndarray:
    pdi, mdi = _di(high, low, close, period)
    out = np.full(len(close), np.nan)
    valid = ~np.isnan(pdi)
    tot = pdi[valid] + mdi[valid]
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = np.where(tot > 0.0, 100.0 * np.abs(pdi[valid] - mdi[valid]) / tot, 0.0)
    out[valid] = vals
    return out


def adx(high: np.ndarray, low: np.ndarray, close: np.ndarray, period: int = 14) -> np.ndarray:
    d = dx(high, low, close, period)
    n = len(close)
    out = np.full(n, np.nan)
    first = period  # dx starts here
    start = first + period - 1
    if start >= n:
        return out
    out[start:] = list(accumulate(
        d[start + 1:].tolist(), lambda prev, v: (prev * (period - 1) + v) / period,
        initial=float(np.mean(d[first : first + period]))))
    return out


def apo(x: np.ndarray, fast: int = 12, slow: int = 26) -> np.ndarray:
    """Absolute price oscillator on simple MAs."""
    if fast >= slow:
        raise ValueError(f"fast period must be < slow period, got {fast} >= {slow}")
    return sma(x, fast) - sma(x, slow)


def aroon_osc(high: np.ndarray, low: np.ndarray, period: int = 14) -> np.ndarray:
    """Aroon up minus Aroon down over a period+1 bar window.

    Ties go to the most recent extreme, matching the reference behaviour.
    """
    n = _validate(high, low)
    out = np.full(n, np.nan)
    hw, lw = _windows(high, period + 1)[:, ::-1], _windows(low, period + 1)[:, ::-1]
    # distance back to the most recent max/min: the first in the reversed window
    back_hi = (hw >= hw.max(axis=1)[:, None]).argmax(axis=1)
    back_lo = (lw <= lw.min(axis=1)[:, None]).argmax(axis=1)
    up = 100.0 * (period - back_hi) / period
    down = 100.0 * (period - back_lo) / period
    out[period:] = up - down
    return out


def bop(open_: np.ndarray, high: np.ndarray, low: np.ndarray, close: np.ndarray) -> np.ndarray:
    n = _validate(open_, high, low, close)
    rng = high - low
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(rng > 0.0, (close - open_) / rng, 0.0)
    return out.astype(float)


_BLOCK_WINDOWS = 256


def cci(high: np.ndarray, low: np.ndarray, close: np.ndarray, period: int = 14) -> np.ndarray:
    n = _validate(high, low, close)
    tp = (high + low + close) / 3.0
    out = np.full(n, np.nan)
    w = _windows(tp, period)
    m = w.sum(axis=1) / period
    # the mean deviation a block of windows at a time, which bounds the
    # (windows, period) temporary; each row keeps numpy's pairwise order
    dev = np.empty_like(m)
    for a in range(0, len(m), _BLOCK_WINDOWS):
        block = slice(a, a + _BLOCK_WINDOWS)
        d = w[block] - m[block, None]
        dev[block] = np.abs(d, out=d).sum(axis=1) / period
    with np.errstate(invalid="ignore", divide="ignore"):
        out[period - 1:] = np.where(dev > 0.0, (tp[period - 1:] - m) / (0.015 * dev), 0.0)
    return out


def cmo(close: np.ndarray, period: int = 14) -> np.ndarray:
    """Chande momentum: 100 * (sum gains - sum losses)/(sum gains + sum losses).

    Plain sums over the lookback (the classic definition), not the
    Wilder-smoothed variant.
    """
    n = len(close)
    out = np.full(n, np.nan)
    diff = np.diff(close)
    gains = np.where(diff > 0.0, diff, 0.0)
    losses = np.where(diff < 0.0, -diff, 0.0)
    g = _windows(gains, period).sum(axis=1)
    l = _windows(losses, period).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        out[period:] = np.where(g + l > 0.0, 100.0 * (g - l) / (g + l), 0.0)
    return out


def momentum(close: np.ndarray, period: int = 10) -> np.ndarray:
    n = len(close)
    out = np.full(n, np.nan)
    out[period:] = close[period:] - close[:-period]
    return out


def trix(close: np.ndarray, period: int = 30) -> np.ndarray:
    """One-bar percent rate of change of a triple EMA."""
    e1 = ema(close, period)
    e2 = ema(e1[period - 1 :], period)
    e3 = ema(e2[period - 1 :], period)
    n = len(close)
    full_e3 = np.full(n, np.nan)
    start3 = 3 * (period - 1)
    full_e3[start3:] = e3[period - 1 :]
    out = np.full(n, np.nan)
    prev = full_e3[start3:-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        out[start3 + 1:] = np.where(prev != 0.0, 100.0 * (full_e3[start3 + 1:] / prev - 1.0), 0.0)
    return out


def ultimate_oscillator(
    high: np.ndarray,
    low: np.ndarray,
    close: np.ndarray,
    p1: int = 7,
    p2: int = 14,
    p3: int = 28,
) -> np.ndarray:
    n = _validate(high, low, close)
    # built-in min(low, prev close) and max(high, prev close)
    lo = np.where(close[:-1] < low[1:], close[:-1], low[1:])
    hi = np.where(close[:-1] > high[1:], close[:-1], high[1:])
    bp = np.zeros(n)
    tr = np.zeros(n)
    bp[1:] = close[1:] - lo
    tr[1:] = hi - lo
    out = np.full(n, np.nan)

    def avg(p):
        # sums over the windows ending at p3 .. n - 1
        t = _windows(tr, p).sum(axis=1)[p3 - p + 1:]
        b = _windows(bp, p).sum(axis=1)[p3 - p + 1:]
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(t > 0.0, b / t, 0.0)

    out[p3:] = 100.0 * (4.0 * avg(p1) + 2.0 * avg(p2) + avg(p3)) / 7.0
    return out


def _raw_stochastic(high, low, close, period):
    n = _validate(high, low, close)
    out = np.full(n, np.nan)
    hh = _windows(high, period).max(axis=1)
    ll = _windows(low, period).min(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        out[period - 1:] = np.where(hh > ll, 100.0 * (close[period - 1:] - ll) / (hh - ll), 0.0)
    return out


def stochastic(
    high: np.ndarray,
    low: np.ndarray,
    close: np.ndarray,
    k_period: int = 5,
    slow_period: int = 3,
    d_period: int = 3,
):
    """Slow stochastic: returns (slowK, slowD)."""
    fastk = _raw_stochastic(high, low, close, k_period)
    start = k_period - 1
    slowk = np.full(len(close), np.nan)
    slowk[start:] = sma(fastk[start:], slow_period)
    start2 = start + slow_period - 1
    slowd = np.full(len(close), np.nan)
    slowd[start2:] = sma(slowk[start2:], d_period)
    return slowk, slowd


def stochastic_fast(
    high: np.ndarray,
    low: np.ndarray,
    close: np.ndarray,
    k_period: int = 5,
    d_period: int = 3,
):
    """Fast stochastic: returns (fastK, fastD)."""
    fastk = _raw_stochastic(high, low, close, k_period)
    start = k_period - 1
    fastd = np.full(len(close), np.nan)
    fastd[start:] = sma(fastk[start:], d_period)
    return fastk, fastd


def natr(high: np.ndarray, low: np.ndarray, close: np.ndarray, period: int = 14) -> np.ndarray:
    n = _validate(high, low, close)
    tr = true_range(high, low, close)
    out = np.full(n, np.nan)
    if n <= period:
        return out
    atr = list(accumulate(
        tr[period + 1:].tolist(), lambda prev, v: (prev * (period - 1) + v) / period,
        initial=float(np.mean(tr[1 : period + 1]))))
    out[period:] = 100.0 * np.array(atr) / close[period:]
    return out


def parabolic_sar(
    high: np.ndarray, low: np.ndarray, accel: float = 0.02, max_accel: float = 0.2
) -> np.ndarray:
    """Wilder's parabolic stop-and-reverse.

    The initial trend comes from the first bar-to-bar directional move; the
    stop trails at sar + af*(ep - sar), clamped to the prior two bars'
    extremes, reversing when price crosses it.
    """
    n = _validate(high, low)
    out = np.full(n, np.nan)
    if n < 2:
        return out
    high, low = high.tolist(), low.tolist()
    long = high[1] - high[0] >= low[0] - low[1]
    sar, ep = (low[0], high[1]) if long else (high[0], low[1])
    af = accel
    sars = [sar]
    for i in range(2, n):
        sar = sar + af * (ep - sar)
        if long:
            sar = min(sar, low[i - 1], low[i - 2])
            if low[i] < sar:
                long = False
                sar, ep, af = ep, low[i], accel
            elif high[i] > ep:
                ep, af = high[i], min(af + accel, max_accel)
        else:
            sar = max(sar, high[i - 1], high[i - 2])
            if high[i] > sar:
                long = True
                sar, ep, af = ep, high[i], accel
            elif low[i] < ep:
                ep, af = low[i], min(af + accel, max_accel)
        sars.append(sar)
    out[1:] = sars
    return out


_HT_LOOKBACK = 63


def _wma4(x: np.ndarray) -> np.ndarray:
    """4-bar weighted price (4, 3, 2, 1)/10, the Hilbert passes' input."""
    out = np.full(len(x), np.nan)
    out[3:] = (4.0 * x[3:] + 3.0 * x[2:-1] + 2.0 * x[1:-2] + x[:-3]) / 10.0
    return out


def _hilbert_period(x: np.ndarray) -> np.ndarray:
    """The homodyne-discriminator pass: smoothed dominant-cycle period."""
    n = len(x)
    smooth_period = np.full(n, np.nan)
    if n < 7:
        return smooth_period

    def filt(series, i, per):
        return (
            0.0962 * series[i]
            + 0.5769 * series[i - 2]
            - 0.5769 * series[i - 4]
            - 0.0962 * series[i - 6]
        ) * (0.075 * per + 0.54)

    sm = _wma4(x).tolist()
    detrender, q1, i1 = [0.0] * n, [0.0] * n, [0.0] * n
    spers = []
    i2 = q2 = re = im = 0.0
    per = sper = 6.0
    for i in range(9, n):
        detrender[i] = filt(sm, i, per)
        if i < 15:
            continue
        q1[i] = filt(detrender, i, per)
        i1[i] = detrender[i - 3]
        ji = filt(i1, i, per)
        jq = filt(q1, i, per)
        i2_new = i1[i] - jq
        q2_new = q1[i] + ji
        i2_new = 0.2 * i2_new + 0.8 * i2
        q2_new = 0.2 * q2_new + 0.8 * q2
        re_new = 0.2 * (i2_new * i2 + q2_new * q2) + 0.8 * re
        im_new = 0.2 * (i2_new * q2 - q2_new * i2) + 0.8 * im
        i2, q2, re, im = i2_new, q2_new, re_new, im_new
        if im != 0.0 and re != 0.0:
            angle = math.atan2(im, re)
            if angle != 0.0:
                p_new = 2.0 * math.pi / angle
                p_new = min(max(p_new, 0.67 * per), 1.5 * per)
                p_new = min(max(p_new, 6.0), 50.0)
                per = 0.2 * p_new + 0.8 * per
        sper = 0.33 * per + 0.67 * sper
        spers.append(sper)
    smooth_period[15:] = spers
    return smooth_period


def ht_dc_period(x: np.ndarray) -> np.ndarray:
    """Hilbert-transform dominant cycle period, clamped to [6, 50] bars."""
    sper = _hilbert_period(x)
    out = np.full(len(x), np.nan)
    valid = slice(_HT_LOOKBACK, len(x))
    out[valid] = sper[valid]
    return out


def ht_dc_phase(x: np.ndarray, period: Optional[np.ndarray] = None) -> np.ndarray:
    """Phase within the dominant cycle, in degrees.

    period is ht_dc_period(x), computed here when not given: a caller that
    already holds it passes it to skip the sequential pass.
    """
    if period is None:
        period = ht_dc_period(x)
    n = len(x)
    out = np.full(n, np.nan)
    src = [s if math.isfinite(s) else v for s, v in zip(_wma4(x).tolist(), x.tolist())]
    sper = period.tolist()
    weights = {}  # dc -> [(sin, cos) of 2*pi*k/dc for k < dc]
    for i in range(_HT_LOOKBACK, n):
        sp = sper[i]
        if not math.isfinite(sp):
            continue
        dc = max(int(sp + 0.5), 1)
        real = imag = 0.0
        if i - dc + 1 < 0:
            continue
        if dc not in weights:
            weights[dc] = [(math.sin(w), math.cos(w))
                           for w in (2.0 * math.pi * k / dc for k in range(dc))]
        # k = 0 .. dc - 1 pairs with bars i, i - 1, ..., i - dc + 1
        for (sin_w, cos_w), s in zip(weights[dc], reversed(src[i - dc + 1 : i + 1])):
            real += sin_w * s
            imag += cos_w * s
        if abs(imag) > 0.001:
            phase = math.degrees(math.atan(real / imag))
        else:
            phase = 90.0 * (1.0 if real > 0.0 else (-1.0 if real < 0.0 else 0.0))
        phase += 90.0
        phase += 360.0 / sp  # one-bar lag of the weighted smoother
        if imag < 0.0:
            phase += 180.0
        if phase > 315.0:
            phase -= 360.0
        out[i] = phase
    return out
