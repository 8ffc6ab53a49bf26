"""Classical liquidity-provision baselines.

Two strategies:

* tau-reset: hold a width-tau interval and reallocate (full budget, same
  width) whenever the close leaves the interval.
* exponential-weights (EWA): every t_re hours, split the whole wealth
  across simultaneous positions of widths 1..N in proportion to
  softmax(eta * cumulative per-width reward). Per-width rewards are
  measured on unit-budget reference positions of each width so weights
  are scale-free; gas is charged once per reallocation event, not per
  width. A position opened with budget b at a close holds b times the
  liquidity of the unit reference opened there, and fee, LVR and value
  are linear in liquidity, so positions = budgets x unit references.
  Its trace holds center_tick and width 0, since it holds several bands
  at once.

Neither strategy's bands read the ledger: tau-reset's move when a close
leaves them, and EWA's references are minted at the close before each
periodic reallocation. So both walk a chunk of WALK_HOURS hours per
ledger call, each hour on the band(s) it holds, and writes the columns
of an env.HourTrace: no hour becomes an object of its own.

Default hyperparameters for the benchmark pools, periods, and fund sizes
ship in TAU_DEFAULTS / EWA_DEFAULTS.
"""

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .accounting import lvr_over_path
from .amm import (band_for_center, liquidity_for_budget, position_value, price_to_tick,
                  snap_tick)
from .env import EnvConfig, HourTrace, hour_paths
from .marketdata import CandleSeries

# hours in one ledger walk at most: the walk's arrays stay per chunk of
# hours, however long the run
WALK_HOURS = 256


class Bands(NamedTuple):
    """A stack of bands: a position's fields as arrays, which
    lvr_over_path walks all at once."""

    price_lower: np.ndarray
    price_upper: np.ndarray
    liquidity: np.ndarray


def _window_paths(candles: CandleSeries, offset: int, horizon: int,
                  path_model: str) -> np.ndarray:
    """hour_paths of the hours candles[offset:offset+horizon] elapse."""
    if offset < 0 or offset + horizon >= len(candles):
        raise ValueError(
            f"need candles through index {offset + horizon}, have {len(candles)}"
        )
    return hour_paths(candles[offset:offset + horizon + 1], path_model)


def run_tau_reset(candles: CandleSeries, offset: int, horizon: int, tau: int,
                  env: EnvConfig) -> HourTrace:
    """Replay tau-reset over candles[offset:offset+horizon].

    The run opens the width-tau band around the first close with budget
    l0. An hour whose opening close lies outside the band reallocates
    cash + value into the width-tau band around that close (action tau,
    gas paid); any other hour holds (action 0). Fees pile up in cash
    until the next reset, and rewards follow env.reward_mode, as in
    LPEnv.step; the episode length is horizon.

    No band reads the ledger, so a chunk of WALK_HOURS hours replays in
    three passes: the resets, from the closes and the band edges alone;
    the budget carried from reset to reset, from each hour's fee (the
    ledger kernel's arithmetic on the same clamped sqrt prices) and the
    value at the reset close (amm's holdings formula, which the kernel
    walks); then one array call of the kernel over the chunk, each hour
    on its own band. The passes write the chunk's columns of the trace.
    """
    if not 1 <= tau <= env.n_actions:
        raise ValueError(f"tau must be in 1..n_actions={env.n_actions}, got {tau}")
    paths = _window_paths(candles, offset, horizon, env.path_model)
    window = candles.close[offset:offset + horizon + 1]
    closes = window.tolist()
    spacing, fee_tier = env.pool.tick_spacing, env.pool.fee_tier
    fee_rate = fee_tier / (1.0 - fee_tier)
    edges = {}  # center tick -> band edges: resets often return to a center

    def band_around(price):
        center = snap_tick(price_to_tick(price), spacing)
        if center not in edges:
            edges[center] = band_for_center(center, tau, spacing)
        return (center, *edges[center])

    center, pa, pb = band_around(closes[0])
    liquidity = liquidity_for_budget(env.l0, closes[0], pa, pb)
    cash = 0.0
    trace = HourTrace(horizon)
    trace["t"][:] = np.arange(offset + 1, offset + horizon + 1)
    trace["width"][:] = tau
    trace["close"][:] = window[1:]
    for h0 in range(0, horizon, WALK_HOURS):
        n = min(WALK_HOURS, horizon - h0)
        chunk = slice(h0, h0 + n)
        # pass 1: the chunk's bands, one per segment between resets
        starts, centers, lower, upper = [0], [center], [pa], [pb]
        for h, close in enumerate(closes[chunk]):
            if close < pa or close > pb:
                center, pa, pb = band_around(close)
                starts.append(h)
                centers.append(center)
                lower.append(pa)
                upper.append(pb)
        bounds = starts + [n]
        lengths = np.diff(bounds)
        hour_lower = np.repeat(lower, lengths)
        hour_upper = np.repeat(upper, lengths)
        path = paths[chunk]
        # pass 2: the budget. An hour's fee is the rate times each move of
        # its clamped sqrt price, summed in walk order; a two-move path is
        # padded with zero moves, which add +0.0 to a fee >= 0
        sqrt_price = np.sqrt(np.clip(path, hour_lower[:, None], hour_upper[:, None]))
        moves = np.zeros((n, 4))
        moves[:, :path.shape[1] - 1] = np.abs(np.diff(sqrt_price, axis=1))
        moves = moves.tolist()
        liq, cash_col = [], []
        for k, (start, end) in enumerate(zip(bounds, bounds[1:])):
            if k:  # a reset: cash + value at the close buys the new band
                close = closes[h0 + start]
                budget = cash + position_value(liquidity, lower[k - 1], upper[k - 1], close)
                cash = 0.0
                liquidity = liquidity_for_budget(budget, close, lower[k], upper[k])
            liq.append(liquidity)
            rate = fee_rate * liquidity
            for d0, d1, d2, d3 in moves[start:end]:
                cash += rate * d0 + rate * d1 + rate * d2 + rate * d3
                cash_col.append(cash)
        # pass 3: the ledger of every hour of the chunk in one walk
        lvr, fee, dv, _, trace["value"][chunk] = lvr_over_path(
            Bands(hour_lower, hour_upper, np.repeat(liq, lengths)), path.T,
            fee_tier=fee_tier)
        action, gas = trace["action"][chunk], trace["gas"][chunk]
        action[starts[1:]], gas[starts[1:]] = tau, env.gas
        trace["fee"][chunk], trace["lvr"][chunk], trace["dv"][chunk] = fee, lvr, dv
        trace["reward"][chunk] = -gas + fee + (lvr if env.reward_mode == "hedged" else dv)
        trace["cash"][chunk] = cash_col
        trace["center_tick"][chunk] = np.repeat(centers, lengths)
    return trace


@dataclass(frozen=True)
class EWAConfig:
    n_widths: int = 10
    eta: float = 1.0
    t_re: int = 24

    def __post_init__(self):
        if self.n_widths < 1:
            raise ValueError(f"n_widths must be >= 1, got {self.n_widths}")
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.t_re < 1:
            raise ValueError(f"t_re must be >= 1, got {self.t_re}")


def ewa_weights(cumulative_rewards: Sequence[float], eta: float) -> np.ndarray:
    """Stable softmax of eta * cumulative rewards; sums to 1."""
    z = eta * np.asarray(cumulative_rewards, dtype=float)
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def _unit_bands(prices: Sequence[float], n: int, spacing: int) -> Bands:
    """The unit-budget reference bands of widths 1..n minted at each price:
    row i holds those minted at prices[i]. These are mint_band's steps,
    with the center tick snapped once per price rather than per width."""
    fields = np.empty((len(prices), n, 3))
    for i, p in enumerate(prices):
        center = snap_tick(price_to_tick(p), spacing)
        edges = [band_for_center(center, w, spacing) for w in range(1, n + 1)]
        fields[i] = [(pa, pb, liquidity_for_budget(1.0, p, pa, pb)) for pa, pb in edges]
    return Bands(*np.moveaxis(fields, -1, 0))


def run_ewa(candles: CandleSeries, offset: int, horizon: int,
            config: EWAConfig, env: EnvConfig) -> Tuple[HourTrace, np.ndarray]:
    """Replay the exponential-weights strategy over candles[offset:offset+horizon].

    The trigger is the literal periodic rule mod(t, t_re) == 0 for hours
    t = 1..horizon; decisions use close prices and rewards observed so
    far. Hour 0 performs a gas-free uniform initial split. The pool,
    fund size l0, gas per reallocation and intra-hour path model are the
    run's EnvConfig (its episode_length and reward_mode are not read).

    The references of every reallocation are minted up front, at the
    close before it, since none reads the ledger. One ledger walk then
    covers WALK_HOURS hours x widths, each hour on the references it
    holds. The budgets hold from one reallocation to the next, so each
    run of hours between reallocations (and chunk ends) takes its fee,
    lvr, dv and value as budgets @ the references' ledger columns at
    once; these stacked products equal the hour-by-hour ones bit for bit
    (a single gemv over the run's marks would not).

    Returns (the hours' trace, final weights); an hour's action is 1 on
    reallocation hours and 0 otherwise; t counts hours from the offset.
    """
    fee_tier = env.pool.fee_tier
    n, t_re = config.n_widths, config.t_re
    paths = _window_paths(candles, offset, horizon, env.path_model)
    closes = candles.close[offset:offset + horizon + 1]
    # row b: the references held from hour b * t_re on, minted at the close before it
    refs = _unit_bands(closes[:1].tolist() + closes[t_re - 1:horizon:t_re].tolist(), n,
                       env.pool.tick_spacing)
    # the references' values at the last close: what a reallocation spends
    marks = lvr_over_path(Bands(*(f[0] for f in refs)), closes[:1])[4]
    budgets = np.full(n, env.l0 / n)
    cash = 0.0
    cum_rewards = np.zeros(n)
    weights = np.full(n, 1.0 / n)
    trace = HourTrace(horizon)
    trace["t"][:] = np.arange(1, horizon + 1)
    trace["action"][t_re - 1::t_re] = 1
    trace["gas"][t_re - 1::t_re] = env.gas
    trace["close"][:] = closes[1:]
    fee_col, lvr_col, dv_col = trace["fee"], trace["lvr"], trace["dv"]

    for t in range(1, horizon + 1, WALK_HOURS):  # the chunk's first hour walks paths[t - 1]
        end = min(t + WALK_HOURS, horizon + 1)
        lvr, fee, dv, _, chunk_marks = lvr_over_path(
            Bands(*(f[np.arange(t, end) // t_re] for f in refs)),
            paths[t - 1:end - 1].T[:, :, None], fee_tier=fee_tier)
        ledger = np.stack((fee, lvr, dv), axis=1)  # per hour: per-reference fee, lvr, dv
        # row j: the per-reference rewards summed through the hour before t + j,
        # hour by hour
        cum_rewards = np.cumsum(np.vstack((cum_rewards, fee + lvr)), axis=0)
        # hours a..b-1 hold one set of budgets: a is a reallocation or the chunk's first hour
        starts = sorted({t, *range(t + (-t) % t_re, end, t_re)})
        for a, b in zip(starts, starts[1:] + [end]):
            if a % t_re == 0:
                weights = ewa_weights(cum_rewards[a - t], config.eta)
                budgets = (cash + float(budgets @ marks)) * weights
                cash = 0.0
            s, e, hours = a - t, b - t, slice(a - 1, b - 1)
            fee_col[hours], lvr_col[hours], dv_col[hours] = (ledger[s:e] @ budgets).T
            # cash, summed hour by hour from the cash carried in
            trace["cash"][hours] = np.cumsum(np.concatenate(([cash], fee_col[hours])))[1:]
            cash = float(trace["cash"][b - 2])
            marks = chunk_marks[e - 1]
            trace["value"][hours] = (budgets @ chunk_marks[s:e, :, None])[:, 0]
        cum_rewards = cum_rewards[-1]
    trace["reward"][:] = fee_col + lvr_col - trace["gas"]
    return trace, weights


# Benchmark defaults, keyed by (pool, period, l0). Pools are the two
# ETH stablecoin 0.3% pools, periods 1..4, fund sizes 250/500/1000.
TAU_DEFAULTS: Dict[Tuple[str, int, int], int] = {
    ("usdc", 1, 250): 6, ("usdc", 1, 500): 4, ("usdc", 1, 1000): 1,
    ("usdc", 2, 250): 5, ("usdc", 2, 500): 2, ("usdc", 2, 1000): 1,
    ("usdc", 3, 250): 6, ("usdc", 3, 500): 3, ("usdc", 3, 1000): 2,
    ("usdc", 4, 250): 4, ("usdc", 4, 500): 3, ("usdc", 4, 1000): 1,
    ("usdt", 1, 250): 6, ("usdt", 1, 500): 4, ("usdt", 1, 1000): 1,
    ("usdt", 2, 250): 5, ("usdt", 2, 500): 2, ("usdt", 2, 1000): 1,
    ("usdt", 3, 250): 10, ("usdt", 3, 500): 3, ("usdt", 3, 1000): 1,
    ("usdt", 4, 250): 4, ("usdt", 4, 500): 3, ("usdt", 4, 1000): 1,
}

EWA_DEFAULTS: Dict[Tuple[str, int, int], Tuple[int, float, int]] = {
    ("usdc", 1, 250): (10, 1.0, 21), ("usdc", 1, 500): (10, 1.0, 14),
    ("usdc", 1, 1000): (10, 1.0, 6),
    ("usdc", 2, 250): (10, 10.0, 24), ("usdc", 2, 500): (10, 10.0, 24),
    ("usdc", 2, 1000): (10, 10.0, 9),
    ("usdc", 3, 250): (10, 1.0, 22), ("usdc", 3, 500): (10, 4.0, 15),
    ("usdc", 3, 1000): (10, 1.0, 13),
    ("usdc", 4, 250): (10, 7.0, 24), ("usdc", 4, 500): (10, 1.0, 21),
    ("usdc", 4, 1000): (10, 1.0, 18),
    ("usdt", 1, 250): (10, 1.0, 21), ("usdt", 1, 500): (10, 1.0, 6),
    ("usdt", 1, 1000): (10, 1.0, 6),
    ("usdt", 2, 250): (10, 10.0, 24), ("usdt", 2, 500): (10, 10.0, 24),
    ("usdt", 2, 1000): (10, 10.0, 12),
    ("usdt", 3, 250): (10, 1.0, 22), ("usdt", 3, 500): (10, 7.0, 22),
    ("usdt", 3, 1000): (10, 10.0, 3),
    ("usdt", 4, 250): (10, 7.0, 21), ("usdt", 4, 500): (10, 1.0, 21),
    ("usdt", 4, 1000): (10, 1.0, 21),
}
