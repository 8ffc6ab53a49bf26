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
  Its hours are env.HourRecords with center_tick and width 0, since it
  holds several bands at once.

Neither strategy's bands read the ledger: tau-reset's move when a close
leaves them, and EWA's references are minted at the close before each
periodic reallocation. So both walk a chunk of WALK_HOURS hours per
ledger call, each hour on the band(s) it holds.

Default hyperparameters for the benchmark pools, periods, and fund sizes
ship in TAU_DEFAULTS / EWA_DEFAULTS.
"""

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .accounting import lvr_over_path
from .amm import (band_for_center, liquidity_for_budget, position_value, price_to_tick,
                  snap_tick)
from .env import EnvConfig, HourRecord, hour_paths
from .marketdata import Candle

# hours in one ledger walk at most: the walk's arrays stay per chunk of
# hours, however long the run
WALK_HOURS = 256


class Bands(NamedTuple):
    """A stack of bands: a position's fields as arrays, which
    lvr_over_path walks all at once."""

    price_lower: np.ndarray
    price_upper: np.ndarray
    liquidity: np.ndarray


def _window_paths(candles: Sequence[Candle], offset: int, horizon: int,
                  path_model: str) -> np.ndarray:
    """hour_paths of the hours candles[offset:offset+horizon] elapse."""
    if offset < 0 or offset + horizon >= len(candles):
        raise ValueError(
            f"need candles through index {offset + horizon}, have {len(candles)}"
        )
    return hour_paths(candles[offset:offset + horizon + 1], path_model)


def run_tau_reset(candles: Sequence[Candle], offset: int, horizon: int, tau: int,
                  env: EnvConfig) -> List[HourRecord]:
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
    on its own band.
    """
    if not 1 <= tau <= env.n_actions:
        raise ValueError(f"tau must be in 1..n_actions={env.n_actions}, got {tau}")
    paths = _window_paths(candles, offset, horizon, env.path_model)
    closes = [c.close for c in candles[offset:offset + horizon + 1]]
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
    records: List[HourRecord] = []
    for h0 in range(0, horizon, WALK_HOURS):
        n = min(WALK_HOURS, horizon - h0)
        # pass 1: the chunk's bands, one per segment between resets
        starts, centers, lower, upper = [0], [center], [pa], [pb]
        for h, close in enumerate(closes[h0:h0 + n]):
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
        path = paths[h0:h0 + n]
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
        lvr, fee, dv, _, value = lvr_over_path(
            Bands(hour_lower, hour_upper, np.repeat(liq, lengths)), path.T,
            fee_tier=fee_tier)
        action, gas = [0] * n, [0.0] * n
        for start in starts[1:]:
            action[start], gas[start] = tau, env.gas
        reward = -np.array(gas) + fee + (lvr if env.reward_mode == "hedged" else dv)
        # tuple.__new__ is HourRecord._make without its Python frame
        records += map(tuple.__new__, repeat(HourRecord), zip(
            range(offset + h0 + 1, offset + h0 + n + 1), action, fee.tolist(),
            lvr.tolist(), gas, dv.tolist(), reward.tolist(), cash_col,
            np.repeat(centers, lengths).tolist(), repeat(tau), value.tolist(),
            closes[h0 + 1:h0 + n + 1]))
    return records


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


def run_ewa(candles: Sequence[Candle], offset: int, horizon: int,
            config: EWAConfig, env: EnvConfig):
    """Replay the exponential-weights strategy over candles[offset:offset+horizon].

    The trigger is the literal periodic rule mod(t, t_re) == 0 for hours
    t = 1..horizon; decisions use close prices and rewards observed so
    far. Hour 0 performs a gas-free uniform initial split. The pool,
    fund size l0, gas per reallocation and intra-hour path model are the
    run's EnvConfig (its episode_length and reward_mode are not read).

    The references of every reallocation are minted up front, at the
    close before it, since none reads the ledger. One ledger walk then
    covers WALK_HOURS hours x widths, each hour on the references it
    holds, and each hour's totals and value are budgets @ the
    references' ledger columns, hour by hour.

    Returns (per-hour records, final weights); a record's action is 1 on
    reallocation hours and 0 otherwise.
    """
    fee_tier = env.pool.fee_tier
    n, t_re = config.n_widths, config.t_re
    paths = _window_paths(candles, offset, horizon, env.path_model)
    # row b: the references held from hour b * t_re on
    refs = _unit_bands([candles[offset].close]
                       + [candles[offset + t - 1].close
                          for t in range(t_re, horizon + 1, t_re)],
                       n, env.pool.tick_spacing)
    # the references' values at the last close: what a reallocation spends
    marks = lvr_over_path(Bands(*(f[0] for f in refs)),
                          np.array([candles[offset].close]))[4]
    budgets = np.full(n, env.l0 / n)
    cash = 0.0
    cum_rewards = np.zeros(n)
    weights = np.full(n, 1.0 / n)
    records: List[HourRecord] = []

    for t in range(1, horizon + 1, WALK_HOURS):  # the chunk's first hour walks paths[t - 1]
        end = min(t + WALK_HOURS, horizon + 1)
        block = np.arange(t, end) // t_re
        lvr, fee, dv, _, chunk_marks = lvr_over_path(
            Bands(*(f[block] for f in refs)), paths[t - 1:end - 1].T[:, :, None],
            fee_tier=fee_tier)
        ledger = np.stack((fee, lvr, dv), axis=1)  # per hour: per-reference fee, lvr, dv
        # row j: the per-reference rewards summed through the hour before t + j,
        # hour by hour
        cum_rewards = np.cumsum(np.vstack((cum_rewards, fee + lvr)), axis=0)
        for j in range(end - t):
            gas_paid = 0.0
            action = 0
            if (t + j) % t_re == 0:
                weights = ewa_weights(cum_rewards[j], config.eta)
                wealth = cash + float(budgets @ marks)
                budgets = wealth * weights
                cash = 0.0
                gas_paid = env.gas
                action = 1
            fee_j, lvr_j, dv_j = (ledger[j] @ budgets).tolist()
            cash += fee_j
            marks = chunk_marks[j]
            value = float(budgets @ marks)
            records.append(HourRecord(t + j, action, fee_j, lvr_j, gas_paid, dv_j,
                                      fee_j + lvr_j - gas_paid, cash, 0, 0, value,
                                      candles[offset + t + j].close))
        cum_rewards = cum_rewards[-1]
    return records, weights


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
