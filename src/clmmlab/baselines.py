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
  The references stay put between reallocations, so each reallocation
  block is one ledger walk of all N references over all its hours at
  once; it yields the per-width rewards, the hours' totals and their
  closing values. Its hours are env.HourRecords with center_tick and
  width 0, since it holds several bands at once.

Default hyperparameters for the benchmark pools, periods, and fund sizes
ship in TAU_DEFAULTS / EWA_DEFAULTS.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .accounting import lvr_over_path
from .amm import LiquidityPosition, mint_band
from .env import EnvConfig, HourRecord, LPEnv, hour_paths
from .marketdata import Candle


def policy_tau_reset(tau: int, position: LiquidityPosition, close: float) -> int:
    """Reallocate to width tau when the price sits outside the interval."""
    if close < position.price_lower or close > position.price_upper:
        return tau
    return 0


def run_tau_reset(env: LPEnv, tau: int, offset: int) -> List[HourRecord]:
    """Roll tau-reset through one episode opened at width tau; returns its hours."""
    env.reset(offset, tau)
    records: List[HourRecord] = []
    done = False
    while not done:
        close = env.candles[env.t].close
        a = policy_tau_reset(tau, env.position, close)
        _, _, done, record = env.step(a)
        records.append(record)
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


# hours in one EWA ledger walk at most: memory stays per block even when
# t_re spans the whole run
WALK_HOURS = 24


class Bands(NamedTuple):
    """A stack of bands: a position's fields as arrays, which
    lvr_over_path walks all at once."""

    price_lower: np.ndarray
    price_upper: np.ndarray
    liquidity: np.ndarray


def _unit_bands(price: float, n: int, spacing: int) -> Bands:
    """The unit-budget reference bands of widths 1..n minted at price."""
    refs = [mint_band(price, w, spacing, 1.0)[1] for w in range(1, n + 1)]
    return Bands(*(np.array([getattr(r, f) for r in refs]) for f in Bands._fields))


def run_ewa(candles: Sequence[Candle], offset: int, horizon: int,
            config: EWAConfig, env: EnvConfig):
    """Replay the exponential-weights strategy over candles[offset:offset+horizon].

    The trigger is the literal periodic rule mod(t, t_re) == 0 for hours
    t = 1..horizon; decisions use close prices and rewards observed so
    far. Hour 0 performs a gas-free uniform initial split. The pool,
    fund size l0, gas per reallocation and intra-hour path model are the
    run's EnvConfig (its episode_length and reward_mode are not read).

    Hours run a reallocation block at a time: one ledger walk covers the
    block's hours x widths (WALK_HOURS hours at most), and each hour's
    totals and value are then budgets @ the references' ledger columns,
    hour by hour.

    Returns (per-hour records, final weights); a record's action is 1 on
    reallocation hours and 0 otherwise.
    """
    fee_tier = env.pool.fee_tier
    n, t_re = config.n_widths, config.t_re
    if offset < 0 or offset + horizon >= len(candles):
        raise ValueError(
            f"need candles through index {offset + horizon}, have {len(candles)}"
        )
    paths = hour_paths(candles[offset:offset + horizon + 1], env.path_model)
    spacing = env.pool.tick_spacing
    bands = _unit_bands(candles[offset].close, n, spacing)
    # the references' values at the last close: what a reallocation spends
    marks = lvr_over_path(bands, np.array([candles[offset].close]))[4]
    budgets = np.full(n, env.l0 / n)
    cash = 0.0
    cum_rewards = np.zeros(n)
    weights = np.full(n, 1.0 / n)
    records: List[HourRecord] = []

    t = 1  # the block's first hour walks paths[t - 1]
    while t <= horizon:
        gas_paid = 0.0
        action = 0
        if t % t_re == 0:
            prev_close = candles[offset + t - 1].close
            weights = ewa_weights(cum_rewards, config.eta)
            wealth = cash + float(budgets @ marks)
            bands = _unit_bands(prev_close, n, spacing)
            budgets = wealth * weights
            cash = 0.0
            gas_paid = env.gas
            action = 1
        # the next block's first hour, or fewer hours to bound the walk's arrays
        end = min((t // t_re + 1) * t_re, t + WALK_HOURS, horizon + 1)
        lvr, fee, dv, _, marks = lvr_over_path(
            bands, paths[t - 1:end - 1].T[:, :, None], fee_tier=fee_tier)
        for rewards in fee + lvr:
            cum_rewards += rewards
        ledger = np.stack((fee, lvr, dv), axis=1)  # per hour: per-reference fee, lvr, dv
        for j in range(end - t):
            fee_j, lvr_j, dv_j = (ledger[j] @ budgets).tolist()
            cash += fee_j
            value = float(budgets @ marks[j])
            records.append(HourRecord(t + j, action, fee_j, lvr_j, gas_paid, dv_j,
                                      fee_j + lvr_j - gas_paid, cash, 0, 0, value,
                                      candles[offset + t + j].close))
            gas_paid = 0.0
            action = 0
        marks = marks[-1]
        t = end
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
