"""Hourly liquidity-provision environment.

One step = one hour. The agent observes a row of the feature matrix it was
given plus its account (cash c, center tick m, width w, position value l);
without a matrix the env observes nothing (None) and only keeps the
ledger. It picks an action in {0..n_actions}: 0 holds the
current interval, a >= 1 reallocates the whole budget c + l into a fresh
interval of half-width a tick-spacings centered on the snapped current
tick. The hour then elapses along an intra-hour price path; fees, LVR and
value changes accrue on the (possibly new) position.

Rewards:
    hedged    r = -gas * [a != 0] + fee + lvr        (lvr <= 0)
    unhedged  r = -gas * [a != 0] + fee + dv

Cash never compounds into the position while holding: fees pile up in c
and are reinvested only at the next reallocation. Gas is charged in the
reward, not deducted from the invested budget, so the episode PnL
decomposes exactly as sum(fee) - gas * n_realloc + sum(lvr or dv).
Each step returns the hour as an HourRecord, a row of trace.csv.

Intra-hour path models:
    candle      close_t -> open -> low -> high -> close for an up candle
                (close >= open), high before low for a down candle
    open-close  close_t -> open -> close
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .accounting import lvr_over_path
from .amm import LiquidityPosition, PoolSpec, mint_band
from .features import N_FEATURES, WARMUP_CANDLES, assemble_observation
from .marketdata import Candle

PATH_MODELS = ("candle", "open-close")
REWARD_MODES = ("hedged", "unhedged")

# One hour of a replay, after it elapsed: t is the candle the hour ends on
# (hours since the offset for EWA), where cash, value and close are marked.
HourRecord = NamedTuple("HourRecord", [
    ("t", int), ("action", int), ("fee", float), ("lvr", float), ("gas", float),
    ("dv", float), ("reward", float), ("cash", float), ("center_tick", int),
    ("width", int), ("value", float), ("close", float)])
TRACE_CSV_HEADER = list(HourRecord._fields)


def check_path_model(model: str) -> None:
    if model not in PATH_MODELS:
        raise ValueError(f"path_model must be one of {PATH_MODELS}, got {model!r}")


def hour_paths(candles: Sequence[Candle], model: str) -> np.ndarray:
    """Price points visited while each hour of the series elapses.

    Row t is the hour from candles[t] to candles[t + 1]: it starts at
    candles[t].close, and the candle model walks open -> low -> high ->
    close for an up candle and open -> high -> low -> close for a down
    candle; open-close walks open -> close.  Any other model raises
    ValueError.
    """
    check_path_model(model)
    # a row per field: numpy converts four flat lists of floats faster
    # than one list of 4-tuples
    o, h, l, c = np.array([[k.open for k in candles], [k.high for k in candles],
                           [k.low for k in candles], [k.close for k in candles]],
                          dtype=float)
    o, h, l, c, prev = o[1:], h[1:], l[1:], c[1:], c[:-1]
    if model == "candle":
        up = c >= o
        return np.stack((prev, o, np.where(up, l, h), np.where(up, h, l), c), axis=1)
    return np.stack((prev, o, c), axis=1)


@dataclass(frozen=True)
class EnvConfig:
    pool: PoolSpec = field(default_factory=PoolSpec)
    l0: float = 250.0
    n_actions: int = 10
    gas: float = 1.0
    path_model: str = "candle"
    reward_mode: str = "hedged"
    episode_length: int = 1000

    def __post_init__(self):
        if not 0.0 < self.l0 < math.inf:
            raise ValueError(f"l0 must be positive and finite, got {self.l0}")
        if self.n_actions < 1:
            raise ValueError(f"n_actions must be >= 1, got {self.n_actions}")
        if self.episode_length < 1:
            raise ValueError(f"episode_length must be >= 1, got {self.episode_length}")
        if not 0.0 <= self.gas < math.inf:
            raise ValueError(f"gas must be finite and >= 0, got {self.gas}")
        check_path_model(self.path_model)
        if self.reward_mode not in REWARD_MODES:
            raise ValueError(f"reward_mode must be one of {REWARD_MODES}, got {self.reward_mode!r}")


class LPEnv:
    """Single-position liquidity provision over a fixed candle series.

    The candle array is shared and never mutated; every episode is a
    deterministic function of (config, offset, action sequence).
    `features` holds one row per candle, already scaled: observations are
    its rows plus the account block, and None without it. The first
    offset follows from that: an episode that observes features starts
    after their WARMUP_CANDLES-candle warm-up, one without them at 0.
    """

    def __init__(
        self,
        candles: Sequence[Candle],
        config: Optional[EnvConfig] = None,
        features: Optional[np.ndarray] = None,
    ):
        self.config = config or EnvConfig()
        self.candles = list(candles)
        self.features = features
        if len(self.candles) < self.min_offset() + 2:
            raise ValueError(
                f"need at least warmup + 2 = {self.min_offset() + 2} candles, "
                f"got {len(self.candles)}"
            )
        if features is not None and features.shape != (len(self.candles), N_FEATURES):
            raise ValueError(
                f"feature matrix shape {features.shape} does not match "
                f"{len(self.candles)} candles"
            )
        self._paths = hour_paths(self.candles, self.config.path_model)
        self._t = -1
        self._steps_taken = 0
        self.done = True
        self.cash = 0.0
        self.position: Optional[LiquidityPosition] = None
        self.center_tick = 0
        self.width = 0
        # the position's value at the current hour's close
        self.value = 0.0

    # -- episode plumbing ------------------------------------------------

    def min_offset(self) -> int:
        return 0 if self.features is None else WARMUP_CANDLES

    def max_offset(self) -> int:
        """Largest reset offset with a full episode of data after it."""
        return len(self.candles) - 1 - self.config.episode_length

    def sample_offset(self, rng: np.random.Generator) -> int:
        lo, hi = self.min_offset(), self.max_offset()
        if hi < lo:
            raise ValueError("series too short for a full episode after warmup")
        return int(rng.integers(lo, hi + 1))

    def reset(self, offset: int, width: int = 1) -> Optional[np.ndarray]:
        if offset < self.min_offset():
            raise ValueError(
                f"offset {offset} is before the first offset {self.min_offset()}"
            )
        if offset > self.max_offset():
            raise ValueError(
                f"offset {offset} leaves fewer than episode_length="
                f"{self.config.episode_length} hours of data"
            )
        close = self.candles[offset].close
        self._open_position(close, width=width, budget=self.config.l0)
        self._t = offset
        self._steps_taken = 0
        self.done = False
        self.cash = 0.0
        self.value = self.position.value(close)
        return self._observe()

    def _open_position(self, price: float, width: int, budget: float) -> None:
        self.center_tick, self.position = mint_band(
            price, width, self.config.pool.tick_spacing, budget)
        self.width = width

    # -- state access ----------------------------------------------------

    @property
    def t(self) -> int:
        return self._t

    def _observe(self) -> Optional[np.ndarray]:
        """The observation at the current hour."""
        if self.features is None:
            return None
        close = self.candles[self._t].close
        return assemble_observation(
            self.features[self._t],
            cash=self.cash,
            center_tick=self.center_tick,
            width=self.width,
            value=self.value,
            l0=self.config.l0,
            close=close,
            tick_spacing=self.config.pool.tick_spacing,
            n_actions=self.config.n_actions,
        )

    # -- dynamics ----------------------------------------------------------

    def step(self, action: int) -> Tuple[Optional[np.ndarray], float, bool, HourRecord]:
        if self.done:
            raise RuntimeError("episode is done; call reset() first")
        action = int(action)
        if action < 0 or action > self.config.n_actions:
            raise ValueError(
                f"action {action} outside 0..{self.config.n_actions}"
            )
        t = self._t
        close_t = self.candles[t].close
        gas = 0.0
        if action >= 1:
            self._open_position(close_t, width=action, budget=self.cash + self.value)
            self.cash = 0.0
            gas = self.config.gas

        lvr, fee, dv, _, self.value = lvr_over_path(
            self.position, self._paths[t].tolist(), fee_tier=self.config.pool.fee_tier)

        if self.config.reward_mode == "hedged":
            reward = -gas + fee + lvr
        else:
            reward = -gas + fee + dv

        self.cash += fee
        self._t = t + 1
        self._steps_taken += 1
        self.done = self._steps_taken >= self.config.episode_length
        # positional: keyword arguments double the cost of building a record
        record = HourRecord(self._t, action, fee, lvr, gas, dv, reward, self.cash,
                            self.center_tick, self.width, self.value,
                            self.candles[t + 1].close)
        return self._observe(), reward, self.done, record
