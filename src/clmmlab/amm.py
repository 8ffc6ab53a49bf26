"""Concentrated-liquidity pool math on decimal-adjusted float prices.

Prices live on a geometric tick grid, price(i) = 1.0001**i.  A position with
liquidity L on the band [pa, pb] holds reserves

    s = sqrt(min(max(p, pa), pb)):   x = L*(1/s - 1/sqrt(pb)),  y = L*(s - sqrt(pa))

(below the band it is all base, x = L*(1/sqrt(pa) - 1/sqrt(pb)) and y = 0;
above it all quote) and is worth V(p) = p*x + y in quote units.  This
clamp-then-sqrt form is the one holdings formula: reserves, position_value
and liquidity_for_budget compute it here, and accounting.lvr_over_path
walks the same steps inline.

Fees accrue on the part of a price move that lies inside the band: the
trader pays delta/(1-delta) of the swapped amount, which in quote units
works out to

    fee = delta/(1-delta) * L * |sqrt(p2) - sqrt(p1)|

on the clipped segment (accounting.lvr_over_path accrues it).  This form
telescopes over any refinement of the move, so fee accrual is independent of
how finely a path is sampled.

Everything here is 64-bit float; we are after research-grade accuracy on
human-readable prices, not wei-exact chain state.
"""

import math
from dataclasses import dataclass
from typing import Tuple

TICK_BASE = 1.0001
LOG_TICK_BASE = math.log(TICK_BASE)


def tick_to_price(tick: float) -> float:
    """Price of a (possibly fractional) tick index."""
    return math.exp(tick * LOG_TICK_BASE)


def price_to_tick(price: float) -> float:
    """Real-valued tick index of a price. Inverse of tick_to_price."""
    if price <= 0.0:
        raise ValueError(f"price must be positive, got {price}")
    return math.log(price) / LOG_TICK_BASE


def _round_half_away(x: float) -> int:
    # round() does banker's rounding; the grid wants half-away-from-zero
    if x >= 0.0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def snap_tick(tick: float, spacing: int) -> int:
    """Nearest multiple of `spacing`, ties rounding away from zero."""
    if spacing < 1:
        raise ValueError(f"tick spacing must be >= 1, got {spacing}")
    return spacing * _round_half_away(tick / spacing)


@dataclass(frozen=True)
class PoolSpec:
    """Static pool parameters.

    fee_tier is the swap fee delta as a fraction, tick_spacing the coarseness
    of usable ticks.
    """

    fee_tier: float = 0.003
    tick_spacing: int = 60

    def __post_init__(self):
        if not 0.0 < self.fee_tier < 1.0:
            raise ValueError(f"fee_tier must be in (0, 1), got {self.fee_tier}")
        if self.tick_spacing < 1:
            raise ValueError(f"tick_spacing must be >= 1, got {self.tick_spacing}")


@dataclass(frozen=True)
class Reserves:
    x: float  # base token (the volatile leg)
    y: float  # quote token


@dataclass(frozen=True)
class LiquidityPosition:
    """Liquidity L active on the price band [price_lower, price_upper].

    The env, the baselines and the toy task mint tick-aligned bands
    (mint_band); the math itself holds on any band.
    """

    price_lower: float
    price_upper: float
    liquidity: float

    def __post_init__(self):
        if self.price_lower <= 0.0:
            raise ValueError(f"price_lower must be positive, got {self.price_lower}")
        if self.price_upper <= self.price_lower:
            raise ValueError(
                f"need price_lower < price_upper, got [{self.price_lower}, {self.price_upper}]"
            )
        if not math.isfinite(self.price_upper):
            raise ValueError(f"price_upper must be finite, got {self.price_upper}")
        if not 0.0 <= self.liquidity < math.inf:
            raise ValueError(f"liquidity must be finite and >= 0, got {self.liquidity}")

    def reserves(self, price: float) -> Reserves:
        return reserves(self.liquidity, self.price_lower, self.price_upper, price)

    def value(self, price: float) -> float:
        return position_value(self.liquidity, self.price_lower, self.price_upper, price)


def _check_price(p: float) -> None:
    if p <= 0.0 or not math.isfinite(p):
        raise ValueError(f"price must be positive and finite, got {p}")


def _holdings(liquidity: float, price_lower: float, price_upper: float,
              price: float) -> Tuple[float, float]:
    # (x, y) by the module's one clamp-then-sqrt formula; builds no Reserves
    _check_price(price)
    s = math.sqrt(price_lower if price <= price_lower
                  else price_upper if price >= price_upper else price)
    return (liquidity * (1.0 / s - 1.0 / math.sqrt(price_upper)),
            liquidity * (s - math.sqrt(price_lower)))


def reserves(liquidity: float, price_lower: float, price_upper: float, price: float) -> Reserves:
    """Token amounts backing the position at the given price."""
    return Reserves(*_holdings(liquidity, price_lower, price_upper, price))


def position_value(liquidity: float, price_lower: float, price_upper: float, price: float) -> float:
    """Mark-to-market value p*x + y in quote units."""
    x, y = _holdings(liquidity, price_lower, price_upper, price)
    return price * x + y


def liquidity_for_budget(
    budget: float, price: float, price_lower: float, price_upper: float
) -> float:
    """Liquidity bought by `budget` quote units at the current price.

    V is linear in L, so this is the budget over the value of one unit of
    liquidity; the resulting position is worth the budget at `price`.
    """
    if budget < 0.0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return budget / position_value(1.0, price_lower, price_upper, price)


def band_for_center(center_tick: int, width: int, spacing: int) -> Tuple[float, float]:
    """Price bounds of a width-w band of tick intervals around a center tick."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if center_tick % spacing:
        raise ValueError(f"center tick {center_tick} not a multiple of spacing {spacing}")
    half = width * spacing
    return tick_to_price(center_tick - half), tick_to_price(center_tick + half)


def mint_band(price: float, width: int, spacing: int, budget: float
              ) -> Tuple[int, LiquidityPosition]:
    """(center tick, position) of the width-w band around price's snapped
    tick, holding the liquidity that `budget` quote units buy at `price`."""
    center = snap_tick(price_to_tick(price), spacing)
    pa, pb = band_for_center(center, width, spacing)
    return center, LiquidityPosition(pa, pb, liquidity_for_budget(budget, price, pa, pb))
