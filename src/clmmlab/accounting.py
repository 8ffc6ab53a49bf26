"""Hedged LP accounting: fees, rebalancing loss, hedge leg, mark-to-market.

The rebalancing portfolio holds x(p_t) base tokens and rebalances at every
sample point; relative to it the position loses

    lvr_step = V(p_{t+1}) - V(p_t) - x(p_t) * (p_{t+1} - p_t)
             = p_{t+1} * (x_{t+1} - x_t) + (y_{t+1} - y_t)

per move (the two forms are algebraically identical).  Because V is concave
with V'(p) = x(p), every increment is <= 0.  A short of x(p_t) base tokens
rebalanced on the same clock earns hedge_pnl = -sum x(p_t) dp, so over any
path

    sum dV = sum x(p_t) dp + lvr_total,   i.e.   hedge_pnl = lvr_total - sum dV.

A hedged position's economics therefore reduce to fees earned minus gas
minus |lvr|, with all directional exposure netted out.

lvr_over_path is the one ledger kernel: one walk returns the totals
(lvr, fee, dv, hedge) summed in walk order; a per-move ledger is the
kernel applied to path[i:i+2].  ordered_sum is the one way to total a
ledger column over hours.
"""

from math import sqrt
from typing import Iterable, Sequence, Tuple

from .amm import LiquidityPosition, _check_price


def lvr_over_path(
    position: LiquidityPosition, path: Sequence[float], fee_tier: float = 0.0
) -> Tuple[float, float, float, float]:
    """Ledger totals (lvr, fee, dv, hedge) over a sampled path.

    fee is zero when fee_tier=0; hedge is the short leg's -sum x dp.  Each
    price is validated once and the amm reserve formulas are inlined, so a
    point costs one sqrt.  A move earns rate * L * |s1 - s0| on the sqrt
    prices clamped to [sqrt(pa), sqrt(pb)]: only its part inside the band.
    Keep the arithmetic order: the totals equal the per-move walk in
    tests/oracles.py bit for bit, and run artifacts depend on that.
    """
    if len(path) == 0:
        raise ValueError("price path is empty")
    L = position.liquidity
    pa, pb = position.price_lower, position.price_upper
    sa, sb = sqrt(pa), sqrt(pb)
    inv_sb = 1.0 / sb
    x_below = L * (1.0 / sa - inv_sb)
    y_above = L * (sb - sa)
    rate_l = fee_tier / (1.0 - fee_tier) * L if fee_tier else 0.0

    lvr = fee = dv = hedge = 0.0
    for i, p1 in enumerate(path):
        _check_price(p1)
        if p1 <= pa:
            x1, y1, s1 = x_below, 0.0, sa
        elif p1 >= pb:
            x1, y1, s1 = 0.0, y_above, sb
        else:
            s1 = sqrt(p1)
            x1, y1 = L * (1.0 / s1 - inv_sb), L * (s1 - sa)
        if i:
            lvr += p1 * (x1 - x0) + (y1 - y0)
            dv += (p1 * x1 + y1) - (p0 * x0 + y0)
            hedge += -x0 * (p1 - p0)
            if fee_tier:
                fee += rate_l * abs(s1 - s0)
        p0, x0, y0, s0 = p1, x1, y1, s1
    return lvr, fee, dv, hedge


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0: sum() up to Python 3.11, which
    from 3.12 compensates and can change artifact totals in the last bit."""
    total = 0.0
    for v in values:
        total += v
    return total
