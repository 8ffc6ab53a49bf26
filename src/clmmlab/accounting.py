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
(lvr, fee, dv, hedge) summed in walk order, plus the value at the path's
last point; a per-move ledger is the kernel applied to path[i:i+2].  The
walk runs on Python floats (one band, one hour) or on numpy arrays (a
stack of bands against a batch of hours walked in lockstep).
ordered_sum is the one way to total a ledger column over hours.
"""

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

from .amm import LiquidityPosition, _check_price


def lvr_over_path(
    position: LiquidityPosition, path: Sequence[float], fee_tier: float = 0.0
) -> Tuple[float, float, float, float, float]:
    """Ledger totals (lvr, fee, dv, hedge) over a sampled path, and the
    position's value at the path's last point.

    fee is zero when fee_tier=0; hedge is the short leg's -sum x dp.  A
    point costs one sqrt: amm's one clamp-then-sqrt holdings formula (the
    price clamped to [pa, pb] gives both reserves through the in-band
    formulas), written out inline because a call per point would cost the
    walk.  A move earns rate * L * |s1 - s0| on the clamped sqrt prices:
    only its part inside the band.

    path is a sequence of floats, or an array whose first axis is the
    points; the position's fields may then be arrays too, and the results
    take the broadcast shape of one point against the band (an (hours, 1)
    slice against N bands gives (hours, N) results; the totals of a path
    without a move stay 0.0).  Every price is checked, and the first bad
    one in walk order (each hour's points in turn) raises.  Keep the
    arithmetic order: the results equal the walks in tests/oracles.py bit
    for bit on floats and arrays alike, and run artifacts depend on that.
    baselines.run_tau_reset repeats the fee arithmetic to carry its budget
    before it walks, so a change to it must change both.
    """
    if len(path) == 0:
        raise ValueError("price path is empty")
    arrays = isinstance(path, np.ndarray)
    inf = math.inf
    if arrays and not ((path > 0.0) & (path < inf)).all():
        walk_order = np.moveaxis(path, 0, -1)
        _check_price(float(walk_order[~((walk_order > 0.0) & (walk_order < inf))][0]))
    sqrt = np.sqrt if arrays else math.sqrt
    L = position.liquidity
    pa, pb = position.price_lower, position.price_upper
    sa, sb = sqrt(pa), sqrt(pb)
    inv_sb = 1.0 / sb
    rate_l = fee_tier / (1.0 - fee_tier) * L

    lvr = fee = dv = hedge = 0.0
    for i, p1 in enumerate(path):
        # clamp-then-sqrt, the one step that depends on the input type
        if arrays:
            s1 = sqrt(np.clip(p1, pa, pb))
        else:
            if not 0.0 < p1 < inf:  # checked inline: a call per point costs ~10%
                _check_price(p1)
            s1 = sqrt(pa if p1 <= pa else pb if p1 >= pb else p1)
        x1, y1 = L * (1.0 / s1 - inv_sb), L * (s1 - sa)
        if i:
            lvr += p1 * (x1 - x0) + (y1 - y0)
            dv += (p1 * x1 + y1) - (p0 * x0 + y0)
            hedge += -x0 * (p1 - p0)
            fee += rate_l * abs(s1 - s0)
        p0, x0, y0, s0 = p1, x1, y1, s1
    return lvr, fee, dv, hedge, p0 * x0 + y0


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0: sum() up to Python 3.11, which
    from 3.12 compensates and can change artifact totals in the last bit.

    One np.add.accumulate, which adds in order (np.sum is pairwise); its
    sum differs from the loop from 0.0 in tests/oracles.py only as -0.0
    for a column of -0.0s, which + 0.0 makes 0.0."""
    if not isinstance(values, np.ndarray):
        values = np.fromiter(values, float)
    return float(np.add.accumulate(values)[-1]) + 0.0 if len(values) else 0.0
