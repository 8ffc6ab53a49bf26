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
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .amm import LiquidityPosition, fee_one_move


@dataclass(frozen=True)
class LedgerStep:
    """Accounting for one price move p_before -> p_after."""

    p_before: float
    p_after: float
    fee: float
    lvr: float          # non-positive up to float noise
    hedge_pnl: float    # -x(p_before) * (p_after - p_before)
    value_change: float


def lvr_over_path(
    position: LiquidityPosition, path: Sequence[float], fee_tier: float = 0.0
) -> Tuple[float, List[LedgerStep]]:
    """Per-move ledger over a sampled path.

    Returns (lvr_total, steps).  Fees are included per move when a fee tier
    is given; fee_tier=0 leaves them at zero, so the same walk serves both
    pure-LVR queries and full accrual.
    """
    if len(path) == 0:
        raise ValueError("price path is empty")
    L = position.liquidity
    pa, pb = position.price_lower, position.price_upper
    steps = []
    lvr_total = 0.0
    r_prev = position.reserves(path[0])
    for p_before, p_after in zip(path, path[1:]):
        r_next = position.reserves(p_after)
        lvr = p_after * (r_next.x - r_prev.x) + (r_next.y - r_prev.y)
        dv = (p_after * r_next.x + r_next.y) - (p_before * r_prev.x + r_prev.y)
        hedge = -r_prev.x * (p_after - p_before)
        fee = fee_one_move(L, pa, pb, p_before, p_after, fee_tier) if fee_tier else 0.0
        steps.append(LedgerStep(p_before, p_after, fee, lvr, hedge, dv))
        lvr_total += lvr
        r_prev = r_next
    return lvr_total, steps

