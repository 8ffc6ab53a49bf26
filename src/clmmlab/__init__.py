"""clmmlab: a desk-scale laboratory for concentrated-liquidity market making."""

from .amm import (
    LiquidityPosition,
    PoolSpec,
    Reserves,
    liquidity_for_budget,
    position_value,
    price_to_tick,
    reserves,
    snap_tick,
    tick_to_price,
)
from .accounting import lvr_over_path

__version__ = "0.1.0"
