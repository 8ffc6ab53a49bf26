"""Independent brute-force oracles used by the test suite.

Everything here is written directly from the defining formulas, on purpose
without importing the implementation's fee/lvr kernel, so that agreement
between the two is evidence rather than tautology. The branchy holdings
(reserves_oracle, value_oracle, liquidity_for_budget_oracle) are
clmmlab.amm's formulas as they stood before its one clamp-then-sqrt form
replaced a branch per price region. The per-move ledger
walker (LedgerStep, lvr_over_path, fee_one_move, fee_over_path) is the
scalar code the kernel replaced; it shares only the price check and the
reserve formulas of clmmlab.amm. The branchy totals walk and the
per-candle hour path are the float-only kernel and path builder that the
one walk body and env.hour_paths replaced. The learner oracles share only the
parameter container, the Adam constants and the error types with
clmmlab.nets (the four-call update also reads the replay buffer's arrays
and the discount). The dueling net is there twice: in textbook order
(forward_all, loss_and_gradients), which nets matches within rounding, and
as nets' affine arithmetic on fresh arrays (affine_forward,
affine_loss_and_gradients), which the four-call update runs on and nets
matches bit for bit. The per-row feature scaler shares only the FeatureScaler
fields. The two-walk EWA replay runs on the oracle ledger and pins
down the budgets x references rewrite of run_ewa; the per-width replay
is run_ewa as it stood before it walked a block of hours at once, and
pins down that rewrite bit for bit; the per-hour replay is run_ewa as it
stood before it took a reallocation period at a time, and pins down that
rewrite bit for bit. The loop total is accounting.ordered_sum before it
ran as one np.add.accumulate. The env tau-reset replay is
run_tau_reset as it stood before it walked a chunk of hours at once, one
LPEnv step an hour, and pins down that rewrite bit for bit. The dict-row
run-dir writer and the four-sum drift study at the end are the code that
env.HourRecord, report.write_csv_rows and the run_backtest drift study
replaced; they run on the package's env and ledger and check only the
writing and the totals. The Candle-list market data (a validated bar
object per hour, its loader, writer and GBM synthesis) is
clmmlab.marketdata as it stood before the series became columns; it
shares only the constants and the error type. The loop indicators at the very end are the
per-element code that clmmlab.indicators' array passes replaced; they share
only sma with the package.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from clmmlab.amm import (LiquidityPosition, PoolSpec, _check_price, band_for_center, mint_band,
                         liquidity_for_budget, price_to_tick, snap_tick)
from clmmlab.backtest import EQUILIBRIUM_POOL
from clmmlab.accounting import lvr_over_path as ledger_walk
from clmmlab.baselines import WALK_HOURS, Bands, EWAConfig, _unit_bands, _window_paths, ewa_weights
from clmmlab.env import (TRACE_CSV_HEADER, EnvConfig, HourRecord, LPEnv,
                         check_path_model)
from clmmlab.indicators import sma
from clmmlab.marketdata import (CANDLE_CSV_HEADER, DEFAULT_SYNTH_START, HOUR, Candle,
                                DataValidationError, synth_gbm)
from clmmlab.report import REPORT_CSV_HEADER
from clmmlab.dqn import GAMMA
from clmmlab.nets import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, CheckpointError,
                          NetworkParams, TrainingDiverged)


def micro_fee_oracle(liquidity, price_lower, price_upper, path, fee_tier, n_micro=10_000):
    """Fee over a path by subdividing every move into n_micro sub-moves.

    Each sub-move is clamped to the band and charged
    fee_tier/(1-fee_tier) * L * |sqrt(b) - sqrt(a)| on the clamped piece.
    """
    rate = fee_tier / (1.0 - fee_tier)
    total = 0.0
    path = list(path)
    for p0, p1 in zip(path, path[1:]):
        grid = np.linspace(p0, p1, n_micro + 1)
        clamped = np.clip(grid, price_lower, price_upper)
        s = np.sqrt(clamped)
        total += rate * liquidity * float(np.sum(np.abs(np.diff(s))))
    return total


def reserves_oracle(liquidity, price_lower, price_upper, p):
    sa, sb = math.sqrt(price_lower), math.sqrt(price_upper)
    if p <= price_lower:
        return liquidity * (1.0 / sa - 1.0 / sb), 0.0
    if p >= price_upper:
        return 0.0, liquidity * (sb - sa)
    sp = math.sqrt(p)
    return liquidity * (1.0 / sp - 1.0 / sb), liquidity * (sp - sa)


def value_oracle(liquidity, price_lower, price_upper, p):
    x, y = reserves_oracle(liquidity, price_lower, price_upper, p)
    return p * x + y


def liquidity_for_budget_oracle(budget, p, price_lower, price_upper):
    """Inverts V(p) = budget with one hand-expanded denominator per branch."""
    if budget < 0.0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    _check_price(p)
    sa, sb = math.sqrt(price_lower), math.sqrt(price_upper)
    if p <= price_lower:
        denom = p * (1.0 / sa - 1.0 / sb)
    elif p >= price_upper:
        denom = sb - sa
    else:
        sp = math.sqrt(p)
        denom = p * (1.0 / sp - 1.0 / sb) + (sp - sa)
    return budget / denom


def lvr_vform_oracle(liquidity, price_lower, price_upper, path):
    """LVR via the mark-to-market form sum V' - V - x*dp."""
    total = 0.0
    for p0, p1 in zip(path, path[1:]):
        x0, _ = reserves_oracle(liquidity, price_lower, price_upper, p0)
        total += (
            value_oracle(liquidity, price_lower, price_upper, p1)
            - value_oracle(liquidity, price_lower, price_upper, p0)
            - x0 * (p1 - p0)
        )
    return total


# ---------------------------------------------------------- per-move ledger
#
# The ledger as it stood before the totals kernel: one LedgerStep per move,
# reserves from amm.reserves, fees from fee_one_move. Callers summed the
# steps with sum(), so ledger_totals reproduces their totals exactly.


def fee_one_move(
    liquidity: float,
    price_lower: float,
    price_upper: float,
    p_from: float,
    p_to: float,
    fee_tier: float,
) -> float:
    """Fee earned by the position while price moves p_from -> p_to.

    Only the part of the move inside [price_lower, price_upper] earns.  Moves
    entirely outside the band, or merely touching a boundary from outside,
    earn zero.
    """
    _check_price(p_from)
    _check_price(p_to)
    lo, hi = (p_from, p_to) if p_from <= p_to else (p_to, p_from)
    if hi <= price_lower or lo >= price_upper:
        return 0.0
    c_lo = max(lo, price_lower)
    c_hi = min(hi, price_upper)
    rate = fee_tier / (1.0 - fee_tier)
    return rate * liquidity * (math.sqrt(c_hi) - math.sqrt(c_lo))


def fee_over_path(
    liquidity: float,
    price_lower: float,
    price_upper: float,
    path: Sequence[float],
    fee_tier: float,
) -> float:
    """Total fee over consecutive moves of a sampled price path."""
    if len(path) == 0:
        raise ValueError("price path is empty")
    total = 0.0
    for p_from, p_to in zip(path, path[1:]):
        total += fee_one_move(liquidity, price_lower, price_upper, p_from, p_to, fee_tier)
    return total


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


def ledger_totals(position, path, fee_tier=0.0):
    """The kernel's (lvr, fee, dv, hedge), summed from the per-move walk,
    and the value at the last point from amm's reserves.

    A drop-in for clmmlab.accounting.lvr_over_path on floats:
    monkeypatched into a caller's module, it replays that caller on the
    oracle ledger.
    """
    lvr, steps = lvr_over_path(position, path, fee_tier=fee_tier)
    return (lvr, sum(s.fee for s in steps), sum(s.value_change for s in steps),
            sum(s.hedge_pnl for s in steps), position.value(path[-1]))


# -- the branchy totals walk --------------------------------------------------
#
# clmmlab.accounting.lvr_over_path as it stood before one walk body served
# floats and arrays: a branch per point picks the below-band, above-band or
# in-band reserves, and fees accrue only when fee_tier is set.


def ledger_totals_branchy(
    position: LiquidityPosition, path: Sequence[float], fee_tier: float = 0.0
) -> Tuple[float, float, float, float]:
    """Ledger totals (lvr, fee, dv, hedge) over a sampled path."""
    if len(path) == 0:
        raise ValueError("price path is empty")
    L = position.liquidity
    pa, pb = position.price_lower, position.price_upper
    sa, sb = math.sqrt(pa), math.sqrt(pb)
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
            s1 = math.sqrt(p1)
            x1, y1 = L * (1.0 / s1 - inv_sb), L * (s1 - sa)
        if i:
            lvr += p1 * (x1 - x0) + (y1 - y0)
            dv += (p1 * x1 + y1) - (p0 * x0 + y0)
            hedge += -x0 * (p1 - p0)
            if fee_tier:
                fee += rate_l * abs(s1 - s0)
        p0, x0, y0, s0 = p1, x1, y1, s1
    return lvr, fee, dv, hedge


def hour_path(prev_close: float, candle: Candle, model: str) -> List[float]:
    """Price points visited while one candle elapses, starting at prev_close.

    env.hour_paths as it stood per hour: the candle model walks open ->
    low -> high -> close for an up candle and open -> high -> low -> close
    for a down candle; open-close walks open -> close.
    """
    check_path_model(model)
    if model == "candle":
        if candle.close >= candle.open:
            mids = [candle.low, candle.high]
        else:
            mids = [candle.high, candle.low]
        return [prev_close, candle.open, mids[0], mids[1], candle.close]
    return [prev_close, candle.open, candle.close]


def hedge_pnl_over_path(position: LiquidityPosition, path: Sequence[float]) -> float:
    """PnL of the short hedge leg: -sum x(p_t) * (p_{t+1} - p_t)."""
    if len(path) == 0:
        raise ValueError("price path is empty")
    total = 0.0
    for p_before, p_after in zip(path, path[1:]):
        x = position.reserves(p_before).x
        total += -x * (p_after - p_before)
    return total


def instantaneous_lvr_rate(position: LiquidityPosition, price: float, sigma: float) -> float:
    """Quoted leak rate of a hedged in-range position per unit time.

    Returns sigma^2 * p^2 * V''(p) with V''(p) = -L / (2 p^{3/2}) inside the
    band, zero outside; both boundaries use the in-range branch.  Note the
    quote follows the convention that drops Ito's one-half, so the expected
    one-step LVR of the discrete ledger over a short dt is rate * dt / 2.
    """
    if price <= 0.0:
        raise ValueError(f"price must be positive, got {price}")
    if price < position.price_lower or price > position.price_upper:
        return 0.0
    return -0.5 * position.liquidity * sigma * sigma * math.sqrt(price)


def refine_path(path, k):
    """Insert k-1 evenly spaced points inside every move."""
    out = [path[0]]
    for p0, p1 in zip(path, path[1:]):
        for j in range(1, k + 1):
            out.append(p0 + (p1 - p0) * j / k)
    return out


def random_band_and_path(rng, n_moves=8, crossing=True):
    """Random position band plus a price path that straddles it."""
    center = math.exp(rng.uniform(-1.0, 6.0))
    half = rng.uniform(0.002, 0.25)
    pa = center * (1.0 - half)
    pb = center * (1.0 + half)
    L = math.exp(rng.uniform(-2.0, 4.0))
    if crossing:
        lo, hi = pa * 0.7, pb * 1.3
    else:
        lo, hi = pa * 1.001, pb * 0.999
    path = [float(center)]
    for _ in range(n_moves):
        path.append(float(rng.uniform(lo, hi)))
    return L, pa, pb, path


# -- per-array learner updates -------------------------------------------
#
# Reference versions of the learner's optimizer path that loop over the
# named arrays one by one. The whole-vector versions in clmmlab.nets must
# agree with these bit for bit.


def global_norm(grads):
    total = 0.0
    for _, g in grads.arrays():
        total += float(np.sum(g * g))
    return math.sqrt(total)


def clip_by_global_norm(grads, max_norm):
    norm = global_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    return NetworkParams(**{n: g * scale for n, g in grads.arrays()})


def apply_update(params, opt, grads):
    """Clip by global norm, then one Adam step. Mutates `opt`, returns new params."""
    for name, g in grads.arrays():
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in {name}")
    grads = clip_by_global_norm(grads, opt.clip_norm)
    opt.step += 1
    t = opt.step
    out = {}
    for name, p in params.arrays():
        g = getattr(grads, name)
        m, v = getattr(opt.m, name), getattr(opt.v, name)
        m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        out[name] = p - opt.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return NetworkParams(**out)


def soft_update(target, local, rate=0.01):
    """target' = rate * local + (1 - rate) * target, elementwise."""
    out = {}
    for name, tgt in target.arrays():
        loc = getattr(local, name)
        if loc.shape != tgt.shape:
            raise CheckpointError(
                f"shape mismatch in {name}: {loc.shape} vs {tgt.shape}"
            )
        out[name] = rate * loc + (1.0 - rate) * tgt
    return NetworkParams(**out)


# -- the dueling net, textbook order ------------------------------------------
#
# Each bias added after its matmul, and V and A computed apart and combined as
# V + A - mean A. nets runs the same net as three affine layers with the head
# composed into one map, which rounds differently in the last bits: its
# passes must agree with these within rounding, and its greedy actions with
# the argmax of this q.


def forward_all(params, x):
    z1 = x @ params.w1 + params.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ params.w2 + params.b2
    h2 = np.maximum(z2, 0.0)
    v = h2 @ params.wv + params.bv
    adv = h2 @ params.wa + params.ba
    q = v + adv - adv.sum(axis=1, keepdims=True) / adv.shape[1]
    return q, v, adv, (z1, h1, z2, h2)


def loss_and_gradients(params, x, a, y):
    n = len(x)
    q, v, adv, (z1, h1, z2, h2) = forward_all(params, x)
    err = q[np.arange(n), a] - y
    loss = float(np.mean(err * err))
    dq = np.zeros_like(q)
    dq[np.arange(n), a] = 2.0 * err / n
    dv = dq.sum(axis=1, keepdims=True)
    dadv = dq - dq.sum(axis=1, keepdims=True) / dq.shape[1]
    grads = {"wv": h2.T @ dv, "bv": dv.sum(axis=0),
             "wa": h2.T @ dadv, "ba": dadv.sum(axis=0)}
    dz2 = (dv @ params.wv.T + dadv @ params.wa.T) * (z2 > 0.0)
    grads.update(w2=h1.T @ dz2, b2=dz2.sum(axis=0))
    dz1 = (dz2 @ params.w2.T) * (z1 > 0.0)
    grads.update(w1=x.T @ dz1, b1=dz1.sum(axis=0))
    return loss, NetworkParams(**grads)


# -- the affine arithmetic on fresh arrays, and the learner as four calls -----
#
# nets' arithmetic with every intermediate a fresh array: each layer the
# weight stacked on its bias, the input and hidden activations with a column
# of ones appended, the head composed into one map la - rowmean(la) + lv.
# The four-call update runs on it the way the update ran before it ran in
# one workspace: the local net runs over s2 and over s in two separate
# passes, and the optimizer returns new params. dqn.ddqn_update and the
# public nets passes must agree with these bit for bit.


def _with_ones(a):
    return np.hstack([a, np.ones((len(a), 1))])


def affine_forward(params, x):
    """(q, v, adv, (x1, z1, h1, z2, h2, head)); x1, h1 and h2 end in ones."""
    l1, l2, lv, la = (np.vstack([w, b]) for w, b in (
        (params.w1, params.b1), (params.w2, params.b2),
        (params.wv, params.bv), (params.wa, params.ba)))
    x1 = _with_ones(x)
    z1 = x1 @ l1
    h1 = _with_ones(np.maximum(z1, 0.0))
    z2 = h1 @ l2
    h2 = _with_ones(np.maximum(z2, 0.0))
    head = la - la.sum(axis=1, keepdims=True) / la.shape[1] + lv
    return h2 @ head, (h2 @ lv)[:, 0], h2 @ la, (x1, z1, h1, z2, h2, head)


def affine_loss_and_gradients(params, x, a, y):
    n = len(x)
    q, _, _, (x1, z1, h1, z2, h2, head) = affine_forward(params, x)
    err = q[np.arange(n), a] - y
    loss = float(np.mean(err * err))
    dq = np.zeros_like(q)
    dq[np.arange(n), a] = 2.0 * err / n
    g_head = h2.T @ dq
    gv = g_head.sum(axis=1, keepdims=True)
    ga = g_head - gv / g_head.shape[1]
    dz2 = (dq @ head[:-1].T) * (z2 > 0.0)
    g2 = h1.T @ dz2
    dz1 = (dz2 @ params.w2.T) * (z1 > 0.0)
    g1 = x1.T @ dz1
    return loss, NetworkParams(w1=g1[:-1], b1=g1[-1], w2=g2[:-1], b2=g2[-1],
                               wv=gv[:-1], bv=gv[-1], wa=ga[:-1], ba=ga[-1])


def ddqn_target(r, s2, local, target, gamma):
    q_local = affine_forward(local, s2)[0]
    q_target = affine_forward(target, s2)[0]
    return r + gamma * q_target[np.arange(len(s2)), q_local.argmax(axis=1)]


def ddqn_update(buffer, batch_size, rng, local, target, opt):
    """One learner step as four calls: (loss, new local, new target); mutates `opt`."""
    idx = rng.choice(len(buffer), size=batch_size, replace=False)
    s = buffer.obs[idx].astype(np.float64)
    s2 = buffer.next_obs[idx].astype(np.float64)
    y = ddqn_target(buffer.rewards[idx], s2, local, target, GAMMA)
    loss, grads = affine_loss_and_gradients(local, s, buffer.actions[idx], y)
    if not np.isfinite(loss):
        raise TrainingDiverged(f"loss became {loss}")
    local = apply_update(local, opt, grads)
    return loss, local, soft_update(target, local)


def ddqn_update_in_place(ws, buffer, rng, local, target, opt):
    """ddqn_update behind dqn.ddqn_update's signature: the new weights are
    written back into `local` and `target`."""
    loss, new_local, new_target = ddqn_update(buffer, ws.batch, rng, local, target, opt)
    local.flat[...] = new_local.flat
    target.flat[...] = new_target.flat
    return loss


# -- per-row feature scaling -------------------------------------------------
# FeatureScaler.apply as it stood when the env scaled one observation row per
# step; the whole-matrix apply must agree with it row by row, bit for bit.


def scale_feature_row(scaler, row):
    out = row.astype(float).copy()
    for j in scaler.columns:
        s = scaler.std[j]
        out[j] = (row[j] - scaler.mean[j]) / s if s > 1e-12 else 0.0
    return out


# ------------------------------------------------------------------ EWA
#
# The exponential-weights replay as it stood before positions became
# budgets times unit references: every hour it walks the N positions and
# the N unit references separately.


def _open_width_positions(
    close: float,
    budgets: Sequence[float],
    pool: PoolSpec,
) -> List[LiquidityPosition]:
    center = snap_tick(price_to_tick(close), pool.tick_spacing)
    out = []
    for n, budget in enumerate(budgets, start=1):
        pa, pb = band_for_center(center, n, pool.tick_spacing)
        out.append(LiquidityPosition(pa, pb, liquidity_for_budget(budget, close, pa, pb)))
    return out


def run_ewa(
    candles: Sequence[Candle],
    offset: int,
    horizon: int,
    config: EWAConfig,
    pool: Optional[PoolSpec] = None,
    l0: float = 250.0,
    gas: float = 1.0,
    path_model: str = "candle",
):
    """Replay the exponential-weights strategy over candles[offset:offset+horizon].

    The trigger is the literal periodic rule mod(t, t_re) == 0 for hours
    t = 1..horizon; decisions use close prices and rewards observed so
    far. Hour 0 performs a gas-free uniform initial split.

    Returns (per-hour info dicts, final weights).
    """
    pool = pool or PoolSpec()
    n = config.n_widths
    if offset < 0 or offset + horizon >= len(candles):
        raise ValueError(
            f"need candles through index {offset + horizon}, have {len(candles)}"
        )
    close0 = candles[offset].close
    positions = _open_width_positions(close0, [l0 / n] * n, pool)
    references = _open_width_positions(close0, [1.0] * n, pool)
    cash = 0.0
    cum_rewards = np.zeros(n)
    weights = np.full(n, 1.0 / n)
    infos: List[Dict] = []

    for t in range(1, horizon + 1):
        idx = offset + t
        prev_close = candles[idx - 1].close
        gas_paid = 0.0
        reallocated = False
        if t % config.t_re == 0:
            weights = ewa_weights(cum_rewards, config.eta)
            wealth = cash + sum(p.value(prev_close) for p in positions)
            positions = _open_width_positions(prev_close, wealth * weights, pool)
            references = _open_width_positions(prev_close, [1.0] * n, pool)
            cash = 0.0
            gas_paid = gas
            reallocated = True

        path = hour_path(prev_close, candles[idx], path_model)
        fee = 0.0
        lvr = 0.0
        dv = 0.0
        for pos in positions:
            lvr_n, steps = lvr_over_path(pos, path, fee_tier=pool.fee_tier)
            fee += sum(s.fee for s in steps)
            dv += sum(s.value_change for s in steps)
            lvr += lvr_n
        for k, ref in enumerate(references):
            lvr_r, steps_r = lvr_over_path(ref, path, fee_tier=pool.fee_tier)
            cum_rewards[k] += sum(s.fee for s in steps_r) + lvr_r

        cash += fee
        reward = fee + lvr - gas_paid
        value = sum(p.value(candles[idx].close) for p in positions)
        infos.append({
            "t": t,
            "action": 1 if reallocated else 0,
            "fee": fee,
            "lvr": lvr,
            "gas": gas_paid,
            "dv": dv,
            "hedge_pnl": lvr - dv,
            "reallocated": reallocated,
            "cash": cash,
            "center_tick": 0,
            "width": 0,
            "value": value,
            "close": candles[idx].close,
            "reward": reward,
        })
    return infos, weights


# -- the per-width EWA replay -------------------------------------------------
#
# baselines.run_ewa as it stood before it walked a reallocation block at a
# time: every hour, one scalar walk per unit reference, and every value
# from LiquidityPosition.value. `walk` is the float ledger it calls.


def run_ewa_per_width(candles: Sequence[Candle], offset: int, horizon: int,
                      config: EWAConfig, env: EnvConfig,
                      walk=ledger_totals_branchy):
    """(per-hour HourRecords, final weights), as baselines.run_ewa."""
    fee_tier = env.pool.fee_tier
    n = config.n_widths
    if offset < 0 or offset + horizon >= len(candles):
        raise ValueError(
            f"need candles through index {offset + horizon}, have {len(candles)}"
        )
    spacing = env.pool.tick_spacing
    references = [mint_band(candles[offset].close, w, spacing, 1.0)[1]
                  for w in range(1, n + 1)]
    budgets = np.full(n, env.l0 / n)
    cash = 0.0
    cum_rewards = np.zeros(n)
    weights = np.full(n, 1.0 / n)
    ledger = np.empty((3, n))  # per-reference fee, lvr, dv of one hour
    records: List[HourRecord] = []

    for t in range(1, horizon + 1):
        idx = offset + t
        prev_close = candles[idx - 1].close
        gas_paid = 0.0
        action = 0
        if t % config.t_re == 0:
            weights = ewa_weights(cum_rewards, config.eta)
            wealth = cash + float(budgets @ [r.value(prev_close) for r in references])
            references = [mint_band(prev_close, w, spacing, 1.0)[1]
                          for w in range(1, n + 1)]
            budgets = wealth * weights
            cash = 0.0
            gas_paid = env.gas
            action = 1

        path = hour_path(prev_close, candles[idx], env.path_model)
        for k, ref in enumerate(references):
            lvr_k, fee_k, dv_k = walk(ref, path, fee_tier=fee_tier)[:3]
            ledger[:, k] = fee_k, lvr_k, dv_k
            cum_rewards[k] += fee_k + lvr_k
        fee, lvr, dv = (float(x) for x in ledger @ budgets)

        cash += fee
        close = candles[idx].close
        value = float(budgets @ [r.value(close) for r in references])
        records.append(HourRecord(t, action, fee, lvr, gas_paid, dv,
                                  fee + lvr - gas_paid, cash, 0, 0, value, close))
    return records, weights


# -- the per-hour EWA replay -------------------------------------------------
#
# baselines.run_ewa as it stood before it took a reallocation period at a
# time: one chunk walk of the ledger, then the budgets, cash and value hour
# by hour, one HourRecord an hour.


def run_ewa_per_hour(candles, offset: int, horizon: int,
                     config: EWAConfig, env: EnvConfig):
    """(per-hour HourRecords, final weights), as baselines.run_ewa."""
    fee_tier = env.pool.fee_tier
    n, t_re = config.n_widths, config.t_re
    paths = _window_paths(candles, offset, horizon, env.path_model)
    refs = _unit_bands([candles[offset].close]
                       + [candles[offset + t - 1].close
                          for t in range(t_re, horizon + 1, t_re)],
                       n, env.pool.tick_spacing)
    marks = ledger_walk(Bands(*(f[0] for f in refs)),
                        np.array([candles[offset].close]))[4]
    budgets = np.full(n, env.l0 / n)
    cash = 0.0
    cum_rewards = np.zeros(n)
    weights = np.full(n, 1.0 / n)
    records: List[HourRecord] = []

    for t in range(1, horizon + 1, WALK_HOURS):
        end = min(t + WALK_HOURS, horizon + 1)
        block = np.arange(t, end) // t_re
        lvr, fee, dv, _, chunk_marks = ledger_walk(
            Bands(*(f[block] for f in refs)), paths[t - 1:end - 1].T[:, :, None],
            fee_tier=fee_tier)
        ledger = np.stack((fee, lvr, dv), axis=1)
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


def trace_records(trace) -> List[HourRecord]:
    """An env.HourTrace's hours as HourRecords, for comparing with the replays here."""
    return [HourRecord(*row) for row in
            zip(*(column.tolist() for column in trace.columns.values()))]


# -- the env tau-reset replay ----------------------------------------------
#
# baselines.run_tau_reset as it stood before it walked a chunk of hours at
# once: LPEnv steps every hour, and the rule reads the env's position.


def run_tau_reset(candles: Sequence[Candle], offset: int, horizon: int, tau: int,
                  env: EnvConfig) -> List[HourRecord]:
    """The HourRecords of baselines.run_tau_reset, one LPEnv step an hour."""
    lp = LPEnv(candles, EnvConfig(**{**vars(env), "episode_length": horizon}))
    lp.reset(offset, tau)
    records: List[HourRecord] = []
    done = False
    while not done:
        close = lp.candles[lp.t].close
        outside = close < lp.position.price_lower or close > lp.position.price_upper
        _, _, done, record = lp.step(tau if outside else 0)
        records.append(record)
    return records


# -- the loop total ----------------------------------------------------------
#
# accounting.ordered_sum as it stood before it was one np.add.accumulate.


def ordered_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


# -- the dict-row run-dir writer ------------------------------------------
#
# write_run_dir as it stood when every hour was an info dict: each trace
# row is rebuilt as a second dict and written by csv.DictWriter.


def write_csv_rows(path: str, header: Sequence[str],
                   rows: Sequence[Dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(header))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_run_dir(result, out_dir: str, records: Sequence[HourRecord]) -> Dict[str, str]:
    """Write run.json, report.csv, trace.csv, actions.csv for one run whose
    hours are records: the report's totals and the action counts are the
    records' own, and result gives only the config, digest and window."""
    infos = [r._asdict() for r in records]
    os.makedirs(out_dir, exist_ok=True)
    digest = result.config_hash
    seed = result.config.seed
    paths = {}

    run_doc = {"config": result.config.to_dict(), "config_hash": digest,
               "seed": seed, "label": result.config.label,
               "offset": result.offset, "horizon": result.horizon}
    paths["run"] = os.path.join(out_dir, "run.json")
    with open(paths["run"], "w") as fh:
        json.dump(run_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    def total(column):
        out = 0.0
        for info in infos:
            out += info[column]
        return out

    l0 = result.config.l0
    carry = total("lvr") if result.config.reward_mode == "hedged" else total("dv")
    row = dict(result.to_row(), relative_fee=total("fee") / l0,
               relative_gas=total("gas") / l0, relative_lvr=-total("lvr") / l0,
               relative_pnl=(total("fee") - total("gas") + carry) / l0,
               reallocations=sum(1 for info in infos if info["action"] != 0))
    paths["report"] = os.path.join(out_dir, "report.csv")
    write_csv_rows(paths["report"], REPORT_CSV_HEADER, [row])

    trace_header = TRACE_CSV_HEADER + ["config_hash", "seed"]
    trace_rows = [dict({k: info[k] for k in TRACE_CSV_HEADER},
                       config_hash=digest, seed=seed)
                  for info in infos]
    paths["trace"] = os.path.join(out_dir, "trace.csv")
    write_csv_rows(paths["trace"], trace_header, trace_rows)

    hist = [0] * (result.config.n_actions + 1)
    for info in infos:
        hist[info["action"]] += 1
    action_rows = [{"action": a, "count": n, "config_hash": digest,
                    "seed": seed} for a, n in enumerate(hist)]
    paths["actions"] = os.path.join(out_dir, "actions.csv")
    write_csv_rows(paths["actions"], ["action", "count", "config_hash", "seed"],
                   action_rows)
    return paths


# -- the four-sum drift study ------------------------------------------------
#
# drift_neutrality_study as it stood before it replayed through
# run_backtest: its own env, and its own sum() per ledger column. sum()
# adds left to right from 0 up to Python 3.11 only.


def drift_neutrality_study(
    mu_values: Sequence[float] = (0.0005, -0.0005),
    sigma: float = 0.01,
    n_seeds: int = 100,
    horizon: int = 1000,
    tau: int = 12,
    l0: float = 250.0,
    gas: float = 0.0,
    p0: float = 2000.0,
    seed0: int = 0,
    pool: Optional[PoolSpec] = None,
    path_model: str = "open-close",
) -> Dict[float, Dict[str, float]]:
    out: Dict[float, Dict[str, float]] = {}
    for mu in mu_values:
        hedged = np.empty(n_seeds)
        unhedged = np.empty(n_seeds)
        for k in range(n_seeds):
            candles = synth_gbm(p0, mu, sigma, horizon + 2, seed=seed0 + k)
            env = EnvConfig(pool=pool or EQUILIBRIUM_POOL, l0=l0, gas=gas,
                            n_actions=max(10, tau), path_model=path_model)
            infos = [r._asdict() for r in run_tau_reset(candles, 1, horizon, tau, env)]
            fee = sum(i["fee"] for i in infos)
            paid = sum(i["gas"] for i in infos)
            lvr = sum(i["lvr"] for i in infos)
            dv = sum(i["dv"] for i in infos)
            hedged[k] = (fee - paid + lvr) / l0
            unhedged[k] = (fee - paid + dv) / l0
        out[mu] = {
            "hedged_mean": float(hedged.mean()),
            "hedged_se": float(hedged.std(ddof=1) / math.sqrt(n_seeds)),
            "unhedged_mean": float(unhedged.mean()),
            "unhedged_se": float(unhedged.std(ddof=1) / math.sqrt(n_seeds)),
            "n_seeds": n_seeds,
        }
    return out


# -- the Candle-list market data --------------------------------------------
#
# clmmlab.marketdata as it stood when a series was a list of validated bar
# objects: each bar checks itself when built, the loader builds one a row,
# and GBM synthesis builds one an hour.


@dataclass(frozen=True)
class OracleCandle:
    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume_usd: float

    def __post_init__(self):
        for name in ("open", "high", "low", "close"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise DataValidationError(f"{name} must be positive and finite, got {v}")
        if not (self.low <= min(self.open, self.close) and max(self.open, self.close) <= self.high):
            raise DataValidationError(
                f"OHLC ordering violated at {self.timestamp}: "
                f"o={self.open} h={self.high} l={self.low} c={self.close}"
            )
        if self.volume_usd < 0.0 or not math.isfinite(self.volume_usd):
            raise DataValidationError(f"volume_usd must be >= 0, got {self.volume_usd}")


def validate_series(candles: Sequence[OracleCandle], first_row: int = 1) -> None:
    for i, (a, b) in enumerate(zip(candles, candles[1:])):
        if b.timestamp - a.timestamp != HOUR:
            raise DataValidationError(
                f"row {i + 1 + first_row}: timestamp {b.timestamp} does not follow "
                f"{a.timestamp} by exactly {HOUR}s"
            )


def load_candles_csv(path: str) -> List[OracleCandle]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CANDLE_CSV_HEADER:
            raise DataValidationError(
                f"bad candle CSV header in {path}: {header!r}, want {CANDLE_CSV_HEADER!r}"
            )
        out = []
        for i, row in enumerate(reader):
            if len(row) != 6:
                raise DataValidationError(f"row {i + 2}: expected 6 columns, got {len(row)}")
            try:
                out.append(
                    OracleCandle(
                        int(row[0]), float(row[1]), float(row[2]),
                        float(row[3]), float(row[4]), float(row[5]),
                    )
                )
            except DataValidationError as e:
                raise DataValidationError(f"row {i + 2}: {e}") from None
            except ValueError:
                raise DataValidationError(f"row {i + 2}: unparseable value in {row!r}") from None
    validate_series(out, first_row=2)
    return out


def save_candles_csv(candles: Sequence[OracleCandle], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANDLE_CSV_HEADER)
        for c in candles:
            writer.writerow([c.timestamp, c.open, c.high, c.low, c.close, c.volume_usd])


def synth_gbm_candles(p0: float, mu: float, sigma: float, n_hours: int, seed: int,
                      start_ts: int = DEFAULT_SYNTH_START,
                      intra_factor: float = 0.25) -> List[OracleCandle]:
    """marketdata.synth_gbm, one OracleCandle an hour."""
    if p0 <= 0.0:
        raise ValueError(f"p0 must be positive, got {p0}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if n_hours < 1:
        raise ValueError(f"n_hours must be >= 1, got {n_hours}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_hours)
    closes = np.empty(n_hours + 1)
    closes[0] = p0
    drift = mu - 0.5 * sigma * sigma
    with np.errstate(over="ignore"):
        for t in range(n_hours):
            closes[t + 1] = closes[t] * math.exp(drift + sigma * z[t])
    out = []
    for t in range(1, n_hours + 1):
        o = float(closes[t - 1])
        c = float(closes[t])
        ext = intra_factor * abs(c / o - 1.0)
        hi = max(o, c) * (1.0 + ext)
        lo = min(o, c) / (1.0 + ext)
        vol = 1e6 * (1.0 + abs(math.log(c / o)))
        out.append(OracleCandle(start_ts + (t - 1) * HOUR, o, hi, lo, c, vol))
    return out


# -- loop indicators -------------------------------------------------------
# The per-element indicator loops that clmmlab.indicators' array passes
# replaced, kept verbatim as the bitwise oracle; directional runs four of
# them one by one, where the package shares their Wilder sums, and
# stochastics runs the slow and the fast stochastic, where the package takes
# one fast %K and one SMA of it. sma, apo, bop and momentum were array code
# already and come from the package unchanged.

LOOP_INDICATORS = (
    "ema", "dema", "true_range", "directional", "aroon_osc", "cci", "cmo", "trix",
    "ultimate_oscillator", "stochastics", "natr", "parabolic_sar", "ht_dc_period",
    "ht_dc_phase",
)


def _validate(*arrays):
    n = len(arrays[0])
    for a in arrays:
        if len(a) != n:
            raise ValueError("input arrays differ in length")
    return n


def ema(x: np.ndarray, period: int) -> np.ndarray:
    """Exponential MA seeded with the SMA of the first `period` values."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    n = len(x)
    out = np.full(n, np.nan)
    if n < period:
        return out
    alpha = 2.0 / (period + 1.0)
    prev = float(np.mean(x[:period]))
    out[period - 1] = prev
    for i in range(period, n):
        prev = alpha * x[i] + (1.0 - alpha) * prev
        out[i] = prev
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
    if n == 0:
        return out
    for i in range(1, n):
        out[i] = max(high[i] - low[i], abs(high[i] - close[i - 1]), abs(low[i] - close[i - 1]))
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
    s = float(np.sum(values[first_index : first_index + period]))
    out[start] = s
    for i in range(start + 1, n):
        s = s - s / period + values[i]
        out[i] = s
    return out


def _directional_movement(high: np.ndarray, low: np.ndarray):
    n = _validate(high, low)
    plus = np.zeros(n)
    minus = np.zeros(n)
    for i in range(1, n):
        up = high[i] - high[i - 1]
        down = low[i - 1] - low[i]
        if up > down and up > 0.0:
            plus[i] = up
        if down > up and down > 0.0:
            minus[i] = down
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
    tr[0] = 0.0
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
    prev = float(np.mean(d[first : first + period]))
    out[start] = prev
    for i in range(start + 1, n):
        prev = (prev * (period - 1) + d[i]) / period
        out[i] = prev
    return out


def directional(high, low, close, period: int = 14):
    """The four directional columns, each indicator run on its own."""
    return (plus_dm(high, low, period), minus_dm(high, low, period),
            dx(high, low, close, period), adx(high, low, close, period))


def aroon_osc(high: np.ndarray, low: np.ndarray, period: int = 14) -> np.ndarray:
    """Aroon up minus Aroon down over a period+1 bar window.

    Ties go to the most recent extreme, matching the reference behaviour.
    """
    n = _validate(high, low)
    out = np.full(n, np.nan)
    for i in range(period, n):
        hw = high[i - period : i + 1]
        lw = low[i - period : i + 1]
        # distance back to the most recent max/min
        back_hi = period - int(np.flatnonzero(hw >= np.max(hw))[-1])
        back_lo = period - int(np.flatnonzero(lw <= np.min(lw))[-1])
        up = 100.0 * (period - back_hi) / period
        down = 100.0 * (period - back_lo) / period
        out[i] = up - down
    return out


def cci(high: np.ndarray, low: np.ndarray, close: np.ndarray, period: int = 14) -> np.ndarray:
    n = _validate(high, low, close)
    tp = (high + low + close) / 3.0
    out = np.full(n, np.nan)
    for i in range(period - 1, n):
        w = tp[i - period + 1 : i + 1]
        m = float(np.mean(w))
        dev = float(np.mean(np.abs(w - m)))
        out[i] = (tp[i] - m) / (0.015 * dev) if dev > 0.0 else 0.0
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
    for i in range(period, n):
        g = float(np.sum(gains[i - period : i]))
        l = float(np.sum(losses[i - period : i]))
        out[i] = 100.0 * (g - l) / (g + l) if g + l > 0.0 else 0.0
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
    for i in range(start3 + 1, n):
        prev = full_e3[i - 1]
        if prev != 0.0:
            out[i] = 100.0 * (full_e3[i] / prev - 1.0)
        else:
            out[i] = 0.0
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
    bp = np.zeros(n)
    tr = np.zeros(n)
    for i in range(1, n):
        lo = min(low[i], close[i - 1])
        hi = max(high[i], close[i - 1])
        bp[i] = close[i] - lo
        tr[i] = hi - lo
    out = np.full(n, np.nan)

    def avg(i, p):
        t = float(np.sum(tr[i - p + 1 : i + 1]))
        b = float(np.sum(bp[i - p + 1 : i + 1]))
        return b / t if t > 0.0 else 0.0

    for i in range(p3, n):
        out[i] = 100.0 * (4.0 * avg(i, p1) + 2.0 * avg(i, p2) + avg(i, p3)) / 7.0
    return out


def _raw_stochastic(high, low, close, period):
    n = _validate(high, low, close)
    out = np.full(n, np.nan)
    for i in range(period - 1, n):
        hh = float(np.max(high[i - period + 1 : i + 1]))
        ll = float(np.min(low[i - period + 1 : i + 1]))
        out[i] = 100.0 * (close[i] - ll) / (hh - ll) if hh > ll else 0.0
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


def stochastics(high, low, close):
    """(slowK, slowD, fastK, fastD), each stochastic run on its own."""
    return (*stochastic(high, low, close), *stochastic_fast(high, low, close))


def natr(high: np.ndarray, low: np.ndarray, close: np.ndarray, period: int = 14) -> np.ndarray:
    n = _validate(high, low, close)
    tr = true_range(high, low, close)
    out = np.full(n, np.nan)
    if n <= period:
        return out
    atr = float(np.mean(tr[1 : period + 1]))
    out[period] = 100.0 * atr / close[period]
    for i in range(period + 1, n):
        atr = (atr * (period - 1) + tr[i]) / period
        out[i] = 100.0 * atr / close[i]
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
    up_move = high[1] - high[0]
    down_move = low[0] - low[1]
    long = up_move >= down_move
    if long:
        sar, ep = float(low[0]), float(high[1])
    else:
        sar, ep = float(high[0]), float(low[1])
    af = accel
    out[1] = sar
    for i in range(2, n):
        sar = sar + af * (ep - sar)
        if long:
            sar = min(sar, low[i - 1], low[i - 2])
            if low[i] < sar:
                long = False
                sar, ep, af = ep, float(low[i]), accel
            else:
                if high[i] > ep:
                    ep, af = float(high[i]), min(af + accel, max_accel)
        else:
            sar = max(sar, high[i - 1], high[i - 2])
            if high[i] > sar:
                long = True
                sar, ep, af = ep, float(high[i]), accel
            else:
                if low[i] < ep:
                    ep, af = float(low[i]), min(af + accel, max_accel)
        out[i] = sar
    return out


_HT_LOOKBACK = 63


def _hilbert_components(x: np.ndarray):
    """Shared homodyne-discriminator pass: smoothed price, period estimate."""
    n = len(x)
    smooth = np.full(n, np.nan)
    period = np.full(n, np.nan)
    smooth_period = np.full(n, np.nan)
    if n < 7:
        return smooth, period, smooth_period

    def filt(series, i, per):
        return (
            0.0962 * series[i]
            + 0.5769 * series[i - 2]
            - 0.5769 * series[i - 4]
            - 0.0962 * series[i - 6]
        ) * (0.075 * per + 0.54)

    detrender = np.zeros(n)
    q1 = np.zeros(n)
    i1 = np.zeros(n)
    i2 = q2 = 0.0
    re = im = 0.0
    per = 6.0
    sper = 6.0
    for i in range(3, n):
        smooth[i] = (4.0 * x[i] + 3.0 * x[i - 1] + 2.0 * x[i - 2] + x[i - 3]) / 10.0
    for i in range(9, n):
        detrender[i] = filt(smooth, i, per)
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
        period[i] = per
        smooth_period[i] = sper
    return smooth, period, smooth_period


def ht_dc_period(x: np.ndarray) -> np.ndarray:
    """Hilbert-transform dominant cycle period, clamped to [6, 50] bars."""
    _, _, sper = _hilbert_components(x)
    out = np.full(len(x), np.nan)
    valid = slice(_HT_LOOKBACK, len(x))
    out[valid] = sper[valid]
    return out


def ht_dc_phase(x: np.ndarray, period) -> np.ndarray:
    """Phase within the dominant cycle, in degrees.

    period, the package's ht_dc_period(x) as its caller passes it, is
    ignored: the oracle runs its own Hilbert pass.
    """
    smooth, _, sper = _hilbert_components(x)
    n = len(x)
    out = np.full(n, np.nan)
    for i in range(_HT_LOOKBACK, n):
        sp = sper[i]
        if not np.isfinite(sp):
            continue
        dc = int(sp + 0.5)
        dc = max(dc, 1)
        real = imag = 0.0
        if i - dc + 1 < 0:
            continue
        level = smooth[i] if np.isfinite(smooth[i]) else x[i]
        for k in range(dc):
            w = 2.0 * math.pi * k / dc
            s = smooth[i - k]
            if not np.isfinite(s):
                s = x[i - k]
            real += math.sin(w) * s
            imag += math.cos(w) * s
        if abs(imag) > 1e-6 * level:
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
