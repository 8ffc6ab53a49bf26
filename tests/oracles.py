"""Independent brute-force oracles used by the test suite.

Everything here is written directly from the defining formulas, on purpose
without importing the implementation's fee/lvr walkers, so that agreement
between the two is evidence rather than tautology. The learner oracles
share only the parameter container, the Adam constants and the error types
with clmmlab.nets.
"""

import math

import numpy as np

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
        opt.m[name] = ADAM_BETA1 * opt.m[name] + (1.0 - ADAM_BETA1) * g
        opt.v[name] = ADAM_BETA2 * opt.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = opt.m[name] / (1.0 - ADAM_BETA1 ** t)
        v_hat = opt.v[name] / (1.0 - ADAM_BETA2 ** t)
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
