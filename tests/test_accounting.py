import numpy as np
import pytest

from clmmlab import accounting
from clmmlab.amm import LiquidityPosition
from oracles import (hedge_pnl_over_path, instantaneous_lvr_rate, lvr_vform_oracle,
                     random_band_and_path, refine_path)


def ref_position():
    return LiquidityPosition(1.0, 4.0, 1.0)


def test_lvr_two_point_example():
    pos = ref_position()
    total, steps = accounting.lvr_over_path(pos, [2.25, 1.0])
    assert total == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert len(steps) == 1
    assert steps[0].lvr == total
    assert steps[0].value_change == pytest.approx(-0.375, rel=1e-12)


def test_lvr_round_trip_path():
    # down-then-back is not symmetric: the second leg starts from a larger
    # base-token inventory, so it loses more
    pos = ref_position()
    total, steps = accounting.lvr_over_path(pos, [2.25, 1.0, 2.25])
    assert total == pytest.approx(-5.0 / 12.0, rel=1e-12)
    assert steps[0].lvr == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert steps[1].lvr == pytest.approx(-0.25, rel=1e-12)


def test_lvr_increments_nonpositive_randomized():
    rng = np.random.default_rng(31)
    for _ in range(500):
        L, pa, pb, path = random_band_and_path(rng, n_moves=10)
        pos = LiquidityPosition(pa, pb, L)
        total, steps = accounting.lvr_over_path(pos, path)
        for s in steps:
            assert s.lvr <= 1e-12 * max(1.0, abs(s.value_change))
        assert total <= 1e-9


def test_lvr_two_forms_agree():
    rng = np.random.default_rng(37)
    for _ in range(300):
        L, pa, pb, path = random_band_and_path(rng, n_moves=8)
        pos = LiquidityPosition(pa, pb, L)
        total, _ = accounting.lvr_over_path(pos, path)
        vform = lvr_vform_oracle(L, pa, pb, path)
        assert total == pytest.approx(vform, rel=1e-9, abs=1e-12)


def test_lvr_refinement_toward_zero():
    # linear resampling of a leg has vanishing quadratic variation, so a more
    # frequently rebalanced hedge tracks the position better: refined LVR sits
    # between the coarse value and zero
    rng = np.random.default_rng(41)
    for _ in range(100):
        L, pa, pb, path = random_band_and_path(rng, n_moves=4)
        pos = LiquidityPosition(pa, pb, L)
        coarse, _ = accounting.lvr_over_path(pos, path)
        fine, _ = accounting.lvr_over_path(pos, refine_path(path, 16))
        assert coarse - 1e-12 * max(1.0, abs(coarse)) <= fine <= 1e-12


def test_hedge_pnl_example_and_identity():
    pos = ref_position()
    assert hedge_pnl_over_path(pos, [2.25, 1.0]) == pytest.approx(
        0.2083333333333333, rel=1e-12
    )
    rng = np.random.default_rng(43)
    for _ in range(300):
        L, pa, pb, path = random_band_and_path(rng, n_moves=8)
        pos = LiquidityPosition(pa, pb, L)
        lvr_total, steps = accounting.lvr_over_path(pos, path)
        hedge = hedge_pnl_over_path(pos, path)
        dv = sum(s.value_change for s in steps)
        scale = max(1.0, abs(dv), abs(lvr_total))
        # sum dV = sum x*dp + lvr  <=>  hedge = lvr - sum dV
        assert abs(hedge - (lvr_total - dv)) <= 1e-9 * scale
        # per-step identity
        for s in steps:
            assert abs(s.value_change - s.hedge_pnl * (-1.0) - s.lvr) <= 1e-9 * max(
                1.0, abs(s.value_change)
            )


def test_empty_path_rejected():
    pos = ref_position()
    with pytest.raises(ValueError):
        accounting.lvr_over_path(pos, [])
    with pytest.raises(ValueError):
        hedge_pnl_over_path(pos, [])
    total, steps = accounting.lvr_over_path(pos, [2.0])
    assert total == 0.0 and steps == []


def test_instantaneous_lvr_rate():
    pos = ref_position()
    assert instantaneous_lvr_rate(pos, 2.25, 0.1) == pytest.approx(-0.0075, rel=1e-12)
    assert instantaneous_lvr_rate(pos, 4.41, 0.1) == 0.0
    assert instantaneous_lvr_rate(pos, 0.5, 0.1) == 0.0
    # boundaries use the in-range branch
    assert instantaneous_lvr_rate(pos, 1.0, 0.1) == pytest.approx(-0.005, rel=1e-12)
    with pytest.raises(ValueError):
        instantaneous_lvr_rate(pos, 0.0, 0.1)


def test_instantaneous_rate_matches_short_horizon_simulation():
    # the quoted rate omits Ito's one-half, so a GBM micro-step loses
    # rate * dt / 2 in expectation; checked by Monte Carlo
    pos = LiquidityPosition(50.0, 200.0, 3.0)
    p0, sigma, dt = 100.0, 0.05, 1.0 / 64.0
    rng = np.random.default_rng(47)
    n = 200_000
    z = rng.standard_normal(n)
    p1 = p0 * np.exp(-0.5 * sigma * sigma * dt + sigma * np.sqrt(dt) * z)
    sims = []
    for q in p1:
        total, _ = accounting.lvr_over_path(pos, [p0, float(q)])
        sims.append(total)
    mean = float(np.mean(sims))
    expected = 0.5 * instantaneous_lvr_rate(pos, p0, sigma) * dt
    se = float(np.std(sims)) / np.sqrt(n)
    assert abs(mean - expected) < 5 * se + 0.02 * abs(expected)

