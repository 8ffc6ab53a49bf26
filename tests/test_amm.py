import dataclasses
import math

import numpy as np
import pytest

from clmmlab import accounting, amm
from oracles import (liquidity_for_budget_oracle, micro_fee_oracle, random_band_and_path,
                     reserves_oracle, value_oracle)


def test_tick_price_round_trip():
    assert amm.tick_to_price(0) == 1.0
    assert amm.tick_to_price(60) == pytest.approx(1.0060177342688175, rel=1e-15)
    for tick in [-100_000, -1234, 0, 7, 887_220]:
        assert amm.price_to_tick(amm.tick_to_price(tick)) == pytest.approx(tick, abs=1e-9)


def test_price_to_tick_rejects_nonpositive():
    with pytest.raises(ValueError):
        amm.price_to_tick(0.0)
    with pytest.raises(ValueError):
        amm.price_to_tick(-1.5)


def test_snap_tick_half_away_from_zero():
    assert amm.snap_tick(90.0, 60) == 120
    assert amm.snap_tick(-90.0, 60) == -120
    assert amm.snap_tick(89.999, 60) == 60
    assert amm.snap_tick(29.999, 60) == 0
    assert amm.snap_tick(5.0, 10) == 10
    assert amm.snap_tick(-5.0, 10) == -10
    assert amm.snap_tick(123.4, 1) == 123


def test_pool_spec_validation():
    assert [f.name for f in dataclasses.fields(amm.PoolSpec)] == ["fee_tier", "tick_spacing"]
    with pytest.raises(ValueError):
        amm.PoolSpec(fee_tier=0.0)
    with pytest.raises(ValueError):
        amm.PoolSpec(fee_tier=1.0)
    with pytest.raises(ValueError):
        amm.PoolSpec(tick_spacing=0)


def test_position_validation():
    with pytest.raises(ValueError):
        amm.LiquidityPosition(4.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        amm.LiquidityPosition(-1.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        amm.LiquidityPosition(1.0, 4.0, -0.5)


# reference band used throughout: L = 1 on [1, 4]
def band():
    return 1.0, 1.0, 4.0


def test_reserves_three_branches():
    L, pa, pb = band()
    below = amm.reserves(L, pa, pb, 0.5)
    assert below.x == pytest.approx(0.5, abs=1e-15)
    assert below.y == 0.0
    mid = amm.reserves(L, pa, pb, 2.25)
    assert mid.x == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert mid.y == pytest.approx(0.5, abs=1e-15)
    above = amm.reserves(L, pa, pb, 9.0)
    assert above.x == 0.0
    assert above.y == pytest.approx(1.0, abs=1e-15)


def test_reserves_match_oracle_randomized():
    rng = np.random.default_rng(7)
    for _ in range(500):
        L, pa, pb, path = random_band_and_path(rng, n_moves=1)
        for p in path:
            got = amm.reserves(L, pa, pb, p)
            ox, oy = reserves_oracle(L, pa, pb, p)
            assert got.x == pytest.approx(ox, rel=1e-12, abs=1e-15)
            assert got.y == pytest.approx(oy, rel=1e-12, abs=1e-15)


def assert_holdings_match_branchy_oracle(L, pa, pb, p, budget):
    r = amm.reserves(L, pa, pb, p)
    got = (r.x, r.y, amm.position_value(L, pa, pb, p),
           amm.liquidity_for_budget(budget, p, pa, pb))
    want = reserves_oracle(L, pa, pb, p) + (value_oracle(L, pa, pb, p),
                                            liquidity_for_budget_oracle(budget, p, pa, pb))
    assert [float.hex(v) for v in got] == [float.hex(v) for v in want], (L, pa, pb, p, budget)


def edge_and_random_prices(rng, pa, pb, log_lo, log_hi):
    """The band's edges, their float neighbours and random prices."""
    prices = [pa, pb, math.sqrt(pa * pb)]
    prices += [math.nextafter(e, d) for e in (pa, pb) for d in (0.0, math.inf)]
    prices += [math.exp(rng.uniform(log_lo, log_hi)) for _ in range(3)]
    return prices


def test_holdings_bitwise_equal_branchy_oracle():
    """reserves, position_value and liquidity_for_budget equal the branchy
    formulas they replaced bit for bit, for prices from 1e-10 to 1e10, on
    and next to the band edges, and for bands at the tick limits."""
    rng = np.random.default_rng(31)
    lim = math.log(1e10)
    for _ in range(3_000):
        width = math.exp(rng.uniform(math.log(1e-6), math.log(10.0)))
        lo = rng.uniform(-lim, lim - width)
        pa, pb = math.exp(lo), math.exp(lo + width)
        L = math.exp(rng.uniform(-5.0, 10.0))
        budget = math.exp(rng.uniform(-5.0, 12.0))
        for p in edge_and_random_prices(rng, pa, pb, -lim, lim):
            assert_holdings_match_branchy_oracle(L, pa, pb, p, budget)
    tick_lim = 887_272
    bands = [(tick_lim - 60, tick_lim), (-tick_lim, -tick_lim + 60), (-tick_lim, tick_lim)]
    bands += [(t, t + int(rng.integers(1, 2_000))) for t in
              rng.integers(tick_lim - 4_000, tick_lim - 2_000, size=100).tolist()
              + rng.integers(-tick_lim, -tick_lim + 2_000, size=100).tolist()]
    for lower, upper in bands:
        pa, pb = amm.tick_to_price(lower), amm.tick_to_price(upper)
        log_lo, log_hi = math.log(pa) - 1.0, math.log(pb) + 1.0
        for p in edge_and_random_prices(rng, pa, pb, log_lo, log_hi):
            for L, budget in [(1e6, 250.0), (1.0, 0.0), (math.exp(rng.uniform(-5, 10)), 1e9)]:
                assert_holdings_match_branchy_oracle(L, pa, pb, p, budget)


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
def test_holdings_reject_bad_price_like_the_oracle(bad):
    for call in (lambda: amm.reserves(1.0, 1.0, 4.0, bad),
                 lambda: amm.position_value(1.0, 1.0, 4.0, bad),
                 lambda: amm.liquidity_for_budget(1.0, bad, 1.0, 4.0),
                 lambda: liquidity_for_budget_oracle(1.0, bad, 1.0, 4.0)):
        with pytest.raises(ValueError, match="^price must be positive and finite"):
            call()
    for call in (amm.liquidity_for_budget, liquidity_for_budget_oracle):
        with pytest.raises(ValueError, match=r"^budget must be >= 0, got -1.0$"):
            call(-1.0, bad, 1.0, 4.0)


def test_reserves_continuity_at_boundaries():
    rng = np.random.default_rng(11)
    for _ in range(200):
        L, pa, pb, _ = random_band_and_path(rng, n_moves=0)
        for edge in (pa, pb):
            eps = edge * 1e-12
            inside = amm.reserves(L, pa, pb, edge - eps if edge == pb else edge + eps)
            at = amm.reserves(L, pa, pb, edge)
            scale = max(abs(at.x), abs(at.y), 1.0)
            assert abs(inside.x - at.x) <= 1e-9 * scale
            assert abs(inside.y - at.y) <= 1e-9 * scale


def test_position_value_examples():
    L, pa, pb = band()
    assert amm.position_value(L, pa, pb, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert amm.position_value(L, pa, pb, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert amm.position_value(L, pa, pb, 2.25) == pytest.approx(0.875, abs=1e-15)
    assert amm.position_value(L, pa, pb, 9.0) == pytest.approx(1.0, abs=1e-15)


def test_position_value_concave_nondecreasing():
    rng = np.random.default_rng(3)
    for _ in range(100):
        L, pa, pb, _ = random_band_and_path(rng, n_moves=0)
        prices = np.exp(np.sort(rng.uniform(math.log(pa * 0.5), math.log(pb * 2.0), 50)))
        vals = [amm.position_value(L, pa, pb, p) for p in prices]
        for v0, v1 in zip(vals, vals[1:]):
            assert v1 >= v0 - 1e-12 * max(1.0, abs(v1))
        # midpoint concavity
        for i in range(len(prices) - 2):
            p0, p2 = prices[i], prices[i + 2]
            vm = amm.position_value(L, pa, pb, 0.5 * (p0 + p2))
            chord = 0.5 * (vals[i] + vals[i + 2])
            assert vm >= chord - 1e-9 * max(1.0, abs(vm))


def test_value_reserve_consistency_exact():
    rng = np.random.default_rng(5)
    for _ in range(300):
        L, pa, pb, path = random_band_and_path(rng, n_moves=2)
        for p in path:
            r = amm.reserves(L, pa, pb, p)
            assert amm.position_value(L, pa, pb, p) == p * r.x + r.y


# Fees are accrued by the ledger kernel; these two give its fee total the
# (L, pa, pb, ...) signature the fee tests below are written against.
def fee_over_path(L, pa, pb, path, fee_tier):
    return accounting.lvr_over_path(amm.LiquidityPosition(pa, pb, L), path, fee_tier)[1]


def fee_one_move(L, pa, pb, p0, p1, fee_tier):
    return fee_over_path(L, pa, pb, [p0, p1], fee_tier)


def test_fee_one_move_upward():
    L, pa, pb = band()
    fee = fee_one_move(L, pa, pb, 1.0, 1.21, 0.003)
    assert fee == pytest.approx(0.0003009027081243732, rel=1e-12)


def test_fee_one_move_clips_to_band():
    L, pa, pb = band()
    fee = fee_one_move(L, pa, pb, 2.25, 9.0, 0.003)
    assert fee == pytest.approx(0.0015045135406218657, rel=1e-12)
    # fully outside, and touching from outside
    assert fee_one_move(L, pa, pb, 4.0, 9.0, 0.003) == 0.0
    assert fee_one_move(L, pa, pb, 9.0, 4.0, 0.003) == 0.0
    assert fee_one_move(L, pa, pb, 0.25, 1.0, 0.003) == 0.0
    assert fee_one_move(L, pa, pb, 2.0, 2.0, 0.003) == 0.0


def test_fee_over_path_round_trip():
    # down leg earns the same as the up leg it retraces: fees depend on
    # |sqrt dp| of the clipped segment, not direction
    L, pa, pb = band()
    total = fee_over_path(L, pa, pb, [1.0, 1.21, 1.0], 0.003)
    assert total == pytest.approx(0.0006018054162487464, rel=1e-12)
    with pytest.raises(ValueError):
        fee_over_path(L, pa, pb, [], 0.003)
    assert fee_over_path(L, pa, pb, [2.0], 0.003) == 0.0


def test_fee_additivity_on_monotone_moves():
    rng = np.random.default_rng(13)
    for _ in range(300):
        L, pa, pb, _ = random_band_and_path(rng, n_moves=0)
        p0 = pa * 0.8
        p2 = pb * 1.2
        p1 = float(rng.uniform(p0, p2))
        whole = fee_one_move(L, pa, pb, p0, p2, 0.003)
        split = fee_one_move(L, pa, pb, p0, p1, 0.003) + fee_one_move(
            L, pa, pb, p1, p2, 0.003
        )
        assert split == pytest.approx(whole, rel=1e-12, abs=1e-15)
        # downward
        whole_d = fee_one_move(L, pa, pb, p2, p0, 0.003)
        split_d = fee_one_move(L, pa, pb, p2, p1, 0.003) + fee_one_move(
            L, pa, pb, p1, p0, 0.003
        )
        assert split_d == pytest.approx(whole_d, rel=1e-12, abs=1e-15)
        assert whole_d == pytest.approx(whole, rel=1e-12)


def test_fee_nonnegative_and_zero_fee_tier():
    rng = np.random.default_rng(17)
    for _ in range(200):
        L, pa, pb, path = random_band_and_path(rng)
        assert fee_over_path(L, pa, pb, path, 0.003) >= 0.0
    assert fee_one_move(1.0, 1.0, 4.0, 1.0, 2.0, 0.0) == 0.0


def test_fee_matches_micro_step_oracle():
    rng = np.random.default_rng(19)
    for _ in range(50):
        L, pa, pb, path = random_band_and_path(rng)
        closed = fee_over_path(L, pa, pb, path, 0.003)
        brute = micro_fee_oracle(L, pa, pb, path, 0.003, n_micro=2000)
        assert closed == pytest.approx(brute, rel=1e-9, abs=1e-15)


def test_liquidity_for_budget_example():
    assert amm.liquidity_for_budget(0.875, 2.25, 1.0, 4.0) == pytest.approx(1.0, rel=1e-12)


def test_liquidity_for_budget_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(500):
        L, pa, pb, path = random_band_and_path(rng, n_moves=1)
        budget = float(rng.uniform(0.01, 1000.0))
        for p in path:
            got = amm.liquidity_for_budget(budget, p, pa, pb)
            back = amm.position_value(got, pa, pb, p)
            assert back == pytest.approx(budget, rel=1e-9)
    assert amm.liquidity_for_budget(0.0, 2.0, 1.0, 4.0) == 0.0
    with pytest.raises(ValueError):
        amm.liquidity_for_budget(-1.0, 2.0, 1.0, 4.0)


def test_band_for_center():
    lo, hi = amm.band_for_center(0, 1, 60)
    assert lo == pytest.approx(1.0 / 1.0001**60, rel=1e-15)
    assert hi == pytest.approx(1.0001**60, rel=1e-15)
    lo2, hi2 = amm.band_for_center(120, 3, 60)
    assert lo2 == pytest.approx(amm.tick_to_price(-60), rel=1e-15)
    assert hi2 == pytest.approx(amm.tick_to_price(300), rel=1e-15)
    with pytest.raises(ValueError):
        amm.band_for_center(30, 1, 60)
    with pytest.raises(ValueError):
        amm.band_for_center(0, 0, 60)


def test_value_oracle_agreement_randomized():
    rng = np.random.default_rng(29)
    for _ in range(300):
        L, pa, pb, path = random_band_and_path(rng, n_moves=3)
        for p in path:
            assert amm.position_value(L, pa, pb, p) == pytest.approx(
                value_oracle(L, pa, pb, p), rel=1e-12, abs=1e-15
            )
