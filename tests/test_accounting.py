import math
import struct
import sys

import numpy as np
import pytest

import oracles
from clmmlab import accounting, backtest, baselines, env, toymdp, verification
from clmmlab.amm import LOG_TICK_BASE, LiquidityPosition, tick_to_price
from clmmlab.marketdata import synth_gbm
from oracles import (hedge_pnl_over_path, instantaneous_lvr_rate, lvr_vform_oracle,
                     random_band_and_path, refine_path)


def ref_position():
    return LiquidityPosition(1.0, 4.0, 1.0)


def test_lvr_two_point_example():
    pos = ref_position()
    total, steps = oracles.lvr_over_path(pos, [2.25, 1.0])
    assert total == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert len(steps) == 1
    assert steps[0].lvr == total
    assert steps[0].value_change == pytest.approx(-0.375, rel=1e-12)
    lvr, fee, dv, _, value = accounting.lvr_over_path(pos, [2.25, 1.0])
    assert (lvr, fee, dv) == (total, 0.0, steps[0].value_change)
    assert value == pos.value(1.0)


def test_lvr_round_trip_path():
    # down-then-back is not symmetric: the second leg starts from a larger
    # base-token inventory, so it loses more
    pos = ref_position()
    total, steps = oracles.lvr_over_path(pos, [2.25, 1.0, 2.25])
    assert total == pytest.approx(-5.0 / 12.0, rel=1e-12)
    assert accounting.lvr_over_path(pos, [2.25, 1.0, 2.25])[0] == total
    assert steps[0].lvr == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert steps[1].lvr == pytest.approx(-0.25, rel=1e-12)


def test_lvr_increments_nonpositive_randomized():
    rng = np.random.default_rng(31)
    for _ in range(500):
        L, pa, pb, path = random_band_and_path(rng, n_moves=10)
        pos = LiquidityPosition(pa, pb, L)
        _, steps = oracles.lvr_over_path(pos, path)
        for s in steps:
            assert s.lvr <= 1e-12 * max(1.0, abs(s.value_change))
        assert accounting.lvr_over_path(pos, path)[0] <= 1e-9


def test_lvr_two_forms_agree():
    rng = np.random.default_rng(37)
    for _ in range(300):
        L, pa, pb, path = random_band_and_path(rng, n_moves=8)
        pos = LiquidityPosition(pa, pb, L)
        total = accounting.lvr_over_path(pos, path)[0]
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
        coarse = accounting.lvr_over_path(pos, path)[0]
        fine = accounting.lvr_over_path(pos, refine_path(path, 16))[0]
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
        lvr_total, _, dv, hedge_total, _ = accounting.lvr_over_path(pos, path)
        hedge = hedge_pnl_over_path(pos, path)
        assert hedge_total == hedge
        scale = max(1.0, abs(dv), abs(lvr_total))
        # sum dV = sum x*dp + lvr  <=>  hedge = lvr - sum dV
        assert abs(hedge - (lvr_total - dv)) <= 1e-9 * scale
        # per-step identity
        _, steps = oracles.lvr_over_path(pos, path)
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
    with pytest.raises(ValueError):
        oracles.lvr_over_path(pos, [])
    total, steps = oracles.lvr_over_path(pos, [2.0])
    assert total == 0.0 and steps == []
    assert accounting.lvr_over_path(pos, [2.0]) == (0.0, 0.0, 0.0, 0.0, pos.value(2.0))


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
        sims.append(accounting.lvr_over_path(pos, [p0, float(q)])[0])
    mean = float(np.mean(sims))
    expected = 0.5 * instantaneous_lvr_rate(pos, p0, sigma) * dt
    se = float(np.std(sims)) / np.sqrt(n)
    assert abs(mean - expected) < 5 * se + 0.02 * abs(expected)



# -- the totals kernel against the per-move oracle walk ---------------------

ZERO = float.hex(0.0)


def hexes(totals):
    return [float.hex(v) for v in totals]


def assert_kernel_matches_oracle(pos, path, fee_tier):
    got = accounting.lvr_over_path(pos, path, fee_tier=fee_tier)
    want = oracles.ledger_totals(pos, path, fee_tier=fee_tier)
    assert hexes(got) == hexes(want), (pos, path, fee_tier)


def random_case(rng, log_lo, log_hi):
    """A band of random log-width in [1e-6, 10] inside exp([log_lo, log_hi]),
    a 2-6 point path around it, some points exactly on pa or pb."""
    width = math.exp(rng.uniform(math.log(1e-6), math.log(10.0)))
    lo = rng.uniform(log_lo, log_hi - width)
    pa, pb = math.exp(lo), math.exp(lo + width)
    liquidity = math.exp(rng.uniform(-5.0, 10.0))
    path = []
    for _ in range(int(rng.integers(2, 7))):
        u = rng.random()
        if u < 0.15:
            path.append(pa)
        elif u < 0.3:
            path.append(pb)
        else:
            path.append(math.exp(rng.uniform(lo - width, lo + 2.0 * width)))
    return LiquidityPosition(pa, pb, liquidity), path


@pytest.mark.parametrize("fee_tier", [0.0, 0.003])
def test_kernel_bitwise_random_bands(fee_tier):
    rng = np.random.default_rng(101)
    log_lim = math.log(1e10)
    for _ in range(10_000):
        pos, path = random_case(rng, -log_lim, log_lim)
        assert_kernel_matches_oracle(pos, path, fee_tier)


@pytest.mark.parametrize("fee_tier", [0.0, 0.003])
def test_kernel_bitwise_near_tick_limits(fee_tier):
    rng = np.random.default_rng(103)
    lim = 887_272 * LOG_TICK_BASE
    for _ in range(2_000):
        pos, path = random_case(rng, lim - 12.0, lim)
        assert_kernel_matches_oracle(pos, path, fee_tier)
        pos, path = random_case(rng, -lim, -lim + 12.0)
        assert_kernel_matches_oracle(pos, path, fee_tier)
    for lower, upper in [(887_212, 887_272), (-887_272, -887_212), (-887_272, 887_272)]:
        pos = LiquidityPosition(tick_to_price(lower), tick_to_price(upper), 1e6)
        pa, pb = pos.price_lower, pos.price_upper
        for path in ([pa, pb], [pb, pa, math.sqrt(pa * pb), pb], [pa * 0.5, pb * 2.0]):
            assert_kernel_matches_oracle(pos, path, fee_tier)


@pytest.mark.parametrize("fee_tier", [0.0, 0.003])
def test_kernel_bitwise_on_band_edges(fee_tier):
    pos = ref_position()
    edge_paths = [[1.0, 4.0], [4.0, 1.0], [1.0, 1.0, 4.0, 4.0], [0.5, 1.0, 2.0, 4.0, 9.0],
                  [4.0, 2.25, 1.0, 0.25], [1.0, 2.25], [2.25, 4.0]]
    for path in edge_paths:
        assert_kernel_matches_oracle(pos, path, fee_tier)


@pytest.mark.parametrize("fee_tier", [0.0, 0.003])
def test_kernel_flat_and_one_point_paths_are_float_zero(fee_tier):
    pos = ref_position()
    for p in [0.25, 1.0, 2.25, 4.0, 9.0, 1e-10, 1e10]:
        for path in ([p], [p, p], [p] * 5):
            got = accounting.lvr_over_path(pos, path, fee_tier=fee_tier)
            assert all(type(v) is float for v in got)
            assert hexes(got) == [ZERO] * 4 + [float.hex(pos.value(p))]
        # the old walker summed an empty step list to the int 0
        assert oracles.ledger_totals(pos, [p], fee_tier=fee_tier)[1:4] == (0, 0, 0)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_kernel_rejects_bad_price_like_the_oracle(bad, where):
    pos = ref_position()
    path = [2.0, 1.5, 3.0, 0.5, 5.0]
    path[where] = bad
    with pytest.raises(ValueError) as got:
        accounting.lvr_over_path(pos, path, fee_tier=0.003)
    with pytest.raises(ValueError) as want:
        oracles.lvr_over_path(pos, path, fee_tier=0.003)
    assert str(got.value) == str(want.value) == f"price must be positive and finite, got {bad}"
    with pytest.raises(ValueError, match="^price path is empty$"):
        accounting.lvr_over_path(pos, [], fee_tier=0.003)


# -- the one walk body on arrays, against the branchy float walk ------------


def branchy_with_value(pos, path, fee_tier):
    return oracles.ledger_totals_branchy(pos, path, fee_tier=fee_tier) + (pos.value(path[-1]),)


def stacked(bands):
    return baselines.Bands(*(np.array([getattr(b, f) for b in bands])
                             for f in baselines.Bands._fields))


def assert_array_kernel_matches_oracle(bands, hours, fee_tier):
    """K bands against h hours of P points each, in one array call: each
    (hour, band) entry has the bits of the branchy walk on floats."""
    path = np.array(hours, dtype=float).T[:, :, None]  # (points, hours, 1)
    shape = (len(hours), len(bands))
    got = accounting.lvr_over_path(stacked(bands), path, fee_tier=fee_tier)
    assert got[4].shape == shape
    if len(hours[0]) == 1:  # no move: the totals stay the float 0.0
        assert got[:4] == (0.0, 0.0, 0.0, 0.0)
    got = [np.broadcast_to(g, shape) for g in got]
    for j, hour in enumerate(hours):
        for k, pos in enumerate(bands):
            want = branchy_with_value(pos, hour, fee_tier)
            assert hexes(g[j, k] for g in got) == hexes(want), (pos, hour, fee_tier)
            # and the float call of the same body
            assert hexes(accounting.lvr_over_path(pos, hour, fee_tier=fee_tier)) == hexes(want)


def random_block(rng, log_lo, log_hi):
    """K random bands and h random hours of a common length, each hour
    around one of the bands, as random_case draws them."""
    n_points = int(rng.integers(1, 7))
    bands, hours = [], []
    for _ in range(int(rng.integers(2, 6))):
        pos, _ = random_case(rng, log_lo, log_hi)
        bands.append(pos)
    for _ in range(int(rng.integers(2, 5))):
        path = []
        while len(path) < n_points:
            path += random_case(rng, log_lo, log_hi)[1]
        hours.append(path[:n_points])
    # hours that visit a band's edges and its inside
    pos = bands[0]
    mid = math.sqrt(pos.price_lower * pos.price_upper)
    hours.append(([pos.price_lower, mid, pos.price_upper] * n_points)[:n_points])
    return bands, hours


@pytest.mark.parametrize("fee_tier", [0.0, 0.003])
def test_array_kernel_bitwise_random_blocks(fee_tier):
    rng = np.random.default_rng(107)
    log_lim = math.log(1e10)
    for _ in range(300):
        bands, hours = random_block(rng, -log_lim, log_lim)
        assert_array_kernel_matches_oracle(bands, hours, fee_tier)
    # one range for bands and prices, so that hours cross the bands
    for _ in range(300):
        bands, hours = random_block(rng, 2.0, 14.0)
        assert_array_kernel_matches_oracle(bands, hours, fee_tier)


@pytest.mark.parametrize("fee_tier", [0.0, 0.003])
def test_array_kernel_bitwise_near_tick_limits(fee_tier):
    rng = np.random.default_rng(109)
    lim = 887_272 * LOG_TICK_BASE
    for lo, hi in [(lim - 12.0, lim), (-lim, -lim + 12.0)]:
        for _ in range(100):
            assert_array_kernel_matches_oracle(*random_block(rng, lo, hi), fee_tier)
    bands = [LiquidityPosition(tick_to_price(lower), tick_to_price(upper), 1e6)
             for lower, upper in [(887_212, 887_272), (-887_272, -887_212),
                                  (-887_272, 887_272)]]
    edges = sorted({p for b in bands for p in (b.price_lower, b.price_upper)})
    hours = [[edges[0], edges[-1], edges[1]], [edges[-1] * 2.0, edges[0] * 0.5, edges[2]]]
    assert_array_kernel_matches_oracle(bands, hours, fee_tier)


@pytest.mark.parametrize("fee_tier", [0.0, 0.003])
def test_array_kernel_flat_and_gap_filled_hours(fee_tier):
    """A gap-filled candle repeats the previous close at every point, and a
    flat hour earns, loses and moves nothing: float zeros, as on floats."""
    bands = [ref_position(), LiquidityPosition(0.5, 2.0, 3.0), LiquidityPosition(8.0, 9.0, 0.1)]
    for p in [0.25, 1.0, 2.25, 4.0, 9.0, 1e-10, 1e10]:
        for n_points in (1, 3, 5):
            hours = [[p] * n_points, [p] * n_points]
            assert_array_kernel_matches_oracle(bands, hours, fee_tier)
            path = np.array(hours).T[:, :, None]
            totals = accounting.lvr_over_path(stacked(bands), path, fee_tier)[:4]
            assert all(hexes(np.broadcast_to(v, (2, 3)).ravel()) == [ZERO] * 6
                       for v in totals)
    # a gap-filled hour between two live ones
    hours = [[1.1, 1.5, 0.9, 3.0, 2.0], [2.0] * 5, [2.0, 2.5, 1.8, 9.5, 4.5]]
    assert_array_kernel_matches_oracle(bands, hours, fee_tier)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, float("nan"), float("inf"), -float("inf")])
def test_array_kernel_rejects_first_bad_price_in_walk_order(bad):
    """Walk order is hour by hour: a bad point late in an early hour is
    reported before a bad point early in a later hour."""
    hours = [[2.0, 1.5, 3.0, 0.5, 5.0] for _ in range(3)]
    hours[1][3] = bad
    hours[2][1] = -7.0
    path = np.array(hours).T[:, :, None]
    bands = stacked([ref_position(), LiquidityPosition(0.5, 2.0, 3.0)])
    with pytest.raises(ValueError) as got:
        accounting.lvr_over_path(bands, path, fee_tier=0.003)
    assert str(got.value) == f"price must be positive and finite, got {bad}"
    with pytest.raises(ValueError, match="^price path is empty$"):
        accounting.lvr_over_path(bands, np.empty((0, 3, 1)), fee_tier=0.003)


class TestCallersReplayBitwiseOnOracle:
    """Every ledger caller gives identical output when the kernel is swapped
    for the per-move oracle walk (summed with sum(), as callers once did)."""

    def check(self, monkeypatch, fn):
        """fn returns a list of records; compare their reprs one by one."""
        got = fn()
        with monkeypatch.context() as m:
            for mod in (env, baselines, toymdp, verification):
                m.setattr(mod, "lvr_over_path", oracles.ledger_totals)
            want = fn()
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert repr(g) == repr(w)

    @pytest.mark.parametrize("path_model", ["candle", "open-close"])
    def test_tau_reset(self, monkeypatch, path_model):
        """run_tau_reset walks arrays, which the float oracle ledger cannot:
        its output is compared with the env replay run on that ledger."""
        candles = synth_gbm(2000.0, 0.0, 0.012, 520, seed=23)

        def run(replay):
            out = []
            for tau in (1, 3, 10):
                out += replay(candles, 1, 300, tau, env.EnvConfig(path_model=path_model))
            return out

        got = run(lambda *args: oracles.trace_records(baselines.run_tau_reset(*args)))
        with monkeypatch.context() as m:
            m.setattr(env, "lvr_over_path", oracles.ledger_totals)
            want = run(oracles.run_tau_reset)
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert repr(g) == repr(w)

    @pytest.mark.parametrize("path_model", ["candle", "open-close"])
    def test_ewa(self, path_model):
        """run_ewa walks arrays, which the float oracle ledger cannot: its
        output is compared with the per-width replay run on that ledger."""
        candles = synth_gbm(2000.0, 0.0, 0.012, 520, seed=29)

        def run(replay, **kwargs):
            out = []
            for n, eta, t_re in [(10, 1.0, 24), (4, 2.0, 1)]:
                records, w = replay(
                    candles, 210, 300, baselines.EWAConfig(n, eta, t_re),
                    env.EnvConfig(l0=500.0, path_model=path_model), **kwargs)
                out += records + [w.tobytes()]
            return out

        def ewa(*args):
            trace, weights = baselines.run_ewa(*args)
            return oracles.trace_records(trace), weights

        got = run(ewa)
        want = run(oracles.run_ewa_per_width, walk=oracles.ledger_totals)
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert repr(g) == repr(w)

    def test_drift_study(self, monkeypatch):
        """The study's tau-reset walks arrays: the oracle side replays the
        env tau-reset on the oracle ledger."""
        got = backtest.drift_neutrality_study(n_seeds=3, horizon=60)
        with monkeypatch.context() as m:
            m.setattr(env, "lvr_over_path", oracles.ledger_totals)
            m.setattr(backtest, "run_tau_reset", lambda *args: env.HourTrace.of_records(
                oracles.run_tau_reset(*args)))
            want = backtest.drift_neutrality_study(n_seeds=3, horizon=60)
        assert repr(got) == repr(want)

    def test_tabular_rewards(self, monkeypatch):
        self.check(monkeypatch, lambda: [toymdp.build_tabular_mdp()[1].tobytes()])

    def test_identity_and_fee_criteria(self, monkeypatch):
        self.check(monkeypatch, lambda: [
            verification.check_accounting_identity(n_trials=300).detail,
            verification.check_fee_oracle(n_paths=40, n_micro=500).detail])


def _bits(x):
    return struct.pack("<d", x)


def _adversarial_sums(rng, n_cases=300):
    """Sequences built to expose summation order: cancellation, +-0.0, subnormals."""
    tiny = 5e-324
    yield []
    yield [-0.0]
    yield [-0.0, -0.0]
    yield [0.0, -0.0]
    yield [tiny, -tiny, tiny]
    yield [1e16, 1.0, -1e16]
    yield [1.0, 1e100, 1.0, -1e100]
    for _ in range(n_cases):
        n = int(rng.integers(1, 40))
        big = 10.0 ** rng.integers(-320, 300, size=n)
        xs = list(rng.choice([-1.0, 1.0], size=n) * big * rng.uniform(0.5, 2.0, size=n))
        for i in rng.integers(0, n, size=n // 3):
            xs.insert(int(i), -xs[int(i)])  # exact cancellation partners
        for i in rng.integers(0, len(xs), size=n // 4):
            xs[int(i)] = float(rng.choice([0.0, -0.0, tiny, -tiny]))
        yield [float(x) for x in xs]


def test_ordered_sum_is_the_left_to_right_sum():
    rng = np.random.default_rng(41)
    for xs in _adversarial_sums(rng):
        want = 0.0
        for x in xs:
            want += x
        got = accounting.ordered_sum(xs)
        assert type(got) is float
        assert _bits(got) == _bits(want), xs
        assert _bits(accounting.ordered_sum(iter(xs))) == _bits(want)
        if sys.version_info < (3, 12):
            assert _bits(got) == _bits(float(sum(xs))), xs
    assert accounting.ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert _bits(accounting.ordered_sum([-0.0])) == _bits(0.0)
    assert _bits(accounting.ordered_sum([])) == _bits(0.0)


def test_ordered_sum_of_a_column_equals_the_loop_oracle():
    """Columns as BacktestResult.total passes them: arrays of lengths 0 to
    20,000, mixing scales, signed zeros, subnormals and cancellations."""
    rng = np.random.default_rng(43)
    tiny = 5e-324
    columns = [np.array([]), np.array([-0.0]), np.full(7, -0.0), np.array([-0.0, 0.0]),
               np.array([0.0, -0.0, -0.0]), np.array([1e308, 1e308, -1e308]),
               np.array([tiny, -tiny]), np.array([math.inf, 1.0]),
               np.array([math.nan, -0.0])]
    for _ in range(200):
        n = int(rng.integers(0, 20_001)) if rng.random() < 0.2 else int(rng.integers(0, 60))
        xs = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
        zeros = rng.integers(0, n + 1, size=n // 3)
        xs[zeros[zeros < n]] = rng.choice([0.0, -0.0, tiny, -tiny], size=int((zeros < n).sum()))
        if n > 1 and rng.random() < 0.3:
            xs = np.concatenate([xs, -xs[::-1]])  # exact cancellation partners
        columns.append(xs)
    for xs in columns:
        with np.errstate(over="ignore", invalid="ignore"):
            got = accounting.ordered_sum(xs)
        want = oracles.ordered_sum(xs.tolist())
        assert type(got) is float
        assert _bits(got) == _bits(want), (len(xs), got, want)
