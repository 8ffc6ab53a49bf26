import tracemalloc
import types

import numpy as np
import pytest

import oracles
from clmmlab import features
from clmmlab import indicators as ind
from clmmlab.marketdata import bundled_candles_path, load_candles_csv, synth_gbm


def constant_bars(n=300, price=100.0):
    p = np.full(n, price)
    return p.copy(), p.copy(), p.copy(), p.copy()  # o, h, l, c


def random_bars(n=400, seed=0):
    rng = np.random.default_rng(seed)
    c = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, n)))
    o = np.concatenate([[c[0]], c[:-1]])
    spread = np.abs(rng.normal(0, 0.002, n)) + 1e-6
    h = np.maximum(o, c) * (1 + spread)
    l = np.minimum(o, c) / (1 + spread)
    v = 1e6 * (1 + np.abs(rng.normal(0, 1, n)))
    return o, h, l, c, v


def test_sma_and_ema_hand_values():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    s = ind.sma(x, 3)
    assert np.isnan(s[1])
    assert s[2] == pytest.approx(2.0)
    assert s[4] == pytest.approx(4.0)
    e = ind.ema(x, 3)
    # seed = mean(1,2,3) = 2; alpha = 0.5
    assert e[2] == pytest.approx(2.0)
    assert e[3] == pytest.approx(3.0)
    assert e[4] == pytest.approx(4.0)


def test_dema_on_linear_ramp_tracks_ramp():
    # double EMA compensates the EMA lag exactly on a straight line, in the
    # steady state
    x = np.arange(1.0, 301.0)
    d = ind.dema(x, 10)
    assert d[-1] == pytest.approx(x[-1], rel=1e-6)


def test_momentum_ramp():
    x = np.arange(300.0) + 300.0
    m = ind.momentum(x, 10)
    assert m[50] == pytest.approx(10.0)
    assert np.isnan(m[9])


def test_cmo_strictly_increasing_is_100():
    x = np.cumsum(np.ones(50)) + 100.0
    c = ind.cmo(x, 14)
    assert c[20] == pytest.approx(100.0)
    down = ind.cmo(x[::-1].copy(), 14)
    assert down[20] == pytest.approx(-100.0)


def test_true_range_uses_prev_close():
    h = np.array([10.0, 12.0, 11.0])
    l = np.array([9.0, 10.5, 10.0])
    c = np.array([9.5, 11.0, 10.2])
    tr = ind.true_range(h, l, c)
    assert np.isnan(tr[0])
    assert tr[1] == pytest.approx(max(12.0 - 10.5, abs(12.0 - 9.5), abs(10.5 - 9.5)))
    assert tr[2] == pytest.approx(max(11.0 - 10.0, abs(11.0 - 11.0), abs(10.0 - 11.0)))


def test_constant_series_degenerate_values():
    o, h, l, c = constant_bars()
    assert np.all(ind.bop(o, h, l, c) == 0.0)
    assert ind.cmo(c, 14)[250] == 0.0
    assert ind.cci(h, l, c, 14)[250] == 0.0
    plus, minus, dx, adx = ind.directional(h, l, c)
    assert plus[250] == minus[250] == dx[250] == adx[250] == 0.0
    assert ind.true_range(h, l, c)[250] == 0.0
    assert ind.natr(h, l, c, 14)[250] == 0.0
    assert [out[250] for out in ind.stochastics(h, l, c)] == [0.0] * 4
    assert ind.ultimate_oscillator(h, l, c)[250] == 0.0
    assert ind.aroon_osc(h, l, 14)[250] == 0.0
    assert ind.parabolic_sar(h, l)[250] == pytest.approx(100.0)
    assert ind.dema(c, 30)[250] == pytest.approx(100.0)
    assert ind.trix(c, 30)[250] == 0.0
    assert ind.apo(c)[250] == 0.0
    # Hilbert outputs finite on flat input
    assert np.isfinite(ind.ht_dc_period(c)[250])
    assert np.isfinite(ind.ht_dc_phase(c, ind.ht_dc_period(c))[250])


def test_oscillator_ranges():
    o, h, l, c, v = random_bars(seed=3)
    _, _, dx, adx = ind.directional(h, l, c)
    for arr, lo, hi in [
        (adx, 0.0, 100.0),
        (dx, 0.0, 100.0),
        (ind.cmo(c, 14), -100.0, 100.0),
        (ind.aroon_osc(h, l, 14), -100.0, 100.0),
        (ind.ultimate_oscillator(h, l, c), 0.0, 100.0),
        (ind.bop(o, h, l, c), -1.0, 1.0),
        *((out, 0.0, 100.0) for out in ind.stochastics(h, l, c)),
    ]:
        vals = arr[np.isfinite(arr)]
        assert np.all(vals >= lo - 1e-9) and np.all(vals <= hi + 1e-9)


def test_plus_minus_dm_nonnegative_and_trend_sensitive():
    o, h, l, c, v = random_bars(seed=5)
    p, m, _, _ = ind.directional(h, l, c)
    assert np.all(p[np.isfinite(p)] >= 0.0)
    assert np.all(m[np.isfinite(m)] >= 0.0)
    # strict uptrend: no minus DM at all
    up = np.arange(100.0) + 100.0
    p, m, _, _ = ind.directional(up, up - 0.5, up)
    assert np.all(m[20:] == 0.0)
    assert np.all(p[20:] > 0.0)


def test_adx_rises_in_persistent_trend():
    n = 300
    up = 100.0 * 1.01 ** np.arange(n)
    h = up * 1.001
    l = up * 0.999
    a = ind.directional(h, l, up)[3]
    assert a[-1] > 90.0


def test_sar_flips_below_uptrend_above_downtrend():
    n = 120
    up = 100.0 * 1.01 ** np.arange(n)
    h, l = up * 1.001, up * 0.999
    s = ind.parabolic_sar(h, l)
    assert np.all(s[5:] < l[5:])
    down = up[::-1].copy()
    h2, l2 = down * 1.001, down * 0.999
    s2 = ind.parabolic_sar(h2, l2)
    assert np.all(s2[5:] > h2[5:])


def test_stochastic_extremes():
    n = 60
    up = np.arange(n) + 100.0
    h, l = up + 0.5, up - 0.5
    slow_k, slow_d, fast_k, fast_d = ind.stochastics(h, l, up)
    # in a steady uptrend the close sits near the top of every window
    assert slow_k[-1] > 80.0
    assert fast_k[-1] > 80.0


def test_trix_sign_follows_trend():
    n = 300
    up = 100.0 * 1.002 ** np.arange(n)
    assert ind.trix(up, 30)[-1] > 0.0
    assert ind.trix(up[::-1].copy(), 30)[-1] < 0.0


def test_ht_dc_period_bounds_and_cycle_detection():
    n = 600
    t = np.arange(n)
    x = 100.0 + 5.0 * np.sin(2 * np.pi * t / 20.0)
    per = ind.ht_dc_period(x)
    tail = per[400:]
    assert np.all(np.isfinite(tail))
    assert np.all((tail >= 6.0) & (tail <= 50.0))
    # a clean 20-bar cycle should be picked up within a couple of bars
    assert abs(float(np.median(tail)) - 20.0) < 3.0


def test_ht_dc_phase_finite_and_bounded():
    o, h, l, c, v = random_bars(600, seed=11)
    ph = ind.ht_dc_phase(c, ind.ht_dc_period(c))
    tail = ph[200:]
    assert np.all(np.isfinite(tail))
    assert np.all((tail > -360.0) & (tail < 360.0))


def test_warmup_prefixes_are_nan_then_finite():
    o, h, l, c, v = random_bars(400, seed=13)
    for arr in [
        ind.dema(c, 30),
        *ind.directional(h, l, c),
        ind.trix(c, 30),
        ind.ultimate_oscillator(h, l, c),
        *ind.stochastics(h, l, c),
        ind.ht_dc_period(c),
        ind.ht_dc_phase(c, ind.ht_dc_period(c)),
        ind.natr(h, l, c, 14),
    ]:
        assert np.isnan(arr[0])
        assert np.all(np.isfinite(arr[200:]))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        ind.true_range(np.ones(5), np.ones(4), np.ones(5))
    with pytest.raises(ValueError):
        ind.apo(np.ones(50), 26, 12)
    with pytest.raises(ValueError):
        ind.sma(np.ones(5), 0)


# -- bitwise agreement with the loop oracles -------------------------------

# every indicator the loop oracles cover, at the feature layer's periods and
# one shorter one; each call maps (module, o, h, l, c) to a tuple of arrays
ORACLE_CALLS = {
    "ema_30": lambda m, o, h, l, c: (m.ema(c, 30),),
    "ema_5": lambda m, o, h, l, c: (m.ema(c, 5),),
    "dema": lambda m, o, h, l, c: (m.dema(c, 30),),
    "true_range": lambda m, o, h, l, c: (m.true_range(h, l, c),),
    "directional": lambda m, o, h, l, c: m.directional(h, l, c),
    "aroon_osc": lambda m, o, h, l, c: (m.aroon_osc(h, l),),
    "cci_14": lambda m, o, h, l, c: (m.cci(h, l, c),),
    "cci_30": lambda m, o, h, l, c: (m.cci(h, l, c, 30),),
    "cmo": lambda m, o, h, l, c: (m.cmo(c),),
    "trix": lambda m, o, h, l, c: (m.trix(c),),
    "ultimate_oscillator": lambda m, o, h, l, c: (m.ultimate_oscillator(h, l, c),),
    # slow %K and %D, then fast %K and %D: the loop oracle runs each stochastic
    "stochastic": lambda m, o, h, l, c: m.stochastics(h, l, c)[:2],
    "stochastic_fast": lambda m, o, h, l, c: m.stochastics(h, l, c)[2:],
    "natr": lambda m, o, h, l, c: (m.natr(h, l, c),),
    "parabolic_sar": lambda m, o, h, l, c: (m.parabolic_sar(h, l),),
    "ht_dc_period": lambda m, o, h, l, c: (m.ht_dc_period(c),),
    "ht_dc_phase": lambda m, o, h, l, c: (m.ht_dc_phase(c, m.ht_dc_period(c)),),
}


def assert_bit_equal(got, want):
    """Equal float64 bit patterns: NaN positions and signed zeros count."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def walk_bars(n, scale, seed, flat_runs=()):
    """Random-walk OHLC bars around `scale`; each (start, stop) in
    flat_runs repeats the previous close as a zero-range bar, like a gap
    filled with the last price."""
    o, h, l, c, _ = random_bars(n, seed)
    o, h, l, c = (a * (scale / 100.0) for a in (o, h, l, c))
    for start, stop in flat_runs:
        for i in range(max(start, 1), min(stop, n)):
            o[i] = h[i] = l[i] = c[i] = c[i - 1]
    return o, h, l, c


GAPS = ((10, 26), (40, 45), (60, 61), (300, 380), (1500, 1510))


def oracle_series():
    """(label, o, h, l, c): every length 1..70 and 3,201 of a walk, a
    gap-filled walk and flat bars at three price scales, plus the fixture."""
    out = []
    for scale in (1e-10, 1.0, 1e10):
        series = {"walk": walk_bars(3201, scale, seed=21),
                  "gaps": walk_bars(3201, scale, seed=22, flat_runs=GAPS),
                  "flat": tuple(np.full(3201, scale) for _ in range(4))}
        for kind, bars in series.items():
            for n in list(range(1, 71)) + [3201]:
                out.append((f"{kind}-{scale:g}-{n}", *(a[:n].copy() for a in bars)))
    _, o, h, l, c, _ = load_candles_csv(bundled_candles_path()).columns
    out.append(("fixture", o, h, l, c))
    return out


@pytest.fixture(scope="module")
def series_for_oracles():
    return oracle_series()


@pytest.mark.parametrize("name", sorted(ORACLE_CALLS))
def test_array_passes_match_loop_oracle_bit_for_bit(name, series_for_oracles):
    call = ORACLE_CALLS[name]
    for label, o, h, l, c in series_for_oracles:
        got = call(ind, o, h, l, c)
        want = call(oracles, o, h, l, c)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            try:
                assert_bit_equal(g, w)
            except AssertionError as e:
                raise AssertionError(f"{name} differs on {label}") from e


def test_oracle_table_covers_every_loop_indicator():
    covered = {call.__code__.co_names[0] for call in ORACLE_CALLS.values()}
    assert covered == set(oracles.LOOP_INDICATORS)


def test_empty_series_give_empty_outputs():
    empty = np.array([])
    outs = [out for call in ORACLE_CALLS.values()
            for out in call(ind, empty, empty, empty, empty)]
    outs += [ind.sma(empty, 3), ind.apo(empty), ind.bop(empty, empty, empty, empty),
             ind.momentum(empty)]
    assert [out.shape for out in outs] == [(0,)] * len(outs)


@pytest.mark.parametrize("candles", [
    load_candles_csv(bundled_candles_path()),
    synth_gbm(2000.0, 0.0, 0.01, 3201, seed=9001),
], ids=["fixture", "gbm-3201"])
def test_feature_matrix_equals_oracle_matrix(candles, monkeypatch):
    got = features.compute_feature_matrix(candles)
    loops = {name: getattr(oracles, name) for name in oracles.LOOP_INDICATORS}
    monkeypatch.setattr(features, "ind", types.SimpleNamespace(**dict(vars(ind), **loops)))
    want = features.compute_feature_matrix(candles)
    assert_bit_equal(got, want)


def test_feature_matrix_runs_the_hilbert_pass_once(monkeypatch):
    candles = synth_gbm(2000.0, 0.0, 0.01, 800, seed=5)
    c = candles.close
    calls = []
    real = ind._hilbert_period

    def counted(x):
        calls.append(len(x))
        return real(x)

    monkeypatch.setattr(ind, "_hilbert_period", counted)
    matrix = features.compute_feature_matrix(candles)
    assert calls == [len(candles)]
    # columns 26-27 are the two indicators, the phase on the period column
    assert_bit_equal(matrix[:, 26], ind.ht_dc_period(c))
    assert_bit_equal(matrix[:, 27], ind.ht_dc_phase(c, ind.ht_dc_period(c)))


def test_feature_matrix_runs_the_raw_stochastic_once(monkeypatch):
    candles = synth_gbm(2000.0, 0.0, 0.01, 800, seed=5)
    calls = []
    real = ind._raw_stochastic

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(ind, "_raw_stochastic", counted)
    matrix = features.compute_feature_matrix(candles)
    assert calls == [len(candles)]
    assert_bit_equal(matrix[:, 20], matrix[:, 23])  # slow %K is fast %D


def test_feature_matrix_reaches_every_public_indicator(monkeypatch):
    """Every public function the module defines runs in one feature matrix:
    an indicator no column reads has no place in the package."""
    public = [name for name, fn in vars(ind).items()
              if isinstance(fn, types.FunctionType) and not name.startswith("_")
              and fn.__module__ == ind.__name__]
    reached = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in public:
        monkeypatch.setattr(ind, name, recording(name, getattr(ind, name)))
    features.compute_feature_matrix(load_candles_csv(bundled_candles_path()))
    assert sorted(reached) == sorted(public)


@pytest.mark.parametrize("k", [1e-10, 1e-4, 1e-3, 1e4, 1e10])
def test_ht_dc_phase_does_not_change_with_the_price_scale(k):
    """The phase of prices times k is the phase of the prices, modulo 360
    degrees; the near-zero test on the DFT's imaginary part is relative."""
    c = load_candles_csv(bundled_candles_path()).close
    want = ind.ht_dc_phase(c, ind.ht_dc_period(c))
    got = ind.ht_dc_phase(c * k, ind.ht_dc_period(c * k))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    turn = (got - want + 180.0) % 360.0 - 180.0
    assert np.nanmax(np.abs(turn)) < 1e-6


def test_ht_dc_phase_skips_bars_before_a_full_cycle():
    """A period passed in can ask for more bars than precede a bar: that
    bar stays NaN, and the first bar with a whole cycle behind it is set."""
    c = walk_bars(200, 2000.0, seed=4)[3]
    got = ind.ht_dc_phase(c, np.full(200, 99.6))  # dc = 100
    assert np.isnan(got[:99]).all() and np.isfinite(got[99:]).all()


@pytest.mark.parametrize("period", [30, 100])
def test_cci_never_holds_every_window_deviation_at_once(period):
    """cci sums absolute deviations a block of windows at a time, so its
    peak allocation stays below the (windows, period) array one pass over
    all windows would build: 761 KB at period 30 on 3,201 bars."""
    _, h, l, c = walk_bars(3201, 2000.0, seed=3)
    tracemalloc.start()
    try:
        ind.cci(h, l, c, period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (3201 - period + 1) * period * 8
