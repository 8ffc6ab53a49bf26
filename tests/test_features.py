import json

import numpy as np
import pytest

from clmmlab import features as ft
from clmmlab.cli import main
from clmmlab.marketdata import Candle, CandleSeries, save_candles_csv, synth_gbm
from clmmlab.report import write_csv_rows

import oracles


def make_series(n=400, seed=1, sigma=0.01):
    return synth_gbm(100.0, 0.0, sigma, n, seed=seed)


def test_feature_vector_length_and_order():
    assert ft.N_FEATURES == 28
    assert len(ft.FEATURE_NAMES) == 28
    assert ft.FEATURE_NAMES[0] == "open"
    assert ft.FEATURE_NAMES[4] == "volume_usd"
    assert ft.FEATURE_NAMES[20:24] == [
        "stoch_slow_k", "stoch_slow_d", "stoch_fast_k", "stoch_fast_d",
    ]
    assert ft.FEATURE_NAMES[-2:] == ["ht_dc_period", "ht_dc_phase"]
    assert ft.OBSERVATION_DIM == 32


def test_features_finite_after_warmup():
    candles = make_series()
    mat = ft.compute_feature_matrix(candles)
    assert mat.shape == (len(candles), 28)
    assert np.all(np.isfinite(mat[ft.WARMUP_CANDLES :]))


def test_causality_future_edits_do_not_leak():
    candles = make_series(320)
    t = 250
    row_before = ft.compute_feature_matrix(candles[:t + 1])[t]
    tampered = list(candles)
    for i in range(t + 1, len(tampered)):
        c = tampered[i]
        tampered[i] = Candle(c.timestamp, c.open * 3, c.high * 3, c.low * 3, c.close * 3,
                             c.volume_usd * 7)
    row_after = ft.compute_feature_matrix(CandleSeries.from_rows(tampered)[:t + 1])[t]
    assert np.array_equal(row_before, row_after)


def test_matrix_rows_match_prefix_computation():
    candles = make_series(300)
    mat = ft.compute_feature_matrix(candles)
    for t in (205, 240, 299):
        prefix = ft.compute_feature_matrix(candles[:t + 1])[t]
        assert np.allclose(mat[t], prefix, equal_nan=True)


def test_constant_series_feature_values():
    p = 100.0
    candles = CandleSeries.from_rows([Candle(1609459200 + 3600 * i, p, p, p, p, 5.0)
                                      for i in range(300)])
    row = ft.compute_feature_matrix(candles[:251])[250]
    names = ft.FEATURE_NAMES
    idx = {n: i for i, n in enumerate(names)}
    assert row[idx["high_over_open"]] == 1.0
    assert row[idx["low_over_open"]] == 1.0
    assert row[idx["close_over_open"]] == 1.0
    assert row[idx["dema_over_open"]] == pytest.approx(1.0)
    assert row[idx["sar_over_open"]] == pytest.approx(1.0)
    assert row[idx["momentum"]] == 0.0
    assert row[idx["true_range"]] == 0.0
    assert row[idx["bop"]] == 0.0


def test_scaler_freeze_and_roundtrip():
    candles = make_series(500, seed=9)
    mat = ft.compute_feature_matrix(candles)
    scaler = ft.FeatureScaler.fit(mat[200:400])
    row = mat[450]
    scaled = scaler.apply(mat)[450]
    for j in range(28):
        if j in scaler.columns:
            assert scaled[j] == pytest.approx((row[j] - scaler.mean[j]) / scaler.std[j])
        else:
            assert scaled[j] == row[j]
    back = ft.FeatureScaler.from_dict(json.loads(json.dumps(scaler.to_dict())))
    assert np.array_equal(back.mean, scaler.mean)
    assert np.array_equal(back.std, scaler.std)
    assert back.columns == scaler.columns
    # zero-variance column guard
    degenerate = ft.FeatureScaler(mean=np.zeros(28), std=np.zeros(28), columns=(0,))
    assert degenerate.apply(mat)[450, 0] == 0.0


def test_scaler_matrix_equals_row_oracle_bit_for_bit():
    candles = make_series(500, seed=9)
    mat = ft.compute_feature_matrix(candles)
    before = mat.copy()
    assert np.isnan(mat[: ft.WARMUP_CANDLES]).any()  # NaN warm-up rows
    fitted = ft.FeatureScaler.fit(mat[200:400])
    std = fitted.std.copy()
    std[4] = 0.0  # a zero-std column
    std[0] = 1e-13  # below the zero-variance guard
    for scaler in (fitted, ft.FeatureScaler(mean=fitted.mean, std=std)):
        got = scaler.apply(mat)
        want = np.stack([oracles.scale_feature_row(scaler, row) for row in mat])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert mat.tobytes() == before.tobytes()  # the input is not scaled in place
    assert np.all(got[:, [0, 4]] == 0.0)


def test_assemble_observation_modes():
    candles = make_series(300, seed=4)
    row = ft.compute_feature_matrix(candles[:251])[250]
    close = candles[250].close
    center = 46080
    obs = ft.assemble_observation(
        row, cash=250.0, center_tick=center, width=3, value=0.0,
        l0=250.0, close=close, tick_spacing=60, n_actions=10,
    )
    assert obs.shape == (32,)
    assert obs[28] == pytest.approx(1.0)
    assert obs[31] == 0.0
    assert obs[30] == pytest.approx(0.3)
    # price exactly at the interval center: zero offset slot
    from clmmlab.amm import tick_to_price

    obs_centered = ft.assemble_observation(
        row, cash=0.0, center_tick=center, width=2, value=1.0,
        l0=1.0, close=tick_to_price(center), tick_spacing=60, n_actions=10,
    )
    assert obs_centered[29] == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(TypeError):
        ft.assemble_observation(row, 0, 0, 1, 0)  # account scales are required
    with pytest.raises(ValueError):
        ft.assemble_observation(row[:5], 0, 0, 1, 0, l0=1.0, close=close,
                                tick_spacing=60, n_actions=10)


def test_features_csv_export(tmp_path):
    candles = make_series(260, seed=2)
    mat = ft.compute_feature_matrix(candles)
    path = tmp_path / "candles.csv"
    save_candles_csv(candles, str(path))
    out = tmp_path / "features.csv"
    assert main(["features", "--candles", str(path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "timestamp," + ",".join(ft.FEATURE_NAMES)
    assert len(lines) == 261
    row = lines[201].split(",")
    assert int(row[0]) == candles[200].timestamp
    assert [float(x) for x in row[1:]] == mat[200].tolist()
    assert lines[1].split(",")[6] == "nan"  # dema before its warm-up
    # the bytes csv.writer writes for the rows, NaN warm-up cells included
    want = tmp_path / "want.csv"
    write_csv_rows(str(want), ["timestamp"] + ft.FEATURE_NAMES,
                   [[ts] + row for ts, row in zip(candles.timestamp.tolist(), mat.tolist())])
    assert out.read_bytes() == want.read_bytes()
