import http.client
import io
import json
import math
import urllib.error

import numpy as np
import pytest

import oracles
from clmmlab import marketdata as md
from clmmlab import subgraph as sg


def make_candle(i, close=100.0, open_=100.0):
    hi = max(open_, close) * 1.001
    lo = min(open_, close) * 0.999
    return md.Candle(1609459200 + 3600 * i, open_, hi, lo, close, 1e6)


def series_of(*rows):
    return md.CandleSeries.from_rows(rows)


def column_bytes(series):
    """A series' columns as bytes: equal only when every value is bit-equal."""
    return [column.tobytes() for column in series.columns]


class TestCandleValidation:
    def test_good_candle(self):
        c = make_candle(0)
        assert c.close == 100.0

    def test_bad_ordering(self):
        with pytest.raises(md.DataValidationError):
            series_of(md.Candle(0, 100.0, 99.0, 98.0, 100.5, 1.0))
        with pytest.raises(md.DataValidationError):
            series_of(md.Candle(0, 100.0, 101.0, 100.5, 100.2, 1.0))

    def test_nonpositive_price(self):
        with pytest.raises(md.DataValidationError):
            series_of(md.Candle(0, 0.0, 1.0, 0.0, 1.0, 1.0))
        with pytest.raises(md.DataValidationError):
            series_of(md.Candle(0, 1.0, 1.0, 1.0, math.nan, 1.0))

    def test_negative_volume(self):
        with pytest.raises(md.DataValidationError):
            series_of(md.Candle(0, 1.0, 1.0, 1.0, 1.0, -2.0))


class TestSeriesValidation:
    def test_hourly_spacing_enforced(self):
        candles = [make_candle(0), make_candle(1), make_candle(3)]
        with pytest.raises(md.DataValidationError) as ei:
            md.CandleSeries.from_rows(candles)
        assert "row 3" in str(ei.value)

    def test_gap_fill_small(self):
        candles = [make_candle(0), make_candle(1), make_candle(4, close=101.0)]
        filled = md.fill_gaps(candles, max_gap_hours=3)
        assert len(filled) == 5
        assert filled[2].open == filled[2].close == candles[1].close
        assert filled[2].volume_usd == 0.0
        assert filled[3].timestamp - filled[2].timestamp == md.HOUR
        assert isinstance(filled, md.CandleSeries)  # checked when built

    def test_gap_fill_too_large(self):
        candles = [make_candle(0), make_candle(5)]
        with pytest.raises(md.DataValidationError) as ei:
            md.fill_gaps(candles, max_gap_hours=3)
        msg = str(ei.value)
        assert "4" in msg  # four missing hours listed

    def test_unsorted_rejected(self):
        candles = [make_candle(1), make_candle(0)]
        with pytest.raises(md.DataValidationError):
            md.fill_gaps(candles)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        candles = md.synth_gbm(1234.5, 0.1, 0.4, 50, seed=7)
        path = tmp_path / "c.csv"
        md.save_candles_csv(candles, str(path))
        back = md.load_candles_csv(str(path))
        assert column_bytes(back) == column_bytes(candles)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,o,h,l,c,v\n1,1,1,1,1,1\n")
        with pytest.raises(md.DataValidationError):
            md.load_candles_csv(str(path))

    def test_bad_row_number_reported(self, tmp_path):
        path = tmp_path / "bad2.csv"
        header = ",".join(md.CANDLE_CSV_HEADER)
        path.write_text(header + "\n1609459200,1.0,1.0,1.0,1.0,0.0\nnot,a,row,at,all,0\n")
        with pytest.raises(md.DataValidationError) as ei:
            md.load_candles_csv(str(path))
        assert "row 3" in str(ei.value)  # file line number, header is line 1

    def test_hole_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "hole.csv"
        oracles.save_candles_csv([make_candle(0), make_candle(1), make_candle(3)], str(path))
        with pytest.raises(md.DataValidationError, match="^row 4: timestamp"):
            md.load_candles_csv(str(path))

    def test_repeated_timestamp_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "repeat.csv"
        oracles.save_candles_csv([make_candle(0), make_candle(1), make_candle(2),
                                  make_candle(2), make_candle(3)], str(path))
        with pytest.raises(md.DataValidationError, match="^row 5: timestamp"):
            md.load_candles_csv(str(path))

    def test_bundled_fixture_loads(self):
        assert len(md.load_candles_csv(md.bundled_candles_path())) == 1200


def error_of(fn, *args, **kwargs):
    """(type, text) of the exception fn raises."""
    with pytest.raises(Exception) as ei:
        fn(*args, **kwargs)
    return type(ei.value), str(ei.value)


GOOD_BAR = (100.0, 101.0, 99.0, 100.5, 1e6)  # open, high, low, close, volume

# one bar's faults, each in the order the per-bar checks meet them
BAD_BARS = {
    "open-zero": (0.0, 101.0, 99.0, 100.5, 1e6),
    "high-negative": (100.0, -101.0, 99.0, 100.5, 1e6),
    "low-nan": (100.0, 101.0, math.nan, 100.5, 1e6),
    "close-inf": (100.0, 101.0, 99.0, math.inf, 1e6),
    "open-minus-inf": (-math.inf, 101.0, 99.0, 100.5, 1e6),
    "high-below-close": (100.0, 100.2, 99.0, 100.5, 1e6),
    "low-above-open": (100.0, 101.0, 100.1, 100.5, 1e6),
    "low-above-close": (100.5, 101.0, 100.2, 100.0, 1e6),
    "high-below-open": (100.5, 100.4, 99.0, 100.0, 1e6),
    "volume-negative": (100.0, 101.0, 99.0, 100.5, -1.0),
    "volume-nan": (100.0, 101.0, 99.0, 100.5, math.nan),
    "volume-inf": (100.0, 101.0, 99.0, 100.5, math.inf),
    "close-nan-and-volume": (100.0, 101.0, 99.0, math.nan, -1.0),
    "order-and-volume": (100.0, 100.2, 99.0, 100.5, -1.0),
}


def csv_text(rows):
    """Candle CSV text: rows are (timestamp, open, high, low, close, volume)
    tuples written with repr, or raw lines."""
    lines = [",".join(md.CANDLE_CSV_HEADER)]
    lines += [row if isinstance(row, str) else ",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


class TestValidationParity:
    """The series' one vectorised check raises the text of the per-bar
    checks of the Candle-list oracle, naming the same first bad row."""

    @pytest.mark.parametrize("bar", BAD_BARS.values(), ids=list(BAD_BARS))
    def test_one_bar(self, bar):
        for at, n in ((0, 1), (3, 5)):
            rows = [md.Candle(1609459200 + 3600 * i, *GOOD_BAR) for i in range(n)]
            rows[at] = md.Candle(rows[at].timestamp, *bar)
            want = error_of(oracles.OracleCandle, rows[at].timestamp, *bar)
            assert error_of(md.CandleSeries.from_rows, rows) == want

    @pytest.mark.parametrize("bad_row", [0, 4, 9])
    @pytest.mark.parametrize("bar", BAD_BARS.values(), ids=list(BAD_BARS))
    def test_csv_bad_bar(self, tmp_path, bar, bad_row):
        """Against a later bad bar, a bad timestamp before or after it, and
        a malformed row after it."""
        for extra in ({}, {bad_row + 2: BAD_BARS["volume-negative"]}):
            for spacing in (None, 2, 11):
                for malformed in (None, "1609480800,1.0,2.0", "x,1,1,1,1,1"):
                    rows = [(1609459200 + 3600 * i, *GOOD_BAR) for i in range(12)]
                    rows[bad_row] = (rows[bad_row][0], *bar)
                    for i, fault in extra.items():
                        rows[i] = (rows[i][0], *fault)
                    if spacing is not None:
                        rows[spacing] = (rows[spacing][0] + 1, *rows[spacing][1:])
                    if malformed is not None:
                        rows.insert(bad_row + 1, malformed)
                    path = tmp_path / "c.csv"
                    path.write_text(csv_text(rows))
                    want = error_of(oracles.load_candles_csv, str(path))
                    assert want[0] is md.DataValidationError
                    assert error_of(md.load_candles_csv, str(path)) == want

    @pytest.mark.parametrize("fault", ["gap", "repeat", "back", "unaligned"])
    def test_csv_timestamps(self, tmp_path, fault):
        rows = [(1609459200 + 3600 * i, *GOOD_BAR) for i in range(8)]
        ts = rows[5][0] + {"gap": 3600, "repeat": -3600, "back": -7200, "unaligned": 60}[fault]
        rows[5] = (ts, *GOOD_BAR)
        for malformed in (None, "1609480800,1.0,2.0,3.0,4.0,5.0,6.0", "1.5,1,1,1,1,1"):
            with_malformed = rows + [malformed] if malformed else rows
            path = tmp_path / "c.csv"
            path.write_text(csv_text(with_malformed))
            want = error_of(oracles.load_candles_csv, str(path))
            assert want[0] is md.DataValidationError
            assert error_of(md.load_candles_csv, str(path)) == want

    @pytest.mark.parametrize("mu,sigma,intra_factor", [
        (300.0, 1.0, 0.25), (0.5 * 40.0 ** 2, 40.0, 0.25), (0.0, 40.0, 0.25),
        (-300.0, 1.0, 0.25), (-300.0, 0.0, 1e308), (5000.0, 1.0, 0.25)],
        ids=["overflow", "sigma-overflow", "sigma-underflow", "underflow",
             "bar-before-underflow", "exp-overflow"])
    def test_synth_gbm_out_of_range(self, mu, sigma, intra_factor):
        """A drift or sigma that overflows or underflows the closes raises
        what the per-bar synthesis raised: a bar's error, math.log's at a
        close of 0 (after the bars before it), or math.exp's."""
        args = (2000.0, mu, sigma, 3000)
        want = error_of(oracles.synth_gbm_candles, *args, seed=3, intra_factor=intra_factor)
        assert error_of(md.synth_gbm, *args, seed=3, intra_factor=intra_factor) == want

    def test_synth_gbm_overflow_is_a_bar_error(self):
        for mu, sigma in ((300.0, 1.0), (0.5 * 40.0 ** 2, 40.0)):
            kind, text = error_of(md.synth_gbm, 2000.0, mu, sigma, 3000, seed=3)
            assert kind is md.DataValidationError
            assert text == "high must be positive and finite, got inf"
        kind, text = error_of(md.synth_gbm, 2000.0, -300.0, 0.0, 3000, seed=3,
                              intra_factor=1e308)
        assert (kind, text) == (md.DataValidationError,
                                "high must be positive and finite, got inf")

    @pytest.mark.parametrize("args", [
        (1234.5, 0.1, 0.4, 500, 7), (2000.0, 0.0, 0.01, 3201, 9001),
        (100.0, -0.001, 0.03, 777, 0), (50.0, 0.0, 0.0, 40, 2)])
    @pytest.mark.parametrize("intra_factor", [0.25, 0.0, 2.0])
    def test_synth_gbm_equals_per_bar_synthesis(self, args, intra_factor):
        p0, mu, sigma, n, seed = args
        got = md.synth_gbm(p0, mu, sigma, n, seed, intra_factor=intra_factor)
        want = oracles.synth_gbm_candles(p0, mu, sigma, n, seed, intra_factor=intra_factor)
        assert len(got) == len(want) == n
        for column, name in zip(got.columns, md.CANDLE_CSV_HEADER):
            assert column.tolist() == [getattr(c, name) for c in want], name
            assert column.dtype == (np.int64 if name == "timestamp" else np.float64)

    def test_load_equals_per_row_loader(self):
        path = md.bundled_candles_path()
        got, want = md.load_candles_csv(path), oracles.load_candles_csv(path)
        for column, name in zip(got.columns, md.CANDLE_CSV_HEADER):
            assert column.tolist() == [getattr(c, name) for c in want], name


class TestSeriesColumns:
    def test_columns_are_read_only_views(self):
        series = md.synth_gbm(100.0, 0.0, 0.01, 50, seed=1)
        window = series[10:20]
        assert len(window) == 10 and isinstance(window, md.CandleSeries)
        assert window.close.base is not None  # a view, not a copy
        assert window[0] == series[10]
        for column in series.columns + window.columns:
            with pytest.raises(ValueError):
                column[0] = 1.0
        with pytest.raises(ValueError, match="consecutive hours"):
            series[::2]

    @pytest.mark.parametrize("source", ["fixture", "gbm", "gbm-tiny"])
    def test_csv_bytes_equal_per_bar_writer(self, tmp_path, source):
        """save_candles_csv writes from columns the bytes the Candle-list
        writer writes, and no cell is a numpy scalar's repr."""
        if source == "fixture":
            path = md.bundled_candles_path()
            series, bars = md.load_candles_csv(path), oracles.load_candles_csv(path)
        else:
            p0 = 1234.5 if source == "gbm" else 3e-7
            series = md.synth_gbm(p0, 0.1, 0.4, 500, seed=7)
            bars = oracles.synth_gbm_candles(p0, 0.1, 0.4, 500, seed=7)
        md.save_candles_csv(series, str(tmp_path / "got.csv"))
        oracles.save_candles_csv(bars, str(tmp_path / "want.csv"))
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert b"np." not in got
        if source == "fixture":
            with open(path, "rb") as fh:
                assert got == fh.read()  # a load/save round trip keeps every byte


class TestPartitions:
    def test_reference_period_dates(self):
        p1 = md.REFERENCE_PERIODS[1]
        assert p1["train"] == ("2021-08-02", "2022-07-01")
        assert p1["validation"][1] == "2022-08-11"
        assert p1["test"] == ("2022-08-12", "2022-09-22")
        assert md.REFERENCE_PERIODS[4]["test"] == ("2022-12-15", "2023-01-25")
        assert sorted(md.REFERENCE_PERIODS) == [1, 2, 3, 4]
        assert md._utc("2021-08-02") == 1627862400

    def test_partition_validation(self):
        """Each range is non-empty and the ranges run train < validation <
        test without overlapping: every bound is at least the one before."""
        for period, ranges in md.REFERENCE_PERIODS.items():
            assert list(ranges) == ["train", "validation", "test"], period
            bounds = [md._utc(d) for pair in ranges.values() for d in pair]
            for start, end in zip(bounds[::2], bounds[1::2]):
                assert start < end, period
            assert bounds == sorted(bounds), period


class TestSynthGbm:
    def test_log_return_statistics(self):
        n = 100_000
        sigma = 0.01
        candles = md.synth_gbm(100.0, 0.0, sigma, n, seed=11)
        closes = np.array([c.close for c in candles])
        rets = np.diff(np.log(closes))
        expected = -0.5 * sigma * sigma
        assert abs(rets.mean() - expected) < 3 * sigma / math.sqrt(n)
        assert abs(rets.std() - sigma) < 3 * sigma / math.sqrt(n)

    def test_ohlc_consistency_and_determinism(self):
        a = md.synth_gbm(50.0, 0.2, 0.3, 500, seed=5)
        b = md.synth_gbm(50.0, 0.2, 0.3, 500, seed=5)
        assert column_bytes(a) == column_bytes(b)
        for prev, cur in zip(a, a[1:]):
            assert cur.open == prev.close

    def test_seed_changes_path(self):
        a = md.synth_gbm(50.0, 0.0, 0.3, 50, seed=1)
        b = md.synth_gbm(50.0, 0.0, 0.3, 50, seed=2)
        assert column_bytes(a) != column_bytes(b)


class StubTransport:
    """Scripted transport: pops canned responses, records calls."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, query, variables):
        self.calls.append(variables)
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def hour_row(i, price=1000.0):
    ts = 1609459200 + 3600 * i
    return {
        "periodStartUnix": ts,
        "open": str(price),
        "high": str(price * 1.001),
        "low": str(price * 0.999),
        "close": str(price),
        "volumeUSD": "123456.0",
    }


class TestSubgraphClient:
    def test_pagination_uses_cursor(self):
        page1 = {"data": {"poolHourDatas": [hour_row(i) for i in range(1000)]}}
        page2 = {"data": {"poolHourDatas": [hour_row(i) for i in range(1000, 1500)]}}
        stub = StubTransport([page1, page2])
        client = sg.SubgraphClient("http://x", transport=stub)
        candles = client.fetch_hours("0xabc", 1609459200, 1609459200 + 1500 * 3600)
        assert len(candles) == 1500
        assert stub.calls[1]["start"] == 1609459200 + 999 * 3600 + 1
        assert client.request_count == 2

    def test_retry_then_success(self):
        page = {"data": {"poolHourDatas": [hour_row(0)]}}
        stub = StubTransport([sg.TransportError("503"), sg.TransportError("503"), page])
        sleeps = []
        client = sg.SubgraphClient("http://x", transport=stub, max_retries=4,
                                   backoff=0.5, sleep=sleeps.append)
        candles = client.fetch_hours("0xabc", 1609459200, 1609459200 + 3600)
        assert len(candles) == 1
        assert sleeps == [0.5, 1.0]

    def test_retries_exhausted(self):
        stub = StubTransport([sg.TransportError("503")] * 3)
        client = sg.SubgraphClient("http://x", transport=stub, max_retries=3,
                                   sleep=lambda s: None)
        with pytest.raises(sg.TransportError):
            client.fetch_hours("0xabc", 0, 3600)

    def test_schema_error_fatal_no_retry(self):
        stub = StubTransport([sg.SchemaError("bad field")])
        client = sg.SubgraphClient("http://x", transport=stub, sleep=lambda s: None)
        with pytest.raises(sg.SchemaError):
            client.fetch_hours("0xabc", 0, 3600)
        assert client.request_count == 1

    def test_graphql_errors_raise_schema_error(self):
        stub = StubTransport([{"errors": [{"message": "no such pool"}]}])
        client = sg.SubgraphClient("http://x", transport=stub)
        with pytest.raises(sg.SchemaError):
            client.fetch_hours("0xabc", 0, 3600)

    def test_missing_field_raises(self):
        row = hour_row(0)
        del row["volumeUSD"]
        stub = StubTransport([{"data": {"poolHourDatas": [row]}}])
        client = sg.SubgraphClient("http://x", transport=stub)
        with pytest.raises(sg.SchemaError):
            client.fetch_hours("0xabc", 0, 3600)

    @pytest.mark.parametrize("edits,bad,reason", [
        ({3: ("open", "-1.0")}, 3, "open must be positive and finite, got -1.0"),
        ({5: ("close", "inf"), 7: ("low", "x")}, 5, "close must be positive and finite, got inf"),
        ({4: ("low", "2000.0")}, 4, "OHLC ordering violated at {ts}: o=1000.0 h={high} "
                                    "l=2000.0 c=1000.0"),
        ({6: ("volumeUSD", "-5"), 8: ("open", "-1")}, 6, "volume_usd must be >= 0, got -5.0"),
        ({2: ("high", "abc"), 6: ("open", "-1")}, 2,
         "could not convert string to float: 'abc'"),
        ({2: ("close", None)}, 2,
         "float() argument must be a string or a real number, not 'NoneType'"),
        ({3: ("periodStartUnix", 2 ** 70), 5: ("open", "-1")}, 3,
         "Python int too large to convert to C long"),
    ], ids=["price", "bar-before-unparseable", "ohlc", "volume", "unparseable-first",
            "null", "timestamp-past-int64"])
    def test_first_bad_row_raises_its_own_text(self, edits, bad, reason):
        rows = [hour_row(i) for i in range(10)]
        for i, (field, value) in edits.items():
            rows[i][field] = value
        client = sg.SubgraphClient("http://x", transport=StubTransport(
            [{"data": {"poolHourDatas": rows}}]))
        with pytest.raises(sg.SchemaError) as err:
            client.fetch_hours("0xabc", 1609459200, 1609459200 + 10 * 3600)
        reason = reason.format(ts=rows[bad]["periodStartUnix"], high=rows[bad]["high"])
        assert str(err.value) == f"unparseable pool-hour row {rows[bad]!r}: {reason}"

    def test_missing_field_before_a_bad_bar_raises_first(self):
        rows = [hour_row(i) for i in range(6)]
        del rows[1]["open"]
        rows[4]["open"] = "-1"
        client = sg.SubgraphClient("http://x", transport=StubTransport(
            [{"data": {"poolHourDatas": rows}}]))
        with pytest.raises(sg.SchemaError) as err:
            client.fetch_hours("0xabc", 1609459200, 1609459200 + 6 * 3600)
        assert str(err.value) == f"pool-hour row missing field 'open': {rows[1]!r}"

    def test_cache_hit_skips_network(self, tmp_path):
        rows = [hour_row(i) for i in range(48)]
        stub = StubTransport([{"data": {"poolHourDatas": rows}}])
        client = sg.SubgraphClient("http://x", transport=stub)
        start, end = 1609459200, 1609459200 + 48 * 3600
        got = sg.fetch_pool_hours(client, "0xabc", start, end, cache_dir=str(tmp_path))
        assert len(got) == 48
        assert client.request_count == 1

        client2 = sg.SubgraphClient("http://x", transport=StubTransport([]))
        again = sg.fetch_pool_hours(client2, "0xabc", start, end, cache_dir=str(tmp_path))
        assert column_bytes(again) == column_bytes(got)
        assert client2.request_count == 0

    def test_cache_write_is_atomic(self, tmp_path, monkeypatch):
        rows = [hour_row(i) for i in range(48)]
        start, end = 1609459200, 1609459200 + 48 * 3600

        def crash(src, dst):
            raise OSError("disk full")

        client = sg.SubgraphClient(
            "http://x", transport=StubTransport([{"data": {"poolHourDatas": rows}}]))
        with monkeypatch.context() as m:
            m.setattr(md.os, "replace", crash)
            with pytest.raises(OSError, match="disk full"):
                sg.fetch_pool_hours(client, "0xabc", start, end, cache_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []  # neither a cache file nor a temp file

        client2 = sg.SubgraphClient(
            "http://x", transport=StubTransport([{"data": {"poolHourDatas": rows}}]))
        got = sg.fetch_pool_hours(client2, "0xabc", start, end, cache_dir=str(tmp_path))
        assert client2.request_count == 1  # the failed write left nothing to trust
        assert len(got) == 48
        assert [p.name for p in tmp_path.iterdir()] == [
            f"poolhours_abc_{start}_{end}.csv"]

    def test_gaps_filled_before_caching(self, tmp_path):
        rows = [hour_row(0), hour_row(1), hour_row(4)]
        stub = StubTransport([{"data": {"poolHourDatas": rows}}])
        client = sg.SubgraphClient("http://x", transport=stub)
        got = sg.fetch_pool_hours(client, "0xabc", 1609459200,
                                  1609459200 + 5 * 3600, cache_dir=str(tmp_path))
        assert len(got) == 5
        assert isinstance(got, md.CandleSeries)  # checked when built


class TestUrllibTransport:
    """The default transport, with urlopen replaced: no request leaves."""

    ENDPOINT = "http://indexer.invalid/subgraph"

    def _client(self, monkeypatch, *outcomes):
        """A client whose urlopen plays back outcomes, each an exception
        to raise or a (status, body) response; it records what was sent."""
        script, sent = list(outcomes), []

        def urlopen(request, timeout):
            sent.append((request, timeout))
            outcome = script.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            resp = io.BytesIO(outcome[1])
            resp.status = outcome[0]
            return resp

        monkeypatch.setattr(sg.urllib.request, "urlopen", urlopen)
        return sg.SubgraphClient(self.ENDPOINT, timeout=7.0,
                                 sleep=lambda s: None), sent

    def _http_error(self, code, body=b""):
        return urllib.error.HTTPError(self.ENDPOINT, code, "status", {},
                                      io.BytesIO(body))

    def test_posts_the_query_as_json(self, monkeypatch):
        payload = {"data": {"poolHourDatas": [hour_row(0)]}}
        client, sent = self._client(monkeypatch, (200, json.dumps(payload).encode()))
        assert client.transport("query Q", {"pool": "0xabc"}) == payload
        (request, timeout), = sent
        assert timeout == 7.0
        assert request.get_method() == "POST"
        assert request.full_url == self.ENDPOINT
        assert request.get_header("Content-type") == "application/json"
        assert json.loads(request.data) == {"query": "query Q",
                                            "variables": {"pool": "0xabc"}}

    @pytest.mark.parametrize("outcome", [
        None, urllib.error.URLError("connection refused"),
        TimeoutError("timed out"), http.client.RemoteDisconnected("closed"),
    ], ids=["5xx", "url-error", "timeout", "disconnect"])
    def test_server_and_network_errors_are_retryable(self, monkeypatch, outcome):
        client, _ = self._client(monkeypatch, outcome or self._http_error(503))
        with pytest.raises(sg.TransportError):
            client.transport("query Q", {})

    def test_other_status_is_schema_error(self, monkeypatch):
        client, _ = self._client(monkeypatch, self._http_error(404, b"no such subgraph"))
        with pytest.raises(sg.SchemaError, match="404: no such subgraph"):
            client.transport("query Q", {})

    @pytest.mark.parametrize("body", [b"<html>busy</html>", b"\xff\xfe{"],
                             ids=["html", "not-utf8"])
    def test_non_json_body_is_schema_error(self, monkeypatch, body):
        client, _ = self._client(monkeypatch, (200, body))
        with pytest.raises(sg.SchemaError, match="non-JSON"):
            client.transport("query Q", {})

    def test_client_retries_a_5xx_then_reads_the_page(self, monkeypatch):
        page = json.dumps({"data": {"poolHourDatas": [hour_row(0)]}}).encode()
        client, sent = self._client(monkeypatch, self._http_error(502), (200, page))
        assert len(client.fetch_hours("0xabc", 1609459200, 1609459200 + 3600)) == 1
        assert client.request_count == len(sent) == 2
