import http.client
import io
import json
import math
import urllib.error

import numpy as np
import pytest

from clmmlab import marketdata as md
from clmmlab import subgraph as sg


def make_candle(i, close=100.0, open_=100.0):
    hi = max(open_, close) * 1.001
    lo = min(open_, close) * 0.999
    return md.Candle(1609459200 + 3600 * i, open_, hi, lo, close, 1e6)


class TestCandleValidation:
    def test_good_candle(self):
        c = make_candle(0)
        assert c.close == 100.0

    def test_bad_ordering(self):
        with pytest.raises(md.DataValidationError):
            md.Candle(0, 100.0, 99.0, 98.0, 100.5, 1.0)
        with pytest.raises(md.DataValidationError):
            md.Candle(0, 100.0, 101.0, 100.5, 100.2, 1.0)

    def test_nonpositive_price(self):
        with pytest.raises(md.DataValidationError):
            md.Candle(0, 0.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(md.DataValidationError):
            md.Candle(0, 1.0, 1.0, 1.0, math.nan, 1.0)

    def test_negative_volume(self):
        with pytest.raises(md.DataValidationError):
            md.Candle(0, 1.0, 1.0, 1.0, 1.0, -2.0)


class TestSeriesValidation:
    def test_hourly_spacing_enforced(self):
        candles = [make_candle(0), make_candle(1), make_candle(3)]
        with pytest.raises(md.DataValidationError) as ei:
            md.validate_series(candles)
        assert "row 3" in str(ei.value)

    def test_gap_fill_small(self):
        candles = [make_candle(0), make_candle(1), make_candle(4, close=101.0)]
        filled = md.fill_gaps(candles, max_gap_hours=3)
        assert len(filled) == 5
        assert filled[2].open == filled[2].close == candles[1].close
        assert filled[2].volume_usd == 0.0
        assert filled[3].timestamp - filled[2].timestamp == md.HOUR
        md.validate_series(filled)

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
        assert back == candles

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
        md.save_candles_csv([make_candle(0), make_candle(1), make_candle(3)], str(path))
        with pytest.raises(md.DataValidationError, match="^row 4: timestamp"):
            md.load_candles_csv(str(path))

    def test_repeated_timestamp_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "repeat.csv"
        md.save_candles_csv([make_candle(0), make_candle(1), make_candle(2),
                             make_candle(2), make_candle(3)], str(path))
        with pytest.raises(md.DataValidationError, match="^row 5: timestamp"):
            md.load_candles_csv(str(path))

    def test_bundled_fixture_loads(self):
        assert len(md.load_candles_csv(md.bundled_candles_path())) == 1200


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
        assert a == b
        md.validate_series(a)
        for prev, cur in zip(a, a[1:]):
            assert cur.open == prev.close

    def test_seed_changes_path(self):
        a = md.synth_gbm(50.0, 0.0, 0.3, 50, seed=1)
        b = md.synth_gbm(50.0, 0.0, 0.3, 50, seed=2)
        assert a != b


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
        assert again == got
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
        md.validate_series(got)


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
