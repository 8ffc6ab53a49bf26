"""GraphQL client for pool-hour history with retries, paging, and a CSV cache.

The hosted indexer caps page sizes, so ranges are walked with a timestamp
cursor: ask for rows at or after the cursor, advance it past the last row,
stop on a short page.  Transient transport failures back off exponentially;
malformed payloads fail fast since retrying cannot fix a schema drift.
"""

import http.client
import json
import os
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional

from .marketdata import (Candle, CandleSeries, fill_gaps, load_candles_csv,
                         save_candles_csv)

PAGE_SIZE = 1000

POOL_HOURS_QUERY = """
query PoolHours($pool: String!, $start: Int!, $end: Int!, $first: Int!) {
  poolHourDatas(
    first: $first
    orderBy: periodStartUnix
    orderDirection: asc
    where: {pool: $pool, periodStartUnix_gte: $start, periodStartUnix_lt: $end}
  ) {
    periodStartUnix
    open
    high
    low
    close
    volumeUSD
  }
}
"""


class TransportError(RuntimeError):
    """Retryable: network trouble or a 5xx from the indexer."""


class SchemaError(ValueError):
    """Fatal: the payload does not look like pool-hour data."""


def _urllib_transport(endpoint: str, timeout: float) -> Callable[[str, Dict], Dict]:
    def transport(query: str, variables: Dict) -> Dict:
        request = urllib.request.Request(
            endpoint, method="POST", headers={"Content-Type": "application/json"},
            data=json.dumps({"query": query, "variables": variables}).encode())
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                body = resp.read()  # urlopen returns on a 2xx status only
        except urllib.error.HTTPError as e:
            error = TransportError if e.code >= 500 else SchemaError
            text = e.read()[:200].decode("utf-8", "replace")
            raise error(f"indexer returned {e.code}: {text}") from None
        except (OSError, http.client.HTTPException) as e:
            raise TransportError(str(e)) from e
        try:
            return json.loads(body)
        except ValueError as e:
            raise SchemaError(f"non-JSON response: {e}") from e

    return transport


class SubgraphClient:
    """Thin pool-hour fetcher. `transport(query, variables) -> payload dict`
    is injectable so tests can stub the network."""

    def __init__(
        self,
        endpoint: str,
        transport: Optional[Callable[[str, Dict], Dict]] = None,
        max_retries: int = 4,
        backoff: float = 0.5,
        timeout: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint
        self.transport = transport or _urllib_transport(endpoint, timeout)
        self.max_retries = max_retries
        self.backoff = backoff
        self.sleep = sleep
        self.request_count = 0

    def _execute(self, variables: Dict) -> List[Dict]:
        last = None
        for attempt in range(self.max_retries):
            try:
                self.request_count += 1
                payload = self.transport(POOL_HOURS_QUERY, variables)
                break
            except TransportError as e:
                last = e
                if attempt == self.max_retries - 1:
                    raise
                self.sleep(self.backoff * 2**attempt)
        else:  # pragma: no cover - loop always breaks or raises
            raise last
        if "errors" in payload:
            raise SchemaError(f"GraphQL errors: {payload['errors']}")
        try:
            rows = payload["data"]["poolHourDatas"]
        except (KeyError, TypeError):
            raise SchemaError(f"missing data.poolHourDatas in payload keys {list(payload)}")
        if not isinstance(rows, list):
            raise SchemaError("poolHourDatas is not a list")
        return rows

    def fetch_hours(self, pool_id: str, start: int, end: int) -> List[Candle]:
        """All pool-hour candles with periodStartUnix in [start, end)."""
        if end <= start:
            raise ValueError(f"empty fetch range [{start}, {end})")
        cursor = start
        out: List[Candle] = []
        while cursor < end:
            rows = self._execute(
                {"pool": pool_id, "start": cursor, "end": end, "first": PAGE_SIZE}
            )
            for row in rows:
                out.append(_decode_row(row))
            if len(rows) < PAGE_SIZE:
                break
            cursor = int(rows[-1]["periodStartUnix"]) + 1
        return out


def _decode_row(row: Dict) -> Candle:
    for field in ("periodStartUnix", "open", "high", "low", "close", "volumeUSD"):
        if field not in row:
            raise SchemaError(f"pool-hour row missing field {field!r}: {row!r}")
    try:
        candle = Candle(
            timestamp=int(row["periodStartUnix"]),
            open=float(row["open"]),
            high=float(row["high"]),
            low=float(row["low"]),
            close=float(row["close"]),
            volume_usd=float(row["volumeUSD"]),
        )
        CandleSeries.from_rows([candle])  # the bar's own checks
        return candle
    except (TypeError, ValueError, OverflowError) as e:  # a null field; a timestamp past int64
        raise SchemaError(f"unparseable pool-hour row {row!r}: {e}") from None


def _cache_path(cache_dir: str, pool_id: str, start: int, end: int) -> str:
    safe = pool_id.lower().replace("0x", "")
    return os.path.join(cache_dir, f"poolhours_{safe}_{start}_{end}.csv")


def fetch_pool_hours(
    client: SubgraphClient,
    pool_id: str,
    start: int,
    end: int,
    cache_dir: str,
    max_gap_hours: int = 3,
) -> CandleSeries:
    """Gap-filled candles for [start, end), served from the CSV cache when the
    exact range was fetched before."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, pool_id, start, end)
    if os.path.exists(path):
        return load_candles_csv(path)
    raw = client.fetch_hours(pool_id, start, end)
    filled = fill_gaps(raw, max_gap_hours=max_gap_hours)
    save_candles_csv(filled, path)
    return filled
