"""The typed-column CSV writer against csv.writer, kept as its oracle.

report.write_csv_columns must write the bytes report.write_csv_rows
(csv.writer) writes for the same values. The artifacts that go through it
are checked against their own oracles too: trace.csv in test_harness.py,
the candle cache in test_marketdata.py and `clmmlab features` in
test_features.py.
"""

import builtins
import os

import numpy as np
import pytest

from clmmlab import report
from clmmlab.backtest import BacktestResult, RunConfig, write_run_dir
from clmmlab.env import HourTrace
from clmmlab.report import write_csv_columns, write_csv_rows

# repr's format boundaries and the extremes of a float64
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               1e16, 9999999999999998.0, 1e-05, 0.0001, 1e15, 123456789012345.67,
               0.1, 1.0 / 3.0, float("nan"), float("inf"), float("-inf")]
EDGE_INTS = [0, -1, 1, 2**63 - 1, -2**63]


def _csv_writer_bytes(path, header, columns, constants=()):
    """The oracle: csv.writer over the .tolist() rows."""
    write_csv_rows(path, header, [row + tuple(constants)
                                  for row in zip(*(c.tolist() for c in columns))])
    return open(path, "rb").read()


def _random_floats(rng, n):
    xs = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-300, 301, n)
    at = rng.integers(0, n, len(EDGE_FLOATS))
    xs[at] = EDGE_FLOATS
    return xs


@pytest.mark.parametrize("seed", range(6))
def test_columns_write_the_csv_writer_bytes(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3 * report.CHUNK_ROWS))
    ints = rng.integers(-2**62, 2**62, n)
    ints[rng.integers(0, n, len(EDGE_INTS))] = EDGE_INTS
    big = rng.integers(2**63, 2**64 - 1, n, dtype=np.uint64, endpoint=True)  # beyond int64
    single = (rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)).astype(np.float32)
    columns = [ints, _random_floats(rng, n), big, single,
               rng.integers(0, 12, n).astype(np.int8), _random_floats(rng, n)]
    header = [f"c{j}" for j in range(len(columns))] + ["config_hash", "seed"]
    constants = ("a1b2c3d4e5f6", int(rng.integers(0, 2**40)))
    write_csv_columns(str(tmp_path / "got.csv"), header, columns, constants)
    want = _csv_writer_bytes(str(tmp_path / "want.csv"), header, columns, constants)
    assert open(tmp_path / "got.csv", "rb").read() == want


def test_edge_values_one_a_row(tmp_path):
    floats = np.array(EDGE_FLOATS)
    columns = [np.arange(len(floats)), floats, -floats]
    write_csv_columns(str(tmp_path / "got.csv"), ["i", "x", "y"], columns)
    got = open(tmp_path / "got.csv", "rb").read()
    assert got == _csv_writer_bytes(str(tmp_path / "want.csv"), ["i", "x", "y"], columns)
    assert b"nan" in got and b"-inf" in got and b"5e-324" in got and b"1e+16" in got


def test_empty_columns_write_the_header_alone(tmp_path):
    write_csv_columns(str(tmp_path / "got.csv"), ["t", "x", "seed"],
                      [np.zeros(0, int), np.zeros(0)], (3,))
    assert open(tmp_path / "got.csv", "rb").read() == b"t,x,seed\r\n"


@pytest.mark.parametrize("constant", ["a,b", 'say "x"', "two\nlines", "cr\r"])
def test_constant_that_needs_quoting_is_refused_before_any_write(tmp_path, constant):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="quoting"):
        write_csv_columns(str(path), ["x", "config_hash"], [np.ones(3)], (constant,))
    assert not path.exists()


def test_percent_in_a_constant_is_written_as_is(tmp_path):
    columns = [np.arange(3), np.ones(3)]
    write_csv_columns(str(tmp_path / "got.csv"), ["t", "x", "tag"], columns, ("5%d",))
    assert open(tmp_path / "got.csv", "rb").read() == _csv_writer_bytes(
        str(tmp_path / "want.csv"), ["t", "x", "tag"], columns, ("5%d",))


@pytest.mark.parametrize("columns, header, match", [
    ([np.array(["a", "b"])], ["s"], "dtype"),
    ([np.array([True, False])], ["b"], "dtype"),
    ([np.ones(2), np.ones(3)], ["x", "y"], "length"),
])
def test_malformed_columns_are_refused_before_any_write(tmp_path, columns, header, match):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=match):
        write_csv_columns(str(path), header, columns)
    assert not path.exists()


def test_trace_is_streamed_in_chunks(tmp_path, monkeypatch):
    """A 20,000-hour trace (~4 MB of text) reaches the file in writes of
    at most ~1 MB, never as one whole-file string."""
    hours = 20_000
    rng = np.random.default_rng(5)
    trace = HourTrace(hours)
    for name, column in trace.columns.items():
        column[:] = (rng.integers(0, 11, hours) if column.dtype.kind == "i"
                     else rng.standard_normal(hours) * 1e3)
    result = BacktestResult(RunConfig(method="tau-reset", tau=3, offset=1, horizon=hours),
                            "0123456789ab", 1, hours, trace)
    writes = {}

    class Recording:
        def __init__(self, fh, sizes):
            self.fh, self.sizes = fh, sizes

        def write(self, text):
            self.sizes.append(len(text))
            return self.fh.write(text)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            self.fh.__enter__()
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    def recording_open(path, *args, **kwargs):
        return Recording(builtins.open(path, *args, **kwargs),
                         writes.setdefault(os.path.basename(path), []))

    monkeypatch.setattr(report, "open", recording_open, raising=False)
    path = write_run_dir(result, str(tmp_path / "run"))["trace"]
    sizes = writes["trace.csv"]
    assert sum(sizes) == os.path.getsize(path) > 3_000_000  # every byte came through
    assert max(sizes) < 1_000_000
    assert len(sizes) > hours // report.CHUNK_ROWS
