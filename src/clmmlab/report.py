"""Report aggregation: summary tables, cumulative PnL, published-table checks.

A report collects one row per (method, period) backtest. Rows carry the
relative decomposition fee - gas - LVR = PnL (hedged accounting), which
is revalidated on construction, and every row embeds the config hash
and seed of the run that produced it.
"""

import csv
import importlib.resources
import io
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

REPORT_CSV_HEADER = [
    "pool", "fee_tier", "tick_spacing", "period", "method", "label", "l0",
    "gas", "seed", "config_hash", "reward_mode", "path_model", "offset",
    "hours", "relative_fee", "relative_gas", "relative_lvr", "relative_pnl",
    "reallocations",
]

CUMULATIVE_CSV_HEADER = [
    "method", "label", "period", "relative_pnl", "cumulative_relative_pnl",
]

ACTIONS_CSV_HEADER = ["method", "label", "period", "action", "count"]

IDENTITY_TOL = 1e-9

_ROW_TYPES = {
    "fee_tier": float, "tick_spacing": int, "l0": float, "gas": float,
    "seed": int, "offset": int, "hours": int, "relative_fee": float,
    "relative_gas": float, "relative_lvr": float, "relative_pnl": float,
    "reallocations": int,
}


class ReportError(ValueError):
    """A report that violates its own invariants."""


def write_csv_rows(path: str, header: Sequence[str],
                   rows: Iterable[Sequence]) -> None:
    """The CSV writer for mixed rows: a header, then rows of values in its
    order. Typed columns go through write_csv_columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# rows per write() of write_csv_columns: tens of KB at a trace's width
CHUNK_ROWS = 256


def _plain_cell(value) -> str:
    """value's CSV text as a row template's literal; ValueError if
    csv.writer would quote it."""
    text = str(value)
    probe = io.StringIO()
    csv.writer(probe).writerow([text, text])
    if probe.getvalue() != f"{text},{text}\r\n":
        raise ValueError(f"constant cell {value!r} needs CSV quoting")
    return text.replace("%", "%%")


def write_csv_columns(path: str, header: Sequence[str], columns: Sequence,
                      constants: Sequence = ()) -> None:
    """The CSV writer for typed columns: equal-length int or float arrays,
    each row closed by the constant cells; header names the columns, then
    the constants.

    The bytes are write_csv_rows' for the same values. One row template
    formats an int column with %d and a float column with %r, and a cell
    of either never needs quoting, so it writes the text csv.writer writes
    for the .tolist() scalars. A constant that would need quoting, a column
    of another dtype or columns of unequal length raise ValueError before
    the file opens. Rows go out CHUNK_ROWS at a time, so no whole-file
    string is built.
    """
    kinds = {"i": "%d", "u": "%d", "f": "%r"}
    bad = [c.dtype for c in columns if c.dtype.kind not in kinds]
    if bad:
        raise ValueError(f"a column of dtype {bad[0]} is not an int or float column")
    if len({len(c) for c in columns}) > 1:
        raise ValueError("columns differ in length")
    template = ",".join([kinds[c.dtype.kind] for c in columns]
                        + [_plain_cell(v) for v in constants]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for a in range(0, len(columns[0]), CHUNK_ROWS):
            rows = zip(*[c[a:a + CHUNK_ROWS].tolist() for c in columns])
            fh.write("".join([template % row for row in rows]))


def in_header_order(rows: Iterable[Dict], header: Sequence[str]) -> List[List]:
    """Mapping rows as value lists for write_csv_rows."""
    return [[row[k] for k in header] for row in rows]


def _parse_row(row: Dict) -> Dict:
    out = dict(row)
    for key, cast in _ROW_TYPES.items():
        if key in out and out[key] != "":
            out[key] = cast(float(out[key]) if cast is int else out[key])
    if out.get("period", "") != "":
        out["period"] = int(float(out["period"]))
    return out


def read_report_csv(path: str) -> List[Dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != REPORT_CSV_HEADER:
            raise ReportError(
                f"bad report header in {path}: {reader.fieldnames!r}")
        return [_parse_row(row) for row in reader]


def check_row_identity(row: Dict, tol: float = IDENTITY_TOL) -> float:
    """Residual of relative PnL = fee - gas - LVR; raises past tol."""
    recon = row["relative_fee"] - row["relative_gas"] - row["relative_lvr"]
    resid = abs(row["relative_pnl"] - recon)
    if row.get("reward_mode", "hedged") == "hedged" and resid > tol:
        raise ReportError(
            f"PnL identity violated by {resid:.3e} in row "
            f"{row.get('method')}/{row.get('period')} "
            f"(hash {row.get('config_hash')})")
    return resid


@dataclass
class Report:
    """Validated collection of backtest rows, one per run, plus action histograms."""

    rows: List[Dict]
    histograms: Dict[str, List[Dict]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.rows:
            raise ReportError("report has no rows")
        pools = {(r["pool"], r["fee_tier"], r["tick_spacing"])
                 for r in self.rows}
        if len(pools) > 1:
            raise ReportError(
                "refusing to aggregate runs with mismatched pool specs: "
                + "; ".join(f"{p[0]} fee_tier={p[1]:g} spacing={p[2]}"
                            for p in sorted(pools)))
        seen = set()
        for row in self.rows:
            if row["config_hash"] in seen:
                raise ReportError(f"refusing to aggregate run {row['config_hash']} twice")
            seen.add(row["config_hash"])
            check_row_identity(row)

    @classmethod
    def from_run_dirs(cls, run_dirs: Sequence[str]) -> "Report":
        rows, hists = [], {}
        for d in run_dirs:
            got = read_report_csv(os.path.join(d, "report.csv"))
            if len(got) != 1:
                raise ReportError(f"{d}/report.csv must hold exactly one row")
            row = got[0]
            rows.append(row)
            with open(os.path.join(d, "actions.csv"), newline="") as fh:
                key = f"{row['method']}/{row['period']}/{row['config_hash']}"
                hists[key] = [
                    {"method": row["method"], "label": row["label"],
                     "period": row["period"],
                     "action": int(r["action"]), "count": int(r["count"])}
                    for r in csv.DictReader(fh)]
        return cls(rows, hists)

    def _ordered(self) -> List[Dict]:
        return sorted(self.rows, key=lambda r: (
            r["method"], r["period"] if r["period"] != "" else 0, r["seed"]))

    def cumulative_rows(self) -> List[Dict]:
        """Per-period relative PnL plus its running sum, per method."""
        out: List[Dict] = []
        running: Dict[str, float] = {}
        for row in self._ordered():
            key = f"{row['method']}/{row['label']}"
            running[key] = running.get(key, 0.0) + row["relative_pnl"]
            out.append({
                "method": row["method"], "label": row["label"],
                "period": row["period"], "relative_pnl": row["relative_pnl"],
                "cumulative_relative_pnl": running[key],
            })
        return out

    def write_summary_csv(self, path: str) -> None:
        write_csv_rows(path, REPORT_CSV_HEADER,
                       in_header_order(self._ordered(), REPORT_CSV_HEADER))

    def write_cumulative_csv(self, path: str) -> None:
        write_csv_rows(path, CUMULATIVE_CSV_HEADER,
                       in_header_order(self.cumulative_rows(), CUMULATIVE_CSV_HEADER))

    def write_actions_csv(self, path: str) -> None:
        rows = [r for key in sorted(self.histograms)
                for r in self.histograms[key]]
        write_csv_rows(path, ACTIONS_CSV_HEADER,
                       in_header_order(rows, ACTIONS_CSV_HEADER))


# -- published detail table ----------------------------------------------

PUBLISHED_CSV_HEADER = ["pool", "period", "method", "l0", "relative_fee",
                     "relative_gas", "relative_lvr", "relative_pnl"]

# One final printed digit: the published operands are independently
# rounded to 3 decimals, so an exactly reproduced row can still differ
# from the printed PnL by one unit in the last place.
PUBLISHED_ULP = 1e-3


def load_published_table() -> List[Dict]:
    """Published per-period fee/gas/LVR/PnL rows bundled with the package."""
    ref = importlib.resources.files("clmmlab").joinpath("data/published_results.csv")
    reader = csv.DictReader(ref.read_text().splitlines())
    if reader.fieldnames != PUBLISHED_CSV_HEADER:
        raise ReportError(f"bad detail-table header: {reader.fieldnames!r}")
    rows = [dict(row, period=int(row["period"]),
                 **{k: float(row[k]) for k in PUBLISHED_CSV_HEADER[3:]})
            for row in reader]
    if len(rows) != 32:
        raise ReportError(f"detail table must have 32 rows, got {len(rows)}")
    return rows


@dataclass
class PublishedTableCheck:
    n_rows: int
    n_exact: int
    max_abs_error: float
    rows: List[Dict]

    @property
    def all_within_ulp(self) -> bool:
        return self.max_abs_error <= PUBLISHED_ULP + 1e-9


def verify_published_table() -> PublishedTableCheck:
    """Recompute PnL = fee - gas - LVR over the published rows.

    25 of the 32 published rows reproduce the printed PnL exactly; the
    other 7 differ by exactly one unit in the third decimal, which is
    the rounding slack of three independently rounded operands. The
    check records per-row residuals and whether each row is exact.
    """
    rows = load_published_table()
    checked = []
    n_exact = 0
    max_err = 0.0
    for row in rows:
        recon = (row["relative_fee"] - row["relative_gas"]
                 - row["relative_lvr"])
        err = abs(recon - row["relative_pnl"])
        exact = err < 1e-9
        n_exact += exact
        max_err = max(max_err, err)
        checked.append(dict(row, reconstructed_pnl=recon, abs_error=err,
                            exact=exact))
    return PublishedTableCheck(n_rows=len(rows), n_exact=n_exact,
                       max_abs_error=max_err, rows=checked)
