"""Price CSV loading, the cleaning pipeline, log-return panels, and the one
CSV codec every table of the package is written and read with.

The cleaning pipeline applies each of its rules as one step on the whole
(dates x symbols) price array: a column mask, a forward fill, a vector of
log-return deviations, and a mask for the exclusion list.

Panel CSV shape: first column headed ``date`` with ``YYYY-MM-DD`` dates, one
column per asset symbol.  Empty cells mark missing prices; literal "NaN" text
is rejected rather than silently coerced.

The codec streams, so only one row of a table exists as Python objects at a
time: a writer formats each row from its float64 row as the file is written,
and a loader parses each line into a float64 row as it is read from the
file, stacking the rows once at the end.  Tables are UTF-8 whatever the
locale.
"""

from __future__ import annotations

import datetime as _dt
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .atomic import atomic_write, text_lines
from .errors import DataError, ParameterError


def _check_axes(dates: tuple[str, ...], symbols: tuple[str, ...]) -> None:
    """Dates are ``YYYY-MM-DD`` and strictly increase, and no symbol repeats;
    names the first offender."""
    for position, date in enumerate(dates):
        if not is_iso_date(date):
            raise DataError(f"malformed date {date!r} at position {position}")
    for previous, date in zip(dates, dates[1:]):
        if date <= previous:
            problem = "duplicate date" if date == previous else "dates must be strictly increasing"
            raise DataError(f"{problem}: {date!r} follows {previous!r}")
    seen: set[str] = set()
    for symbol in symbols:
        if symbol in seen:
            raise DataError(f"duplicate symbol {symbol!r}")
        seen.add(symbol)


@dataclass(frozen=True, eq=False)
class PricePanel:
    dates: tuple[str, ...]
    symbols: tuple[str, ...]
    prices: np.ndarray  # (n_dates, n_symbols); NaN marks a missing price

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=float)
        if len(self.dates) < 2:
            raise DataError("price panel needs at least 2 dates")
        if prices.shape != (len(self.dates), len(self.symbols)):
            raise DataError(
                f"price block {prices.shape} does not match "
                f"{len(self.dates)} dates x {len(self.symbols)} symbols"
            )
        _check_axes(self.dates, self.symbols)
        object.__setattr__(self, "prices", prices)


@dataclass(frozen=True, eq=False)
class ReturnsPanel:
    dates: tuple[str, ...]
    symbols: tuple[str, ...]
    values: np.ndarray  # (n_symbols, n_dates) log returns

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.symbols), len(self.dates)):
            raise DataError(
                f"returns block {values.shape} does not match "
                f"{len(self.symbols)} symbols x {len(self.dates)} dates"
            )
        _check_axes(self.dates, self.symbols)
        if not np.all(np.isfinite(values)):
            raise DataError("returns panel contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def n_dates(self) -> int:
        return len(self.dates)


def is_iso_date(token: str) -> bool:
    """True for a real calendar date spelled ``YYYY-MM-DD``.

    Dates are compared as strings, which orders them by day only in this one
    spelling, so every other form ``date.fromisoformat`` accepts is refused.
    """
    try:
        return _dt.date.fromisoformat(token).isoformat() == token
    except ValueError:
        return False


def table_lines(header, rows) -> Iterator[str]:
    """The package's CSV format, one line at a time: a header row, then one
    line per row, every line ending in "\n" and every cell written with
    ``str``.  A Python float's ``str`` is its ``repr``, which reads back bit
    for bit; pass Python values (``ndarray.tolist()``), since under NumPy 2 a
    NumPy scalar's repr is ``np.float64(...)``."""
    for cells in itertools.chain((header,), rows):
        yield ",".join(map(str, cells)) + "\n"


def table_text(header, rows) -> str:
    """The lines of :func:`table_lines` as one string."""
    return "".join(table_lines(header, rows))


def write_table(path, header, rows) -> None:
    """Write the table to ``path`` as its rows arrive."""
    atomic_write(path, table_lines(header, rows))


def write_dated_table(path, names, dates, rows) -> None:
    """A ``date`` column and one column per name; ``rows`` holds one sequence
    of values per date."""
    dated_rows = ((date, *row) for date, row in zip(dates, rows, strict=True))
    write_table(path, ("date", *names), dated_rows)


def _read_dated_table(path, parse_row) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """The column names after ``date``, the dates, and the (dates x names)
    float array whose rows are ``parse_row(cells, row_number)`` of the data
    rows; blank lines are skipped and rows are numbered from 1 at the header.

    The file is read a line at a time and each row parsed as it is read, so
    only one row exists as Python objects; the rows are stacked at the end."""
    lines = text_lines(path)
    first = next(lines, None)
    if first is None:
        raise DataError(f"{path}: empty file")
    header = [token.strip() for token in first.split(",")]
    if header[0] != "date":
        raise DataError(f"{path}: first column must be headed 'date', got {header[:1]!r}")
    names = tuple(header[1:])
    if not names or not all(names):
        raise DataError(f"{path}: header must name at least one nonempty symbol")
    dates: list[str] = []
    rows: list[np.ndarray] = []
    for row_number, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"row {row_number}: expected {len(header)} cells, got {len(cells)}")
        date = cells[0].strip()
        if not is_iso_date(date):
            raise DataError(f"row {row_number}: malformed date {date!r}")
        dates.append(date)
        rows.append(parse_row(cells[1:], row_number))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return names, tuple(dates), np.stack(rows)


def _is_price(cell: str) -> bool:
    try:
        return not cell.strip() or 0.0 < float(cell) < math.inf
    except ValueError:
        return False


def _price_row(cells: list[str], row: int) -> np.ndarray:
    """Empty cells are missing (NaN); anything else must be a finite positive
    number."""
    try:
        values = [float(cell) if cell.strip() else None for cell in cells]
        if all(value is None or 0.0 < value < math.inf for value in values):
            return np.array(values, dtype=float)
    except ValueError:
        pass
    column = next(i for i, cell in enumerate(cells) if not _is_price(cell))
    raise DataError(
        f"row {row}, column {column + 2}: bad price {cells[column].strip()!r} "
        "(a price is a finite positive number; an empty cell marks it missing)"
    )


def _return_row(cells: list[str], row: int) -> np.ndarray:
    try:
        return np.array(list(map(float, cells)))
    except ValueError as exc:
        raise DataError(f"row {row}: bad return value ({exc})") from None


def load_prices(path) -> PricePanel:
    """Parse a price CSV; empty cells are missing, anything else must be a
    positive decimal price."""
    symbols, dates, prices = _read_dated_table(path, _price_row)
    return PricePanel(dates=dates, symbols=symbols, prices=prices)


def write_prices(panel: PricePanel, path) -> None:
    """Missing prices are written as empty cells."""
    rows = (["" if math.isnan(value) else value for value in row.tolist()] for row in panel.prices)
    write_dated_table(path, panel.symbols, panel.dates, rows)


def clean_panel(
    panel: PricePanel,
    missing_threshold: float = 0.01,
    volatility_quantile: float = 0.10,
    exclusions: list[str] | None = None,
) -> PricePanel:
    """Apply the cleaning pipeline and return a fully observed panel.

    Order of operations: drop symbols whose missing fraction exceeds the
    threshold (or that start unobserved), forward-fill remaining gaps, drop
    the ceil(quantile * count) most volatile symbols by log-return standard
    deviation (ties resolved against the later alphabetical symbol), then
    drop the explicit exclusion list.  An exclusion list entry that names no
    symbol of ``panel`` draws a warning; one that an earlier rule dropped
    does not, and is not counted as excluded.
    """
    cleaned, _ = clean_panel_report(panel, missing_threshold, volatility_quantile, exclusions)
    return cleaned


def clean_panel_report(
    panel: PricePanel,
    missing_threshold: float = 0.01,
    volatility_quantile: float = 0.10,
    exclusions: list[str] | None = None,
) -> tuple[PricePanel, dict[str, int]]:
    """Same as :func:`clean_panel` but also returns per-rule drop counts."""
    if not 0.0 <= missing_threshold <= 1.0 or not 0.0 <= volatility_quantile <= 1.0:
        raise ParameterError("thresholds must lie in [0, 1]")
    exclusions = list(exclusions or [])
    for name in exclusions:
        if name not in panel.symbols:
            warnings.warn(f"exclusion list entry {name!r} not present in the panel")
    missing = np.isnan(panel.prices)
    kept = np.flatnonzero((missing.mean(axis=0) <= missing_threshold) & ~missing[0])
    dropped = {"missing": len(panel.symbols) - kept.size, "volatility": 0, "excluded": 0}
    if not kept.size:
        raise DataError("cleaning removed every symbol (missing-value rule)")

    # one row per kept symbol; each day takes the price of its last observed day
    rows = np.take_along_axis(
        panel.prices.T[kept],
        np.maximum.accumulate(np.where(missing.T[kept], 0, np.arange(len(panel.dates))), axis=1),
        axis=1,
    )
    names = [panel.symbols[j] for j in kept]

    keep = np.ones(kept.size, dtype=bool)
    if volatility_quantile > 0.0:
        # np.std sums a contiguous row pairwise, as it does a lone series, so each
        # deviation, and with it each tie, is bit for bit that of its symbol alone
        deviations = np.std(np.diff(np.log(rows), axis=1), axis=1, ddof=1).tolist()
        by_alpha_desc = sorted(range(kept.size), key=names.__getitem__, reverse=True)
        by_volatility = sorted(by_alpha_desc, key=lambda i: -deviations[i])
        volatile = by_volatility[: math.ceil(kept.size * volatility_quantile)]
        keep[volatile] = False
        dropped["volatility"] = len(volatile)
    if not keep.any():
        raise DataError("cleaning removed every symbol (volatility rule)")

    listed = np.isin(names, exclusions)
    dropped["excluded"] = int(np.count_nonzero(keep & listed))
    keep &= ~listed
    if not keep.any():
        raise DataError("cleaning removed every symbol (exclusion list)")

    cleaned = PricePanel(
        dates=panel.dates,
        symbols=tuple(itertools.compress(names, keep)),
        prices=rows.T.compress(keep, axis=1),  # C order, as the loaders give
    )
    return cleaned, dropped


def log_returns(panel: PricePanel) -> ReturnsPanel:
    """r_t = ln(s_t / s_{t-1}); requires a fully observed panel."""
    if np.any(np.isnan(panel.prices)):
        raise DataError("panel still has missing prices; clean it first")
    ratios = panel.prices[1:] / panel.prices[:-1]
    return ReturnsPanel(
        dates=panel.dates[1:],
        symbols=panel.symbols,
        values=np.log(ratios).T,
    )


def write_returns(panel: ReturnsPanel, path) -> None:
    rows = (row.tolist() for row in panel.values.T)
    write_dated_table(path, panel.symbols, panel.dates, rows)


def load_returns(path) -> ReturnsPanel:
    """Read a returns CSV written by :func:`write_returns` (same shape as prices)."""
    symbols, dates, values = _read_dated_table(path, _return_row)
    return ReturnsPanel(dates=dates, symbols=symbols, values=values.T)


def read_exclusions(path) -> list[str]:
    """Newline-delimited symbol list; blank lines and '#' comments ignored."""
    names = []
    for line in text_lines(path):
        token = line.strip()
        if token and not token.startswith("#"):
            names.append(token)
    return names
