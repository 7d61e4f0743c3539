"""Price CSV loading, the cleaning pipeline, log-return panels, and the one
CSV codec every table of the package is written and read with.

Panel CSV shape: first column headed ``date`` with ``YYYY-MM-DD`` dates, one
column per asset symbol.  Empty cells mark missing prices; literal "NaN" text
is rejected rather than silently coerced.
"""

from __future__ import annotations

import datetime as _dt
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import DataError, ParameterError


def _check_axes(dates: tuple[str, ...], symbols: tuple[str, ...]) -> None:
    """Dates strictly increase and no symbol repeats; names the first offender."""
    for previous, date in zip(dates, dates[1:]):
        if date <= previous:
            problem = "duplicate date" if date == previous else "dates must be strictly increasing"
            raise DataError(f"{problem}: {date!r} follows {previous!r}")
    seen: set[str] = set()
    for symbol in symbols:
        if symbol in seen:
            raise DataError(f"duplicate symbol {symbol!r}")
        seen.add(symbol)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def format_row(cells) -> str:
    return ",".join(map(str, cells))


def table_text(header, rows) -> str:
    """The package's CSV format: a header row, then one line per row, every
    line ending in "\n" and every cell written with ``str``.  A Python float's
    ``str`` is its ``repr``, which reads back bit for bit; pass Python values
    (``ndarray.tolist()``), since under NumPy 2 a NumPy scalar's repr is
    ``np.float64(...)``."""
    lines = [format_row(header)]
    lines.extend(map(format_row, rows))
    lines.append("")
    return "\n".join(lines)


def write_table(path, header, rows) -> None:
    atomic_write(path, table_text(header, rows))


def write_dated_table(path, names, dates, rows) -> None:
    """A ``date`` column and one column per name; ``rows`` holds one sequence
    of values per date."""
    dated_rows = ((date, *row) for date, row in zip(dates, rows, strict=True))
    write_table(path, ("date", *names), dated_rows)


def _read_dated_table(path, parse_row) -> tuple[tuple[str, ...], tuple[str, ...], list]:
    """The column names after ``date``, the dates, and ``parse_row(cells,
    row_number)`` of every data row; blank lines are skipped and rows are
    numbered from 1 at the header."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [token.strip() for token in lines[0].split(",")]
    if header[0] != "date":
        raise DataError(f"{path}: first column must be headed 'date', got {header[:1]!r}")
    names = tuple(header[1:])
    if not names or not all(names):
        raise DataError(f"{path}: header must name at least one nonempty symbol")
    dates: list[str] = []
    rows = []
    for row_number, line in enumerate(lines[1:], start=2):
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
    return names, tuple(dates), rows


def _is_price(cell: str) -> bool:
    try:
        return not cell.strip() or 0.0 < float(cell) < math.inf
    except ValueError:
        return False


def _price_row(cells: list[str], row: int) -> list[float | None]:
    """Empty cells are missing (None, NaN in an array); anything else must be
    a finite positive number."""
    try:
        values = [float(cell) if cell.strip() else None for cell in cells]
        if all(value is None or 0.0 < value < math.inf for value in values):
            return values
    except ValueError:
        pass
    column = next(i for i, cell in enumerate(cells) if not _is_price(cell))
    raise DataError(
        f"row {row}, column {column + 2}: bad price {cells[column].strip()!r} "
        "(a price is a finite positive number; an empty cell marks it missing)"
    )


def _return_row(cells: list[str], row: int) -> list[float]:
    try:
        return list(map(float, cells))
    except ValueError as exc:
        raise DataError(f"row {row}: bad return value ({exc})") from None


def load_prices(path) -> PricePanel:
    """Parse a price CSV; empty cells are missing, anything else must be a
    positive decimal price."""
    symbols, dates, rows = _read_dated_table(path, _price_row)
    return PricePanel(dates=dates, symbols=symbols, prices=np.array(rows, dtype=float))


def write_prices(panel: PricePanel, path) -> None:
    """Missing prices are written as empty cells."""
    cells = panel.prices.astype(object)
    cells[np.isnan(panel.prices)] = ""
    write_dated_table(path, panel.symbols, panel.dates, cells.tolist())


def _forward_fill(column: np.ndarray) -> np.ndarray | None:
    """Fill gaps with the last observed price; None if the series starts missing."""
    if math.isnan(column[0]):
        return None
    filled = column.copy()
    for i in range(1, filled.size):
        if math.isnan(filled[i]):
            filled[i] = filled[i - 1]
    return filled


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
    drop the explicit exclusion list.
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
    kept: list[int] = []
    filled_columns: dict[int, np.ndarray] = {}
    dropped = {"missing": 0, "volatility": 0, "excluded": 0}
    for j in range(len(panel.symbols)):
        column = panel.prices[:, j]
        missing_fraction = float(np.isnan(column).mean())
        if missing_fraction > missing_threshold:
            dropped["missing"] += 1
            continue
        filled = _forward_fill(column)
        if filled is None:
            dropped["missing"] += 1
            continue
        kept.append(j)
        filled_columns[j] = filled
    if not kept:
        raise DataError("cleaning removed every symbol (missing-value rule)")

    if volatility_quantile > 0.0:
        deviations = {}
        for j in kept:
            log_prices = np.log(filled_columns[j])
            deviations[j] = float(np.std(np.diff(log_prices), ddof=1))
        drop_count = math.ceil(len(kept) * volatility_quantile)
        by_alpha_desc = sorted(kept, key=lambda j: panel.symbols[j], reverse=True)
        by_volatility = sorted(by_alpha_desc, key=lambda j: -deviations[j])
        to_drop = set(by_volatility[:drop_count])
        dropped["volatility"] = len(to_drop)
        kept = [j for j in kept if j not in to_drop]
    if not kept:
        raise DataError("cleaning removed every symbol (volatility rule)")

    exclusion_set = set(exclusions)
    remaining_symbols = {panel.symbols[j] for j in kept}
    for name in exclusions:
        if name not in remaining_symbols:
            warnings.warn(f"exclusion list entry {name!r} not present in the panel")
    before = len(kept)
    kept = [j for j in kept if panel.symbols[j] not in exclusion_set]
    dropped["excluded"] = before - len(kept)
    if not kept:
        raise DataError("cleaning removed every symbol (exclusion list)")

    prices = np.column_stack([filled_columns[j] for j in kept])
    cleaned = PricePanel(
        dates=panel.dates,
        symbols=tuple(panel.symbols[j] for j in kept),
        prices=prices,
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
    write_dated_table(path, panel.symbols, panel.dates, panel.values.T.tolist())


def load_returns(path) -> ReturnsPanel:
    """Read a returns CSV written by :func:`write_returns` (same shape as prices)."""
    symbols, dates, rows = _read_dated_table(path, _return_row)
    return ReturnsPanel(dates=dates, symbols=symbols, values=np.array(rows).T)


def read_exclusions(path) -> list[str]:
    """Newline-delimited symbol list; blank lines and '#' comments ignored."""
    names = []
    for line in Path(path).read_text().splitlines():
        token = line.strip()
        if token and not token.startswith("#"):
            names.append(token)
    return names
