"""Price CSV loading, the cleaning pipeline, and log-return panels.

CSV shape: first column headed ``date`` with ISO-8601 dates, one column per
asset symbol.  Empty cells mark missing prices; literal "NaN" text is
rejected rather than silently coerced.
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
            raise DataError(f"dates must be strictly increasing: {date!r} follows {previous!r}")
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


def _parse_date(token: str, row: int) -> str:
    try:
        _dt.date.fromisoformat(token)
    except ValueError:
        raise DataError(f"row {row}: malformed date {token!r}") from None
    return token


def load_prices(path) -> PricePanel:
    """Parse a price CSV; empty cells are missing, anything else must be a
    positive decimal price."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split(",")
    if not header or header[0].strip() != "date":
        raise DataError(f"{path}: first column must be headed 'date', got {header[:1]!r}")
    symbols = [token.strip() for token in header[1:]]
    if not symbols or any(not s for s in symbols):
        raise DataError(f"{path}: header must name at least one nonempty symbol")
    dates: list[str] = []
    rows: list[list[float]] = []
    seen_dates: set[str] = set()
    for row_number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(symbols) + 1:
            raise DataError(
                f"row {row_number}: expected {len(symbols) + 1} cells, got {len(cells)}"
            )
        date = _parse_date(cells[0].strip(), row_number)
        if date in seen_dates:
            raise DataError(f"row {row_number}: duplicate date {date}")
        seen_dates.add(date)
        values = []
        for column, cell in enumerate(cells[1:], start=2):
            text = cell.strip()
            if text == "":
                values.append(math.nan)
                continue
            try:
                price = float(text)
            except ValueError:
                raise DataError(f"row {row_number}, column {column}: bad price {text!r}") from None
            if math.isnan(price) or math.isinf(price):
                raise DataError(f"row {row_number}, column {column}: bad price {text!r}")
            if price <= 0.0:
                raise DataError(f"row {row_number}, column {column}: non-positive price {text!r}")
            values.append(price)
        dates.append(date)
        rows.append(values)
    return PricePanel(dates=tuple(dates), symbols=tuple(symbols), prices=np.array(rows))


def _format_price(value: float) -> str:
    return "" if math.isnan(value) else repr(float(value))


def write_prices(panel: PricePanel, path) -> None:
    lines = ["date," + ",".join(panel.symbols)]
    for i, date in enumerate(panel.dates):
        lines.append(date + "," + ",".join(_format_price(v) for v in panel.prices[i]))
    atomic_write(path, "\n".join(lines) + "\n")


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
    lines = ["date," + ",".join(panel.symbols)]
    for i, date in enumerate(panel.dates):
        lines.append(date + "," + ",".join(repr(float(v)) for v in panel.values[:, i]))
    atomic_write(path, "\n".join(lines) + "\n")


def load_returns(path) -> ReturnsPanel:
    """Read a returns CSV written by :func:`write_returns` (same shape as prices)."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0].strip() != "date":
        raise DataError(f"{path}: first column must be headed 'date'")
    symbols = tuple(token.strip() for token in header[1:])
    dates: list[str] = []
    rows: list[list[float]] = []
    for row_number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(symbols) + 1:
            raise DataError(f"row {row_number}: expected {len(symbols) + 1} cells")
        dates.append(_parse_date(cells[0].strip(), row_number))
        try:
            rows.append([float(cell) for cell in cells[1:]])
        except ValueError as exc:
            raise DataError(f"row {row_number}: bad return value ({exc})") from None
    return ReturnsPanel(dates=tuple(dates), symbols=symbols, values=np.array(rows).T)


def read_exclusions(path) -> list[str]:
    """Newline-delimited symbol list; blank lines and '#' comments ignored."""
    names = []
    for line in Path(path).read_text().splitlines():
        token = line.strip()
        if token and not token.startswith("#"):
            names.append(token)
    return names
