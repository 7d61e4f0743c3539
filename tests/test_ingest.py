import datetime as dt
import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from covdenoise import (
    DataError,
    ParameterError,
    PricePanel,
    ReturnsPanel,
    clean_panel,
    clean_panel_report,
    load_prices,
    load_returns,
    log_returns,
    write_prices,
    write_returns,
)
from covdenoise import ingest
from covdenoise.ingest import read_exclusions


def write_csv(path, text):
    path.write_text(text)
    return path


def test_load_minimal_panel(tmp_path):
    path = write_csv(tmp_path / "p.csv", "date,AAA\n2024-01-01,10.0\n2024-01-02,11.0\n")
    panel = load_prices(path)
    assert panel.symbols == ("AAA",)
    assert panel.dates == ("2024-01-01", "2024-01-02")
    assert np.allclose(panel.prices[:, 0], [10.0, 11.0])


def test_load_rejects_zero_price(tmp_path):
    path = write_csv(tmp_path / "p.csv", "date,AAA\n2024-01-01,0\n2024-01-02,1\n")
    with pytest.raises(DataError, match="row 2"):
        load_prices(path)


def test_load_rejects_nan_text(tmp_path):
    path = write_csv(tmp_path / "p.csv", "date,AAA\n2024-01-01,NaN\n2024-01-02,1\n")
    with pytest.raises(DataError, match="column 2"):
        load_prices(path)


def test_load_rejects_duplicates_and_bad_dates(tmp_path):
    dup_date = write_csv(tmp_path / "a.csv", "date,A\n2024-01-01,1\n2024-01-01,2\n")
    with pytest.raises(DataError, match="duplicate date"):
        load_prices(dup_date)
    dup_symbol = write_csv(tmp_path / "b.csv", "date,A,A\n2024-01-01,1,2\n2024-01-02,1,2\n")
    with pytest.raises(DataError, match="duplicate symbol"):
        load_prices(dup_symbol)
    bad_date = write_csv(tmp_path / "c.csv", "date,A\n01/02/2024,1\n2024-01-02,1\n")
    with pytest.raises(DataError, match="malformed date"):
        load_prices(bad_date)


def _ones_panel(panel_class, dates, symbols):
    # PricePanel holds (dates, symbols); ReturnsPanel holds (symbols, dates)
    shape = (len(dates), len(symbols)) if panel_class is PricePanel else (len(symbols), len(dates))
    return panel_class(dates, symbols, np.ones(shape))


@pytest.mark.parametrize("panel_class", [PricePanel, ReturnsPanel])
def test_panels_reject_non_increasing_dates(panel_class):
    with pytest.raises(DataError, match="'2021-01-01' follows '2021-01-02'"):
        _ones_panel(panel_class, ("2021-01-02", "2021-01-01"), ("A", "B"))
    with pytest.raises(DataError, match="'2021-01-02' follows '2021-01-02'"):
        _ones_panel(panel_class, ("2021-01-01", "2021-01-02", "2021-01-02"), ("A",))


@pytest.mark.parametrize("panel_class", [PricePanel, ReturnsPanel])
def test_panels_reject_duplicate_symbols(panel_class):
    with pytest.raises(DataError, match="duplicate symbol 'A'"):
        _ones_panel(panel_class, ("2021-01-01", "2021-01-02"), ("A", "B", "A"))


def test_price_panel_needs_two_dates():
    with pytest.raises(DataError, match="at least 2 dates"):
        PricePanel(("2021-01-01",), ("A",), np.ones((1, 1)))


@pytest.mark.parametrize("panel_class", [PricePanel, ReturnsPanel])
def test_panels_reject_a_block_of_the_wrong_shape(panel_class):
    dates, symbols = ("2021-01-01", "2021-01-02", "2021-01-03"), ("A", "B")
    # the transpose of the block each panel expects
    shape = (len(symbols), len(dates)) if panel_class is PricePanel else (len(dates), len(symbols))
    with pytest.raises(DataError, match=r"block \(\d, \d\) does not match"):
        panel_class(dates, symbols, np.ones(shape))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_returns_must_be_finite(tmp_path, value):
    path = write_csv(tmp_path / "r.csv", f"date,A,B\n2024-01-01,0.1,{value}\n2024-01-02,0.1,0.2\n")
    with pytest.raises(DataError, match="non-finite values"):
        load_returns(path)


def test_load_returns_names_the_row_of_a_non_numeric_cell(tmp_path):
    path = write_csv(tmp_path / "r.csv", "date,A,B\n2024-01-01,0.1,0.2\n2024-01-02,0.1,abc\n")
    with pytest.raises(DataError, match="row 3: bad return value"):
        load_returns(path)


def test_load_returns_rejects_duplicate_symbols_and_unordered_dates(tmp_path):
    dup_symbol = write_csv(tmp_path / "a.csv", "date,A,A\n2024-01-01,0.1,0.2\n2024-01-02,0.1,0.2\n")
    with pytest.raises(DataError, match="duplicate symbol 'A'"):
        load_returns(dup_symbol)
    unordered = write_csv(tmp_path / "b.csv", "date,A\n2024-01-02,0.1\n2024-01-01,0.2\n")
    with pytest.raises(DataError, match="'2024-01-01' follows '2024-01-02'"):
        load_returns(unordered)
    repeated = write_csv(tmp_path / "c.csv", "date,A\n2024-01-01,0.1\n2024-01-01,0.2\n")
    with pytest.raises(DataError, match="'2024-01-01' follows '2024-01-01'"):
        load_returns(repeated)


def test_price_roundtrip_with_missing_cells(tmp_path):
    text = "date,AAA,BBB\n2024-01-01,10.25,3.5\n2024-01-02,,3.625\n2024-01-03,10.5,\n"
    path = write_csv(tmp_path / "p.csv", text)
    panel = load_prices(path)
    out = tmp_path / "copy.csv"
    write_prices(panel, out)
    again = load_prices(out)
    assert again.dates == panel.dates and again.symbols == panel.symbols
    assert np.array_equal(np.isnan(again.prices), np.isnan(panel.prices))
    mask = ~np.isnan(panel.prices)
    assert np.array_equal(again.prices[mask], panel.prices[mask])


def make_panel(columns, days=100):
    dates = tuple(f"2024-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(days))
    symbols = tuple(columns)
    data = np.column_stack([columns[s] for s in columns])
    return PricePanel(dates=dates, symbols=symbols, prices=data)


def test_clean_drops_gappy_symbol():
    days = 100
    good = np.full(days, 50.0)
    gappy = np.full(days, 20.0)
    gappy[10:15] = np.nan  # 5% missing
    panel = make_panel({"GOOD": good, "GAPPY": gappy}, days)
    cleaned, summary = clean_panel_report(panel, missing_threshold=0.01, volatility_quantile=0.0)
    assert cleaned.symbols == ("GOOD",)
    assert summary == {"missing": 1, "volatility": 0, "excluded": 0}


def test_clean_forward_fills_small_gaps():
    days = 100
    series = np.linspace(100.0, 110.0, days)
    column = series.copy()
    column[50] = np.nan
    panel = make_panel({"AAA": column}, days)
    cleaned = clean_panel(panel, missing_threshold=0.05, volatility_quantile=0.0)
    assert cleaned.prices[50, 0] == cleaned.prices[49, 0]
    assert not np.any(np.isnan(cleaned.prices))


def test_clean_drops_leading_gap_symbol():
    days = 60
    column = np.full(days, 10.0)
    column[0] = np.nan
    panel = make_panel({"LATE": column, "OK": np.full(days, 5.0)}, days)
    cleaned = clean_panel(panel, missing_threshold=0.5, volatility_quantile=0.0)
    assert cleaned.symbols == ("OK",)


def test_clean_volatility_rule_drops_ceiling_count(rng):
    days = 200
    columns = {}
    for i in range(10):
        noise = rng.standard_normal(days) * (0.001 * (i + 1))
        columns[f"S{i:02d}"] = 100.0 * np.exp(np.cumsum(noise))
    panel = make_panel(columns, days)
    cleaned = clean_panel(panel, missing_threshold=1.0, volatility_quantile=0.10)
    assert len(cleaned.symbols) == 9
    assert "S09" not in cleaned.symbols  # the highest-volatility series


def test_clean_exclusions_and_missing_warning():
    days = 50
    panel = make_panel({"AAA": np.full(days, 1.0), "BBB": np.full(days, 2.0)}, days)
    with pytest.warns(UserWarning, match="GHOST") as caught:
        cleaned = clean_panel(panel, 1.0, 0.0, exclusions=["BBB", "GHOST"])
    assert cleaned.symbols == ("AAA",)
    assert len(caught) == 1


def test_clean_does_not_warn_of_an_excluded_symbol_an_earlier_rule_dropped():
    days = 40
    stablecoin = np.full(days, 1.0)
    stablecoin[5:15] = np.nan
    panel = make_panel({"BTC-USD": np.full(days, 30000.0), "USDT-USD": stablecoin}, days)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cleaned, summary = clean_panel_report(
            panel, volatility_quantile=0.0, exclusions=["USDT-USD"]
        )
    assert cleaned.symbols == ("BTC-USD",)
    assert summary == {"missing": 1, "volatility": 0, "excluded": 0}


def test_clean_idempotent_without_volatility_rule(rng):
    days = 120
    columns = {
        "AAA": 10.0 * np.exp(np.cumsum(rng.standard_normal(days) * 0.01)),
        "BBB": 20.0 * np.exp(np.cumsum(rng.standard_normal(days) * 0.02)),
    }
    columns["AAA"][30:32] = np.nan
    panel = make_panel(columns, days)
    once = clean_panel(panel, missing_threshold=0.05, volatility_quantile=0.0)
    twice = clean_panel(once, missing_threshold=0.05, volatility_quantile=0.0)
    assert twice.symbols == once.symbols
    assert np.array_equal(twice.prices, once.prices)


def test_clean_symbol_count_monotone(rng):
    days = 150
    columns = {}
    for i in range(8):
        series = 10.0 * np.exp(np.cumsum(rng.standard_normal(days) * 0.01))
        if i % 3 == 0:
            series[20:20 + 2 * i] = np.nan
        columns[f"S{i}"] = series
    panel = make_panel(columns, days)
    loose = len(clean_panel(panel, 0.2, 0.0).symbols)
    tight = len(clean_panel(panel, 0.01, 0.0).symbols)
    assert tight <= loose
    fewer = len(clean_panel(panel, 0.2, 0.0, exclusions=["S1"]).symbols)
    assert fewer <= loose


def test_clean_rejects_empty_result():
    days = 30
    column = np.full(days, np.nan)
    column[0] = 1.0
    panel = make_panel({"A": column}, days)
    with pytest.raises(DataError, match="every symbol"):
        clean_panel(panel, missing_threshold=0.01, volatility_quantile=0.0)


@pytest.mark.parametrize(
    "rule, kwargs",
    [("volatility rule", dict(volatility_quantile=1.0)),
     ("exclusion list", dict(volatility_quantile=0.0, exclusions=["A", "B"]))],
)
def test_clean_names_the_rule_that_removed_every_symbol(rng, rule, kwargs):
    days = 30
    panel = make_panel({name: np.exp(rng.normal(0, 0.01, days).cumsum()) for name in "AB"}, days)
    with pytest.raises(DataError, match=rf"removed every symbol \({rule}\)"):
        clean_panel(panel, missing_threshold=0.01, **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [dict(missing_threshold=-0.01), dict(missing_threshold=1.5),
     dict(volatility_quantile=-0.1), dict(volatility_quantile=1.01)],
)
def test_clean_rejects_thresholds_outside_the_unit_interval(rng, kwargs):
    days = 30
    panel = make_panel({"A": np.exp(rng.normal(0, 0.01, days).cumsum())}, days)
    with pytest.raises(ParameterError, match=r"thresholds must lie in \[0, 1\]"):
        clean_panel_report(panel, **kwargs)


def _reference_clean(panel, missing_threshold, volatility_quantile, exclusions):
    """The cleaning rules taken one symbol and one day at a time, as the
    package once applied them."""
    kept, filled_columns = [], {}
    dropped = {"missing": 0, "volatility": 0, "excluded": 0}
    for j in range(len(panel.symbols)):
        column = panel.prices[:, j]
        if float(np.isnan(column).mean()) > missing_threshold or math.isnan(column[0]):
            dropped["missing"] += 1
            continue
        filled = column.copy()
        for i in range(1, filled.size):
            if math.isnan(filled[i]):
                filled[i] = filled[i - 1]
        kept.append(j)
        filled_columns[j] = filled
    if not kept:
        raise DataError("cleaning removed every symbol (missing-value rule)")
    if volatility_quantile > 0.0:
        deviations = {j: float(np.std(np.diff(np.log(filled_columns[j])), ddof=1)) for j in kept}
        drop_count = math.ceil(len(kept) * volatility_quantile)
        by_alpha_desc = sorted(kept, key=lambda j: panel.symbols[j], reverse=True)
        to_drop = set(sorted(by_alpha_desc, key=lambda j: -deviations[j])[:drop_count])
        dropped["volatility"] = len(to_drop)
        kept = [j for j in kept if j not in to_drop]
    if not kept:
        raise DataError("cleaning removed every symbol (volatility rule)")
    before = len(kept)
    kept = [j for j in kept if panel.symbols[j] not in exclusions]
    dropped["excluded"] = before - len(kept)
    if not kept:
        raise DataError("cleaning removed every symbol (exclusion list)")
    prices = np.column_stack([filled_columns[j] for j in kept])
    return PricePanel(panel.dates, tuple(panel.symbols[j] for j in kept), prices), dropped


def _random_price_panel(rng):
    """Prices with random gaps, some symbols unobserved on the first day, some
    columns repeated under a second name, which ties their volatility, and
    some run backwards: without gaps, those differ in volatility from the
    forward column only by the order of the sums, a near-tie that only the
    same summation order ranks alike."""
    n_dates, n_symbols = int(rng.integers(3, 60)), int(rng.integers(1, 10))
    log_prices = np.cumsum(
        rng.standard_normal((n_dates, n_symbols)) * rng.uniform(0.001, 0.1, n_symbols), axis=0
    )
    prices = np.exp(log_prices + rng.uniform(-3.0, 8.0, n_symbols))
    prices[rng.random(prices.shape) < rng.uniform(0.0, 0.1)] = np.nan
    prices[0, rng.random(n_symbols) < 0.2] = np.nan
    copies = rng.integers(0, n_symbols, int(rng.integers(0, 3)))
    reversed_ = rng.integers(0, n_symbols, int(rng.integers(0, 3)))
    prices = np.column_stack([prices, prices[:, copies], prices[::-1, reversed_]])
    dates, _ = _random_axes(rng, n_dates, 0)
    names = rng.permutation([f"S{i:02d}" for i in range(prices.shape[1])])
    return PricePanel(dates, tuple(names.tolist()), prices)


@pytest.mark.parametrize("missing_threshold", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("volatility_quantile", [0.0, 0.1, 0.5])
@pytest.mark.filterwarnings("ignore:exclusion list entry")
def test_clean_matches_the_per_symbol_rules(missing_threshold, volatility_quantile):
    rng = np.random.default_rng(round(100 * missing_threshold + 1000 * volatility_quantile))
    for _ in range(40):
        panel = _random_price_panel(rng)
        listed = rng.choice(panel.symbols, size=min(int(rng.integers(0, 3)), len(panel.symbols)))
        args = (panel, missing_threshold, volatility_quantile, [*listed.tolist(), "GHOST"])
        try:
            expected, expected_dropped = _reference_clean(*args)
        except DataError as exc:
            with pytest.raises(DataError, match=re.escape(str(exc))):
                clean_panel_report(*args)
            continue
        cleaned, dropped = clean_panel_report(*args)
        assert (cleaned.symbols, dropped) == (expected.symbols, expected_dropped)
        assert np.array_equal(_bits(cleaned.prices), _bits(expected.prices))
        assert cleaned.prices.flags.c_contiguous


def test_log_returns_basics():
    days = 5
    panel = make_panel({"FLAT": np.full(days, 7.0)}, days)
    returns = log_returns(panel)
    assert np.allclose(returns.values, 0.0)
    assert returns.n_dates == days - 1

    doubling = make_panel({"UP": 2.0 ** np.arange(days)}, days)
    assert np.allclose(log_returns(doubling).values, math.log(2.0))


def test_log_returns_hand_case():
    panel = make_panel({"A": np.array([100.0, 110.0, 99.0])}, 3)
    returns = log_returns(panel)
    assert np.allclose(returns.values[0], [math.log(1.1), math.log(0.9)])


def test_log_returns_requires_clean_panel():
    column = np.array([1.0, np.nan, 2.0])
    panel = make_panel({"A": column}, 3)
    with pytest.raises(DataError, match="missing"):
        log_returns(panel)


def test_log_returns_reexponentiate(rng):
    days = 40
    series = 10.0 * np.exp(np.cumsum(rng.standard_normal(days) * 0.05))
    panel = make_panel({"A": series}, days)
    returns = log_returns(panel)
    assert np.isclose(np.exp(returns.values[0].sum()), series[-1] / series[0], rtol=1e-10)


def test_returns_roundtrip(tmp_path, rng):
    days = 20
    panel = make_panel({"A": np.exp(rng.standard_normal(days) * 0.01 + 2),
                        "B": np.exp(rng.standard_normal(days) * 0.01 + 3)}, days)
    returns = log_returns(panel)
    path = tmp_path / "r.csv"
    write_returns(returns, path)
    loaded = load_returns(path)
    assert loaded.symbols == returns.symbols
    assert loaded.dates == returns.dates
    assert np.array_equal(loaded.values, returns.values)


def test_read_exclusions(tmp_path):
    path = tmp_path / "ex.txt"
    path.write_text("# stable coins\nUSDT\n\nEURS\n")
    assert read_exclusions(path) == ["USDT", "EURS"]


def _random_axes(rng, n_dates, n_symbols):
    day = dt.date(1999, 12, 31).toordinal() + np.cumsum(rng.integers(1, 40, size=n_dates))
    dates = tuple(dt.date.fromordinal(int(d)).isoformat() for d in day)
    alphabet = list("ABCXYZ019-._")
    symbols = tuple(
        f"{''.join(rng.choice(alphabet, size=int(rng.integers(1, 8))))}{i}" for i in range(n_symbols)
    )
    return dates, symbols


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize("seed", range(12))
def test_price_roundtrip_is_lossless(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n_dates, n_symbols = int(rng.integers(2, 30)), int(rng.integers(1, 9))
    dates, symbols = _random_axes(rng, n_dates, n_symbols)
    # positive prices over the whole double range, subnormals included
    prices = 10.0 ** rng.uniform(-310.0, 308.0, size=(n_dates, n_symbols))
    prices[prices == 0.0] = 5e-324
    prices[rng.random(prices.shape) < 0.2] = np.nan
    panel = PricePanel(dates=dates, symbols=symbols, prices=prices)
    write_prices(panel, tmp_path / "p.csv")
    again = load_prices(tmp_path / "p.csv")
    assert again.dates == dates and again.symbols == symbols
    assert np.array_equal(_bits(again.prices), _bits(panel.prices))


@pytest.mark.parametrize("seed", range(12))
def test_returns_roundtrip_is_lossless(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n_dates, n_symbols = int(rng.integers(1, 30)), int(rng.integers(1, 9))
    dates, symbols = _random_axes(rng, n_dates, n_symbols)
    values = rng.standard_normal((n_symbols, n_dates)) * 10.0 ** rng.uniform(
        -320.0, 300.0, size=(n_symbols, n_dates)
    )
    values.flat[rng.integers(0, values.size)] = -0.0
    panel = ReturnsPanel(dates=dates, symbols=symbols, values=values)
    write_returns(panel, tmp_path / "r.csv")
    again = load_returns(tmp_path / "r.csv")
    assert again.dates == dates and again.symbols == symbols
    assert np.array_equal(_bits(again.values), _bits(panel.values))


@pytest.mark.parametrize("load", [load_prices, load_returns])
@pytest.mark.parametrize(
    "text,problem",
    [
        pytest.param("date\n2024-01-01\n2024-01-02\n", "at least one nonempty symbol",
                     id="no-symbol"),
        pytest.param("date,A,\n2024-01-01,1,1\n2024-01-02,1,1\n", "at least one nonempty symbol",
                     id="empty-symbol"),
        pytest.param("date,A\n", "no data rows", id="header-only"),
        pytest.param("date,A\n\n\n", "no data rows", id="blank-rows-only"),
        pytest.param("", "empty file", id="empty-file"),
        pytest.param("Date,A\n2024-01-01,1\n", "headed 'date'", id="date-column-name"),
        pytest.param("date,A\n2024-01-01,1,2\n", "row 2: expected 2 cells, got 3",
                     id="extra-cell"),
    ],
)
def test_loaders_reject_the_same_malformed_tables(tmp_path, load, text, problem):
    path = write_csv(tmp_path / "t.csv", text)
    with pytest.raises(DataError, match=problem):
        load(path)


@pytest.mark.parametrize("load", [load_prices, load_returns])
def test_loaders_require_yyyy_mm_dd_dates(tmp_path, load):
    # as strings "20240102" sorts after "2024-01-03", though it is the day before
    path = write_csv(tmp_path / "t.csv", "date,A\n2024-01-03,1\n20240102,1\n")
    with pytest.raises(DataError, match="row 3: malformed date '20240102'"):
        load(path)


@pytest.mark.parametrize(
    "make",
    [
        lambda dates: PricePanel(dates, ("A",), np.ones((len(dates), 1))),
        lambda dates: ReturnsPanel(dates, ("A",), np.zeros((1, len(dates)))),
    ],
    ids=["prices", "returns"],
)
def test_panels_require_yyyy_mm_dd_dates(make):
    with pytest.raises(DataError, match="malformed date '20240102' at position 1"):
        make(("2024-01-03", "20240102"))


@pytest.mark.parametrize(
    "token,valid",
    [
        ("2024-01-02", True),
        ("0999-12-31", True),
        ("20240102", False),
        ("2024-1-02", False),
        ("2024-02-30", False),
        ("2024-W01-2", False),
        ("2024-01-02T00:00", False),
        (" 2024-01-02", False),
        ("", False),
    ],
)
def test_is_iso_date_accepts_only_the_canonical_spelling(token, valid):
    assert ingest.is_iso_date(token) is valid


def test_price_row_messages_name_the_cell(tmp_path):
    cases = {
        "date,A,B\n2024-01-01,1,-inf\n": "row 2, column 3: bad price '-inf'",
        "date,A,B\n2024-01-01,1, x \n": "row 2, column 3: bad price 'x'",
        "date,A,B\n2024-01-01,-0.0,2\n": "row 2, column 2: bad price '-0.0'",
        "date,A,B\n2024-01-01,,0\n": "row 2, column 3: bad price '0'",
    }
    for text, message in cases.items():
        with pytest.raises(DataError, match=message):
            load_prices(write_csv(tmp_path / "p.csv", text))


def _golden_panels():
    rng = np.random.default_rng(2024)
    dates = tuple(f"2024-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(60))
    symbols = ("AAA", "B-1", "c.x")
    prices = rng.uniform(0.01, 5000.0, size=(60, 3))
    prices[5, 1] = prices[7, 0] = np.nan
    prices[9, 2] = 5e-324
    prices[11, 1] = 1.7e308
    values = rng.standard_normal((3, 60)) * 0.01
    values[0, 3] = -0.0
    values[1, 4] = 1e-310
    values[2, 5] = -2.5e300
    return PricePanel(dates, symbols, prices), ReturnsPanel(dates, symbols, values)


# sha256 of the files these panels gave before the writers shared one codec
GOLDEN_PANEL_FILES = {
    "prices.csv": "8fddfc114f4a0e78fadbc9d479c25c8b43586802a11a57904fa6b803d0b665d3",
    "returns.csv": "520e6c441841483eec93635737ebf8f40991ddbfa0eea4d114d3dd94e40a81c6",
}


def test_panel_writers_keep_their_bytes(tmp_path):
    prices, returns = _golden_panels()
    write_prices(prices, tmp_path / "prices.csv")
    write_returns(returns, tmp_path / "returns.csv")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_PANEL_FILES
    }
    assert digests == GOLDEN_PANEL_FILES
