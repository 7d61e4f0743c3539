import datetime as dt
import hashlib
import json
import os
import re

import numpy as np
import pytest

import covdenoise.atomic as atomic
import covdenoise.backtest as backtest
import covdenoise.portfolio as portfolio
from covdenoise import (
    ParameterError,
    WalkForwardConfig,
    buy_and_hold,
    mvp_plus_weights,
    portfolio_metrics,
    WeightVector,
    uniform_portfolio,
    walk_forward,
    write_report_files,
)
from covdenoise._blas import single_blas_thread
from covdenoise.covariance import CovarianceMatrix, symmetrize
from covdenoise.denoiser import DenoiserConfig
from covdenoise.ingest import ReturnsPanel
from conftest import count_decompositions, solve_per_pivot


def make_panel(values, start="2023-01-01"):
    values = np.asarray(values, dtype=float)
    first = dt.date.fromisoformat(start)
    dates = tuple((first + dt.timedelta(days=i)).isoformat() for i in range(values.shape[1]))
    symbols = tuple(f"A{i}" for i in range(values.shape[0]))
    return ReturnsPanel(dates=dates, symbols=symbols, values=values)


def iid_panel(rng, p, days, scale=0.02):
    return make_panel(rng.standard_normal((p, days)) * scale)


def test_rebalance_count_and_budget(rng):
    panel = iid_panel(rng, 2, 260)
    config = WalkForwardConfig(split_date=panel.dates[60], t_in=30, t_out=30, delta_t=30)
    report = walk_forward(panel, config)
    assert len(report.rebalance_dates) == (200 - 30) // 30 + 1  # 6
    for allocation in report.weight_history:
        assert np.isclose(allocation.weights.sum(), 1.0)
        assert np.all(allocation.weights >= -1e-10)
    assert report.daily_returns.size == 6 * 30
    assert 0.0 <= report.metrics.turnover <= 2.0


@pytest.mark.parametrize(
    "available,t_out,delta,expected",
    [(1360, 182, 182, 7), (200, 30, 30, 6), (30, 30, 30, 1), (59, 30, 30, 1), (60, 30, 30, 2)],
)
def test_rebalance_count_formula(available, t_out, delta, expected):
    panel = make_panel(np.zeros((1, available)))
    boundaries = backtest._rebalance_boundaries(panel, panel.dates[0], t_out)
    assert len(boundaries) == expected
    assert boundaries[0] == 0
    assert expected == 1 or boundaries.step == delta


@pytest.mark.parametrize("t_out, delta_t", [(30, 25), (25, 30)])
def test_hold_length_must_equal_the_rebalance_step(t_out, delta_t):
    with pytest.raises(ParameterError, match=rf"delta_t \({delta_t}\).*t_out \({t_out}\)"):
        WalkForwardConfig(split_date="2023-03-01", t_out=t_out, delta_t=delta_t)


@pytest.mark.parametrize(
    "overrides, message",
    [({"t_in": 1}, "t_in, t_out and delta_t must all be >= 2"),
     ({"t_out": 1, "delta_t": 1}, "t_in, t_out and delta_t must all be >= 2"),
     ({"return_mode": "arithmetic"}, "return_mode must be one of ('simple', 'log')"),
     ({"estimator": "cnn", "train_window_count": 1,
       "denoiser_config": DenoiserConfig(input_size=3)}, "need train_window_count >= 2"),
     ({"estimator": "2s-hybrid"}, "estimator '2s-hybrid' requires a denoiser configuration"),
     ({"train_stride": 0}, "train_stride must be >= 1 and pre_history_days >= 0"),
     ({"pre_history_days": -1}, "train_stride must be >= 1 and pre_history_days >= 0")],
    ids=["t_in", "t_out", "return_mode", "train_window_count", "denoiser_config",
         "train_stride", "pre_history_days"],
)
def test_walk_forward_config_rejects_each_bad_field_at_construction(overrides, message):
    # a learned estimator without a network fails here, before any window runs
    with pytest.raises(ParameterError, match=re.escape(message)):
        WalkForwardConfig(split_date="2023-03-01", **overrides)


# "2023-04-1" sorts between 2023-04-09 and 2023-04-10, so a string search
# would start trading nine days late
@pytest.mark.parametrize("value", ["2023-04-1", "20230401", "2023-02-30"])
def test_split_date_must_be_an_iso_date(value):
    with pytest.raises(ParameterError, match=f"split date {value!r} is not a valid YYYY-MM-DD"):
        WalkForwardConfig(split_date=value, t_in=5, t_out=10, delta_t=10)


def test_split_date_between_panel_dates_rebalances_on_the_next_date():
    panel = make_panel(np.zeros((1, 90)))
    gapped = ReturnsPanel(panel.dates[::2], panel.symbols, panel.values[:, ::2])
    boundaries = backtest._rebalance_boundaries(gapped, panel.dates[19], 10)
    assert list(boundaries) == [10, 20, 30]
    assert gapped.dates[10] == panel.dates[20]
    with pytest.raises(ParameterError, match="after the panel's last date"):
        backtest._rebalance_boundaries(panel, "2023-04-01", 20)
    with pytest.raises(ParameterError, match="only 15 out-of-sample days"):
        backtest._rebalance_boundaries(panel, panel.dates[75], 20)


def test_paper_shaped_calendar_gives_seven_rebalances(rng):
    days_before = 200
    panel = iid_panel(rng, 3, days_before + 1360)
    config = WalkForwardConfig(split_date=panel.dates[days_before], t_in=182, t_out=182, delta_t=182)
    report = walk_forward(panel, config)
    assert len(report.rebalance_dates) == 7


def test_single_asset_portfolio_tracks_asset(rng):
    panel = iid_panel(rng, 1, 120)
    config = WalkForwardConfig(split_date=panel.dates[40], t_in=20, t_out=20, delta_t=20)
    report = walk_forward(panel, config)
    assert all(np.allclose(w.weights, [1.0]) for w in report.weight_history)
    assert report.metrics.turnover == 0.0
    span = slice(40, 40 + report.daily_returns.size)
    assert np.allclose(report.daily_returns, np.exp(panel.values[0, span]) - 1.0)


def test_naive_walk_forward_matches_direct_allocation(rng):
    panel = iid_panel(rng, 2, 140)
    config = WalkForwardConfig(split_date=panel.dates[50], t_in=30, t_out=30, delta_t=30)
    report = walk_forward(panel, config)
    window = panel.values[:, 20:50]
    sample = symmetrize(window @ window.T / 30)
    expected = mvp_plus_weights(CovarianceMatrix(sample, "sample"))
    assert np.max(np.abs(report.weight_history[0].weights - expected.weights)) <= 1e-12


def test_no_look_ahead_is_bitwise(rng):
    panel = iid_panel(rng, 3, 200)
    config = WalkForwardConfig(split_date=panel.dates[80], t_in=40, t_out=40, delta_t=40)
    report = walk_forward(panel, config)
    perturbed_values = panel.values.copy()
    perturbed_values[:, -1] += 0.5  # inside the last hold window, after every rebalance
    perturbed = ReturnsPanel(dates=panel.dates, symbols=panel.symbols, values=perturbed_values)
    second = walk_forward(perturbed, config)
    for before, after in zip(report.weight_history, second.weight_history):
        assert np.array_equal(before.weights, after.weights)


def test_log_return_mode_keeps_weights_constant(rng):
    panel = iid_panel(rng, 2, 140)
    config = WalkForwardConfig(
        split_date=panel.dates[50], t_in=30, t_out=30, delta_t=30, return_mode="log"
    )
    report = walk_forward(panel, config)
    w = report.weight_history[0].weights
    hold = panel.values[:, 50:80]
    assert np.allclose(report.daily_returns[:30], np.exp(w @ hold) - 1.0)


def test_seriation_roundtrip_keeps_original_labels(rng, monkeypatch):
    # identity denoiser: reordering before estimation then inverse-permuting
    # must reproduce the unseriated run exactly
    panel = iid_panel(rng, 4, 160)
    real_make = backtest.make_estimator

    def identity_make(name, n, **kwargs):
        return lambda s: s.retagged("estimator:cnn")

    monkeypatch.setattr(backtest, "make_estimator", identity_make)
    net = DenoiserConfig(input_size=4, num_blocks=1, num_filters=2, kernel=3,
                         epochs=0, batch_size=4, seed=1)
    base = dict(split_date=panel.dates[70], t_in=30, t_out=30, delta_t=30,
                estimator="cnn", denoiser_config=net, train_window_count=2,
                train_stride=1, pre_history_days=31)
    with_seriation = walk_forward(panel, WalkForwardConfig(**base, seriation_per_window=True))
    without = walk_forward(panel, WalkForwardConfig(**base, seriation_per_window=False))
    for a, b in zip(with_seriation.weight_history, without.weight_history):
        assert np.array_equal(a.weights, b.weights)
    monkeypatch.setattr(backtest, "make_estimator", real_make)


def test_trained_estimator_walk_forward_runs(rng):
    panel = iid_panel(rng, 3, 220)
    net = DenoiserConfig(input_size=3, num_blocks=1, num_filters=4, kernel=3,
                         epochs=1, batch_size=8, seed=2)
    config = WalkForwardConfig(
        split_date=panel.dates[90], t_in=25, t_out=40, delta_t=40, estimator="cnn",
        denoiser_config=net, train_window_count=5, train_stride=1, pre_history_days=60,
    )
    report = walk_forward(panel, config)
    assert len(report.rebalance_dates) >= 2
    assert "final_train_mse" in report.diagnostics[0]
    assert "in_sample_condition" in report.diagnostics[0]


def test_insufficient_history_names_shortfall(rng):
    panel = iid_panel(rng, 2, 100)
    config = WalkForwardConfig(split_date=panel.dates[10], t_in=30, t_out=30, delta_t=30)
    with pytest.raises(ParameterError, match="20 more"):
        walk_forward(panel, config)


def test_buy_and_hold_tracks_column(rng):
    panel = iid_panel(rng, 2, 150)
    config = WalkForwardConfig(split_date=panel.dates[50], t_in=30, t_out=30, delta_t=30)
    report = buy_and_hold(panel, "A1", config)
    horizon = report.daily_returns.size
    assert np.allclose(report.daily_returns, np.exp(panel.values[1, 50:50 + horizon]) - 1.0)
    assert report.metrics.turnover == 0.0
    with pytest.raises(ParameterError):
        buy_and_hold(panel, "ZZZ", config)


def test_buy_and_hold_flat_and_scaled_paths():
    days = 120
    values = np.zeros((1, days))
    flat = make_panel(values)
    config = WalkForwardConfig(split_date=flat.dates[40], t_in=20, t_out=20, delta_t=20)
    report = buy_and_hold(flat, "A0", config)
    assert report.metrics.cumulative_return == 1.0
    assert report.metrics.max_drawdown == 0.0

    horizon = (len(flat.dates) - 40 - 20) // 20 * 20 + 20
    lifted = values.copy()
    lifted[0, 40:40 + horizon] = np.log(1.4) / horizon
    grown = make_panel(lifted)
    report = buy_and_hold(grown, "A0", config)
    assert np.isclose(report.metrics.cumulative_return, 1.4)


def reference_buy_and_hold(panel, symbol, config):
    """buy_and_hold with its own horizon, returns and metrics, as it was
    before it ran through the rebalance loop."""
    if symbol not in panel.symbols:
        raise ParameterError(f"unknown symbol {symbol!r}")
    split = next(i for i, date in enumerate(panel.dates) if date >= config.split_date)
    count = (panel.n_dates - split - config.t_out) // config.delta_t + 1
    horizon = (count - 1) * config.delta_t + config.t_out
    column = panel.symbols.index(symbol)
    returns = np.exp(panel.values[column, split:split + horizon]) - 1.0
    weights = np.zeros(len(panel.symbols))
    weights[column] = 1.0
    return backtest.BacktestReport(
        rebalance_dates=[panel.dates[split]],
        weight_history=[WeightVector(weights, long_only=True)],
        daily_dates=list(panel.dates[split:split + horizon]),
        daily_returns=returns,
        metrics=portfolio_metrics(returns, [weights]),
        symbols=panel.symbols,
        diagnostics=[{"window": 0, "date": panel.dates[split], "symbol": symbol}],
    )


@pytest.mark.parametrize("return_mode", backtest.RETURN_MODES)
def test_buy_and_hold_matches_the_reference(return_mode):
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = int(rng.integers(1, 7))
        days = int(rng.integers(60, 400))
        hold = int(rng.integers(2, 60))
        split = int(rng.integers(0, days - hold + 1))
        panel = iid_panel(rng, p, days, scale=float(rng.uniform(0.005, 0.08)))
        symbol = panel.symbols[int(rng.integers(p))]
        config = WalkForwardConfig(split_date=panel.dates[split], t_out=hold, delta_t=hold,
                                   return_mode=return_mode)
        report = buy_and_hold(panel, symbol, config)
        expected = reference_buy_and_hold(panel, symbol, config)
        assert report.rebalance_dates == expected.rebalance_dates
        assert report.daily_dates == expected.daily_dates
        assert np.array_equal(report.daily_returns, expected.daily_returns)
        assert len(report.weight_history) == 1
        assert np.array_equal(report.weight_history[0].weights, expected.weight_history[0].weights)
        assert report.metrics == expected.metrics
        assert report.metrics.to_json_text() == expected.metrics.to_json_text()
        assert report.diagnostics == expected.diagnostics
        assert report.symbols == expected.symbols


@pytest.mark.parametrize("split, hold", [(40, 20), (50, 30), (45, 7)])
def test_buy_and_hold_covers_the_walk_forward_days(rng, split, hold):
    panel = iid_panel(rng, 3, 163)
    config = WalkForwardConfig(split_date=panel.dates[split], t_in=30, t_out=hold, delta_t=hold)
    held = buy_and_hold(panel, "A2", config)
    traded = walk_forward(panel, config)
    assert held.daily_dates == traded.daily_dates
    assert held.rebalance_dates == traded.rebalance_dates[:1]
    assert len(set(traded.daily_dates)) == len(traded.daily_dates)


def test_uniform_single_asset_equals_buy_and_hold(rng):
    panel = iid_panel(rng, 1, 130)
    config = WalkForwardConfig(split_date=panel.dates[40], t_in=20, t_out=20, delta_t=20)
    uniform = uniform_portfolio(panel, config)
    single = buy_and_hold(panel, "A0", config)
    assert np.allclose(uniform.daily_returns, single.daily_returns)
    assert uniform.metrics.cumulative_return == pytest.approx(single.metrics.cumulative_return)


def test_uniform_identical_assets_match_component(rng):
    row = rng.standard_normal(140) * 0.01
    panel = make_panel(np.vstack([row, row]))
    config = WalkForwardConfig(split_date=panel.dates[40], t_in=20, t_out=40, delta_t=40)
    report = uniform_portfolio(panel, config)
    horizon = report.daily_returns.size
    assert np.allclose(report.daily_returns, np.exp(row[40:40 + horizon]) - 1.0)


def test_uniform_diversification_variance(rng):
    panel = iid_panel(rng, 4, 400, scale=0.03)
    config = WalkForwardConfig(split_date=panel.dates[40], t_in=20, t_out=120, delta_t=120)
    report = uniform_portfolio(panel, config)
    asset_var = np.var(np.exp(panel.values[:, 40:]) - 1.0, axis=1).mean()
    port_var = np.var(report.daily_returns)
    assert port_var == pytest.approx(asset_var / 4, rel=0.35)
    assert report.diagnostics[0]["turnover_target_vs_target"] == 0.0
    assert report.diagnostics[0]["turnover_reset_from_drift"] >= 0.0


def test_report_files_roundtrip(tmp_path, rng):
    panel = iid_panel(rng, 2, 140)
    config = WalkForwardConfig(split_date=panel.dates[50], t_in=30, t_out=30, delta_t=30)
    report = walk_forward(panel, config)
    paths = write_report_files(report, tmp_path / "out")
    for path in paths.values():
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()
    weights_lines = paths["weights"].read_text().strip().splitlines()
    assert weights_lines[0] == "date,A0,A1"
    assert len(weights_lines) == 1 + len(report.rebalance_dates)
    returns_lines = paths["returns"].read_text().strip().splitlines()
    assert len(returns_lines) == 1 + report.daily_returns.size


def _strategy_reports(rng):
    panel = iid_panel(rng, 3, 140)
    config = WalkForwardConfig(split_date=panel.dates[50], t_in=30, t_out=30, delta_t=30)
    return {
        "walk_forward": walk_forward(panel, config),
        "uniform_portfolio": uniform_portfolio(panel, config),
        "buy_and_hold": buy_and_hold(panel, "A1", config),
    }


@pytest.mark.parametrize("strategy", ["walk_forward", "uniform_portfolio", "buy_and_hold"])
def test_report_files_include_the_diagnostics(tmp_path, rng, strategy):
    report = _strategy_reports(rng)[strategy]
    paths = write_report_files(report, tmp_path / "out")
    assert paths["diagnostics"] == tmp_path / "out" / "diagnostics.json"
    assert json.loads(paths["diagnostics"].read_text()) == report.diagnostics
    assert report.diagnostics


def test_every_report_file_is_replaced_atomically(tmp_path, rng, monkeypatch):
    report = _strategy_reports(rng)["walk_forward"]
    replaced = []
    real_replace = os.replace

    def replace(src, dst):
        replaced.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(atomic.os, "replace", replace)
    paths = write_report_files(report, tmp_path / "out")
    assert sorted(map(str, replaced)) == sorted(map(str, paths.values()))
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        p.name for p in paths.values()
    )


# sha256 of the report files of this backtest; the diagnostics file is not
# pinned.  Recorded again when the QP began solving its free block at each
# pivot on sigma's own values: weights moved by at most 1.7e-16 and daily
# returns by 4.4e-16, and test_pinned_report_matches_the_solve_per_pivot_oracle
# checks them
GOLDEN_REPORT_FILES = {
    "metrics.json": "c05d07d097efa1aaf11b613850a61e114edca60d647561cd1024cc3116935cde",
    "weights.csv": "ceb5dc475e14e5e8e8fa772d92043193e436f81513901609a40c8dbee03cb99e",
    "daily_returns.csv": "f4423ea5fa1642accc53477e641c8001beae045109973cab19cbd9d6636264ba",
    "wealth.csv": "0445880992b44c75364bb8d79a5e1f71b1942219e8e6f28322205a72652ac0c7",
}


def test_report_files_keep_their_bytes(tmp_path):
    panel = iid_panel(np.random.default_rng(7), 3, 140)
    config = WalkForwardConfig(split_date=panel.dates[50], t_in=30, t_out=20, delta_t=20)
    write_report_files(walk_forward(panel, config), tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_REPORT_FILES
    }
    assert digests == GOLDEN_REPORT_FILES


def test_pinned_report_matches_the_solve_per_pivot_oracle(monkeypatch):
    panel = iid_panel(np.random.default_rng(7), 3, 140)
    config = WalkForwardConfig(split_date=panel.dates[50], t_in=30, t_out=20, delta_t=20)
    report = walk_forward(panel, config)
    monkeypatch.setattr(backtest, "mvp_plus_weights",
                        lambda sigma, support=None: WeightVector(solve_per_pivot(sigma)[0],
                                                                 long_only=True))
    expected = walk_forward(panel, config)
    for allocation, oracle in zip(report.weight_history, expected.weight_history, strict=True):
        assert np.array_equal(allocation.weights > 0, oracle.weights > 0)
        np.testing.assert_allclose(allocation.weights, oracle.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.daily_returns, expected.daily_returns, rtol=0, atol=1e-12)


def correlated_panel(seed, p, days):
    """Daily log returns with a positive market factor and t-distributed noise."""
    rng = np.random.default_rng(seed)
    market = 0.035 * rng.standard_t(4, days) / np.sqrt(2.0)
    noise = rng.uniform(0.02, 0.06, (p, 1)) * rng.standard_t(3, (p, days)) / np.sqrt(3.0)
    return make_panel(rng.uniform(0.6, 1.4, (p, 1)) * market + noise)


@pytest.mark.parametrize(
    "p,t_in,t_out,estimator",
    [(30, 60, 7, "naive"), (54, 30, 7, "naive"), (40, 30, 7, "2s-lp"), (30, 60, 60, "naive"),
     (54, 30, 30, "naive")],
)
def test_warm_started_weights_match_a_cold_solve_on_every_window(
    monkeypatch, p, t_in, t_out, estimator
):
    # weekly rebalances, or holds as long as the in-sample window, so that
    # consecutive windows share no day; t_in < p leaves the naive windows
    # singular.  Each QP after the first starts from the previous window's
    # support, lands on the solve from all assets free and blocks far fewer
    # assets than it does
    panel = correlated_panel(0, p, t_in + 20 * t_out)
    config = WalkForwardConfig(split_date=panel.dates[t_in], estimator=estimator, t_in=t_in,
                               t_out=t_out, delta_t=t_out)
    calls = []
    blocks = {"walk_forward": 0, "cold": 0}
    phase = "walk_forward"
    ratio_test = portfolio._ratio_test

    def recording(sigma, support=None):
        allocation = mvp_plus_weights(sigma, support=support)
        calls.append((sigma, support, allocation.weights))
        return allocation

    def counting(falling, ratios):
        limit, blocker = ratio_test(falling, ratios)
        blocks[phase] += blocker >= 0
        return limit, blocker

    monkeypatch.setattr(backtest, "mvp_plus_weights", recording)
    monkeypatch.setattr(portfolio, "_ratio_test", counting)
    report = walk_forward(panel, config)
    assert len(calls) == len(report.weight_history) == 20
    phase = "cold"
    previous = None
    for sigma, support, weights in calls:
        if previous is None:
            assert support is None
        else:
            assert np.array_equal(support, previous > 0)
        cold = mvp_plus_weights(sigma, support=np.ones(p, dtype=bool)).weights
        assert np.array_equal(weights > 0, cold > 0)
        np.testing.assert_allclose(weights, cold, rtol=0, atol=1e-12)
        previous = weights
    assert blocks["walk_forward"] * 3 < blocks["cold"]


def reference_hold_period(weights, window, mode):
    """Daily portfolio simple returns over one window's hold plus its drifted
    weights, as the engine computed them one window and one day at a time."""
    if mode == "log":
        portfolio = np.exp(weights @ window) - 1.0
        return portfolio, weights.copy()
    growth = np.exp(window)  # price relatives by asset and day
    holdings = weights.copy()
    out = np.empty(window.shape[1])
    for day in range(window.shape[1]):
        value = holdings * growth[:, day]
        total = value.sum()
        out[day] = total - 1.0
        holdings = value / total
    return out, holdings


def reference_rebalance_loop(panel, boundaries, hold_days, return_mode, allocate):
    """The rebalance loop that allocated and then held each window in turn,
    each window on its own BLAS pin, carrying the drifted weights across."""
    weight_history, pre_rebalance, daily_returns, diagnostics = [], [], [], []
    drifted = None
    for k, boundary in enumerate(boundaries):
        hold = panel.values[:, boundary:boundary + hold_days]
        with single_blas_thread():
            allocation, window_diag = allocate(k, boundary)
            if drifted is not None:
                pre_rebalance.append(drifted)
            returns, drifted = reference_hold_period(allocation.weights, hold, return_mode)
        weight_history.append(allocation)
        daily_returns.append(returns)
        diagnostics.append(window_diag)
    series = np.concatenate(daily_returns)
    metrics = backtest.portfolio_metrics(
        series, [w.weights for w in weight_history], pre_rebalance_weights=pre_rebalance
    )
    return backtest.BacktestReport(
        rebalance_dates=[panel.dates[boundary] for boundary in boundaries],
        weight_history=weight_history,
        daily_dates=list(panel.dates[boundaries[0]:boundaries[-1] + hold_days]),
        daily_returns=series,
        metrics=metrics,
        symbols=panel.symbols,
        diagnostics=diagnostics,
    )


STRATEGIES = {
    "walk_forward": walk_forward,
    "uniform_portfolio": uniform_portfolio,
    "buy_and_hold": lambda panel, config: buy_and_hold(panel, "A2", config),
}


@pytest.mark.parametrize("return_mode", backtest.RETURN_MODES)
@pytest.mark.parametrize("t_out", [7, 30, 182])
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_one_pass_hold_is_bitwise_the_per_window_reference(monkeypatch, strategy, t_out,
                                                           return_mode):
    # 80, 18 or 3 windows, and a few days left over after the last hold; past
    # eight assets a sum is pairwise, so summing in another order would show
    panel = correlated_panel(3, 20, 600)
    config = WalkForwardConfig(split_date=panel.dates[40], t_in=40, t_out=t_out, delta_t=t_out,
                               return_mode=return_mode)
    pre_rebalance = []
    real_metrics = backtest.portfolio_metrics

    def recording(returns, weights, pre_rebalance_weights=None):
        pre_rebalance.append(np.array(pre_rebalance_weights, dtype=float).reshape(-1, 20))
        return real_metrics(returns, weights, pre_rebalance_weights=pre_rebalance_weights)

    monkeypatch.setattr(backtest, "portfolio_metrics", recording)
    report = STRATEGIES[strategy](panel, config)
    monkeypatch.setattr(backtest, "_rebalance_loop", reference_rebalance_loop)
    expected = STRATEGIES[strategy](panel, config)
    assert report.daily_returns.tobytes() == expected.daily_returns.tobytes()
    assert pre_rebalance[0].tobytes() == pre_rebalance[1].tobytes()
    assert report.metrics.to_json_text() == expected.metrics.to_json_text()
    assert report.metrics == expected.metrics
    assert [w.weights.tobytes() for w in report.weight_history] == [
        w.weights.tobytes() for w in expected.weight_history
    ]
    assert report.rebalance_dates == expected.rebalance_dates
    assert report.daily_dates == expected.daily_dates
    assert report.diagnostics == expected.diagnostics


def test_two_step_hybrid_walk_forward_runs(rng):
    panel = iid_panel(rng, 3, 220)
    net = DenoiserConfig(input_size=3, num_blocks=1, num_filters=2, kernel=3,
                         epochs=1, batch_size=8, seed=4)
    config = WalkForwardConfig(
        split_date=panel.dates[90], t_in=25, t_out=60, delta_t=60, estimator="2s-hybrid",
        denoiser_config=net, train_window_count=4, train_stride=2, pre_history_days=60,
    )
    report = walk_forward(panel, config)
    assert len(report.rebalance_dates) == 2
    for allocation in report.weight_history:
        assert np.isclose(allocation.weights.sum(), 1.0)


def test_estimator_failure_names_window(rng, monkeypatch):
    panel = iid_panel(rng, 2, 140)
    from covdenoise.errors import NumericError

    def broken_make(name, n, **kwargs):
        def estimator(s):
            raise NumericError("synthetic blow-up")

        return estimator

    monkeypatch.setattr(backtest, "make_estimator", broken_make)
    config = WalkForwardConfig(split_date=panel.dates[50], t_in=30, t_out=30, delta_t=30)
    with pytest.raises(NumericError, match="window 0"):
        walk_forward(panel, config)


def test_uniform_shares_the_walk_forward_calendar(rng):
    panel = iid_panel(rng, 3, 200)
    config = WalkForwardConfig(split_date=panel.dates[50], t_in=30, t_out=25, delta_t=25)
    uniform = uniform_portfolio(panel, config)
    naive = walk_forward(panel, config)
    assert uniform.rebalance_dates == naive.rebalance_dates
    assert uniform.daily_dates == naive.daily_dates
    for allocation in uniform.weight_history:
        assert np.array_equal(allocation.weights, np.full(3, 1.0 / 3.0))


def test_uniform_needs_no_estimation_history(rng):
    panel = iid_panel(rng, 3, 100)
    config = WalkForwardConfig(split_date=panel.dates[0], t_in=30, t_out=30, delta_t=30)
    with pytest.raises(ParameterError, match="insufficient history"):
        walk_forward(panel, config)
    report = uniform_portfolio(panel, config)
    assert report.rebalance_dates == [panel.dates[0], panel.dates[30], panel.dates[60]]


@pytest.mark.parametrize(
    "estimator, eigh, eigvalsh", [("naive", 0, 1), ("alca", 0, 2), ("2s-lp", 1, 1)]
)
def test_each_window_matrix_is_decomposed_once(rng, monkeypatch, estimator, eigh, eigvalsh):
    # five iid assets all hold weight, so every QP is the cold all-free start;
    # its estimate is full rank, so it reads the validation eigenvalues and no
    # spectrum: naive makes only the sample's validation, whose eigenvalues
    # also give the condition number; alca validates its estimate too; 2s-lp
    # validates the sample from the one eigh its lp stage reads, recomposes lp
    # without LAPACK, and validates the filtered estimate
    panel = iid_panel(rng, 5, 200)
    config = WalkForwardConfig(split_date=panel.dates[60], estimator=estimator,
                               t_in=40, t_out=30, delta_t=30)
    counts = count_decompositions(monkeypatch)
    report = walk_forward(panel, config)
    windows = len(report.rebalance_dates)
    assert all(np.all(allocation.weights > 0) for allocation in report.weight_history)
    assert counts == {"eigh": eigh * windows, "eigvalsh": eigvalsh * windows}


@pytest.mark.parametrize("estimator, eigh", [("naive", 0), ("2s-lp", 1)])
def test_warm_windows_decompose_only_the_sample_an_estimator_reads(monkeypatch, estimator, eigh):
    # on a full-rank correlated panel every QP, the first cold one and the
    # warm starts after it, works on its estimate's values and reads the
    # validation eigenvalues alone: a naive window calls no eigh, a 2s-lp one
    # only the sample's
    panel = correlated_panel(0, 20, 60 + 20 * 7)
    config = WalkForwardConfig(split_date=panel.dates[60], estimator=estimator,
                               t_in=60, t_out=7, delta_t=7)
    counts = count_decompositions(monkeypatch)
    report = walk_forward(panel, config)
    windows = len(report.rebalance_dates)
    assert windows == 20
    assert all(np.count_nonzero(allocation.weights) < 20 for allocation in report.weight_history)
    assert counts == {"eigh": eigh * windows, "eigvalsh": windows}


def test_seriation_validates_only_the_unpermuted_estimate(rng, monkeypatch):
    panel = iid_panel(rng, 4, 160)
    monkeypatch.setattr(backtest, "make_estimator",
                        lambda name, n, **kwargs: lambda s: s.retagged("estimator:cnn"))
    net = DenoiserConfig(input_size=4, num_blocks=1, num_filters=2, kernel=3,
                         epochs=0, batch_size=4, seed=1)
    base = dict(split_date=panel.dates[70], t_in=30, t_out=30, delta_t=30,
                estimator="cnn", denoiser_config=net, train_window_count=2,
                train_stride=1, pre_history_days=31)
    validations = {}
    for seriation in (False, True):
        counts = count_decompositions(monkeypatch)
        report = walk_forward(panel, WalkForwardConfig(**base, seriation_per_window=seriation))
        validations[seriation] = counts["eigvalsh"] / len(report.rebalance_dates)
    # the seriation pass orders the raw window covariance without validating it
    assert validations == {False: 1, True: 2}
