"""Walk-forward (rolling-window) backtesting: estimate in-sample, allocate
long-only minimum variance, hold out-of-sample, rebalance, aggregate metrics.

One calendar serves every strategy: ``t_out`` must equal ``delta_t``, so the
holds from the first date on or after ``split_date`` run back to back, never
overlapping, until fewer than ``t_out`` days are left.  Buy-and-hold is one
hold over exactly those days.

Weights drift with prices inside each hold period (no daily renormalization);
turnover is measured between the drifted weights and the next target
allocation.  Nothing after a rebalance boundary ever enters that rebalance's
estimate, so the engine is free of look-ahead by construction.

Each window's long-only QP starts from the previous allocation's support
(the ``support`` warm start of :func:`~covdenoise.portfolio.mvp_plus_weights`):
consecutive windows move the support by a few assets, so the solver pivots a
few times instead of blocking most assets one by one.  The warm start runs
only below the estimate's rank, where it ends on the cold solve's weights to
1e-12; where a singular estimate's optimum reaches its rank the cold solve
decides.  So a window's weights depend on the previous window's only through
rounding.

Each window's estimate, allocation and hold run on one BLAS thread; a
``cnn``/``hybrid`` window's training keeps the host's BLAS threads.  This is
the package's BLAS rule, stated in :mod:`covdenoise._blas`.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ._blas import single_blas_thread
from .atomic import atomic_write
from .covariance import CovarianceMatrix, window_covariance
from .errors import CovDenoiseError, ParameterError
from .estimators import make_estimator, network_mode
from .ingest import ReturnsPanel, is_iso_date, write_dated_table
from .portfolio import PerformanceMetrics, WeightVector, mvp_plus_weights, portfolio_metrics
from .spectral import cov_to_corr, invert_permutation, spectral_seriation

RETURN_MODES = ("simple", "log")


@dataclass(frozen=True)
class WalkForwardConfig:
    split_date: str
    estimator: str = "naive"
    t_in: int = 182
    t_out: int = 182
    delta_t: int = 182
    return_mode: str = "simple"
    denoiser_config: Any = None
    train_window_count: int = 100
    train_stride: int = 1
    pre_history_days: int = 282
    seriation_per_window: bool = True

    def __post_init__(self) -> None:
        if not is_iso_date(self.split_date):
            raise ParameterError(f"split date {self.split_date!r} is not a valid YYYY-MM-DD date")
        if self.t_in < 2 or self.t_out < 2 or self.delta_t < 2:
            raise ParameterError("t_in, t_out and delta_t must all be >= 2")
        if self.delta_t != self.t_out:
            raise ParameterError(f"delta_t ({self.delta_t}) must equal t_out ({self.t_out})")
        mode = network_mode(self.estimator)
        if self.return_mode not in RETURN_MODES:
            raise ParameterError(f"return_mode must be one of {RETURN_MODES}")
        if mode is not None and self.train_window_count < 2:
            raise ParameterError("trained estimators need train_window_count >= 2")
        if self.train_stride < 1 or self.pre_history_days < 0:
            raise ParameterError("train_stride must be >= 1 and pre_history_days >= 0")


@dataclass
class BacktestReport:
    rebalance_dates: list[str]
    weight_history: list[WeightVector]
    daily_dates: list[str]
    daily_returns: np.ndarray
    metrics: PerformanceMetrics
    symbols: tuple[str, ...]
    diagnostics: list[dict] = field(default_factory=list)


def _rebalance_boundaries(panel: ReturnsPanel, split_date: str, t_out: int) -> range:
    """Panel indices of the rebalances: the first date on or after
    ``split_date``, then every ``t_out`` days while a full hold remains."""
    split = bisect.bisect_left(panel.dates, split_date)
    if split == panel.n_dates:
        raise ParameterError(f"split date {split_date} is after the panel's last date")
    available = panel.n_dates - split
    if available < t_out:
        raise ParameterError(
            f"only {available} out-of-sample days available but one window needs {t_out}"
        )
    return range(split, panel.n_dates - t_out + 1, t_out)


def _hold_period(
    weights: np.ndarray, window: np.ndarray, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Daily portfolio simple returns over a hold window plus drifted weights."""
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


def _train_window_weights(config: WalkForwardConfig, mode: str, training_block: np.ndarray):
    from .denoiser import build_training_set_rolling, train

    if config.denoiser_config is None:
        raise ParameterError(f"estimator {config.estimator!r} requires a denoiser configuration")
    data = build_training_set_rolling(
        training_block,
        window_length=config.t_in,
        count=config.train_window_count,
        stride=config.train_stride,
        mode=mode,
    )
    return train(replace(config.denoiser_config, mode=mode), data)


def _rebalance_loop(
    panel: ReturnsPanel,
    boundaries: range,
    hold_days: int,
    return_mode: str,
    allocate: Callable[[int, int], tuple[WeightVector, dict]],
) -> BacktestReport:
    """Hold the target ``allocate(window, boundary)`` for ``hold_days`` days
    from each boundary (holds run back to back) and aggregate."""
    weight_history: list[WeightVector] = []
    pre_rebalance: list[np.ndarray] = []
    daily_returns: list[np.ndarray] = []
    diagnostics: list[dict] = []
    drifted: np.ndarray | None = None

    for k, boundary in enumerate(boundaries):
        allocation, window_diag = allocate(k, boundary)
        if drifted is not None:
            pre_rebalance.append(drifted)
        weight_history.append(allocation)

        hold = panel.values[:, boundary:boundary + hold_days]
        with single_blas_thread():
            returns, drifted = _hold_period(allocation.weights, hold, return_mode)
        daily_returns.append(returns)
        diagnostics.append(window_diag)

    series = np.concatenate(daily_returns)
    metrics = portfolio_metrics(
        series, [w.weights for w in weight_history], pre_rebalance_weights=pre_rebalance
    )
    return BacktestReport(
        rebalance_dates=[panel.dates[boundary] for boundary in boundaries],
        weight_history=weight_history,
        daily_dates=list(panel.dates[boundaries[0]:boundaries[-1] + hold_days]),
        daily_returns=series,
        metrics=metrics,
        symbols=panel.symbols,
        diagnostics=diagnostics,
    )


def walk_forward(panel: ReturnsPanel, config: WalkForwardConfig) -> BacktestReport:
    """Run the rolling estimate/allocate/hold loop over the panel."""
    boundaries = _rebalance_boundaries(panel, config.split_date, config.t_out)
    split = boundaries[0]
    mode = network_mode(config.estimator)
    history_needed = config.t_in + (config.pre_history_days if mode else 0)
    if split < history_needed:
        raise ParameterError(
            f"insufficient history before the split date: have {split} days, "
            f"need {history_needed} ({history_needed - split} more)"
        )
    support = None  # the previous allocation's support warm-starts the next QP

    def allocate(k: int, boundary: int) -> tuple[WeightVector, dict]:
        nonlocal support
        in_sample = panel.values[:, boundary - config.t_in:boundary]
        order = None
        if mode and config.seriation_per_window:
            with single_blas_thread():
                corr, _ = cov_to_corr(window_covariance(in_sample))
                order = spectral_seriation(corr)
        window_diag: dict = {"window": k, "date": panel.dates[boundary]}
        weights_net = None
        if mode:
            block = panel.values[:, boundary - config.t_in - config.pre_history_days:boundary]
            if order is not None:
                block = block[order, :]
            weights_net, training_history = _train_window_weights(config, mode, block)
            window_diag["final_train_mse"] = (
                training_history.train_mse[-1] if training_history.train_mse else None
            )
            window_diag["final_validation_mse"] = (
                training_history.validation_mse[-1] if training_history.validation_mse else None
            )
        with single_blas_thread():
            estimator = make_estimator(config.estimator, config.t_in, weights=weights_net)
            sample = CovarianceMatrix(
                window_covariance(in_sample if order is None else in_sample[order, :]), "sample"
            )
            eigenvalues = sample.eigenvalues
            window_diag["in_sample_condition"] = float(
                eigenvalues[-1] / max(eigenvalues[0], 1e-300)
            )
            try:
                estimate = estimator(sample)
            except CovDenoiseError as exc:
                raise type(exc)(
                    f"estimator {config.estimator!r} failed at rebalance window {k} "
                    f"({panel.dates[boundary]}): {exc}"
                ) from exc
            if order is not None:
                undo = invert_permutation(order)
                estimate = CovarianceMatrix(estimate.values[np.ix_(undo, undo)], estimate.provenance)
            allocation = mvp_plus_weights(estimate, support=support)
        support = allocation.weights > 0
        return allocation, window_diag

    return _rebalance_loop(panel, boundaries, config.t_out, config.return_mode, allocate)


def buy_and_hold(panel: ReturnsPanel, symbol: str, config: WalkForwardConfig) -> BacktestReport:
    """Hold one asset, bought once, over the days the walk-forward engine trades."""
    if symbol not in panel.symbols:
        raise ParameterError(f"unknown symbol {symbol!r}")
    boundaries = _rebalance_boundaries(panel, config.split_date, config.t_out)
    weights = np.zeros(len(panel.symbols))
    weights[panel.symbols.index(symbol)] = 1.0
    entry = {"window": 0, "date": panel.dates[boundaries[0]], "symbol": symbol}
    return _rebalance_loop(
        panel, boundaries[:1], len(boundaries) * config.t_out, config.return_mode,
        lambda k, boundary: (WeightVector(weights, long_only=True), entry),
    )


def uniform_portfolio(panel: ReturnsPanel, config: WalkForwardConfig) -> BacktestReport:
    """Equal-weight allocation re-established at every rebalance."""
    boundaries = _rebalance_boundaries(panel, config.split_date, config.t_out)
    p = len(panel.symbols)
    uniform = np.full(p, 1.0 / p)
    report = _rebalance_loop(
        panel, boundaries, config.t_out, config.return_mode,
        lambda k, boundary: (WeightVector(uniform, long_only=True), {}),
    )
    # reset-per-rebalance turnover (used in metrics) next to the target-vs-target view
    report.diagnostics = [
        {
            "turnover_reset_from_drift": report.metrics.turnover,
            "turnover_target_vs_target": 0.0,
        }
    ]
    return report


def write_report_files(report: BacktestReport, out_dir) -> dict[str, Path]:
    """Emit metrics JSON, weights CSV, daily-returns CSV, wealth CSV and the
    per-window diagnostics JSON.

    Each file is replaced atomically and ``metrics.json`` is written last, so
    a new ``metrics.json`` means all five files are new; after a failure the
    old one is left beside whichever files were already replaced."""
    out = Path(out_dir)
    paths = {
        "metrics": out / "metrics.json",
        "weights": out / "weights.csv",
        "returns": out / "daily_returns.csv",
        "wealth": out / "wealth.csv",
        "diagnostics": out / "diagnostics.json",
    }
    weights = [allocation.weights.tolist() for allocation in report.weight_history]
    write_dated_table(paths["weights"], report.symbols, report.rebalance_dates, weights)
    daily = report.daily_returns[:, None]
    write_dated_table(paths["returns"], ("portfolio_return",), report.daily_dates, daily.tolist())
    wealth = np.cumprod(1.0 + report.daily_returns)[:, None]
    write_dated_table(paths["wealth"], ("wealth",), report.daily_dates, wealth.tolist())
    atomic_write(paths["diagnostics"], json.dumps(report.diagnostics, indent=2) + "\n")
    atomic_write(paths["metrics"], report.metrics.to_json_text())
    return paths
