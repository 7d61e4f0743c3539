"""The benchmark's four workloads: seeded inputs and one job each.

A workload's ``setup`` turns the workload seed into the program's inputs (a
``ModelSpec``, a ``TrainingSet`` or returns CSV files) and its ``job`` runs them
through the entry points the command line uses.  Every job of a run repeats the
same inputs, so each job's results can be compared with the committed
references.  ``warmup`` cuts the inputs down to a small job through the same
entry points, run once before timing starts.  Entry points are looked up on
their modules at call time, which is where the tracer wraps them.

``tiny=True`` shrinks every input so the benchmark's own tests run in seconds;
the measured configuration is ``tiny=False``.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from covdenoise import backtest, evaluation, ingest
from covdenoise.backtest import WalkForwardConfig
from covdenoise.denoiser import storage, training
from covdenoise.denoiser.network import DenoiserConfig
from covdenoise.models import ModelSpec

PAPER_BLOCK_SIZES = (3, 3, 4, 5, 6, 7, 7, 9, 11, 13, 15, 17)
MC_ESTIMATORS = ("naive", "lp", "alca", "2s-lp")
BACKTEST_ESTIMATORS = ("naive", "2s-lp")
STABLECOINS = ("USDT-USD", "USDC-USD", "DAI-USD", "BUSD-USD")


@dataclass
class Outcome:
    """What one job did: the units it completed and the numeric results that
    are checked against the references."""

    units: int
    results: dict[str, np.ndarray]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    setup: Callable[[int, Path, bool], Any]
    warmup: Callable[[Any, Path], Any]
    job: Callable[[Any, Path], Outcome]


# --- Monte Carlo ------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloInputs:
    model: ModelSpec
    n: int
    m: int
    seed: int
    threads: int

    @property
    def attempted(self) -> int:
        return self.m * len(MC_ESTIMATORS)


def setup_mc_block(seed: int, workdir: Path, tiny: bool) -> MonteCarloInputs:
    sizes = (3, 3, 4) if tiny else PAPER_BLOCK_SIZES
    model = ModelSpec(kind="block", p=sum(sizes), block_sizes=sizes, gamma=0.3)
    return MonteCarloInputs(model, n=20 if tiny else 200, m=2 if tiny else 10, seed=seed, threads=1)


def setup_mc_powerlaw_wide(seed: int, workdir: Path, tiny: bool) -> MonteCarloInputs:
    p = 12 if tiny else 200
    model = ModelSpec(kind="powerlaw", p=p, alpha=1.5, seed=seed)
    return MonteCarloInputs(model, n=p // 2, m=2 if tiny else 6, seed=seed, threads=2)


def mc_warmup(inputs: MonteCarloInputs, workdir: Path) -> MonteCarloInputs:
    return replace(inputs, m=1)


def mc_job(inputs: MonteCarloInputs, workdir: Path) -> Outcome:
    report = evaluation.run_monte_carlo(
        inputs.model, n=inputs.n, m=inputs.m, estimators=list(MC_ESTIMATORS),
        seed=inputs.seed, threads=inputs.threads,
    )
    results = {}
    failures = 0
    for name in MC_ESTIMATORS:
        row = report.rows[name]
        failures += row.failures
        results[f"rows.{name}"] = np.array(
            [row.mean_f, row.se_f, row.mean_mv, row.se_mv, row.failures], dtype=float
        )
    return Outcome(units=inputs.attempted - failures, results=results)


# --- denoiser training ------------------------------------------------------

@dataclass(frozen=True)
class TrainingInputs:
    config: DenoiserConfig
    data: training.TrainingSet
    weights_path: Path

    @property
    def attempted(self) -> int:
        n_train = self.data.count - math.floor(self.data.count * self.config.validation_fraction)
        return n_train * self.config.epochs


def setup_train_denoiser(seed: int, workdir: Path, tiny: bool) -> TrainingInputs:
    sizes = (3, 3, 4) if tiny else PAPER_BLOCK_SIZES
    model = ModelSpec(kind="block", p=sum(sizes), block_sizes=sizes, gamma=0.3)
    data = training.build_training_set_simulation(model, n=200, count=5, seed=seed)
    config = DenoiserConfig(
        input_size=model.p, num_blocks=2, num_filters=4 if tiny else 64, kernel=3,
        batch_size=4, epochs=2, validation_fraction=0.2, seed=seed,
    )
    return TrainingInputs(config, data, workdir / "denoiser.cdnw")


def train_warmup(inputs: TrainingInputs, workdir: Path) -> TrainingInputs:
    data = training.TrainingSet(inputs.data.inputs[:2], inputs.data.targets[:2])
    return replace(inputs, config=replace(inputs.config, epochs=1), data=data)


def train_job(inputs: TrainingInputs, workdir: Path) -> Outcome:
    weights, history = training.train(inputs.config, inputs.data)
    storage.save_weights(weights, inputs.weights_path)
    results = {
        "train_mse": np.array(history.train_mse),
        "validation_mse": np.array(history.validation_mse),
        "weights_bytes": np.array([inputs.weights_path.stat().st_size], dtype=float),
    }
    return Outcome(units=inputs.attempted, results=results)


# --- walk-forward backtest --------------------------------------------------

@dataclass(frozen=True)
class BacktestInputs:
    returns_path: Path
    configs: tuple[WalkForwardConfig, ...]
    split: int
    windows: int

    @property
    def attempted(self) -> int:
        return self.windows * len(self.configs)


def synthetic_prices(seed: int, n_symbols: int, n_days: int) -> ingest.PricePanel:
    """Crypto-like daily prices: a positive market factor, positively loaded
    sector factors and heavy-tailed noise, with sparse missing cells, a few
    symbols too gappy or listed too late to survive cleaning, and flat
    stablecoin columns that only the exclusion list removes."""
    rng = np.random.default_rng(seed)
    risky = n_symbols - len(STABLECOINS)
    sectors = 8
    t4 = np.sqrt(2.0)  # standard deviation of Student-t with 4 degrees of freedom
    market = 0.001 + 0.035 * rng.standard_t(4, n_days) / t4
    sector_returns = 0.02 * rng.standard_t(4, (sectors, n_days)) / t4
    beta = rng.uniform(0.6, 1.4, risky)
    sector = rng.integers(0, sectors, risky)
    loading = rng.uniform(0.3, 0.9, risky)
    idio = rng.uniform(0.02, 0.06, risky) * rng.standard_t(3, (risky, n_days)).T / np.sqrt(3.0)
    log_returns = beta[:, None] * market + loading[:, None] * sector_returns[sector] + idio.T
    log_returns[:, 0] = 0.0
    start = np.exp(rng.uniform(np.log(0.05), np.log(2000.0), risky))
    prices = start[:, None] * np.exp(np.cumsum(log_returns, axis=1))
    sparse = rng.random(prices.shape) < 0.002
    sparse[:, 0] = False
    prices[sparse] = np.nan
    gappy = rng.random((3, n_days)) < 0.03
    gappy[:, 0] = False
    prices[:3][gappy] = np.nan
    prices[3:5, : n_days // 5] = np.nan  # listed late: unobserved at the start
    prices = np.vstack([prices, np.ones((len(STABLECOINS), n_days))])
    symbols = tuple(f"C{i:03d}-USD" for i in range(risky)) + STABLECOINS
    first = dt.date(2019, 1, 1)
    dates = tuple((first + dt.timedelta(days=d)).isoformat() for d in range(n_days))
    return ingest.PricePanel(dates=dates, symbols=symbols, prices=prices.T)


def setup_backtest_weekly(seed: int, workdir: Path, tiny: bool) -> BacktestInputs:
    n_symbols, n_days, t_in, split = (16, 150, 30, 40) if tiny else (120, 1461, 182, 200)
    prices_path = workdir / "prices.csv"
    exclusions_path = workdir / "exclusions.txt"
    returns_path = workdir / "returns.csv"
    ingest.write_prices(synthetic_prices(seed, n_symbols, n_days), prices_path)
    exclusions_path.write_text("\n".join(STABLECOINS) + "\n")
    cleaned, _ = ingest.clean_panel_report(
        ingest.load_prices(prices_path),
        exclusions=ingest.read_exclusions(exclusions_path),
    )
    returns = ingest.log_returns(cleaned)
    ingest.write_returns(returns, returns_path)
    t_out = delta_t = 7
    configs = tuple(
        WalkForwardConfig(
            split_date=returns.dates[split], estimator=name, t_in=t_in, t_out=t_out,
            delta_t=delta_t,
        )
        for name in BACKTEST_ESTIMATORS
    )
    windows = (returns.n_dates - split - t_out) // delta_t + 1
    return BacktestInputs(returns_path, configs, split, windows)


def backtest_warmup(inputs: BacktestInputs, workdir: Path) -> BacktestInputs:
    """The same backtests cut to their first two rebalance windows."""
    panel = ingest.load_returns(inputs.returns_path)
    end = inputs.split + 2 * inputs.configs[0].delta_t
    short = ingest.ReturnsPanel(panel.dates[:end], panel.symbols, panel.values[:, :end])
    path = workdir / "warmup-returns.csv"
    ingest.write_returns(short, path)
    return replace(inputs, returns_path=path, windows=2)


def backtest_job(inputs: BacktestInputs, workdir: Path) -> Outcome:
    panel = ingest.load_returns(inputs.returns_path)
    results = {}
    units = 0
    for config in inputs.configs:
        report = backtest.walk_forward(panel, config)
        backtest.write_report_files(report, workdir / f"report-{config.estimator}")
        units += len(report.rebalance_dates)
        m = report.metrics
        results[f"{config.estimator}.metrics"] = np.array([
            m.cumulative_return, m.annual_return, m.annual_volatility,
            m.sharpe, m.max_drawdown, m.turnover,
        ])
        results[f"{config.estimator}.weights"] = np.array(
            [w.weights for w in report.weight_history]
        )
    return Outcome(units=units, results=results)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-block", "(realization, estimator) pairs with finite losses",
                 setup_mc_block, mc_warmup, mc_job),
        Workload("mc-powerlaw-wide", "(realization, estimator) pairs with finite losses",
                 setup_mc_powerlaw_wide, mc_warmup, mc_job),
        Workload("train-denoiser", "training samples through forward, backward and Adam",
                 setup_train_denoiser, train_warmup, train_job),
        Workload("backtest-weekly", "rebalance windows completed",
                 setup_backtest_weekly, backtest_warmup, backtest_job),
    )
}
