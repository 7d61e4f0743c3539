"""Minimum-variance allocation (closed form and long-only QP) and financial
performance metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, SolverError
from .ingest import format_row
from .spectral import floored_spectrum

BUDGET_TOL = 1e-8
KKT_TOL = 1e-8


@dataclass(frozen=True)
class WeightVector:
    """Portfolio weights on the budget hyperplane (sum to one)."""

    weights: np.ndarray
    long_only: bool = False

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ParameterError("weights must be a nonempty vector")
        if abs(weights.sum() - 1.0) > BUDGET_TOL:
            raise ParameterError(f"weights sum to {weights.sum()!r}, expected 1")
        if self.long_only and np.any(weights < -1e-10):
            raise ParameterError("long-only weights must be nonnegative")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)


def mvp_weights(sigma) -> WeightVector:
    """Unconstrained minimum-variance weights Sigma^-1 1 / (1' Sigma^-1 1)."""
    eigenvalues, vectors = floored_spectrum(sigma, "sigma")
    ones = np.ones(vectors.shape[0])
    solved = (vectors / eigenvalues) @ (vectors.T @ ones)
    return WeightVector(solved / solved.sum(), long_only=False)


def mvp_plus_weights(sigma, max_iterations: int | None = None) -> WeightVector:
    """Long-only minimum-variance weights by a primal active-set method.

    The equality-constrained subproblem on the free coordinates is solved in
    closed form; blocked coordinates enter the active set at the first
    boundary crossing and leave on the most negative multiplier, lowest index
    first, so the pivoting is deterministic and terminates exactly.
    """
    eigenvalues, vectors = floored_spectrum(sigma, "sigma")
    quad = (vectors * eigenvalues) @ vectors.T  # PD version of sigma used by the solver
    p = quad.shape[0]
    cap = max_iterations if max_iterations is not None else 50 * max(p, 2)
    weights = np.full(p, 1.0 / p)
    free = np.ones(p, dtype=bool)
    for _ in range(cap):
        idx = np.flatnonzero(free)
        sub = quad[np.ix_(idx, idx)]
        ones = np.ones(idx.size)
        solved = np.linalg.solve(sub, ones)
        target = np.zeros(p)
        target[idx] = solved / solved.sum()
        step = target - weights
        if np.max(np.abs(step)) <= 1e-14:
            gradient = quad @ weights
            lam = float(weights @ gradient)  # active-set multiplier of the budget constraint
            multipliers = gradient - lam
            blocked = np.flatnonzero(~free)
            if blocked.size == 0 or np.all(multipliers[blocked] >= -KKT_TOL):
                return WeightVector(np.maximum(weights, 0.0) / np.maximum(weights, 0.0).sum(),
                                    long_only=True)
            release = blocked[np.argmin(multipliers[blocked])]
            free[release] = True
            continue
        falling = idx[step[idx] < 0.0]
        ratios = weights[falling] / -step[falling]
        limit = 1.0
        blocker = -1
        for asset, ratio in zip(falling, ratios):
            if ratio < limit - 1e-15:
                limit, blocker = ratio, asset
        weights = weights + limit * step
        if blocker >= 0:
            weights[blocker] = 0.0
            free[blocker] = False
        weights = np.clip(weights, 0.0, None)
        weights /= weights.sum()
    residual = _kkt_residual(quad, weights)
    raise SolverError(f"active-set solver hit the iteration cap (KKT residual {residual:.3e})")


def _kkt_residual(quad: np.ndarray, weights: np.ndarray) -> float:
    gradient = quad @ weights
    lam = float(weights @ gradient)
    stationarity = np.max(np.abs(gradient[weights > 1e-12] - lam), initial=0.0)
    feasibility = max(0.0, float(np.max(lam - gradient, initial=0.0)))
    return max(stationarity, abs(weights.sum() - 1.0), feasibility if feasibility > 0 else 0.0)


@dataclass(frozen=True)
class PerformanceMetrics:
    cumulative_return: float
    annual_return: float
    annual_volatility: float
    sharpe: float
    max_drawdown: float
    turnover: float
    zero_volatility: bool = False

    def to_json_text(self) -> str:
        payload = {name: getattr(self, name) for name in _REPORTED_METRICS}
        if self.zero_volatility:
            payload["zero_volatility"] = True
        return json.dumps(payload, indent=2) + "\n"

    def to_csv_row(self) -> str:
        return format_row(getattr(self, name) for name in _REPORTED_METRICS)


# both serializations' columns; the JSON adds the zero_volatility flag when set
_REPORTED_METRICS = tuple(
    column.name for column in fields(PerformanceMetrics) if column.name != "zero_volatility"
)


def portfolio_metrics(
    daily_returns: np.ndarray,
    weight_history: list[np.ndarray],
    periods_per_year: int = 365,
    pre_rebalance_weights: list[np.ndarray] | None = None,
) -> PerformanceMetrics:
    """Summary statistics of a daily simple-return series.

    Annual return compounds the geometric mean daily return to a year of
    ``periods_per_year`` periods; volatility scales the daily deviation by
    its square root.  Turnover averages the L1 weight change over rebalances
    after the initial allocation; when ``pre_rebalance_weights`` is given
    (weights drifted to just before each rebalance) those are used as the
    starting points.
    """
    returns = np.asarray(daily_returns, dtype=float)
    if returns.ndim != 1 or returns.size == 0:
        raise ParameterError("daily returns must be a nonempty vector")
    if not weight_history:
        raise ParameterError("weight history must contain the initial allocation")
    wealth = np.cumprod(1.0 + returns)
    cumulative = float(wealth[-1])
    annual_return = cumulative ** (periods_per_year / returns.size) - 1.0
    deviation = float(returns.std(ddof=1)) if returns.size > 1 else 0.0
    annual_volatility = deviation * np.sqrt(periods_per_year)
    zero_volatility = annual_volatility == 0.0
    sharpe = 0.0 if zero_volatility else annual_return / annual_volatility
    drawdown = float(np.min(wealth / np.maximum.accumulate(wealth) - 1.0))
    transitions = len(weight_history) - 1
    if transitions <= 0:
        turnover = 0.0
    else:
        previous = pre_rebalance_weights
        if previous is None:
            previous = [np.asarray(w, dtype=float) for w in weight_history[:-1]]
        if len(previous) != transitions:
            raise ParameterError(
                f"expected {transitions} pre-rebalance weight vectors, got {len(previous)}"
            )
        total = 0.0
        for before, after in zip(previous, weight_history[1:]):
            total += float(np.abs(np.asarray(after, dtype=float) - np.asarray(before, dtype=float)).sum())
        turnover = total / transitions
    return PerformanceMetrics(
        cumulative_return=cumulative,
        annual_return=float(annual_return),
        annual_volatility=float(annual_volatility),
        sharpe=float(sharpe),
        max_drawdown=drawdown,
        turnover=float(turnover),
        zero_volatility=zero_volatility,
    )
