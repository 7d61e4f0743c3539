"""Minimum-variance allocation (closed form and long-only QP) and financial
performance metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .covariance import as_matrix
from .errors import ParameterError, SolverError
from .spectral import EIGENVALUE_FLOOR, floored_eigenvalues, floored_spectrum

BUDGET_TOL = 1e-8
# a blocked coordinate is released while its multiplier is below -RELEASE_TOL * lam,
# lam = w'Qw the budget multiplier: relative, so the answer ignores the units of sigma
RELEASE_TOL = 1e-9
# the crypto calendar: these markets trade every day, so a year is 365 daily returns
DAYS_PER_YEAR = 365


@dataclass(frozen=True, eq=False)
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


def mvp_plus_weights(
    sigma, max_iterations: int | None = None, *, support=None
) -> WeightVector:
    """Long-only minimum-variance weights by a primal active-set method.

    Each iteration moves towards the closed-form optimum on the free
    coordinates, x / (1'x) with quad_FF x = 1.  The free block is solved
    afresh (one LU, ``np.linalg.solve``) at the start and after each block
    or release, and a full step leaves it as it is.  ``quad`` is sigma's own
    values when none of sigma's validation eigenvalues is floored
    (:func:`~covdenoise.spectral.floored_eigenvalues`), so a full-rank sigma
    is never decomposed; only where the floor binds is it the recomposition
    of the floored spectrum.  Which matrix is used depends on those
    eigenvalues alone, never on whether sigma's spectrum is cached.

    Without ``support`` every coordinate starts free, at uniform weights.  A
    boolean ``support`` (say, the previous rebalance's ``weights > 0``)
    warm-starts the solver at uniform weights on those coordinates.  The warm
    start runs only while fewer coordinates are free than sigma has
    eigenvalues above the floor (its rank): there the free block is well
    conditioned and the optimum well determined, and the warm start ends on
    the all-free start's weights to rounding.  A support that is empty or
    reaches the rank starts all free; a warm start that would release up to
    the rank, or that runs p iterations (more than an all-free start pivots),
    is dropped for the all-free start, which gets what is left of
    ``max_iterations``.

    A coordinate is blocked at the first boundary crossing: the ratio test
    keeps the first falling coordinate, in index order, whose ratio lies more
    than 1e-15 below the best so far (:func:`_ratio_test`).  At a stationary
    point a blocked coordinate is released while its multiplier lies below
    ``-RELEASE_TOL * lam``, where lam = w'Qw is the budget multiplier, so
    scaling sigma scales both sides and leaves the weights unchanged.  The
    most negative multiplier leaves first, lowest index on ties, so the
    pivoting is deterministic and terminates exactly.
    """
    p = as_matrix(sigma).shape[0]
    cap = max_iterations if max_iterations is not None else 50 * max(p, 2)
    eigenvalues = floored_eigenvalues(sigma, "sigma")
    rank = int(np.count_nonzero(eigenvalues > EIGENVALUE_FLOOR * eigenvalues[-1]))
    if rank == p:
        quad = as_matrix(sigma)
    else:
        floored, vectors = floored_spectrum(sigma, "sigma")
        quad = (vectors * floored) @ vectors.T
    free = _starting_support(support, p, rank)
    if free is not None:
        weights, used = _active_set(quad, free, min(cap, p), rank)
        if weights is not None:
            return WeightVector(weights, long_only=True)
        cap -= used
    weights, _ = _active_set(quad, np.ones(p, dtype=bool), cap, p)
    return WeightVector(weights, long_only=True)


def _active_set(
    quad: np.ndarray, free: np.ndarray, cap: int, rank: int
) -> tuple[np.ndarray | None, int]:
    """The pivot loop of :func:`mvp_plus_weights` from uniform weights on the
    ``free`` coordinates; ``free`` is updated in place.

    Returns the optimal weights and the iterations taken.  A warm start
    (``free`` not all true) returns None for the weights where a release
    would leave ``rank`` coordinates free and when it hits ``cap``; the
    all-free start raises :class:`SolverError` at ``cap``.
    """
    warm = not free.all()
    weights = free / np.count_nonzero(free)
    solved = _free_block_solve(quad, free)
    for iteration in range(1, cap + 1):
        step = solved / solved.sum() - weights
        if np.abs(step).max() <= 1e-14:
            gradient = quad @ weights
            lam = float(weights @ gradient)  # active-set multiplier of the budget constraint
            multipliers = gradient - lam
            blocked = np.flatnonzero(~free)
            if blocked.size == 0 or np.all(multipliers[blocked] >= -RELEASE_TOL * lam):
                return np.maximum(weights, 0.0) / np.maximum(weights, 0.0).sum(), iteration
            if warm and np.count_nonzero(free) + 1 >= rank:
                return None, iteration
            free[blocked[np.argmin(multipliers[blocked])]] = True
            solved = _free_block_solve(quad, free)
            continue
        falling = (step < 0.0).nonzero()[0]
        limit, blocker = _ratio_test(falling, weights[falling] / -step[falling])
        weights = weights + limit * step
        if blocker >= 0:
            weights[blocker] = 0.0
            free[blocker] = False
            solved = _free_block_solve(quad, free)
        np.maximum(weights, 0.0, out=weights)
        weights /= weights.sum()
    if warm:
        return None, cap
    residual = _kkt_residual(quad, weights)
    raise SolverError(f"active-set solver hit the iteration cap (KKT residual {residual:.3e})")


def _free_block_solve(quad: np.ndarray, free: np.ndarray) -> np.ndarray:
    """x with quad_FF x_F = 1 on the ``free`` coordinates F and 0 elsewhere."""
    solved = np.zeros(free.size)
    index = np.flatnonzero(free)
    solved[index] = np.linalg.solve(quad[np.ix_(index, index)], np.ones(index.size))
    return solved


def _starting_support(support, p: int, rank: int) -> np.ndarray | None:
    """A copy of the warm-start ``support`` as a boolean mask, or None for the
    all-free start (no support, an empty one, or one of ``rank`` or more
    coordinates)."""
    if support is None:
        return None
    free = np.array(support, dtype=bool)
    if free.shape != (p,):
        raise ParameterError(
            f"support must be a boolean vector of length {p}, got shape {free.shape}"
        )
    if not free.any() or np.count_nonzero(free) >= rank:
        return None
    return free


def _ratio_test(falling: np.ndarray, ratios: np.ndarray) -> tuple[float, int]:
    """Step length and blocking coordinate (-1 for a full step) of a scan that
    walks ``falling`` in order and takes each ratio below the running limit,
    which starts at 1, minus 1e-15."""
    limit, blocker = 1.0, -1
    for asset, ratio in zip(falling, ratios):
        if ratio < limit - 1e-15:
            limit, blocker = float(ratio), int(asset)
    return limit, blocker


def _kkt_residual(quad: np.ndarray, weights: np.ndarray) -> float:
    gradient = quad @ weights
    lam = float(weights @ gradient)
    stationarity = np.max(np.abs(gradient[weights > 1e-12] - lam), initial=0.0)
    feasibility = float(np.max(lam - gradient, initial=0.0))
    return max(stationarity, abs(weights.sum() - 1.0), feasibility)


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


# the JSON's columns; it adds the zero_volatility flag when set
_REPORTED_METRICS = tuple(
    column.name for column in fields(PerformanceMetrics) if column.name != "zero_volatility"
)


def portfolio_metrics(
    daily_returns: np.ndarray,
    weight_history: list[np.ndarray],
    pre_rebalance_weights: list[np.ndarray] | None = None,
) -> PerformanceMetrics:
    """Summary statistics of a daily simple-return series.

    Annual return compounds the geometric mean daily return to a year of
    :data:`DAYS_PER_YEAR` days; volatility scales the daily deviation by
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
    annual_return = cumulative ** (DAYS_PER_YEAR / returns.size) - 1.0
    deviation = float(returns.std(ddof=1)) if returns.size > 1 else 0.0
    annual_volatility = deviation * np.sqrt(DAYS_PER_YEAR)
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
        changes = np.abs(np.asarray(weight_history[1:], dtype=float)
                         - np.asarray(previous, dtype=float)).sum(axis=1)
        turnover = sum(changes.tolist()) / transitions
    return PerformanceMetrics(
        cumulative_return=cumulative,
        annual_return=float(annual_return),
        annual_volatility=float(annual_volatility),
        sharpe=float(sharpe),
        max_drawdown=drawdown,
        turnover=float(turnover),
        zero_volatility=zero_volatility,
    )
