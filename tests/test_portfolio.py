import itertools
import json

import numpy as np
import pytest

import covdenoise.portfolio as portfolio
from covdenoise import (
    ParameterError,
    WeightVector,
    mvp_plus_weights,
    mvp_weights,
    portfolio_metrics,
)
from covdenoise.errors import SingularMatrixError
from conftest import random_psd


def enumerate_long_only_optimum(sigma):
    """Exhaustive support enumeration for the long-only minimum-variance QP."""
    p = sigma.shape[0]
    best_value, best_weights = np.inf, None
    for size in range(1, p + 1):
        for support in itertools.combinations(range(p), size):
            sub = sigma[np.ix_(support, support)]
            try:
                solved = np.linalg.solve(sub, np.ones(size))
            except np.linalg.LinAlgError:
                continue
            if abs(solved.sum()) < 1e-14:
                continue
            candidate = solved / solved.sum()
            if np.any(candidate < -1e-12):
                continue
            full = np.zeros(p)
            full[list(support)] = candidate
            value = float(full @ sigma @ full)
            if value < best_value:
                best_value, best_weights = value, full
    return best_value, best_weights


def kkt_residual(sigma, weights):
    gradient = sigma @ weights
    lam = float(weights @ gradient)
    active = weights > 1e-10
    stationarity = float(np.max(np.abs(gradient[active] - lam), initial=0.0))
    dual = float(np.max(lam - gradient, initial=0.0))
    return max(stationarity, max(dual, 0.0), abs(float(weights.sum()) - 1.0))


def test_mvp_identity_is_uniform():
    allocation = mvp_weights(np.eye(5))
    assert np.allclose(allocation.weights, 0.2)


def test_mvp_diagonal_closed_form():
    allocation = mvp_weights(np.diag([1.0, 4.0]))
    assert np.allclose(allocation.weights, [0.8, 0.2])


def test_mvp_beats_random_feasible_points(rng):
    sigma = random_psd(rng, 6)
    allocation = mvp_weights(sigma)
    value = allocation.weights @ sigma @ allocation.weights
    for _ in range(1000):
        other = rng.standard_normal(6)
        other /= other.sum()
        assert value <= other @ sigma @ other + 1e-12


def test_mvp_scale_invariance(rng):
    sigma = random_psd(rng, 5)
    base = mvp_weights(sigma).weights
    scaled = mvp_weights(17.5 * sigma).weights
    assert np.allclose(base, scaled, atol=1e-12)


def test_mvp_rejects_zero_matrix():
    with pytest.raises(SingularMatrixError):
        mvp_weights(np.zeros((3, 3)))


def test_mvp_plus_identity_is_uniform():
    allocation = mvp_plus_weights(np.eye(4))
    assert allocation.long_only
    assert np.allclose(allocation.weights, 0.25)


def test_mvp_plus_binding_constraint_case():
    # unconstrained solution has a negative weight; the long-only optimum
    # sits on the vertex (0, 1) of the simplex
    sigma = np.array([[1.0, 0.9], [0.9, 0.5]])
    values = [(t, t * t + 1.8 * t * (1 - t) + 0.5 * (1 - t) ** 2) for t in np.linspace(0, 1, 10001)]
    grid_best = min(values, key=lambda pair: pair[1])
    assert grid_best[0] == 0.0
    allocation = mvp_plus_weights(sigma)
    assert np.allclose(allocation.weights, [0.0, 1.0], atol=1e-8)
    assert kkt_residual(sigma, allocation.weights) <= 1e-8


def test_mvp_plus_matches_support_enumeration(rng):
    for _ in range(20):
        p = int(rng.integers(2, 7))
        sigma = random_psd(rng, p, scale_spread=1.0)
        allocation = mvp_plus_weights(sigma)
        value = float(allocation.weights @ sigma @ allocation.weights)
        best_value, _ = enumerate_long_only_optimum(sigma)
        assert value <= best_value + 1e-8
        assert kkt_residual(sigma, allocation.weights) <= 1e-8


def test_mvp_plus_equals_closed_form_when_interior(rng):
    for _ in range(20):
        sigma = random_psd(rng, 4)
        closed = mvp_weights(sigma).weights
        if np.all(closed >= 0):
            constrained = mvp_plus_weights(sigma).weights
            assert np.allclose(constrained, closed, atol=1e-8)


def test_mvp_plus_does_not_depend_on_the_units_of_sigma():
    # the release rule compares multipliers with the budget multiplier, so
    # rescaling sigma (returns in other units) leaves the weights unchanged;
    # an absolute threshold stopped early at small scales and moved weights by 2e-2
    rng = np.random.default_rng(0)
    for _ in range(200):
        draws = rng.standard_normal((30, 40))
        sigma = draws @ draws.T / 40
        base = mvp_plus_weights(sigma).weights
        for scale in (1e-6, 1e-8, 1e4):
            scaled = mvp_plus_weights(sigma * scale).weights
            np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-14)


@pytest.mark.parametrize("support", [np.zeros(5, dtype=bool), np.ones(5, dtype=bool)])
def test_mvp_plus_empty_and_full_supports_are_the_cold_start(rng, support):
    sigma = random_psd(rng, 5, scale_spread=1.5)
    cold = mvp_plus_weights(sigma).weights
    assert np.array_equal(mvp_plus_weights(sigma, support=support).weights, cold)


def test_mvp_plus_support_reaching_the_rank_is_the_cold_start(rng, monkeypatch):
    # 6 observations of 12 assets: rank 5, so a support of 5 starts all free
    # and one of 4 warm
    draws = rng.standard_normal((12, 6))
    draws -= draws.mean(axis=1, keepdims=True)
    sigma = draws @ draws.T / 5
    cold = mvp_plus_weights(sigma).weights
    all_free = []
    active_set = portfolio._active_set

    def recording(quad, free, *rest):
        all_free.append(bool(free.all()))
        return active_set(quad, free, *rest)

    monkeypatch.setattr(portfolio, "_active_set", recording)
    assert np.array_equal(mvp_plus_weights(sigma, support=np.arange(12) < 5).weights, cold)
    assert all_free == [True]
    all_free.clear()
    mvp_plus_weights(sigma, support=np.arange(12) < 4)
    assert all_free[0] is False


def test_mvp_plus_rejects_a_support_of_the_wrong_length():
    with pytest.raises(ParameterError, match="support must be a boolean vector of length 4"):
        mvp_plus_weights(np.eye(4), support=[True, False, True])


def test_weight_vector_validation():
    with pytest.raises(ParameterError):
        WeightVector(np.array([0.6, 0.6]))
    with pytest.raises(ParameterError):
        WeightVector(np.array([1.5, -0.5]), long_only=True)


def test_metrics_flat_series():
    metrics = portfolio_metrics(np.zeros(10), [np.array([0.5, 0.5])] * 3)
    assert metrics.cumulative_return == 1.0
    assert metrics.max_drawdown == 0.0
    assert metrics.turnover == 0.0
    assert metrics.sharpe == 0.0 and metrics.zero_volatility


def test_metrics_hand_computed_path():
    metrics = portfolio_metrics(np.array([0.10, -0.10]), [np.array([1.0])])
    assert np.isclose(metrics.cumulative_return, 0.99)
    assert np.isclose(metrics.max_drawdown, -0.10)


def test_metrics_annualization_compounds():
    returns = np.full(365, 0.001)
    metrics = portfolio_metrics(returns, [np.ones(1)])
    assert np.isclose(metrics.annual_return, 1.001**365 - 1.0)
    assert np.isclose(metrics.annual_volatility, 0.0)


def test_turnover_counts_transitions():
    history = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0])]
    metrics = portfolio_metrics(np.zeros(4), history)
    assert np.isclose(metrics.turnover, 1.0)  # (2 + 0) / 2


def test_turnover_uses_pre_rebalance_weights():
    history = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    drifted = [np.array([0.75, 0.25])]
    metrics = portfolio_metrics(np.zeros(4), history, pre_rebalance_weights=drifted)
    assert np.isclose(metrics.turnover, 0.5)


def test_turnover_permutation_invariance(rng):
    history = [rng.dirichlet(np.ones(5)) for _ in range(4)]
    base = portfolio_metrics(np.zeros(8), history).turnover
    order = rng.permutation(5)
    permuted = portfolio_metrics(np.zeros(8), [w[order] for w in history]).turnover
    assert np.isclose(base, permuted)


def test_metrics_json_fixed_key_order():
    metrics = portfolio_metrics(np.array([0.01, 0.02]), [np.ones(1)])
    payload = json.loads(metrics.to_json_text())
    assert list(payload) == [
        "cumulative_return",
        "annual_return",
        "annual_volatility",
        "sharpe",
        "max_drawdown",
        "turnover",
    ]
    assert len(metrics.to_csv_row().split(",")) == 6
