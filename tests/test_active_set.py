"""The long-only QP's factor updates and ratio test against the solver they
replaced, which solved the free block afresh at every pivot and scanned the
ratios in a Python loop (``conftest.solve_per_pivot``, the oracle)."""

import numpy as np
import pytest

from covdenoise import SolverError, mvp_plus_weights, portfolio
from covdenoise.spectral import EIGENVALUE_FLOOR
from conftest import random_psd, scan, solve_per_pivot
from test_portfolio import kkt_residual


@pytest.fixture
def traced(monkeypatch):
    """Pivot path of mvp_plus_weights in the oracle's notation, plus refactor count."""
    record = {"path": [], "refactors": 0}
    ratio_test, release, refactor = (portfolio._ratio_test, portfolio._release,
                                     portfolio._free_block_inverse)

    def traced_ratio_test(falling, ratios):
        limit, blocker = ratio_test(falling, ratios)
        record["path"].append(("block", blocker))
        return limit, blocker

    def traced_release(inv, solved, quad, j):
        record["path"].append(("release", int(j)))
        release(inv, solved, quad, j)

    def traced_refactor(quad, free):
        record["refactors"] += 1
        return refactor(quad, free)

    monkeypatch.setattr(portfolio, "_ratio_test", traced_ratio_test)
    monkeypatch.setattr(portfolio, "_release", traced_release)
    monkeypatch.setattr(portfolio, "_free_block_inverse", traced_refactor)
    return record


def rank_deficient_sample(rng, p, n):
    returns = rng.standard_normal((p, n)) * np.exp(rng.uniform(-1.0, 1.0, p))[:, None]
    returns += 0.5 * rng.standard_normal(n)  # a common factor
    returns -= returns.mean(axis=1, keepdims=True)
    sample = returns @ returns.T / (n - 1)
    return 0.5 * (sample + sample.T)


# --- ratio test -------------------------------------------------------------

@pytest.mark.parametrize(
    "offsets,picked",
    [
        ([1.5e-15, 0.9e-15, 0.0], 2),  # a chain: the scan drops the middle and ends on the last
        ([0.8e-15, 0.0], 0),  # the argmin lies within 1e-15 below the first pick
        ([0.0, 0.0], 0),  # an exact tie keeps the lower index
        ([0.3, 0.0, 0.0, 0.2], 1),
        ([0.5e-15, 0.2, 0.0], 0),
    ],
)
def test_ratio_test_matches_the_scan_on_near_ties(offsets, picked):
    falling = np.array([3, 5, 8, 13, 21])[:len(offsets)]
    for low in (0.25, 0.5, 1e-3, 0.0):
        ratios = low + np.array(offsets)
        expected = scan(falling, ratios)
        assert portfolio._ratio_test(falling, ratios) == expected
        assert expected[1] == falling[picked]


@pytest.mark.parametrize(
    "ratios,expected",
    [
        ([1.0, 2.0], (1.0, -1)),
        ([1.0 - 0.5e-15, 1.5], (1.0, -1)),  # no ratio lies 1e-15 below the starting limit of 1
        ([3.0, 1.0 - 2e-15], (1.0 - 2e-15, 1)),
        ([], (1.0, -1)),
    ],
)
def test_ratio_test_takes_a_full_step_when_no_ratio_is_below_one(ratios, expected):
    falling = np.arange(len(ratios))
    ratios = np.array(ratios, dtype=float)
    assert portfolio._ratio_test(falling, ratios) == scan(falling, ratios) == expected


def test_ratio_test_matches_the_scan_on_random_vectors():
    rng = np.random.default_rng(11)
    for _ in range(5000):
        size = int(rng.integers(1, 12))
        base = rng.choice([rng.uniform(0.0, 1.5), 1.0 - 1e-15, 0.5])
        # clusters within a few 1e-15 of each other, some exact ties, some far apart
        ratios = base + rng.integers(0, 4, size) * rng.choice([0.4e-15, 0.6e-15, 1e-15, 0.1])
        falling = np.sort(rng.choice(200, size, replace=False))
        limit, blocker = portfolio._ratio_test(falling, ratios)
        assert (limit, blocker) == scan(falling, ratios)


# --- factor updates -----------------------------------------------------------

def test_block_and_release_keep_the_inverse_of_the_free_block(rng):
    quad = random_psd(rng, 7, scale_spread=1.0)
    inv, solved = np.linalg.inv(quad), np.linalg.inv(quad).sum(axis=1)
    free = np.ones(7, dtype=bool)
    for kind, asset in (("block", 2), ("block", 5), ("release", 2), ("block", 0)):
        if kind == "block":
            portfolio._block(inv, solved, asset)
        else:
            portfolio._release(inv, solved, quad, asset)
        free[asset] = kind == "release"
        expected = np.zeros_like(quad)
        expected[np.ix_(free, free)] = np.linalg.inv(quad[np.ix_(free, free)])
        assert np.array_equal(inv == 0.0, expected == 0.0)
        np.testing.assert_allclose(inv, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(solved, expected.sum(axis=1), rtol=0, atol=1e-12)


# --- the QP against the oracle -----------------------------------------------

def assert_matches_oracle(sigma, traced, atol=1e-12):
    traced["path"].clear()
    weights = mvp_plus_weights(sigma).weights
    expected, path = solve_per_pivot(sigma)
    assert np.array_equal(weights > 0, expected > 0)
    assert kkt_residual(sigma, weights) <= 1e-8
    if atol is not None:
        np.testing.assert_allclose(weights, expected, rtol=0, atol=atol)
    return path


def test_qp_matches_the_oracle_on_random_psd_matrices(traced):
    rng = np.random.default_rng(21)
    for _ in range(60):
        p = int(rng.integers(2, 61))
        sigma = random_psd(rng, p, scale_spread=float(rng.choice([0.0, 1.0, 2.0])))
        path = assert_matches_oracle(sigma, traced)
        assert traced["path"] == path


def test_qp_matches_the_oracle_on_positively_correlated_windows(traced):
    # the shape of a backtest window: p=99 assets with a common factor, 182 days
    rng = np.random.default_rng(5)
    for _ in range(4):
        returns = rng.standard_normal((99, 182)) * rng.uniform(0.02, 0.06, (99, 1))
        returns += rng.uniform(0.6, 1.4, (99, 1)) * 0.035 * rng.standard_normal(182)
        sample = np.cov(returns)
        path = assert_matches_oracle(sample, traced)
        assert traced["path"] == path
        assert len(path) > 20


def test_qp_takes_the_release_branch_like_the_oracle(traced):
    sigma = random_psd(np.random.default_rng(100), 6, scale_spread=1.5)
    path = assert_matches_oracle(sigma, traced)
    assert ("release", 1) in path
    assert traced["path"] == path


def test_qp_matches_the_oracle_on_rank_deficient_samples(traced):
    # p > n: the sample is singular and the eigenvalue floor binds.  Where the
    # optimum's support is smaller than the sample's rank the optimum is well
    # determined, and the weights agree to 1e-12.  Elsewhere it puts weight on
    # the floored null space and is determined only to 1e-6 or 1e-5 (the
    # oracle itself moves that much when the assets are relabelled): there the
    # support and the KKT conditions are checked.
    rng = np.random.default_rng(8)
    well_determined = 0
    for _ in range(60):
        p = int(rng.integers(6, 61))
        n = int(rng.integers(3, p))
        sigma = rank_deficient_sample(rng, p, n)
        eigenvalues = np.linalg.eigvalsh(sigma)
        assert np.sum(eigenvalues <= EIGENVALUE_FLOOR * eigenvalues[-1]) >= p - n + 1
        expected, _ = solve_per_pivot(sigma)
        determined = np.count_nonzero(expected) < n - 1
        well_determined += determined
        assert_matches_oracle(sigma, traced, atol=1e-12 if determined else None)
    assert well_determined >= 30
    assert traced["refactors"] > 0


def test_downdates_from_a_singular_start_are_refactored(traced, monkeypatch):
    rng = np.random.default_rng(3)
    sigma = rank_deficient_sample(rng, 40, 25)
    expected, _ = solve_per_pivot(sigma)
    assert np.count_nonzero(expected) < 24
    weights = mvp_plus_weights(sigma).weights
    assert traced["refactors"] == 1
    np.testing.assert_allclose(weights, expected, rtol=0, atol=1e-12)
    # without the refactor the downdated inverse has drifted far past 1e-12
    monkeypatch.setattr(portfolio, "_drifted", lambda quad, solved, free: False)
    drifted = mvp_plus_weights(sigma).weights
    assert np.max(np.abs(drifted - expected)) > 1e-9


def test_iteration_cap_raises_with_the_kkt_residual():
    # the unconstrained optimum is short the first asset: one pivot blocks it,
    # and a second is needed to see that the result is optimal
    sigma = np.array([[1.0, 0.9], [0.9, 0.5]])
    with pytest.raises(SolverError, match=r"iteration cap \(KKT residual \d\.\d{3}e[+-]\d+\)"):
        mvp_plus_weights(sigma, max_iterations=1)
    assert np.allclose(mvp_plus_weights(sigma, max_iterations=2).weights, [0.0, 1.0])
