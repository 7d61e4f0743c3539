"""The long-only QP's pivots, ratio test, starts and free-block solves
against the oracle ``conftest.solve_per_pivot``, which always starts from
every asset free, solves each free block of the recomposed floored spectrum
by one LU and scans the ratios in a Python loop."""

import numpy as np
import pytest

from covdenoise import SolverError, mvp_plus_weights, portfolio
from covdenoise.covariance import window_covariance
from covdenoise.spectral import EIGENVALUE_FLOOR
from conftest import random_psd, scan, solve_per_pivot
from test_portfolio import kkt_residual


@pytest.fixture
def traced(monkeypatch):
    """Pivot path of mvp_plus_weights in the oracle's notation, plus the size
    of each free block it solves.  A release shows as a solve whose free set
    has grown since the last solve of the same start."""
    record = {"path": [], "solves": [], "free": None}
    ratio_test, free_block_solve, active_set = (portfolio._ratio_test,
                                                portfolio._free_block_solve,
                                                portfolio._active_set)

    def traced_ratio_test(falling, ratios):
        limit, blocker = ratio_test(falling, ratios)
        record["path"].append(("block", blocker))
        return limit, blocker

    def traced_solve(quad, factor, free):
        if record["free"] is not None:
            released = np.flatnonzero(free & ~record["free"])
            record["path"].extend(("release", int(j)) for j in released)
        record["free"] = free.copy()
        record["solves"].append(int(np.count_nonzero(free)))
        return free_block_solve(quad, factor, free)

    def traced_active_set(quad, factor, free, cap):
        record["free"] = None
        return active_set(quad, factor, free, cap)

    monkeypatch.setattr(portfolio, "_ratio_test", traced_ratio_test)
    monkeypatch.setattr(portfolio, "_free_block_solve", traced_solve)
    monkeypatch.setattr(portfolio, "_active_set", traced_active_set)
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


# --- the QP against the oracle -----------------------------------------------

def assert_matches_oracle(sigma, traced, atol=1e-12):
    """The default start and the all-free start reach the oracle's support
    and, unless ``atol`` is None, its weights; returns the oracle's path.
    The all-free start, the oracle's own, runs last, so ``traced`` holds its
    path and solves."""
    expected, path = solve_per_pivot(sigma)
    for support in (None, np.ones(sigma.shape[0], dtype=bool)):
        traced["path"].clear()
        traced["solves"].clear()
        weights = mvp_plus_weights(sigma, support=support).weights
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
        # one solve to start and one per block or release; a full step keeps the block
        assert len(traced["solves"]) == 1 + sum(asset >= 0 for _, asset in path)


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


def test_qp_matches_the_oracle_on_near_singular_full_rank_windows(traced):
    # a backtest window with barely more days than assets: full rank, so the
    # QP works on the window's own values and the oracle on its recomposed
    # spectrum, yet conditioned up to 1e5-1e6
    rng = np.random.default_rng(17)
    condition = []
    for _ in range(40):
        p = int(rng.integers(10, 81))
        t_in = p + int(rng.integers(1, 4))
        returns = rng.standard_normal((p, t_in)) * rng.uniform(0.02, 0.06, (p, 1))
        returns += rng.uniform(0.6, 1.4, (p, 1)) * 0.035 * rng.standard_normal(t_in)
        sigma = window_covariance(returns)
        eigenvalues = np.linalg.eigvalsh(sigma)
        assert eigenvalues[0] > EIGENVALUE_FLOOR * eigenvalues[-1]
        condition.append(eigenvalues[-1] / eigenvalues[0])
        path = assert_matches_oracle(sigma, traced)
        assert traced["path"] == path
        weights = mvp_plus_weights(sigma).weights
        lam = float(weights @ sigma @ weights)
        assert kkt_residual(sigma / lam, weights) <= 1e-12
    assert max(condition) > 1e5


def test_iteration_cap_raises_with_the_kkt_residual():
    # the unconstrained optimum is short the first asset.  From both assets
    # free one pivot blocks it, and a second is needed to see that the result
    # is optimal; the default start, on the asset of smaller variance, needs
    # only the second
    sigma = np.array([[1.0, 0.9], [0.9, 0.85]])
    both = np.ones(2, dtype=bool)
    with pytest.raises(SolverError, match=r"iteration cap \(KKT residual \d\.\d{3}e[+-]\d+\)"):
        mvp_plus_weights(sigma, max_iterations=1, support=both)
    assert np.allclose(mvp_plus_weights(sigma, max_iterations=2, support=both).weights, [0.0, 1.0])
    assert np.array_equal(mvp_plus_weights(sigma, max_iterations=1).weights, [0.0, 1.0])
    with pytest.raises(SolverError, match="iteration cap"):
        mvp_plus_weights(sigma, max_iterations=0)


def test_relabelling_the_assets_moves_the_weights_of_rank_deficient_samples_by_1e_9():
    # the free blocks of a floored spectrum are solved through the QR of their
    # factor, so a block the floor makes singular to 1e-12 loses about 6
    # digits; an LU of the block itself lost about 12, and moved the weights
    # by up to 1e-5 under a relabelling
    rng = np.random.default_rng(0)
    moves = []
    for _ in range(200):
        p = int(rng.integers(10, 60))
        sigma = rank_deficient_sample(rng, p, int(rng.integers(3, p + 1)))
        order = rng.permutation(p)
        weights = mvp_plus_weights(sigma).weights
        relabelled = mvp_plus_weights(sigma[np.ix_(order, order)]).weights
        moves.append(float(np.max(np.abs(relabelled - weights[order]))))
    assert max(moves) <= 1e-9


def test_the_factored_block_solve_equals_the_lu_on_well_conditioned_blocks():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = int(rng.integers(1, 61))
        vectors, _ = np.linalg.qr(rng.standard_normal((p, p)))
        eigenvalues = rng.uniform(0.5, 2.0, p)
        quad = (vectors * eigenvalues) @ vectors.T
        factor = vectors * np.sqrt(eigenvalues)
        free = rng.random(p) < rng.uniform(0.2, 1.0)
        free[rng.integers(p)] = True
        np.testing.assert_allclose(portfolio._free_block_solve(quad, factor, free),
                                   portfolio._free_block_solve(quad, None, free),
                                   rtol=0, atol=1e-12)


# --- starts ----------------------------------------------------------------------

def test_warm_starts_next_to_the_optimum_match_the_cold_solve_on_rank_deficient_samples():
    # Every start is the oracle's support with one asset flipped, and each
    # reaches the oracle's support and the default start's weights to 1e-12.
    # Where the optimum's support stays below the sample's rank the optimum is
    # well determined and the weights agree with the oracle to 1e-12 too.
    # Where it reaches the rank its weights on the floored null space are
    # determined only to about 1e-6 by the oracle's LU: there they agree with
    # the oracle to 1e-5
    rng = np.random.default_rng(8)
    well_determined = 0
    for _ in range(60):
        p = int(rng.integers(6, 61))
        n = int(rng.integers(3, p))
        sigma = rank_deficient_sample(rng, p, n)
        expected, _ = solve_per_pivot(sigma)
        determined = np.count_nonzero(expected) < n - 1  # the sample's rank is n - 1
        well_determined += determined
        cold = mvp_plus_weights(sigma).weights
        for flip in range(p):
            support = expected > 0
            support[flip] = not support[flip]
            weights = mvp_plus_weights(sigma, support=support).weights
            assert kkt_residual(sigma, weights) <= 1e-8
            assert np.array_equal(weights > 0, expected > 0)
            np.testing.assert_allclose(weights, cold, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights, expected, rtol=0,
                                       atol=1e-12 if determined else 1e-5)
    assert well_determined >= 30


def test_max_iterations_bounds_a_warm_start(traced):
    # from the assets the optimum leaves out, the warm start pivots more
    # often than p times; it takes one iteration per pivot and one more to
    # see that it is optimal, and raises at any smaller cap
    sigma = random_psd(np.random.default_rng(4), 20, scale_spread=1.5)
    cold = mvp_plus_weights(sigma).weights
    far = cold == 0
    traced["path"].clear()
    warm = mvp_plus_weights(sigma, support=far).weights
    pivots = len(traced["path"])
    assert pivots > 20
    np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-14)
    for cap in (5, 20, pivots):
        traced["path"].clear()
        with pytest.raises(SolverError, match="iteration cap"):
            mvp_plus_weights(sigma, max_iterations=cap, support=far)
        assert len(traced["path"]) == cap
    assert np.array_equal(mvp_plus_weights(sigma, max_iterations=pivots + 1, support=far).weights,
                          warm)


def test_a_warm_start_on_the_optimal_support_takes_no_pivot(traced):
    sigma = random_psd(np.random.default_rng(4), 20, scale_spread=1.5)
    cold = mvp_plus_weights(sigma).weights
    assert 0 < np.count_nonzero(cold) < 20
    traced["path"].clear()
    traced["solves"].clear()
    warm = mvp_plus_weights(sigma, support=cold > 0).weights
    assert traced["path"] == [("block", -1)]  # one full step from uniform to the optimum
    assert traced["solves"] == [np.count_nonzero(cold)]  # the starting block, solved once
    np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-14)
