import numpy as np
import pytest

from covdenoise import (
    ModelKind,
    ModelSpec,
    ParameterError,
    assemble_hybrid,
    build_block_model,
    estimate_alca,
    estimate_lp,
    estimate_naive,
    estimate_two_step,
    make_estimator,
    run_monte_carlo,
    sample_covariance,
    shrink_eigenvalues,
)
from covdenoise.estimators import ESTIMATOR_NAMES
from conftest import random_psd

PAPER_SIZES = (3, 3, 4, 5, 6, 7, 7, 9, 11, 13, 15, 17)


def reference_shrinkage(eigenvalues, n):
    """Loop-based reimplementation of the quadratic-inverse shrinkage formula."""
    lam = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None)
    p = lam.size
    c = p / n
    h = min(c**2, 1.0 / c**2) ** 0.35 / p**0.35
    n_null = max(p - n, 0)
    inv = [1.0 / max(v, lam[-1] * 1e-14) for v in lam[n_null:]]
    m = len(inv)
    theta, htheta = [], []
    for j in range(m):
        t_sum = h_sum = 0.0
        for i in range(m):
            dij = inv[i] - inv[j]
            den = dij * dij + inv[i] * inv[i] * h * h
            t_sum += inv[i] * dij / den
            h_sum += inv[i] * inv[i] * h / den
        theta.append(t_sum / m)
        htheta.append(h_sum / m)
    out = []
    if p <= n:
        for j in range(m):
            amp2 = theta[j] ** 2 + htheta[j] ** 2
            out.append(
                1.0
                / ((1 - c) ** 2 * inv[j] + 2 * c * (1 - c) * inv[j] * theta[j] + c**2 * inv[j] * amp2)
            )
    else:
        null_value = 1.0 / ((c - 1.0) * float(np.mean(inv)))
        out = [null_value] * n_null + [
            1.0 / (inv[j] * (theta[j] ** 2 + htheta[j] ** 2)) for j in range(m)
        ]
    out = np.array(out)
    return out * lam.sum() / out.sum()


# --- eigenvalue shrinkage -------------------------------------------------


def test_shrinkage_matches_independent_reimplementation():
    sigma = build_block_model([2, 2], 0.4)
    draw = sample_covariance(sigma, 8, 31)
    lam = np.sort(np.linalg.eigvalsh(draw.sample.values))
    mine = shrink_eigenvalues(lam, 8)
    theirs = reference_shrinkage(lam, 8)
    assert np.max(np.abs(mine - theirs)) <= 1e-12


def test_shrinkage_vanishing_aspect_ratio_recovers_eigenvalues():
    sigma = build_block_model([2, 2], 0.4)
    n = 4 * 10**6
    draw = sample_covariance(sigma, n, 5)
    lam = np.sort(np.linalg.eigvalsh(draw.sample.values))
    shrunk = shrink_eigenvalues(lam, n)
    assert np.max(np.abs(shrunk / lam - 1.0)) < 1e-3


def test_shrinkage_singular_regime_is_positive():
    sigma = build_block_model([6, 6], 0.3)
    draw = sample_covariance(sigma, 6, 11)  # p=12 > n=6
    lam = np.sort(np.linalg.eigvalsh(draw.sample.values))
    shrunk = shrink_eigenvalues(lam, 6)
    assert shrunk.shape == (12,)
    assert np.all(shrunk > 0)
    mine = reference_shrinkage(lam, 6)
    assert np.max(np.abs(shrunk - mine)) <= 1e-12


def test_estimate_lp_keeps_sample_eigenvectors(rng):
    sigma = build_block_model([4, 6], 0.3)
    draw = sample_covariance(sigma, 40, 3)
    estimate = estimate_lp(draw.sample, 40)
    assert estimate.provenance == "estimator:lp"
    lam, vectors = np.linalg.eigh(draw.sample.values)
    # every sample eigenvector diagonalizes the estimate
    transformed = estimate.values @ vectors
    xi = np.einsum("ij,ij->j", vectors, transformed)
    assert np.all(xi >= 0)
    assert np.max(np.abs(transformed - vectors * xi)) <= 1e-8


def test_estimate_naive_is_identity():
    sigma = build_block_model([3, 3], 0.2)
    draw = sample_covariance(sigma, 25, 17)
    estimate = estimate_naive(draw.sample)
    assert np.array_equal(estimate.values, draw.sample.values)
    assert estimate.provenance == "estimator:naive"


# --- hierarchical filtering -----------------------------------------------


def test_alca_fixed_point_on_equicorrelation():
    sigma = build_block_model([4], 0.3)
    filtered = estimate_alca(sigma)
    assert np.max(np.abs(filtered.values - sigma.values)) <= 1e-10


def test_alca_leaves_two_asset_diagonal_case_unchanged():
    from covdenoise import CovarianceMatrix

    matrix = CovarianceMatrix(np.diag([1.0, 4.0]), "sample")
    filtered = estimate_alca(matrix)
    assert np.max(np.abs(filtered.values - matrix.values)) <= 1e-12


def test_alca_idempotent_and_preserves_variances(rng):
    from covdenoise import CovarianceMatrix

    for _ in range(8):
        matrix = CovarianceMatrix(random_psd(rng, 12, scale_spread=1.0), "sample")
        once = estimate_alca(matrix)
        twice = estimate_alca(once)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-10
        assert np.allclose(np.diag(once.values), np.diag(matrix.values), rtol=1e-12)


def test_two_step_two_assets_equals_first_step():
    sigma = build_block_model([2], 0.5)
    draw = sample_covariance(sigma, 30, 2)
    lp = estimate_lp(draw.sample, 30)
    two_step = estimate_two_step(draw.sample, 30, "lp")
    assert np.max(np.abs(two_step.values - lp.values)) <= 1e-13
    assert two_step.provenance == "estimator:2s-lp"


def test_two_step_fixed_point_when_first_step_ultrametric():
    sigma = build_block_model([5], 0.3)  # population equicorrelation is ultrametric
    two_step = estimate_alca(estimate_alca(sigma))
    assert np.max(np.abs(two_step.values - estimate_alca(sigma).values)) <= 1e-10


def test_two_step_rejects_bad_first_stage():
    sigma = build_block_model([2, 2], 0.2)
    draw = sample_covariance(sigma, 20, 1)
    with pytest.raises(ParameterError):
        estimate_two_step(draw.sample, 20, "alca")


# --- hybrid assembly --------------------------------------------------------


def test_assemble_hybrid_identity_vectors():
    out = assemble_hybrid(np.eye(2), np.array([3.0, 1.0]))
    assert np.allclose(out.values, np.diag([3.0, 1.0]))
    assert out.provenance == "estimator:hybrid"


def test_assemble_hybrid_orthogonal_vectors_preserve_spectrum(rng):
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    xi = np.sort(rng.uniform(0.1, 2.0, size=6))[::-1]
    out = assemble_hybrid(q, xi)
    eigs = np.sort(np.linalg.eigvalsh(out.values))[::-1]
    assert np.max(np.abs(eigs - xi)) <= 1e-10


def test_assemble_hybrid_nonorthogonal_matches_direct_product(rng):
    v = rng.standard_normal((3, 3))
    out = assemble_hybrid(v, np.ones(3))
    direct = v @ v.T
    assert np.max(np.abs(out.values - 0.5 * (direct + direct.T))) <= 1e-12
    assert np.linalg.eigvalsh(out.values)[0] >= -1e-10


def test_assemble_hybrid_validates_inputs():
    with pytest.raises(ParameterError):
        assemble_hybrid(np.eye(3), np.ones(2))
    with pytest.raises(ParameterError):
        assemble_hybrid(np.eye(2), np.array([1.0, -0.5]))


def test_make_estimator_registry():
    assert ESTIMATOR_NAMES == ("naive", "lp", "cnn", "hybrid", "alca", "2s-lp", "2s-cnn", "2s-hybrid")
    with pytest.raises(ParameterError):
        make_estimator("ridge", 10)
    with pytest.raises(ParameterError):
        make_estimator("cnn", 10)  # missing weights
    with pytest.raises(ParameterError):
        make_estimator("2s-hybrid", 10)


# --- Monte Carlo agreement with the reference table ------------------------


@pytest.fixture(scope="module")
def table_block_run():
    # weak-block regime (intra-block correlation 0.09) matching the reference
    # table's generative settings; see the estimator docs for the loss targets
    spec = ModelSpec(kind=ModelKind.BLOCK, p=100, block_sizes=PAPER_SIZES, gamma=0.09)
    return run_monte_carlo(spec, 200, 200, ["naive", "lp", "alca", "2s-lp"], seed=20240602, threads=2)


@pytest.fixture(scope="module")
def table_nested_run():
    spec = ModelSpec(kind=ModelKind.NESTED, p=100, gamma=0.1)
    return run_monte_carlo(spec, 200, 200, ["naive", "lp"], seed=20240603, threads=2)


def test_block_table_naive_frobenius(table_block_run):
    assert abs(table_block_run.rows["naive"].mean_f - 0.507937) <= 0.05 * 0.507937


def test_block_table_naive_mv(table_block_run):
    assert abs(table_block_run.rows["naive"].mean_mv - 0.486611) <= 0.05 * 0.486611


def test_block_table_lp_frobenius(table_block_run):
    assert abs(table_block_run.rows["lp"].mean_f - 0.065429) <= 0.10 * 0.065429


def test_block_table_alca_frobenius(table_block_run):
    assert abs(table_block_run.rows["alca"].mean_f - 0.099357) <= 0.10 * 0.099357


def test_block_table_two_step_losses(table_block_run):
    row = table_block_run.rows["2s-lp"]
    assert abs(row.mean_f - 0.056593) <= 0.10 * 0.056593
    assert abs(row.mean_mv - 0.017976) <= 0.15 * 0.017976


def test_block_table_orderings(table_block_run):
    rows = table_block_run.rows
    assert rows["lp"].mean_f < rows["alca"].mean_f < rows["naive"].mean_f
    assert rows["2s-lp"].mean_mv < rows["lp"].mean_mv < rows["naive"].mean_mv


def test_nested_table_naive_mv(table_nested_run):
    assert abs(table_nested_run.rows["naive"].mean_mv - 0.002551) <= 0.15 * 0.002551


def test_nested_table_lp_improves_mv(table_nested_run):
    naive = table_nested_run.rows["naive"]
    lp = table_nested_run.rows["lp"]
    assert lp.mean_mv < naive.mean_mv - 3.0 * (lp.se_mv + naive.se_mv)


def test_estimate_lp_singular_regime_end_to_end():
    sigma = build_block_model([5, 5], 0.3)
    draw = sample_covariance(sigma, 6, 21)  # p=10 > n=6
    estimate = estimate_lp(draw.sample, 6)
    eigenvalues = np.linalg.eigvalsh(estimate.values)
    assert eigenvalues[0] > 0  # null directions receive a positive shrunk value
    assert estimate.values.shape == (10, 10)


def test_covariance_matrix_is_frozen():
    sigma = build_block_model([3], 0.2)
    with pytest.raises(ValueError):
        sigma.values[0, 0] = 5.0


@pytest.mark.parametrize(
    "call, message",
    [(lambda: shrink_eigenvalues(np.array([]), 10), "eigenvalues must be a nonempty vector"),
     (lambda: shrink_eigenvalues(np.array([2.0, 1.0]), 10), "eigenvalues must be sorted ascending"),
     (lambda: shrink_eigenvalues(np.array([1.0, 2.0]), 1), "n must be >= 2, got 1"),
     (lambda: shrink_eigenvalues(np.zeros(3), 10), "cannot shrink an all-zero spectrum"),
     (lambda: assemble_hybrid(np.ones((2, 3)), np.ones(2)), "eigenvector matrix must be square")],
    ids=["empty", "unsorted", "n-below-2", "all-zero", "hybrid-non-square"],
)
def test_spectrum_inputs_are_rejected(call, message):
    with pytest.raises(ParameterError, match=message):
        call()
