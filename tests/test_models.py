import math

import numpy as np
import pytest

from covdenoise import (
    CovarianceMatrix,
    ModelKind,
    ModelSpec,
    ParameterError,
    build_block_model,
    build_nested_model,
    build_powerlaw_model,
    frobenius_loss,
    sample_covariance,
)
from covdenoise.errors import NumericError

PAPER_SIZES = (3, 3, 4, 5, 6, 7, 7, 9, 11, 13, 15, 17)


def test_block_model_structure():
    sigma = build_block_model(PAPER_SIZES, 0.3)
    assert sigma.dim == 100
    assert sigma.provenance == "model-1"
    assert np.isclose(np.trace(sigma.values), 100.0)
    off_diag_ss = np.sum(sigma.values**2) - 100.0
    assert np.isclose(off_diag_ss, 88.02, rtol=1e-12)


def test_block_model_zero_gamma_is_identity():
    sigma = build_block_model([4], 0.0)
    assert np.array_equal(sigma.values, np.eye(4))


def test_block_model_equicorrelation_spectrum():
    sigma = build_block_model([5], 0.3)
    eigenvalues = np.sort(np.linalg.eigvalsh(sigma.values))
    assert np.allclose(eigenvalues, [0.7, 0.7, 0.7, 0.7, 2.2], atol=1e-10)


def test_block_model_one_spike_per_block():
    sigma = build_block_model(PAPER_SIZES, 0.3)
    eigenvalues = np.linalg.eigvalsh(sigma.values)
    assert int(np.sum(eigenvalues > 1.0)) == len(PAPER_SIZES)


@pytest.mark.parametrize("bad_sizes,gamma", [([0, 3], 0.3), ([3], -0.1), ([3], 1.0)])
def test_block_model_rejects_bad_parameters(bad_sizes, gamma):
    with pytest.raises(ParameterError):
        build_block_model(bad_sizes, gamma)


def test_nested_model_smallest_case():
    sigma = build_nested_model(1, 0.1)
    assert np.allclose(sigma.values, [[0.01]], atol=1e-15)


def test_nested_model_closed_form_entries():
    sigma = build_nested_model(3, 0.1)
    expected = [[0.03, 0.02, 0.01], [0.02, 0.02, 0.01], [0.01, 0.01, 0.01]]
    assert np.allclose(sigma.values, expected, atol=1e-15)


def test_nested_model_scale_and_trace():
    sigma = build_nested_model(100, 0.1)
    assert math.isclose(sigma.values[0, 0], 1.0, rel_tol=1e-12)
    assert math.isclose(np.trace(sigma.values), 50.5, rel_tol=1e-12)
    assert math.isclose(np.trace(sigma.values), 0.1**2 * 100 * 101 / 2, rel_tol=5e-16)


def test_nested_model_rejects_zero_dim():
    with pytest.raises(ParameterError):
        build_nested_model(0, 0.1)


def test_powerlaw_alpha_zero_is_identity():
    for seed in (0, 7, 12345):
        sigma = build_powerlaw_model(5, 0.0, seed)
        assert np.allclose(sigma.values, np.eye(5), atol=1e-12)


def test_powerlaw_trace_matches_partial_sum():
    sigma = build_powerlaw_model(100, 1.5, 3)
    expected = sum(i**-1.5 for i in range(1, 101))
    assert math.isclose(np.trace(sigma.values), expected, rel_tol=1e-10)
    assert math.isclose(expected, 2.41264, rel_tol=1e-4)


def test_powerlaw_spectrum_roundtrip():
    sigma = build_powerlaw_model(10, 1.5, 7)
    recovered = np.sort(np.linalg.eigvalsh(sigma.values))[::-1]
    expected = np.arange(1, 11, dtype=float) ** -1.5
    assert np.max(np.abs(recovered - expected)) < 1e-10


def test_powerlaw_spectrum_is_seed_invariant():
    expected = np.arange(1, 13, dtype=float) ** -0.8
    for seed in range(5):
        sigma = build_powerlaw_model(12, 0.8, seed)
        recovered = np.sort(np.linalg.eigvalsh(sigma.values))[::-1]
        assert np.max(np.abs(recovered - expected)) < 1e-10


def test_sample_covariance_scalar_law_of_large_numbers():
    sigma = CovarianceMatrix(np.array([[1.0]]), "sample")
    draw = sample_covariance(sigma, 10**6, 1)
    assert 0.99 <= draw.sample.values[0, 0] <= 1.01


def test_sample_covariance_matches_data_product():
    sigma = build_block_model([2, 3], 0.4)
    draw = sample_covariance(sigma, 50, 9)
    direct = draw.data @ draw.data.T / 50
    assert np.max(np.abs(draw.sample.values - direct)) <= 1e-12


def test_sample_covariance_is_psd_and_symmetric(rng):
    sigma = CovarianceMatrix(np.eye(3), "sample")
    draw = sample_covariance(sigma, 20, 77)
    values = draw.sample.values
    assert np.array_equal(values, values.T)
    assert np.linalg.eigvalsh(values)[0] >= -1e-12


def test_sample_covariance_reproducible():
    sigma = build_block_model([4, 4], 0.2)
    a = sample_covariance(sigma, 30, 123).sample.values
    b = sample_covariance(sigma, 30, 123).sample.values
    assert np.array_equal(a, b)
    c = sample_covariance(sigma, 30, 124).sample.values
    assert not np.array_equal(a, c)


def test_sample_covariance_mean_frobenius_matches_moment_identity():
    # E||S - Sigma||_F^2 / p = (tr(Sigma)^2 + tr(Sigma^2)) / (n p)
    sigma = build_block_model(PAPER_SIZES, 0.3)
    n, seeds = 200, 200
    losses = [
        frobenius_loss(sample_covariance(sigma, n, seed).sample, sigma)
        for seed in range(seeds)
    ]
    assert math.isclose(float(np.mean(losses)), 0.5094, rel_tol=0.10)


def test_sample_covariance_rejects_small_n():
    sigma = CovarianceMatrix(np.eye(2), "sample")
    with pytest.raises(ParameterError):
        sample_covariance(sigma, 1, 0)


def test_matrix_sqrt_rejects_indefinite_input():
    from covdenoise.models import matrix_sqrt_psd

    bad = CovarianceMatrix.__new__(CovarianceMatrix)
    object.__setattr__(bad, "values", np.array([[1.0, 0.0], [0.0, -0.5]]))
    object.__setattr__(bad, "dim", 2)
    object.__setattr__(bad, "_cache", {})
    with pytest.raises(NumericError):
        matrix_sqrt_psd(bad)


def test_the_sampling_root_is_cached_read_only_with_its_bytes():
    from covdenoise.models import matrix_sqrt_psd

    sigma = build_powerlaw_model(12, 1.0, 4)
    eigenvalues, vectors = sigma.spectrum
    root = np.sqrt(np.clip(eigenvalues, 0.0, None))
    reference = (vectors * root) @ vectors.T
    reference = 0.5 * (reference + reference.T)
    cached = matrix_sqrt_psd(sigma)
    assert np.array_equal(cached.view(np.uint64), reference.view(np.uint64))
    assert not cached.flags.writeable
    assert matrix_sqrt_psd(sigma) is cached
    assert matrix_sqrt_psd(sigma.retagged("sample")) is cached


def test_covariance_matrix_validation():
    with pytest.raises(ParameterError):
        CovarianceMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]), "sample")  # asymmetric
    with pytest.raises(ParameterError):
        CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), "sample")  # indefinite
    with pytest.raises(ParameterError):
        CovarianceMatrix(np.zeros((2, 2)), "sample")  # zero diagonal
    with pytest.raises(ParameterError):
        CovarianceMatrix(np.eye(2), "mystery")  # bad provenance


def test_model_spec_config_roundtrip():
    specs = [
        ModelSpec(kind=ModelKind.BLOCK, p=10, block_sizes=(4, 6), gamma=0.25),
        ModelSpec(kind=ModelKind.NESTED, p=7, gamma=0.1),
        ModelSpec(kind=ModelKind.POWERLAW, p=9, alpha=1.5, seed=42),
    ]
    for spec in specs:
        assert ModelSpec.from_config(spec.to_config()) == spec


def test_model_spec_rejects_unknown_config_keys():
    with pytest.raises(ParameterError):
        ModelSpec.from_config({"kind": "nested", "p": "5", "gamma": "0.1", "bogus": "1"})


@pytest.mark.parametrize(
    "build, message",
    [(lambda: ModelSpec(kind="nested", p=0, gamma=0.1), "p must be a positive integer"),
     (lambda: ModelSpec(kind="block", p=3, gamma=0.1), "block model requires block_sizes"),
     (lambda: ModelSpec(kind="block", p=3, block_sizes=(0, 3), gamma=0.1),
      "block sizes must be positive"),
     (lambda: ModelSpec(kind="block", p=3, block_sizes=(3,), gamma=1.0),
      r"block model requires gamma in \[0, 1\)"),
     (lambda: ModelSpec(kind="block", p=3, block_sizes=(3,)),
      r"block model requires gamma in \[0, 1\)"),
     (lambda: ModelSpec(kind="nested", p=3, gamma=0.0), "nested model requires gamma > 0"),
     (lambda: ModelSpec(kind="powerlaw", p=3, alpha=-0.5), "power-law model requires alpha >= 0"),
     (lambda: ModelSpec.from_config({"kind": "nested", "gamma": "0.1"}),
      "model config missing key 'p'")],
    ids=["p", "no block sizes", "zero block size", "block gamma", "no block gamma",
         "nested gamma", "alpha", "missing key"],
)
def test_model_spec_rejects_each_bad_field(build, message):
    with pytest.raises(ParameterError, match=message):
        build()


def test_model_spec_validates_block_sum():
    with pytest.raises(ParameterError):
        ModelSpec(kind=ModelKind.BLOCK, p=9, block_sizes=(4, 6), gamma=0.25)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: build_nested_model(4, 0.0), "gamma must be positive, got 0.0"),
     (lambda: build_powerlaw_model(0, 1.5, 0), "p must be a positive integer"),
     (lambda: build_powerlaw_model(4, -0.5, 0), "alpha must be nonnegative, got -0.5")],
    ids=["nested-gamma", "powerlaw-p", "powerlaw-alpha"],
)
def test_model_builders_reject_bad_parameters(call, message):
    with pytest.raises(ParameterError, match=message):
        call()
