import numpy as np
import pytest

import covdenoise.spectral as spectral
from covdenoise import CovarianceMatrix, DataError, ParameterError, estimate_lp, sample_covariance
from covdenoise.covariance import window_covariance
from covdenoise.estimators import estimate_two_step
from covdenoise.models import build_block_model
from conftest import random_psd


def test_retagged_shares_the_frozen_array(rng):
    s = CovarianceMatrix(random_psd(rng, 5), "sample")
    tagged = s.retagged("estimator:naive")
    assert tagged.values is s.values
    assert not tagged.values.flags.writeable
    assert tagged.provenance == "estimator:naive" and s.provenance == "sample"
    assert tagged.dim == s.dim == 5


def test_retagged_checks_only_the_tag(rng, monkeypatch):
    s = CovarianceMatrix(random_psd(rng, 5), "sample")
    with pytest.raises(ParameterError, match="bogus"):
        s.retagged("bogus")

    def no_validation(*args, **kwargs):
        raise AssertionError("retagged re-ran the eigenvalue check")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_validation)
    assert s.retagged("estimator:x").provenance == "estimator:x"


def test_decomposition_matches_eigendecompose_sym(rng):
    s = CovarianceMatrix(random_psd(rng, 7), "sample")
    direct = spectral.eigendecompose_sym(s)
    assert np.array_equal(s.decomposition.eigenvalues, direct.eigenvalues)
    assert np.array_equal(s.decomposition.eigenvectors, direct.eigenvectors)
    assert s.decomposition is s.decomposition


def test_sample_is_decomposed_at_most_once(monkeypatch):
    calls = []
    real = spectral.eigendecompose_sym

    def counting(m):
        calls.append(1)
        return real(m)

    monkeypatch.setattr(spectral, "eigendecompose_sym", counting)
    n = 30
    s = sample_covariance(build_block_model((4, 4), 0.3), n, 3).sample
    tagged = s.retagged("estimator:naive")
    estimate_lp(s, n)
    estimate_two_step(s, n, "lp")
    tagged.decomposition
    assert len(calls) == 1


def test_window_covariance_is_the_uncentred_second_moment(rng):
    returns = rng.standard_normal((4, 25))
    cov = window_covariance(returns)
    assert np.array_equal(cov, cov.T)
    assert np.allclose(cov, returns @ returns.T / 25, rtol=1e-14, atol=0.0)


def test_window_covariance_rejects_a_zero_variance_asset(rng):
    returns = rng.standard_normal((3, 10))
    returns[1] = 0.0
    with pytest.raises(DataError, match="zero variance"):
        window_covariance(returns)
