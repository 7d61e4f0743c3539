import numpy as np
import pytest

import covdenoise.spectral as spectral
from covdenoise import (
    CovarianceMatrix,
    DataError,
    ParameterError,
    estimate_lp,
    mv_loss,
    mvp_weights,
    sample_covariance,
)
from covdenoise.covariance import symmetrize, window_covariance
from covdenoise.estimators import estimate_two_step, shrink_eigenvalues
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
    monkeypatch.setattr(spectral, "symmetric_eigenvalues", no_validation)
    assert s.retagged("estimator:x").provenance == "estimator:x"


def test_estimate_lp_matches_the_descending_decomposition_formula(rng):
    n = 12
    s = CovarianceMatrix(random_psd(rng, 7), "sample")
    dec = spectral.eigendecompose_sym(s.values)
    shrunk = shrink_eigenvalues(dec.eigenvalues[::-1], n)[::-1]
    expected = symmetrize((dec.eigenvectors * shrunk) @ dec.eigenvectors.T)
    assert np.array_equal(estimate_lp(s, n).values, expected)
    # the sample keeps one decomposition: its ascending spectrum
    assert list(s._cache) == ["spectrum"]


def test_spectrum_is_one_read_only_eigh_shared_with_retagged_copies(rng, monkeypatch):
    s = CovarianceMatrix(random_psd(rng, 6), "sample")
    eigenvalues, vectors = np.linalg.eigh(s.values)
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or real(m))
    cached = s.spectrum
    assert np.array_equal(cached[0], eigenvalues) and np.array_equal(cached[1], vectors)
    assert not cached[0].flags.writeable and not cached[1].flags.writeable
    assert s.retagged("estimator:naive").spectrum is cached
    spectral.eigendecompose_sym(s)
    assert len(calls) == 1


def test_decomposition_reorders_the_spectrum_like_the_array_path(rng):
    values = random_psd(rng, 7)
    cached = spectral.eigendecompose_sym(CovarianceMatrix(values, "sample"))
    direct = spectral.eigendecompose_sym(values)
    assert np.array_equal(cached.eigenvalues, direct.eigenvalues)
    assert np.array_equal(cached.eigenvectors, direct.eigenvectors)


def test_sample_is_decomposed_at_most_once(monkeypatch):
    n = 30
    sigma = build_block_model((4, 4), 0.3)
    s = sample_covariance(sigma, n, 3).sample
    calls = []
    real = np.linalg.eigh

    def counting(m, *args, **kwargs):
        calls.append(m)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    tagged = s.retagged("estimator:naive")
    estimate_lp(s, n)
    estimate_two_step(s, n, "lp")
    mv_loss(tagged, sigma)
    mvp_weights(tagged)
    spectral.eigendecompose_sym(tagged)
    # sigma's spectrum was cached while drawing the sample
    assert len(calls) == 1 and calls[0] is s.values


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


INVALID = [
    (np.ones((2, 3)), "must be square"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
    (np.array([[1.0, 0.5], [0.4, 1.0]]), "not symmetric"),
    (np.array([[1.0, 0.0], [0.0, 0.0]]), "diagonal must be strictly positive"),
    (np.array([[1.0, 2.0], [2.0, 1.0]]), r"not positive semidefinite \(min eig -1.000e\+00"),
]


@pytest.mark.parametrize("values, message", INVALID)
def test_decomposed_matrix_rejects_what_the_constructor_rejects(values, message):
    with pytest.raises(ParameterError, match=message):
        CovarianceMatrix(values, "sample")
    with pytest.raises(ParameterError, match=message):
        CovarianceMatrix.decomposed(values)


def test_decomposed_matrix_is_validated_from_its_one_eigh(rng, monkeypatch):
    values = random_psd(rng, 6)
    counts = []
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (spectral, "symmetric_eigenvalues")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda m, _real=real, _name=name: counts.append(_name) or _real(m))
    s = CovarianceMatrix.decomposed(values)
    assert s.eigenvalues is s.spectrum[0]
    assert not s.eigenvalues.flags.writeable and not s.spectrum[1].flags.writeable
    spectral.eigendecompose_sym(s.retagged("estimator:naive"))
    assert counts == ["eigh"]
    assert s.provenance == "sample" and s.dim == 6
    assert np.array_equal(s.values, values) and not s.values.flags.writeable
    plain = CovarianceMatrix(values, "sample")
    assert np.array_equal(s.spectrum[0], plain.spectrum[0])
    assert np.array_equal(s.spectrum[1], plain.spectrum[1])


def test_lp_estimate_takes_its_shrunk_values_as_eigenvalues(monkeypatch):
    def no_validation(*args, **kwargs):
        raise AssertionError("the lp estimate was validated by eigvalsh")

    n = 30
    for p in (8, 40):  # p < n and p > n
        s = sample_covariance(build_block_model((p // 2, p - p // 2), 0.3), n, p).sample
        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "eigvalsh", no_validation)
            patched.setattr(spectral, "symmetric_eigenvalues", no_validation)
            estimate = estimate_lp(s, n)
        reference = np.linalg.eigvalsh(estimate.values)
        assert np.all(np.diff(estimate.eigenvalues) >= 0.0)
        assert not estimate.eigenvalues.flags.writeable
        top = reference[-1]
        assert np.max(np.abs(estimate.eigenvalues - reference)) <= 1e-12 * top


def test_recomposed_matrix_runs_the_checks_that_need_no_lapack():
    vectors = np.eye(2)
    with pytest.raises(ParameterError, match="diagonal must be strictly positive"):
        CovarianceMatrix.recomposed(np.array([0.0, 1.0]), vectors, "estimator:lp")
    with pytest.raises(ParameterError, match="not positive semidefinite"):
        CovarianceMatrix.recomposed(np.array([-0.5, 2.0]), np.array([[1.0, 1.0], [1.0, -1.0]])
                                    / np.sqrt(2.0), "estimator:lp")
    with pytest.raises(ParameterError, match="unknown provenance"):
        CovarianceMatrix.recomposed(np.array([1.0, 2.0]), vectors, "bogus")


def _value_types():
    from covdenoise import WeightVector, portfolio_metrics
    from covdenoise.backtest import BacktestReport
    from covdenoise.denoiser import DenoiserConfig, TrainingSet, init_weights
    from covdenoise.denoiser.network import ResidualBlockWeights
    from covdenoise.ingest import PricePanel, ReturnsPanel
    from covdenoise.models import SampleDraw
    from covdenoise.spectral import SpectralDecomposition

    dates = ("2024-01-01", "2024-01-02")
    return {
        "CovarianceMatrix": lambda: CovarianceMatrix(np.eye(2)),
        "WeightVector": lambda: WeightVector(np.array([0.25, 0.75])),
        "SpectralDecomposition": lambda: SpectralDecomposition(np.ones(2), np.eye(2)),
        "SampleDraw": lambda: SampleDraw(np.ones((2, 3)), CovarianceMatrix(np.eye(2)), 3, 0),
        "PricePanel": lambda: PricePanel(dates, ("A", "B"), np.ones((2, 2))),
        "ReturnsPanel": lambda: ReturnsPanel(dates, ("A", "B"), np.zeros((2, 2))),
        "TrainingSet": lambda: TrainingSet(np.zeros((2, 2, 2)), np.zeros((2, 2, 2))),
        "BacktestReport": lambda: BacktestReport(
            list(dates[:1]), [WeightVector(np.array([0.5, 0.5]))], list(dates),
            np.zeros(2), portfolio_metrics(np.zeros(2), [np.array([0.5, 0.5])]), ("A", "B")),
        "DenoiserWeights": lambda: init_weights(DenoiserConfig(input_size=2, num_blocks=1,
                                                               num_filters=2)),
        "ResidualBlockWeights": lambda: ResidualBlockWeights(*(np.zeros(2) for _ in range(4))),
    }


@pytest.mark.parametrize("name", list(_value_types()))
def test_value_types_holding_arrays_compare_and_hash_by_identity(name):
    # a generated __eq__ would compare the arrays (and raise on their truth
    # value); a generated __hash__ would hash them (and raise: unhashable)
    make = _value_types()[name]
    one, same_contents = make(), make()
    assert one == one
    assert one != same_contents
    assert len({one, same_contents, one}) == 2


def test_covariance_matrix_rejects_an_empty_array():
    with pytest.raises(ParameterError, match="covariance must have dimension >= 1"):
        CovarianceMatrix(np.zeros((0, 0)))
