"""The estimator table: every name, its network mode, the weights it binds,
and the module-global lookups that keep traced estimate functions visible."""

import numpy as np
import pytest

from covdenoise import (
    CovarianceMatrix,
    ModelKind,
    ModelSpec,
    ParameterError,
    estimate_two_step,
    make_estimator,
    network_mode,
    sample_covariance,
)
from covdenoise import estimators
from covdenoise.denoiser import DenoiserConfig, build_training_set_simulation, train
from covdenoise.estimators import ESTIMATOR_NAMES
from conftest import random_psd

MODEL = ModelSpec(kind=ModelKind.BLOCK, p=6, block_sizes=(3, 3), gamma=0.3)
N = 30

NETWORK_MODES = {
    "naive": None,
    "lp": None,
    "cnn": "covariance",
    "hybrid": "eigenvectors",
    "alca": None,
    "2s-lp": None,
    "2s-cnn": "covariance",
    "2s-hybrid": "eigenvectors",
}

# estimate functions each estimator reaches, as the benchmark's spans count them
REACHED = {
    "naive": [],
    "lp": ["estimate_lp"],
    "cnn": ["estimate_cnn"],
    "hybrid": ["estimate_hybrid"],
    "alca": ["estimate_alca"],
    "2s-lp": ["estimate_alca", "estimate_lp"],
    "2s-cnn": ["estimate_alca", "estimate_cnn"],
    "2s-hybrid": ["estimate_alca", "estimate_hybrid"],
}


@pytest.fixture(scope="module")
def nets():
    """One tiny trained net per mode: 1 block x 2 filters, 1 epoch."""
    out = {}
    for seed, mode in enumerate(("covariance", "eigenvectors")):
        config = DenoiserConfig(input_size=MODEL.p, num_blocks=1, num_filters=2, kernel=3,
                                batch_size=4, epochs=1, seed=seed, mode=mode)
        data = build_training_set_simulation(MODEL, N, 6, seed, mode=mode)
        out[mode], _ = train(config, data)
    return out


def fresh_sample():
    """A new sample object with an empty cache (same values each call)."""
    return sample_covariance(MODEL.build(), N, 4).sample


@pytest.fixture(scope="module")
def sample():
    return fresh_sample()


def counting(monkeypatch, names):
    """Record every call of the named module-level estimate functions."""
    calls = []
    for fn in names:
        real = getattr(estimators, fn)

        def counted(*args, _real=real, _fn=fn, **kwargs):
            calls.append(_fn)
            return _real(*args, **kwargs)

        monkeypatch.setattr(estimators, fn, counted)
    return calls


def test_network_mode_of_every_estimator():
    assert {name: network_mode(name) for name in ESTIMATOR_NAMES} == NETWORK_MODES
    assert set(REACHED) == set(ESTIMATOR_NAMES)


@pytest.mark.parametrize("name", ["ridge", "2s-alca", "2s-naive", "LP", ""])
def test_network_mode_rejects_unknown_names(name):
    with pytest.raises(ParameterError, match="expected one of"):
        network_mode(name)
    with pytest.raises(ParameterError, match="expected one of"):
        make_estimator(name, N)
    with pytest.raises(ParameterError, match="expected one of"):
        estimators.validated_sample(name, np.eye(2))


def test_a_sample_whose_vectors_an_estimator_reads_is_validated_from_its_spectrum(rng):
    values = random_psd(rng, 5)
    decomposed = {
        name for name in ESTIMATOR_NAMES
        if "spectrum" in estimators.validated_sample(name, values)._cache
    }
    assert decomposed == {"lp", "hybrid", "2s-lp", "2s-hybrid"}
    for name in ESTIMATOR_NAMES:
        sample = estimators.validated_sample(name, values)
        assert sample.provenance == "sample" and np.array_equal(sample.values, values)


@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_every_estimator_returns_tagged_symmetric_covariance(name, nets, sample):
    estimate = make_estimator(name, N, weights=nets.get(network_mode(name)))(sample)
    assert isinstance(estimate, CovarianceMatrix)
    assert estimate.provenance == f"estimator:{name}"
    assert np.array_equal(estimate.values, estimate.values.T)
    assert estimate.dim == MODEL.p


@pytest.mark.parametrize("name", [n for n, mode in NETWORK_MODES.items() if mode])
def test_wrong_mode_weights_fail_loudly(name, nets, sample):
    mode = network_mode(name)
    other = "eigenvectors" if mode == "covariance" else "covariance"
    with pytest.raises(ParameterError, match=f"requires {mode}-mode weights, got {other}-mode"):
        make_estimator(name, N, weights=nets[other])
    with pytest.raises(ParameterError, match=f"requires {mode}-mode weights"):
        make_estimator(name, N)
    if name.startswith("2s-"):
        with pytest.raises(ParameterError, match=f"got {other}-mode"):
            estimate_two_step(sample, N, name[3:], weights=nets[other])


def test_two_step_is_the_filtered_first_stage(nets, sample):
    for first in ("lp", "cnn", "hybrid"):
        weights = nets.get(network_mode(first))
        stage = make_estimator(first, N, weights=weights)(sample)
        expected = estimators.estimate_alca(stage)
        two_step = estimate_two_step(sample, N, first, weights=weights)
        assert np.array_equal(two_step.values, expected.values)
        assert two_step.provenance == f"estimator:2s-{first}"


@pytest.mark.parametrize("name", ["lp", "alca"])
def test_classical_estimators_are_permutation_equivariant(name, rng):
    s = CovarianceMatrix(random_psd(rng, 9, scale_spread=0.5))
    perm = rng.permutation(9)
    estimator = make_estimator(name, 20)
    direct = estimator(s).values
    permuted = estimator(CovarianceMatrix(s.values[np.ix_(perm, perm)])).values
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(permuted - direct[np.ix_(perm, perm)])) <= 1e-12 * scale


def test_table_reaches_estimate_functions_at_call_time(monkeypatch, nets):
    # a wrapper installed on the module after import must see every call, or
    # the benchmark's estimators.* spans read zero; a fresh sample per name,
    # so that no first-stage estimate kept by an earlier name hides a call
    calls = counting(monkeypatch, ("estimate_lp", "estimate_alca", "estimate_cnn",
                                   "estimate_hybrid"))
    for name in ESTIMATOR_NAMES:
        calls.clear()
        make_estimator(name, N, weights=nets.get(network_mode(name)))(fresh_sample())
        assert sorted(calls) == REACHED[name], name


@pytest.mark.parametrize("first", ["lp", "cnn", "hybrid"])
def test_two_step_reuses_the_first_stage_estimate_of_its_sample(monkeypatch, nets, first):
    weights = nets.get(network_mode(first))
    calls = counting(monkeypatch, (f"estimate_{first}",))
    s = fresh_sample()
    stage = make_estimator(first, N, weights=weights)(s)
    two_step = make_estimator(f"2s-{first}", N, weights=weights)(s)
    assert calls == [f"estimate_{first}"]
    assert np.array_equal(two_step.values, estimators.estimate_alca(stage).values)
    assert two_step.provenance == f"estimator:2s-{first}"
    # in the other order too: the first stage returns the estimate 2s kept
    s = fresh_sample()
    make_estimator(f"2s-{first}", N, weights=weights)(s)
    assert make_estimator(first, N, weights=weights)(s).provenance == f"estimator:{first}"
    assert len(calls) == 2


def test_first_stage_estimate_is_not_reused_for_another_n(monkeypatch):
    calls = counting(monkeypatch, ("estimate_lp",))
    s = fresh_sample()
    make_estimator("lp", N)(s)
    two_step = make_estimator("2s-lp", N + 10)(s)
    assert calls == ["estimate_lp", "estimate_lp"]
    expected = estimators.estimate_alca(estimators.estimate_lp(fresh_sample(), N + 10))
    assert np.array_equal(two_step.values, expected.values)


def test_first_stage_estimate_is_not_reused_for_other_weights(monkeypatch, nets):
    config = DenoiserConfig(input_size=MODEL.p, num_blocks=1, num_filters=2, kernel=3,
                            batch_size=4, epochs=1, seed=7, mode="covariance")
    other, _ = train(config, build_training_set_simulation(MODEL, N, 6, 7, mode="covariance"))
    calls = counting(monkeypatch, ("estimate_cnn",))
    s = fresh_sample()
    first = make_estimator("2s-cnn", N, weights=nets["covariance"])(s)
    two_step = make_estimator("2s-cnn", N, weights=other)(s)
    assert calls == ["estimate_cnn", "estimate_cnn"]
    assert not np.array_equal(first.values, two_step.values)
    expected = estimators.estimate_alca(estimators.estimate_cnn(fresh_sample(), other))
    assert np.array_equal(two_step.values, expected.values)
