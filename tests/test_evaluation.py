import json
import threading

import numpy as np
import pytest

import covdenoise.evaluation as evaluation
import covdenoise.spectral as spectral
from covdenoise import (
    CovarianceMatrix,
    ModelKind,
    ModelSpec,
    ParameterError,
    frobenius_loss,
    make_estimator,
    mv_loss,
    run_monte_carlo,
    sample_covariance,
)
from covdenoise.errors import SingularMatrixError
from covdenoise.randomness import STREAM_REALIZATION, child_seed
from conftest import count_decompositions, random_psd, reference_mv_loss


@pytest.mark.parametrize("threads", [1, 2])
def test_a_run_computes_the_sampling_root_once(monkeypatch, threads):
    import covdenoise.models as models

    # in the models module only the square root symmetrizes a block model
    calls = []
    real = models.symmetrize
    monkeypatch.setattr(models, "symmetrize", lambda values: calls.append(1) or real(values))
    spec = ModelSpec(kind=ModelKind.BLOCK, p=6, block_sizes=(3, 3), gamma=0.3)
    run_monte_carlo(spec, n=20, m=5, estimators=["naive", "lp"], seed=3, threads=threads)
    assert len(calls) == 1


def test_frobenius_zero_iff_equal(rng):
    for _ in range(5):
        sigma = random_psd(rng, 6)
        assert frobenius_loss(sigma, sigma) == 0.0
        bumped = sigma + np.eye(6) * 1e-9
        assert frobenius_loss(bumped, sigma) > 0.0


def test_frobenius_identity_shift():
    sigma = random_psd(np.random.default_rng(0), 4)
    assert np.isclose(frobenius_loss(sigma + np.eye(4), sigma), 1.0)


def test_frobenius_symmetric_in_arguments(rng):
    a, b = random_psd(rng, 5), random_psd(rng, 5)
    assert np.isclose(frobenius_loss(a, b), frobenius_loss(b, a))


def test_frobenius_dimension_mismatch():
    with pytest.raises(ParameterError):
        frobenius_loss(np.eye(3), np.eye(4))


def test_mv_zero_at_truth(rng):
    for _ in range(5):
        sigma = random_psd(rng, 5)
        assert abs(mv_loss(sigma, sigma)) <= 1e-12


def test_mv_scalar_case_is_identically_zero(rng):
    for _ in range(10):
        xi = float(rng.uniform(0.1, 5.0))
        sigma = float(rng.uniform(0.1, 5.0))
        assert abs(mv_loss(np.array([[xi]]), np.array([[sigma]]))) <= 1e-12


def test_mv_is_asymmetric(rng):
    a, b = random_psd(rng, 6), random_psd(rng, 6)
    assert abs(mv_loss(a, b) - mv_loss(b, a)) > 1e-10


def test_mv_singular_population_raises(rng):
    singular = np.diag([1.0, 0.0])
    with pytest.raises(SingularMatrixError, match="sigma"):
        mv_loss(np.eye(2), singular)
    ones = CovarianceMatrix(np.ones((2, 2)), "model-1")
    with pytest.raises(SingularMatrixError, match="sigma"):
        mv_loss(np.eye(2), ones)
    assert "mv_loss" not in ones._cache


def _relative(value, reference, scale=None):
    return abs(value - reference) / abs(reference if scale is None else scale)


@pytest.mark.parametrize("p", [1, 5, 100, 200])
def test_mv_loss_matches_the_product_of_inverses(rng, p):
    for _ in range(3):
        sigma = CovarianceMatrix(random_psd(rng, p, scale_spread=1.0), "model-1")
        xi = CovarianceMatrix(random_psd(rng, p, scale_spread=0.5), "estimator:lp")
        expected = reference_mv_loss(xi, sigma)
        # at p = 1 the loss vanishes identically: measure against Xi's scale
        scale = float(xi.values[0, 0]) if p == 1 else None
        assert _relative(mv_loss(xi, sigma), expected, scale) <= 1e-12
        assert _relative(mv_loss(xi.values, sigma.values),
                         reference_mv_loss(xi.values, sigma.values), scale) <= 1e-12


def test_mv_loss_matches_the_product_of_inverses_where_the_floor_binds(rng):
    sigma = CovarianceMatrix(random_psd(rng, 40), "model-1")
    for seed in range(3):
        sample = sample_covariance(sigma, 12, seed).sample
        # p > n: 28 eigenvalues of the sample lie at or below the floor
        assert np.sum(sample.eigenvalues <= 1e-12 * sample.eigenvalues[-1]) >= 28
        expected = reference_mv_loss(sample, sigma)
        assert _relative(mv_loss(sample, sigma), expected) <= 1e-12
        assert _relative(mv_loss(sample.values, sigma.values), expected) <= 1e-12


def test_mv_loss_of_a_retagged_sample_reads_the_shared_eigenvalues(rng, monkeypatch):
    sigma = CovarianceMatrix(random_psd(rng, 8), "model-1")
    sample = sample_covariance(sigma, 20, 3).sample
    tagged = sample.retagged("estimator:naive")
    assert tagged.eigenvalues is sample.eigenvalues
    assert not tagged.eigenvalues.flags.writeable
    expected = reference_mv_loss(sample, sigma)

    def no_lapack(*args, **kwargs):
        raise AssertionError("mv_loss decomposed a validated matrix again")

    monkeypatch.setattr(np.linalg, "eigh", no_lapack)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
    monkeypatch.setattr(spectral, "symmetric_eigenvalues", no_lapack)
    assert mv_loss(tagged, sigma) == mv_loss(sample, sigma)
    assert _relative(mv_loss(tagged, sigma), expected) <= 1e-12


def test_mv_loss_caches_the_population_inverse_beside_the_spectrum(rng):
    sigma = CovarianceMatrix(random_psd(rng, 6), "model-1")
    xi = random_psd(rng, 6)
    first = mv_loss(xi, sigma)
    inverse_square, trace = sigma._cache["mv_loss"]
    assert list(sigma._cache) == ["spectrum", "mv_loss"]
    assert not inverse_square.flags.writeable
    eigenvalues, vectors = np.linalg.eigh(sigma.values)
    assert np.allclose(inverse_square, (vectors / eigenvalues**2) @ vectors.T, rtol=1e-12)
    assert np.isclose(trace, np.sum(1.0 / eigenvalues), rtol=1e-12)
    assert mv_loss(xi, sigma.retagged("model-2")) == first
    assert sigma.retagged("model-2")._cache["mv_loss"][0] is inverse_square


def test_mv_floors_near_singular_estimate(rng):
    sigma = random_psd(rng, 4)
    xi = sigma.copy()
    eigenvalues, vectors = np.linalg.eigh(xi)
    eigenvalues[0] = 0.0  # rank-deficient estimate
    xi = (vectors * eigenvalues) @ vectors.T
    value = mv_loss(xi, sigma)
    assert np.isfinite(value)


def test_monte_carlo_single_realization_mean():
    spec = ModelSpec(kind=ModelKind.BLOCK, p=6, block_sizes=(3, 3), gamma=0.2)
    report = run_monte_carlo(spec, 20, 1, ["naive"], seed=5)
    sigma = spec.build()
    draw = sample_covariance(sigma, 20, child_seed(5, STREAM_REALIZATION, 0))
    assert report.rows["naive"].mean_f == frobenius_loss(draw.sample, sigma)
    assert report.rows["naive"].se_f == 0.0


def test_monte_carlo_reproducible_and_thread_invariant():
    spec = ModelSpec(kind=ModelKind.NESTED, p=8, gamma=0.2)
    first = run_monte_carlo(spec, 15, 6, ["naive", "lp"], seed=9)
    second = run_monte_carlo(spec, 15, 6, ["naive", "lp"], seed=9)
    threaded = run_monte_carlo(spec, 15, 6, ["naive", "lp"], seed=9, threads=3)
    assert first.rows == second.rows == threaded.rows


def test_monte_carlo_requires_denoiser_config():
    spec = ModelSpec(kind=ModelKind.NESTED, p=5, gamma=0.2)
    with pytest.raises(ParameterError):
        run_monte_carlo(spec, 10, 2, ["cnn"], seed=1)


def test_monte_carlo_counts_estimator_failures(monkeypatch):
    spec = ModelSpec(kind=ModelKind.NESTED, p=5, gamma=0.2)
    real_make = evaluation.make_estimator

    def flaky_make(name, n, **kwargs):
        inner = real_make(name, n, **kwargs)
        calls = {"count": 0}

        def wrapped(s):
            calls["count"] += 1
            if name == "lp" and calls["count"] % 2 == 0:
                raise ParameterError("synthetic failure")
            return inner(s)

        return wrapped

    monkeypatch.setattr(evaluation, "make_estimator", flaky_make)
    report = run_monte_carlo(spec, 12, 6, ["naive", "lp"], seed=3)
    assert report.rows["naive"].failures == 0
    assert report.rows["lp"].failures == 3
    assert np.isfinite(report.rows["lp"].mean_f)


def test_report_serializations():
    spec = ModelSpec(kind=ModelKind.BLOCK, p=4, block_sizes=(2, 2), gamma=0.1)
    report = run_monte_carlo(spec, 10, 3, ["naive", "alca"], seed=8)
    csv_lines = report.to_csv_text().strip().splitlines()
    assert csv_lines[0] == "estimator,mean_f,se_f,mean_mv,se_mv,failures"
    assert len(csv_lines) == 3
    assert csv_lines[1].startswith("naive,")
    payload = json.loads(report.to_json_text())
    assert payload["model"]["kind"] == "block"
    assert payload["m"] == 3 and payload["seed"] == 8
    assert set(payload["rows"]) == {"naive", "alca"}


def test_monte_carlo_trains_cnn_once_and_runs():
    spec = ModelSpec(kind=ModelKind.BLOCK, p=8, block_sizes=(4, 4), gamma=0.3)
    from covdenoise.denoiser import DenoiserConfig

    config = DenoiserConfig(
        input_size=8, num_blocks=1, num_filters=4, kernel=3, seed=4,
        batch_size=4, epochs=2, mode="covariance",
    )
    report = run_monte_carlo(
        spec, 24, 3, ["naive", "cnn", "hybrid", "2s-cnn", "2s-hybrid"],
        seed=6, denoiser_config=config, train_count=8,
    )
    for name in report.estimators:
        row = report.rows[name]
        assert row.failures == 0
        assert np.isfinite(row.mean_f) and np.isfinite(row.mean_mv)


def test_monte_carlo_decomposes_sigma_once_and_each_sample_once(monkeypatch):
    counts = count_decompositions(monkeypatch)
    spec = ModelSpec(kind=ModelKind.BLOCK, p=12, block_sizes=(3, 4, 5), gamma=0.3)
    m = 3
    report = run_monte_carlo(spec, 30, m, ["naive", "lp", "alca", "2s-lp"], seed=4, threads=1)
    assert all(row.failures == 0 for row in report.rows.values())
    # per run: sigma once; per realization: the sample spectrum, for lp's
    # vectors (2s-lp's first stage reuses lp's estimate); the losses read
    # only eigenvalues
    assert counts["eigh"] <= 1 + m
    # per realization: validation of the sample, alca and 2s-lp's filter; lp
    # is recomposed from the sample spectrum and takes its shrunk values as
    # eigenvalues, 2s-lp reuses the lp estimate and retagging re-validates
    # nothing
    assert counts["eigvalsh"] <= 1 + 3 * m


@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_rows_match_a_loop_over_the_public_functions(threads):
    spec = ModelSpec(kind=ModelKind.POWERLAW, p=10, alpha=1.0, seed=3)
    names = ["naive", "lp", "alca", "2s-lp"]
    n, m, seed = 8, 4, 5
    report = run_monte_carlo(spec, n, m, names, seed=seed, threads=threads)
    sigma = spec.build()
    losses = {name: ([], []) for name in names}
    for index in range(m):
        draw = sample_covariance(sigma, n, child_seed(seed, STREAM_REALIZATION, index))
        for name in names:
            estimate = make_estimator(name, n)(draw.sample)
            losses[name][0].append(frobenius_loss(estimate, sigma))
            losses[name][1].append(mv_loss(estimate, sigma))
    for name in names:
        f_vals, mv_vals = np.array(losses[name][0]), np.array(losses[name][1])
        se = 1.0 / np.sqrt(m)
        expected = (
            float(f_vals.mean()), float(f_vals.std(ddof=1) * se),
            float(mv_vals.mean()), float(mv_vals.std(ddof=1) * se), 0,
        )
        row = report.rows[name]
        assert (row.mean_f, row.se_f, row.mean_mv, row.se_mv, row.failures) == expected


@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_counts_singular_population_as_failures(threads):
    # spectrum i^-10 at p=20 falls below the 1e-12 floor: samples can be
    # drawn, but no minimum-variance loss against sigma is defined
    spec = ModelSpec(kind=ModelKind.POWERLAW, p=20, alpha=10.0, seed=2)
    with pytest.raises(SingularMatrixError, match="sigma"):
        mv_loss(spec.build(), spec.build())
    report = run_monte_carlo(spec, 40, 2, ["naive", "lp"], seed=1, threads=threads)
    assert all(row.failures == 2 for row in report.rows.values())


def test_monte_carlo_builds_the_population_inverse_once_before_the_pool(monkeypatch):
    builds = []
    real = evaluation.floored_spectrum

    def recording(*args, **kwargs):
        builds.append(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "floored_spectrum", recording)
    spec = ModelSpec(kind=ModelKind.BLOCK, p=8, block_sizes=(4, 4), gamma=0.3)
    report = run_monte_carlo(spec, 20, 4, ["naive", "lp"], seed=2, threads=2)
    assert all(row.failures == 0 for row in report.rows.values())
    assert builds == [threading.main_thread()]


def test_monte_carlo_rejects_an_empty_estimator_list():
    spec = ModelSpec(kind=ModelKind.NESTED, p=5, gamma=0.2)
    with pytest.raises(ParameterError, match="no estimators given"):
        run_monte_carlo(spec, 10, 2, [], seed=1)


def test_monte_carlo_rejects_a_repeated_estimator():
    spec = ModelSpec(kind=ModelKind.NESTED, p=5, gamma=0.2)
    with pytest.raises(ParameterError, match=r"\['naive'\] are listed more than once"):
        run_monte_carlo(spec, 10, 2, ["naive", "lp", "naive"], seed=1)


@pytest.mark.parametrize("threads", [0, -1])
def test_monte_carlo_rejects_fewer_than_one_thread(threads):
    spec = ModelSpec(kind=ModelKind.NESTED, p=5, gamma=0.2)
    with pytest.raises(ParameterError, match=f"threads must be >= 1, got {threads}"):
        run_monte_carlo(spec, 10, 2, ["naive"], seed=1, threads=threads)


def test_seed_streams_are_distinct_and_the_harness_streams_keep_their_values():
    import covdenoise.randomness as randomness

    streams = [value for name, value in vars(randomness).items() if name.startswith("STREAM_")]
    assert len(set(streams)) == len(streams)
    assert evaluation._TRAINING_STREAMS == {"covariance": 10, "eigenvectors": 11}


@pytest.mark.parametrize(
    "call, message",
    [(lambda: mv_loss(np.eye(2), np.eye(3)), "dimension mismatch"),
     (lambda: run_monte_carlo(ModelSpec(kind=ModelKind.NESTED, p=3, gamma=0.3), n=10, m=0,
                              estimators=["naive"], seed=0), "m must be >= 1")],
    ids=["mv-dimension-mismatch", "no-realizations"],
)
def test_evaluation_inputs_are_rejected(call, message):
    with pytest.raises(ParameterError, match=message):
        call()
