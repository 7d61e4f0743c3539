import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import covdenoise.denoiser as denoiser
from covdenoise import ModelKind, ModelSpec, _blas, run_monte_carlo
from covdenoise._blas import single_blas_thread
from covdenoise.denoiser import DenoiserConfig

SRC = Path(__file__).resolve().parents[1] / "src"
CONTROL = _blas._lookup()
needs_control = pytest.mark.skipif(
    CONTROL is None, reason="no OpenBLAS thread control found in this NumPy's BLAS"
)
HOST_COUNT = 3


def _count() -> int:
    return CONTROL[0]()


@pytest.fixture
def host_count():
    # a count above 1, so that a missing restore shows whatever the host's default
    before = _count()
    CONTROL[1](HOST_COUNT)
    yield HOST_COUNT
    CONTROL[1](before)


@needs_control
def test_restores_the_count_after_normal_exit_and_after_an_exception(host_count):
    with single_blas_thread():
        assert _count() == 1
        with single_blas_thread():
            assert _count() == 1
        assert _count() == 1
    assert _count() == host_count
    with pytest.raises(RuntimeError, match="inside"):
        with single_blas_thread():
            raise RuntimeError("inside")
    assert _count() == host_count


@needs_control
def test_two_threads_entering_together_leave_the_count_restored(host_count):
    both_inside = threading.Barrier(2, timeout=10)
    seen = []

    def enter():
        with single_blas_thread():
            both_inside.wait()
            seen.append(_count())
            both_inside.wait()

    workers = [threading.Thread(target=enter) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
    assert not any(worker.is_alive() for worker in workers)
    assert seen == [1, 1]
    assert _count() == host_count


@needs_control
def test_many_threads_entering_and_leaving_never_see_an_unpinned_count(host_count):
    # more threads than cores, switching often: a lost update of the depth
    # would restore the count while another thread is still inside
    unpinned = []

    def churn():
        for _ in range(200):
            with single_blas_thread():
                if _count() != 1:
                    unpinned.append(_count())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert unpinned == []
    assert _count() == host_count


def test_importing_the_package_resolves_nothing():
    code = (
        "import covdenoise, covdenoise.cli, covdenoise.evaluation\n"
        "from covdenoise import _blas\n"
        "print(_blas._lookup.cache_info().misses)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "0"


@needs_control
@pytest.mark.parametrize("threads", [1, 2])
def test_realizations_run_pinned_and_the_count_is_restored(host_count, monkeypatch, threads):
    import covdenoise.evaluation as evaluation

    seen = []
    real_sample = evaluation.sample_covariance

    def recording_sample(*args, **kwargs):
        seen.append(_count())
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(evaluation, "sample_covariance", recording_sample)
    spec = ModelSpec(kind=ModelKind.NESTED, p=8, gamma=0.2)
    run_monte_carlo(spec, 15, 4, ["naive", "lp"], seed=2, threads=threads)
    assert seen == [1] * 4
    assert _count() == host_count


@needs_control
def test_harness_training_runs_at_the_host_count(host_count, monkeypatch):
    seen = []
    real_train = denoiser.train

    def recording_train(*args, **kwargs):
        seen.append(_count())
        return real_train(*args, **kwargs)

    monkeypatch.setattr(denoiser, "train", recording_train)
    spec = ModelSpec(kind=ModelKind.BLOCK, p=8, block_sizes=(4, 4), gamma=0.3)
    config = DenoiserConfig(input_size=8, num_blocks=1, num_filters=2, kernel=3, seed=4,
                            batch_size=4, epochs=1)
    report = run_monte_carlo(spec, 24, 2, ["naive", "cnn"], seed=6, denoiser_config=config,
                             train_count=4)
    assert seen == [host_count]
    assert report.rows["cnn"].failures == 0
    assert _count() == host_count


@pytest.mark.parametrize(
    "paths,why",
    [([], "no OpenBLAS is loaded"), (["/nonexistent/libopenblas.so"], "no thread control in")],
)
def test_lookup_without_a_thread_control_logs_why_and_returns_none(
    monkeypatch, caplog, paths, why
):
    monkeypatch.setattr(_blas, "_openblas_paths", lambda: paths)
    with caplog.at_level(logging.DEBUG, logger=_blas.__name__):
        assert _blas._lookup.__wrapped__() is None
    assert [record.levelno for record in caplog.records] == [logging.DEBUG]
    assert why in caplog.records[0].getMessage()


def test_reports_are_identical_when_no_thread_control_is_found(monkeypatch):
    spec = ModelSpec(kind=ModelKind.POWERLAW, p=10, alpha=1.0, seed=3)
    args = (spec, 20, 4, ["naive", "lp", "alca", "2s-lp"])
    found = run_monte_carlo(*args, seed=7, threads=2)
    monkeypatch.setattr(_blas, "_openblas_paths", lambda: [])
    monkeypatch.setattr(_blas, "_lookup", _blas._lookup.__wrapped__)
    missing = run_monte_carlo(*args, seed=7, threads=2)
    assert missing.to_json_text() == found.to_json_text()
    assert missing.to_csv_text() == found.to_csv_text()


@needs_control
def test_simulate_reports_do_not_depend_on_the_hosts_blas_threads(tmp_path):
    # at m=2 the parent's report already differed between the two settings
    args = ["simulate", "--model", "block", "--n", "200", "--m", "2",
            "--estimators", "naive,lp", "--seed", "0"]
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    outputs = []
    for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "covdenoise.cli", *args, "--out-dir", str(out)],
            env={**env, **extra}, capture_output=True, timeout=120, check=True,
        )
        outputs.append([(out / file).read_bytes() for file in ("report.csv", "report.json")])
    assert outputs[0] == outputs[1]
