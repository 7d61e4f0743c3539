import ctypes
import datetime
import json
import logging
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from covdenoise import ModelKind, ModelSpec, ReturnsPanel, _blas, run_monte_carlo, write_returns
from covdenoise._blas import single_blas_thread
from covdenoise.denoiser import DenoiserConfig, training

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
    with single_blas_thread() as outer:
        assert _count() == 1
        with single_blas_thread() as inner:
            assert _count() == 1
        assert _count() == 1
    # both entries yield the host's count, saved by the outer one
    assert outer == inner == host_count
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
    # _lookup resolves the thread control and cblas_dgemm together, so no miss
    # means neither was looked up
    code = (
        "import covdenoise, covdenoise.cli, covdenoise.evaluation, covdenoise.denoiser.ops\n"
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


def _recording(seen, name, real):
    def record(*args, **kwargs):
        seen[name].append(_count())
        return real(*args, **kwargs)
    return record


@needs_control
def test_harness_training_runs_its_samples_pinned(host_count, monkeypatch):
    seen = {"sample": []}
    monkeypatch.setattr(training, "loss_and_gradients",
                        _recording(seen, "sample", training.loss_and_gradients))
    spec = ModelSpec(kind=ModelKind.BLOCK, p=8, block_sizes=(4, 4), gamma=0.3)
    config = DenoiserConfig(input_size=8, num_blocks=1, num_filters=2, kernel=3, seed=4,
                            batch_size=4, epochs=1)
    report = run_monte_carlo(spec, 24, 2, ["naive", "cnn"], seed=6, denoiser_config=config,
                             train_count=4)
    # a fifth of four samples holds none out: one batch of four
    assert seen == {"sample": [1] * 4}
    assert report.rows["cnn"].failures == 0
    assert _count() == host_count


@needs_control
def test_walk_forward_trains_allocates_and_holds_pinned(host_count, monkeypatch):
    import covdenoise.backtest as backtest

    seen = {"sample": [], "allocate": [], "hold": []}
    monkeypatch.setattr(training, "loss_and_gradients",
                        _recording(seen, "sample", training.loss_and_gradients))
    monkeypatch.setattr(backtest, "mvp_plus_weights",
                        _recording(seen, "allocate", backtest.mvp_plus_weights))
    monkeypatch.setattr(backtest, "_hold", _recording(seen, "hold", backtest._hold))
    panel = _factor_panel(1, 3, 220)
    net = DenoiserConfig(input_size=3, num_blocks=1, num_filters=2, kernel=3,
                         epochs=1, batch_size=8, seed=4)
    config = backtest.WalkForwardConfig(
        split_date=panel.dates[90], t_in=25, t_out=60, delta_t=60, estimator="2s-hybrid",
        denoiser_config=net, train_window_count=4, train_stride=2, pre_history_days=60,
    )
    backtest.walk_forward(panel, config)
    # two windows, each training on its four samples, then one hold for the walk
    assert seen == {"sample": [1] * 8, "allocate": [1] * 2, "hold": [1]}
    assert _count() == host_count


def _train_tensors(monkeypatch, pool_size):
    @contextmanager
    def yielding_pool_size():
        with single_blas_thread():
            yield pool_size

    monkeypatch.setattr(training, "single_blas_thread", yielding_pool_size)
    spec = ModelSpec(kind=ModelKind.BLOCK, p=10, block_sizes=(5, 5), gamma=0.3)
    data = training.build_training_set_simulation(spec, 30, 9, seed=2)
    config = DenoiserConfig(input_size=10, num_blocks=1, num_filters=4, kernel=3, seed=1,
                            batch_size=4, epochs=2)
    weights, history = training.train(config, data)
    return [t.tobytes() for t in weights.tensors()], history


def test_trained_bits_do_not_depend_on_the_pool_size(monkeypatch):
    one = _train_tensors(monkeypatch, 1)
    assert _train_tensors(monkeypatch, 3) == one


@needs_control
def test_training_writes_the_same_loss_curve_whatever_the_hosts_blas_threads(tmp_path):
    # while a batch's kernel gradients were one long contraction, OpenBLAS
    # split it across its threads and the two curves differed
    args = ["train", "--source", "simulation", "--model", "block", "--block-sizes", "10,10,20",
            "--n", "80", "--count", "8", "--net-blocks", "2", "--filters", "32",
            "--batch-size", "4", "--epochs", "2", "--seed", "1"]
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    curves = []
    for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        out.mkdir()
        subprocess.run(
            [sys.executable, "-m", "covdenoise.cli", *args,
             "--weights-out", str(out / "w.cdnw"), "--loss-curve-out", str(out / "loss.csv")],
            env={**env, **extra}, capture_output=True, timeout=120, check=True,
        )
        curves.append((out / "loss.csv").read_bytes())
    assert curves[0] == curves[1]


def _not_loaded(path, mode):
    """A ``ctypes.CDLL`` for a process where NumPy's linalg module is not loaded."""
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [lambda path, mode: SimpleNamespace(), _not_loaded],
                         ids=["no symbols", "not loaded"])
def test_lookup_without_a_thread_control_logs_why_and_returns_none(monkeypatch, caplog, cdll):
    monkeypatch.setattr(_blas.ctypes, "CDLL", cdll)
    with caplog.at_level(logging.DEBUG, logger=_blas.__name__):
        assert _blas._lookup.__wrapped__() is None
    assert [record.levelno for record in caplog.records] == [logging.DEBUG]
    assert "no OpenBLAS thread control" in caplog.records[0].getMessage()


# Loads a copy of NumPy's OpenBLAS before the package looks one up, then
# prints, for each symbol bound, its address and the address NumPy's linalg
# module resolves for the same name, and NumPy's own thread count before,
# inside and after single_blas_thread.
_SECOND_OPENBLAS = """
import ctypes, json, os, shutil, sys
from numpy.linalg import _umath_linalg
ctypes.CDLL(shutil.copy(sys.argv[1], sys.argv[2]))
from covdenoise import _blas
numpy_linalg = ctypes.CDLL(_umath_linalg.__file__, mode=os.RTLD_NOLOAD)
found = _blas._lookup()
address = lambda function: ctypes.cast(function, ctypes.c_void_p).value
pairs = [(address(bound), address(getattr(numpy_linalg, bound.__name__)))
         for bound in found[:4]]
count = getattr(numpy_linalg, found.get_threads.__name__)
count.restype = ctypes.c_int
host = count()
with _blas.single_blas_thread():
    inside = count()
print(json.dumps({"pairs": pairs, "host": host, "inside": inside, "after": count()}))
"""


def test_the_binding_is_numpys_whatever_other_openblas_is_loaded(tmp_path):
    # while the package bound the first OpenBLAS mapped into the process, a
    # second one (here a copy of NumPy's, as SciPy's would be) could be
    # bound instead, and NumPy's own count stayed at 2 inside the block
    shipped = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*"))
    if not shipped:
        pytest.skip("no OpenBLAS file ships with this NumPy")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="2")
    result = subprocess.run(
        [sys.executable, "-c", _SECOND_OPENBLAS, str(shipped[0]), str(tmp_path / shipped[0].name)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    seen = json.loads(result.stdout)
    if seen["host"] == 1:
        pytest.skip("NumPy's OpenBLAS runs one thread on this host")
    bound, numpy = zip(*seen["pairs"])
    assert bound == numpy
    assert (seen["inside"], seen["after"]) == (1, seen["host"])


def _conv_digest(first_import):
    code = (f"import {first_import}, hashlib, sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_blas import _conv_bytes\n"
            "print(hashlib.sha256(b''.join(_conv_bytes())).hexdigest())\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True).stdout


def test_convolutions_give_the_same_bytes_with_scipys_openblas_loaded_first():
    pytest.importorskip("scipy.linalg")
    assert _conv_digest("scipy.linalg") == _conv_digest("numpy")


def test_without_a_thread_control_the_block_yields_one_pool_thread(monkeypatch):
    monkeypatch.setattr(_blas, "_lookup", lambda: None)
    with single_blas_thread() as pool_size:
        assert pool_size == 1


def test_reports_are_identical_when_no_thread_control_is_found(monkeypatch):
    spec = ModelSpec(kind=ModelKind.POWERLAW, p=10, alpha=1.0, seed=3)
    args = (spec, 20, 4, ["naive", "lp", "alca", "2s-lp"])
    found = run_monte_carlo(*args, seed=7, threads=2)
    monkeypatch.setattr(_blas.ctypes, "CDLL", _not_loaded)
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


def _factor_panel(seed: int, p: int, days: int) -> ReturnsPanel:
    """Positively correlated daily log returns: market and sector factors plus t noise."""
    rng = np.random.default_rng(seed)
    market = 0.035 * rng.standard_t(4, days) / np.sqrt(2.0)
    sectors = 0.02 * rng.standard_t(4, (8, days)) / np.sqrt(2.0)
    values = (rng.uniform(0.6, 1.4, (p, 1)) * market
              + rng.uniform(0.3, 0.9, (p, 1)) * sectors[rng.integers(0, 8, p)]
              + rng.uniform(0.02, 0.06, (p, 1)) * rng.standard_t(3, (p, days)) / np.sqrt(3.0))
    start = datetime.date(2020, 1, 1)
    dates = tuple((start + datetime.timedelta(days=day)).isoformat() for day in range(days))
    return ReturnsPanel(dates, tuple(f"S{asset:03d}" for asset in range(p)), values)


@needs_control
@pytest.mark.parametrize("estimator", ["naive", "2s-lp"])
def test_backtest_reports_do_not_depend_on_the_hosts_blas_threads(tmp_path, estimator):
    # ten weekly rebalances of 99 assets on 182-day windows; with the host's
    # threads every report file of the walk-forward loop changed between the two settings
    panel = _factor_panel(0, 99, 182 + 10 * 7)
    returns = tmp_path / "returns.csv"
    write_returns(panel, returns)
    args = ["backtest", "--returns", str(returns), "--split-date", panel.dates[182],
            "--t-in", "182", "--t-out", "7", "--delta-t", "7", "--estimator", estimator]
    files = ("metrics.json", "weights.csv", "daily_returns.csv", "wealth.csv", "diagnostics.json")
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
        outputs.append([(out / file).read_bytes() for file in files])
    assert outputs[0] == outputs[1]


needs_gemm = pytest.mark.skipif(CONTROL is None, reason="no OpenBLAS found in this NumPy's BLAS")


def _grid_operands(rng, rows, inner, size, offset):
    """A contiguous (rows, inner) factor, an (inner, size) column slice of a wider
    grid at ``offset``, and an (rows, size) body slice of an output grid."""
    a = rng.standard_normal((rows, inner))
    grid = rng.standard_normal((inner, size + 2 * offset + 3))
    out_grid = rng.standard_normal((rows, size + 2 * offset + 3))
    return out_grid[:, offset + 1:offset + 1 + size], a, grid[:, offset:offset + size]


@needs_gemm
@pytest.mark.parametrize("rows,inner,size,offset",
                         [(64, 64, 500, 11), (7, 5, 33, 0), (2, 3, 10, 4), (16, 2, 2, 2),
                          (3, 200, 97, 5)])
def test_add_matmul_gives_the_bytes_of_out_plus_equals_a_matmul_b(rows, inner, size, offset):
    out, a, b = _grid_operands(np.random.default_rng(rows), rows, inner, size, offset)
    expected = out.copy()
    expected += a @ b
    _blas.add_matmul(out, a, b)
    assert out.tobytes() == expected.tobytes()


@needs_gemm
def test_the_gemm_integer_type_follows_the_resolved_symbol():
    gemm = CONTROL.gemm
    suffix = "64_" if gemm.__name__.endswith("64_") else ""
    assert gemm.__name__ in (f"scipy_cblas_dgemm{suffix}", f"cblas_dgemm{suffix}")
    assert CONTROL.get_threads.__name__.endswith(suffix)
    index = ctypes.c_int64 if suffix else ctypes.c_int
    assert [gemm.argtypes[i] for i in (3, 4, 5, 8, 10, 13)] == [index] * 6


def _lookup_in(monkeypatch, *names):
    """What _lookup finds in a stand-in OpenBLAS that exports ``names``, each
    recording its calls in the returned list."""
    calls = []

    def export(name):
        def function(*args):
            calls.append((name, args))
        function.__name__ = name
        return function

    library = SimpleNamespace(**{name: export(name) for name in names})
    monkeypatch.setattr(_blas.ctypes, "CDLL", lambda path, mode: library)
    return _blas._lookup.__wrapped__(), calls


def _exports(gemm_name, skip=None):
    """The thread control, cblas_dgemm and dsyevd of the build that spells its
    gemm ``gemm_name``, less the ``skip`` symbol."""
    stems = ("openblas_get_num_threads", "openblas_set_num_threads", "cblas_dgemm", "dsyevd_")
    return [gemm_name.replace("cblas_dgemm", stem) for stem in stems if stem != skip]


@pytest.mark.parametrize("name,index", [("scipy_cblas_dgemm64_", ctypes.c_int64),
                                        ("cblas_dgemm64_", ctypes.c_int64),
                                        ("scipy_cblas_dgemm", ctypes.c_int),
                                        ("cblas_dgemm", ctypes.c_int)])
def test_each_gemm_spelling_gets_the_integer_type_of_its_name(monkeypatch, name, index):
    found, _ = _lookup_in(monkeypatch, *_exports(name))
    gemm = found.gemm
    assert gemm.__name__ == name
    assert [gemm.argtypes[i] for i in (3, 4, 5, 8, 10, 13)] == [index] * 6
    assert gemm.argtypes[6] is gemm.argtypes[11] is ctypes.c_double
    # the same width sizes dsyevd's integer arrays
    assert found.dsyevd.__name__ == _exports(name)[3]
    assert np.ctypeslib.as_ctypes_type(found.integer) is index
    assert found.get_threads.restype is ctypes.c_int
    assert found.set_threads.argtypes == [ctypes.c_int]


def test_a_library_without_the_gemm_symbol_leaves_add_matmul_to_numpy(monkeypatch, caplog):
    # all or none: the thread control and dsyevd found beside it are not bound either
    with caplog.at_level(logging.DEBUG, logger=_blas.__name__):
        found, calls = _lookup_in(monkeypatch, *_exports("cblas_dgemm", skip="cblas_dgemm"))
    assert found is None
    assert [record.getMessage() for record in caplog.records] == [
        "no cblas_dgemm beside openblas_get_num_threads: nothing bound, NumPy does the work"]
    monkeypatch.setattr(_blas, "_lookup", lambda: found)
    out, a, b = np.zeros((2, 2)), np.eye(2), np.full((2, 2), 3.0)
    _blas.add_matmul(out, a, b)
    assert out.tolist() == [[3.0, 3.0], [3.0, 3.0]]
    assert calls == []


def test_sizes_past_a_32_bit_gemm_are_refused_before_the_call(monkeypatch):
    found, calls = _lookup_in(monkeypatch, *_exports("cblas_dgemm"))
    monkeypatch.setattr(_blas, "_lookup", lambda: found)
    base = np.zeros(2)
    # rows 2**31 elements apart: never read, since the call is refused first
    b = np.lib.stride_tricks.as_strided(base, shape=(2, 1), strides=(8 * 2**31, 8))
    with pytest.raises(ValueError, match="cblas_dgemm's integer range"):
        _blas.add_matmul(np.zeros((3, 1)), np.ones((3, 2)), b)
    assert calls == []


def _layout_cases():
    rng = np.random.default_rng(5)
    out, a, b = _grid_operands(rng, 4, 3, 6, 2)
    grid = rng.standard_normal((4, 12))
    read_only = np.zeros((4, 6))
    read_only.flags.writeable = False
    return {
        "shapes": ((np.zeros((4, 5)), a, b), "cannot add"),
        "float32": ((out, a.astype(np.float32), b), "a is not"),
        "column stride": ((out, a, grid[:3, ::2]), "b is not"),
        "transposed": ((out, np.asfortranarray(a), b), "a is not"),
        "row stride below width": ((out, a, np.lib.stride_tricks.as_strided(
            b, shape=(3, 6), strides=(8 * 2, 8))), "b is not"),
        "empty": ((np.zeros((4, 0)), a, np.zeros((3, 0))), "out is not"),
        "read-only": ((read_only, a, b), "read-only"),
        "out overlaps b": ((grid[:3, 1:7], rng.standard_normal((3, 4)), grid[:, :6]), "overlaps"),
    }


@pytest.mark.parametrize("no_blas", [False, True], ids=["blas", "numpy"])
@pytest.mark.parametrize("case", ["shapes", "float32", "column stride", "transposed",
                                  "row stride below width", "empty", "read-only",
                                  "out overlaps b"])
def test_layouts_blas_cannot_take_are_refused_whichever_blas_is_loaded(
    monkeypatch, no_blas, case
):
    (out, a, b), message = _layout_cases()[case]
    if no_blas:
        monkeypatch.setattr(_blas, "_lookup", lambda: None)
    before = out.copy()
    with pytest.raises(ValueError, match=message):
        _blas.add_matmul(out, a, b)
    assert out.tobytes() == before.tobytes()


def _conv_bytes():
    from covdenoise.denoiser import conv2d_backward, conv2d_same, init_weights, loss_and_gradients

    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 6, 9, 9))
    kernel = rng.standard_normal((5, 6, 3, 3))
    y = conv2d_same(x, kernel, rng.standard_normal(5))
    grads = conv2d_backward(rng.standard_normal(y.shape), x, kernel)
    config = DenoiserConfig(input_size=9, num_blocks=2, num_filters=6, kernel=5, seed=3,
                            mode="eigenvectors")
    inputs = rng.standard_normal((4, 1, 9, 9))
    loss, step = loss_and_gradients(init_weights(config), inputs, rng.standard_normal(inputs.shape))
    return [y.tobytes(), *(g.tobytes() for g in grads), np.float64(loss).tobytes(),
            *(g.tobytes() for g in step)]


@needs_gemm
def test_convolutions_give_the_same_bytes_without_a_loaded_gemm(monkeypatch):
    with_blas = _conv_bytes()
    monkeypatch.setattr(_blas.ctypes, "CDLL", _not_loaded)
    monkeypatch.setattr(_blas, "_lookup", _blas._lookup.__wrapped__)
    assert _blas._lookup() is None
    assert _conv_bytes() == with_blas
