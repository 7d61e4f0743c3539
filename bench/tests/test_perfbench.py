"""The benchmark's own tests, at tiny input sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import results  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*options: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *options], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "0", "--seconds", "0.2", "--trace", trace,
                 "--tiny")
    assert done.returncode == 0, done.stderr
    printed = last_json(done.stdout)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] is True
    assert printed["attempted"] >= 1 and printed["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in printed["metrics"].items()
    }
    assert all(np.isfinite(m["value"]) for m in printed["metrics"].values())
    for name in ("failed_ratio", "result_drift"):
        assert name in done.stdout
    if trace == "1" and workload != "train-denoiser":
        denoiser_calls = [m["value"] for name, m in printed["metrics"].items()
                          if name.startswith("denoiser.") and name.endswith(".calls_per_unit")]
        assert denoiser_calls and not any(denoiser_calls)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_result_digests(workload):
    digests = []
    for seed in (3, 3, 4):
        with tempfile.TemporaryDirectory() as tmp:
            inputs = WORKLOADS[workload].setup(seed, Path(tmp), True)
            digests.append(results.digest(WORKLOADS[workload].job(inputs, Path(tmp)).results))
    assert digests[0] == digests[1] != digests[2]


def test_missing_span_is_reported_not_fatal():
    import covdenoise.evaluation as evaluation

    specs = {
        "evaluation.frobenius_loss": tracing.SpanSpec("covdenoise.evaluation:frobenius_loss"),
        "ghost.function": tracing.SpanSpec("covdenoise.evaluation:no_such_function"),
        "ghost.module": tracing.SpanSpec("covdenoise.no_such_module:anything"),
    }
    original = evaluation.frobenius_loss
    tracer = tracing.Tracer(specs)
    tracer.install()
    try:
        assert evaluation.frobenius_loss is not original
        evaluation.frobenius_loss(np.eye(3), np.eye(3))
    finally:
        tracer.uninstall()
    assert evaluation.frobenius_loss is original
    assert tracer.missing == ["ghost.function", "ghost.module"]
    metrics = tracing.layer_metrics(tracer.spans, 1, specs, tracer.missing)
    assert metrics["evaluation.frobenius_loss.calls_per_unit"] == 1.0
    assert not any(name.startswith("ghost.") for name in metrics)


def test_self_time_subtracts_children_on_the_same_thread_only():
    span = tracing.Span
    spans = [
        span(0, "a", 0.0, 10.0, None, 1, 0, False, None),
        span(1, "b", 1.0, 4.0, 0, 1, 0, False, None),
        span(2, "b", 2.0, 9.0, 0, 2, 0, False, None),  # pool worker: other thread
    ]
    specs = {"a": tracing.SpanSpec("x:a"), "b": tracing.SpanSpec("x:b")}
    metrics = tracing.layer_metrics(spans, 2, specs, [])
    assert metrics["a.self_ms_per_unit"] == pytest.approx(1e3 * 7.0 / 2)
    assert metrics["b.self_ms_per_unit"] == pytest.approx(1e3 * 10.0 / 2)
    assert metrics["b.calls_per_unit"] == 1.0


def test_compare_reports_drift_and_loud_problems():
    reference = {"x": np.array([1.0, np.nan, 0.0]), "y": np.array([2.0])}
    assert results.compare({"x": np.array([1.0, np.nan, 0.0]), "y": np.array([2.0])},
                           reference) == (0.0, [])
    drift, problems = results.compare({"x": np.array([1.1, np.nan, 0.0]), "y": np.array([2.0])},
                                      reference)
    assert drift == pytest.approx(0.1) and problems == []
    drift, problems = results.compare({"x": np.array([np.nan, np.nan, 0.0])}, reference)
    assert any("non-finite" in p for p in problems)
    assert any("keys differ" in p for p in problems)
    _, problems = results.compare({"x": np.zeros(2), "y": np.array([2.0])}, reference)
    assert any("shape" in p for p in problems)
    drift, _ = results.compare({"x": np.array([1.0, 5.0, 0.0]), "y": np.array([2.0])}, reference)
    assert drift == float("inf")


def test_seed_without_reference_reports_drift_as_missing():
    assert not results.reference_path("mc-block", 99).exists()
    same = [{"rows.naive": np.array([1.0, 2.0])}] * 2
    assert worker.check("mc-block", 99, False, same) == (None, [])
    differing = same[:1] + [{"rows.naive": np.array([1.0, 3.0])}]
    drift, problems = worker.check("mc-block", 99, False, differing)
    assert drift is None and any("disagree" in p for p in problems)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_committed_reference_is_checked(workload):
    reference = results.load_reference(workload, 0)
    assert reference is not None
    assert worker.check(workload, 0, False, [reference]) == (0.0, [])
    changed = {key: value.copy() for key, value in reference.items()}
    key = next(k for k, v in changed.items() if np.isfinite(v).any() and np.abs(v).max() > 0)
    changed[key].flat[np.nanargmax(np.abs(changed[key]))] *= 1.5
    drift, problems = worker.check(workload, 0, False, [reference, changed])
    assert drift == pytest.approx(0.5, rel=1e-6)
    assert any("exceeds" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "mc-block", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
