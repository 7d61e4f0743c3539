"""Span tracer for the benchmark's traced run.

The tracer wraps the program's public functions from outside the program: each
wrapped function is replaced wherever a ``covdenoise`` module looks it up (the
defining module and every module that imported the name), and ``numpy.linalg``
functions are replaced on ``numpy.linalg``.  Spans are kept in memory as
``Span`` tuples and written out when the run ends.

A target that no longer exists is reported as missing instead of failing the
run, so moving a helper cannot break the benchmark.  A function the program
reaches through a table built at import time escapes the wrapper; such a span
shows zero calls rather than an error.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


def _conv_forward_work(x, kernel, *args, **kwargs) -> tuple[float, float]:
    """(FLOPs, im2col bytes) of a same-padded convolution, from the shapes."""
    batch, _, height, width = np.shape(x)
    out_ch, in_ch, k, _ = np.shape(kernel)
    columns = batch * in_ch * k * k * height * width
    return 2.0 * out_ch * columns, float(columns * np.asarray(x).itemsize)


def _conv_backward_work(grad_out, x, kernel, *args, **kwargs) -> tuple[float, float]:
    """Kernel-gradient and input-gradient matmuls: twice the forward FLOPs."""
    flops, col_bytes = _conv_forward_work(x, kernel)
    return 2.0 * flops, col_bytes


class SpanSpec(NamedTuple):
    target: str  # "module:attribute" or "module:Class.method"
    work: Callable[..., tuple[float, float]] | None = None


SPANS: dict[str, SpanSpec] = {
    "evaluation.run_monte_carlo": SpanSpec("covdenoise.evaluation:run_monte_carlo"),
    "evaluation.mv_loss": SpanSpec("covdenoise.evaluation:mv_loss"),
    "evaluation.frobenius_loss": SpanSpec("covdenoise.evaluation:frobenius_loss"),
    "models.sample_covariance": SpanSpec("covdenoise.models:sample_covariance"),
    "covariance.validate": SpanSpec("covdenoise.covariance:CovarianceMatrix.__post_init__"),
    "spectral.eigendecompose_sym": SpanSpec("covdenoise.spectral:eigendecompose_sym"),
    "estimators.estimate_lp": SpanSpec("covdenoise.estimators:estimate_lp"),
    "estimators.estimate_alca": SpanSpec("covdenoise.estimators:estimate_alca"),
    "estimators.shrink_eigenvalues": SpanSpec("covdenoise.estimators:shrink_eigenvalues"),
    "hierarchy.linkage": SpanSpec("covdenoise.hierarchy:linkage"),
    "hierarchy.cophenetic_matrix": SpanSpec("covdenoise.hierarchy:cophenetic_matrix"),
    "portfolio.mvp_plus_weights": SpanSpec("covdenoise.portfolio:mvp_plus_weights"),
    "portfolio.portfolio_metrics": SpanSpec("covdenoise.portfolio:portfolio_metrics"),
    "backtest.walk_forward": SpanSpec("covdenoise.backtest:walk_forward"),
    "backtest.write_report_files": SpanSpec("covdenoise.backtest:write_report_files"),
    "ingest.load_returns": SpanSpec("covdenoise.ingest:load_returns"),
    "denoiser.training.train": SpanSpec("covdenoise.denoiser.training:train"),
    "denoiser.network.loss_and_gradients": SpanSpec(
        "covdenoise.denoiser.network:loss_and_gradients"
    ),
    "denoiser.network.forward_batch": SpanSpec("covdenoise.denoiser.network:forward_batch"),
    "denoiser.ops.conv2d_same": SpanSpec("covdenoise.denoiser.ops:conv2d_same", _conv_forward_work),
    "denoiser.ops.conv2d_backward": SpanSpec(
        "covdenoise.denoiser.ops:conv2d_backward", _conv_backward_work
    ),
    "denoiser.storage.save_weights": SpanSpec("covdenoise.denoiser.storage:save_weights"),
    "lapack.eigh": SpanSpec("numpy.linalg:eigh"),
    "lapack.eigvalsh": SpanSpec("numpy.linalg:eigvalsh"),
    "lapack.solve": SpanSpec("numpy.linalg:solve"),
}

PERCENTILE_SPANS = (
    "hierarchy.linkage",
    "evaluation.mv_loss",
    "portfolio.mvp_plus_weights",
    "denoiser.ops.conv2d_same",
    "denoiser.ops.conv2d_backward",
)

DERIVED_METRICS = {
    "lapack.decomps_per_unit": "count",
    "portfolio.qp_iterations_per_call": "count",
    "covariance.validate.rejects_per_unit": "count",
    "evaluation.worker_busy_ratio": "ratio",
    "denoiser.ops.conv_fwd_gflops": "GFLOP/s",
    "denoiser.ops.conv_bwd_gflops": "GFLOP/s",
    "denoiser.ops.im2col_mb_per_call": "computed-MB",
    "trace.overhead_ratio": "ratio",
}


def metric_units(spans: dict[str, SpanSpec] = SPANS) -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in spans:
        units[f"{name}.calls_per_unit"] = "count"
        units[f"{name}.self_ms_per_unit"] = "ms"
        if name in PERCENTILE_SPANS:
            units[f"{name}.p50_ms"] = "ms"
            units[f"{name}.p90_ms"] = "ms"
    units.update(DERIVED_METRICS)
    return units


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    job: int | None
    raised: bool
    work: tuple[float, float] | None


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *path, attribute = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attribute, getattr(owner, attribute)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Records spans of the wrapped functions while installed.

    A span's parent is the innermost open span on its own thread; a span that
    starts on a thread with no open span (a worker of a thread pool) takes the
    innermost open span of the installing thread as its parent.
    """

    def __init__(self, spans: dict[str, SpanSpec] = SPANS):
        self.specs = spans
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.job: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            amount = work(*args, **kwargs) if work is not None else None
            stack.append(span_id)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), self.job, raised, amount))

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the others as missing."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._main_stack = self._stack()
        self.missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "covdenoise" or key.startswith("covdenoise."))]
        for name, spec in self.specs.items():
            resolved = _resolve(spec.target)
            if resolved is None:
                self.missing.append(name)
                continue
            owner, attribute, original = resolved
            wrapper = self._wrap(name, original, spec.work)
            places = [(owner, attribute)]
            if not isinstance(owner, type):
                places += [(module, key) for module in modules if module is not owner
                           for key, value in vars(module).items() if value is original]
            for place, key in places:
                self._patches.append((place, key, original))
                setattr(place, key, wrapper)

    def uninstall(self) -> None:
        for place, key, original in reversed(self._patches):
            setattr(place, key, original)
        self._patches = []

    def write(self, path: Path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


def layer_metrics(spans: list[Span], units: int, specs: dict[str, SpanSpec],
                  missing: list[str], threads: int = 1) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced jobs, normalised by the
    successful units those jobs completed.  Spans that never ran report zero;
    missing spans report nothing."""
    per_unit = 1.0 / max(units, 1)
    by_id = {span.id: span for span in spans}
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.thread == span.thread:
            covered[parent.id] += span.end - span.start
    groups: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        groups[span.name].append(span)

    metrics: dict[str, float] = {}
    for name in specs:
        if name in missing:
            continue
        group = groups.get(name, [])
        self_s = sum(s.end - s.start - covered[s.id] for s in group)
        metrics[f"{name}.calls_per_unit"] = len(group) * per_unit
        metrics[f"{name}.self_ms_per_unit"] = 1e3 * self_s * per_unit
        if name in PERCENTILE_SPANS:
            durations = [1e3 * (s.end - s.start) for s in group] or [0.0]
            metrics[f"{name}.p50_ms"] = float(np.percentile(durations, 50))
            metrics[f"{name}.p90_ms"] = float(np.percentile(durations, 90))

    def known(*names: str) -> bool:
        return all(n in specs and n not in missing for n in names)

    if known("lapack.eigh", "lapack.eigvalsh"):
        decomps = len(groups["lapack.eigh"]) + len(groups["lapack.eigvalsh"])
        metrics["lapack.decomps_per_unit"] = decomps * per_unit
    if known("portfolio.mvp_plus_weights", "lapack.solve"):
        qp = {s.id for s in groups["portfolio.mvp_plus_weights"]}
        inside = sum(1 for s in groups["lapack.solve"] if s.parent in qp)
        metrics["portfolio.qp_iterations_per_call"] = inside / max(len(qp), 1)
    if known("covariance.validate"):
        rejects = sum(1 for s in groups["covariance.validate"] if s.raised)
        metrics["covariance.validate.rejects_per_unit"] = rejects * per_unit
    if known("evaluation.run_monte_carlo"):
        runs = {s.id: s for s in groups["evaluation.run_monte_carlo"]}
        busy = sum(s.end - s.start for s in spans if s.parent in runs)
        capacity = threads * sum(s.end - s.start for s in runs.values())
        metrics["evaluation.worker_busy_ratio"] = busy / capacity if capacity else 0.0
    for key, name in (("conv_fwd_gflops", "denoiser.ops.conv2d_same"),
                      ("conv_bwd_gflops", "denoiser.ops.conv2d_backward")):
        if known(name):
            group = groups[name]
            seconds = sum(s.end - s.start for s in group)
            flops = sum(s.work[0] for s in group)
            metrics[f"denoiser.ops.{key}"] = flops / seconds / 1e9 if seconds else 0.0
    if known("denoiser.ops.conv2d_same", "denoiser.ops.conv2d_backward"):
        convs = groups["denoiser.ops.conv2d_same"] + groups["denoiser.ops.conv2d_backward"]
        col_bytes = [s.work[1] for s in convs]
        metrics["denoiser.ops.im2col_mb_per_call"] = float(np.mean(col_bytes)) / 1e6 if convs else 0.0
    return metrics
