"""One workload in one process: set up, run one small untimed warm-up job, then
time jobs for ``--seconds`` and print a JSON report as the last line of stdout.

``run.py`` starts this script once per measurement; it is not meant to be
called by hand.  With ``--setup-only`` the process stops after the warm-up job
and reports only when it became ready, which ``run.py`` uses to repeat set-up.
With ``--trace 1`` jobs alternate between untraced and traced, so the tracing
overhead is measured under the same conditions as the per-layer spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import results  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_job(workload, inputs, workdir: Path, index: int, tracer=None) -> tuple[dict, dict | None]:
    """Run one job; return its record and its results (None if it raised)."""
    if tracer is not None:
        tracer.job = index
        tracer.install()
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        outcome = workload.job(inputs, workdir)
        error = None
    except Exception as exc:  # a failing job is counted, never retried
        traceback.print_exc(file=sys.stderr)
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    if tracer is not None:
        tracer.uninstall()
    record = {
        "index": index,
        "traced": tracer is not None,
        "wall_s": wall,
        "cpu_s": cpu,
        "units": outcome.units if outcome else 0,
        "attempted": inputs.attempted,
        "error": error,
    }
    return record, outcome.results if outcome else None


def check(name: str, seed: int, tiny: bool, outputs: list[dict]) -> tuple[float | None, list[str]]:
    """Result drift against the reference for this seed (None without one) and
    the problems that make the run incorrect.  Without a reference every job
    must reproduce the first job's results."""
    reference = None if tiny else results.load_reference(name, seed)
    problems: list[str] = []
    if reference is not None:
        drift = 0.0
        for output in outputs:
            job_drift, job_problems = results.compare(output, reference)
            drift = max(drift, job_drift)
            problems += [p for p in job_problems if p not in problems]
        if drift > results.RESULT_TOLERANCE:
            problems.append(f"result drift {drift:.3e} exceeds {results.RESULT_TOLERANCE:.0e}")
        return drift, problems
    for output in outputs[1:]:
        job_drift, job_problems = results.compare(output, outputs[0])
        if job_problems or job_drift > results.RESULT_TOLERANCE:
            problems.append(f"jobs with the same inputs disagree (drift {job_drift:.3e}; "
                            f"{'; '.join(job_problems)})")
            break
    return None, problems


def blas_info() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        workdir = Path(tmp)
        inputs = workload.setup(args.seed, workdir, args.tiny)
        warm_record, _ = run_job(workload, workload.warmup(inputs, workdir), workdir, index=-1)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready, "warmup_error": warm_record["error"]}))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        records, outputs = [], []
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 1
            record, output = run_job(workload, inputs, workdir, index,
                                     tracer if traced else None)
            records.append(record)
            if output is not None:
                outputs.append(output)
            index += 1
            if time.monotonic() - ready >= args.seconds and (tracer is None or index >= 2):
                break

    drift, problems = check(args.workload, args.seed, args.tiny, outputs)
    if not outputs:
        problems.append("no timed job produced results")
    if warm_record["error"]:
        problems.append(f"warm-up job failed: {warm_record['error']}")
    report = {
        "ready": ready,
        "unit": workload.unit,
        "jobs": [warm_record] + records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "result_drift": drift,
        "problems": problems,
        "digest": results.digest(outputs[0]) if outputs else None,
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    if tracer is not None:
        traced = [r for r in records if r["traced"]]
        untraced = [r for r in records if not r["traced"]]
        metrics = tracing.layer_metrics(
            tracer.spans, sum(r["units"] for r in traced), tracer.specs, tracer.missing,
            threads=getattr(inputs, "threads", 1),
        )
        traced_rate = statistics.median(r["units"] / r["wall_s"] for r in traced)
        untraced_rate = statistics.median(r["units"] / r["wall_s"] for r in untraced)
        metrics["trace.overhead_ratio"] = traced_rate / untraced_rate if untraced_rate else 0.0
        units = tracing.metric_units(tracer.specs)
        metrics = {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_file)
        report.update(layer_metrics=metrics, missing_spans=tracer.missing,
                      spans_file=str(spans_file))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
