"""Benchmark of covdenoise: four seeded workloads, end-to-end metrics, and a
traced run for per-layer metrics.

    python3 bench/run.py --workload mc-block --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0

Each workload runs in processes of its own (``worker.py``).  With ``--trace 0``
the workload is set up five times: in two set-up-only processes before the
measuring process, in the measuring process, and in two set-up-only processes
after it; ``setup_s`` is the median.  The measuring process times whole jobs for
``--seconds`` seconds; ``units_per_s`` is the 5th percentile of the per-job
rates and ``cpu_per_unit_ms`` the 95th percentile of the per-job CPU cost.  With
``--trace 1`` one process alternates untraced and traced jobs and reports the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count jobs, the calls into the program's entry points.  Everything
else, including the machine fingerprint, is printed above it and written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

# Workload names and end-to-end units are read from BENCHMARK.json, not from
# workloads.py, so that this process never imports the program; worker.py
# checks the name against workloads.WORKLOADS.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# Set-up-only processes on each side of the measuring process.  The host's
# speed drifts over tens of seconds, so set-ups spread over the whole run give
# a steadier median than set-ups back to back.
SETUPS_AROUND = 2
DEADLINE_S = 170.0
BLAS_ENV_PREFIXES = ("OPENBLAS", "GOTO", "OMP_", "MKL_", "BLIS_", "VECLIB", "ACCELERATE")


def percentile(values: list[float], share: float) -> float:
    """Linearly interpolated percentile, ``share`` in [0, 1]."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def fingerprint(trace: bool, worker: dict) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas": worker.get("blas"),
        "blas_env": {k: v for k, v in sorted(os.environ.items())
                     if k.startswith(BLAS_ENV_PREFIXES)},
        "numpy": worker.get("numpy"),
        "python": platform.python_version(),
        "commit": commit,
        "trace": trace,
    }


def spawn(options: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        done = subprocess.run([sys.executable, str(WORKER), *options], stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(options)} did not finish in time") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(options)} exited with code {done.returncode}")
    report = json.loads(lines[-1])
    report["spawned"] = spawned
    return report


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 deadline: float) -> dict:
    """Measure one workload; return the printed result and the details."""
    options = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))] + (["--tiny"] if tiny else [])
    around = 0 if trace else SETUPS_AROUND
    before = [spawn(options + ["--setup-only"], deadline) for _ in range(around)]
    report = spawn(options, deadline)
    after = [spawn(options + ["--setup-only"], deadline) for _ in range(around)]
    setup_runs_s = [r["ready"] - r["spawned"] for r in before + [report] + after]
    timed = [job for job in report["jobs"] if job["index"] >= 0]
    untraced = [job for job in timed if not job["traced"]]
    attempted_units = sum(job["attempted"] for job in timed)
    failed_ratio = (attempted_units - sum(job["units"] for job in timed)) / attempted_units
    summary = {
        "setup_s": statistics.median(setup_runs_s),
        # Job speed on a shared host swings by a quarter from job to job and in
        # stretches lasting up to a minute; over runs, the slowest jobs of each
        # run vary least, so rates are taken at the slow 5th percentile.
        "units_per_s": percentile([job["units"] / job["wall_s"] for job in untraced], 0.05),
        "cpu_per_unit_ms": percentile(
            [1e3 * job["cpu_s"] / max(job["units"], 1) for job in untraced], 0.95
        ),
        "peak_rss_mb": report["peak_rss_mb"],
        "success_ratio": 1.0 - failed_ratio,
        "failed_ratio": failed_ratio,
        "result_drift": report["result_drift"],
    }
    problems = list(report["problems"])
    problems += [f"warm-up job failed in a set-up process: {s['warmup_error']}"
                 for s in before + after if s["warmup_error"]]
    if trace:
        metrics = report["layer_metrics"]
    else:
        metrics = {key: {"value": summary[key], "unit": unit}
                   for key, unit in END_TO_END_UNITS.items()}
    printed = {
        "correct": not problems,
        "attempted": len(timed),
        "failed": sum(1 for job in timed if job["error"]),
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "unit": report["unit"],
        "summary": summary,
        "problems": problems,
        "digest": report["digest"],
        "missing_spans": report.get("missing_spans", []),
        "spans_file": report.get("spans_file"),
        "jobs": report["jobs"],
        "setup_runs_s": setup_runs_s,
        "fingerprint": fingerprint(trace, report),
    }
    return {"printed": printed, "details": details}


def show(result: dict) -> None:
    details, printed = result["details"], result["printed"]
    summary = details["summary"]
    timed = [job for job in details["jobs"] if job["index"] >= 0]
    print(f"workload {details['workload']}  seed {details['seed']}  "
          f"jobs {len(timed)} ({printed['failed']} failed)  digest {details['digest']}")
    print(f"  units: {details['unit']}")
    drift = summary["result_drift"]
    rows = [(key, f"{summary[key]:.6g}", unit) for key, unit in END_TO_END_UNITS.items()]
    rows += [("failed_ratio", f"{summary['failed_ratio']:.6g}", "ratio"),
             ("result_drift", "missing (no reference for this seed)" if drift is None
              else f"{drift:.3g}", "ratio")]
    if details["fingerprint"]["trace"]:
        rows += [(key, f"{m['value']:.6g}", m["unit"]) for key, m in printed["metrics"].items()]
    for key, value, unit in rows:
        print(f"  {key:<48} {value:>14} {unit}")
    for span in details["missing_spans"]:
        print(f"  span {span}: missing (its target no longer exists)")
    for problem in details["problems"]:
        print(f"  RESULT CHECK FAILED: {problem}")
        print(f"RESULT CHECK FAILED ({details['workload']}): {problem}", file=sys.stderr)
    print("  fingerprint " + json.dumps(details["fingerprint"], sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (for the benchmark's own tests)")
    args = parser.parse_args()

    if not (ROOT / "src" / "covdenoise" / "__init__.py").is_file():
        print(f"error: program source src/covdenoise not found under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = float("inf") if args.workload == "all" else time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny,
                                      deadline)
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        show(result)
        path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2, sort_keys=True, default=str) + "\n")
    if args.workload == "all":
        print(json.dumps({name: r["printed"] for name, r in results.items()}))
    else:
        print(json.dumps(results[args.workload]["printed"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
