"""Record the result references the benchmark checks its runs against.

    python3 bench/record_references.py

Runs one job at full size for every workload, for the default seed 0 and the
held-out seed 1, and writes ``bench/references/<workload>-seed<seed>.npz``.
References belong to the commit that defined the benchmark; record them again
only in a change that redefines the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import results  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1)  # the default workload seed and one held-out seed


def main() -> int:
    out_dir = BENCH.parent / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=out_dir, prefix="record-") as tmp:
                inputs = workload.setup(seed, Path(tmp), False)
                outcome = workload.job(inputs, Path(tmp))
            path = results.save_reference(name, seed, outcome.results)
            print(f"{name} seed {seed}: {outcome.units}/{inputs.attempted} units, "
                  f"digest {results.digest(outcome.results)} -> {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
