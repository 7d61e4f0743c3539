"""Result references: digests, drift against the committed references, and the
checks that make a run incorrect.

A job's results are a flat mapping of names to float arrays.  References live
in ``references/<workload>-seed<seed>.npz`` and were recorded by
``record_references.py`` at the commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Largest result drift a correct run may show.  Every workload computes in
# float64 with a fixed reduction order, so the program reproduces its own
# results bitwise; the tolerance only absorbs reordered float64 arithmetic.
RESULT_TOLERANCE = 1e-9


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.npz"


def load_reference(workload: str, seed: int) -> dict[str, np.ndarray] | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    with np.load(path, allow_pickle=False) as stored:
        return {key: stored[key] for key in stored.files}


def save_reference(workload: str, seed: int, results: dict[str, np.ndarray]) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **{key: np.asarray(v, dtype=float) for key, v in results.items()})
    return path


def digest(results: dict[str, np.ndarray]) -> str:
    """Hash of the names, shapes and float64 bytes of a result mapping."""
    h = hashlib.sha256()
    for key in sorted(results):
        values = np.ascontiguousarray(results[key], dtype="<f8")
        h.update(f"{key}{values.shape}".encode())
        h.update(values.tobytes())
    return h.hexdigest()[:16]


def compare(results: dict[str, np.ndarray],
            reference: dict[str, np.ndarray]) -> tuple[float, list[str]]:
    """Largest relative deviation from the reference, plus the problems that
    make a result wrong regardless of size: differing keys or shapes, and
    non-finite values where the reference is finite.

    Matching NaNs are equal.  An element whose reference is zero is measured
    against the largest reference magnitude under the same name; a finite
    value where the reference is not counts as infinite drift.
    """
    problems = []
    if set(results) != set(reference):
        missing = sorted(set(reference) - set(results))
        extra = sorted(set(results) - set(reference))
        problems.append(f"result keys differ (missing {missing}, unexpected {extra})")
    drift = 0.0
    for key in sorted(set(results) & set(reference)):
        value = np.asarray(results[key], dtype=float)
        ref = np.asarray(reference[key], dtype=float)
        if value.shape != ref.shape:
            problems.append(f"{key}: shape {value.shape} differs from reference {ref.shape}")
            continue
        ref_finite = np.isfinite(ref)
        value_finite = np.isfinite(value)
        lost = ref_finite & ~value_finite
        if lost.any():
            problems.append(f"{key}: {int(lost.sum())} non-finite values where the reference "
                            f"is finite")
        if (value_finite & ~ref_finite).any():
            drift = float("inf")
        both = ref_finite & value_finite
        if not both.any():
            continue
        scale = np.abs(ref[both])
        floor = scale.max()
        denominator = np.where(scale > 0.0, scale, floor if floor > 0.0 else 1.0)
        drift = max(drift, float(np.max(np.abs(value[both] - ref[both]) / denominator)))
    return drift, problems
