"""Deterministic random-stream plumbing.

Every stochastic routine in the package draws from a PCG64 generator keyed by
``(seed, stream, index...)`` through :func:`generator`.  The stream constants
below partition the seed space so that, e.g., Monte Carlo realization ``i``
and training sample ``j`` of the same run never share a stream, and runs
parallelize deterministically.
"""

from __future__ import annotations

import numpy as np

STREAM_REALIZATION = 0
STREAM_TRAINING = 1
STREAM_INIT = 2
STREAM_SHUFFLE = 3
# the Monte Carlo harness's training sets, one stream per network mode
STREAM_HARNESS_COVARIANCE = 10
STREAM_HARNESS_EIGENVECTORS = 11


def generator(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for the sub-stream ``key`` of ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def child_seed(seed: int, *key: int) -> int:
    """Collapse a sub-stream to a single uint64 seed (for APIs taking a seed)."""
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)
    return int(state[0])
