import tracemalloc

import numpy as np
import pytest

from covdenoise import _blas
from covdenoise.portfolio import RELEASE_TOL
from covdenoise.spectral import floored_spectrum


def random_psd(rng: np.random.Generator, p: int, scale_spread: float = 1.0) -> np.ndarray:
    """Well-conditioned random PSD matrix with strictly positive diagonal."""
    a = rng.standard_normal((p, 2 * p + 2))
    cov = a @ a.T / (2 * p + 2)
    if scale_spread != 1.0:
        d = np.exp(rng.uniform(-scale_spread, scale_spread, size=p))
        cov = cov * np.outer(d, d)
    return 0.5 * (cov + cov.T)


def count_decompositions(monkeypatch) -> dict[str, int]:
    """Count, from here on, ``np.linalg.eigh`` calls as "eigh" and the
    eigenvalue-only decompositions, calls of :func:`covdenoise._blas.eigvalsh`,
    as "eigvalsh"."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for owner, name, key in ((np.linalg, "eigh", "eigh"),
                             (_blas, "eigvalsh", "eigvalsh")):
        real = getattr(owner, name)

        def counting(*args, _real=real, _key=key, **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


def reference_mv_loss(xi, sigma) -> float:
    """The minimum-variance loss as explicit products of floored inverses:
    one eigendecomposition of each argument and four p x p matrix products."""

    def floored_inverse(m, name, singular_ok):
        eigenvalues, vectors = floored_spectrum(m, name, singular_ok)
        return (vectors / eigenvalues) @ vectors.T

    xi_values = xi.values if hasattr(xi, "values") else np.asarray(xi, dtype=float)
    p = xi_values.shape[0]
    sigma_inv = floored_inverse(sigma, "sigma", singular_ok=False)
    xi_inv = floored_inverse(xi, "xi", singular_ok=True)
    numerator = float(np.trace(sigma_inv @ xi_values @ sigma_inv)) / p
    denominator = (float(np.trace(sigma_inv)) / p) ** 2
    return numerator / denominator - 1.0 / (float(np.trace(xi_inv)) / p)


def scan(falling, ratios):
    """The ratio test as a loop: take each ratio below the running limit minus 1e-15."""
    limit, blocker = 1.0, -1
    for asset, ratio in zip(falling, ratios):
        if ratio < limit - 1e-15:
            limit, blocker = ratio, asset
    return limit, blocker


def solve_per_pivot(sigma):
    """Weights and pivot path of the active-set method with a fresh solve per pivot.

    The path lists ("block", asset) for each ratio test (asset -1 for a full
    step) and ("release", asset) for each release."""
    eigenvalues, vectors = floored_spectrum(sigma, "sigma")
    quad = (vectors * eigenvalues) @ vectors.T
    p = quad.shape[0]
    weights = np.full(p, 1.0 / p)
    free = np.ones(p, dtype=bool)
    path = []
    for _ in range(50 * max(p, 2)):
        idx = np.flatnonzero(free)
        solved = np.linalg.solve(quad[np.ix_(idx, idx)], np.ones(idx.size))
        target = np.zeros(p)
        target[idx] = solved / solved.sum()
        step = target - weights
        if np.max(np.abs(step)) <= 1e-14:
            gradient = quad @ weights
            lam = float(weights @ gradient)
            multipliers = gradient - lam
            blocked = np.flatnonzero(~free)
            if blocked.size == 0 or np.all(multipliers[blocked] >= -RELEASE_TOL * lam):
                kept = np.maximum(weights, 0.0)
                return kept / kept.sum(), path
            release = blocked[np.argmin(multipliers[blocked])]
            free[release] = True
            path.append(("release", int(release)))
            continue
        falling = idx[step[idx] < 0.0]
        limit, blocker = scan(falling, weights[falling] / -step[falling])
        path.append(("block", int(blocker)))
        weights = weights + limit * step
        if blocker >= 0:
            weights[blocker] = 0.0
            free[blocker] = False
        weights = np.clip(weights, 0.0, None)
        weights /= weights.sum()
    raise AssertionError("oracle hit its iteration cap")


def traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _ACCEPTANCE_RESULTS.append((name, report.outcome.upper()))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        status = "PASS" if outcome == "PASSED" else outcome
        terminalreporter.write_line(f"{status:4s}  {name}")
