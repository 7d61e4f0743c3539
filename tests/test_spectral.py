import ctypes
import sys
import threading

import numpy as np
import pytest

import covdenoise.spectral as spectral
from covdenoise import (
    CovarianceMatrix,
    ParameterError,
    _blas,
    build_block_model,
    corr_to_cov,
    cov_to_corr,
    eigendecompose_sym,
    mv_loss,
    psd_project,
    spectral_seriation,
    stieltjes,
)
from covdenoise.errors import NumericError
from conftest import random_psd

LIBRARY = _blas._lookup()
needs_dsyevd = pytest.mark.skipif(
    LIBRARY is None or LIBRARY.dsyevd is None, reason="no dsyevd in a loaded OpenBLAS"
)


def test_eigendecompose_identity():
    dec = eigendecompose_sym(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    assert np.allclose(dec.eigenvectors @ dec.eigenvectors.T, np.eye(3), atol=1e-12)


def test_eigendecompose_hand_case():
    dec = eigendecompose_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)
    assert np.allclose(np.abs(dec.eigenvectors[:, 0]), [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert dec.eigenvectors[np.abs(dec.eigenvectors[:, 0]).argmax(), 0] > 0


def test_eigendecompose_block_leading_eigenvalue():
    sigma = build_block_model([5], 0.3)
    dec = eigendecompose_sym(sigma)
    assert np.isclose(dec.eigenvalues[0], 2.2, atol=1e-12)


def test_eigendecompose_reconstruction_and_signs(rng):
    for _ in range(5):
        matrix = random_psd(rng, 8)
        dec = eigendecompose_sym(matrix)
        assert np.max(np.abs(dec.reconstruct() - matrix)) <= 1e-8 * np.max(np.abs(matrix))
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-8
        anchors = np.abs(dec.eigenvectors).argmax(axis=0)
        assert np.all(dec.eigenvectors[anchors, np.arange(8)] >= 0)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_eigendecompose_rejects_nonsymmetric():
    with pytest.raises(ParameterError):
        eigendecompose_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_psd_project_leaves_psd_untouched(rng):
    matrix = random_psd(rng, 6)
    assert np.max(np.abs(psd_project(matrix, 0.0) - matrix)) <= 1e-10


def test_psd_project_clamps_negative_directions():
    out = psd_project(np.array([[1.0, 0.0], [0.0, -0.5]]), 0.0)
    assert np.allclose(out, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_psd_project_floor_and_idempotence(rng):
    raw = rng.standard_normal((10, 10))
    sym = 0.5 * (raw + raw.T)
    out = psd_project(sym, 0.05)
    assert np.linalg.eigvalsh(out)[0] >= 0.05 - 1e-12
    again = psd_project(out, 0.05)
    assert np.max(np.abs(again - out)) <= 1e-12


def test_stieltjes_scalar_cases():
    assert np.isclose(stieltjes(-1.0, np.array([1.0])), 0.5)
    assert np.isclose(stieltjes(2.0, np.array([1.0, 1.0])), -1.0)


def test_stieltjes_matches_direct_summation(rng):
    eigenvalues = np.sort(rng.chisquare(3, size=100)) / 3
    z = eigenvalues[-1] - 1j * 100**-0.5
    direct = sum(1.0 / (lam - z) for lam in eigenvalues) / 100
    assert abs(stieltjes(z, eigenvalues) - direct) < 1e-14


def test_stieltjes_pole_raises():
    with pytest.raises(NumericError):
        stieltjes(1.0, np.array([0.5, 1.0]))


def test_stieltjes_half_plane_sign(rng):
    # Im G(z) carries the sign of Im z for G(z) = mean(1/(lambda - z))
    eigenvalues = rng.uniform(0.1, 3.0, size=25)
    for z in (0.5 - 0.2j, 1.0 - 1e-3j, 2.0 + 0.4j):
        g = stieltjes(z, eigenvalues)
        assert g.imag * z.imag > 0


def test_cov_to_corr_diagonal_case():
    corr, variances = cov_to_corr(np.diag([4.0, 9.0]))
    assert np.allclose(corr, np.eye(2))
    assert np.allclose(variances, [4.0, 9.0])


def test_cov_to_corr_off_diagonal():
    corr, _ = cov_to_corr(np.array([[4.0, 3.0], [3.0, 9.0]]))
    assert np.isclose(corr[0, 1], 0.5)


def test_corr_roundtrip(rng):
    matrix = random_psd(rng, 7, scale_spread=1.5)
    corr, variances = cov_to_corr(matrix)
    assert np.max(np.abs(corr_to_cov(corr, variances) - matrix)) <= 1e-12


def test_cov_to_corr_rejects_nonpositive_variance():
    with pytest.raises(ParameterError):
        cov_to_corr(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_seriation_identity_correlation_is_permutation():
    order = spectral_seriation(np.eye(4))
    assert sorted(order.tolist()) == [0, 1, 2, 3]


def test_seriation_groups_blocks_contiguously():
    corr = np.eye(4)
    for i, j in [(0, 2), (1, 3)]:
        corr[i, j] = corr[j, i] = 0.9
    order = spectral_seriation(corr)
    position = {asset: k for k, asset in enumerate(order.tolist())}
    assert abs(position[0] - position[2]) == 1
    assert abs(position[1] - position[3]) == 1


def test_seriation_recovers_chain_order():
    p = 6
    corr = np.eye(p)
    for i in range(p - 1):
        corr[i, i + 1] = corr[i + 1, i] = 0.5
    order = spectral_seriation(corr).tolist()
    assert order == list(range(p)) or order == list(range(p - 1, -1, -1))


def test_seriation_preserves_spectrum(rng):
    matrix = random_psd(rng, 9)
    corr, _ = cov_to_corr(matrix)
    order = spectral_seriation(corr)
    permuted = corr[np.ix_(order, order)]
    before = np.sort(np.linalg.eigvalsh(corr))
    after = np.sort(np.linalg.eigvalsh(permuted))
    assert np.max(np.abs(before - after)) <= 1e-10


def test_lapack_eigensolvers_are_called_only_in_covariance_and_spectral():
    # NumPy's solvers, the eigenvalue entry point and the dsyevd that _blas
    # binds are called in covariance.py and spectral.py only, eigh only inside
    # ascending_spectrum (which turns its LinAlgError into a NumericError), and
    # the bound dsyevd is not even read outside spectral.py, so no alias escapes
    import ast
    from pathlib import Path

    import covdenoise

    root = Path(covdenoise.__file__).parent
    allowed = {root / "covariance.py", root / "spectral.py"}
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        entry = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == "ascending_spectrum"
            and path == root / "spectral.py"
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if (name in ("eigh", "eigvalsh", "symmetric_eigenvalues", "dsyevd")
                        and path not in allowed or name == "eigh" and id(node) not in entry):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
            if (isinstance(node, ast.Attribute) and node.attr == "dsyevd"
                    and path != root / "spectral.py"):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []


def _eigenvalues_or_error(solve, values):
    try:
        return solve(values).tobytes()
    except np.linalg.LinAlgError as exc:
        return repr(exc)


def _nearly_symmetric(rng, p):
    # the upper triangle off by up to 1e-12, as CovarianceMatrix admits: both
    # solvers must read the lower one
    values = random_psd(rng, p)
    return values + np.triu(rng.uniform(-1e-12, 1e-12, size=(p, p)), 1)


@pytest.mark.parametrize("p", [1, 2, 3, 64, 99, 200, 257])
def test_symmetric_eigenvalues_are_the_bytes_of_numpy_eigvalsh(p):
    rng = np.random.default_rng(p)
    values = _nearly_symmetric(rng, p)
    for layout in (values, np.asfortranarray(values), values[::-1, ::-1]):
        assert (spectral.symmetric_eigenvalues(layout).tobytes()
                == np.linalg.eigvalsh(layout).tobytes())


def test_symmetric_eigenvalues_of_nan_arrays_match_numpy():
    one_nan = np.eye(4)
    one_nan[0, 0] = np.nan  # LAPACK returns NaN eigenvalues
    cases = [np.full((1, 1), np.nan), one_nan, np.full((5, 5), np.nan)]  # the last raises
    for values in cases:
        assert (_eigenvalues_or_error(spectral.symmetric_eigenvalues, values)
                == _eigenvalues_or_error(np.linalg.eigvalsh, values))
    sigma = CovarianceMatrix(np.eye(4) + 0.1, "model-1")
    assert np.isnan(mv_loss(one_nan, sigma))


@needs_dsyevd
def test_symmetric_eigenvalues_agree_with_numpy_from_concurrent_threads():
    # more threads than cores, switching often, racing to fill the cached
    # workspace sizes: each must still get its own matrix's bytes every time
    rng = np.random.default_rng(3)
    matrices = [_nearly_symmetric(rng, p) for p in (20, 99, 20, 64, 99, 64)]
    expected = [np.linalg.eigvalsh(values).tobytes() for values in matrices]
    got = [set() for _ in matrices]

    def solve(k):
        for _ in range(5):
            got[k].add(spectral.symmetric_eigenvalues(matrices[k]).tobytes())

    spectral._dsyevd_workspace.cache_clear()
    workers = [threading.Thread(target=solve, args=(k,)) for k in range(len(matrices))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [{values} for values in expected]


@pytest.mark.parametrize("library", [None, _blas._OpenBLAS(None, None, None)],
                         ids=["no OpenBLAS", "no dsyevd"])
def test_symmetric_eigenvalues_fall_back_to_numpy_without_a_dsyevd(monkeypatch, library):
    values = _nearly_symmetric(np.random.default_rng(4), 7)
    expected = np.linalg.eigvalsh(values).tobytes()
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(_blas, "_lookup", lambda: library)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or real(m))
    assert spectral.symmetric_eigenvalues(values).tobytes() == expected
    assert len(calls) == 1


@needs_dsyevd
def test_the_bound_dsyevd_releases_the_interpreter_lock():
    # ctypes holds the lock only for functions flagged as Python API calls
    assert not LIBRARY.dsyevd._flags_ & ctypes._FUNCFLAG_PYTHONAPI


@needs_dsyevd
def test_dsyevd_failing_to_converge_raises_linalgerror(monkeypatch):
    integer = np.ctypeslib.as_ctypes_type(LIBRARY.integer)

    def failing(*args):
        LIBRARY.dsyevd(*args)
        if integer.from_address(args[7]).value != -1:  # lwork; -1 is the size query
            integer.from_address(args[10]).value = 3  # info > 0: no convergence

    monkeypatch.setattr(_blas, "_lookup", lambda: LIBRARY._replace(dsyevd=failing))
    values = random_psd(np.random.default_rng(5), 6)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        spectral.symmetric_eigenvalues(values)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        CovarianceMatrix(values)
    with pytest.raises(NumericError, match="failed to converge"):
        spectral.floored_eigenvalues(values, "xi")


@pytest.mark.parametrize(
    "call, message",
    [(lambda: eigendecompose_sym(np.zeros((2, 3))), "expected a square matrix"),
     (lambda: psd_project(np.eye(2), floor=-1.0), "floor must be nonnegative"),
     (lambda: stieltjes(1j, np.array([])), "eigenvalues must be a nonempty vector"),
     (lambda: corr_to_cov(np.eye(2), np.array([1.0, 0.0])), "variances must be strictly positive"),
     (lambda: spectral_seriation(np.zeros((2, 3))), "correlation matrix must be square"),
     (lambda: spectral_seriation(2.0 * np.eye(3)), "correlation matrix must have a unit diagonal")],
    ids=["eigendecompose-non-square", "negative-floor", "stieltjes-empty", "variances",
         "seriation-non-square", "seriation-diagonal"],
)
def test_spectral_inputs_are_rejected(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


def test_seriation_of_one_asset_is_the_identity_order():
    order = spectral_seriation(np.ones((1, 1)))
    assert order.tolist() == [0] and order.dtype.kind == "i"
