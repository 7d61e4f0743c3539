"""Reach the OpenBLAS that NumPy calls: its thread count, its ``cblas_dgemm``
and LAPACK's ``dsyevd``.

The package's BLAS rule, without exception: work is parallelized over
independent units, never inside BLAS.  Every Monte Carlo realization, every
walk-forward walk (its windows allocated in order, then held in one pass, one
pin per walk) and every training sample runs inside
:func:`single_blas_thread`, so ``threads`` pool threads use ``threads`` cores
and results do not depend on the host's ``OPENBLAS_NUM_THREADS``.  Training runs its samples on a pool as large as
the host count that :func:`single_blas_thread` yields.

The thread count is process-wide, so entries are counted under a lock: the
first entry saves the count and sets 1, the last exit restores it.

:func:`add_matmul` computes ``out += a @ b`` as one ``cblas_dgemm`` call with
beta = 1, so BLAS adds the product into ``out`` without a scratch array (NumPy's
``matmul`` can only overwrite its ``out``).  The denoiser's convolutions sum
their kernel taps this way.

The Fortran ``dsyevd`` is bound here and called only by
:func:`covdenoise.spectral.symmetric_eigenvalues`.  NumPy's ``eigvalsh`` holds
the interpreter lock for its whole LAPACK call below size 500, which
serializes the Monte Carlo pool's validations; a ctypes call releases it.

The library is looked up once, on first use, not at import, through NumPy's
already-loaded LAPACK extension, ``numpy.linalg._umath_linalg``, opened with
``RTLD_NOLOAD``: a handle's symbol search covers the libraries it links, so
nothing new is loaded and the OpenBLAS bound is the one ``np.linalg`` and
``np.matmul`` call, even where another package loaded its own (SciPy does).
``cblas_dgemm`` and ``dsyevd`` are spelled like the thread control
(``scipy_cblas_dgemm64_`` and ``scipy_dsyevd_64_`` beside
``scipy_openblas_get_num_threads64_``, ``cblas_dgemm`` and ``dsyevd_`` beside
``openblas_get_num_threads``), and each symbol is typed by one binder, :func:`_bind`.
:func:`_lookup` reads the integer width once from the suffix (``64_``: 64-bit
integers; none: C ``int``) for ``cblas_dgemm``'s sizes, ``dsyevd``'s integer
arrays and :func:`add_matmul`'s range check.  Without an OpenBLAS (MKL,
Accelerate, reference BLAS), or on Windows, which has no ``RTLD_NOLOAD``,
:func:`single_blas_thread` does nothing, and there, or where the OpenBLAS
exports no such symbol, :func:`add_matmul` runs ``out += a @ b`` in NumPy and
the eigenvalues come from ``np.linalg.eigvalsh``: the same results, through
NumPy.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import logging
import os
import threading
from collections.abc import Callable
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

_log = logging.getLogger(__name__)
# (thread-control prefix, CBLAS prefix, LAPACK prefix) of one build's symbols
_SYMBOL_PREFIXES = (("scipy_openblas", "scipy_cblas", "scipy_"), ("openblas", "cblas", ""))
_SYMBOL_SUFFIXES = ("64_", "")
_lock = threading.Lock()
_depth = 0
_saved = 1


class _OpenBLAS(NamedTuple):
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    gemm: Callable[..., None] | None
    dsyevd: Callable[..., None] | None = None
    # NumPy dtype of the library's integers: gemm's sizes, dsyevd's integer arrays
    integer: type = np.intc


@functools.cache
def _lookup() -> _OpenBLAS | None:
    """The thread count (get, set), cblas_dgemm, dsyevd and integer width of
    the OpenBLAS that NumPy's linear algebra calls, or None."""
    try:
        # fails unless already loaded; the handle's symbols include its dependencies'
        library = ctypes.CDLL(_umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    except (OSError, AttributeError):  # AttributeError: no RTLD_NOLOAD (Windows)
        library = None  # has none of the symbols below
    for (prefix, cblas, lapack), suffix in itertools.product(_SYMBOL_PREFIXES, _SYMBOL_SUFFIXES):
        get, set_ = (f"{prefix}_{verb}_num_threads{suffix}" for verb in ("get", "set"))
        if not (hasattr(library, get) and hasattr(library, set_)):
            continue
        # The integer width follows the suffix: a mismatch would corrupt memory.
        integer, index = (np.int64, ctypes.c_int64) if suffix else (np.intc, ctypes.c_int)
        enum, real, pointer = ctypes.c_int, ctypes.c_double, ctypes.c_void_p
        return _OpenBLAS(
            _bind(library, get, [], ctypes.c_int),
            _bind(library, set_, [ctypes.c_int]),
            _bind(library, f"{cblas}_dgemm{suffix}", [enum] * 3 + [index] * 3
                  + [real, pointer, index, pointer, index, real, pointer, index]),
            # jobz and uplo as one-character strings, pointers to n, a, lda,
            # w, work, lwork, iwork, liwork and info, the strings' hidden lengths
            _bind(library, f"{lapack}dsyevd_{suffix}",
                  [ctypes.c_char_p] * 2 + [pointer] * 9 + [ctypes.c_size_t] * 2),
            integer,
        )
    _log.debug("BLAS thread count left unpinned: no OpenBLAS thread control in NumPy's linalg")
    return None


def _bind(library: ctypes.CDLL, name: str, argtypes: list, restype=None) -> Callable | None:
    """``library``'s function ``name`` typed with ``argtypes`` and ``restype``, or None."""
    if not hasattr(library, name):
        _log.debug("no %s in the loaded OpenBLAS: NumPy does its work", name)
        return None
    function = getattr(library, name)
    function.argtypes, function.restype = argtypes, restype
    return function


def add_matmul(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``out += a @ b`` for 2-D float64 arrays, as one cblas_dgemm with beta = 1.

    The operands go to BLAS as they lie, without a copy: each must be non-empty
    and aligned, with unit column stride and a row stride of at least its width
    (a column slice of a wider array qualifies), and ``out`` must be writeable
    and share no memory with ``a`` or ``b``.  Anything else raises ``ValueError``,
    whichever BLAS is loaded.  Without a loaded ``cblas_dgemm`` this runs
    ``out += a @ b`` in NumPy.  The two agree bit for bit where NumPy's product
    is a gemm too (both of its dimensions above 1) and BLAS keeps the inner
    dimension in one block (below 512 on OpenBLAS's Haswell kernels), as in
    the denoiser's convolutions.
    """
    if not (a.ndim == b.ndim == 2 and a.shape[1] == b.shape[0]
            and out.shape == (a.shape[0], b.shape[1])):
        raise ValueError(f"cannot add an {a.shape} @ {b.shape} product into {out.shape}")
    for name, array in (("out", out), ("a", a), ("b", b)):
        # aligned: the data and both strides are whole float64 slots
        row, column = array.strides
        if (array.dtype != np.float64 or not array.flags.aligned or array.size == 0
                or column != 8 or row < 8 * array.shape[1]):
            raise ValueError(f"{name} is not a BLAS row-major float64 layout: dtype {array.dtype}, "
                             f"shape {array.shape}, strides {array.strides}")
    if not out.flags.writeable:
        raise ValueError("out is read-only")
    if np.shares_memory(out, a) or np.shares_memory(out, b):
        raise ValueError("out overlaps an operand")
    library = _lookup()
    gemm = None if library is None else library.gemm
    if gemm is None:
        out += a @ b
        return
    (m, k), n = a.shape, b.shape[1]
    lda, ldb, ldc = (array.strides[0] // 8 for array in (a, b, out))
    if max(m, n, k, lda, ldb, ldc) > np.iinfo(library.integer).max:
        raise ValueError(f"sizes or strides exceed {gemm.__name__}'s integer range")
    # 101, 111: the CBLAS enum values of CblasRowMajor and CblasNoTrans
    gemm(101, 111, 111, m, n, k, 1.0, a.ctypes.data, lda, b.ctypes.data, ldb,
         1.0, out.ctypes.data, ldc)


@contextmanager
def single_blas_thread():
    """Run the block with the loaded OpenBLAS on one thread, then restore its count.

    Yields the host's count, saved by the outermost entry, as the number of
    pool threads that fill the cores; 1 where no thread control is found.
    """
    global _depth, _saved
    control = _lookup()
    if control is None:
        yield 1
        return
    with _lock:
        if _depth == 0:
            _saved = control.get_threads()
            control.set_threads(1)
        _depth += 1
    try:
        yield _saved  # fixed while any entry is inside
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                control.set_threads(_saved)
