"""Pin the OpenBLAS that NumPy loaded to one thread for a block of code.

The package's BLAS rule: work is parallelized over independent units, never
inside BLAS.  Every Monte Carlo realization and every walk-forward window's
estimate, allocation and hold run inside :func:`single_blas_thread`, so
``threads`` pool threads use ``threads`` cores and results do not depend on
the host's ``OPENBLAS_NUM_THREADS``.  Denoiser training keeps the host's BLAS
threads; a learned estimator's forward pass, being part of an estimate, runs
on one.

The thread count is process-wide, so entries are counted under a lock: the
first entry saves the count and sets 1, the last exit restores it.  The
library is looked up on first use, not at import, and only among libraries
already loaded, so a second BLAS is never loaded.  Without an OpenBLAS thread
control (MKL, Accelerate, reference BLAS) :func:`single_blas_thread` does
nothing.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import logging
import os
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_log = logging.getLogger(__name__)
_SYMBOL_PREFIXES = ("scipy_openblas", "openblas")
_SYMBOL_SUFFIXES = ("64_", "")
_lock = threading.Lock()
_depth = 0
_saved = 1


def _openblas_paths() -> list[str]:
    """OpenBLAS files mapped into this process (Linux), else those in NumPy's wheel."""
    try:
        mapped = [line.split(maxsplit=5)[-1]
                  for line in Path("/proc/self/maps").read_text().splitlines()]
    except OSError:
        numpy_dir = Path(np.__file__).parent
        mapped = [str(path) for folder in (numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs")
                  if folder.is_dir() for path in folder.iterdir()]
    return list(dict.fromkeys(path for path in mapped if "openblas" in Path(path).name.lower()))


@functools.cache
def _lookup():
    """(get, set) of the loaded OpenBLAS's thread count, or None."""
    paths = _openblas_paths()
    for path in paths:
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # fails unless already loaded
        except (OSError, AttributeError):
            continue
        for prefix, suffix in itertools.product(_SYMBOL_PREFIXES, _SYMBOL_SUFFIXES):
            names = (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
            if all(hasattr(library, name) for name in names):
                get, set_ = (getattr(library, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    why = f"no thread control in {paths}" if paths else "no OpenBLAS is loaded"
    _log.debug("BLAS thread count left unpinned: %s", why)
    return None


@contextmanager
def single_blas_thread():
    """Run the block with the loaded OpenBLAS on one thread, then restore its count."""
    global _depth, _saved
    control = _lookup()
    if control is None:
        yield
        return
    get, set_ = control
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
