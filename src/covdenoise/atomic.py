"""Atomic file output: a reader sees the previous file or the new one, never a
partial write.

Every output file of the package goes through :func:`atomic_write`.  The data
is written to a temp file with a unique name in the target's directory, so
concurrent writers of the same path never share one, and then renamed over
the target with ``os.replace``.  On any failure the temp file is removed and
the previous file is left as it was.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def _file_mode() -> int:
    """The mode a plain ``open(path, "w")`` gives a new file under this umask."""
    mask = os.umask(0)
    os.umask(mask)
    return 0o666 & ~mask


_FILE_MODE = _file_mode()


def atomic_write(path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text is UTF-8), creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), _FILE_MODE)
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
