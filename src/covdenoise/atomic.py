"""The package's file access: atomic output, and the one reader of text input.

Every output file of the package goes through :func:`atomic_write`.  The data
is written to a temp file with a unique name in the target's directory, so
concurrent writers of the same path never share one, and then renamed over
the target with ``os.replace``.  On any failure the temp file is removed and
the previous file is left as it was.  Text is written as UTF-8, and an
iterable of text pieces is written as it arrives, so a table never exists
in memory as one string.

Every text input of the package, its tables, exclusion lists and config
files, is read through :func:`text_lines`, which decodes UTF-8 whatever the
locale and yields one line at a time.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError


def _file_mode() -> int:
    """The mode a plain ``open(path, "w")`` gives a new file under this umask."""
    mask = os.umask(0)
    os.umask(mask)
    return 0o666 & ~mask


_FILE_MODE = _file_mode()


def atomic_write(path, data: str | bytes | Iterable[str]) -> None:
    """Replace ``path`` with ``data``, creating parent directories.

    ``data`` is bytes, text, or an iterable of text pieces, each written to
    the temp file as it arrives; text is UTF-8.  An iterable that raises
    leaves the previous file as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    pieces = (data,) if isinstance(data, (str, bytes)) else data
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), _FILE_MODE)
            for piece in pieces:
                handle.write(piece if isinstance(piece, bytes) else piece.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def text_lines(path) -> Iterator[str]:
    """The lines of the UTF-8 text file ``path``, read one physical line at a
    time: the list ``Path(path).read_text(encoding="utf-8").splitlines()``
    would give, without the whole file in memory.

    A byte sequence that is not UTF-8 raises :class:`DataError` naming the
    file and the line, numbered from 1 as ``splitlines`` counts them."""
    count = 0
    with open(path, "rb") as handle:
        for raw in handle:
            try:
                lines = raw.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                # the lines the bad byte's prefix ends, plus the one it opens
                number = count + len((raw[: exc.start].decode("utf-8") + "x").splitlines())
                message = f"{path}: line {number} is not UTF-8 text ({exc.reason})"
                raise DataError(message) from None
            count += len(lines)
            yield from lines
