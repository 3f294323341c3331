"""File helpers: UTF-8 reading of input files, and atomic replacement of the
files relsim writes (index, vector cache, sweep CSV)."""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

from .errors import DataFormatError


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; other bytes raise DataFormatError naming it."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") \
            from None


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary file that replaces `path` only once the block succeeds.

    The data goes to a temporary file in the same directory, is flushed to
    disk, and is renamed over `path` with `os.replace`. If the block raises
    (or is interrupted), the temporary file is removed and `path` keeps its
    old contents, so a reader never sees a truncated file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with tmp.open("xb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
