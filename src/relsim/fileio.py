"""File helpers: UTF-8 reading of input files, the row loop of the TSV
input files, and atomic replacement of the files relsim writes (index,
vector cache, sweep CSV)."""

from __future__ import annotations

import os
import tempfile
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TypeVar

from .errors import DataFormatError, InputError

Row = TypeVar("Row")


def read_utf8(path: str | Path) -> str:
    """A UTF-8 file's text less a leading byte-order mark; other bytes or an
    unreadable path raise DataFormatError."""
    path = Path(path)
    try:  # not utf-8-sig, whose error offsets would not count the mark's bytes
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") \
            from None
    except OSError as e:
        raise DataFormatError(f"{path}: cannot read ({e.strerror})") from None


def read_rows(path: str | Path, parse_row: Callable[[list[str]], Row]) -> list[Row]:
    """parse_row of each line's tab-separated fields, in file order.

    Blank lines and lines whose first non-blank character is '#' are
    skipped. A DataFormatError or ValueError from parse_row is raised as a
    DataFormatError that names the file and line ("path:line: ...").
    """
    rows = []
    for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            rows.append(parse_row(line.split("\t")))
        except (DataFormatError, ValueError) as e:
            raise DataFormatError(f"{path}:{lineno}: {e}") from e
    return rows


def check_writable(path: str | Path) -> None:
    """Raise now the InputError atomic_write would raise for `path`; leaves no file."""
    if Path(path).is_dir():
        raise InputError(f"{path}: cannot write (Is a directory)")
    try:
        tempfile.TemporaryFile(dir=Path(path).parent).close()
    except OSError as e:
        raise InputError(f"{path}: cannot write ({e.strerror})") from None


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary file that replaces `path` only once the block succeeds.

    The data goes to a temporary file in the same directory, is flushed to
    disk, and is renamed over `path` with `os.replace`. If the block raises
    (or is interrupted), the temporary file is removed and `path` keeps its
    old contents, so a reader never sees a truncated file. A `path` that cannot
    be created or replaced raises InputError; an error in writing is raised as is.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        f = tmp.open("xb")
    except OSError as e:
        raise InputError(f"{path}: cannot write ({e.strerror})") from None
    try:
        with f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        try:
            os.replace(tmp, path)
        except OSError as e:
            raise InputError(f"{path}: cannot write ({e.strerror})") from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
