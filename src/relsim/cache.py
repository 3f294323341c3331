"""On-disk cache of raw hit counts, keyed by word pair.

Raw counts (integers, not logs) are persisted so the transform can change
without re-querying. The cache records the corpus digest, joining-term
checksum and count mode it was built with and refuses to load under a
different configuration.

load_cache checks and parses the counts of a block of rows at a time with
numpy, and reads a block that fails a check row by row, so that a bad row's
error names its line and a count too long for int64 is still read exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CacheProvenanceError, DataFormatError
from .fileio import atomic_write, read_utf8
from .index import CountMode
from .terms import TERM_COUNT
from .vectors import MAX_COUNT, RelationVector, WordPair, hit_counts

_MAGIC = "# relsim-vector-cache v1"
VECTOR_LEN = 2 * TERM_COUNT
_ROW = "\t".join(["%d"] * VECTOR_LEN)  # a row's counts as save writes them: str() of each
_BLOCK = 64  # body lines that load_cache checks and parses at once
_MAX_DIGITS = 18  # a count of at most 18 digits fits int64
_COUNT_DIGITS = len(str(MAX_COUNT))


@dataclass
class VectorCache:
    corpus_digest: str
    terms_checksum: str
    entries: dict[str, tuple[int, ...]] = field(default_factory=dict)
    mode: CountMode = CountMode.DOCUMENT_HITS

    def __contains__(self, pair: WordPair) -> bool:
        return pair.key() in self.entries

    def put(self, pair: WordPair, raw: Sequence[int]) -> None:
        """Store VECTOR_LEN counts (hit_counts' rule) as a tuple, lighter than a RelationVector."""
        self.entries[pair.key()] = _full_row(hit_counts(raw))

    def vector(self, pair: WordPair) -> RelationVector:
        """The stored row as a vector; put or load_cache checked it already."""
        return RelationVector.from_counts(pair, self.entries[pair.key()])

    def save(self, path: str | Path) -> None:
        lines = [_MAGIC,
                 f"# corpus: {self.corpus_digest}",
                 f"# terms: {self.terms_checksum}"]
        # Document caches keep the bytes they had before caches recorded a mode.
        if self.mode is not CountMode.DOCUMENT_HITS:
            lines.append(f"# mode: {self.mode.value}")
        for key in sorted(self.entries):
            lines.append(key + "\t" + _ROW % self.entries[key])
        with atomic_write(path) as f:
            f.write(("\n".join(lines) + "\n").encode("utf-8"))


def _row_counts(text: str) -> tuple[int, ...]:
    """The counts of a row as save writes them, ASCII digits without a
    leading zero, that keep hit_counts' rule."""
    fields = text.split("\t")
    if not (text.isascii() and all(f.isdigit() and (f[0] != "0" or f == "0") for f in fields)):
        raise ValueError("hit counts must be ASCII digits without leading zeros")
    # int() refuses text of over 4,300 digits, so a field with more digits than
    # MAX_COUNT, which is past it, goes to hit_counts as MAX_COUNT + 1.
    return hit_counts([int(f) if len(f) <= _COUNT_DIGITS else MAX_COUNT + 1 for f in fields])


def _full_row(counts: tuple[int, ...]) -> tuple[int, ...]:
    if len(counts) != VECTOR_LEN:
        raise ValueError(f"expected {VECTOR_LEN} counts, got {len(counts)}")
    return counts


def load_cache(path: str | Path, corpus_digest: str | None = None,
               terms_checksum: str | None = None,
               mode: CountMode | None = None) -> VectorCache:
    """Load a cache, verifying it matches the active corpus, term table and
    count mode; a cache without a mode line counts documents.

    Passing None for a digest or the mode skips that check (trust the
    cache header).
    """
    path = Path(path)
    lines = read_utf8(path).splitlines()
    if not lines or lines[0] != _MAGIC:
        raise DataFormatError(f"{path} is not a relsim vector cache")
    header = {}
    body_start = 1
    for line in lines[1:]:
        if not line.startswith("# ") or "\t" in line:  # a pair key may start with "# "
            break
        body_start += 1
        k, _, v = line[2:].partition(": ")
        if k not in ("corpus", "terms", "mode") or k in header:
            raise DataFormatError(f"{path}:{body_start}: unknown or repeated header line {line!r}")
        header[k] = v
    header.setdefault("mode", CountMode.DOCUMENT_HITS.value)
    for field_name, expected in (("corpus", corpus_digest), ("terms", terms_checksum),
                                 ("mode", None if mode is None else mode.value)):
        found = header.get(field_name, "<missing>")
        if expected is not None and found != expected:
            raise CacheProvenanceError(
                f"{path}: {field_name} provenance mismatch: cache has {found}, "
                f"active configuration has {expected}")
    try:
        cache = VectorCache(header.get("corpus", ""), header.get("terms", ""),
                            mode=CountMode(header["mode"]))
    except ValueError:
        raise DataFormatError(f"{path}: unknown count mode {header['mode']!r}") from None
    body = lines[body_start:]
    for start in range(0, len(body), _BLOCK):
        block = body[start:start + _BLOCK]
        if _put_block(cache, block):
            continue
        for lineno, line in enumerate(block, body_start + start + 1):
            try:
                _put_row(cache, line)
            except ValueError as e:
                raise DataFormatError(f"{path}:{lineno}: {e}") from e
    return cache


def _put_row(cache: VectorCache, line: str) -> None:
    """Store a body line's row, or skip a blank line. This is the one
    statement of the row format; _put_block only reads faster the rows it
    accepts."""
    if not line.strip():
        return
    key, _, text = line.partition("\t")
    if WordPair.from_key(key) in cache:  # from_key checks the key first
        raise ValueError(f"repeated key {key!r}")
    cache.entries[key] = _full_row(_row_counts(text))


def _put_block(cache: VectorCache, lines: list[str]) -> bool:
    """Store the rows of `lines` and return True when _put_row would accept
    every line and read each count within int64; otherwise store nothing and
    return False. The counts are checked in a few numpy passes over their
    ASCII bytes and parsed by one np.fromstring."""
    rows = [line.partition("\t") for line in lines if line.strip()]
    if not rows:
        return True
    keys = [key for key, _, _ in rows]
    try:
        for key in keys:
            WordPair.from_key(key)
    except ValueError:
        return False
    if len(set(keys)) < len(keys) or not cache.entries.keys().isdisjoint(keys):
        return False
    text = "".join([counts + "\n" for _, _, counts in rows])
    if not text.isascii():
        return False
    data = text.encode("ascii")
    b = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(b < ord("0"))  # the tab or newline after each field
    if len(ends) != VECTOR_LEN * len(rows) or (b > ord("9")).any():
        return False
    # A row's text holds no newline but the one joined after it, so with
    # tabs before every 128th separator each row holds 128 fields.
    seps = b[ends].reshape(len(rows), VECTOR_LEN)
    starts = np.concatenate(([0], ends[:-1] + 1))
    digits = ends - starts
    if ((seps[:, :-1] != ord("\t")).any() or (digits < 1).any()
            or (digits > _MAX_DIGITS).any() or ((b[starts] == ord("0")) & (digits > 1)).any()):
        return False
    counts = np.fromstring(data, dtype=np.int64, sep="\t").reshape(len(rows), VECTOR_LEN)
    cache.entries.update(zip(keys, map(tuple, counts.tolist())))
    return True
