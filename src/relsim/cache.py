"""On-disk cache of raw hit counts, keyed by word pair.

Raw counts (integers, not logs) are persisted so the transform can change
without re-querying. The cache records the corpus digest, joining-term
checksum and count mode it was built with and refuses to load under a
different configuration.

A cache holds each row as its line, the text save writes for it, so
membership, equality and save read no counts. load_cache checks the counts of
a block of rows at a time with numpy, and reads a block that fails a check row
by row, so that a bad row's error names its line and a count too long for
int64 is still read exactly. Both paths accept a row only in the form save
writes, and keep its line; a block's counts are parsed only when something
first reads entries, so relsim vectors parses none of the rows it writes back.
"""

from __future__ import annotations

import re
import struct
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import CacheProvenanceError, DataFormatError
from .fileio import atomic_write, read_utf8
from .index import CountMode
from .terms import TERM_COUNT
from .vectors import MAX_COUNT, RelationVector, WordPair, hit_counts

_MAGIC = "# relsim-vector-cache v1"
VECTOR_LEN = 2 * TERM_COUNT
_ROW = "\t".join(["%d"] * VECTOR_LEN)  # a row's counts as save writes them: str() of each
_BLOCK = 64  # body lines that load_cache checks at once, and entries parses
_MAX_DIGITS = 18  # a count of at most 18 digits fits int64
_COUNT_DIGITS = len(str(MAX_COUNT))
_INT64_ROW = struct.Struct(f"={VECTOR_LEN}q")  # a row of int64 counts, unpacked to a tuple of ints
# An ASCII key "x:y" whose members each hold a letter or digit, one per line:
# WordPair's rule for ASCII keys. The text before a member's first letter or
# digit holds none, so each line matches in one way only and a bad key fails
# in linear time.
_MEMBER = "[^:\nA-Za-z0-9]*[A-Za-z0-9][^:\n]*"
_KEYS = re.compile(f"(?:{_MEMBER}:{_MEMBER}\n)*{_MEMBER}:{_MEMBER}")


class VectorCache:
    """Raw counts by pair key, in load order and then put order, with the
    corpus digest, term checksum and count mode they were counted under.
    A row is held as its line, which put replaces; entries is a read-only
    view of the counts, parsed on first read. Equality compares lines."""

    def __init__(self, corpus_digest: str, terms_checksum: str, *,
                 mode: CountMode = CountMode.DOCUMENT_HITS) -> None:
        self.corpus_digest = corpus_digest
        self.terms_checksum = terms_checksum
        self.mode = mode
        self._lines: dict[str, str] = {}  # key -> the line save writes for its row
        self._rows: dict[str, tuple[int, ...]] = {}  # key -> counts, for the lines parsed so far

    @property
    def entries(self) -> Mapping[str, tuple[int, ...]]:
        """The rows by key, read-only."""
        return MappingProxyType(self._parsed())

    def _parsed(self) -> dict[str, tuple[int, ...]]:
        """_rows, after the first read parses the lines not parsed yet, _BLOCK at a time."""
        if len(self._rows) < len(self._lines):
            unparsed = [key for key in self._lines if key not in self._rows]
            for start in range(0, len(unparsed), _BLOCK):
                keys = unparsed[start:start + _BLOCK]
                self._rows.update(zip(keys, _parse_block([self._lines[key] for key in keys])))
            # Rows of the row path, and rows put over unparsed lines, went in
            # ahead of their place; take the lines' order.
            self._rows = {key: self._rows[key] for key in self._lines}
        return self._rows

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.corpus_digest, self.terms_checksum, self._lines, self.mode)
                == (other.corpus_digest, other.terms_checksum, other._lines, other.mode))

    __hash__ = None  # mutable, as a dataclass with eq

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(corpus_digest={self.corpus_digest!r}, "
                f"terms_checksum={self.terms_checksum!r}, entries={dict(self.entries)!r}, "
                f"mode={self.mode!r})")

    def __contains__(self, pair: WordPair) -> bool:
        return pair.key() in self._lines

    def put(self, pair: WordPair, raw: Sequence[int]) -> None:
        """Store VECTOR_LEN counts (hit_counts' rule) as a tuple, lighter than
        a RelationVector, and as the line save writes for them."""
        key = pair.key()
        row = self._rows[key] = _full_row(hit_counts(raw))
        self._lines[key] = key + "\t" + _ROW % row

    def vector(self, pair: WordPair) -> RelationVector:
        """The stored row as a vector; put or load_cache checked it already."""
        return RelationVector.from_counts(pair, self._parsed()[pair.key()])

    def vectors_for(self, pairs: Sequence[WordPair]) -> dict[str, RelationVector]:
        """Each pair's vector by key; a pair the cache lacks is a
        DataFormatError that names every such pair."""
        missing = sorted({p.key() for p in pairs if p not in self})
        if missing:
            raise DataFormatError("missing cached vectors for pairs: " + ", ".join(missing))
        return {p.key(): self.vector(p) for p in pairs}

    def save(self, path: str | Path) -> None:
        lines = [_MAGIC,
                 f"# corpus: {self.corpus_digest}",
                 f"# terms: {self.terms_checksum}"]
        # Document caches keep the bytes they had before caches recorded a mode.
        if self.mode is not CountMode.DOCUMENT_HITS:
            lines.append(f"# mode: {self.mode.value}")
        lines += [self._lines[key] for key in sorted(self._lines)]
        lines.append("")  # the last line's newline, without a second copy of the text
        with atomic_write(path) as f:
            f.write("\n".join(lines).encode("utf-8"))


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
    """Store a body line and its counts, or skip a blank line. This is the
    one statement of the row format; _put_block only reads faster the rows
    it accepts."""
    if not line.strip():
        return
    key, _, text = line.partition("\t")
    if WordPair.from_key(key) in cache:  # from_key checks the key first
        raise ValueError(f"repeated key {key!r}")
    cache._rows[key] = _full_row(_row_counts(text))
    cache._lines[key] = line


def _put_block(cache: VectorCache, lines: list[str]) -> bool:
    """Store the non-blank `lines` unparsed and return True when _put_row
    would accept every line and read each count within int64; otherwise
    store nothing and return False. The counts are checked in a few numpy
    passes over their ASCII bytes; _parse_block parses them on the first read."""
    lines = [line for line in lines if line.strip()]
    if not lines:
        return True
    rows = [line.partition("\t") for line in lines]
    keys = [key for key, _, _ in rows]
    joined = "\n".join(keys)
    if not (joined.isascii() and _KEYS.fullmatch(joined)):
        try:
            for key in keys:
                WordPair.from_key(key)
        except ValueError:
            return False
    if len(set(keys)) < len(keys) or not cache._lines.keys().isdisjoint(keys):
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
    cache._lines.update(zip(keys, lines))
    return True


def _parse_block(lines: list[str]) -> list[tuple[int, ...]]:
    """The counts of body lines that _put_block accepted, by one np.fromstring
    over their count text. struct unpacks each row of the matrix straight to
    a tuple of ints, in about half the time of tolist and tuple."""
    text = "".join([line.partition("\t")[2] + "\n" for line in lines])
    counts = np.fromstring(text, dtype=np.int64, sep="\t").reshape(len(lines), VECTOR_LEN)
    return list(_INT64_ROW.iter_unpack(counts))
