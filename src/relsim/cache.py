"""On-disk cache of raw hit counts, keyed by word pair.

Raw counts (integers, not logs) are persisted so the transform can change
without re-querying. The cache records the corpus digest, joining-term
checksum and count mode it was built with and refuses to load under a
different configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import CacheProvenanceError, DataFormatError
from .fileio import atomic_write, read_utf8
from .index import CountMode
from .terms import TERM_COUNT
from .vectors import RelationVector, WordPair, hit_counts

_MAGIC = "# relsim-vector-cache v1"
VECTOR_LEN = 2 * TERM_COUNT


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
            lines.append(key + "\t" + "\t".join(str(c) for c in self.entries[key]))
        with atomic_write(path) as f:
            f.write(("\n".join(lines) + "\n").encode("utf-8"))


def _row_counts(text: str) -> tuple[int, ...]:
    """The counts of a row as save writes them: ASCII digits without a leading zero."""
    try:  # JSON integers have no leading zero; one json.loads beats int() per field
        if text.isascii() and text.replace("\t", "").isdigit():
            return tuple(json.loads("[" + text.replace("\t", ",") + "]"))
    except ValueError:
        pass
    raise ValueError("hit counts must be ASCII digits without leading zeros")


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
    for lineno, line in enumerate(lines[body_start:], body_start + 1):
        if not line.strip():
            continue
        key, _, text = line.partition("\t")
        try:
            if WordPair.from_key(key) in cache:  # from_key checks the key first
                raise ValueError(f"repeated key {key!r}")
            cache.entries[key] = _full_row(_row_counts(text))
        except ValueError as e:
            raise DataFormatError(f"{path}:{lineno}: {e}") from e
    return cache
