"""Tokenization, positional inverted index, and wildcard phrase-query counting.

The index answers quoted-phrase queries with two wildcard forms:

* a standalone ``*`` matches exactly one whole token (not allowed in first
  or last position of the phrase);
* an embedded ``*`` inside a unit matches zero to five characters, and must
  be preceded by at least three alphabetic characters.

Counting defaults to document hits (number of documents containing at least
one match); occurrence counting is available as a mode.
"""

from __future__ import annotations

import bisect
import enum
import hashlib
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DuplicateDocIdError, InputError, PhraseSyntaxError
from .fileio import atomic_write, read_utf8

# Byte table for tokenize: a-z and 0-9 stay, every other byte becomes a space.
SEPARATORS = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else ord(" ")
                   for b in range(256))

# Embedded wildcard matches at most this many characters.
MAX_GAP = 5
# Minimum alphabetic characters required before an embedded wildcard.
MIN_WILDCARD_PREFIX = 3


def tokenize(text: str) -> list[str]:
    """Split text into lowercase alphanumeric tokens.

    A token is a maximal run of the ASCII characters a-z and 0-9 after
    str.lower(); any other character separates. So "CAFÉ" yields ["caf"],
    and a possessive like "dog's" yields ["dog", "s"].

    Every non-ASCII character encodes to bytes of 0x80 and up, which the
    table maps to spaces; "replace" turns a lone surrogate into "?", a
    separator too.
    """
    return text.lower().encode("utf-8", "replace").translate(SEPARATORS).decode("ascii").split()


@dataclass(frozen=True)
class Document:
    doc_id: int
    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.doc_id < 0:
            raise ValueError(f"doc_id must be non-negative, got {self.doc_id}")
        object.__setattr__(self, "tokens", tuple(self.tokens))


class PatternKind(enum.Enum):
    LITERAL = "literal"
    ANY_WORD = "any_word"
    SUBSTRING = "substring"


@dataclass(frozen=True)
class TokenPattern:
    kind: PatternKind
    text: str = ""  # literal token
    prefix: str = ""  # substring wildcard pieces
    suffix: str = ""

    @staticmethod
    def literal(token: str) -> "TokenPattern":
        return TokenPattern(PatternKind.LITERAL, text=token)

    @staticmethod
    def any_word() -> "TokenPattern":
        return TokenPattern(PatternKind.ANY_WORD)

    @staticmethod
    def substring(prefix: str, suffix: str) -> "TokenPattern":
        if sum(c.isalpha() for c in prefix) < MIN_WILDCARD_PREFIX:
            raise PhraseSyntaxError(
                f"embedded wildcard needs >= {MIN_WILDCARD_PREFIX} alphabetic "
                f"characters before it: {prefix + '*' + suffix!r}"
            )
        return TokenPattern(PatternKind.SUBSTRING, prefix=prefix, suffix=suffix)


def match_token(pattern: TokenPattern, token: str) -> bool:
    """Does a single token satisfy a single pattern?"""
    if pattern.kind is PatternKind.LITERAL:
        return token == pattern.text
    if pattern.kind is PatternKind.ANY_WORD:
        return True
    gap = len(token) - len(pattern.prefix) - len(pattern.suffix)
    if gap < 0 or gap > MAX_GAP:
        return False
    return token.startswith(pattern.prefix) and token.endswith(pattern.suffix)


@dataclass(frozen=True)
class PhraseQuery:
    patterns: tuple[TokenPattern, ...]

    def __post_init__(self):
        if not self.patterns:
            raise PhraseSyntaxError("phrase query is empty")
        if self.patterns[0].kind is PatternKind.ANY_WORD:
            raise PhraseSyntaxError("'*' may not be the first unit of a phrase")
        if self.patterns[-1].kind is PatternKind.ANY_WORD:
            raise PhraseSyntaxError("'*' may not be the last unit of a phrase")

    def __len__(self) -> int:
        return len(self.patterns)


def parse_units(text: str) -> tuple[TokenPattern, ...]:
    """Parse whitespace-separated units into patterns; empty text gives none.

    Unlike parse_phrase, a standalone '*' may come first or last, so a
    joining term such as "* not" parses on its own.
    """
    patterns: list[TokenPattern] = []
    for unit in text.lower().split():
        if unit == "*":
            patterns.append(TokenPattern.any_word())
        elif "*" in unit:
            if unit.count("*") != 1:
                raise PhraseSyntaxError(f"more than one '*' in unit {unit!r}")
            prefix, suffix = unit.split("*")
            patterns.append(TokenPattern.substring(prefix, suffix))
        else:
            # Normalize the unit through the tokenizer; punctuation inside a
            # literal ("don't") expands to its constituent tokens.
            toks = tokenize(unit)
            if not toks:
                raise PhraseSyntaxError(f"unit {unit!r} contains no token characters")
            patterns.extend(TokenPattern.literal(t) for t in toks)
    return tuple(patterns)


def parse_phrase(q: str) -> PhraseQuery:
    """Parse a whitespace-separated phrase query string."""
    return PhraseQuery(parse_units(q))


class CountMode(enum.Enum):
    DOCUMENT_HITS = "document"
    OCCURRENCES = "occurrence"


@dataclass
class HitCount:
    count: int
    mode: CountMode


# Positions are int32, so a corpus holds fewer than 2**31 tokens.
MAX_TOKENS = 2**31 - 1


@dataclass(frozen=True, eq=False)
class PositionalIndex:
    """Positional inverted index; immutable, so concurrent queries are safe.

    Documents lie end to end in doc_id order, and a token's global position
    is its document's start plus its offset within the document.
    ``positions[offsets[t]:offsets[t + 1]]`` holds the ascending global
    positions of ``vocab[t]``, and ``vocab`` is sorted.
    """

    vocab: tuple[str, ...]
    offsets: np.ndarray  # int64, len(vocab) + 1
    positions: np.ndarray  # int32, one per corpus token
    doc_ids: np.ndarray  # int64, ascending
    doc_starts: np.ndarray  # int64, global position of each document's first token
    doc_lens: np.ndarray  # int64, tokens per document
    corpus_digest: str

    def __post_init__(self):
        for a in (self.offsets, self.positions, self.doc_ids, self.doc_starts, self.doc_lens):
            a.flags.writeable = False

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def vocabulary_size(self) -> int:
        return len(self.vocab)

    @property
    def token_count(self) -> int:
        return len(self.positions)

    @property
    def doc_lengths(self) -> dict[int, int]:
        """doc_id -> token count, built on each access."""
        return dict(zip(self.doc_ids.tolist(), self.doc_lens.tolist()))

    @property
    def postings(self) -> Mapping[str, list[tuple[int, int]]]:
        """Read-only view: token -> ascending (doc_id, offset) list, built
        only for the token looked up."""
        return _Postings(self)

    def term_id(self, token: str) -> int | None:
        i = bisect.bisect_left(self.vocab, token)
        return i if i < len(self.vocab) and self.vocab[i] == token else None

    def term_positions(self, term_id: int) -> np.ndarray:
        return self.positions[self.offsets[term_id]:self.offsets[term_id + 1]]

    def doc_index(self, positions: np.ndarray) -> np.ndarray:
        """Row in the document arrays of the document holding each position."""
        return np.searchsorted(self.doc_starts, positions, side="right") - 1

    def token_classes(self, term_class: np.ndarray) -> np.ndarray:
        """The class of the token at each global position: term_class[t]
        for a position in term t's postings, in term_class's dtype. Each
        class must be nonzero. Built anew on each call.

        Every position must lie in exactly one term's postings. load_index
        does not check that, as it would cost about half a load; here a
        position that no term covers (so another is listed twice) raises
        DataFormatError."""
        classes = np.zeros(self.token_count, dtype=term_class.dtype)
        classes[self.positions] = np.repeat(term_class, np.diff(self.offsets))
        if not classes.all():
            raise DataFormatError("index positions do not cover the corpus: a position lies "
                                  "in no term's postings; rebuild the index with "
                                  "`relsim index build`")
        return classes

    def unit_term_ids(self, pattern: TokenPattern) -> list[int]:
        """Ascending ids of the terms a literal or substring pattern matches."""
        if pattern.kind is PatternKind.LITERAL:
            i = self.term_id(pattern.text)
            return [] if i is None else [i]
        if pattern.kind is PatternKind.ANY_WORD:
            raise ValueError("any-word pattern matches every token")
        lo = bisect.bisect_left(self.vocab, pattern.prefix)
        hi = bisect.bisect_right(self.vocab, pattern.prefix + "\U0010ffff")
        return [i for i in range(lo, hi) if match_token(pattern, self.vocab[i])]

    def matching_terms(self, pattern: TokenPattern) -> list[str]:
        """Vocabulary tokens matched by a literal or substring pattern."""
        return [self.vocab[i] for i in self.unit_term_ids(pattern)]

    def unit_positions(self, pattern: TokenPattern) -> np.ndarray:
        """Ascending global positions of the tokens a literal or substring
        pattern matches."""
        ids = self.unit_term_ids(pattern)
        if len(ids) == 1:
            return self.term_positions(ids[0])
        if not ids:
            return self.positions[:0]
        return np.sort(np.concatenate([self.term_positions(i) for i in ids]))


class _Postings(Mapping):
    __slots__ = ("_index",)

    def __init__(self, index: PositionalIndex):
        self._index = index

    def __getitem__(self, token: str) -> list[tuple[int, int]]:
        ix = self._index
        t = ix.term_id(token) if isinstance(token, str) else None
        if t is None:
            raise KeyError(token)
        pos = ix.term_positions(t)
        doc = ix.doc_index(pos)
        return list(zip(ix.doc_ids[doc].tolist(), (pos - ix.doc_starts[doc]).tolist()))

    def __contains__(self, token) -> bool:
        return isinstance(token, str) and self._index.term_id(token) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self._index.vocab)

    def __len__(self) -> int:
        return len(self._index.vocab)


def build_index(docs: Sequence[Document]) -> PositionalIndex:
    """Build a positional inverted index; deterministic for a given corpus.

    The corpus digest covers the documents in the order given.
    """
    digest = hashlib.sha256()
    for doc in docs:
        digest.update((str(doc.doc_id) + ("\x00" + "\x00".join(doc.tokens) if doc.tokens else "")
                       + "\x01").encode())
    ordered = sorted(docs, key=lambda d: d.doc_id)
    for a, b in zip(ordered, ordered[1:]):
        if a.doc_id == b.doc_id:
            raise DuplicateDocIdError(f"duplicate doc_id {a.doc_id}")
    doc_lens = np.array([len(d.tokens) for d in ordered], dtype=np.int64)
    n = int(doc_lens.sum())
    if n > MAX_TOKENS:
        raise InputError(f"corpus has {n} tokens; an index holds at most {MAX_TOKENS}")
    vocab = sorted(set().union(*(d.tokens for d in ordered)))
    term_of = {t: i for i, t in enumerate(vocab)}
    term_ids = np.fromiter(map(term_of.__getitem__, chain.from_iterable(d.tokens for d in ordered)),
                           dtype=np.int32, count=n)
    positions = sort_by_term(term_ids)
    offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_ids, minlength=len(vocab)), out=offsets[1:])
    return PositionalIndex(tuple(vocab), offsets, positions,
                           np.array([d.doc_id for d in ordered], dtype=np.int64),
                           np.cumsum(doc_lens) - doc_lens, doc_lens, digest.hexdigest())


def sort_by_term(term_ids: np.ndarray) -> np.ndarray:
    """The positions sorted by term id, each term's ascending (int32):
    np.argsort(term_ids, kind="stable"), done as a least-significant-digit
    radix sort. NumPy's stable sort is a radix sort for keys of 16 bits or
    fewer, so the ids are sorted by their low 16 bits, then, when any id
    is 2**16 or more, stably by their high 16 bits."""
    positions = np.argsort(term_ids.astype(np.uint16), kind="stable").astype(np.int32)
    if len(term_ids) and term_ids.max() >= 2**16:
        high = (term_ids[positions] >> 16).astype(np.uint16)
        positions = positions[np.argsort(high, kind="stable")]
    return positions


def in_sorted(sorted_values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mask of the elements of x found in sorted_values, by binary search."""
    if not len(sorted_values):
        return np.zeros(len(x), dtype=bool)
    i = sorted_values.searchsorted(x)
    return sorted_values[np.minimum(i, len(sorted_values) - 1)] == x


def match_starts(index: PositionalIndex, units: Sequence[np.ndarray | None]) -> np.ndarray:
    """Ascending global positions s at which each unit j holds s + j, given
    for each unit the ascending global positions it matches (None for a
    standalone '*', which holds any position). The span may cross a
    document end; see whole_matches.

    The smallest unit's positions, shifted back by its offset in the
    phrase, are the candidate starts; each other unit keeps the starts it
    matches at its own offset.
    """
    n = len(units)
    anchor = min((len(u), j) for j, u in enumerate(units) if u is not None)[1]
    starts = units[anchor] - anchor
    # In range, so that no start + j below overflows int32.
    starts = starts[(starts >= 0) & (starts <= index.token_count - n)]
    for j, unit in enumerate(units):
        if unit is not None and j != anchor and len(starts):
            starts = starts[in_sorted(unit, starts + j)]
    return starts


def whole_matches(index: PositionalIndex, starts: np.ndarray,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """The starts whose n-token span ends in the document it starts in,
    and the row in the document arrays of that document."""
    doc = index.doc_index(starts)
    inside = starts + n <= index.doc_starts[doc] + index.doc_lens[doc]
    return starts[inside], doc[inside]


def tally(doc: np.ndarray, mode: CountMode) -> int:
    """The count of matches given the document row of each one, ascending."""
    if mode is CountMode.OCCURRENCES or len(doc) < 2:
        return len(doc)
    return int(np.count_nonzero(doc[1:] != doc[:-1])) + 1


def count_hits(index: PositionalIndex, q: PhraseQuery,
               mode: CountMode = CountMode.DOCUMENT_HITS) -> HitCount:
    """Count matches of a phrase against every document independently.

    Matches may overlap; each starting position counts once in occurrence
    mode. Document mode counts documents with at least one match; a match
    must end in the document it starts in.
    """
    units = [None if p.kind is PatternKind.ANY_WORD else index.unit_positions(p)
             for p in q.patterns]
    starts = match_starts(index, units)
    return HitCount(tally(whole_matches(index, starts, len(units))[1], mode), mode)


# ---------------------------------------------------------------------------
# Corpus loading and index persistence

DOC_SEPARATOR = "%%"


def load_corpus(path: str | Path) -> list[Document]:
    """Load a corpus from a directory of text files or a single %%-separated file.

    Directory: one document per file, doc_ids assigned by lexicographic
    filename order. Single file: documents separated by a line containing
    only "%%". Every document holds one shared str per distinct token.
    """
    path = Path(path)
    if path.is_dir():
        texts = (read_utf8(f) for f in sorted(f for f in path.iterdir() if f.is_file()))
    elif path.is_file():
        lines = read_utf8(path).splitlines()
        cuts = [-1, *(i for i, line in enumerate(lines) if line.strip() == DOC_SEPARATOR),
                len(lines)]
        texts = ("\n".join(lines[a + 1:b]) for a, b in zip(cuts, cuts[1:]))
    else:
        raise DataFormatError(f"corpus path not found: {path}")
    seen: dict[str, str] = {}
    return [Document(i, tuple(map(seen.setdefault, toks, toks)))
            for i, toks in enumerate(map(tokenize, texts))]


INDEX_MAGIC = b"relsim-index-v2\n"
# Name and dtype of each array of an index file, in file order.
_FILE_ARRAYS = (("corpus_digest", np.uint8), ("vocab_text", np.uint8),
                ("vocab_ends", np.int64), ("offsets", np.int64),
                ("positions", np.int32), ("doc_ids", np.int64),
                ("doc_starts", np.int64), ("doc_lens", np.int64))


def save_index(index: PositionalIndex, path: str | Path) -> None:
    """Write the index to `path`: the magic line, then each array of
    `_FILE_ARRAYS` in .npy form. The vocabulary is stored as its
    concatenated UTF-8 text plus each term's end, counted in characters."""
    arrays = {
        "corpus_digest": np.frombuffer(index.corpus_digest.encode(), dtype=np.uint8),
        "vocab_text": np.frombuffer("".join(index.vocab).encode(), dtype=np.uint8),
        "vocab_ends": np.cumsum([len(t) for t in index.vocab], dtype=np.int64),
        "offsets": index.offsets, "positions": index.positions,
        "doc_ids": index.doc_ids, "doc_starts": index.doc_starts, "doc_lens": index.doc_lens,
    }
    with atomic_write(path) as f:
        f.write(INDEX_MAGIC)
        for name, _ in _FILE_ARRAYS:
            np.lib.format.write_array(f, arrays[name], allow_pickle=False)


def load_index(path: str | Path) -> PositionalIndex:
    """Read an index written by `save_index`, checking that its arrays are
    consistent; any fault raises DataFormatError. That the positions cover
    the corpus once each is left to PositionalIndex.token_classes."""
    try:
        with Path(path).open("rb") as f:
            magic = f.read(len(INDEX_MAGIC))
            if magic[:1] == b"{":
                raise DataFormatError(
                    f"{path} is a relsim-index-v1 (JSON) file, a format no longer read; "
                    "rebuild the index with `relsim index build`")
            if magic != INDEX_MAGIC:
                raise DataFormatError(f"{path} is not a relsim index file")
            arrays = {name: np.lib.format.read_array(f, allow_pickle=False)
                      for name, _ in _FILE_ARRAYS}
            if f.read(1):
                raise DataFormatError(f"{path}: unexpected data after the last array")
            return _index_from_arrays(arrays, path)
    except (OSError, ValueError, EOFError) as e:
        raise DataFormatError(f"cannot read index file {path}: {e}") from None


def _index_from_arrays(a: dict[str, np.ndarray], path: str | Path) -> PositionalIndex:
    def fault(what: str) -> DataFormatError:
        return DataFormatError(f"{path}: {what}")

    for name, dtype in _FILE_ARRAYS:
        if a[name].dtype != np.dtype(dtype) or a[name].ndim != 1:
            raise fault(f"array {name} is not 1-D {np.dtype(dtype)}")
    text = a["vocab_text"].tobytes().decode("utf-8")
    bounds = np.concatenate(([0], a["vocab_ends"]))
    if np.any(np.diff(bounds) < 0) or bounds[-1] != len(text):
        raise fault("vocabulary ends do not cut the vocabulary text")
    bounds = bounds.tolist()
    vocab = tuple(text[s:e] for s, e in zip(bounds, bounds[1:]))
    if any(s >= t for s, t in zip(vocab, vocab[1:])):
        raise fault("vocabulary is not sorted and unique")
    offsets, positions = a["offsets"], a["positions"]
    n = len(positions)
    if len(offsets) != len(vocab) + 1 or offsets[0] != 0 or offsets[-1] != n \
            or np.any(np.diff(offsets) < 0):
        raise fault("offsets do not cut the positions per term")
    if n and (positions.min() < 0 or positions.max() >= n):
        raise fault("a position lies outside the corpus")
    ascending = positions[1:] > positions[:-1]
    cuts = offsets[1:-1]
    ascending[cuts[(cuts > 0) & (cuts < n)] - 1] = True
    if not ascending.all():
        raise fault("a term's positions are not ascending")
    ids, starts, lens = a["doc_ids"], a["doc_starts"], a["doc_lens"]
    if not (len(ids) == len(starts) == len(lens)) or np.any(np.diff(ids) <= 0) \
            or (len(ids) and ids[0] < 0) or np.any(lens < 0) or int(lens.sum()) != n \
            or np.any(starts != np.cumsum(lens) - lens):
        raise fault("document arrays are inconsistent")
    return PositionalIndex(vocab, offsets, positions, ids, starts, lens,
                           a["corpus_digest"].tobytes().decode("ascii"))
