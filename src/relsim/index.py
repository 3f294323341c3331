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
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DuplicateDocIdError, DataFormatError, PhraseSyntaxError

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Embedded wildcard matches at most this many characters.
MAX_GAP = 5
# Minimum alphabetic characters required before an embedded wildcard.
MIN_WILDCARD_PREFIX = 3


def tokenize(text: str) -> list[str]:
    """Split text into lowercase alphanumeric tokens.

    A token is a maximal run of letters/digits; everything else separates.
    Apostrophes separate too, so a possessive like "dog's" yields
    ["dog", "s"].
    """
    return _TOKEN_RE.findall(text.lower())


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


def parse_phrase(q: str) -> PhraseQuery:
    """Parse a whitespace-separated phrase query string."""
    patterns: list[TokenPattern] = []
    for unit in q.lower().split():
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
    if not patterns:
        raise PhraseSyntaxError("phrase query is empty")
    return PhraseQuery(tuple(patterns))


class CountMode(enum.Enum):
    DOCUMENT_HITS = "document"
    OCCURRENCES = "occurrence"


@dataclass
class HitCount:
    count: int
    mode: CountMode


@dataclass
class PositionalIndex:
    """Immutable after construction; concurrent queries are safe."""

    postings: dict[str, list[tuple[int, int]]]
    doc_lengths: dict[int, int]
    corpus_digest: str
    _sorted_vocab: list[str] = field(default_factory=list, repr=False)
    _by_doc: dict[str, dict[int, set[int]]] = field(default_factory=dict, repr=False)
    _wildcard_terms: dict[tuple[str, str], list[str]] = field(default_factory=dict, repr=False)

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)

    @property
    def vocabulary_size(self) -> int:
        return len(self.postings)

    @property
    def token_count(self) -> int:
        return sum(self.doc_lengths.values())

    def sorted_vocab(self) -> list[str]:
        if len(self._sorted_vocab) != len(self.postings):
            self._sorted_vocab = sorted(self.postings)
        return self._sorted_vocab

    def matching_terms(self, pattern: TokenPattern) -> list[str]:
        """Vocabulary tokens matched by a literal or substring pattern."""
        if pattern.kind is PatternKind.LITERAL:
            return [pattern.text] if pattern.text in self.postings else []
        if pattern.kind is PatternKind.ANY_WORD:
            raise ValueError("any-word pattern matches every token")
        key = (pattern.prefix, pattern.suffix)
        cached = self._wildcard_terms.get(key)
        if cached is None:
            vocab = self.sorted_vocab()
            lo = bisect.bisect_left(vocab, pattern.prefix)
            hi = bisect.bisect_right(vocab, pattern.prefix + "\U0010ffff")
            cached = [t for t in vocab[lo:hi] if match_token(pattern, t)]
            self._wildcard_terms[key] = cached
        return cached

    def positions_by_doc(self, token: str) -> dict[int, set[int]]:
        grouped = self._by_doc.get(token)
        if grouped is None:
            grouped = {}
            for doc_id, pos in self.postings.get(token, ()):
                grouped.setdefault(doc_id, set()).add(pos)
            self._by_doc[token] = grouped
        return grouped


def build_index(docs: list[Document] | tuple[Document, ...]) -> PositionalIndex:
    """Build a positional inverted index; deterministic for a given corpus."""
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: dict[int, int] = {}
    digest = hashlib.sha256()
    for doc in docs:
        if doc.doc_id in doc_lengths:
            raise DuplicateDocIdError(f"duplicate doc_id {doc.doc_id}")
        doc_lengths[doc.doc_id] = len(doc.tokens)
        digest.update(str(doc.doc_id).encode())
        for pos, token in enumerate(doc.tokens):
            digest.update(b"\x00")
            digest.update(token.encode())
            postings.setdefault(token, []).append((doc.doc_id, pos))
        digest.update(b"\x01")
    for plist in postings.values():
        plist.sort()
    return PositionalIndex(postings, doc_lengths, digest.hexdigest())


def count_hits(index: PositionalIndex, q: PhraseQuery,
               mode: CountMode = CountMode.DOCUMENT_HITS) -> HitCount:
    """Count matches of a phrase against every document independently.

    Matches may overlap; each starting position counts once in occurrence
    mode. Document mode counts documents with at least one match.
    """
    n = len(q.patterns)
    # Per non-wildcard pattern: merged doc -> position-set map.
    maps: list[dict[int, set[int]] | None] = []
    sizes: list[int] = []
    for pat in q.patterns:
        if pat.kind is PatternKind.ANY_WORD:
            maps.append(None)
            sizes.append(-1)
            continue
        terms = index.matching_terms(pat)
        if len(terms) == 1:
            merged = index.positions_by_doc(terms[0])
        else:
            merged = {}
            for term in terms:
                for doc_id, pos_set in index.positions_by_doc(term).items():
                    merged.setdefault(doc_id, set()).update(pos_set)
        maps.append(merged)
        sizes.append(sum(len(s) for s in merged.values()))

    anchored = [(sz, i) for i, sz in enumerate(sizes) if sz >= 0]
    anchor_size, anchor = min(anchored)
    if anchor_size == 0:
        return HitCount(0, mode)

    occurrences = 0
    docs_hit: set[int] = set()
    empty: set[int] = set()
    anchor_map = maps[anchor]
    assert anchor_map is not None
    for doc_id in sorted(anchor_map):
        doc_len = index.doc_lengths[doc_id]
        for pos in anchor_map[doc_id]:
            start = pos - anchor
            if start < 0 or start + n > doc_len:
                continue
            ok = True
            for j in range(n):
                if j == anchor or maps[j] is None:
                    continue
                if (start + j) not in maps[j].get(doc_id, empty):
                    ok = False
                    break
            if ok:
                occurrences += 1
                docs_hit.add(doc_id)
                if mode is CountMode.DOCUMENT_HITS:
                    break  # one match per document suffices
    if mode is CountMode.DOCUMENT_HITS:
        return HitCount(len(docs_hit), mode)
    return HitCount(occurrences, mode)


# ---------------------------------------------------------------------------
# Corpus loading and index persistence

DOC_SEPARATOR = "%%"


def _read_utf8(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") \
            from None


def load_corpus(path: str | Path) -> list[Document]:
    """Load a corpus from a directory of text files or a single %%-separated file.

    Directory: one document per file, doc_ids assigned by lexicographic
    filename order. Single file: documents separated by a line containing
    only "%%".
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        return [Document(i, tuple(tokenize(_read_utf8(p))))
                for i, p in enumerate(files)]
    if not path.is_file():
        raise DataFormatError(f"corpus path not found: {path}")
    sections: list[list[str]] = [[]]
    for line in _read_utf8(path).splitlines():
        if line.strip() == DOC_SEPARATOR:
            sections.append([])
        else:
            sections[-1].append(line)
    return [Document(i, tuple(tokenize("\n".join(sec))))
            for i, sec in enumerate(sections)]


def save_index(index: PositionalIndex, path: str | Path) -> None:
    payload = {
        "format": "relsim-index-v1",
        "corpus_digest": index.corpus_digest,
        "doc_lengths": {str(k): v for k, v in index.doc_lengths.items()},
        "postings": {t: [[d, p] for d, p in plist]
                     for t, plist in index.postings.items()},
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")),
        encoding="utf-8",
    )


def load_index(path: str | Path) -> PositionalIndex:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise DataFormatError(f"cannot read index file {path}: {e}") from e
    if payload.get("format") != "relsim-index-v1":
        raise DataFormatError(f"{path} is not a relsim index file")
    postings = {t: [(d, p) for d, p in plist]
                for t, plist in payload["postings"].items()}
    doc_lengths = {int(k): v for k, v in payload["doc_lengths"].items()}
    return PositionalIndex(postings, doc_lengths, payload["corpus_digest"])
