"""Relation vectors: stemming, query generation, log-frequency vectors, cosine.

A word pair (x, y) is characterized by the hit counts of 128 phrase queries:
for each of the 64 joining terms, "stem(x) term stem(y)" and
"stem(y) term stem(x)", in that order. Vector elements are ln(count + 1);
the log base is immaterial to cosines and natural log is fixed for
reproducible caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ProviderError
from .index import (CountMode, PatternKind, PositionalIndex, TokenPattern, count_matches,
                    parse_phrase, tokenize)

HitCountProvider = Callable[[str], int]

VECTOR_LENGTH_PER_TERM = 2


@dataclass(frozen=True)
class WordPair:
    """A word pair; multiword members use underscores ("shoot_down")."""

    x: str
    y: str

    def __post_init__(self):
        if not self.x or not self.y:
            raise ValueError("word pair members must be non-empty")

    def key(self) -> str:
        return f"{self.x}:{self.y}"

    def reversed(self) -> "WordPair":
        return WordPair(self.y, self.x)

    @staticmethod
    def from_key(key: str) -> "WordPair":
        parts = key.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad pair key {key!r}")
        return WordPair(parts[0], parts[1])


def stem(word: str) -> str:
    """Truncate a word to a wildcard pattern by length band.

    length > 10: last 4 characters become "*"; 8 < length <= 10: last 3
    become "*"; 2 < length <= 8: "*" appended; length <= 2: unchanged.
    Words whose stemmed prefix would carry fewer than three alphabetic
    characters are left unchanged so the result always parses as a query.
    """
    n = len(word)
    if n > 10:
        out = word[:-4] + "*"
    elif n > 8:
        out = word[:-3] + "*"
    elif n > 2:
        out = word + "*"
    else:
        return word
    if sum(c.isalpha() for c in out[:-1]) < 3:
        return word
    return out


def _member_pattern(member: str) -> str:
    """Query fragment for one pair member: its tokens ("x-ray" and "x_ray"
    give "x ray"), with only the final token stemmed."""
    tokens = tokenize(member)
    if not tokens:
        raise ValueError(f"pair member {member!r} has no token characters")
    return " ".join(tokens[:-1] + [stem(tokens[-1])])


def generate_queries(pair: WordPair, terms: Sequence[str]) -> list[str]:
    """The 2 * len(terms) phrase queries for a pair, in fixed order.

    Index 2j holds "stem(x) term_j stem(y)", index 2j+1 the reverse.
    """
    px = _member_pattern(pair.x)
    py = _member_pattern(pair.y)
    queries = []
    for term in terms:
        queries.append(" ".join(part for part in (px, term, py) if part))
        queries.append(" ".join(part for part in (py, term, px) if part))
    return queries


@dataclass
class RelationVector:
    pair: WordPair
    raw: tuple[int, ...]
    r: np.ndarray

    @staticmethod
    def from_raw(pair: WordPair, raw: Sequence[int]) -> "RelationVector":
        raw = tuple(int(c) for c in raw)
        if any(c < 0 for c in raw):
            raise ValueError("hit counts must be non-negative")
        return RelationVector(pair, raw, np.log1p(np.asarray(raw, dtype=float)))

    def is_zero(self) -> bool:
        return not any(self.raw)

    def __len__(self) -> int:
        return len(self.raw)


def build_vector(provider: HitCountProvider, pair: WordPair,
                 terms: Sequence[str]) -> RelationVector:
    """Query the provider for all 128 phrases and log-transform the counts."""
    raw = []
    for query in generate_queries(pair, terms):
        try:
            raw.append(int(provider(query)))
        except Exception as e:
            raise ProviderError(query, e) from e
    return RelationVector.from_raw(pair, raw)


def cosine(v1, v2) -> float:
    """Cosine of the angle between two vectors; 0 if either has zero norm."""
    a = np.asarray(v1.r if isinstance(v1, RelationVector) else v1, dtype=float)
    b = np.asarray(v2.r if isinstance(v2, RelationVector) else v2, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"vector length mismatch: {a.shape} vs {b.shape}")
    na = math.sqrt(float(a @ a))
    nb = math.sqrt(float(b @ b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b) / (na * nb)


class LocalIndexProvider:
    """Hit-count provider backed by a local positional index.

    Safe for concurrent queries. Counts are memoized per phrase string, and
    each unit's positions per unit, so a pair member's wildcard is expanded
    once, not in each of its 128 queries.
    """

    def __init__(self, index: PositionalIndex,
                 mode: CountMode = CountMode.DOCUMENT_HITS):
        self.index = index
        self.mode = mode
        self._memo: dict[str, int] = {}
        self._units: dict[TokenPattern, np.ndarray] = {}

    def _positions(self, pattern: TokenPattern) -> np.ndarray | None:
        if pattern.kind is PatternKind.ANY_WORD:
            return None
        found = self._units.get(pattern)
        if found is None:
            found = self._units[pattern] = self.index.unit_positions(pattern)
        return found

    def __call__(self, phrase: str) -> int:
        cached = self._memo.get(phrase)
        if cached is None:
            units = [self._positions(p) for p in parse_phrase(phrase).patterns]
            cached = self._memo[phrase] = count_matches(self.index, units, self.mode)
        return cached
