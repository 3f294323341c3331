"""Relation vectors: stemming, query generation, log-frequency vectors, cosine.

A word pair (x, y) is characterized by the hit counts of 128 phrase queries:
for each of the 64 joining terms, "stem(x) term stem(y)" and
"stem(y) term stem(x)", in that order. Vector elements are ln(count + 1);
the log base is immaterial to cosines and natural log is fixed for
reproducible caches.

The 128 phrases of a pair differ only in the term between the members, so
a local index counts them per pair rather than per phrase
(LocalIndexProvider.pair_counts): each member's match starts are found
once, the two members are joined once per word order and term length,
and each term then filters that small candidate set by its own units.
Any other provider is called once per phrase string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import PhraseSyntaxError, ProviderError
from .index import (MIN_WILDCARD_PREFIX, CountMode, PatternKind, PositionalIndex,
                    TokenPattern, count_matches, in_sorted, match_starts, parse_phrase,
                    parse_units, tally, tokenize, whole_matches)

HitCountProvider = Callable[[str], int]


@dataclass(frozen=True)
class WordPair:
    """A word pair; multiword members use underscores ("shoot_down").

    Each member is non-empty and holds no ':', tab or line break, so the
    key "x:y" splits back into the same pair and fits in one field of a
    TSV line. Every loader builds its pairs here, so this is the one
    check of the member rule.
    """

    x: str
    y: str

    def __post_init__(self):
        for member in (self.x, self.y):
            # A line break is any character that str.splitlines splits at.
            if not member or ":" in member or "\t" in member \
                    or member.splitlines() != [member]:
                raise ValueError(f"bad word pair {self.x!r}, {self.y!r}: members must be "
                                 "non-empty, without ':', tabs or line breaks")

    def key(self) -> str:
        return f"{self.x}:{self.y}"

    @staticmethod
    def from_key(key: str) -> "WordPair":
        """The pair whose key() is `key`."""
        x, _, y = key.partition(":")
        return WordPair(x, y)


def stem(word: str) -> str:
    """Truncate a word to a wildcard pattern by length band.

    length > 10: last 4 characters become "*"; 8 < length <= 10: last 3
    become "*"; 2 < length <= 8: "*" appended; length <= 2: unchanged.
    Words whose stemmed prefix would carry fewer than MIN_WILDCARD_PREFIX
    alphabetic characters are left unchanged so the result always parses.
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
    if sum(c.isalpha() for c in out[:-1]) < MIN_WILDCARD_PREFIX:
        return word
    return out


def _member_pattern(member: str) -> str:
    """Query fragment for one pair member: its tokens ("x-ray" and "x_ray"
    give "x ray"), with only the final token stemmed."""
    tokens = tokenize(member)
    if not tokens:
        raise ValueError(f"pair member {member!r} has no token characters")
    return " ".join(tokens[:-1] + [stem(tokens[-1])])


def _query(first: str, term: str, second: str) -> str:
    return " ".join(part for part in (first, term, second) if part)


def generate_queries(pair: WordPair, terms: Sequence[str]) -> list[str]:
    """The 2 * len(terms) phrase queries for a pair, in fixed order.

    Index 2j holds "stem(x) term_j stem(y)", index 2j+1 the reverse.
    """
    px = _member_pattern(pair.x)
    py = _member_pattern(pair.y)
    queries = []
    for term in terms:
        queries.append(_query(px, term, py))
        queries.append(_query(py, term, px))
    return queries


def hit_counts(raw: Sequence[int]) -> tuple[int, ...]:
    """The count rule of RelationVector.from_raw and VectorCache.put: each
    count is int() of its value, and none is negative."""
    raw = tuple(map(int, raw))
    if min(raw, default=0) < 0:
        raise ValueError("hit counts must be non-negative")
    return raw


@dataclass
class RelationVector:
    pair: WordPair
    raw: tuple[int, ...]
    r: np.ndarray

    @staticmethod
    def from_raw(pair: WordPair, raw: Sequence[int]) -> "RelationVector":
        raw = hit_counts(raw)
        return RelationVector(pair, raw, np.log1p(np.asarray(raw, dtype=float)))

    def is_zero(self) -> bool:
        return not any(self.raw)

    def __len__(self) -> int:
        return len(self.raw)


def build_vector(provider: HitCountProvider, pair: WordPair,
                 terms: Sequence[str]) -> RelationVector:
    """Count the 128 phrases of a pair and log-transform the counts.

    A LocalIndexProvider counts them with one member join per term length
    (LocalIndexProvider.pair_counts); any other provider is called once
    per phrase of generate_queries.
    """
    if isinstance(provider, LocalIndexProvider):
        return RelationVector.from_raw(pair, provider.pair_counts(pair, terms))
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

    Safe for concurrent queries. Called with a phrase, it counts that
    phrase. pair_counts, which build_vector uses, counts all the phrases
    of a pair with one member join per word order and term length, not
    one scan per phrase. Each unit's positions are memoized per unit, so a
    pair member's wildcard is expanded once, not in each of its 128
    phrases.
    """

    def __init__(self, index: PositionalIndex,
                 mode: CountMode = CountMode.DOCUMENT_HITS):
        self.index = index
        self.mode = mode
        self._units: dict[TokenPattern, np.ndarray] = {}
        self._table: tuple[tuple[str, ...], dict] | None = None

    def _positions(self, pattern: TokenPattern) -> np.ndarray | None:
        if pattern.kind is PatternKind.ANY_WORD:
            return None
        found = self._units.get(pattern)
        if found is None:
            found = self._units[pattern] = self.index.unit_positions(pattern)
        return found

    def __call__(self, phrase: str) -> int:
        units = [self._positions(p) for p in parse_phrase(phrase).patterns]
        return count_matches(self.index, units, self.mode)

    def _term_table(self, terms: Sequence[str], px: str, py: str):
        """Term length -> [(term number, [(offset, positions) of each unit
        that is not a standalone '*'])], parsed once per term list. A term
        that does not parse raises ProviderError naming the phrase
        "px term py", the first phrase the phrase path would fail on."""
        terms = tuple(terms)
        table = self._table
        if table is None or table[0] != terms:
            gaps: dict[int, list] = {}
            for j, term in enumerate(terms):
                try:
                    units = parse_units(term)
                except PhraseSyntaxError as e:
                    raise ProviderError(_query(px, term, py), e) from e
                gaps.setdefault(len(units), []).append(
                    (j, [(i, self._positions(p)) for i, p in enumerate(units)
                         if p.kind is not PatternKind.ANY_WORD]))
            table = self._table = (terms, gaps)
        return table[1]

    def pair_counts(self, pair: WordPair, terms: Sequence[str]) -> list[int]:
        """The counts of generate_queries(pair, terms), in its order.

        Each member's match starts are found once. For each word order and
        each term length g, one join keeps the starts s of the first member
        (length la) whose second member starts at s + la + g, with the
        whole span inside one document. Each term of length g then filters
        that candidate set by its own units; an empty set counts 0 for
        every term of that length.
        """
        px, py = _member_pattern(pair.x), _member_pattern(pair.y)
        gaps = self._term_table(terms, px, py)
        members = []
        for pattern in (px, py):
            units = [self._positions(p) for p in parse_units(pattern)]
            members.append((len(units), match_starts(self.index, units)))
        counts = [0] * (2 * len(terms))
        last = self.index.token_count
        for order, ((la, a), (lb, b)) in enumerate((members, members[::-1])):
            if not len(a) or not len(b):
                break  # a member that never matches makes every count 0
            for g, group in gaps.items():
                n = la + g + lb
                # In range, so that no start + offset below overflows int32.
                starts = a if a[-1] <= last - n else a[a <= last - n]
                starts = starts[in_sorted(b, starts + (la + g))]
                starts, doc = whole_matches(self.index, starts, n)
                if not len(starts):
                    continue
                term_starts = starts + la
                for j, checks in group:
                    hit = None
                    for i, positions in checks:
                        found = in_sorted(positions, term_starts + i)
                        hit = found if hit is None else hit & found
                    counts[2 * j + order] = tally(doc if hit is None else doc[hit], self.mode)
        return counts
