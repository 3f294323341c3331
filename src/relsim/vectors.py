"""Relation vectors: stemming, query generation, log-frequency vectors, cosine.

A word pair (x, y) is characterized by the hit counts of 128 phrase queries:
for each of the 64 joining terms, "stem(x) term stem(y)" and
"stem(y) term stem(x)", in that order. Vector elements are ln(count + 1);
the log base is immaterial to cosines and natural log is fixed for
reproducible caches.

The 128 phrases of a pair differ only in the term between the members, so
a local index counts them per pair rather than per phrase
(LocalIndexProvider.pair_counts): each member's match starts are found
once, and the two members are joined once per word order and term length.
One gather of the tokens between the members then checks every term of
that length against a table of the vocabulary words each term unit
matches. Any other provider is called once per phrase string, and each
count it returns must keep the count rule (hit_counts).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import PhraseSyntaxError, ProviderError
from .index import (MIN_WILDCARD_PREFIX, CountMode, PatternKind, PositionalIndex,
                    TokenPattern, count_hits, in_sorted, match_starts, parse_phrase,
                    parse_units, tokenize, whole_matches)
from .similarity import cosines

HitCountProvider = Callable[[str], int]


@dataclass(frozen=True)
class WordPair:
    """A word pair; multiword members use underscores ("shoot_down").

    Each member holds a token (a letter or digit, by tokenize), so it has
    a query fragment, and no ':', tab or line break, so the key "x:y"
    splits back into the same pair and fits in one field of a TSV line.
    Every pair file and cache loader builds its pairs here: the one check.
    """

    x: str
    y: str

    def __post_init__(self):
        for member in (self.x, self.y):
            # A line break is any character that str.splitlines splits at.
            if ":" in member or "\t" in member or member.splitlines() != [member] \
                    or not tokenize(member):
                raise ValueError(f"bad word pair {self.x!r}, {self.y!r}: a member has no token "
                                 "characters (a-z, 0-9) or holds ':', a tab or a line break")

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
    """Query fragment for one pair member, which holds a token (WordPair):
    its tokens ("x-ray" gives "x ray"), with only the final one stemmed."""
    tokens = tokenize(member)
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


MAX_COUNT = int(sys.float_info.max)  # the largest count whose ln(count + 1) a float holds


def hit_counts(raw: Sequence) -> tuple[int, ...]:
    """The count rule of RelationVector.from_raw, VectorCache.put and
    load_cache: each count is a whole number from 0 to MAX_COUNT, kept as an
    int, so that it becomes a finite vector element. A value must equal its
    int(), so 2.0 and True pass as 2 and 1; 2.7, NaN, inf, "3" and 2**1024
    raise ValueError."""
    try:
        counts = tuple(map(int, raw))
        whole = counts == tuple(raw)
    except (OverflowError, ValueError):  # int() of an infinity, NaN or non-digit text
        whole = False
    if not whole:
        raise ValueError("hit counts must be whole numbers")
    if min(counts, default=0) < 0:
        raise ValueError("hit counts must be non-negative")
    if max(counts, default=0) > MAX_COUNT:
        raise ValueError("hit counts must be at most the largest float, about 1.8e308")
    return counts


@dataclass
class RelationVector:
    pair: WordPair
    raw: tuple[int, ...]
    r: np.ndarray

    @staticmethod
    def from_raw(pair: WordPair, raw: Sequence[int]) -> "RelationVector":
        return RelationVector.from_counts(pair, hit_counts(raw))

    @staticmethod
    def from_counts(pair: WordPair, counts: tuple[int, ...]) -> "RelationVector":
        """from_raw for counts already known to keep the count rule: the
        output of hit_counts, or LocalIndexProvider.pair_counts' sums."""
        return RelationVector(pair, counts, np.log1p(np.asarray(counts, dtype=float)))

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
        return RelationVector.from_counts(pair, tuple(provider.pair_counts(pair, terms)))
    raw = ()
    for query in generate_queries(pair, terms):
        try:
            raw += hit_counts([provider(query)])
        except Exception as e:
            raise ProviderError(query, e) from e
    return RelationVector.from_counts(pair, raw)


def cosine(v1, v2) -> float:
    """Cosine of the angle between two vectors; 0 if either has zero norm."""
    a = np.asarray(v1.r if isinstance(v1, RelationVector) else v1, dtype=float)
    b = np.asarray(v2.r if isinstance(v2, RelationVector) else v2, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"vector length mismatch: {a.shape} vs {b.shape}")
    return float(cosines(a, b))


class _TermTable(NamedTuple):
    terms: tuple[str, ...]
    tokens: np.ndarray  # int32, the term id at each corpus position
    member: np.ndarray  # bool, vocabulary x (distinct term unit + 1)
    # term length g -> (the term numbers, each term's g unit columns)
    gaps: dict[int, tuple[np.ndarray, np.ndarray]]


class LocalIndexProvider:
    """Hit-count provider backed by a local positional index.

    Safe for concurrent queries. Called with a phrase, it counts that
    phrase with count_hits. pair_counts, which build_vector uses, counts
    all the phrases of a pair with one member join per word order and term
    length, and then checks every term of that length with one gather of
    the candidates' tokens, so a member's wildcard is expanded once per
    pair, not in each of its 128 phrases.
    """

    def __init__(self, index: PositionalIndex,
                 mode: CountMode = CountMode.DOCUMENT_HITS):
        self.index = index
        self.mode = mode
        self._table: _TermTable | None = None

    def __call__(self, phrase: str) -> int:
        return count_hits(self.index, parse_phrase(phrase), self.mode).count

    def _term_table(self, terms: Sequence[str], px: str, py: str) -> _TermTable:
        """The tables pair_counts checks terms with, built on its first
        call and again when the term list changes. Column c of the
        membership table marks the vocabulary terms that distinct unit c
        matches; the last column, for a standalone '*', is all true. A
        term that does not parse raises ProviderError naming the phrase
        "px term py", the first phrase the phrase path would fail on."""
        terms = tuple(terms)
        table = self._table
        if table is None or table.terms != terms:
            columns: dict[TokenPattern, int] = {}
            gaps: dict[int, list] = {}
            for j, term in enumerate(terms):
                try:
                    units = parse_units(term)
                except PhraseSyntaxError as e:
                    raise ProviderError(_query(px, term, py), e) from e
                # A standalone '*' takes the last column.
                gaps.setdefault(len(units), []).append((j, [
                    -1 if p.kind is PatternKind.ANY_WORD else columns.setdefault(p, len(columns))
                    for p in units]))
            member = np.zeros((self.index.vocabulary_size, len(columns) + 1), dtype=bool)
            member[:, -1] = True
            for p, c in columns.items():
                member[self.index.unit_term_ids(p), c] = True
            table = self._table = _TermTable(
                terms, self.index.token_ids(), member,
                {g: (np.array([j for j, _ in group]),
                     np.array([cols for _, cols in group], dtype=np.intp).reshape(len(group), g))
                 for g, group in gaps.items()})
        return table

    def pair_counts(self, pair: WordPair, terms: Sequence[str]) -> list[int]:
        """The counts of generate_queries(pair, terms), in its order.

        Each member's match starts are found once. For each word order and
        each term length g, one join keeps the starts s of the first member
        (length la) whose second member starts at s + la + g, with the
        whole span inside one document. One gather of the g tokens from
        s + la on, looked up in the membership table, gives a candidates x
        terms hit mask. A term counts its hit candidates, or in document
        mode the documents holding one; an empty candidate set counts 0
        for every term of that length.
        """
        px, py = _member_pattern(pair.x), _member_pattern(pair.y)
        table = self._term_table(terms, px, py)
        members = []
        for pattern in (px, py):
            # A member has no standalone '*', so each unit has positions.
            units = [self.index.unit_positions(p) for p in parse_units(pattern)]
            members.append((len(units), match_starts(self.index, units)))
        counts = np.zeros(2 * len(terms), dtype=np.int64)
        last = self.index.token_count
        for order, ((la, a), (lb, b)) in enumerate((members, members[::-1])):
            if not len(a) or not len(b):
                break  # a member that never matches makes every count 0
            for g, (numbers, columns) in table.gaps.items():
                n = la + g + lb
                # In range, so that no start + offset below overflows int32.
                starts = a if a[-1] <= last - n else a[a <= last - n]
                starts = starts[in_sorted(b, starts + (la + g))]
                starts, doc = whole_matches(self.index, starts, n)
                if not len(starts):
                    continue
                window = table.tokens[(starts + la)[:, None] + np.arange(g)]
                hit = table.member[window[:, None, :], columns].all(axis=2)
                if self.mode is CountMode.DOCUMENT_HITS:
                    # The rows ascend, so a document's candidates run from its first one.
                    hit = np.logical_or.reduceat(hit, np.unique(doc, return_index=True)[1])
                counts[2 * numbers + order] = hit.sum(axis=0)
        return counts.tolist()
