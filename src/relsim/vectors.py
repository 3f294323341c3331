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
Every term of that length is then checked at once with packed bit rows.
Only the words the terms' literal and substring units name can decide a
hit, so each named word has a class of its own and every other word
shares one. Per unit offset k, each class has a uint8 row holding one bit
per term, set where the term's k-th unit matches the class's words. A
candidate ANDs the rows of the classes of its tokens between the members,
so its set bits are the terms it hits; in document mode the rows of each
document are ORed into one. Any other provider is called once per phrase
string, and each count it returns must keep the count rule (hit_counts).
"""

from __future__ import annotations

import functools
import struct
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import PhraseSyntaxError, ProviderError
from .index import (MIN_WILDCARD_PREFIX, CountMode, PatternKind, PositionalIndex,
                    count_hits, in_sorted, match_starts, parse_phrase, parse_units, tokenize,
                    whole_matches)
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


@functools.lru_cache(maxsize=8)
def _int64_row(n: int) -> struct.Struct:
    """n counts packed as native int64."""
    return struct.Struct(f"={n}q")


@dataclass
class RelationVector:
    pair: WordPair
    raw: tuple[int, ...]
    r: np.ndarray = field(compare=False)  # log1p of raw, so == compares pair and raw

    @staticmethod
    def from_raw(pair: WordPair, raw: Sequence[int]) -> "RelationVector":
        return RelationVector.from_counts(pair, hit_counts(raw))

    @staticmethod
    def from_counts(pair: WordPair, counts: tuple[int, ...]) -> "RelationVector":
        """from_raw for counts already known to keep the count rule: the
        output of hit_counts, or LocalIndexProvider.pair_counts' sums.

        The counts go to numpy packed in one int64 buffer, or as Python
        ints when one is past int64; either cast to float rounds each
        count as float() does."""
        try:
            counts_array = np.frombuffer(_int64_row(len(counts)).pack(*counts), dtype=np.int64)
        except struct.error:  # a count past int64
            counts_array = np.asarray(counts, dtype=float)
        return RelationVector(pair, counts, np.log1p(counts_array, dtype=float))

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
    # The class of the word at each corpus position: 1 + i for the i-th of
    # the m words the terms' units name, m + 1 for every other word; uint8
    # while m <= 254 (np.min_scalar_type), wider beyond.
    tokens: np.ndarray
    # term length g -> (the numbers of the n terms of that length, their
    # packed bit rows: uint8, g x (m + 2) x ceil(n / 8), where bit i of row
    # [k, c] is set when unit k of the i-th term matches the words of class
    # c; row 0 is the class no position has)
    gaps: dict[int, tuple[np.ndarray, np.ndarray]]


class LocalIndexProvider:
    """Hit-count provider backed by a local positional index.

    Safe for concurrent queries. Called with a phrase, it counts that
    phrase with count_hits. pair_counts, which build_vector uses, counts
    all the phrases of a pair with one member join per word order and term
    length, and then checks every term of that length at once with packed
    bit rows over word classes, so a member's wildcard is expanded once per
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
        call and again when the term list changes. The words that the
        literal and substring units of the terms name get classes 1..m in
        term id order, every other word class m + 1, and the corpus
        positions the classes of their words (PositionalIndex.token_classes,
        which also checks that the positions cover the corpus once). The
        terms of each length g get g tables of packed bit rows, one per unit
        offset: bit i of class c's row at offset k is set when the k-th unit
        of the i-th term of that length matches the words of class c, and a
        standalone '*' sets it for every class. A term that does not parse
        raises ProviderError naming the phrase "px term py", the first
        phrase the phrase path would fail on."""
        terms = tuple(terms)
        table = self._table
        if table is None or table.terms != terms:
            groups: dict[int, list] = {}
            for j, term in enumerate(terms):
                try:
                    units = parse_units(term)
                except PhraseSyntaxError as e:
                    raise ProviderError(_query(px, term, py), e) from e
                groups.setdefault(len(units), []).append((j, units))
            term_ids = functools.cache(self.index.unit_term_ids)
            named = sorted({t for group in groups.values() for _, units in group for p in units
                            if p.kind is not PatternKind.ANY_WORD for t in term_ids(p)})
            other = len(named) + 1
            term_class = np.full(self.index.vocabulary_size, other,
                                 dtype=np.min_scalar_type(other))
            term_class[named] = np.arange(1, other)
            gaps = {}
            for g, group in groups.items():
                bits = np.zeros((g, other + 1, -(-len(group) // 8)), dtype=np.uint8)
                for i, (_, units) in enumerate(group):
                    for k, p in enumerate(units):
                        classes = (slice(None) if p.kind is PatternKind.ANY_WORD
                                   else term_class[term_ids(p)])
                        # Bit i in the order np.unpackbits reads: the highest bit first.
                        bits[k, classes, i // 8] |= 0x80 >> i % 8
                gaps[g] = (np.array([j for j, _ in group]), bits)
            table = self._table = _TermTable(terms, self.index.token_classes(term_class), gaps)
        return table

    def pair_counts(self, pair: WordPair, terms: Sequence[str]) -> list[int]:
        """The counts of generate_queries(pair, terms), in its order.

        Each member's match starts are found once. For each word order and
        each term length g, one join keeps the starts s of the first member
        (length la) whose second member starts at s + la + g, with the
        whole span inside one document. Each candidate starts from a row of
        all ones, one bit per term of length g, and ANDs in the bit row of
        the class of its token at s + la + k for each offset k, so a set bit
        is a hit.
        In document mode the rows of each document are ORed together. A
        term counts the set bits in its column, once the rows are unpacked;
        an empty candidate set counts 0 for every term of that length.
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
            for g, (numbers, bits) in table.gaps.items():
                n = la + g + lb
                # In range, so that no start + offset below overflows int32.
                starts = a if a[-1] <= last - n else a[a <= last - n]
                starts = starts[in_sorted(b, starts + (la + g))]
                starts, doc = whole_matches(self.index, starts, n)
                if not len(starts):
                    continue
                hit = np.full((len(starts), bits.shape[2]), 0xFF, dtype=np.uint8)
                for k, rows in enumerate(bits):  # none for the empty term: every candidate hits
                    hit &= rows[table.tokens[starts + (la + k)]]
                if self.mode is CountMode.DOCUMENT_HITS:
                    # The rows ascend, so a document's candidates run from its first one.
                    first = np.ones(len(doc), dtype=bool)
                    np.not_equal(doc[1:], doc[:-1], out=first[1:])
                    hit = np.bitwise_or.reduceat(hit, first.nonzero()[0])
                counts[2 * numbers + order] = np.unpackbits(hit, axis=1,
                                                            count=len(numbers)).sum(axis=0)
        return counts.tolist()
