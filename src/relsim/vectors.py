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
The candidates of all those joins are then checked in one pass against one
table of packed bit rows over every term. Only the words the terms' literal
and substring units name can decide a hit, so each named word has a class
of its own and every other word shares one. Per unit offset k, each class
has a uint8 row holding one bit per term, set where the term's k-th unit
matches the class's words, or where the term ends before offset k. A
candidate starts from the bits of the terms of its length and ANDs in the
rows of the classes of its tokens between the members, so its set bits are
the terms it hits; in document mode the rows of each document and word
order are ORed into one. Any other provider is called once per phrase
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

    A LocalIndexProvider counts them with one member join per word order
    and term length and one check of every term
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
    # while m <= 254 (np.min_scalar_type), wider beyond. Then max_len
    # positions of class 0, which no word has, so that a candidate's offsets
    # past its term stay in range.
    tokens: np.ndarray
    # The distinct unit counts of the terms, ascending.
    lengths: tuple[int, ...]
    # uint8, (max_len + 1) x ceil(T / 8), for the T terms: bit j of row g is
    # set when term j has g units.
    want: np.ndarray
    # uint8, max_len x (m + 2) x ceil(T / 8): bit j of row [k, c] is set when
    # term j has at most k units (offset k is past its end, so any class
    # passes) or its unit k matches the words of class c.
    bits: np.ndarray


class LocalIndexProvider:
    """Hit-count provider backed by a local positional index.

    Safe for concurrent queries. Called with a phrase, it counts that
    phrase with count_hits. pair_counts, which build_vector uses, counts
    all the phrases of a pair at once: one member join per word order and
    term length, then one check of every term against one table of packed
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
        """The table pair_counts checks terms with, built on its first call
        and again when the term list changes. The words that the literal
        and substring units of the terms name get classes 1..m in term id
        order, every other word class m + 1, and the corpus positions the
        classes of their words (PositionalIndex.token_classes, which also
        checks that the positions cover the corpus once). One table of
        packed bit rows covers every term: bit j of class c's row at offset
        k is set when the k-th unit of term j matches the words of class c;
        a standalone '*', or an offset past the term's end, sets it for
        every class. A term that does not parse raises ProviderError naming
        the phrase "px term py", the first phrase the phrase path would
        fail on."""
        terms = tuple(terms)
        table = self._table
        if table is None or table.terms != terms:
            term_units = []
            for term in terms:
                try:
                    term_units.append(parse_units(term))
                except PhraseSyntaxError as e:
                    raise ProviderError(_query(px, term, py), e) from e
            term_ids = functools.cache(self.index.unit_term_ids)
            named = sorted({t for units in term_units for p in units
                            if p.kind is not PatternKind.ANY_WORD for t in term_ids(p)})
            other = len(named) + 1
            term_class = np.full(self.index.vocabulary_size, other,
                                 dtype=np.min_scalar_type(other))
            term_class[named] = np.arange(1, other)
            lengths = np.array([len(units) for units in term_units], dtype=np.intp)
            max_len = int(lengths.max(initial=0))
            offsets = np.arange(max_len + 1)[:, None]
            # Bit j of each packed row in the order np.unpackbits reads: the
            # highest bit first.
            want = np.packbits(lengths == offsets, axis=1)
            hits = np.zeros((max_len, other + 1, len(terms)), dtype=bool)
            hits |= (lengths <= offsets[:-1])[:, None, :]  # offsets past a term's end
            for j, units in enumerate(term_units):
                for k, p in enumerate(units):
                    classes = (slice(None) if p.kind is PatternKind.ANY_WORD
                               else term_class[term_ids(p)])
                    hits[k, classes, j] = True
            table = self._table = _TermTable(terms, self.index.token_classes(term_class, max_len),
                                             tuple(sorted(set(lengths.tolist()))), want,
                                             np.packbits(hits, axis=2))
        return table

    def pair_counts(self, pair: WordPair, terms: Sequence[str]) -> list[int]:
        """The counts of generate_queries(pair, terms), in its order.

        Each member's match starts are found once. For each word order and
        each term length g, one join keeps the starts s of the first member
        (length la) whose second member starts at s + la + g. The
        candidates of every join are then checked together: one document
        lookup keeps those whose whole span lies inside one document. Each
        starts from the row of the terms of its length g and ANDs in the
        bit row of the class of its token at s + la + k for every offset k
        of the longest term, so a set bit is a hit; an offset past a term's
        end passes every class. In document mode the rows of each document
        and word order are ORed together. A term counts the set bits in its
        column once the rows are unpacked, word order 0's rows in the even
        counts and word order 1's in the odd ones.
        """
        px, py = _member_pattern(pair.x), _member_pattern(pair.y)
        table = self._term_table(terms, px, py)
        members = []
        for pattern in (px, py):
            # A member has no standalone '*', so each unit has positions.
            units = [self.index.unit_positions(p) for p in parse_units(pattern)]
            members.append((len(units), match_starts(self.index, units)))
        counts = np.zeros(2 * len(terms), dtype=np.int64)
        if not len(members[0][1]) or not len(members[1][1]) or not terms:
            return counts.tolist()  # a member that never matches makes every count 0
        last = self.index.token_count
        joined, ahead, spans = [], [], []
        for (la, a), (lb, b) in (members, members[::-1]):
            for g in table.lengths:
                n = la + g + lb
                # In range, so that no start + offset below overflows int32.
                starts = a if a[-1] <= last - n else a[a <= last - n]
                joined.append(starts[in_sorted(b, starts + (la + g))])
                ahead.append(la)
                spans.append(n)
        sizes = [len(starts) for starts in joined]
        starts = np.concatenate(joined)
        inside, doc = whole_matches(self.index, starts, np.repeat(spans, sizes))
        # Word order 0's joins come first: its candidates that lie inside.
        split = np.count_nonzero(inside[:sum(sizes[:len(table.lengths)])])
        # int64, as np.repeat makes it, so that no offset below overflows.
        mid = (starts + np.repeat(ahead, sizes))[inside]
        hit = table.want[np.repeat(table.lengths * 2, sizes)[inside]]
        for k, rows in enumerate(table.bits):  # none for the empty term alone: every candidate hits
            hit &= rows[table.tokens[mid + k]]
        if self.mode is CountMode.DOCUMENT_HITS:
            # Each join ascends, so a document's candidates of one join run
            # together. A run may span joins of one word order, as a term's
            # bit is set only by candidates of its own length, but word
            # order 1's first candidate starts a run of its own.
            doc = doc[inside]
            first = np.ones(len(doc), dtype=bool)
            np.not_equal(doc[1:], doc[:-1], out=first[1:])
            first[split:split + 1] = True
            runs = first.nonzero()[0]
            hit = np.bitwise_or.reduceat(hit, runs)
            split = runs.searchsorted(split)
        hit = np.unpackbits(hit, axis=1, count=len(terms))
        counts[0::2] = hit[:split].sum(axis=0)
        counts[1::2] = hit[split:].sum(axis=0)
        return counts.tolist()
