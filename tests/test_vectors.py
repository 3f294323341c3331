import math
import random
import re
import string
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relsim.analogy import parse_pair
from relsim.cache import VectorCache, load_cache
from relsim.cli import _plain_pair
from relsim.errors import DataFormatError, ProviderError
from relsim.index import (CountMode, Document, PatternKind, build_index, count_hits,
                          parse_phrase, parse_units, tokenize)
from relsim.nounmod import load_labeled_pairs
from relsim.terms import (default_joining_terms, load_joining_terms,
                          terms_checksum)
from relsim.vectors import (LocalIndexProvider, RelationVector, WordPair,
                            build_vector, cosine, generate_queries, stem)

from oracles import LINE_BREAKS, oracle_cosine, oracle_load_cache, oracle_pair_member
from test_acceptance import PLANT_PAIRS, planted_corpus

TERMS = default_joining_terms()
LARGEST = int(sys.float_info.max)  # the largest count whose vector element is finite

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20)

# Member text that often holds no token, or a ':', tab or line break.
member_texts = st.text(st.one_of(st.sampled_from("aZ9-_' :\t#\u00e9\u0665" + LINE_BREAKS),
                                 st.characters()), max_size=6)

# A valid member in mixed case, padded with blanks that the readers strip.
padded_members = st.builds(lambda a, head, tail, b: a + head + tail + b,
                           st.text(" \u00a0\u3000", max_size=3),
                           st.text(string.ascii_letters + string.digits, min_size=1, max_size=8),
                           st.text(string.ascii_letters + string.digits + "-_'. ", max_size=8),
                           st.text(" \u00a0\u3000", max_size=3))


class TestStem:
    @pytest.mark.parametrize("word,expected", [
        ("advertisement", "advertise*"),
        ("compliance", "complia*"),
        ("rhythm", "rhythm*"),
        ("up", "up"),
        ("restrained", "restrai*"),
        ("limit", "limit*"),
    ])
    def test_table_examples(self, word, expected):
        assert stem(word) == expected

    @given(words)
    def test_length_bands(self, word):
        out = stem(word)
        n = len(word)
        if n <= 2:
            assert out == word
        elif n <= 8:
            assert out == word + "*"
        elif n <= 10:
            assert out == word[:-3] + "*"
        else:
            assert out == word[:-4] + "*"

    def test_digit_heavy_word_left_literal(self):
        # too few alphabetic characters ahead of the wildcard to be a
        # legal query unit, so no stemming
        assert stem("a12") == "a12"


class TestJoiningTerms:
    def test_sixty_four_terms(self):
        assert len(TERMS) == 64

    def test_known_entries(self):
        assert TERMS[0] == ""
        assert TERMS[1] == "* not"
        assert TERMS[2] == "* very"
        assert "get*" in TERMS and "s" in TERMS and "s *" in TERMS

    def test_checksum_stable(self):
        assert terms_checksum(TERMS) == terms_checksum(list(TERMS))

    def test_load_override(self, tmp_path):
        p = tmp_path / "terms.txt"
        p.write_text("\n".join([""] + ["of"] * 63) + "\n")
        loaded = load_joining_terms(p)
        assert len(loaded) == 64 and loaded[0] == ""
        assert terms_checksum(loaded) != terms_checksum(TERMS)

    @pytest.mark.parametrize("term", ["ab*", "a**b", "--", "1x*"])
    def test_bad_term_names_its_line(self, tmp_path, term):
        p = tmp_path / "terms.txt"
        p.write_text("\n".join(["", "* not", term] + ["of"] * 61) + "\n")
        with pytest.raises(DataFormatError) as exc:
            load_joining_terms(p)
        assert str(exc.value).startswith(f"{p}:3: bad joining term {term!r}")

    def test_standalone_wildcard_terms_accepted(self, tmp_path):
        p = tmp_path / "terms.txt"
        p.write_text("\n".join(["", "*", "* *", "is *", "* not *"] + ["of"] * 59) + "\n")
        assert load_joining_terms(p)[1:5] == ("*", "* *", "is *", "* not *")

    def test_non_utf8_file_names_it(self, tmp_path):
        p = tmp_path / "terms.txt"
        p.write_bytes(("\n".join(["", "caf\u00e9"] + ["of"] * 62) + "\n").encode("latin-1"))
        with pytest.raises(DataFormatError, match="not UTF-8"):
            load_joining_terms(p)


class TestWordPair:
    @pytest.mark.parametrize("x, y", [("a:b", "c"), ("a", "b:c"), (":", "b"), ("", "b"),
                                      ("a", ""), ("a\tb", "c"), ("a", "b\n"),
                                      ("a\u2028b", "c")])
    def test_bad_member_rejected(self, x, y):
        with pytest.raises(ValueError):
            WordPair(x, y)

    @given(member_texts, member_texts)
    @example("--", "street")
    @example("x-ray", "\u0665")
    @example("a\x1cb", "c")
    def test_accepts_exactly_the_oracles_members(self, x, y):
        try:
            WordPair(x, y)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (oracle_pair_member(x) and oracle_pair_member(y))

    @given(padded_members, padded_members)
    @example(" Mason ", " Stone ")
    @settings(deadline=None)
    def test_every_reader_gives_padded_members_one_key(self, x, y):
        key = f"{x.strip().lower()}:{y.strip().lower()}"
        assert parse_pair(f"{x}:{y}").key() == key
        assert _plain_pair([x, y]).key() == key
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labelled.tsv"
            path.write_text(f"{x}\t{y}\tloc\n", encoding="utf-8")
            [item] = load_labeled_pairs(path)
        assert item.pair().key() == key

    def test_from_key_splits_at_the_colon(self):
        assert WordPair.from_key("shoot_down:aircraft") == WordPair("shoot_down", "aircraft")
        for key in ("ab", "a:b:c", ":b", "a:", ""):
            with pytest.raises(ValueError):
                WordPair.from_key(key)

    @given(st.text(), st.text(),
           st.lists(st.integers(0, 10 ** 25), min_size=128, max_size=128))
    @example("# x", "y", [0] * 128)
    @example("a:b", "c", [1] * 128)
    @example("a", "c", [10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1, 2 ** 63, 10 ** 25] + [0] * 123)
    @settings(deadline=None)
    def test_accepted_pair_survives_cache_round_trip(self, x, y, counts):
        """A row is saved as its key and the str() of each count, tab-separated,
        and loads back as the same ints."""
        try:
            pair = WordPair(x, y)
        except ValueError:
            return
        cache = VectorCache("digest", "checksum")
        cache.put(WordPair("a", "b"), [2] * 128)
        cache.put(pair, counts)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.tsv"
            cache.save(path)
            lines = path.read_text(encoding="utf-8").split("\n")
            loaded = load_cache(path, "digest", "checksum")
        for key, row in cache.entries.items():
            assert key + "\t" + "\t".join(map(str, row)) in lines
        assert loaded.entries == cache.entries
        assert loaded.entries[pair.key()] == tuple(counts)
        assert all(type(c) is int for c in loaded.entries[pair.key()])

    def test_vector_equals_from_raw_on_every_row(self):
        """vector() skips the count rule that load_cache (or put) already
        applied, and gives what from_raw gives on the row."""
        cache = load_cache(Path(__file__).parent / "golden" / "expected" / "vector_cache.txt")
        assert len(cache.entries) > 20
        for key, row in cache.entries.items():
            pair = WordPair.from_key(key)
            got, want = cache.vector(pair), RelationVector.from_raw(pair, row)
            assert got.pair == want.pair and got.raw == want.raw
            assert type(got.raw) is tuple and all(type(c) is int for c in got.raw)
            assert got.r.dtype == want.r.dtype and got.r.tobytes() == want.r.tobytes()
            assert got.r.tobytes() == np.log1p(np.array(row, dtype=np.float64)).tobytes()


class TestGenerateQueries:
    def test_always_128(self):
        assert len(generate_queries(WordPair("mason", "stone"), TERMS)) == 128

    def test_very_joining_term(self):
        qs = generate_queries(WordPair("restrained", "limit"), TERMS)
        assert "restrai* * very limit*" in qs
        assert "limit* * very restrai*" in qs
        j = TERMS.index("* very")
        assert qs[2 * j] == "restrai* * very limit*"
        assert qs[2 * j + 1] == "limit* * very restrai*"

    def test_empty_term_adjacent(self):
        qs = generate_queries(WordPair("up", "to"), TERMS)
        assert qs[0] == "up to" and qs[1] == "to up"

    def test_multiword_member(self):
        qs = generate_queries(WordPair("shoot_down", "argument"), TERMS)
        assert qs[0] == "shoot down* argument*"

    @pytest.mark.parametrize("member, pattern", [("x-ray", "x ray*"), ("o'clock", "o clock*"),
                                                 ("X-Ray", "x ray*"), ("don't", "don t")])
    def test_punctuation_splits_member_into_tokens(self, member, pattern):
        qs = generate_queries(WordPair(member, "bone"), TERMS)
        assert qs[0] == f"{pattern} bone*"
        assert qs[1] == f"bone* {pattern}"

    def test_punctuated_member_counts_like_its_tokens(self):
        idx = build_index([Document(0, ("x", "ray", "of", "bone"))])
        provider = LocalIndexProvider(idx)
        j = TERMS.index("of")
        assert build_vector(provider, WordPair("x-ray", "bone"), TERMS).raw[2 * j] == 1
        assert build_vector(provider, WordPair("x_ray", "bone"), TERMS).raw[2 * j] == 1

    @pytest.mark.parametrize("member", ["-", "'", "?!"])
    def test_member_without_token_characters_rejected(self, member):
        with pytest.raises(ValueError, match="no token characters"):
            generate_queries(WordPair(member, "bone"), TERMS)

    @given(st.tuples(words, words))
    def test_all_queries_parse(self, pair):
        x, y = pair
        for q in generate_queries(WordPair(x, y), TERMS):
            parse_phrase(q)


class TestBuildVector:
    def test_all_zero_counts(self):
        v = build_vector(lambda q: 0, WordPair("a", "b"), TERMS)
        assert v.is_zero()
        assert np.all(v.r == 0.0)

    def test_inverse_transform(self):
        # a count of e - 1 maps to exactly 1 after the log transform
        v = RelationVector(WordPair("a", "b"), (2,), np.log1p(np.array([math.e - 1])))
        assert v.r[0] == pytest.approx(1.0, abs=1e-12)
        v2 = RelationVector.from_raw(WordPair("a", "b"), [1] * 128)
        assert v2.r[0] == pytest.approx(math.log(2))

    def test_log_of_count_plus_one(self):
        counts = iter([544, 460, 7, 15] + [0] * 124)
        v = build_vector(lambda q: next(counts), WordPair("traffic", "street"), TERMS)
        assert v.raw[:4] == (544, 460, 7, 15)
        assert v.r[0] == pytest.approx(math.log(545))
        assert v.r[1] == pytest.approx(math.log(461))
        assert v.r[2] == pytest.approx(math.log(8))
        assert v.r[3] == pytest.approx(math.log(16))
        assert v.r[4] == 0.0

    def test_provider_failure_carries_query(self):
        def bad(q):
            raise RuntimeError("backend down")
        with pytest.raises(ProviderError) as exc:
            build_vector(bad, WordPair("mason", "stone"), TERMS)
        assert "mason" in exc.value.query

    @pytest.mark.parametrize("through", ["provider", "callable"])
    def test_unparseable_term_carries_its_phrase(self, through):
        local = LocalIndexProvider(build_index([Document(0, ("mason", "of", "stone"))]))
        provider = local if through == "provider" else (lambda q: local(q))
        with pytest.raises(ProviderError) as exc:
            build_vector(provider, WordPair("mason", "stone"), ("of", "ab*", "the"))
        assert exc.value.query == "mason* ab* stone*"

    def test_local_index_provider(self):
        idx = build_index([Document(0, ("traffic", "in", "the", "street"))])
        provider = LocalIndexProvider(idx)
        v = build_vector(provider, WordPair("traffic", "street"), TERMS)
        j = TERMS.index("in the")
        assert v.raw[2 * j] == 1  # "traffic in the street"
        assert v.raw[2 * j + 1] == 0


class TestCountRule:
    """A hit count is a whole number from 0 to the largest float. A value
    must equal its int(), so 2.0 and True pass as 2 and 1. Text is not a
    count: only load_cache reads a cache row's count text, which must be
    ASCII digits without a leading zero."""

    @staticmethod
    def write_row(tmp_path, fields):
        """A saved cache with the row "a:b<TAB>fields" appended as line 4."""
        path = tmp_path / "cache.tsv"
        VectorCache("d", "t").save(path)
        with path.open("a", encoding="utf-8") as f:
            f.write("\t".join(["a:b", *fields]) + "\n")
        return path

    @pytest.mark.parametrize("raw", [[1.5, 2.9, True], [2.7], [1, float("nan")],
                                     [float("inf")], [-1], [np.float64(0.5)]],
                             ids=["fractions", "fraction", "nan", "inf", "negative",
                                  "numpy-float"])
    def test_fraction_or_negative_rejected(self, raw):
        with pytest.raises(ValueError):
            RelationVector.from_raw(WordPair("a", "b"), raw)
        with pytest.raises(ValueError):
            VectorCache("d", "t").put(WordPair("a", "b"), raw + [0] * (128 - len(raw)))

    @pytest.mark.parametrize("count", [LARGEST + 1, 2 ** 1024, 10 ** 400, 10 ** 5000],
                             ids=["largest+1", "2**1024", "401-digits", "5001-digits"])
    def test_count_past_the_largest_float_rejected(self, count):
        """A count must become a finite vector element, ln(count + 1)."""
        for raw in ([count], [0] * 127 + [count]):
            with pytest.raises(ValueError, match="largest float"):
                RelationVector.from_raw(WordPair("a", "b"), raw)
        with pytest.raises(ValueError, match="largest float"):
            VectorCache("d", "t").put(WordPair("a", "b"), [count] + [0] * 127)

    def test_largest_float_count_round_trips(self, tmp_path):
        cache = VectorCache("d", "t")
        cache.put(WordPair("a", "b"), [LARGEST] + [0] * 127)
        cache.save(tmp_path / "cache.tsv")
        loaded = load_cache(tmp_path / "cache.tsv")
        assert loaded.entries == cache.entries
        assert loaded.vector(WordPair("a", "b")).r[0] == math.log1p(sys.float_info.max)

    @pytest.mark.parametrize("text", [str(LARGEST + 1), "9" * 309, "1" + "0" * 309, "1" * 401,
                                      "1" * 4300, "1" * 4301, "1" * 5000],
                             ids=["largest+1", "309-nines", "310-digits", "401-digits",
                                  "4300-digits", "4301-digits", "5000-digits"])
    def test_count_text_past_the_largest_float_rejected(self, tmp_path, text):
        for fields in ([text] + ["1"] * 127, ["1"] * 127 + [text]):
            path = self.write_row(tmp_path, fields)
            with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:4: hit counts "
                               "must be at most the largest float"):
                load_cache(path)

    def test_whole_values_are_kept_as_ints(self):
        raw = [2.0, True, np.int64(3), np.float64(4.0), 0]
        v = RelationVector.from_raw(WordPair("a", "b"), raw)
        assert v.raw == (2, 1, 3, 4, 0)
        assert all(type(c) is int for c in v.raw)

    @pytest.mark.parametrize("text", ["2.0", "1.5", "1e3", "True", "", "+5", " 5", "5_0",
                                      "\u0665", "-0", "\u00b2", "05", "00", "007"])
    def test_count_text_must_be_whole_number_text(self, tmp_path, text):
        for fields in ([text] + ["1"] * 127, ["1"] * 127 + [text]):
            path = self.write_row(tmp_path, fields)
            with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:4: hit counts "
                               "must be ASCII digits without leading zeros$"):
                load_cache(path)

    def test_count_text_is_read_as_ints(self, tmp_path):
        cache = load_cache(self.write_row(tmp_path, map(str, range(128))))
        assert cache.entries["a:b"] == tuple(range(128))
        assert all(type(c) is int for c in cache.entries["a:b"])

    def test_text_is_not_counts(self):
        pair = WordPair("a", "b")
        for text in ("3\t0\t7", "307"):
            with pytest.raises(ValueError, match="whole numbers"):
                RelationVector.from_raw(pair, text)
        with pytest.raises(ValueError, match="whole numbers"):
            VectorCache("d", "t").put(pair, "\t".join(["1"] * 128))

    @pytest.mark.parametrize("count", [2.7, -1, "3"])
    def test_bad_provider_count_names_its_phrase(self, count):
        pair = WordPair("mason", "stone")
        with pytest.raises(ProviderError) as exc:
            build_vector(lambda q: count, pair, TERMS)
        assert exc.value.query == generate_queries(pair, TERMS)[0]


class TestLoadCache:
    """load_cache reads a block of rows at a time, and the row-by-row oracle
    one row at a time: both give the same entries, or the same error."""

    BAD = ["05", "00", "", "+5", "\u0665", "-1", " 5", str(LARGEST + 1), "1" * 4301,
           "127 fields", "129 fields", "bad key", "repeated key"]

    @given(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129, 200]),
                     st.integers(0, 200)),
           st.sampled_from([None, *BAD]), st.integers(0, 200), st.integers(0, 200),
           st.booleans(), st.integers(0, 2 ** 32))
    @example(n=65, bad="repeated key", at=64, source=0, blank=False, seed=0)
    @example(n=64, bad="repeated key", at=63, source=0, blank=False, seed=0)
    @example(n=129, bad="05", at=128, source=0, blank=True, seed=0)
    @settings(deadline=None, max_examples=100)
    def test_blocks_read_what_rows_read(self, n, bad, at, source, blank, seed):
        """n rows, one of which (row `at` mod n) may be bad; a repeated key
        copies row `source` mod `at`."""
        rnd = random.Random(seed)

        def counts():
            """Mostly small counts; about one row in 200 may hold one that int64 does not."""
            digits = [1, 2, 18, 19, 26] if rnd.random() < 0.005 else [1, 2, 18]
            return [str(rnd.randrange(10 ** rnd.choice(digits)) if rnd.random() < 0.05
                        else rnd.randrange(3)) for _ in range(128)]
        lines = ["\t".join([rnd.choice(["w", "# w", "\u00c9", "a b"]) + f"{i}:y{i}",
                            *counts()]) for i in range(n)]
        if bad is not None and n:
            at %= n
            key, *fields = lines[at].split("\t")
            if bad == "127 fields":
                fields.pop()
            elif bad == "129 fields":
                fields.append("0")
            elif bad == "bad key":
                key = rnd.choice(["ab", ":b", "a:", "a:b:c", "%:b"])
            elif bad == "repeated key":
                key = lines[source % at].partition("\t")[0] if at else key
            else:
                fields[rnd.randrange(128)] = bad
            lines[at] = "\t".join([key, *fields])
        if blank:
            lines.insert(rnd.randrange(n + 1), rnd.choice(["", " \t "]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.tsv"
            VectorCache("d", "t").save(path)
            with path.open("a", encoding="utf-8") as f:
                f.write("".join(line + "\n" for line in lines))
            try:
                want = oracle_load_cache(path)
            except ValueError as e:
                with pytest.raises(DataFormatError) as exc:
                    load_cache(path)
                assert str(exc.value) == str(e)
            else:
                got = load_cache(path).entries
                assert got == want and list(got) == list(want)
                assert all(type(c) is int for row in got.values() for c in row)

    @pytest.mark.parametrize("first, second", [(127, 129), (129, 127)])
    def test_field_counts_are_checked_per_row(self, tmp_path, first, second):
        """Two rows in one block that hold 256 fields between them."""
        path = tmp_path / "cache.tsv"
        VectorCache("d", "t").save(path)
        with path.open("a", encoding="utf-8") as f:
            for key, fields in (("a:b", first), ("c:d", second)):
                f.write("\t".join([key, *["1"] * fields]) + "\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:4: expected 128 "
                           f"counts, got {first}$"):
            load_cache(path)


class TestCosine:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_known_value(self):
        assert cosine([1, 2], [2, 1]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_vector_convention(self):
        assert cosine([0, 0], [1, 2]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine([1, 2], [1, 2, 3])

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.random(8), rng.random(8)
            assert cosine(a, b) == pytest.approx(cosine(b, a))
            assert cosine(a, 3.7 * a) == pytest.approx(1.0)
            assert 0.0 <= cosine(a, b) <= 1.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = list(rng.random(6)), list(rng.random(6))
            assert cosine(a, b) == pytest.approx(oracle_cosine(a, b), abs=1e-12)

    def test_log_base_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            raw1 = rng.integers(0, 1000, 128)
            raw2 = rng.integers(0, 1000, 128)
            ln1, ln2 = np.log(raw1 + 1), np.log(raw2 + 1)
            lg1, lg2 = np.log10(raw1 + 1), np.log10(raw2 + 1)
            assert cosine(ln1, ln2) == pytest.approx(cosine(lg1, lg2), abs=1e-12)


def test_pair_reversal_swaps_adjacent_elements():
    idx = build_index([Document(0, ("mason", "of", "stone", "stone", "for", "mason"))])
    provider = LocalIndexProvider(idx)
    fwd = build_vector(provider, WordPair("mason", "stone"), TERMS)
    rev = build_vector(provider, WordPair("stone", "mason"), TERMS)
    for j in range(64):
        assert fwd.raw[2 * j] == rev.raw[2 * j + 1]
        assert fwd.raw[2 * j + 1] == rev.raw[2 * j]


# Tokens and members for the pair_counts property: stemmed members match
# several tokens ("mason*"), "x_ray" is two tokens, "up" and "a12" stay
# literal, and the joining terms' words occur between them.
PAIR_TOKENS = ["mason", "masons", "masonry", "stone", "stones", "x", "ray", "rays", "up",
               "a12", "of", "the", "not", "very", "is", "restrain", "restrained"]
PAIR_MEMBERS = ["mason", "stone", "x_ray", "x-ray", "up", "a12", "restrained", "zebra"]
TERM_UNITS = ["of", "the", "not", "very", "is", "up", "*", "ston*", "ray*", "mas*ry"]


@st.composite
def pair_corpora(draw):
    """Short and empty documents under unsorted, non-contiguous doc ids, so
    that many spans would straddle a document end."""
    texts = draw(st.lists(st.lists(st.sampled_from(PAIR_TOKENS), max_size=7), max_size=10))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=len(texts), max_size=len(texts),
                        unique=True))
    return texts, ids


term_tables = st.lists(st.lists(st.sampled_from(TERM_UNITS), max_size=3).map(" ".join),
                       min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(pair_corpora(), st.lists(st.tuples(st.sampled_from(PAIR_MEMBERS),
                                          st.sampled_from(PAIR_MEMBERS)), min_size=1,
                                max_size=3), term_tables)
# A term unit that matches no token, beside one that does.
@example(([["mason", "of", "stone"], ["mason", "quux", "stone"]], [4, 1]),
         [("mason", "stone")], ["quux", "of", "zeb*ra"])
# An all-'*' term, in both word orders and twice in one document.
@example(([["mason", "up", "the", "stone", "stone", "of", "a12", "mason", "x", "ray", "mason",
            "stone"]], [3]), [("mason", "stone"), ("stone", "mason")], ["* *", "*"])
# The same term twice in one table.
@example(([["mason", "of", "stone", "mason", "of", "stone"], ["stone", "of", "mason"]], [5, 2]),
         [("mason", "stone"), ("stone", "mason")], ["of", "the", "of"])
# Three-unit terms.
@example(([["mason", "not", "up", "the", "stone"], ["mason", "not", "the", "the", "stone"]],
          [0, 9]), [("mason", "stone")], ["not * the", "not up the", "* the *"])
# The empty term alone.
@example(([["mason", "stone", "masons", "stones", "stone", "mason"]], [1]),
         [("mason", "stone"), ("stone", "mason")], [""])
# Candidate spans that end exactly at a document end, the corpus end among them.
@example(([["x", "mason", "of", "stone"], ["stone", "of", "mason"], ["of", "stone"],
           ["mason", "stone"]], [7, 8, 9, 10]),
         [("mason", "stone"), ("stone", "mason")], ["of", "", "of *"])
def test_pair_counts_equal_phrase_counts(corpus, pairs, terms):
    texts, ids = corpus
    idx = build_index([Document(i, tuple(t)) for i, t in zip(ids, texts)])
    for mode in CountMode:
        provider = LocalIndexProvider(idx, mode)
        for x, y in pairs:
            pair = WordPair(x, y)
            expected = [count_hits(idx, parse_phrase(q), mode).count
                        for q in generate_queries(pair, terms)]
            assert provider.pair_counts(pair, terms) == expected, (pair, terms, mode)


def test_pair_counts_of_a_large_join_equal_phrase_counts():
    """Two common members join into more than 10,000 candidates per word
    order and term length, so each term group is checked in one large
    gather."""
    rng = random.Random(0)
    words = ["mason", "masons", "stone", "stones", "of", "the", "not"]
    docs = [Document(i, tuple(rng.choices(words, k=rng.randint(0, 60)))) for i in range(5000)]
    idx = build_index(docs)
    pair = WordPair("mason", "stone")
    queries = generate_queries(pair, TERMS)
    for mode in CountMode:
        counts = LocalIndexProvider(idx, mode).pair_counts(pair, TERMS)
        assert counts == [count_hits(idx, parse_phrase(q), mode).count for q in queries]
        if mode is CountMode.OCCURRENCES:
            assert min(counts[:2]) >= 10_000  # the empty term holds every candidate


def test_provider_and_callable_give_equal_vectors_on_planted_corpus():
    docs = [Document(i, tuple(t.split()))
            for i, t in enumerate(planted_corpus(random.Random(6)))]
    provider = LocalIndexProvider(build_index(docs))
    for x, y in PLANT_PAIRS:
        pair = WordPair(x, y)
        by_pair = build_vector(provider, pair, TERMS).raw
        assert by_pair == build_vector(lambda q: provider(q), pair, TERMS).raw
        assert any(by_pair)


def _witness(unit) -> str:
    """A token that a joining term's unit matches: any token for '*',
    "abc" for "abc*", the literal itself otherwise."""
    if unit.kind is PatternKind.ANY_WORD:
        return "w"
    if unit.kind is PatternKind.SUBSTRING:
        return unit.prefix + unit.suffix
    return unit.text


# A member is any text around a run of token characters, so that it holds a
# token; "x-ray", "x_ray" and "Dog's" hold two.
members = st.builds(lambda a, t, b: a + t + b, st.text(max_size=6),
                    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1,
                            max_size=14),
                    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789 -_'", max_size=12))


@settings(max_examples=400, deadline=None)
@given(members, members)
@example("x-ray", "ab")
@example("advertisement", "a12345678")
@example("Dog's", "ab1")
def test_every_query_matches_the_pairs_own_tokens(x, y):
    """Stemming, tokenizing and phrase parsing agree: in a corpus where each
    phrase's members stand, as tokenized, on either side of a witness of
    its joining term, every query of the pair counts at least 1."""
    try:
        pair = WordPair(x, y)
    except ValueError:
        assume(False)
    tx, ty = tokenize(x), tokenize(y)
    docs = []
    for term in TERMS:
        middle = [_witness(u) for u in parse_units(term)]
        for first, second in ((tx, ty), (ty, tx)):
            docs.append(Document(len(docs), tuple(first + middle + second)))
    idx = build_index(docs)
    assert min(LocalIndexProvider(idx).pair_counts(pair, TERMS)) >= 1, pair
    for query in generate_queries(pair, TERMS):
        assert count_hits(idx, parse_phrase(query)).count >= 1, (pair, query)
