import dataclasses
import math
import random
import re
import signal
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
from relsim.fileio import read_rows
from relsim.index import (CountMode, Document, PatternKind, build_index, count_hits,
                          load_corpus, parse_phrase, parse_units, tokenize)
from relsim.nounmod import load_labeled_pairs
from relsim.terms import (default_joining_terms, load_joining_terms,
                          terms_checksum)
from relsim.vectors import (LocalIndexProvider, RelationVector, WordPair,
                            build_vector, cosine, generate_queries, stem)

from oracles import LINE_BREAKS, oracle_cosine, oracle_load_cache, oracle_pair_member
from test_acceptance import PLANT_PAIRS, planted_corpus

TERMS = default_joining_terms()
GOLDEN = Path(__file__).parent / "golden"
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
        cache = load_cache(GOLDEN / "expected" / "vector_cache.txt")
        assert len(cache.entries) > 20
        for key, row in cache.entries.items():
            pair = WordPair.from_key(key)
            got, want = cache.vector(pair), RelationVector.from_raw(pair, row)
            assert got.pair == want.pair and got.raw == want.raw
            assert type(got.raw) is tuple and all(type(c) is int for c in got.raw)
            assert got.r.dtype == want.r.dtype and got.r.tobytes() == want.r.tobytes()
            assert got.r.tobytes() == np.log1p(np.array(row, dtype=np.float64)).tobytes()

    @given(st.lists(st.one_of(st.integers(0, 2 ** 64), st.sampled_from(
        [2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, 10 ** 25, LARGEST])), max_size=130))
    def test_from_counts_rounds_each_count_as_float_does(self, counts):
        """Counts within int64 go through one int64 buffer, larger ones
        through Python floats; each element is log1p(float(count))."""
        v = RelationVector.from_counts(WordPair("a", "b"), tuple(counts))
        assert v.r.dtype == np.float64 and v.r.shape == (len(counts),)
        assert v.r.tobytes() == np.log1p([float(c) for c in counts]).tobytes()

    def test_equality_compares_pair_and_counts(self):
        """r is derived from raw, so == compares the pair and the counts and
        never asks an array for its truth value."""
        def v(x, raw):
            return RelationVector.from_raw(WordPair(x, "b"), raw)

        assert v("a", [1] * 128) == v("a", [1] * 128)
        assert v("a", [1] * 128) != v("a", [1] * 127 + [2])
        assert v("a", [1] * 128) != v("c", [1] * 128)
        assert v("a", [0] * 128) != v("a", [0] * 127)


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
    @settings(deadline=None)
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

    @staticmethod
    def write_rows(tmp_path, keys):
        """A saved cache with a row of 128 ones under each key appended, from line 4."""
        path = tmp_path / "cache.tsv"
        VectorCache("d", "t").save(path)
        with path.open("a", encoding="utf-8") as f:
            f.write("".join(key + "\t" + "\t".join(["1"] * 128) + "\n" for key in keys))
        return path

    @pytest.mark.parametrize("key, x, y", [("-:b", "-", "b"), ("a:--", "a", "--"),
                                           ("# :b", "# ", "b")])
    def test_ascii_key_without_a_letter_or_digit_refused(self, tmp_path, key, x, y):
        path = self.write_rows(tmp_path, [f"w{i}:y{i}" for i in range(5)] + [key, "c:d"])
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:9: bad word pair "
                           f"{re.escape(repr(x))}, {re.escape(repr(y))}: a member has no token "
                           "characters"):
            load_cache(path)

    def test_non_ascii_key_that_word_pair_accepts_loads(self, tmp_path):
        kelvin = "\u212a:b"  # KELVIN SIGN lowercases to "k"
        path = self.write_rows(tmp_path, ["a:b", kelvin, "c:d"])
        cache = load_cache(path)
        assert list(cache.entries) == ["a:b", kelvin, "c:d"]
        assert cache.entries == oracle_load_cache(path)

    def test_letter_rich_keys_then_a_bad_key_fail_promptly(self, tmp_path):
        """A key check that could split a member at any of its letters would
        backtrack through every split of the 63 keys before the bad one."""
        keys = [f"{'ab' * 20}{i}:{'cd' * 20}" for i in range(63)] + ["ab:--"]
        path = self.write_rows(tmp_path, keys)

        def expire(signum, frame):
            raise TimeoutError("load_cache took over 10 s")
        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:67: bad word "
                               "pair 'ab', '--'"):
                load_cache(path)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


class TestCacheLines:
    """A cache holds each row as its line: save writes a loaded row back as
    the line it was read from, and a row put since as put formats it."""

    @given(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]), st.integers(0, 150)),
           st.lists(st.integers(0, 200), max_size=4),
           st.integers(0, 3), st.booleans(), st.sampled_from(CountMode), st.integers(0, 2 ** 32))
    @example(n=65, changes=[64, 0, 200], blanks=2, read_first=False,
             mode=CountMode.DOCUMENT_HITS, seed=0)
    @example(n=130, changes=[64, 200], blanks=0, read_first=False,
             mode=CountMode.OCCURRENCES, seed=0)
    @example(n=130, changes=[64, 200], blanks=0, read_first=True,
             mode=CountMode.DOCUMENT_HITS, seed=0)
    @settings(deadline=None)
    def test_loaded_cache_saves_what_put_saves(self, n, changes, blanks, read_first, mode, seed):
        """Any file load_cache accepts, in either count mode, then a few rows
        put, saves the bytes of a fresh cache given the same rows through
        put, whether or not entries was read before the puts. A change
        names a loaded row by its index mod n + 1, or a new row."""
        rnd = random.Random(seed)

        def counts():
            """Mostly small counts; about one in 500 has 18 to 308 digits."""
            return [rnd.randrange(10 ** rnd.choice([18, 19, 26, 308])) if rnd.random() < 0.002
                    else rnd.randrange(3) for _ in range(128)]
        rows = {rnd.choice(["w", "# w", "\u00c9", "\u212a", "a b"]) + f"{i}:y{i}": counts()
                for i in range(n)}
        lines = [key + "\t" + "\t".join(map(str, row)) for key, row in rows.items()]
        for _ in range(blanks):
            lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(["", " \t "]))
        with tempfile.TemporaryDirectory() as tmp:
            path, got, want = Path(tmp) / "cache.tsv", Path(tmp) / "got.tsv", Path(tmp) / "want.tsv"
            VectorCache("d", "t", mode=mode).save(path)
            with path.open("a", encoding="utf-8") as f:
                f.write("".join(line + "\n" for line in lines))
            cache = load_cache(path)
            if read_first:
                cache.entries
            for i in changes:
                keys = list(rows)
                key = keys[i % (n + 1)] if i % (n + 1) < n else f"new{i}:z"
                rows[key] = counts()
                cache.put(WordPair.from_key(key), rows[key])
            cache.save(got)
            fresh = VectorCache("d", "t", mode=mode)
            for key, row in rows.items():
                fresh.put(WordPair.from_key(key), row)
            fresh.save(want)
            assert got.read_bytes() == want.read_bytes()

    @staticmethod
    def loaded(tmp_path):
        """A cache of the rows a:b (ones) and c:d (twos), saved and loaded."""
        cache = VectorCache("d", "t")
        cache.put(WordPair("a", "b"), [1] * 128)
        cache.put(WordPair("c", "d"), [2] * 128)
        cache.save(tmp_path / "cache.tsv")
        return cache, load_cache(tmp_path / "cache.tsv")

    def test_replaced_loaded_row_saves_its_new_counts(self, tmp_path):
        fresh, cache = self.loaded(tmp_path)
        cache.put(WordPair("a", "b"), [3] * 128)
        fresh.put(WordPair("a", "b"), [3] * 128)
        cache.save(tmp_path / "got.tsv")
        fresh.save(tmp_path / "want.tsv")
        assert load_cache(tmp_path / "got.tsv").entries["a:b"] == (3,) * 128
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    def test_equality_and_repr_ignore_the_lines(self, tmp_path):
        fresh, cache = self.loaded(tmp_path)
        assert cache == fresh and repr(cache) == repr(fresh)

    def test_equality_parses_no_counts(self, tmp_path, monkeypatch):
        """Equality compares lines, so two loads of one file are equal unparsed."""
        fresh, cache = self.loaded(tmp_path)

        def fail(lines):
            pytest.fail("counts were parsed")
        monkeypatch.setattr("relsim.cache._parse_block", fail)
        again = load_cache(tmp_path / "cache.tsv")
        assert cache == again and again == cache
        again.put(WordPair("a", "b"), [3] * 128)
        assert cache != again

    @pytest.mark.parametrize("loaded", [False, True], ids=["fresh", "loaded"])
    def test_entries_is_read_only(self, tmp_path, loaded):
        """A row changes through put alone, which keeps its line in step."""
        cache = self.loaded(tmp_path)[loaded]
        for key in ("a:b", "new:row"):
            with pytest.raises(TypeError):
                cache.entries[key] = (3,) * 128
        assert cache.entries["a:b"] == (1,) * 128 and "new:row" not in cache.entries

    def test_unread_rows_answer_membership_and_keep_their_place(self, tmp_path, monkeypatch):
        """Membership and put read no counts of a loaded cache. The first
        read of entries then lists what an eager load followed by the same
        puts would: loaded rows in file order, a replaced row in its place
        with its new counts, and new rows after them in put order."""
        rnd = random.Random(0)
        lines = [f"w{i}:y{i}\t" + "\t".join(str(rnd.randrange(3)) for _ in range(128))
                 for i in range(200)]
        # A count of over 18 digits sends the second block down the row path.
        lines.insert(100, "big:row\t" + "\t".join([str(10 ** 20)] + ["1"] * 127))
        path = tmp_path / "cache.tsv"
        VectorCache("d", "t").save(path)
        with path.open("a", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in lines))
        puts = [("w10:y10", [5] * 128), ("new:one", [1] * 128), ("w150:y150", [6] * 128),
                ("big:row", [7] * 128), ("w70:y70", [8] * 128), ("new:two", [2] * 128)]

        def fail(lines):
            pytest.fail("counts were parsed")
        monkeypatch.setattr("relsim.cache._parse_block", fail)
        cache = load_cache(path)
        for key in ("w0:y0", "w63:y63", "w64:y64", "big:row", "w199:y199"):
            assert WordPair.from_key(key) in cache
        for key, row in puts:
            cache.put(WordPair.from_key(key), row)
        assert all(WordPair.from_key(key) in cache for key, _ in puts)
        assert WordPair("w200", "y200") not in cache and WordPair("y0", "w0") not in cache
        monkeypatch.undo()
        want = oracle_load_cache(path)
        for key, row in puts:
            want[key] = tuple(row)
        got = cache.entries
        assert list(got) == list(want) and got == want


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


def _phrase_counts(idx, pair, terms, mode) -> list[int]:
    """The counts of generate_queries(pair, terms), one count_hits each."""
    return [count_hits(idx, parse_phrase(q), mode).count for q in generate_queries(pair, terms)]


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


# Up to 20 terms, so that a term length's packed bit rows cross a byte.
term_tables = st.lists(st.lists(st.sampled_from(TERM_UNITS), max_size=3).map(" ".join),
                       min_size=1, max_size=20)

# Each one-unit term of TERM_UNITS, and most two-unit terms of the examples
# below, stands between "mason" and "stone", in one word order or both, and
# several times in one document.
BYTE_EDGE_CORPUS = ([t.split() for t in (
    "mason of stone mason the stone mason not stone",
    "stone very mason mason is stone up mason stone",
    "mason stones stone rays mason masonry stone",
    "mason of the stone mason x of stone mason very is stone mason up stones stone")],
    [3, 1, 2, 5])
BOTH_ORDERS = [("mason", "stone"), ("stone", "mason")]


# A profile may raise the example count, as the deep one does, but not lower it.
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
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
# One-unit terms that fill one byte, one more than a byte, two bytes, and
# one more than two bytes of packed bit rows.
@example(BYTE_EDGE_CORPUS, BOTH_ORDERS, TERM_UNITS[:8])
@example(BYTE_EDGE_CORPUS, BOTH_ORDERS, TERM_UNITS[:9])
@example(BYTE_EDGE_CORPUS, BOTH_ORDERS, (TERM_UNITS * 2)[:16])
@example(BYTE_EDGE_CORPUS, BOTH_ORDERS, (TERM_UNITS * 2)[:17])
# Nine two-unit terms, some holding a standalone '*'.
@example(BYTE_EDGE_CORPUS, BOTH_ORDERS,
         ["of *", "* the", "not very", "very is", "* *", "is up", "of the", "x of", "* ston*"])
# An index with no documents, and one whose only document is empty.
@example(([], []), BOTH_ORDERS, TERMS)
@example(([[]], [3]), BOTH_ORDERS, TERMS)
# No literal or substring unit names a word of the corpus, so only the
# empty term and the all-'*' terms hit, in both word orders.
@example(([t.split() for t in ("mason stone x mason y stone", "stone z mason mason stone",
                               "mason x y stone mason")], [0, 1, 2]),
         BOTH_ORDERS, ["", "*", "* *", "quux", "zeb*ra", "* quux", "quux *"])
# Terms of 0 to 3 units, with a gap-0 candidate ("of stone") and a gap-1
# candidate ("mason of stone") ending the corpus, so that the offsets of the
# longest term run past the corpus's last token.
@example(([t.split() for t in ("mason stone mason of the stone", "stone of x the mason",
                               "x mason of stone")], [0, 1, 2]),
         BOTH_ORDERS + [("of", "stone")], ["", "of", "of the", "of * the"])
# One document where both word orders hit with terms of several lengths,
# word order 0's last candidate and word order 1's first in the same document.
@example(([["mason", "stone", "of", "mason", "of", "the", "stone", "the", "mason"]], [4]),
         BOTH_ORDERS, ["", "of", "of the", "the"])
def test_pair_counts_equal_phrase_counts(corpus, pairs, terms):
    texts, ids = corpus
    idx = build_index([Document(i, tuple(t)) for i, t in zip(ids, texts)])
    for mode in CountMode:
        provider = LocalIndexProvider(idx, mode)
        for x, y in pairs:
            pair = WordPair(x, y)
            expected = _phrase_counts(idx, pair, terms, mode)
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


def test_pair_counts_equal_phrase_counts_on_golden_pairs():
    """Every golden plain pair and default term, in both count modes; no
    golden output covers occurrence mode."""
    idx = build_index(load_corpus(GOLDEN / "corpus.txt"))
    pairs = read_rows(GOLDEN / "pairs.tsv", _plain_pair)
    for mode in CountMode:
        provider = LocalIndexProvider(idx, mode)
        for pair in pairs:
            expected = _phrase_counts(idx, pair, TERMS, mode)
            assert provider.pair_counts(pair, TERMS) == expected, (pair, mode)
            assert any(expected), pair


def test_pair_counts_with_more_named_words_than_a_byte_holds():
    """'abc*' names 400 words, so the term table's classes are wider than
    uint8; pair_counts still equals the per-phrase counts."""
    rng = random.Random(2)
    abc = [f"abc{i}" for i in range(400)]
    pool = ["mason", "stone", "of", "the"] * 100 + abc
    docs = [Document(i, ("mason", w, "stone") if i % 2 else ("stone", "of", w, "mason"))
            for i, w in enumerate(abc)]
    docs += [Document(len(abc) + i, tuple(rng.choices(pool, k=rng.randint(0, 15))))
             for i in range(300)]
    idx = build_index(docs)
    terms = ["", "abc*", "of abc*", "abc7", "abc1*", "* abc3*", "of", "the *"]
    for mode in CountMode:
        provider = LocalIndexProvider(idx, mode)
        for pair in (WordPair("mason", "stone"), WordPair("stone", "mason")):
            expected = _phrase_counts(idx, pair, terms, mode)
            assert provider.pair_counts(pair, terms) == expected, (pair, mode)
            assert min(expected[2:6]) > 0, (pair, mode)  # every 'abc*' term hits
        assert provider._table.tokens.dtype == np.uint16


def test_pair_counts_when_the_term_list_changes():
    """One provider per mode counts the default terms, then other lists of
    other lengths and widths, none, and the default terms again; each list
    rebuilds the term table and gives the per-phrase counts."""
    idx = build_index([Document(i, tuple(t.split())) for i, t in enumerate((
        "mason of the stone stone of mason", "mason x the stone mason stone",
        "stone in the mason mason of stone"))])
    pair = WordPair("mason", "stone")
    for mode in CountMode:
        provider = LocalIndexProvider(idx, mode)
        for terms in (TERMS, ["of", "* the", ""], [], TERMS, ["of the", "of"]):
            expected = _phrase_counts(idx, pair, terms, mode)
            assert provider.pair_counts(pair, terms) == expected, (terms, mode)
            assert any(expected) or not terms
        assert provider.pair_counts(pair, []) == []
        assert build_vector(provider, pair, []).raw == ()


@pytest.mark.parametrize("shifted, doubled, named", [("quux", "zebra", False),
                                                     ("wombat", "the", True)])
def test_pair_counts_refuses_a_position_listed_twice(shifted, doubled, named):
    """Moving a term's first position back one lists the position before it
    twice and its own nowhere. Counting refuses that whether or not a
    joining term names the word listed twice."""
    idx = build_index([Document(0, ("zebra", "quux", "mason", "of", "stone")),
                       Document(1, ("the", "wombat", "stone", "the", "mason"))])
    t = idx.term_id(shifted)
    first = idx.term_positions(t)[0]
    assert first - 1 in idx.term_positions(idx.term_id(doubled))
    names = {w for term in TERMS for p in parse_units(term) if p.kind is not PatternKind.ANY_WORD
             for w in idx.matching_terms(p)}
    assert (doubled in names) is named
    positions = idx.positions.copy()
    positions[idx.offsets[t]] -= 1
    bad = dataclasses.replace(idx, positions=positions)
    for mode in CountMode:
        with pytest.raises(DataFormatError, match="do not cover the corpus"):
            LocalIndexProvider(bad, mode).pair_counts(WordPair("mason", "stone"), TERMS)


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


@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
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
