import random
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relsim import index as index_mod
from relsim.errors import DataFormatError, DuplicateDocIdError, InputError, PhraseSyntaxError
from relsim.index import (CountMode, Document, PatternKind, PositionalIndex, build_index,
                          count_hits, load_corpus, load_index, match_token, parse_phrase,
                          save_index, sort_by_term, tokenize)

from oracles import oracle_corpus_sections, oracle_count, oracle_tokenize


class TestTokenize:
    def test_sentence(self):
        assert tokenize("Immaculate and very clean.") == ["immaculate", "and", "very", "clean"]

    def test_possessive_splits(self):
        assert tokenize("dog's bone") == ["dog", "s", "bone"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphens_split(self):
        assert tokenize("six-hour meeting") == ["six", "hour", "meeting"]

    @given(st.text(max_size=200))
    def test_stable_under_retokenization(self, s):
        once = tokenize(s)
        assert tokenize(" ".join(once)) == once

    @given(st.text())
    @example("İstanbul")  # lower() gives "i" plus a combining dot
    @example("\u212a9")  # the Kelvin sign lowers to "k"
    @example("a\udc80b")  # a lone surrogate, as surrogateescape makes
    @example("x\u2028y\x85z")
    @example("CAFÉ-au-lait")
    @example("")
    def test_matches_regex_oracle(self, s):
        assert tokenize(s) == oracle_tokenize(s)


_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]
_SEPARATOR_LINES = ["%%", "\t%%", "%%\x0c", "\u3000%%\u3000", " %% ", "%%%", "%% %", "x%%"]


@st.composite
def corpus_files(draw):
    """Corpus file text: lines of text or of (near-)separators, each ended
    by one of the line breaks str.splitlines() knows, the last maybe not."""
    lines = draw(st.lists(st.one_of(st.sampled_from(_SEPARATOR_LINES),
                                    st.text(alphabet="ab Z9%\t\u3000É-", max_size=12)),
                          max_size=12))
    breaks = draw(st.lists(st.sampled_from(_LINE_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    text = "".join(line + br for line, br in zip(lines, breaks))
    return text[:-len(breaks[-1])] if lines and draw(st.booleans()) else text


class TestLoadCorpus:
    @given(corpus_files())
    @example("%%\n%%\n%%")  # separators first, last and back to back
    @example("a\r\n\t%%\r\nb")
    @example("a\x0b%%\x1cb\u2028%%%\u2028c")
    @example("one\n\x0c%%\u3000\ntwo")
    @settings(deadline=None)
    def test_sections_match_line_loop_oracle(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.txt"
            path.write_bytes(text.encode("utf-8"))
            docs = load_corpus(path)
            sections = oracle_corpus_sections(path.read_text(encoding="utf-8"))
        assert [d.doc_id for d in docs] == list(range(len(sections)))
        assert [list(d.tokens) for d in docs] == [oracle_tokenize(s) for s in sections]


class TestBuildIndex:
    def test_single_doc(self):
        idx = build_index([Document(0, ("the", "cat", "sat"))])
        assert idx.postings == {"the": [(0, 0)], "cat": [(0, 1)], "sat": [(0, 2)]}
        assert idx.doc_count == 1

    def test_empty_corpus(self):
        idx = build_index([])
        assert idx.postings == {}
        assert idx.doc_count == 0

    def test_shared_token_spans_docs(self):
        idx = build_index([Document(0, ("oil", "well")), Document(1, ("olive", "oil"))])
        assert [d for d, _ in idx.postings["oil"]] == [0, 1]

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(DuplicateDocIdError):
            build_index([Document(3, ("a",)), Document(3, ("b",))])

    def test_postings_in_doc_id_order(self):
        idx = build_index([Document(9, ("b", "a")), Document(2, ()), Document(4, ("a", "a"))])
        assert idx.postings["a"] == [(4, 0), (4, 1), (9, 1)]
        assert idx.doc_lengths == {2: 0, 4: 2, 9: 2}
        assert "a" in idx.postings and "c" not in idx.postings and 3 not in idx.postings
        assert list(idx.postings) == ["a", "b"] and len(idx.postings) == 2
        with pytest.raises(KeyError):
            idx.postings["c"]

    def test_arrays_are_read_only(self):
        idx = build_index([Document(0, ("a", "b"))])
        with pytest.raises(ValueError):
            idx.positions[0] = 1

    def test_digest_pinned(self):
        # Vector caches record this digest; changing it orphans every cache.
        docs = [Document(7, ("the", "mason", "cut", "the", "stone")), Document(2, ()),
                Document(3, ("stone", "of", "the", "mason")), Document(11, ("caf", "x", "ray"))]
        assert build_index(docs).corpus_digest == \
            "80b977c3ccc35f78d0846799188a623a25991cce3045474224feb10aeb719855"
        assert build_index([]).corpus_digest == \
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        # An empty document adds its id and "\x01" only, here ahead of the rest.
        assert build_index([Document(5, ()), Document(3, ("x",))]).corpus_digest == \
            "c858400d747919dd180243fcf14120d0694015df7415e7efe37fb72ec5100afb"

    def test_over_65536_terms_match_brute_force_postings(self):
        # Term ids pass 2**16, so sort_by_term sorts by the high halves too.
        rng = random.Random(10)
        words = [f"w{i}" for i in range(70_000)]
        docs = [Document(d, tuple(rng.choices(words, k=rng.randint(0, 1500))))
                for d in rng.sample(range(500), 300)]
        oracle: dict[str, list[tuple[int, int]]] = {}
        for doc in sorted(docs, key=lambda d: d.doc_id):
            for offset, token in enumerate(doc.tokens):
                oracle.setdefault(token, []).append((doc.doc_id, offset))
        idx = build_index(docs)
        assert idx.vocabulary_size == len(oracle) > 2**16
        assert {t: idx.postings[t] for t in idx.vocab} == oracle
        ascending = np.diff(idx.positions) > 0
        ascending[idx.offsets[1:-1] - 1] = True
        assert ascending.all()

    def test_token_limit(self, monkeypatch):
        monkeypatch.setattr(index_mod, "MAX_TOKENS", 3)
        build_index([Document(0, ("a", "b")), Document(1, ("c",))])
        with pytest.raises(InputError, match="at most 3"):
            build_index([Document(0, ("a", "b")), Document(1, ("c", "d"))])

    def test_deterministic(self):
        docs = [Document(i, tuple(random.Random(i).choices("abcde", k=10))) for i in range(5)]
        a, b = build_index(docs), build_index(docs)
        assert a.postings == b.postings
        assert a.corpus_digest == b.corpus_digest


@given(st.lists(st.integers(0, 2**20), max_size=300) | st.lists(st.integers(0, 3), max_size=300))
def test_sort_by_term_is_stable_argsort(ids):
    term_ids = np.array(ids, dtype=np.int32)
    got = sort_by_term(term_ids)
    assert got.dtype == np.int32
    assert np.array_equal(got, np.argsort(term_ids, kind="stable"))


class TestMatchToken:
    def test_british_spelling(self):
        pat = parse_phrase("colo*r").patterns[0]
        assert match_token(pat, "color")
        assert match_token(pat, "colour")

    def test_trailing_text_not_consumed(self):
        pat = parse_phrase("colo*r").patterns[0]
        assert not match_token(pat, "colorant")

    def test_gap_longer_than_five(self):
        pat = parse_phrase("restrai*").patterns[0]
        assert match_token(pat, "restrained")
        assert not match_token(pat, "restrainabilities")  # gap of 10

    def test_zero_gap(self):
        pat = parse_phrase("restrai*").patterns[0]
        assert match_token(pat, "restrai")


class TestParsePhrase:
    def test_whole_word_wildcard(self):
        q = parse_phrase("immaculate * very clean")
        kinds = [p.kind for p in q.patterns]
        assert kinds == [PatternKind.LITERAL, PatternKind.ANY_WORD,
                         PatternKind.LITERAL, PatternKind.LITERAL]
        assert q.patterns[0].text == "immaculate"

    def test_stemmed_query(self):
        q = parse_phrase("restrai* * very limit*")
        assert q.patterns[0].prefix == "restrai" and q.patterns[0].suffix == ""
        assert q.patterns[1].kind is PatternKind.ANY_WORD
        assert q.patterns[3].prefix == "limit"

    def test_leading_wildcard_rejected(self):
        with pytest.raises(PhraseSyntaxError):
            parse_phrase("* cat")

    def test_trailing_wildcard_rejected(self):
        with pytest.raises(PhraseSyntaxError):
            parse_phrase("cat *")

    def test_short_prefix_rejected(self):
        with pytest.raises(PhraseSyntaxError):
            parse_phrase("ab*c def")

    def test_double_asterisk_rejected(self):
        with pytest.raises(PhraseSyntaxError):
            parse_phrase("abc*de*f")

    def test_empty_rejected(self):
        with pytest.raises(PhraseSyntaxError):
            parse_phrase("   ")


class TestCountHits:
    def setup_method(self):
        self.idx = build_index([Document(0, ("the", "cat", "sat", "on", "the", "mat"))])

    def test_any_word_match(self):
        assert count_hits(self.idx, parse_phrase("the * sat")).count == 1

    def test_no_match(self):
        assert count_hits(self.idx, parse_phrase("cat on")).count == 0

    def test_modes_differ(self):
        idx = build_index([Document(0, ("a", "b", "a", "b"))])
        q = parse_phrase("a b")
        assert count_hits(idx, q, CountMode.OCCURRENCES).count == 2
        assert count_hits(idx, q, CountMode.DOCUMENT_HITS).count == 1

    def test_overlapping_matches(self):
        idx = build_index([Document(0, ("a", "a", "a"))])
        assert count_hits(idx, parse_phrase("a a"), CountMode.OCCURRENCES).count == 2

    def test_wildcard_phrase(self):
        idx = build_index([Document(0, ("restrained", "and", "very", "limited")),
                           Document(1, ("limit", "is", "very", "restraining"))])
        assert count_hits(idx, parse_phrase("restrai* * very limit*")).count == 1
        assert count_hits(idx, parse_phrase("limit* * very restrai*")).count == 1


def random_corpus(rng, max_docs=50, max_len=40):
    alphabet = ["cat", "dog", "restrain", "colour", "color", "the", "a", "limit",
                "limits", "very", "on", "s"]
    docs = []
    for i in range(rng.randint(1, max_docs)):
        docs.append([rng.choice(alphabet) for _ in range(rng.randint(0, max_len))])
    return docs


def random_query_units(rng):
    choices = ["cat", "dog", "the", "very", "limit*", "colo*r", "res*n", "restrai*"]
    n = rng.randint(1, 4)
    units = [rng.choice(choices + ["*"]) for _ in range(n)]
    units[0] = rng.choice(choices)
    units[-1] = rng.choice(choices)
    return units


@pytest.mark.parametrize("seed", range(30))
def test_count_matches_sliding_window_oracle(seed):
    rng = random.Random(seed)
    docs = random_corpus(rng)
    idx = build_index([Document(i, tuple(toks)) for i, toks in enumerate(docs)])
    for _ in range(10):
        units = random_query_units(rng)
        q = parse_phrase(" ".join(units))
        for mode, name in ((CountMode.DOCUMENT_HITS, "document"),
                           (CountMode.OCCURRENCES, "occurrence")):
            assert count_hits(idx, q, mode).count == oracle_count(docs, units, name), \
                (docs, units, name)


def test_document_hits_bounded_by_occurrences():
    rng = random.Random(99)
    docs = random_corpus(rng)
    idx = build_index([Document(i, tuple(toks)) for i, toks in enumerate(docs)])
    for _ in range(50):
        q = parse_phrase(" ".join(random_query_units(rng)))
        dh = count_hits(idx, q, CountMode.DOCUMENT_HITS).count
        occ = count_hits(idx, q, CountMode.OCCURRENCES).count
        assert dh <= occ <= len(docs) * max((len(d) for d in docs), default=0)
        assert dh <= idx.doc_count


def test_rebuild_gives_identical_counts():
    rng = random.Random(7)
    docs = [Document(i, tuple(toks)) for i, toks in enumerate(random_corpus(rng))]
    idx1, idx2 = build_index(docs), build_index(docs)
    for _ in range(20):
        q = parse_phrase(" ".join(random_query_units(rng)))
        assert count_hits(idx1, q).count == count_hits(idx2, q).count


CORPUS_TOKENS = ["cat", "cats", "catalog", "dog", "the", "of", "a", "limit", "limits",
                 "colour", "color", "restrain", "restrained"]
QUERY_UNITS = ["cat", "dog", "the", "of", "a", "limit*", "colo*r", "res*n", "restrai*",
               "cat*", "cata*g", "zebra"]


@st.composite
def corpora(draw):
    """Token lists with unsorted, non-contiguous, unique doc ids; empty
    documents and an empty corpus included."""
    texts = draw(st.lists(st.lists(st.sampled_from(CORPUS_TOKENS), max_size=12), max_size=8))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=len(texts), max_size=len(texts),
                        unique=True))
    return texts, ids


@st.composite
def query_units(draw):
    inner = draw(st.lists(st.sampled_from(QUERY_UNITS + ["*"]), max_size=3))
    return [draw(st.sampled_from(QUERY_UNITS))] + inner + \
        ([draw(st.sampled_from(QUERY_UNITS))] if inner else [])


@settings(max_examples=300, deadline=None)
@given(corpora(), st.lists(query_units(), min_size=1, max_size=5))
def test_count_hits_matches_oracle(corpus, queries):
    texts, ids = corpus
    idx = build_index([Document(i, tuple(t)) for i, t in zip(ids, texts)])
    for units in queries:
        q = parse_phrase(" ".join(units))
        for mode, name in ((CountMode.DOCUMENT_HITS, "document"),
                           (CountMode.OCCURRENCES, "occurrence")):
            assert count_hits(idx, q, mode).count == oracle_count(texts, units, name), \
                (units, name)


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_save_load_round_trip(corpus):
    texts, ids = corpus
    idx = build_index([Document(i, tuple(t)) for i, t in zip(ids, texts)])
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "corpus.idx"
        save_index(idx, path)
        loaded = load_index(path)
    assert dict(loaded.postings) == dict(idx.postings)
    assert loaded.doc_lengths == idx.doc_lengths
    assert loaded.corpus_digest == idx.corpus_digest


# A profile may raise the example count, as the deep one does, but not lower it.
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(corpora(), st.integers(0, 2**32 - 1), st.sampled_from([np.uint8, np.uint16, np.int32]))
def test_token_classes_invert_the_postings(corpus, seed, dtype):
    """token_classes(term_class)[p] is the class of the term at global
    position p, on a built and on a loaded index: with classes 1..V it
    inverts the postings, and with any nonzero class map each position gets
    its term's class, in the map's dtype."""
    texts, ids = corpus
    idx = build_index([Document(i, tuple(t)) for i, t in zip(ids, texts)])
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "corpus.idx"
        save_index(idx, path)
        loaded = load_index(path)
    in_order = [tok for _, text in sorted(zip(ids, texts)) for tok in text]
    rng = np.random.default_rng(seed)
    for ix in (idx, loaded):
        assert np.array_equal(np.sort(ix.positions), np.arange(ix.token_count))
        tokens = ix.token_classes(np.arange(1, ix.vocabulary_size + 1, dtype=np.int32)) - 1
        assert tokens.dtype == np.int32 and len(tokens) == ix.token_count
        for t in range(ix.vocabulary_size):
            assert np.all(tokens[ix.term_positions(t)] == t)
        assert [ix.vocab[t] for t in tokens] == in_order
        term_class = rng.integers(1, 4, ix.vocabulary_size, endpoint=True).astype(dtype)
        classes = ix.token_classes(term_class)
        assert classes.dtype == dtype
        assert np.array_equal(classes, term_class[tokens])


def test_save_is_deterministic_and_compact(tmp_path):
    docs = [Document(i, tuple(random.Random(i).choices("abcde", k=50))) for i in range(20)]
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(build_index(docs), a)
    save_index(build_index(docs), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"relsim-index-v2\n")
    assert not list(tmp_path.glob(".*"))  # no temporary files left behind


def _corrupt(idx, **changes):
    fields = {f: getattr(idx, f) for f in ("vocab", "offsets", "positions", "doc_ids",
                                           "doc_starts", "doc_lens", "corpus_digest")}
    return PositionalIndex(**{**fields, **changes})


@pytest.mark.parametrize("change", [
    lambda ix: _corrupt(ix, positions=ix.positions.astype(np.int64)),
    lambda ix: _corrupt(ix, positions=np.where(ix.positions == 0, 99, ix.positions)
                        .astype(np.int32)),
    lambda ix: _corrupt(ix, positions=ix.positions[[0, 2, 1, 3, 4, 5, 6]]),  # cat: 4, 1
    lambda ix: _corrupt(ix, offsets=np.minimum(ix.offsets, ix.offsets[-2])),
    lambda ix: _corrupt(ix, offsets=ix.offsets[[0, 2, 1, 3, 4, 5]]),
    lambda ix: _corrupt(ix, vocab=tuple(reversed(ix.vocab))),
    lambda ix: _corrupt(ix, doc_lens=ix.doc_lens[::-1].copy()),
    lambda ix: _corrupt(ix, doc_starts=ix.doc_starts + 1),
    lambda ix: _corrupt(ix, doc_ids=ix.doc_ids[::-1].copy()),
])
def test_inconsistent_file_rejected(tmp_path, change):
    idx = build_index([Document(5, ("the", "cat", "sat", "on")), Document(1, ("a", "cat", "on")),
                       Document(2, ())])
    path = tmp_path / "bad.idx"
    save_index(change(idx), path)
    with pytest.raises(DataFormatError, match=str(path)):
        load_index(path)


@pytest.mark.parametrize("data", [b"", b"relsim-index-v1\n", b"not an index",
                                  b'{"format": "relsim-index-v1"}'])
def test_foreign_file_rejected(tmp_path, data):
    path = tmp_path / "x.idx"
    path.write_bytes(data)
    with pytest.raises(DataFormatError):
        load_index(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.idx"
    save_index(build_index([Document(0, ("a",))]), path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(DataFormatError, match="after the last array"):
        load_index(path)
