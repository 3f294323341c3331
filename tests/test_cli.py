import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from relsim.cache import VectorCache, load_cache
from relsim.cli import cli, main
from relsim.errors import CacheProvenanceError, DataFormatError
from relsim.index import _FILE_ARRAYS, INDEX_MAGIC, CountMode, build_index, load_corpus
from relsim.terms import default_joining_terms, load_joining_terms, terms_checksum
from relsim.vectors import WordPair


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "a.txt").write_text("traffic in the street and traffic of the street")
    (d / "b.txt").write_text("water in the riverbed")
    (d / "c.txt").write_text("mason with stone, carpenter with wood")
    return d


class TestCorpusLoading:
    def test_directory(self, corpus_dir):
        docs = load_corpus(corpus_dir)
        assert len(docs) == 3
        assert docs[0].tokens[0] == "traffic"  # a.txt first by filename order

    def test_separator_file(self, tmp_path):
        f = tmp_path / "corpus.txt"
        f.write_text("first document here\n%%\nsecond document here\n")
        docs = load_corpus(f)
        assert len(docs) == 2
        assert docs[1].tokens == ("second", "document", "here")

    @pytest.mark.parametrize("form", ["directory", "separator file"])
    def test_one_str_per_distinct_token(self, tmp_path, form):
        # multi-character words only: CPython shares one-character strings anyway
        texts = ["street traffic street traffic", "Traffic in the STREET",
                 "riverbed street traffic"]
        if form == "directory":
            for i, text in enumerate(texts):
                (tmp_path / f"{i}.txt").write_text(text)
            docs = load_corpus(tmp_path)
        else:
            f = tmp_path / "corpus.txt"
            f.write_text("\n%%\n".join(texts))
            docs = load_corpus(f)
        tokens = [t for d in docs for t in d.tokens]
        assert len(docs) == 3 and len(tokens) == 11
        assert len({id(t) for t in tokens}) == len(set(tokens))

    def test_directory_matches_separator_file(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "10.txt").write_text("ten comes first")
        (d / "2.txt").write_text("Two comes\nsecond")
        (d / "3.txt").write_text("")
        (d / "sub").mkdir()
        (d / "sub" / "0.txt").write_text("never read")
        f = tmp_path / "corpus.txt"
        f.write_text("ten comes first\n%%\nTwo comes\nsecond\n%%\n")
        docs = load_corpus(d)
        assert [doc.tokens for doc in docs] == [("ten", "comes", "first"),
                                                ("two", "comes", "second"), ()]
        assert docs == load_corpus(f)
        assert build_index(docs).corpus_digest == build_index(load_corpus(f)).corpus_digest


class TestIndexBuild:
    def test_summary(self, runner, corpus_dir, tmp_path):
        out = tmp_path / "idx.json"
        result = runner.invoke(cli, ["index", "build", str(corpus_dir), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert "documents: 3" in result.output

    def test_byte_identical_rebuild(self, runner, corpus_dir, tmp_path):
        out1, out2 = tmp_path / "i1.json", tmp_path / "i2.json"
        runner.invoke(cli, ["index", "build", str(corpus_dir), "-o", str(out1)])
        runner.invoke(cli, ["index", "build", str(corpus_dir), "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_corpus_warns(self, runner, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        out = tmp_path / "idx.json"
        result = runner.invoke(cli, ["index", "build", str(d), "-o", str(out)])
        assert result.exit_code == 0
        assert out.exists()


@pytest.fixture
def built_index(runner, corpus_dir, tmp_path):
    out = tmp_path / "idx.json"
    runner.invoke(cli, ["index", "build", str(corpus_dir), "-o", str(out)])
    return out


class TestVectors:
    def test_compute_and_reuse(self, runner, built_index, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("traffic\tstreet\nwater:riverbed\n")
        cache = tmp_path / "cache.tsv"
        r1 = runner.invoke(cli, ["vectors", str(pairs), "--index", str(built_index),
                                 "--cache", str(cache)])
        assert r1.exit_code == 0, r1.output
        assert "2 computed, 0 reused" in r1.output
        r2 = runner.invoke(cli, ["vectors", str(pairs), "--index", str(built_index),
                                 "--cache", str(cache)])
        assert "0 computed, 2 reused" in r2.output

    def test_unchanged_cache_is_not_rewritten(self, runner, built_index, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("traffic\tstreet\n")
        cache = tmp_path / "cache.tsv"
        args = ["vectors", str(pairs), "--index", str(built_index), "--cache", str(cache)]
        assert runner.invoke(cli, args).exit_code == 0
        before = cache.stat()
        r = runner.invoke(cli, args)
        assert r.exit_code == 0, r.output
        assert "0 computed, 1 reused" in r.output
        after = cache.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_empty_pairs_file_writes_an_empty_cache(self, runner, built_index, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("")
        cache = tmp_path / "cache.tsv"
        r = runner.invoke(cli, ["vectors", str(pairs), "--index", str(built_index),
                                "--cache", str(cache)])
        assert r.exit_code == 0, r.output
        assert "0 computed, 0 reused" in r.output
        assert load_cache(cache).entries == {}

    def test_round_trip_bit_identical(self, built_index, tmp_path):
        from relsim.index import load_index
        idx = load_index(built_index)
        checksum = terms_checksum(default_joining_terms())
        cache = VectorCache(idx.corpus_digest, checksum)
        cache.put(WordPair("a", "b"), tuple(range(128)))
        p = tmp_path / "c.tsv"
        cache.save(p)
        loaded = load_cache(p, idx.corpus_digest, checksum)
        assert loaded.entries == cache.entries

    def test_provenance_mismatch_names_both(self, tmp_path):
        cache = VectorCache("digest-one", "terms-one")
        p = tmp_path / "c.tsv"
        cache.save(p)
        with pytest.raises(CacheProvenanceError) as exc:
            load_cache(p, "digest-two", "terms-one")
        assert "digest-one" in str(exc.value) and "digest-two" in str(exc.value)

    def test_mode_line_only_in_occurrence_caches(self, tmp_path):
        for mode in CountMode:
            p = tmp_path / f"{mode.value}.tsv"
            VectorCache("d", "t", mode=mode).save(p)
            assert ("# mode: occurrence" in p.read_text()) == (mode is CountMode.OCCURRENCES)
            assert load_cache(p, "d", "t", mode).mode is mode
        p.write_text(p.read_text().replace("occurrence", "tokens"))
        with pytest.raises(DataFormatError, match="unknown count mode 'tokens'"):
            load_cache(p)

    @pytest.mark.parametrize("mode, extra, lineno", [
        (CountMode.DOCUMENT_HITS, "# a:b", 4),  # a row that lost its counts
        (CountMode.DOCUMENT_HITS, "# corpus: other", 4),
        (CountMode.DOCUMENT_HITS, "# terms: t", 4),
        (CountMode.OCCURRENCES, "# mode: occurrence", 5),
        (CountMode.DOCUMENT_HITS, "# comment", 4),
        (CountMode.DOCUMENT_HITS, "# note: x", 4),
    ])
    def test_header_is_corpus_terms_and_mode_once_each(self, tmp_path, mode, extra, lineno):
        p = tmp_path / "c.tsv"
        VectorCache("d", "t", mode=mode).save(p)
        with p.open("a", encoding="utf-8") as f:
            f.write(extra + "\n" + "c:d\t" + "\t".join(["1"] * 128) + "\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}:{lineno}: "):
            load_cache(p)

    def test_byte_order_mark_is_not_part_of_the_first_field(self, capsys, built_index,
                                                           tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("mason\tstone\n")
        marked = tmp_path / "marked.tsv"
        marked.write_bytes(b"\xef\xbb\xbf" + pairs.read_bytes())
        cache = tmp_path / "cache.tsv"
        for path, counts in ((pairs, "1 computed, 0 reused"), (marked, "0 computed, 1 reused")):
            code, out, err = run_main(capsys, "vectors", str(path), "--index", str(built_index),
                                      "--cache", str(cache))
            assert code == 0, err
            assert counts in out
        assert list(load_cache(cache).entries) == ["mason:stone"]

    def test_dedup_across_formats(self, runner, built_index, tmp_path):
        q = tmp_path / "q.tsv"
        q.write_text("traffic:street\twater:riverbed\tmason:stone\ta\n"
                     "traffic:street\tmason:stone\twater:riverbed\tb\n")
        cache = tmp_path / "cache.tsv"
        r = runner.invoke(cli, ["vectors", str(q), "--index", str(built_index),
                                "--cache", str(cache), "--format", "sat"])
        assert r.exit_code == 0, r.output
        assert "3 distinct" in r.output

    def test_member_starting_with_hash_survives_the_cache(self, runner, built_index, tmp_path):
        # the sorted cache's first row "# water:riverbed\t..." is a pair, not a header line
        q = tmp_path / "q.tsv"
        q.write_text("traffic:street\t# water:riverbed\tmason:stone\ta\n")
        cache = tmp_path / "cache.tsv"
        r = runner.invoke(cli, ["vectors", str(q), "--index", str(built_index),
                                "--cache", str(cache), "--format", "sat"])
        assert r.exit_code == 0, r.output
        assert "# water:riverbed" in load_cache(cache).entries
        r = runner.invoke(cli, ["sat", "solve", str(q), "--cache", str(cache)])
        assert r.exit_code == 0, r.output


@pytest.fixture
def sat_setup(runner, built_index, tmp_path):
    q = tmp_path / "questions.tsv"
    q.write_text("traffic:street\twater:riverbed\tmason:stone\ta\n")
    cache = tmp_path / "cache.tsv"
    runner.invoke(cli, ["vectors", str(q), "--index", str(built_index),
                        "--cache", str(cache), "--format", "sat"])
    return q, cache


class TestSatSolve:
    def test_single_threshold_report(self, runner, sat_setup):
        q, cache = sat_setup
        result = runner.invoke(cli, ["sat", "solve", str(q), "--cache", str(cache)])
        assert result.exit_code == 0, result.output
        assert "precision:" in result.output
        assert "raw SAT score:" in result.output

    def test_sweep_row_count(self, runner, sat_setup, tmp_path):
        q, cache = sat_setup
        csv = tmp_path / "sweep.csv"
        result = runner.invoke(cli, ["sat", "solve", str(q), "--cache", str(cache),
                                     "--sweep", "-0.11:0.11:0.01", "--csv", str(csv)])
        assert result.exit_code == 0, result.output
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "threshold,precision,recall,f,guesses,skipped,doubles"
        assert len(lines) == 24  # header + 23 rows

    def test_rank_report(self, runner, sat_setup):
        q, cache = sat_setup
        result = runner.invoke(cli, ["sat", "rank", str(q), "--cache", str(cache),
                                     "--top", "3"])
        assert result.exit_code == 0, result.output
        assert "cumulative" in result.output

    def test_rank_with_only_zero_stems(self, capsys, tmp_path):
        """No question can be ranked: an input error naming the file, not a table of zeros."""
        q = tmp_path / "questions.tsv"
        q.write_text("a:b\tc:d\te:f\ta\ng:h\ti:j\tk:l\tb\n")
        cache = VectorCache("digest", "checksum")
        for key in ("a:b", "g:h"):
            cache.put(WordPair.from_key(key), [0] * 128)
        for key in ("c:d", "e:f", "i:j", "k:l"):
            cache.put(WordPair.from_key(key), [1] * 128)
        cache.save(tmp_path / "cache.tsv")
        code, out, err = run_main(capsys, "sat", "rank", str(q), "--cache",
                                  str(tmp_path / "cache.tsv"), "--top", "2")
        assert code == 1, err
        assert err == f"error: {q}: no question to rank: all 2 stem vectors are all zeros\n"
        assert out == ""


class TestNounmodEval:
    @pytest.fixture
    def nm_setup(self, runner, built_index, tmp_path):
        data = tmp_path / "nm.tsv"
        data.write_text("traffic\tstreet\tloc\nwater\triverbed\tloc\n"
                        "mason\tstone\tinst\ncarpenter\twood\tinst\n")
        cache = tmp_path / "nmcache.tsv"
        runner.invoke(cli, ["vectors", str(data), "--index", str(built_index),
                            "--cache", str(cache), "--format", "nounmod"])
        return data, cache

    def test_30_class_table(self, runner, nm_setup):
        data, cache = nm_setup
        result = runner.invoke(cli, ["nounmod", "eval", str(data), "--cache", str(cache)])
        assert result.exit_code == 0, result.output
        assert "macroaverage" in result.output
        assert "loc\t2\t50.0%" in result.output

    def test_5_class_header_names(self, runner, nm_setup):
        data, cache = nm_setup
        result = runner.invoke(cli, ["nounmod", "eval", str(data),
                                     "--cache", str(cache), "--classes", "5"])
        assert result.exit_code == 0, result.output
        for group in ("causality", "participant", "quality", "spatial", "temporality"):
            assert group in result.output

    def test_sweep_rows(self, runner, nm_setup, tmp_path):
        data, cache = nm_setup
        csv = tmp_path / "nm.csv"
        result = runner.invoke(cli, ["nounmod", "eval", str(data), "--cache", str(cache),
                                     "--sweep", "-0.03:0.03:0.01", "--csv", str(csv)])
        assert result.exit_code == 0, result.output
        assert len(csv.read_text().strip().split("\n")) == 8  # header + 7


class TestExitCodes:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "relsim.cli", *args],
                              capture_output=True, text=True)

    def test_success_is_zero(self):
        assert self.run_cli("--help").returncode == 0

    def test_input_error_is_one(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a cache\n")
        q = tmp_path / "q.tsv"
        q.write_text("a:b\tc:d\te:f\ta\n")
        proc = self.run_cli("sat", "solve", str(q), "--cache", str(bad))
        assert proc.returncode == 1

    def test_usage_error_is_one(self):
        proc = self.run_cli("sat", "solve", "/nonexistent/file")
        assert proc.returncode == 1

    def test_package_runs_as_module(self):
        proc = subprocess.run([sys.executable, "-m", "relsim", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "nounmod" in proc.stdout


def run_main(capsys, *args):
    """Exit code, stdout and stderr of the CLI entry point, run in-process."""
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.fixture
def nm_files(runner, built_index, tmp_path):
    data = tmp_path / "nm.tsv"
    data.write_text("traffic\tstreet\tloc\nwater\triverbed\tloc\nmason\tstone\tinst\n")
    cache = tmp_path / "nmcache.tsv"
    runner.invoke(cli, ["vectors", str(data), "--index", str(built_index),
                        "--cache", str(cache), "--format", "nounmod"])
    return data, cache


class TestInputErrors:
    @pytest.mark.parametrize("spec", ["0:0.1:0", "0:0.1:-0.01", "0.1:0:0.01",
                                      "nan:0.1:0.01", "0:inf:0.01", "0:0.1",
                                      "0:1e308:1e-308", "-1e308:1e308:1"])
    def test_bad_sweep_spec_exits_one(self, capsys, sat_setup, nm_files, spec):
        q, cache = sat_setup
        data, nm_cache = nm_files
        for args in (["sat", "solve", str(q), "--cache", str(cache)],
                     ["nounmod", "eval", str(data), "--cache", str(nm_cache)]):
            code, _, err = run_main(capsys, *args, "--sweep", spec)
            assert code == 1, err
            assert "bad sweep spec" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_one(self, capsys, sat_setup, nm_files, value):
        q, cache = sat_setup
        data, nm_cache = nm_files
        for args in (["sat", "solve", str(q), "--cache", str(cache)],
                     ["nounmod", "eval", str(data), "--cache", str(nm_cache)]):
            code, out, err = run_main(capsys, *args, "--threshold", value)
            assert code == 1, err
            assert "--threshold" in err and "not a finite number" in err
            assert out == ""

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_rank_top_below_one_exits_one(self, capsys, sat_setup, top):
        q, cache = sat_setup
        code, out, err = run_main(capsys, "sat", "rank", str(q), "--cache", str(cache),
                                  "--top", top)
        assert code == 1, err
        assert "--top" in err
        assert out == ""

    def test_nounmod_eval_of_one_item_names_the_file(self, capsys, nm_files, tmp_path):
        _, nm_cache = nm_files
        one = tmp_path / "one.tsv"
        one.write_text("traffic\tstreet\tloc\n")
        code, out, err = run_main(capsys, "nounmod", "eval", str(one), "--cache",
                                  str(nm_cache))
        assert code == 1, err
        assert f"{one}: need at least two labelled items" in err
        assert "internal error" not in err and out == ""

    @pytest.mark.parametrize("args", [["solve"], ["solve", "--sweep", "0:0.1:0.05"], ["rank"]],
                             ids=["solve", "sweep", "rank"])
    @pytest.mark.parametrize("text", ["", "# a comment\n\n"], ids=["empty", "comments"])
    def test_sat_file_without_a_question_names_the_file(self, capsys, tmp_path, args, text):
        """The error comes before the cache is read: here it is no cache."""
        empty = tmp_path / "questions.tsv"
        empty.write_text(text)
        junk = tmp_path / "junk.tsv"
        junk.write_text("not a cache\n")
        code, out, err = run_main(capsys, "sat", args[0], str(empty), "--cache", str(junk),
                                  *args[1:])
        assert code == 1, err
        assert f"{empty}: no questions" in err
        assert "internal error" not in err and "vector cache" not in err and out == ""

    def test_sweep_stdout_equals_csv_file(self, capsys, sat_setup, nm_files, tmp_path):
        q, cache = sat_setup
        data, nm_cache = nm_files
        csv = tmp_path / "out.csv"
        for args in (["sat", "solve", str(q), "--cache", str(cache)],
                     ["nounmod", "eval", str(data), "--cache", str(nm_cache)]):
            code, stdout, _ = run_main(capsys, *args, "--sweep", "-0.02:0.02:0.01")
            assert code == 0
            code, note, _ = run_main(capsys, *args, "--sweep", "-0.02:0.02:0.01",
                                     "--csv", str(csv))
            assert code == 0
            assert note == f"wrote 5 rows to {csv}\n"
            assert csv.read_text() == stdout

    @pytest.mark.parametrize("line", ["traffic:jam\tstreet", "traffic\t", "\tstreet",
                                      "traffic:jam:street"])
    def test_bad_pairs_line_keeps_cache_usable(self, capsys, built_index, sat_setup,
                                               tmp_path, line):
        q, cache = sat_setup
        before = cache.read_bytes()
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(f"water\triverbed\n{line}\n")
        code, _, err = run_main(capsys, "vectors", str(pairs), "--index", str(built_index),
                                "--cache", str(cache), "--format", "pairs")
        assert code == 1, err
        assert f"{pairs}:2" in err
        assert cache.read_bytes() == before
        code, out, err = run_main(capsys, "sat", "solve", str(q), "--cache", str(cache))
        assert code == 0, err
        assert "precision:" in out

    @pytest.mark.parametrize("command, text, missing", [
        ("sat solve", "unknown:pairs\ttraffic:street\twater:riverbed\ta\n", "unknown:pairs"),
        ("sat rank", "unknown:pairs\ttraffic:street\twater:riverbed\ta\n", "unknown:pairs"),
        ("nounmod eval", "unknown\tpairs\tloc\ntraffic\tstreet\tloc\nsome\tmore\tloc\n",
         "some:more, unknown:pairs"),
    ], ids=["sat-solve", "sat-rank", "nounmod-eval"])
    def test_missing_pair_listed(self, capsys, sat_setup, tmp_path, command, text, missing):
        _, cache = sat_setup
        data = tmp_path / "data.tsv"
        data.write_text(text)
        code, out, err = run_main(capsys, *command.split(), str(data), "--cache", str(cache))
        assert code == 1 and out == ""
        assert err == f"error: missing cached vectors for pairs: {missing}\n"

    def test_csv_without_sweep_is_a_usage_error(self, capsys, sat_setup, nm_files,
                                                tmp_path):
        q, cache = sat_setup
        data, nm_cache = nm_files
        not_a_cache = tmp_path / "not-a-cache.tsv"
        not_a_cache.write_text("not a cache\n")
        csv = tmp_path / "out.csv"
        for args, good_cache in ((["sat", "solve", str(q)], cache),
                                 (["nounmod", "eval", str(data)], nm_cache)):
            code, out, err = run_main(capsys, *args, "--cache", str(not_a_cache),
                                      "--csv", str(csv))
            assert code == 1, err
            assert "--csv needs --sweep" in err and "not a relsim vector cache" not in err
            assert out == "" and not csv.exists()
            # the flags' order does not matter
            code, out, err = run_main(capsys, *args, "--csv", str(csv), "--cache",
                                      str(good_cache), "--sweep", "-0.02:0.02:0.01")
            assert code == 0, err
            assert out == f"wrote 5 rows to {csv}\n"
            csv.unlink()

    def test_pairs_file_is_checked_before_the_index(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("water\triverbed\ntraffic:jam\tstreet\n")
        not_an_index = tmp_path / "not-an-index.idx"
        not_an_index.write_text("not an index\n")
        code, _, err = run_main(capsys, "vectors", str(pairs), "--index", str(not_an_index),
                                "--cache", str(tmp_path / "cache.tsv"))
        assert code == 1, err
        assert f"{pairs}:2: " in err and str(not_an_index) not in err
        assert not (tmp_path / "cache.tsv").exists()

    @pytest.mark.parametrize("answer", ["", "bc"])
    def test_bad_answer_letter_exits_one(self, capsys, sat_setup, tmp_path, answer):
        good, cache = sat_setup
        q = tmp_path / "bad.tsv"
        q.write_text(good.read_text() + f"traffic:street\twater:riverbed\tmason:stone\t{answer}\n")
        code, _, err = run_main(capsys, "sat", "solve", str(q), "--cache", str(cache))
        assert code == 1, err
        assert f"{q}:2" in err and "internal error" not in err

    @pytest.mark.parametrize("fmt, line", [
        ("sat", "traffic:\twater:riverbed\tmason:stone\ta"),
        ("sat", "traffic:street\twater:river:bed\tmason:stone\ta"),
        ("pairs", "\tstreet"),
        ("pairs", "traffic:jam\tstreet"),
        ("pairs", ":street"),
        ("pairs", "traffic:jam:street"),
        ("nounmod", " \tstreet\tloc"),
        ("nounmod", "traffic\tjam:street\tloc"),
    ], ids=["sat-empty", "sat-colon", "tab-empty", "tab-colon", "colon-empty",
            "colon-colon", "labelled-empty", "labelled-colon"])
    def test_bad_member_exits_one_naming_line(self, capsys, built_index, tmp_path, fmt,
                                              line):
        good = {"sat": "traffic:street\twater:riverbed\tmason:stone\ta",
                "pairs": "water\triverbed", "nounmod": "water\triverbed\tloc"}[fmt]
        data = tmp_path / "in.tsv"
        data.write_text(f"{good}\n{line}\n")
        cache = tmp_path / "cache.tsv"
        code, _, err = run_main(capsys, "vectors", str(data), "--index", str(built_index),
                                "--cache", str(cache), "--format", fmt)
        assert code == 1, err
        assert f"{data}:2" in err and "internal error" not in err
        assert not cache.exists()

    def test_non_utf8_corpus_is_input_error(self, capsys, tmp_path):
        corpus = tmp_path / "latin1.txt"
        corpus.write_bytes("caf\u00e9 au lait\n".encode("latin-1"))
        code, _, err = run_main(capsys, "index", "build", str(corpus),
                                "-o", str(tmp_path / "idx.json"))
        assert code == 1
        assert str(corpus) in err and "internal error" not in err

    def test_colon_in_labelled_member_exits_one(self, capsys, built_index, tmp_path):
        data = tmp_path / "nm.tsv"
        data.write_text("water\triverbed\tloc\ntraffic:jam\tstreet\tloc\n")
        cache = tmp_path / "nmcache.tsv"
        code, _, err = run_main(capsys, "vectors", str(data), "--index", str(built_index),
                                "--cache", str(cache), "--format", "nounmod")
        assert code == 1, err
        assert f"{data}:2" in err
        assert not cache.exists()

    def test_member_without_token_characters_exits_one(self, capsys, built_index, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("water\triverbed\n--\tstreet\n")
        code, _, err = run_main(capsys, "vectors", str(pairs), "--index", str(built_index),
                                "--cache", str(tmp_path / "cache.tsv"))
        assert code == 1, err
        assert f"{pairs}:2: bad word pair '--', 'street'" in err
        assert "internal error" not in err
        assert not (tmp_path / "cache.tsv").exists()

    @pytest.mark.parametrize("reader", ["questions", "labelled", "cache"])
    def test_member_without_token_characters_names_its_line(self, capsys, sat_setup,
                                                             nm_files, reader):
        q, cache = sat_setup
        data, nm_cache = nm_files
        path, line = {"questions": (q, "--:street\twater:riverbed\tmason:stone\ta"),
                      "labelled": (data, "--\tstreet\tloc"),
                      "cache": (cache, "\t".join(["--:street"] + ["0"] * 128))}[reader]
        lineno = len(path.read_text().splitlines()) + 1
        with path.open("a") as f:
            f.write(line + "\n")
        command = ["nounmod", "eval", str(data), "--cache", str(nm_cache)] \
            if reader == "labelled" else ["sat", "solve", str(q), "--cache", str(cache)]
        code, out, err = run_main(capsys, *command)
        assert code == 1, err
        assert f"{path}:{lineno}: bad word pair '--', 'street'" in err
        assert "internal error" not in err and out == ""

    def test_v1_json_index_exits_one(self, capsys, tmp_path):
        old = tmp_path / "old.idx"
        old.write_text('{"corpus_digest":"d","doc_lengths":{"0":1},'
                       '"format":"relsim-index-v1","postings":{"a":[[0,0]]}}')
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("water\triverbed\n")
        code, _, err = run_main(capsys, "vectors", str(pairs), "--index", str(old),
                                "--cache", str(tmp_path / "cache.tsv"))
        assert code == 1, err
        assert "relsim index build" in err

    @pytest.mark.parametrize("keep", [0.3, 0.99])
    def test_truncated_index_exits_one(self, capsys, built_index, tmp_path, keep):
        data = built_index.read_bytes()
        cut = tmp_path / "cut.idx"
        cut.write_bytes(data[:int(len(data) * keep)])
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("water\triverbed\n")
        code, _, err = run_main(capsys, "vectors", str(pairs), "--index", str(cut),
                                "--cache", str(tmp_path / "cache.tsv"))
        assert code == 1, err
        assert str(cut) in err and "internal error" not in err

    @pytest.mark.parametrize("first, second", [("document", "occurrence"),
                                               ("occurrence", "document")])
    def test_cache_of_another_count_mode_exits_one(self, capsys, built_index, tmp_path,
                                                   first, second):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("mason\tstone\n")
        cache = tmp_path / "cache.tsv"
        args = ["vectors", str(pairs), "--index", str(built_index), "--cache", str(cache)]
        assert run_main(capsys, *args, "--mode", first)[0] == 0
        saved = cache.read_bytes()
        code, _, err = run_main(capsys, *args, "--mode", second)
        assert code == 1, err
        assert f"cache has {first}" in err and f"has {second}" in err
        assert cache.read_bytes() == saved
        code, out, _ = run_main(capsys, *args, "--mode", first)
        assert code == 0 and "0 computed, 1 reused" in out

    @pytest.mark.parametrize("count", [63, 65])
    def test_joining_term_table_of_another_size_exits_one(self, capsys, built_index,
                                                          tmp_path, count):
        terms = tmp_path / "terms.txt"
        terms.write_text("\n".join([""] + ["of"] * (count - 1)) + "\n")
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("mason\tstone\n")
        cache = tmp_path / "cache.tsv"
        code, _, err = run_main(capsys, "vectors", str(pairs), "--index", str(built_index),
                                "--cache", str(cache), "--terms", str(terms))
        assert code == 1, err
        assert f"{terms}: joining-term table must have exactly 64 entries, got {count}" in err
        assert not cache.exists()

    @pytest.mark.parametrize("reader", ["questions", "labelled"])
    def test_short_row_exits_one_naming_its_line(self, capsys, sat_setup, nm_files, reader):
        q, cache = sat_setup
        data, nm_cache = nm_files
        path, line, message = {
            "questions": (q, "traffic:street\twater:riverbed\ta",
                          "expected stem, choices, answer"),
            "labelled": (data, "water\triverbed", "expected modifier, head, class")}[reader]
        lineno = len(path.read_text().splitlines()) + 1
        with path.open("a") as f:
            f.write(line + "\n")
        command = ["nounmod", "eval", str(data), "--cache", str(nm_cache)] \
            if reader == "labelled" else ["sat", "solve", str(q), "--cache", str(cache)]
        code, out, err = run_main(capsys, *command)
        assert code == 1 and out == ""
        assert f"{path}:{lineno}: {message}" in err

    @pytest.mark.parametrize("fault", ["past-the-text", "descending"])
    def test_index_whose_vocabulary_ends_miss_its_text_exits_one(self, capsys, built_index,
                                                                 tmp_path, fault):
        with built_index.open("rb") as f:
            assert f.read(len(INDEX_MAGIC)) == INDEX_MAGIC
            arrays = {name: np.lib.format.read_array(f) for name, _ in _FILE_ARRAYS}
        ends = arrays["vocab_ends"]
        if fault == "past-the-text":
            ends[-1] += 1
        else:
            ends[0] = ends[1] + 1
        bad = tmp_path / "bad.idx"
        with bad.open("wb") as f:
            f.write(INDEX_MAGIC)
            for name, _ in _FILE_ARRAYS:
                np.lib.format.write_array(f, arrays[name])
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("mason\tstone\n")
        code, _, err = run_main(capsys, "vectors", str(pairs), "--index", str(bad),
                                "--cache", str(tmp_path / "cache.tsv"))
        assert code == 1, err
        assert f"{bad}: vocabulary ends do not cut the vocabulary text" in err

    def test_index_whose_positions_miss_a_token_exits_one(self, capsys, built_index, tmp_path):
        """Each term's positions ascend and lie in the corpus, but one position
        is listed twice and the next one nowhere: load_index accepts that, and
        counting refuses it."""
        with built_index.open("rb") as f:
            assert f.read(len(INDEX_MAGIC)) == INDEX_MAGIC
            arrays = {name: np.lib.format.read_array(f) for name, _ in _FILE_ARRAYS}
        positions, offsets = arrays["positions"], arrays["offsets"]
        first = positions[offsets[:-1]]  # each term's first position
        positions[offsets[np.flatnonzero(first > 0)[0]]] -= 1
        bad = tmp_path / "bad.idx"
        with bad.open("wb") as f:
            f.write(INDEX_MAGIC)
            for name, _ in _FILE_ARRAYS:
                np.lib.format.write_array(f, arrays[name])
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("mason\tstone\ntraffic\tstreet\n")
        cache = tmp_path / "cache.tsv"
        code, _, err = run_main(capsys, "vectors", str(pairs), "--index", str(bad),
                                "--cache", str(cache))
        assert code == 1, err
        assert "do not cover the corpus" in err and "rebuild the index" in err
        assert not cache.exists()

    @pytest.mark.parametrize("term, shown", [("ab*", "'ab*'"), ("a**b", "'a**b'"),
                                             ("--", "'--'")])
    def test_bad_joining_term_exits_one(self, capsys, built_index, tmp_path, term, shown):
        terms = tmp_path / "terms.txt"
        terms.write_text("\n".join(["", term] + ["of"] * 62) + "\n")
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("mason\tstone\n")
        cache = tmp_path / "cache.tsv"
        code, _, err = run_main(capsys, "vectors", str(pairs), "--index", str(built_index),
                                "--cache", str(cache), "--terms", str(terms))
        assert code == 1, err
        assert f"{terms}:2" in err and shown in err and "internal error" not in err
        assert not cache.exists()

    def test_non_utf8_terms_file_exits_one(self, capsys, built_index, tmp_path):
        terms = tmp_path / "terms.txt"
        terms.write_bytes(("\n".join(["", "caf\u00e9"] + ["of"] * 62) + "\n").encode("latin-1"))
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("mason\tstone\n")
        code, _, err = run_main(capsys, "vectors", str(pairs), "--index", str(built_index),
                                "--cache", str(tmp_path / "cache.tsv"), "--terms", str(terms))
        assert code == 1, err
        assert str(terms) in err and "internal error" not in err

    @pytest.mark.parametrize("bad", ["pairs", "questions", "labelled", "cache"])
    def test_non_utf8_input_file_exits_one(self, capsys, built_index, sat_setup, nm_files,
                                           tmp_path, bad):
        q, cache = sat_setup
        data, nm_cache = nm_files
        latin = tmp_path / "latin1.tsv"
        latin.write_bytes("caf\u00e9\tstreet\n".encode("latin-1"))
        args = {"pairs": ["vectors", latin, "--index", built_index,
                          "--cache", tmp_path / "new.tsv"],
                "questions": ["sat", "solve", latin, "--cache", cache],
                "labelled": ["nounmod", "eval", latin, "--cache", nm_cache],
                "cache": ["sat", "solve", q, "--cache", latin]}[bad]
        code, _, err = run_main(capsys, *map(str, args))
        assert code == 1, err
        assert f"{latin}: not UTF-8" in err

    @pytest.mark.parametrize("bad", ["pairs", "questions", "labelled", "cache", "vectors-cache",
                                     "terms"])
    def test_directory_as_input_file_exits_one(self, capsys, built_index, sat_setup, nm_files,
                                               tmp_path, bad):
        q, cache = sat_setup
        data, nm_cache = nm_files
        folder = tmp_path / "folder"
        folder.mkdir()
        args = {"pairs": ["vectors", folder, "--index", built_index,
                          "--cache", tmp_path / "new.tsv"],
                "questions": ["sat", "solve", folder, "--cache", cache],
                "labelled": ["nounmod", "eval", folder, "--cache", nm_cache],
                "cache": ["sat", "solve", q, "--cache", folder],
                "vectors-cache": ["vectors", q, "--format", "sat", "--index", built_index,
                                  "--cache", folder],
                "terms": ["vectors", q, "--format", "sat", "--index", built_index,
                          "--cache", tmp_path / "new.tsv", "--terms", folder]}[bad]
        code, out, err = run_main(capsys, *map(str, args))
        assert code == 1, err
        assert err.startswith(f"error: {folder}: cannot read (") and out == ""
        assert not (tmp_path / "new.tsv").exists()

    @pytest.mark.parametrize("target", ["index", "cache", "csv", "directory"])
    def test_unwritable_output_path_exits_one_naming_it(self, capsys, corpus_dir, built_index,
                                                        sat_setup, tmp_path, target):
        q, cache = sat_setup
        folder = tmp_path / "folder"
        folder.mkdir()
        missing = tmp_path / "missing" / "out"
        path = folder if target == "directory" else missing
        args = {"index": ["index", "build", corpus_dir, "-o", path],
                "cache": ["vectors", q, "--format", "sat", "--index", built_index,
                          "--cache", path],
                "csv": ["sat", "solve", q, "--cache", cache, "--sweep", "-0.02:0.02:0.01",
                        "--csv", path],
                "directory": ["index", "build", corpus_dir, "-o", path]}[target]
        before = sorted(p.name for p in tmp_path.iterdir())
        code, out, err = run_main(capsys, *map(str, args))
        assert code == 1, err
        assert err.startswith(f"error: {path}: cannot write (") and ".tmp" not in err
        assert out == "" and sorted(p.name for p in tmp_path.iterdir()) == before
        assert list(folder.iterdir()) == []

    @pytest.mark.parametrize("target", ["index", "directory", "cache", "sat-csv",
                                        "nounmod-csv"])
    def test_unwritable_output_fails_before_the_work(self, capsys, monkeypatch, corpus_dir,
                                                     built_index, sat_setup, nm_files,
                                                     tmp_path, target):
        q, cache = sat_setup
        data, nm_cache = nm_files
        folder = tmp_path / "folder"
        folder.mkdir()
        path = folder if target == "directory" else tmp_path / "missing" / "out"

        def fail(*args):
            pytest.fail("the work ran before the output path was checked")
        for name in ("load_corpus", "build_index", "build_vector", "sweep.sat_sweep",
                     "sweep.nounmod_sweep"):
            monkeypatch.setattr(f"relsim.cli.{name}", fail)
        sweep = ["--sweep", "-0.02:0.02:0.01", "--csv", path]
        args = {"index": ["index", "build", corpus_dir, "-o", path],
                "directory": ["index", "build", corpus_dir, "-o", path],
                "cache": ["vectors", q, "--format", "sat", "--index", built_index,
                          "--cache", path],
                "sat-csv": ["sat", "solve", q, "--cache", cache, *sweep],
                "nounmod-csv": ["nounmod", "eval", data, "--cache", nm_cache, *sweep]}[target]
        before = sorted(p.name for p in tmp_path.iterdir())
        code, out, err = run_main(capsys, *map(str, args))
        assert code == 1, err
        assert err.startswith(f"error: {path}: cannot write (") and ".tmp" not in err
        assert out == "" and sorted(p.name for p in tmp_path.iterdir()) == before
        assert list(folder.iterdir()) == []

    def test_unchanged_cache_is_not_probed(self, capsys, monkeypatch, sat_setup, built_index):
        q, cache = sat_setup
        before = cache.stat()
        monkeypatch.setattr("relsim.cli.check_writable", lambda path: pytest.fail("probed"))
        code, out, err = run_main(capsys, "vectors", str(q), "--format", "sat",
                                  "--index", str(built_index), "--cache", str(cache))
        assert code == 0, err
        assert "0 computed" in out
        after = cache.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_vectors_parses_no_cached_row(self, capsys, monkeypatch, sat_setup, built_index,
                                          tmp_path):
        """relsim vectors tests membership, puts and saves, which read no
        counts: with the block parser failing, it still adds a new pair and
        writes what an unparsed run writes."""
        q, cache = sat_setup
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("traffic:street\nwater:riverbed\nmason:stone\ncarpenter:wood\n")
        want, got = tmp_path / "want.tsv", tmp_path / "got.tsv"
        want.write_bytes(cache.read_bytes())
        got.write_bytes(cache.read_bytes())
        args = ["vectors", str(pairs), "--format", "pairs", "--index", str(built_index),
                "--cache"]
        assert run_main(capsys, *args, str(want))[0] == 0

        def fail(lines):
            pytest.fail("a cached row was parsed")
        monkeypatch.setattr("relsim.cache._parse_block", fail)
        code, out, err = run_main(capsys, *args, str(got))
        assert code == 0, err
        assert "1 computed, 3 reused" in out
        assert got.read_bytes() == want.read_bytes()
        with pytest.raises(pytest.fail.Exception, match="a cached row was parsed"):
            load_cache(got).entries  # the rows do take the patched parser

    def test_interrupted_sweep_csv_keeps_old_file(self, capsys, monkeypatch, sat_setup,
                                                  tmp_path):
        q, cache = sat_setup
        csv = tmp_path / "out.csv"
        csv.write_text("old\n")

        def fail(fd):
            raise OSError("disk full")
        monkeypatch.setattr("relsim.fileio.os.fsync", fail)
        code, _, err = run_main(capsys, "sat", "solve", str(q), "--cache", str(cache),
                                "--sweep", "-0.02:0.02:0.01", "--csv", str(csv))
        assert code == 2 and "disk full" in err
        assert csv.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []

    def test_terms_without_index_checks_the_cache(self, capsys, sat_setup, nm_files,
                                                  tmp_path):
        q, cache = sat_setup
        data, nm_cache = nm_files
        table = list(default_joining_terms())
        table[1] = "versus"
        other = tmp_path / "terms.txt"
        other.write_text("\n".join(table) + "\n")
        same = tmp_path / "default-terms.txt"
        same.write_text("\n".join(default_joining_terms()) + "\n")
        for args in (["sat", "solve", str(q), "--cache", str(cache)],
                     ["sat", "rank", str(q), "--cache", str(cache)],
                     ["nounmod", "eval", str(data), "--cache", str(nm_cache)]):
            code, _, err = run_main(capsys, *args, "--terms", str(other))
            assert code == 1, err
            assert terms_checksum(default_joining_terms()) in err
            assert terms_checksum(load_joining_terms(other)) in err
            code, _, err = run_main(capsys, *args, "--terms", str(same))
            assert code == 0, err


class TestCacheRows:
    """A cache row is a pair key and VECTOR_LEN non-negative integer counts;
    any other row is an input error naming the file and line."""

    @pytest.mark.parametrize("counts", [
        ["1"] * 127 + ["-1"], ["1.5"] + ["1"] * 127, ["x"] + ["1"] * 127,
        ["1"] * 127, ["1"] * 129, []], ids=["negative", "fraction", "word", "127", "129",
                                            "no-counts"])
    def test_bad_row_is_an_input_error(self, capsys, sat_setup, counts):
        q, cache = sat_setup
        lineno = len(cache.read_text().splitlines()) + 1
        with cache.open("a") as f:
            f.write("\t".join(["zebra:stripe", *counts]) + "\n")
        with pytest.raises(DataFormatError, match=f"^{cache}:{lineno}: "):
            load_cache(cache)
        code, _, err = run_main(capsys, "sat", "solve", str(q), "--cache", str(cache))
        assert code == 1, err
        assert f"{cache}:{lineno}: " in err and "internal error" not in err

    def test_count_past_the_largest_float_exits_one(self, capsys, tmp_path):
        """A used row of the golden cache with a 401-digit count: the count
        cannot become a vector element, so the cache is an input error."""
        golden = Path(__file__).parent / "golden"
        lines = (golden / "expected" / "vector_cache.txt").read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, 1)
                      if line.startswith("sabwex:tovtov\t"))
        key, _, counts = lines[lineno - 1].partition("\t")
        lines[lineno - 1] = "\t".join([key, "1" * 401, *counts.split("\t")[1:]])
        cache = tmp_path / "cache.tsv"
        cache.write_text("\n".join(lines) + "\n")
        code, out, err = run_main(capsys, "nounmod", "eval", str(golden / "labeled.tsv"),
                                  "--cache", str(cache))
        assert code == 1 and out == "", err
        assert f"{cache}:{lineno}: hit counts must be at most the largest float" in err

    def test_cache_without_its_magic_line_exits_one(self, capsys, sat_setup):
        q, cache = sat_setup
        cache.write_text(cache.read_text().partition("\n")[2])
        code, out, err = run_main(capsys, "sat", "solve", str(q), "--cache", str(cache))
        assert code == 1 and out == ""
        assert f"{cache} is not a relsim vector cache" in err

    def test_blank_line_in_the_body_is_skipped(self, capsys, sat_setup):
        q, cache = sat_setup
        args = ("sat", "solve", str(q), "--cache", str(cache))
        code, out, err = run_main(capsys, *args)
        assert code == 0, err
        lines = cache.read_text().splitlines()
        assert len(lines) == 6  # the magic, corpus and terms lines, then three rows
        cache.write_text("\n".join(lines[:4] + ["", " \t "] + lines[4:]) + "\n")
        assert run_main(capsys, *args) == (0, out, "")

    def test_repeated_key_is_an_input_error(self, capsys, sat_setup):
        q, cache = sat_setup
        rows = cache.read_text().splitlines()
        with cache.open("a") as f:
            f.write(rows[-1].replace("\t0", "\t1", 1) + "\n")
        key = rows[-1].partition("\t")[0]
        with pytest.raises(DataFormatError,
                           match=f"^{cache}:{len(rows) + 1}: repeated key '{key}'$"):
            load_cache(cache)
        code, out, err = run_main(capsys, "sat", "solve", str(q), "--cache", str(cache))
        assert code == 1 and out == ""
        assert f"{cache}:{len(rows) + 1}: repeated key" in err
