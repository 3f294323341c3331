import codecs
import re

import numpy as np
import pytest

from relsim import fileio
from relsim.cache import VectorCache, load_cache
from relsim.errors import DataFormatError, InputError
from relsim.fileio import atomic_write, check_writable, read_utf8
from relsim.index import Document, build_index, load_corpus, load_index, save_index
from relsim.vectors import WordPair


def test_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path) as f:
            f.write(b"partial")
            raise KeyboardInterrupt
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_successful_write_replaces(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with atomic_write(path) as f:
        f.write(b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("where", ["missing directory", "existing directory"])
def test_unwritable_target_is_an_input_error_naming_it(tmp_path, where):
    path = tmp_path / "out.bin"
    if where == "missing directory":
        path = tmp_path / "missing" / "out.bin"
    else:
        path.mkdir()
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: cannot write \\("):
        with atomic_write(path) as f:
            f.write(b"data")
    assert [p.name for p in tmp_path.iterdir()] == [path.name] * path.exists()


@pytest.mark.parametrize("where", ["missing directory", "existing directory", "file as folder"])
def test_check_writable_raises_what_atomic_write_raises(tmp_path, where):
    (tmp_path / "file").write_bytes(b"")
    path = {"missing directory": tmp_path / "missing" / "out.bin",
            "existing directory": tmp_path / "folder",
            "file as folder": tmp_path / "file" / "out.bin"}[where]
    if where == "existing directory":
        path.mkdir()
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(InputError) as checked:
        check_writable(path)
    with pytest.raises(InputError) as written:
        with atomic_write(path) as f:
            f.write(b"data")
    assert str(checked.value) == str(written.value)
    assert str(checked.value).startswith(f"{path}: cannot write (")
    assert sorted(tmp_path.rglob("*")) == before


def test_check_writable_leaves_a_writable_path_alone(tmp_path):
    check_writable(tmp_path / "new.bin")
    (tmp_path / "old.bin").write_bytes(b"old")
    check_writable(tmp_path / "old.bin")
    assert [p.name for p in tmp_path.iterdir()] == ["old.bin"]
    assert (tmp_path / "old.bin").read_bytes() == b"old"


def test_unreadable_path_is_a_data_format_error_naming_it(tmp_path):
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(tmp_path))}: cannot read \\("):
        read_utf8(tmp_path)


def test_cache_save_failure_keeps_old_cache(tmp_path, monkeypatch):
    path = tmp_path / "cache.tsv"
    old = VectorCache("digest", "terms")
    old.put(WordPair("a", "b"), [1] * 128)
    old.save(path)
    before = path.read_bytes()

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(fileio.os, "fsync", fail)
    new = VectorCache("digest", "terms")
    new.put(WordPair("c", "d"), [2] * 128)
    with pytest.raises(OSError, match="disk full"):
        new.save(path)
    assert path.read_bytes() == before
    assert list(load_cache(path, "digest", "terms").entries) == ["a:b"]
    assert [p.name for p in tmp_path.iterdir()] == ["cache.tsv"]


def test_index_save_interrupted_keeps_old_index(tmp_path, monkeypatch):
    path = tmp_path / "corpus.idx"
    old = build_index([Document(0, ("old", "corpus"))])
    save_index(old, path)
    write_array = np.lib.format.write_array
    calls = []

    def interrupted(f, array, **kwargs):
        calls.append(1)
        if len(calls) == 4:
            raise KeyboardInterrupt
        write_array(f, array, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_index(build_index([Document(0, ("new", "corpus", "text"))]), path)
    assert load_index(path).corpus_digest == old.corpus_digest
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.idx"]


def test_byte_order_mark_is_dropped(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("mason\tstone\n%%\nstone wall\n", encoding="utf-8")
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    assert read_utf8(marked) == read_utf8(plain) == plain.read_text(encoding="utf-8")
    assert build_index(load_corpus(marked)).corpus_digest \
        == build_index(load_corpus(plain)).corpus_digest


def test_bad_byte_offset_counts_the_byte_order_mark(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(codecs.BOM_UTF8 + b"ab\xff")
    with pytest.raises(DataFormatError, match=r"not UTF-8 text \(invalid start byte at byte 5\)$"):
        read_utf8(path)
