"""Self-tests of the benchmark: deterministic generators, and checks that
reject wrong outputs.

  python3 -m pytest bench/test_bench.py -q
"""

import random
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402


def test_generators_are_byte_identical_per_seed(tmp_path):
    for workload in gen.SHAPES:
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        gen.write_inputs(workload, 7, a)
        gen.write_inputs(workload, 7, b)
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes(), (workload, f.name)
    other = gen.generate("vectors", 8)
    assert other.corpus != gen.generate("vectors", 7).corpus


def test_member_mix_is_fixed_across_seeds():
    def mix(seed):
        inp = gen.generate("vectors", seed)
        fixed = {*inp.manifest["planted"], *inp.manifest["faulty"]}
        keys = {f"{x}:{y}" for pairs, _ in inp.questions for x, y in pairs}
        keys |= {f"{x}:{y}" for x, y, _ in inp.labeled}
        members = {m for k in keys - set(inp.prior) - fixed for m in k.split(":")}
        return (len(members), sum("_" in m for m in members),
                sum(len(m) <= 2 for m in members),
                sum(len(m) > 10 and "_" not in m for m in members),
                inp.manifest["computed_pairs"])
    assert mix(1) == mix(2)


def test_planted_vectors_match_a_scan_of_the_corpus():
    for workload in ("vectors", "evaluate"):
        inp = gen.generate(workload, 3)
        docs = checks.corpus_docs(inp.corpus)
        for key, expected in {**inp.manifest["planted"], **inp.manifest["faulty"]}.items():
            x, y = key.split(":")
            queries = [checks.query_units(x, y, k) for k in range(128)]
            assert checks.scan_document_hits(docs, queries) == expected, (workload, key)


def test_scan_agrees_with_the_program_on_a_small_corpus():
    from relsim.index import Document, build_index, count_hits, parse_phrase
    rng = random.Random(0)
    words = ["cat", "cats", "catalog", "of", "the", "dog", "dogs", "very", "x", "is"]
    texts = [[rng.choice(words) for _ in range(rng.randint(0, 30))] for _ in range(40)]
    idx = build_index([Document(i, tuple(t)) for i, t in enumerate(texts)])
    for q in ("cat* of dog*", "dog* * very cat*", "cat* is the dog*", "x cat*"):
        assert checks.scan_document_hits(texts, [q.split()])[0] == \
            count_hits(idx, parse_phrase(q)).count, q


def test_index_checks_reject_wrong_output():
    manifest = {"docs": 3, "tokens": 10, "vocabulary": 5}
    assert not checks.check_index_counts(dict(manifest), manifest, "t")
    assert checks.check_index_counts(dict(manifest, tokens=11), manifest, "t")
    idx = SimpleNamespace(corpus_digest="d", doc_lengths={0: 2},
                          postings={"a": [(0, 0)], "b": [(0, 1)]})
    moved = SimpleNamespace(corpus_digest="d", doc_lengths={0: 2},
                            postings={"a": [(0, 1)], "b": [(0, 1)]})
    assert checks.index_fingerprint(idx) == checks.index_fingerprint(
        SimpleNamespace(**vars(idx)))
    assert checks.index_fingerprint(idx) != checks.index_fingerprint(moved)


def test_vector_checks_reject_wrong_output():
    expected = [0] * 128
    expected[76] = 3
    assert not checks.check_planted({"a:b": list(expected)}, {"a:b": expected})
    off = list(expected)
    off[76] += 1
    assert checks.check_planted({"a:b": off}, {"a:b": expected})
    assert checks.faulty_pairs({"x-ray:bone": [0] * 128}, {"x-ray:bone": expected}) == ["x-ray:bone"]
    assert checks.faulty_pairs({"x-ray:bone": expected}, {"x-ray:bone": expected}) == []
    fwd = list(range(128))
    rev = [fwd[i + 1 if i % 2 == 0 else i - 1] for i in range(128)]
    assert not checks.check_reversed({"a:b": fwd, "b:a": rev}, [["a:b", "b:a"]])
    assert checks.check_reversed({"a:b": fwd, "b:a": fwd}, [["a:b", "b:a"]])
    assert checks.check_vector_shape({"a:b": [0] * 127})


def test_evaluation_checks_reject_wrong_output():
    assert not checks.check_solve_t0([False, True], [(1,), ()])
    assert checks.check_solve_t0([False, True], [(1, 2), ()])
    assert checks.check_solve_t0([False, True], [(1,), (0,)])
    good = [(-0.01, 0.5, 10, 0), (0.0, 0.4, 8, 2), (0.01, 0.4, 8, 2)]
    assert not checks.check_sweep(good, "s")
    assert checks.check_sweep([good[0], (0.0, 0.6, 8, 2)], "s")      # recall rose
    assert checks.check_sweep([good[0], (0.0, 0.4, 11, 2)], "s")     # guesses rose
    assert checks.check_sweep([good[1], (0.01, 0.4, 8, 1)], "s")     # skips fell
    assert checks.check_sweep([good[1], good[0]], "s")               # grid order
    assert not checks.check_planted_questions([0], [2], [(2,)], {0: 1})
    assert checks.check_planted_questions([0], [2], [(1,)], {0: 1})
    assert checks.check_planted_questions([0], [2], [(2,)], {0: 2})


def test_loocv_recomputation_matches_program_and_rejects_wrong_confusion():
    from relsim.nounmod import loocv
    from relsim.vectors import RelationVector, WordPair
    rng = random.Random(5)
    raw = [[int(rng.paretovariate(1.1)) if rng.random() < 0.3 else 0 for _ in range(128)]
           for _ in range(60)]
    raw[7] = list(raw[3])                      # an exact tie
    labels = [rng.choice(("cs", "eff", "loc", "ag")) for _ in raw]
    vecs = [RelationVector.from_raw(WordPair(f"a{i}", f"b{i}"), r) for i, r in enumerate(raw)]
    program = loocv(vecs, labels, 0.0, 30, 0, tie_break="first").confusion
    oracle = checks.loocv_confusion(raw, labels)
    assert not checks.check_confusion(program, oracle, "t")
    wrong = dict(program)
    key = next(iter(wrong))
    wrong[key] -= 1
    wrong[(key[0], None)] = wrong.get((key[0], None), 0) + 1
    assert checks.check_confusion(wrong, oracle, "t")


def test_a_passed_deadline_still_gives_every_metric_and_fails_the_rest(tmp_path):
    import json
    import subprocess
    manifest = gen.write_inputs("evaluate", 3, tmp_path)
    subprocess.run([sys.executable, str(BENCH / "session.py"), "--workdir", str(tmp_path),
                    "--seconds", "1", "--deadline", "0.6"], check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    result = json.loads((tmp_path / "session.json").read_text())
    assert result["timed_out"] and not result["correct"]
    assert result["passes"] == 0 and 0 < result["failed"] <= result["attempted"]
    # The attempted count is that of a whole pass, as in a run that ends.
    ops = {"build": 1, "vectors": manifest["computed_pairs"] + 2, "sat": 3}
    assert result["attempted"] == sum(ops.get(s, 1) for s in gen.SHAPES["evaluate"].schedule)
    assert all(m["value"] > 0 for m in result["metrics"].values())
