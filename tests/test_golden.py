"""Golden CLI outputs, compared byte for byte.

tests/golden/ holds a small corpus (documents separated by "%%" lines), a
question file, a labelled-pairs file and a plain-pairs file. One question's
stem shares its exact vector with two of its choices (a duplicate-vector
tie), and another's stem members never occur in the corpus (an all-zero
stem). Each case runs one relsim command and compares its stdout, or the
vector cache that `relsim vectors` writes, with tests/golden/expected/.

To record the expected files again:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from relsim.cli import cli

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
SEED = "3"
TIE_BREAKS = ("random", "first")


def _cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments; CACHE stands for the vector cache."""
    questions, labelled = str(GOLDEN / "questions.tsv"), str(GOLDEN / "labeled.tsv")
    cases = {"sat_rank": ["sat", "rank", questions, "--cache", "CACHE"]}
    for tb in TIE_BREAKS:
        seeded = ["--seed", SEED, "--tie-break", tb]
        cases[f"sat_solve_{tb}"] = ["sat", "solve", questions, "--cache", "CACHE", *seeded]
        cases[f"sat_sweep_{tb}"] = ["sat", "solve", questions, "--cache", "CACHE",
                                    "--sweep", "-0.11:0.11:0.01", *seeded]
        for classes in ("30", "5"):
            nm = ["nounmod", "eval", labelled, "--cache", "CACHE", "--classes", classes,
                  *seeded]
            cases[f"nounmod{classes}_{tb}"] = nm
            cases[f"nounmod{classes}_sweep_{tb}"] = [*nm, "--sweep", "-0.03:0.03:0.01"]
    return cases


def _invoke(args: list[str]) -> bytes:
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, (args, result.output, result.exception)
    return result.stdout_bytes


def build_outputs(workdir: Path) -> dict[str, bytes]:
    """Every golden output: index build, the vectors runs and the cache
    file they write, then each case of _cases() against that cache."""
    index, cache = workdir / "golden.idx", workdir / "cache.tsv"
    out = {"index_build": _invoke(["index", "build", str(GOLDEN / "corpus.txt"),
                                   "-o", str(index)])}
    out["vectors"] = b"".join(
        _invoke(["vectors", str(GOLDEN / name), "--index", str(index),
                 "--cache", str(cache), "--format", fmt])
        for name, fmt in (("pairs.tsv", "pairs"), ("questions.tsv", "sat"),
                          ("labeled.tsv", "nounmod")))
    out["vector_cache"] = cache.read_bytes()
    for name, args in _cases().items():
        out[name] = _invoke([str(cache) if a == "CACHE" else a for a in args])
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return build_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", ["index_build", "vectors", "vector_cache", *_cases()])
def test_output_matches_golden(outputs, name):
    assert outputs[name] == (EXPECTED / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    import tempfile

    EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in build_outputs(Path(tmp)).items():
            (EXPECTED / f"{name}.txt").write_bytes(data)
            print(f"wrote {EXPECTED / name}.txt ({len(data)} bytes)")
