"""Command-line surface: index building, vector caching, analogy solving,
noun-modifier evaluation, and threshold sweeps.

Exit codes: 0 success, 1 input error, 2 internal error.
"""

from __future__ import annotations

import functools
import math
import sys
from pathlib import Path

import click

from . import analogy, sweep
from .cache import VectorCache, load_cache
from .errors import DataFormatError, InputError
from .fileio import atomic_write, check_writable, read_rows
from .index import (CountMode, build_index, load_corpus, load_index,
                    save_index)
from .nounmod import load_labeled_pairs, loocv, macroaverage
from .similarity import TIE_BREAKS
from .terms import default_joining_terms, load_joining_terms, terms_checksum
from .vectors import LocalIndexProvider, WordPair, build_vector


def _pct(x: float) -> str:
    return f"{100 * x:.1f}%"


@click.group()
def cli():
    """Relational similarity toolkit: phrase-frequency vectors over a local
    corpus index, SAT-style analogy solving, and noun-modifier relation
    classification."""


# ---------------------------------------------------------------------------
# index

@cli.group()
def index():
    """Corpus index commands."""


@index.command("build")
@click.argument("corpus", type=click.Path(exists=True))
@click.option("-o", "--output", "output", required=True, type=click.Path())
def index_build(corpus, output):
    """Tokenize a corpus and write a positional index.

    CORPUS is a directory of text files (one document each, doc ids by
    filename order) or a single file with documents separated by a line
    containing only "%%".
    """
    check_writable(output)
    docs = load_corpus(corpus)
    if not docs or all(not d.tokens for d in docs):
        click.echo("warning: corpus is empty", err=True)
    idx = build_index(docs)
    save_index(idx, output)
    click.echo(f"documents: {idx.doc_count}")
    click.echo(f"tokens: {idx.token_count}")
    click.echo(f"vocabulary: {idx.vocabulary_size}")


# ---------------------------------------------------------------------------
# vectors

def _load_terms(terms_path):
    return load_joining_terms(terms_path) if terms_path else default_joining_terms()


def _plain_pair(fields: list[str]) -> WordPair:
    """One line of a plain pairs file: "x<TAB>y" or "x:y"."""
    if len(fields) > 1:
        return WordPair(*(m.strip().lower() for m in fields[:2]))
    return analogy.parse_pair(fields[0])


def _extract_pairs(path: str, fmt: str) -> list[WordPair]:
    if fmt == "sat":
        return [p for q in analogy.load_questions(path) for p in q.pairs()]
    if fmt == "nounmod":
        return [item.pair() for item in load_labeled_pairs(path)]
    return read_rows(path, _plain_pair)


@cli.command("vectors")
@click.argument("pairs_file", type=click.Path(exists=True))
@click.option("--index", "index_path", required=True, type=click.Path(exists=True))
@click.option("--cache", "cache_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["pairs", "sat", "nounmod"]),
              default="pairs", show_default=True)
@click.option("--mode", type=click.Choice(["document", "occurrence"]),
              default="document", show_default=True)
@click.option("--terms", "terms_path", type=click.Path(exists=True), default=None,
              help="Alternative joining-term table (64 lines).")
def vectors_cmd(pairs_file, index_path, cache_path, fmt, mode, terms_path):
    """Compute and cache raw hit-count vectors for every distinct pair."""
    pairs = list(dict.fromkeys(_extract_pairs(pairs_file, fmt)))  # one per key, in order
    idx = load_index(index_path)
    terms = _load_terms(terms_path)
    checksum = terms_checksum(terms)
    mode = CountMode(mode)
    exists = Path(cache_path).exists()
    if exists:
        cache = load_cache(cache_path, idx.corpus_digest, checksum, mode)
    else:
        cache = VectorCache(idx.corpus_digest, checksum, mode=mode)
    provider = LocalIndexProvider(idx, mode)
    new = [p for p in pairs if p not in cache]
    if new or not exists:  # an unchanged cache file is left as it is
        check_writable(cache_path)
        for pair in new:
            cache.put(pair, build_vector(provider, pair, terms).raw)
        cache.save(cache_path)
    click.echo(f"pairs: {len(pairs)} distinct ({len(new)} computed, "
               f"{len(pairs) - len(new)} reused)")


def _cached_vectors(pairs, cache_path, index_path, terms_path):
    """Each pair's cached vector by key, from a cache checked against --index and --terms."""
    digest = load_index(index_path).corpus_digest if index_path else None
    checksum = terms_checksum(_load_terms(terms_path)) if index_path or terms_path else None
    cache = load_cache(cache_path, digest, checksum)
    missing = sorted({p.key() for p in pairs if p not in cache})
    if missing:
        raise DataFormatError("missing cached vectors for pairs: " + ", ".join(missing))
    return {p.key(): cache.vector(p) for p in pairs}


def _sweep_grid(ctx, param, spec):
    """The --sweep thresholds, or None without --sweep. Click processes the
    flags given before those left out, so a given --csv is already read."""
    if spec is None:
        if ctx.params.get("csv_path"):
            raise click.UsageError("--csv needs --sweep", ctx)
        return None
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
        return sweep.grid_thresholds(lo, hi, step)
    except ValueError:
        raise click.BadParameter(f"bad sweep spec {spec!r}, expected LO:HI:STEP, finite LO <= HI, "
                                 f"STEP > 0 and at most {sweep.MAX_GRID_POINTS} points") from None


def _finite(ctx, param, value):
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


def _emit_sweep(rows, csv_path):
    csv_text = sweep.rows_to_csv(rows)
    if csv_path:
        with atomic_write(csv_path) as f:
            f.write(csv_text.encode("utf-8"))
        click.echo(f"wrote {len(rows)} rows to {csv_path}")
    else:
        click.echo(csv_text, nl=False)


def _options(*options):
    """One decorator adding `options`, which --help lists in this order."""
    return lambda command: functools.reduce(lambda c, add: add(c), reversed(options), command)


_cache_options = _options(
    click.option("--cache", "cache_path", required=True, type=click.Path(exists=True)),
    click.option("--index", "index_path", type=click.Path(exists=True), default=None,
                 help="Verify cache provenance against this index."),
    click.option("--terms", "terms_path", type=click.Path(exists=True), default=None))

_threshold_options = _options(
    click.option("--threshold", type=float, default=0.0, show_default=True, callback=_finite),
    click.option("--sweep", "sweep_thresholds", default=None, metavar="LO:HI:STEP",
                 callback=_sweep_grid, help="Sweep the margin threshold and write CSV rows."),
    click.option("--csv", "csv_path", type=click.Path(), default=None),
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--tie-break", type=click.Choice(TIE_BREAKS),
                 default="random", show_default=True))


# ---------------------------------------------------------------------------
# sat

@cli.group()
def sat():
    """Analogy question commands."""


@sat.command("solve")
@click.argument("questions_file", type=click.Path(exists=True))
@_cache_options
@_threshold_options
def sat_solve(questions_file, cache_path, index_path, terms_path, threshold,
              sweep_thresholds, csv_path, seed, tie_break):
    """Answer analogy questions at a margin threshold, or sweep thresholds."""
    questions = analogy.load_questions(questions_file)
    vectors = _cached_vectors([p for q in questions for p in q.pairs()],
                              cache_path, index_path, terms_path)

    if sweep_thresholds is not None:
        _emit_sweep(sweep.sat_sweep(questions, vectors, sweep_thresholds, seed, tie_break),
                    csv_path)
        return

    outcomes = analogy.solve_all(questions, vectors, threshold, seed, tie_break)
    report = analogy.evaluate(questions, outcomes)
    click.echo(f"total: {report.total}")
    click.echo(f"correct: {report.correct}")
    click.echo(f"incorrect: {report.incorrect}")
    click.echo(f"skipped: {report.skipped}")
    click.echo(f"double guesses: {report.doubles}")
    click.echo(f"precision: {_pct(report.precision)}")
    click.echo(f"recall: {_pct(report.recall)}")
    click.echo(f"F: {_pct(report.f)}")
    click.echo(f"raw SAT score: {analogy.raw_sat_score(report.correct, report.incorrect):g}")


@sat.command("rank")
@click.argument("questions_file", type=click.Path(exists=True))
@_cache_options
@click.option("--top", type=click.IntRange(min=1), default=10, show_default=True)
def sat_rank(questions_file, cache_path, index_path, terms_path, top):
    """Pool-ranking evaluation: each stem ranks the pool of all correct
    choice pairs; report how often its own pair lands in the top k."""
    questions = analogy.load_questions(questions_file)
    vectors = _cached_vectors([p for q in questions for p in q.pairs()],
                              cache_path, index_path, terms_path)

    usable = [q for q in questions if not vectors[q.stem.key()].is_zero()]
    dropped = len(questions) - len(usable)
    pool = [vectors[q.choices[q.answer].key()] for q in usable]
    ranks = []
    for i, q in enumerate(usable):
        ranking = analogy.rank_pool(vectors[q.stem.key()], pool)
        ranks.append(analogy.rank_of(ranking, i))

    click.echo(f"questions: {len(usable)} (dropped {dropped} with zero stem vectors)")
    click.echo("rank\tmatches\tmatches%\tcumulative\tcumulative%")
    total = len(usable)
    for row in analogy.cumulative_top_k(ranks, top):
        m_pct = _pct(row.matches / total if total else 0.0)
        click.echo(f"{row.k}\t{row.matches}\t{m_pct}\t{row.cumulative}\t{_pct(row.cumulative_pct)}")


# ---------------------------------------------------------------------------
# nounmod

@cli.group()
def nounmod():
    """Noun-modifier classification commands."""


@nounmod.command("eval")
@click.argument("data_file", type=click.Path(exists=True))
@_cache_options
@click.option("--classes", "granularity", type=click.Choice(["30", "5"]),
              default="30", show_default=True)
@_threshold_options
def nounmod_eval(data_file, cache_path, index_path, terms_path, granularity,
                 threshold, sweep_thresholds, csv_path, seed, tie_break):
    """Leave-one-out nearest-neighbour evaluation of labeled pairs."""
    items = load_labeled_pairs(data_file)
    if len(items) < 2:
        raise DataFormatError(f"{data_file}: need at least two labelled items, "
                              f"got {len(items)}")
    vectors = _cached_vectors([item.pair() for item in items],
                              cache_path, index_path, terms_path)
    vecs = [vectors[item.pair().key()] for item in items]
    labels = [item.label for item in items]
    gran = int(granularity)

    if sweep_thresholds is not None:
        _emit_sweep(sweep.nounmod_sweep(vecs, labels, sweep_thresholds, gran, seed, tie_break),
                    csv_path)
        return

    result = loocv(vecs, labels, threshold, gran, seed, tie_break=tie_break)
    click.echo("class\tsize\tpercent\tprecision\trecall\tF")
    for m in result.per_class:
        click.echo(f"{m.label}\t{m.size}\t{_pct(m.size / result.total)}"
                   f"\t{_pct(m.precision)}\t{_pct(m.recall)}\t{_pct(m.f)}")
    p, r, f = macroaverage(result.per_class)
    click.echo(f"macroaverage\t\t\t{_pct(p)}\t{_pct(r)}\t{_pct(f)}")
    click.echo(f"items: {result.total}, correct: {result.correct}, "
               f"abstained: {result.abstained}, double guesses: {result.doubles}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as e:
        sys.exit(e.exit_code)
    except (click.ClickException, click.exceptions.Abort) as e:
        if isinstance(e, click.ClickException):
            e.show(file=sys.stderr)
        sys.exit(1)
    except InputError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    except Exception as e:  # internal failure
        click.echo(f"internal error: {e}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
