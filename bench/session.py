"""One workload's process: timed passes over relsim's public functions.

A pass is the session a user runs with the CLI, as one closed-loop caller
(the next call starts when the last one returns):

  relsim index build   load_corpus, build_index, save_index
  relsim vectors       load_index, load_cache, build_vector per new pair,
                       VectorCache.save
  relsim sat ...       solve_all + evaluate at t = 0, sat_sweep over
                       SAT_GRID, rank_pool for every usable stem
  relsim nounmod eval  loocv at 30 and at 5 classes, nounmod_sweep over
                       NOUNMOD_GRID at 30 classes

A pass runs the workload's schedule of steps (short steps repeat, spread
between the long ones), and each metric is the mean over the run's calls
of its step.  The workloads differ only in their inputs and
repeat counts (see gen.SHAPES).  cli.py itself
is not called: it parses arguments and prints, and running it as a
subprocess would time interpreter start-up instead of the program.

Usage (run.py starts it; the inputs must already be in WORKDIR):

  python3 bench/session.py --workdir DIR --seconds S --deadline D --trace 0|1

It writes WORKDIR/session.json and prints a summary as its last line.
The set-up every command pays is timed apart, by probe.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (bench modules import no relsim)
import gen  # noqa: E402

MIN_PASSES = 1
# The tie-break seed is the CLI default; the workload seed only shapes inputs.
PROGRAM_SEED = 0
# The calls of the nounmod step; nounmod_s adds their means.
NOUNMOD_SPANS = ("nounmod.loocv30", "nounmod.loocv5", "sweep.nounmod_sweep")


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM when the run's deadline passes inside a call.  A
    BaseException, so that no `except Exception` in the program catches it."""


def _expire(signum, frame):
    raise DeadlineExceeded


def import_relsim():
    import relsim
    from relsim import analogy, cache, index, nounmod, sweep, terms, vectors
    if not Path(relsim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"relsim imported from {relsim.__file__}, not from {ROOT / 'src'}")
    return analogy, cache, index, nounmod, sweep, terms, vectors


class Recorder:
    """Spans (name, start, end, parent, pass) around calls into relsim.

    Stage spans are always kept, since the end-to-end metrics are read from
    them.  Detail spans (one per build_vector or rank_pool call) are kept
    only when tracing.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_no = -1

    @contextmanager
    def span(self, name: str, detail: bool = False):
        if detail and not self.trace:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_no])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def close_open(self, now: float):
        """End every span a passed deadline left open."""
        for span in self.spans:
            if span[2] is None:
                span[2] = now
        self._stack.clear()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def mean(self, name: str, missing: float | None = None) -> float:
        """Mean seconds per call, or `missing` for a step that never ran.
        The machine this was tuned on alternates between two speeds (about
        1.6x apart) for several seconds at a time; a median over a run's
        calls jumps between them, a mean follows the share of the run spent
        in each."""
        durations = self.durations(name)
        return statistics.fmean(durations) if durations else missing


def query_shape(index_mod, phrase: str) -> str:
    """literal, embedded (an embedded '*' and no standalone one) or any_word."""
    kinds = {p.kind for p in index_mod.parse_phrase(phrase).patterns}
    if index_mod.PatternKind.ANY_WORD in kinds:
        return "any_word"
    if index_mod.PatternKind.SUBSTRING in kinds:
        return "embedded"
    return "literal"


class TimedProvider:
    """Wraps LocalIndexProvider: times each call and counts, per query
    shape, the calls that reach count_hits (the first call for a phrase;
    the provider memoizes the rest)."""

    def __init__(self, inner, index_mod):
        self.inner = inner
        self.index_mod = index_mod
        self.calls = 0
        self.seen: set[str] = set()
        self.zero = 0
        self.shape_s = {"literal": 0.0, "embedded": 0.0, "any_word": 0.0}
        self.shape_n = dict.fromkeys(self.shape_s, 0)

    def __call__(self, phrase: str) -> int:
        first = phrase not in self.seen
        t0 = time.perf_counter()
        n = self.inner(phrase)
        dt = time.perf_counter() - t0
        self.calls += 1
        if first:
            self.seen.add(phrase)
            shape = query_shape(self.index_mod, phrase)
            self.shape_s[shape] += dt
            self.shape_n[shape] += 1
            self.zero += n == 0
        return n


class Session:
    def __init__(self, workdir: Path, rec: Recorder):
        (self.analogy, self.cache_mod, self.index, self.nounmod, self.sweep,
         terms_mod, self.vectors) = import_relsim()
        self.workdir = workdir
        self.rec = rec
        self.manifest = json.loads((workdir / "manifest.json").read_text())
        self.shape = gen.SHAPES[self.manifest["workload"]]
        self.terms = terms_mod.default_joining_terms()
        self.checksum = terms_mod.terms_checksum(self.terms)
        self.questions = self.analogy.load_questions(workdir / "questions.tsv")
        self.items = self.nounmod.load_labeled_pairs(workdir / "labeled.tsv")
        pairs = [p for q in self.questions for p in q.pairs()] + [i.pair() for i in self.items]
        self.pairs = list({p.key(): p for p in pairs}.values())
        self.sat_grid = self.sweep.grid_thresholds(*self.sweep.SAT_GRID)
        self.nm_grid = self.sweep.grid_thresholds(*self.sweep.NOUNMOD_GRID)
        self.index_path = workdir / "corpus.idx"
        self.prior_path = workdir / "prior-cache.tsv"
        self.cache_path = workdir / "vectors.tsv"
        self.errors: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.layer: list[dict] = []  # per-layer figures of each vectors step when tracing
        self.fingerprint = None
        self.roundtrip_checked = False
        self.cache = None  # the vector cache the last vectors step wrote
        self.overrun = None  # seconds the call a passed deadline cut short had run

    def write_prior(self, digest: str):
        """Write the prior vectors as a program-format cache, stamped with
        the digest the code under test gives this corpus."""
        cache = self.cache_mod.VectorCache(digest, self.checksum)
        for line in (self.workdir / "prior.tsv").read_text().splitlines():
            key, *counts = line.split("\t")
            cache.put(self.vectors.WordPair.from_key(key), [int(c) for c in counts])
        cache.save(self.prior_path)

    def run_pass(self, pass_no: int):
        """One pass: the workload's schedule of steps, with a collection
        before each so that no call pays for garbage an earlier one left."""
        self.rec.pass_no = pass_no
        for i, step in enumerate(self.shape.schedule):
            attempted, failed, t0 = self.attempted, self.failed, time.perf_counter()
            try:
                gc.collect()
                t0 = time.perf_counter()
                self.run_step(step)
            except DeadlineExceeded:
                self.overrun = time.perf_counter() - t0
                undone = sum(self.step_operations(s) for s in self.shape.schedule[i:])
                self.attempted, self.failed = attempted + undone, failed + undone
                self.errors.append(f"the deadline passed {self.overrun:.1f} s into step "
                                   f"{step!r} of pass {pass_no}; the {undone} operations of that "
                                   "step and the pass's later steps count as failed")
                raise

    def step_operations(self, step: str) -> int:
        """Operations a step adds to `attempted` (see each step)."""
        return {"build": 1, "vectors": self.manifest["computed_pairs"] + 2,
                "sat": 3}.get(step, 1)

    def run_step(self, step: str):
        if step == "build":
            self.build_step()
        elif step == "vectors":
            self.cache = self.vectors_step()
        elif step == "sat":
            self.sat_step(self.cache)
        elif step == "nmsweep":
            self.nounmod_sweep_step(self.cache)
        else:
            self.loocv_step(self.cache, int(step.removeprefix("loocv")))

    def build_step(self):
        rec, ix = self.rec, self.index
        with rec.span("build"):
            with rec.span("index.load_corpus"):
                docs = ix.load_corpus(self.workdir / "corpus.txt")
            with rec.span("index.build_index"):
                built = ix.build_index(docs)
            with rec.span("index.save_index"):
                ix.save_index(built, self.index_path)
        self.attempted += 1
        self.stats = {"docs": built.doc_count, "tokens": built.token_count,
                      "vocabulary": built.vocabulary_size}
        self.errors += checks.check_index_counts(self.stats, self.manifest, "build_index")
        self.digest = built.corpus_digest
        if self.fingerprint is None:
            self.fingerprint = checks.index_fingerprint(built)
            self.write_prior(self.digest)

    def vectors_step(self):
        rec, ix, vx = self.rec, self.index, self.vectors
        with rec.span("load"):
            with rec.span("index.load_index"):
                idx = ix.load_index(self.index_path)
        if idx.corpus_digest != self.digest:
            self.errors.append("loaded index has another corpus digest")
        if not self.roundtrip_checked:
            if checks.index_fingerprint(idx) != self.fingerprint:
                self.errors.append("load_index(save_index(idx)) differs from idx")
            self.roundtrip_checked = True

        with rec.span("vectors"):
            with rec.span("cache.load"):
                cache = self.cache_mod.load_cache(self.prior_path, idx.corpus_digest, self.checksum)
            provider = vx.LocalIndexProvider(idx)
            if rec.trace:
                provider = TimedProvider(provider, ix)
            computed = []
            for pair in self.pairs:
                if pair in cache:
                    continue
                with rec.span("vectors.build_vector", detail=True):
                    vec = vx.build_vector(provider, pair, self.terms)
                cache.put(pair, vec.raw)
                computed.append(pair)
            with rec.span("cache.save"):
                cache.save(self.cache_path)
        self.attempted += len(computed) + 2  # the pairs, the index load, the save
        if len(computed) != self.manifest["computed_pairs"]:
            self.errors.append(f"computed {len(computed)} pairs, expected "
                               f"{self.manifest['computed_pairs']}")
        raw = cache.entries
        self.errors += checks.check_vector_shape({p.key(): raw[p.key()] for p in computed})
        self.errors += checks.check_planted(raw, self.manifest["planted"])
        self.errors += checks.check_reversed(raw, self.manifest["reversed"])
        self.failed += len(checks.faulty_pairs(raw, self.manifest["faulty"]))
        if rec.trace:
            layer = self.vector_layer(idx, provider, computed, raw)
            layer["cache.file_mb"] = self.cache_path.stat().st_size / 2**20
            layer.update({f"index.{k}": v for k, v in self.stats.items()})
            self.layer.append(layer)
        return cache

    def vector_layer(self, idx, provider, computed, raw) -> dict:
        ix, vx = self.index, self.vectors
        out = {f"index.count_hits.{s}_us": provider.shape_s[s] / provider.shape_n[s] * 1e6
               for s in provider.shape_s if provider.shape_n[s]}
        out["index.count_hits.calls"] = len(provider.seen)
        out["index.count_hits.zero_calls"] = provider.zero
        out["vectors.provider.calls"] = provider.calls
        out["vectors.provider.distinct_phrases"] = len(provider.seen)
        out["vectors.all_zero"] = sum(1 for p in computed if not any(raw[p.key()]))
        units = {pat for q in provider.seen for pat in ix.parse_phrase(q).patterns
                 if pat.kind is not ix.PatternKind.ANY_WORD}
        out["index.matching_terms.terms_per_unit"] = (
            sum(len(idx.matching_terms(u)) for u in units) / len(units))
        t0 = time.perf_counter()
        for pair in computed:
            vx.generate_queries(pair, self.terms)
        out["vectors.generate_queries_us"] = (time.perf_counter() - t0) / len(computed) * 1e6
        return out

    def sat_step(self, cache):
        rec, an, sw = self.rec, self.analogy, self.sweep
        qs = self.questions
        with rec.span("sat"):
            vecs = {p.key(): cache.vector(p) for q in qs for p in q.pairs()}
            with rec.span("analogy.solve_all"):
                outcomes = an.solve_all(qs, vecs, 0.0, PROGRAM_SEED, "random")
                report = an.evaluate(qs, outcomes)
            with rec.span("sweep.sat_sweep"):
                rows = sw.sat_sweep(qs, vecs, self.sat_grid, PROGRAM_SEED, "random")
            with rec.span("analogy.rank_pool"):
                usable = [i for i, q in enumerate(qs) if not vecs[q.stem.key()].is_zero()]
                pool = [vecs[qs[i].choices[qs[i].answer].key()] for i in usable]
                ranks = {}
                for n, i in enumerate(usable):
                    with rec.span("analogy.rank_pool.call", detail=True):
                        ranking = an.rank_pool(vecs[qs[i].stem.key()], pool)
                    ranks[i] = an.rank_of(ranking, n)
        self.attempted += 3  # solve, sweep, rank
        stem_zero = [vecs[q.stem.key()].is_zero() for q in qs]
        if report.total != len(qs) or report.skipped != sum(stem_zero):
            self.errors.append(f"sat evaluate: total {report.total}, skipped {report.skipped}")
        self.errors += checks.check_solve_t0(stem_zero, [o.guesses for o in outcomes])
        self.errors += checks.check_sweep(
            [(r.threshold, r.recall, r.guesses, r.skipped) for r in rows], "sat_sweep")
        self.errors += checks.check_planted_questions(
            self.manifest["planted_questions"], [q.answer for q in qs],
            [o.guesses for o in outcomes], ranks)

    def nounmod_inputs(self, cache):
        """What each `relsim nounmod eval` reads: the items' vectors."""
        return ([cache.vector(item.pair()) for item in self.items],
                [item.label for item in self.items])

    def loocv_step(self, cache, classes: int):
        nm = self.nounmod
        with self.rec.span(f"nounmod.loocv{classes}"):
            vecs, labels = self.nounmod_inputs(cache)
            r = nm.loocv(vecs, labels, 0.0, classes, PROGRAM_SEED)
            nm.macroaverage(r.per_class)
        self.attempted += 1
        if r.total != len(vecs) or sum(r.confusion.values()) != r.guesses_made + r.abstained:
            self.errors.append(f"loocv at {classes} classes: confusion does not add up")

    def nounmod_sweep_step(self, cache):
        with self.rec.span("sweep.nounmod_sweep"):
            vecs, labels = self.nounmod_inputs(cache)
            rows = self.sweep.nounmod_sweep(vecs, labels, self.nm_grid, 30, PROGRAM_SEED)
        self.attempted += 1
        self.errors += checks.check_sweep(
            [(r.threshold, r.recall, r.guesses, r.skipped) for r in rows], "nounmod_sweep")

    def final_checks(self, cache) -> dict:
        """Once per run, untimed: the cache round trip, and a deterministic
        LOOCV whose confusion run.py recomputes."""
        loaded = self.cache_mod.load_cache(self.cache_path, cache.corpus_digest, self.checksum)
        if loaded.entries != cache.entries:
            self.errors.append("load_cache(VectorCache.save(c)) differs from c")
        vecs = [cache.vector(item.pair()) for item in self.items]
        labels = [item.label for item in self.items]
        r = self.nounmod.loocv(vecs, labels, 0.0, 30, PROGRAM_SEED, tie_break="first")
        return {"loocv_first": [[t, g, n] for (t, g), n in sorted(r.confusion.items(), key=str)]}


def peak_rss_mb() -> float:
    """High-water RSS of this process since it started (VmHWM)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--deadline", type=float, default=150,
                    help="seconds after which the run stops, even inside a call")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    rec = Recorder(bool(args.trace))
    s = Session(args.workdir, rec)
    start = time.perf_counter()
    passes = 0
    extra = {}
    # A call that overruns the deadline is cut short, so that a slow program
    # still gives a result (correct: false) within the time a run may take.
    signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, args.deadline)
    try:
        while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
            s.run_pass(passes)
            passes += 1
        extra = s.final_checks(s.cache)
    except DeadlineExceeded:
        rec.close_open(time.perf_counter())
        if s.overrun is None:
            s.errors.append("the deadline passed during the final checks")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    # After a passed deadline, a step that never ran is given the time the
    # cut call had run: the least its caller waited before it could start.
    def mean(name):
        return rec.mean(name, s.overrun)

    n_computed = s.manifest["computed_pairs"]
    metrics = {
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "build_s": (mean("build"), "s"),
        "load_s": (mean("load"), "s"),
        "index_mb": (s.index_path.stat().st_size / 2**20 if s.index_path.exists() else 0.0,
                     "MB"),
        "pairs_per_s": (n_computed / mean("vectors"), "pairs/s"),
        "sat_s": (mean("sat"), "s"),
        "nounmod_s": (sum(mean(n) for n in NOUNMOD_SPANS), "s"),
    }
    layer = {}
    if rec.trace:
        for name in ("index.load_corpus", "index.build_index", "index.save_index",
                     "index.load_index", "cache.save", "cache.load", "analogy.solve_all",
                     "analogy.rank_pool", "sweep.sat_sweep", "sweep.nounmod_sweep",
                     "nounmod.loocv30", "nounmod.loocv5"):
            layer[name + "_s"] = (mean(name), "s")
        units = {"_us": "us", "_mb": "MB", "unit": "terms"}
        for key in sorted({k for p in s.layer for k in p}):
            unit = next((u for suffix, u in units.items() if key.endswith(suffix)), "count")
            layer[key] = (statistics.fmean(p[key] for p in s.layer if key in p), unit)
        bv = [d * 1e3 for d in rec.durations("vectors.build_vector")]
        if bv:
            layer["vectors.build_vector_ms.p50"] = (statistics.median(bv), "ms")
            layer["vectors.build_vector_ms.p99"] = (checks.percentile(bv, 99), "ms")
    result = {
        "correct": not s.errors,
        "errors": s.errors[:20],
        "attempted": s.attempted,
        "failed": s.failed,
        "passes": passes,
        "timed_out": s.overrun is not None or "loocv_first" not in extra,
        "steps": {name: rec.durations(name)
                  for name in ("build", "load", "vectors", "sat", *NOUNMOD_SPANS)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "spans": [{"name": n, "start": a, "end": b, "parent": p, "pass": q}
                  for n, a, b, p, q in rec.spans] if rec.trace else [],
        **extra,
    }
    (args.workdir / "session.json").write_text(json.dumps(result))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "passes")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
