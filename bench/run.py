"""relsim benchmark: one command for the index, vectors and evaluate workloads.

  python3 bench/run.py [--workload index|vectors|evaluate] [--seed N]
                       [--seconds S] [--trace 0|1]

Without --workload it runs the three workloads one after another.  For each
workload it

1. generates the inputs from the seed (gen.py), in this process, so that
   the generator's memory stays out of the workload's peak RSS;
2. times the set-up every command pays in ten fresh interpreters, five
   before and five after the passes, and keeps the median (setup_s;
   probe.py, which imports no benchmark module, so relsim's own imports,
   numpy's among them, are all inside the timed region);
3. runs the timed passes in a process of their own (session.py), single
   threaded, until --seconds have passed and at least one pass is done.
   A call still running when the run's time is nearly spent is cut short:
   the run then reports correct: false, counts the operations it did not
   finish as failed, and still gives every metric;
4. checks the outputs against computations made apart from the program
   (checks.py): a sample of phrase counts against a scan of the raw corpus
   text, and the LOOCV confusion against a recomputation;
5. prints one JSON line: correct, attempted, failed and metrics, the
   end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
   metrics with --trace 1.  A traced run also writes its spans to
   bench/.traces/.

Exit code 0 when a result was printed; 2 when the program's source is not
next to the benchmark or a workload could not run.  A run ends within
DEADLINE_S seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SESSION = BENCH / "session.py"
PROBE = BENCH / "probe.py"
WORKLOADS = ("index", "vectors", "evaluate")
PROBES = 10  # half before the workload process, half after
SAMPLED_QUERIES = 16
DEADLINE_S = 170
# Kept after the session's deadline for the later probes and the checks.
CHECKS_RESERVE_S = 20
# The benchmark runs relsim single threaded.  relsim makes no multi-threaded
# BLAS call, but OpenBLAS, which numpy loads, starts a thread pool in every
# process by default; on a 2-core machine that start took 0.06-0.09 s of a
# 0.2 s set-up and swung about 1.5x with the machine's load for minutes at
# a time.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def read_cache_file(path: Path) -> dict[str, list[int]]:
    """A vector cache file read by its documented layout: '#' header lines,
    then one 'x:y<TAB>128 counts' row per pair."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            key, *counts = line.split("\t")
            out[key] = [int(c) for c in counts]
    return out


def sample_query_errors(workdir: Path, manifest: dict, vectors: dict, seed: int) -> list[str]:
    """Counts of sampled queries of the computed pairs against an
    independent scan of the corpus text; half the sample is drawn from the
    queries the program found non-zero."""
    prior = {line.split("\t", 1)[0]
             for line in (workdir / "prior.tsv").read_text().splitlines()}
    keys = sorted(k for k in vectors if k not in prior and k not in manifest["faulty"])
    rng = random.Random(seed)
    everything = [(k, q) for k in keys for q in range(len(vectors[k]))]
    nonzero = [kq for kq in everything if vectors[kq[0]][kq[1]]]
    sample = rng.sample(nonzero, min(len(nonzero), SAMPLED_QUERIES // 2))
    sample += rng.sample(everything, SAMPLED_QUERIES - len(sample))
    units = [checks.query_units(*k.split(":"), q) for k, q in sample]
    docs = checks.corpus_docs((workdir / "corpus.txt").read_text(encoding="utf-8"))
    counts = checks.scan_document_hits(docs, units)
    return [f"query {' '.join(u)!r} of {k}: program {vectors[k][q]}, corpus scan {c}"
            for (k, q), u, c in zip(sample, units, counts) if vectors[k][q] != c]


def loocv_errors(workdir: Path, vectors: dict, program_confusion) -> list[str]:
    items = [line.split("\t") for line in (workdir / "labeled.tsv").read_text().splitlines()]
    raw = [vectors[f"{m}:{h}"] for m, h, _ in items]
    labels = [c for _, _, c in items]
    program = {(t, g): n for t, g, n in program_confusion}
    return checks.check_confusion(program, checks.loocv_confusion(raw, labels), "loocv tie_break=first")


def probe(workdir: Path) -> float:
    out = subprocess.run([sys.executable, str(PROBE), str(workdir)], env=ENV,
                         capture_output=True, text=True, check=True, timeout=30)
    return float(out.stdout.split()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    t0 = time.monotonic()
    workdir = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        manifest = gen.write_inputs(workload, seed, workdir)
        setup = [probe(workdir) for _ in range(PROBES // 2)]
        deadline = max(1.0, DEADLINE_S - CHECKS_RESERVE_S - (time.monotonic() - t0))
        subprocess.run([sys.executable, str(SESSION), "--workdir", str(workdir),
                        "--seconds", str(seconds), "--deadline", str(deadline),
                        "--trace", str(int(trace))],
                       env=ENV, check=True, stdout=subprocess.DEVNULL, timeout=deadline + 10)
        setup = statistics.median(setup + [probe(workdir) for _ in range(PROBES - PROBES // 2)])
        result = json.loads((workdir / "session.json").read_text())
        errors = result["errors"]
        if not result["timed_out"]:
            vectors = read_cache_file(workdir / "vectors.tsv")
            errors += (sample_query_errors(workdir, manifest, vectors, seed)
                       + loocv_errors(workdir, vectors, result["loocv_first"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = dict(result["metrics"], setup_s={"value": setup, "unit": "s"})
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["per_layer"] if trace else e2e
    wrong = [m["name"] for m in wanted
             if source.get(m["name"], {}).get("unit") != m["unit"]]
    if wrong:
        raise RuntimeError(f"{workload}: no value in the declared unit for {wrong}")
    line = {
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: source[m["name"]] for m in wanted},
    }
    for e in errors:
        print(f"{workload}: check failed: {e}", file=sys.stderr)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "passes": result["passes"], "steps": result["steps"],
              "wall_s": time.monotonic() - t0,
              "end_to_end": e2e, "per_layer": result["per_layer"], **line}
    out_dir = BENCH / (".traces" if trace else ".results")
    out_dir.mkdir(exist_ok=True)
    if trace:
        record["spans"] = result["spans"]
    (out_dir / f"{workload}-{seed}.json").write_text(json.dumps(record))
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "relsim" / "__init__.py").is_file():
        print(f"error: relsim source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            line = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
        except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as e:
            print(f"error: workload {workload} did not run: {e}", file=sys.stderr)
            return 2
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
