"""Correctness checks and the independent computations they compare with.

Every check returns a list of error strings, empty when the output is
right, so that one run reports every fault it sees.  Nothing here imports
relsim: the stemming, query and counting rules are rewritten from the
program's documented specification, and LOOCV is recomputed from scratch.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from gen import JOINING_TERMS, MAX_GAP, stem, tokenize


# --- index -------------------------------------------------------------------

def check_index_counts(stats: dict, manifest: dict, where: str) -> list[str]:
    """The program's token, vocabulary and document counts against the
    generator's."""
    return [f"{where}: {k} is {stats[k]}, the generator wrote {manifest[k]}"
            for k in ("docs", "tokens", "vocabulary") if stats[k] != manifest[k]]


def index_fingerprint(idx) -> str:
    """A hash of everything an index holds, so that a saved and a loaded
    index can be compared without keeping both in memory."""
    h = hashlib.sha256(idx.corpus_digest.encode())
    h.update(repr(sorted(idx.doc_lengths.items())).encode())
    for token in sorted(idx.postings):
        h.update(token.encode())
        h.update(repr(list(idx.postings[token])).encode())
    return h.hexdigest()


# --- vectors -----------------------------------------------------------------

def check_planted(vectors: dict, planted: dict) -> list[str]:
    """Planted pairs' raw counts against the counts fixed by construction."""
    errors = []
    for key, expected in planted.items():
        got = list(vectors[key])
        if got != expected:
            diff = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
            errors.append(f"planted pair {key}: counts differ at query indices {diff}")
    return errors


def faulty_pairs(vectors: dict, faulty: dict) -> list[str]:
    """Keys of the punctuation-member pairs whose vectors are wrong."""
    return [key for key, expected in faulty.items() if list(vectors[key]) != expected]


def check_reversed(vectors: dict, reversed_keys) -> list[str]:
    """Query 2j of (x, y) is query 2j+1 of (y, x), and the other way round."""
    errors = []
    for fwd, rev in reversed_keys:
        a, b = vectors[fwd], vectors[rev]
        swapped = [b[i + 1 if i % 2 == 0 else i - 1] for i in range(len(b))]
        if list(a) != swapped:
            errors.append(f"{rev} is not the swap-permutation of {fwd}")
    return errors


def check_vector_shape(vectors: dict) -> list[str]:
    return [f"{key}: {len(v)} counts or a negative count" for key, v in vectors.items()
            if len(v) != 2 * len(JOINING_TERMS) or min(v) < 0]


# --- analogy and nounmod ------------------------------------------------------

def check_solve_t0(stem_zero, guesses) -> list[str]:
    """At t = 0 every question with a non-zero stem gets exactly one guess
    and every zero stem is skipped."""
    errors = []
    for i, (zero, g) in enumerate(zip(stem_zero, guesses)):
        if len(g) != (0 if zero else 1):
            errors.append(f"question {i}: {len(g)} guesses at t=0 (zero stem: {zero})")
    return errors


def check_sweep(rows, name: str) -> list[str]:
    """Rows of (threshold, recall, guesses, skipped) in grid order: as the
    threshold rises, recall and guesses never rise and skips never fall."""
    errors = []
    for prev, row in zip(rows, rows[1:]):
        t0, r0, g0, s0 = prev
        t1, r1, g1, s1 = row
        if not t1 > t0:
            errors.append(f"{name}: thresholds not increasing at {t1}")
        if r1 > r0 or g1 > g0 or s1 < s0:
            errors.append(f"{name}: not monotone between t={t0} and t={t1}: "
                          f"recall {r0}->{r1}, guesses {g0}->{g1}, skipped {s0}->{s1}")
    return errors


def check_planted_questions(planted, answers, guesses_t0, ranks) -> list[str]:
    """A question whose answer's vector equals its stem's is answered
    correctly at t = 0 and its answer ranks first in the pool."""
    errors = []
    for q in planted:
        if tuple(guesses_t0[q]) != (answers[q],):
            errors.append(f"planted question {q}: guessed {guesses_t0[q]}, answer {answers[q]}")
        if ranks.get(q) != 1:
            errors.append(f"planted question {q}: pool rank {ranks.get(q)}, expected 1")
    return errors


def check_confusion(program: dict, oracle: dict, where: str) -> list[str]:
    if program == oracle:
        return []
    keys = sorted(set(program) | set(oracle), key=str)
    diff = [(k, program.get(k, 0), oracle.get(k, 0)) for k in keys
            if program.get(k, 0) != oracle.get(k, 0)]
    return [f"{where}: LOOCV confusion differs from the recomputation in "
            f"{len(diff)} cells, first {diff[:3]}"]


# --- independent computations -------------------------------------------------

def member_units(member: str) -> list[str]:
    """Query units for a pair member: its tokens, the last one stemmed."""
    toks = tokenize(member.replace("_", " "))
    return toks[:-1] + [stem(toks[-1])]


def query_units(x: str, y: str, k: int) -> list[str]:
    """Units of query k of the pair (x, y), in the program's fixed order."""
    term = JOINING_TERMS[k // 2].split()
    a, b = (x, y) if k % 2 == 0 else (y, x)
    return member_units(a) + term + member_units(b)


def match_unit(unit: str, token: str) -> bool:
    if unit == "*":
        return True
    if "*" not in unit:
        return token == unit
    prefix, suffix = unit.split("*")
    gap = len(token) - len(prefix) - len(suffix)
    return 0 <= gap <= MAX_GAP and token.startswith(prefix) and token.endswith(suffix)


def corpus_docs(text: str) -> list[list[str]]:
    """Token lists of a single-file corpus: documents split at '%%' lines."""
    docs = [[]]
    for line in text.splitlines():
        if line.strip() == "%%":
            docs.append([])
        else:
            docs[-1].extend(tokenize(line))
    return docs


def scan_document_hits(docs: list[list[str]], queries: list[list[str]]) -> list[int]:
    """Document-hit counts by sliding each query over every document,
    starting only where the first unit (never '*') matches."""
    counts = [0] * len(queries)
    starts: dict[str, list[int]] = {}  # token -> queries whose first unit it matches
    for toks in docs:
        n = len(toks)
        hit = [False] * len(queries)
        for pos, tok in enumerate(toks):
            qs = starts.get(tok)
            if qs is None:
                qs = starts[tok] = [qi for qi, units in enumerate(queries)
                                    if match_unit(units[0], tok)]
            for qi in qs:
                units = queries[qi]
                if not hit[qi] and pos + len(units) <= n and all(
                        match_unit(units[j], toks[pos + j]) for j in range(1, len(units))):
                    hit[qi] = True
        for qi, h in enumerate(hit):
            counts[qi] += h
    return counts


def loocv_confusion(raw_vectors, labels, threshold: float = 0.0) -> dict:
    """Leave-one-out two-neighbour classification, ties to the lowest index.

    Cosines are rounded to 12 places, so that exactly equal vectors tie
    here as they do in the program whatever the summation order.
    """
    r = np.log1p(np.asarray(raw_vectors, dtype=float))
    norms = np.sqrt((r * r).sum(axis=1))
    confusion: dict = {}
    n = len(labels)
    for i in range(n):
        dots = r @ r[i]
        cos = [0.0 if norms[i] == 0 or norms[j] == 0 else
               round(float(dots[j]) / (norms[i] * norms[j]), 12) for j in range(n)]
        order = sorted((j for j in range(n) if j != i), key=lambda j: (-cos[j], j))
        j1, j2 = order[0], order[1]
        if labels[j1] == labels[j2]:
            guesses = [labels[j1]]
        else:
            m = cos[j1] - cos[j2]
            guesses = [] if threshold > m else [labels[j1], labels[j2]] \
                if threshold < -m else [labels[j1]]
        for g in guesses or [None]:
            key = (labels[i], g)
            confusion[key] = confusion.get(key, 0) + 1
    return confusion


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]
