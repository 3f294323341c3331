"""Threshold sweeps over the margin, emitting precision/recall/F rows.

A sweep scores each probe once. Under the margin rule (similarity.guess_count)
a probe of margin m guesses twice at t < -m, once at -m <= t <= m and not at
all at t > m, so every count a row needs is a sum over the probes with
m >= t plus a sum over those with m < -t. With the probes sorted by margin,
both sums are rows of cumulative-sum tables, found by np.searchsorted for
CHUNK thresholds at a time. A grid point costs two searches, a few array
rows and its SweepRow: no per-threshold outcome, report or confusion, and
no count array longer than CHUNK thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .analogy import AnalogyQuestion, EvalReport, score_questions
from .nounmod import loocv_scores
from .vectors import RelationVector


@dataclass
class SweepRow:
    threshold: float
    precision: float
    recall: float
    f: float
    guesses: int
    skipped: int
    doubles: int


CSV_HEADER = "threshold,precision,recall,f,guesses,skipped,doubles"

SAT_GRID = (-0.11, 0.11, 0.01)
NOUNMOD_GRID = (-0.03, 0.03, 0.01)
MAX_GRID_POINTS = 10 ** 6  # far above the paper's grids of 23 and 7 points
CHUNK = 1024  # thresholds counted at once


def grid_thresholds(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi (never past it), each rounded to 10 places."""
    if not (all(math.isfinite(x) for x in (lo, hi, step)) and step > 0 and lo <= hi):
        raise ValueError("a grid needs finite lo <= hi and step > 0")
    # The tolerance keeps hi itself when (hi - lo) / step lands just below
    # a whole number, as 0.22 / 0.01 does. The quotient may be infinite.
    spans = (hi - lo) / step + 1e-9
    if not spans < MAX_GRID_POINTS:
        raise ValueError(f"a grid has at most {MAX_GRID_POINTS} points")
    return [round(lo + i * step, 10) for i in range(math.floor(spans) + 1)]


def _threshold_sums(margin: np.ndarray, once: np.ndarray, twice: np.ndarray,
                    thresholds: Sequence[float]
                    ) -> Iterator[tuple[Sequence[float], np.ndarray, np.ndarray, np.ndarray]]:
    """The margin rule's counts at every threshold, CHUNK thresholds at a time.

    Item i guesses at t when t <= margin[i] and guesses twice when
    t < -margin[i]; an infinite margin guesses once at every finite t. For
    each chunk this yields its thresholds; the sum of once's rows over the
    items guessing plus that of twice's rows over those guessing twice; and
    the numbers of items guessing and of those guessing twice.
    """
    order = np.argsort(margin, kind="stable")
    margin = margin[order]

    def prefix(weights: np.ndarray) -> np.ndarray:
        """Row k: the sum of the weight rows of the k items of lowest margin,
        then k itself."""
        table = np.zeros((len(order) + 1, weights.shape[1] + 1), dtype=np.int32)
        table[1:, :-1] = weights[order]
        table[1:, -1] = 1
        return np.cumsum(table, axis=0, dtype=np.int32, out=table)

    once, twice = prefix(once), prefix(twice)
    for lo in range(0, len(thresholds), CHUNK):
        ts = thresholds[lo:lo + CHUNK]
        t = np.asarray(ts, dtype=float)
        # The items guessing start at the first margin >= t; those guessing
        # twice end before the first margin >= -t.
        guessing = once[-1] - once[np.searchsorted(margin, t)]
        doubling = twice[np.searchsorted(margin, -t)]
        yield ts, guessing[:, :-1] + doubling[:, :-1], guessing[:, -1], doubling[:, -1]


def sat_sweep(questions: Sequence[AnalogyQuestion],
              vectors: dict[str, RelationVector],
              thresholds: Sequence[float], seed: int = 0,
              tie_break: str = "random") -> list[SweepRow]:
    """One row per threshold: the EvalReport of the margin policy's outcomes
    there (analogy.outcomes_at), from the questions scored once."""
    best, second, margin, zero = score_questions(questions, vectors, seed, tie_break)
    answer = np.array([q.answer for q in questions], dtype=int)
    live = ~zero  # a question with an all-zero stem is skipped at every threshold
    total = len(questions)
    rows = []
    for ts, correct, guessing, doubles in _threshold_sums(
            margin[live], (answer == best)[live, None], (answer == second)[live, None],
            thresholds):
        for t, c, g, d in zip(ts, correct[:, 0].tolist(), guessing.tolist(), doubles.tolist()):
            r = EvalReport(c, g - c, total - g, g + d, d, total)
            rows.append(SweepRow(t, r.precision, r.recall, r.f, r.guesses_made, r.skipped,
                                 r.doubles))
    return rows


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0.0 where den is 0, as nounmod._tally divides."""
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    return np.divide(num, den, out=out, where=den != 0)


def nounmod_sweep(vectors: Sequence[RelationVector], labels: Sequence[str],
                  thresholds: Sequence[float], granularity: int = 30,
                  seed: int = 0, tie_break: str = "random") -> list[SweepRow]:
    """One row per threshold: the macroaverage and guess counts of loocv
    there, from the items scored once. Per-class precision, recall and F
    take nounmod._tally's arithmetic on arrays; each macroaverage is
    macroaverage's sum over the classes in their order."""
    classes, true, first, second, margin = loocv_scores(vectors, labels, granularity, seed,
                                                        tie_break)
    # A class shared by both nearest neighbours is guessed once at every threshold.
    margin = np.where(first == second, np.inf, margin)
    n = len(classes)
    eye = np.eye(n, dtype=bool)
    # Columns: the guesses of each class, then the true positives of each class.
    once = np.hstack([eye[first], eye[first] & (first == true)[:, None]])
    twice = np.hstack([eye[second], eye[second] & (second == true)[:, None]])
    size = np.bincount(true, minlength=n)
    rows = []
    for ts, counts, guessing, doubles in _threshold_sums(margin, once, twice, thresholds):
        guessed, tp = counts[:, :n], counts[:, n:]
        p, r = _ratios(tp, guessed), _ratios(tp, size)
        f = _ratios(2 * p * r, p + r)
        # Python's sum, as macroaverage takes it: from 3.12 on it compensates,
        # so a numpy sum could differ from it in the last bit.
        p, r, f = ([sum(row) / n for row in a.tolist()] for a in (p, r, f))
        for t, p_t, r_t, f_t, g, d in zip(ts, p, r, f, guessing.tolist(), doubles.tolist()):
            rows.append(SweepRow(t, p_t, r_t, f_t, g + d, len(true) - g, d))
    return rows


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(f"{row.threshold},{row.precision!r},{row.recall!r},"
                     f"{row.f!r},{row.guesses},{row.skipped},{row.doubles}")
    return "\n".join(lines) + "\n"
