"""Threshold sweeps over the margin, emitting precision/recall/F rows.

A sweep scores each probe once. Under the margin rule (similarity.guess_count)
a probe of margin m guesses twice at t < -m, once at -m <= t <= m and not at
all at t > m or at a NaN m or t, so every count a row needs is a sum over the
probes with m >= t plus a sum over those with -m > t. With the probes sorted
by margin, NaN left out, both sums are rows of cumulative-sum tables, found
by np.searchsorted for CHUNK thresholds at a time. A grid point costs two
searches, a few array rows and its SweepRow: no per-threshold outcome,
report or confusion, and no count array longer than CHUNK thresholds.
Both sweeps build their rows in _sweep_rows: a noun-modifier pair guesses
loocv_scores' classes, a SAT question one class, "the answer".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .analogy import AnalogyQuestion, precision_recall_f, score_questions
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


def _sweep_rows(margin: np.ndarray, first: np.ndarray, second: np.ndarray,
                hit_first: np.ndarray, hit_second: np.ndarray, size: np.ndarray,
                thresholds: Sequence[float]) -> list[SweepRow]:
    """One row per threshold. Item i guesses class first[i] (a hit where
    hit_first[i]) when t <= margin[i], and also class second[i] when
    t < -margin[i], as guess_count: an infinite margin guesses once at every
    finite t, a NaN margin or t never. Per-class counts give
    analogy.precision_recall_f against the class sizes, macroaveraged as
    macroaverage sums, in class order; the items not guessing are skipped.
    """
    total, n = len(margin), len(size)
    order = np.argsort(margin, kind="stable")[:np.count_nonzero(~np.isnan(margin))]
    margin = margin[order]

    def prefix(guess: np.ndarray, hit: np.ndarray) -> np.ndarray:
        """Row k, over the k items of lowest margin: the guesses of each
        class, the hits of each class, then k itself."""
        guesses = np.eye(n, dtype=bool)[guess[order]]
        table = np.zeros((len(order) + 1, 2 * n + 1), dtype=np.int32)
        table[1:, :n] = guesses
        table[1:, n:-1] = guesses & hit[order, None]
        table[1:, -1] = 1
        return np.cumsum(table, axis=0, dtype=np.int32, out=table)

    once, twice = prefix(first, hit_first), prefix(second, hit_second)
    rows = []
    for lo in range(0, len(thresholds), CHUNK):
        ts = thresholds[lo:lo + CHUNK]
        t = np.asarray(ts, dtype=float)
        # The items guessing start at the first margin >= t. Those guessing
        # twice, at -margin > t, are the lowest margins; a NaN t finds neither.
        guessing = once[-1] - once[np.searchsorted(margin, t)]
        doubling = twice[len(margin) - np.searchsorted(-margin[::-1], t, side="right")]
        counts = guessing[:, :-1] + doubling[:, :-1]
        # Python's sum, as macroaverage takes it: from 3.12 on it compensates,
        # so a numpy sum could differ from it in the last bit.
        p, r, f = ([sum(row) / n for row in a.tolist()]
                   for a in precision_recall_f(counts[:, n:], counts[:, :n], size))
        g, d = guessing[:, -1], doubling[:, -1]
        rows += map(SweepRow, ts, p, r, f, (g + d).tolist(), (total - g).tolist(), d.tolist())
    return rows


def sat_sweep(questions: Sequence[AnalogyQuestion],
              vectors: dict[str, RelationVector],
              thresholds: Sequence[float], seed: int = 0,
              tie_break: str = "random") -> list[SweepRow]:
    """One row per threshold: the EvalReport of analogy.outcomes_at there,
    from the questions scored once (an all-zero stem at margin NaN). Every
    guess is of one class, the answer, of size the number of questions."""
    best, second, margin = score_questions(questions, vectors, seed, tie_break)
    answer = np.array([q.answer for q in questions], dtype=int)
    one_class = np.zeros(len(questions), dtype=int)
    return _sweep_rows(margin, one_class, one_class, answer == best, answer == second,
                       np.array([len(questions)]), thresholds)


def nounmod_sweep(vectors: Sequence[RelationVector], labels: Sequence[str],
                  thresholds: Sequence[float], granularity: int = 30,
                  seed: int = 0, tie_break: str = "random") -> list[SweepRow]:
    """One row per threshold: the macroaverage and guess counts of loocv
    there, from the items scored once (nounmod.loocv_scores)."""
    classes, true, first, second, margin = loocv_scores(vectors, labels, granularity, seed,
                                                        tie_break)
    return _sweep_rows(margin, first, second, first == true, second == true,
                       np.bincount(true, minlength=len(classes)), thresholds)


def csv_lines(rows: Iterable[SweepRow]) -> Iterator[str]:
    """The CSV text of the rows, one line at a time: the header, then a line per row."""
    yield CSV_HEADER + "\n"
    for row in rows:
        yield (f"{row.threshold},{row.precision!r},{row.recall!r},"
               f"{row.f!r},{row.guesses},{row.skipped},{row.doubles}\n")


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    return "".join(csv_lines(rows))
