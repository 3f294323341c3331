"""Threshold sweeps over the margin, emitting precision/recall/F rows."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .analogy import AnalogyQuestion, evaluate, outcomes_at, score_questions
from .nounmod import loocv_thresholds, macroaverage
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


def sat_sweep(questions: Sequence[AnalogyQuestion],
              vectors: dict[str, RelationVector],
              thresholds: Sequence[float], seed: int = 0,
              tie_break: str = "random") -> list[SweepRow]:
    tops = score_questions(questions, vectors, seed, tie_break)
    reports = [evaluate(questions, outcomes_at(tops, t)) for t in thresholds]
    return [SweepRow(t, r.precision, r.recall, r.f, r.guesses_made, r.skipped, r.doubles)
            for t, r in zip(thresholds, reports)]


def nounmod_sweep(vectors: Sequence[RelationVector], labels: Sequence[str],
                  thresholds: Sequence[float], granularity: int = 30,
                  seed: int = 0, tie_break: str = "random") -> list[SweepRow]:
    results = loocv_thresholds(vectors, labels, thresholds, granularity, seed, tie_break)
    return [SweepRow(t, *macroaverage(r.per_class), r.guesses_made, r.abstained, r.doubles)
            for t, r in zip(thresholds, results)]


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(f"{row.threshold},{row.precision!r},{row.recall!r},"
                     f"{row.f!r},{row.guesses},{row.skipped},{row.doubles}")
    return "\n".join(lines) + "\n"
