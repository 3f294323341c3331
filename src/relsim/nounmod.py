"""Noun-modifier relation classification by nearest-neighbour cosine.

Thirty semantic relation classes, organized into five groups; single
nearest-neighbour with leave-one-out cross-validation, a two-neighbour
margin variant for trading precision against recall, and macroaveraged
per-class metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .analogy import f_measure
from .errors import DataFormatError
from .fileio import read_rows
from .similarity import cosines, guess_count, nearest_two
from .vectors import RelationVector, WordPair

# (class name, abbreviation, example phrase, group)
RELATION_CLASSES: tuple[tuple[str, str, str, str], ...] = (
    ("cause", "cs", "flu virus", "causality"),
    ("effect", "eff", "exam anxiety", "causality"),
    ("purpose", "prp", "concert hall", "causality"),
    ("detraction", "detr", "headache pill", "causality"),
    ("frequency", "freq", "daily exercise", "temporality"),
    ("time at", "tat", "morning exercise", "temporality"),
    ("time through", "tthr", "six-hour meeting", "temporality"),
    ("direction", "dir", "outgoing mail", "spatial"),
    ("location", "loc", "home town", "spatial"),
    ("location at", "lat", "desert storm", "spatial"),
    ("location from", "lfr", "foreign capital", "spatial"),
    ("agent", "ag", "student protest", "participant"),
    ("beneficiary", "ben", "student discount", "participant"),
    ("instrument", "inst", "laser printer", "participant"),
    ("object", "obj", "metal separator", "participant"),
    ("object property", "obj_prop", "sunken ship", "participant"),
    ("part", "part", "printer tray", "participant"),
    ("possessor", "posr", "national debt", "participant"),
    ("property", "prop", "blue book", "participant"),
    ("product", "prod", "plum tree", "participant"),
    ("source", "src", "olive oil", "participant"),
    ("stative", "st", "sleeping dog", "participant"),
    ("whole", "whl", "daisy chain", "participant"),
    ("container", "cntr", "film music", "quality"),
    ("content", "cont", "apple cake", "quality"),
    ("equative", "eq", "player coach", "quality"),
    ("material", "mat", "brick house", "quality"),
    ("measure", "meas", "expensive book", "quality"),
    ("topic", "top", "weather report", "quality"),
    ("type", "type", "oak tree", "quality"),
)

GROUPS = ("causality", "participant", "quality", "spatial", "temporality")

_GROUP_OF = {abbr: group for _, abbr, _, group in RELATION_CLASSES}
ALL_ABBREVIATIONS = tuple(abbr for _, abbr, _, _ in RELATION_CLASSES)
LOOCV_BLOCK = 64  # probes scored at once: LOOCV memory is this many cosines per item


def group_of(label: str) -> str:
    """Map a 30-class abbreviation to its 5-way group."""
    try:
        return _GROUP_OF[label]
    except KeyError:
        raise DataFormatError(f"unknown relation class {label!r}") from None


@dataclass(frozen=True)
class LabeledNounModifier:
    modifier: str
    head: str
    label: str

    def __post_init__(self):
        self.pair()  # WordPair rejects a bad member

    def pair(self) -> WordPair:
        """Modifier first, head second, by fixed convention."""
        return WordPair(self.modifier, self.head)


def _labelled_row(fields: list[str]) -> LabeledNounModifier:
    if len(fields) < 3:
        raise DataFormatError("expected modifier, head, class")
    item = LabeledNounModifier(*(f.strip().lower() for f in fields[:3]))
    if item.label not in _GROUP_OF:
        raise DataFormatError(f"unknown relation class {item.label!r}")
    return item


def load_labeled_pairs(path: str | Path) -> list[LabeledNounModifier]:
    """TSV: modifier, head, class abbreviation; extra columns ignored,
    '#' lines are comments."""
    return read_rows(path, _labelled_row)


# ---------------------------------------------------------------------------
# Classification

@dataclass
class ClassMetrics:
    label: str
    size: int
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f: float


@dataclass
class LoocvResult:
    per_class: list[ClassMetrics]
    confusion: dict[tuple[str, str | None], int]  # (true, guessed or None=abstain)
    guesses_made: int
    abstained: int
    doubles: int
    correct: int  # items whose guess set contains the true class
    total: int


def loocv_thresholds(vectors: Sequence[RelationVector], labels: Sequence[str],
                     thresholds: Sequence[float], granularity: int = 30,
                     seed: int = 0, tie_break: str = "random") -> list[LoocvResult]:
    """loocv at each threshold in turn; every item is scored once."""
    if len(vectors) != len(labels):
        raise ValueError("one label per vector required")
    if len(vectors) < 2:
        raise ValueError("need at least two items")
    if granularity == 5:
        labels = [group_of(lab) for lab in labels]
        classes = GROUPS
    elif granularity == 30:
        classes = ALL_ABBREVIATIONS if set(labels) <= set(ALL_ABBREVIATIONS) \
            else tuple(sorted(set(labels)))
    else:
        raise ValueError("granularity must be 30 or 5")

    # -inf masks each probe itself; with two items the lone neighbour is also the runner-up (1-NN).
    rows = np.array([v.r for v in vectors])
    blocks = []
    for lo in range(0, len(rows), LOOCV_BLOCK):
        table = cosines(rows[lo:lo + LOOCV_BLOCK, None], rows)
        np.fill_diagonal(table[:, lo:], -np.inf)
        blocks.append(nearest_two(table, seed, tie_break, start=lo))
        del table  # so that cosines builds the next block's table without this one alive
    best, second, margins = map(np.concatenate, zip(*blocks))
    number = {c: k for k, c in enumerate(classes)}
    true = np.array([number[lab] for lab in labels])
    first, second = true[best], true[second]
    # A class shared by both nearest neighbours is guessed whatever the threshold.
    return [_tally(true, first, second, np.where(first == second, 1, guess_count(margins, t)),
                   classes)
            for t in thresholds]


def loocv(vectors: Sequence[RelationVector], labels: Sequence[str],
          threshold: float = 0.0, granularity: int = 30, seed: int = 0,
          tie_break: str = "random") -> LoocvResult:
    """Leave-one-out cross-validation with the two-neighbour margin rule.

    granularity 5 collapses labels through group_of before training and
    scoring; 30 keeps them as-is. Per-class accounting, one rule per
    guess: a guess of the true class is a TP, any other guess an FP to the
    guessed class, and a true class left unguessed an FN.
    """
    return loocv_thresholds(vectors, labels, [threshold], granularity, seed,
                            tie_break)[0]


def _tally(true: np.ndarray, first: np.ndarray, second: np.ndarray, count: np.ndarray,
           classes: Sequence[str]) -> LoocvResult:
    """Score item i, of class number true[i], guessing the first count[i]
    of (first[i], second[i]); a count of 2 needs first[i] != second[i]."""
    n = len(classes)
    # One (true, guessed) cell per guess; guessed n stands for an abstention.
    owner = np.concatenate([true, true[count == 2]])
    guessed = np.concatenate([np.where(count == 0, n, first), second[count == 2]])
    cells = np.bincount(owner * (n + 1) + guessed, minlength=n * (n + 1)).reshape(n, n + 1)
    tp = cells.diagonal()
    fp, fn = cells[:, :n].sum(axis=0) - tp, np.bincount(true, minlength=n) - tp
    names = (*classes, None)
    confusion = {(names[t], names[g]): k
                 for (t, g), k in zip(np.argwhere(cells).tolist(), cells[cells > 0].tolist())}
    per_class = []
    for c, tp_c, fp_c, fn_c in zip(classes, tp.tolist(), fp.tolist(), fn.tolist()):
        p = tp_c / (tp_c + fp_c) if tp_c + fp_c else 0.0
        r = tp_c / (tp_c + fn_c) if tp_c + fn_c else 0.0
        per_class.append(ClassMetrics(c, tp_c + fn_c, tp_c, fp_c, fn_c, p, r, f_measure(p, r)))
    abstained, singles, doubles = np.bincount(count, minlength=3).tolist()
    return LoocvResult(per_class, confusion, guesses_made=singles + 2 * doubles,
                       abstained=abstained, doubles=doubles, correct=int(tp.sum()),
                       total=len(true))


def macroaverage(per_class: Sequence[ClassMetrics]) -> tuple[float, float, float]:
    """Unweighted means of per-class precision, recall, and F. The averaged
    F is the mean of per-class F values, not the harmonic mean of the
    averaged precision and recall."""
    if not per_class:
        raise ValueError("no classes to average")
    n = len(per_class)
    return (sum(m.precision for m in per_class) / n,
            sum(m.recall for m in per_class) / n,
            sum(m.f for m in per_class) / n)
