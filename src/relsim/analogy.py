"""SAT-style analogy solving: cosine scoring, margin policy, pool ranking,
precision/recall/F accounting, and raw SAT scores."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataFormatError
from .fileio import read_rows
from .similarity import cosines, guess_count, nearest_two, top_two
from .vectors import RelationVector, WordPair

CHOICE_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class AnalogyQuestion:
    stem: WordPair
    choices: tuple[WordPair, ...]
    answer: int

    def __post_init__(self):
        if len(self.choices) < 2:
            raise ValueError("a question needs at least two choices")
        if not 0 <= self.answer < len(self.choices):
            raise ValueError(f"answer index {self.answer} out of range")

    def pairs(self) -> list[WordPair]:
        return [self.stem, *self.choices]


@dataclass
class GuessOutcome:
    guesses: tuple[int, ...]  # ordered by descending cosine; size 0, 1, or 2
    margin: float
    skipped_zero_stem: bool = False


def decide(cosines: Sequence[float], threshold: float,
           stem_is_zero: bool = False,
           rng: random.Random | None = None) -> GuessOutcome:
    """Apply the margin-threshold guess policy to a question's cosines.

    The margin m is the best cosine minus the second best, ties ranked as
    in similarity.top_two. If the stem vector is all zeros the question is
    skipped outright. Otherwise: -m <= t <= +m guesses the best choice;
    t > m skips; t < -m guesses both the best and the second best.
    """
    if len(cosines) < 2:
        raise ValueError("need at least two cosines")
    top = (0, 0, 0.0) if stem_is_zero else top_two(cosines, rng)
    return outcomes_at([np.array([x]) for x in (*top, stem_is_zero)], threshold)[0]


def score_questions(questions: Sequence[AnalogyQuestion],
                    vectors: dict[str, RelationVector], seed: int = 0,
                    tie_break: str = "random") -> tuple[np.ndarray, ...]:
    """nearest_two's arrays over the questions' choices (best, second,
    margin), and a boolean array marking the questions whose stem vector is
    all zeros; outcomes_at applies a threshold afterwards."""
    table = np.full((len(questions), max((len(q.choices) for q in questions), default=0)),
                    -np.inf)
    for row, q in zip(table, questions):
        row[:len(q.choices)] = cosines(vectors[q.stem.key()].r,
                                       [vectors[c.key()].r for c in q.choices])
    zero = np.array([vectors[q.stem.key()].is_zero() for q in questions], dtype=bool)
    return (*nearest_two(table, seed, tie_break), zero)


def outcomes_at(scores: Sequence[np.ndarray], threshold: float) -> list[GuessOutcome]:
    """The margin policy at one threshold over score_questions' result."""
    best, second, margin, zero = scores
    count = np.where(zero, 0, guess_count(margin, threshold))
    return [GuessOutcome((b, s)[:c], 0.0 if z else m, skipped_zero_stem=z)
            for b, s, m, c, z in zip(*(a.tolist() for a in (best, second, margin, count, zero)))]


def solve_all(questions: Sequence[AnalogyQuestion],
              vectors: dict[str, RelationVector],
              threshold: float, seed: int = 0,
              tie_break: str = "random") -> list[GuessOutcome]:
    """Score and decide every question; tie_break is "random" or "first"."""
    return outcomes_at(score_questions(questions, vectors, seed, tie_break), threshold)


@dataclass
class EvalReport:
    correct: int
    incorrect: int
    skipped: int
    guesses_made: int
    doubles: int  # questions guessed with both the best and second-best choice
    total: int
    precision: float = field(init=False)
    recall: float = field(init=False)
    f: float = field(init=False)

    def __post_init__(self):
        self.precision = _ratio(self.correct, self.guesses_made)
        self.recall = _ratio(self.correct, self.total)
        self.f = f_measure(self.precision, self.recall)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when the denominator is 0."""
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def evaluate(questions: Sequence[AnalogyQuestion],
             outcomes: Sequence[GuessOutcome]) -> EvalReport:
    """A question is correct if its answer is among the guesses; every
    guessed index counts as one guess."""
    if len(questions) != len(outcomes):
        raise ValueError("one outcome per question required")
    correct = incorrect = skipped = guesses_made = doubles = 0
    for q, out in zip(questions, outcomes):
        guesses_made += len(out.guesses)
        doubles += len(out.guesses) == 2
        if not out.guesses:
            skipped += 1
        elif q.answer in out.guesses:
            correct += 1
        else:
            incorrect += 1
    return EvalReport(correct, incorrect, skipped, guesses_made, doubles, len(questions))


def raw_sat_score(correct: int, incorrect: int) -> float:
    """One point per correct answer, minus a quarter point per incorrect;
    skips contribute nothing."""
    if correct < 0 or incorrect < 0:
        raise ValueError("counts must be non-negative")
    return correct - incorrect / 4


def rank_pool(stem_vec: RelationVector,
              pool: Sequence[RelationVector]) -> list[int]:
    """Pool indices sorted by descending cosine to the stem; ties broken by
    ascending pool index."""
    if not pool:
        raise ValueError("pool must be non-empty")
    return np.argsort(-cosines(stem_vec.r, [v.r for v in pool]), kind="stable").tolist()


def rank_of(ranking: Sequence[int], target: int) -> int:
    """1-based rank of a pool index in a ranking."""
    return ranking.index(target) + 1


@dataclass
class TopKRow:
    k: int
    matches: int
    cumulative: int
    cumulative_pct: float


def cumulative_top_k(ranks: Sequence[int], k_max: int = 10) -> list[TopKRow]:
    """How many questions' correct pairs rank at or below each k."""
    rows = []
    cumulative = 0
    total = len(ranks)
    for k in range(1, k_max + 1):
        matches = sum(1 for r in ranks if r == k)
        cumulative += matches
        rows.append(TopKRow(k, matches, cumulative, _ratio(cumulative, total)))
    return rows


# ---------------------------------------------------------------------------
# Question file parsing

def parse_pair(text: str) -> WordPair:
    """The pair of an "x:y" field, each member stripped and lowercased."""
    x, _, y = text.partition(":")
    return WordPair(x.strip().lower(), y.strip().lower())


def _question_row(fields: list[str]) -> AnalogyQuestion:
    if len(fields) < 4:
        raise DataFormatError("expected stem, choices, answer")
    *pairs, letter = fields
    letter = letter.strip().lower()
    if len(letter) != 1 or letter not in CHOICE_LETTERS:
        raise DataFormatError(f"bad answer letter {fields[-1]!r}")
    stem, *choices = map(parse_pair, pairs)
    return AnalogyQuestion(stem, tuple(choices), CHOICE_LETTERS.index(letter))


def load_questions(path: str | Path) -> list[AnalogyQuestion]:
    """TSV: stem pair, five (or more) choice pairs, answer letter.

    Pairs are "x:y" with underscores for multiword members; the answer is
    one letter naming one of the choices; lines starting with '#' are
    comments.
    """
    return read_rows(path, _question_row)
