"""SAT-style analogy solving: cosine scoring, margin policy, pool ranking,
precision/recall/F accounting, and raw SAT scores."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataFormatError
from .fileio import read_rows
from .similarity import BLOCK, cosines, guess_count, nearest_two, top_two
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
    in similarity.top_two, or NaN if the stem vector is all zeros. Then
    -m <= t <= +m guesses the best choice; t > m skips; t < -m guesses both
    the best and the second best; a NaN margin skips at every threshold.
    """
    if len(cosines) < 2:
        raise ValueError("need at least two cosines")
    top = (0, 0, math.nan) if stem_is_zero else top_two(cosines, rng)
    return outcomes_at([np.array([x]) for x in top], threshold)[0]


def score_questions(questions: Sequence[AnalogyQuestion],
                    vectors: dict[str, RelationVector], seed: int = 0,
                    tie_break: str = "random") -> tuple[np.ndarray, ...]:
    """nearest_two's arrays over the questions' choices (best, second,
    margin), margin NaN where the stem vector is all zeros, so that no
    threshold guesses there; outcomes_at applies a threshold afterwards.

    The questions of one choice count are scored BLOCK at a time, one
    cosines call per choice position over the block's stems. That is still
    one dot product per stem and choice, so each cosine keeps the bits of a
    call over its question alone, and a block gathers two BLOCK x d arrays,
    not one of every choice.
    """
    table = np.full((len(questions), max((len(q.choices) for q in questions), default=0)),
                    -np.inf)
    zero = np.zeros(len(questions), dtype=bool)
    by_count: dict[int, list[int]] = {}
    for i, q in enumerate(questions):
        by_count.setdefault(len(q.choices), []).append(i)
    for n, members in by_count.items():
        for lo in range(0, len(members), BLOCK):
            block = members[lo:lo + BLOCK]
            stems = [vectors[questions[i].stem.key()] for i in block]
            zero[block] = [v.is_zero() for v in stems]
            stems = np.array([v.r for v in stems])
            for j in range(n):
                table[block, j] = cosines(stems, np.array(
                    [vectors[questions[i].choices[j].key()].r for i in block]))
    best, second, margin = nearest_two(table, seed, tie_break)
    return best, second, np.where(zero, np.nan, margin)


def outcomes_at(scores: Sequence[np.ndarray], threshold: float) -> list[GuessOutcome]:
    """The margin policy, guess_count, at one threshold over score_questions'
    result. A NaN margin (an all-zero stem) reads 0.0, skipped_zero_stem set."""
    count = guess_count(scores[2], threshold)
    return [GuessOutcome((b, s)[:c], 0.0 if math.isnan(m) else m, skipped_zero_stem=math.isnan(m))
            for b, s, m, c in zip(*(a.tolist() for a in (*scores, count)))]


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


def precision_recall_f(tp: np.ndarray, guessed: np.ndarray, size: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """EvalReport's precision tp / guessed, recall tp / size and F, bit for
    bit, elementwise over int arrays broadcast to tp's shape (per class)."""
    def ratio(num, den):  # 0.0 where den is 0
        return np.divide(num, den, out=np.zeros(num.shape), where=den != 0)

    p, r = ratio(tp, guessed), ratio(tp, size)
    return p, r, ratio(2 * p * r, p + r)


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


def _pool_order(table: np.ndarray) -> np.ndarray:
    """Each row of a stems x pool cosine table as pool indices by descending
    cosine, an exact tie going to the lower pool index: the stable argsort
    of the negated cosines. This is the one statement of the pool-ranking
    rule; it draws nothing, so no seed applies."""
    return np.argsort(-table, axis=-1, kind="stable")


def pool_ranks(questions: Sequence[AnalogyQuestion],
               vectors: dict[str, RelationVector]) -> dict[int, int]:
    """The pool-ranking evaluation: question index -> the 1-based rank of the
    question's correct pair among the pool, ranked by its stem.

    A question whose stem vector is all zeros is left out; the correct pairs
    of the others form the pool, in question order. A rank is 1, plus the
    pool cosines above that of the stem's own pair, plus the equal ones at a
    lower pool index (_pool_order). The stems x pool table is built BLOCK
    stems at a time, so memory grows linearly with the pool.
    """
    usable = [i for i, q in enumerate(questions) if not vectors[q.stem.key()].is_zero()]
    stems = np.array([vectors[questions[i].stem.key()].r for i in usable])
    pool = np.array([vectors[questions[i].choices[questions[i].answer].key()].r
                     for i in usable])
    ranks = []
    for lo in range(0, len(usable), BLOCK):
        order = _pool_order(cosines(stems[lo:lo + BLOCK, None], pool))
        own = np.arange(lo, lo + len(order))[:, None]
        ranks += (np.argmax(order == own, axis=1) + 1).tolist()
    return dict(zip(usable, ranks))


def rank_pool(stem_vec: RelationVector,
              pool: Sequence[RelationVector]) -> list[int]:
    """Pool indices sorted by descending cosine to the stem, ties by
    ascending pool index: _pool_order for one stem. pool_ranks ranks every
    stem at once."""
    if not pool:
        raise ValueError("pool must be non-empty")
    return _pool_order(cosines(stem_vec.r, [v.r for v in pool])).tolist()


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
