"""The similarity core shared by the analogy solver and the noun-modifier
classifier.

Relation vectors are stacked as the rows of a pair x pattern matrix. Each
probe is scored against its candidates once, giving its best and
second-best candidate and the margin between their cosines; a margin
threshold is applied afterwards by the margin rule, so a sweep over
thresholds scores every probe only once.

A cosine is dot / (|a| * |b|), and 0 when either norm is 0, the formula of
vectors.cosine. Each dot product is taken over its two rows alone
(np.vecdot), so a cosine depends on those two rows and on nothing else in
the matrix: it is bit-equal to vectors.cosine of the same two vectors and
symmetric, and identical vectors tie exactly wherever they sit. Rows that
are parallel but not equal have mathematically equal cosines that may
still differ in the last bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .vectors import RelationVector

TIE_BREAKS = ("random", "first")


def question_rng(seed: int, ordinal: int) -> random.Random:
    """Per-probe generator; depends only on the global seed and ordinal."""
    return random.Random(seed ^ ordinal)


class PairMatrix:
    """The log vectors of word pairs as matrix rows."""

    def __init__(self, vectors: Iterable[RelationVector]):
        self.rows = np.ascontiguousarray([v.r for v in vectors], dtype=float)
        norms = np.sqrt(np.vecdot(self.rows, self.rows))
        # A zero norm is kept as inf: a zero row's dot products are 0, so its
        # cosines come out as 0 / inf = 0 with no special case.
        self.norms = np.where(norms == 0.0, np.inf, norms)

    def cosines(self, probe: int) -> np.ndarray:
        """Cosine of row `probe` with every row, in row order."""
        return np.vecdot(self.rows, self.rows[probe]) / (self.norms[probe] * self.norms)


def cosines_to(probe: RelationVector,
               vectors: Sequence[RelationVector]) -> np.ndarray:
    """Cosine of probe with each vector, in order."""
    return PairMatrix([probe, *vectors]).cosines(0)[1:]


def leave_one_out(vectors: Sequence[RelationVector]) -> Iterator[np.ndarray]:
    """Each vector's cosines with all the others, in order."""
    matrix = PairMatrix(vectors)
    for i in range(len(vectors)):
        yield np.delete(matrix.cosines(i), i)


@dataclass(frozen=True)
class TopTwo:
    best: int  # positions in the probe's candidate list
    second: int
    margin: float  # best cosine minus second-best cosine


def top_two(scores: Sequence[float], rng: random.Random | None = None) -> TopTwo:
    """The two highest-scoring positions and the margin between them.

    Positions rank by descending score. Exact ties are broken by a random
    permutation of the positions, rng.sample(range(n), n), or by ascending
    position when rng is None; the permutation is drawn only when a tie
    touches the top two. A single score is its own runner-up, at margin 0.
    """
    scores = np.asarray(scores, dtype=float)
    n = len(scores)
    if n == 0:
        raise ValueError("need at least one score")
    if n == 1:
        return TopTwo(0, 0, 0.0)
    # The positions scoring at least the second-highest score.
    top = np.flatnonzero(scores >= np.partition(scores, n - 2)[n - 2]).tolist()
    keys = range(n)
    if rng is not None and len(set(scores[top].tolist())) < len(top):
        keys = rng.sample(range(n), n)
    best, second = sorted(top, key=lambda i: (-scores[i], keys[i]))[:2]
    return TopTwo(best, second, float(scores[best] - scores[second]))


def nearest_two(scores: Iterable[Sequence[float]], seed: int = 0,
                tie_break: str = "random") -> list[TopTwo]:
    """top_two of each probe's scores against its candidates.

    tie_break "random" breaks probe k's exact ties with
    question_rng(seed, k); "first" prefers the lower position.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    return [top_two(s, question_rng(seed, k) if tie_break == "random" else None)
            for k, s in enumerate(scores)]


def margin_rule(first, second, margin: float, threshold: float) -> tuple:
    """The guess set at a margin threshold t: skip when t > margin, guess
    both when t < -margin, otherwise guess the first."""
    if threshold > margin:
        return ()
    if threshold < -margin:
        return (first, second)
    return (first,)
