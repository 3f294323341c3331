"""The similarity core shared by the analogy solver and the noun-modifier
classifier.

A command scores its probes as one probes x positions table of cosines,
-inf where a position is not a probe's candidate. nearest_two returns three
arrays: each row's best and second-best position and their margin. guess_count
applies a threshold to all the margins at once, so a sweep scores
each probe once and counts every threshold in bulk.

A cosine is dot / (|a| * |b|), and 0 when either norm is 0. Each dot
product is taken over its two rows alone (np.vecdot), so a cosine depends
on those two rows and on nothing else: it is bit-equal to vectors.cosine
of the same two vectors and symmetric, and identical vectors tie exactly
wherever they sit. Rows that are parallel but not equal have
mathematically equal cosines that may still differ in the last bit.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

TIE_BREAKS = ("random", "first")


def question_rng(seed: int, ordinal: int) -> random.Random:
    """Per-probe generator; depends only on the global seed and ordinal.

    It is seeded with the text "seed:ordinal", so distinct pairs draw
    distinct streams (seed 1, probe 0 is not seed 0, probe 1), and a str
    seed gives the same stream in every process.
    """
    return random.Random(f"{seed}:{ordinal}")


def cosines(a, b) -> np.ndarray:
    """The cosine of each pair of rows of a and b, broadcast over their
    leading axes; 0 where either row is all zeros."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    na, nb = np.sqrt(np.vecdot(a, a)), np.sqrt(np.vecdot(b, b))
    # A zero norm is taken as inf: a zero row's dot products are 0, so its
    # cosines come out as 0 / inf = 0. Dividing in place spares a table.
    cos = np.vecdot(a, b)
    cos /= np.where(na == 0.0, np.inf, na) * np.where(nb == 0.0, np.inf, nb)
    return cos


def top_two(scores: Sequence[float], rng: random.Random | None = None) -> tuple[int, int, float]:
    """The two highest-scoring positions and the margin between them.

    Positions rank by descending score. Only the m positions scoring at
    least the second-highest score can come first or second, and their
    exact ties are broken by a random permutation of those m in position
    order, rng.sample(range(m), m), or by ascending position when rng is
    None. The permutation is drawn only when a tie touches the top two, so
    the outcome does not depend on any score below the second-highest. A
    single score is its own runner-up, at margin 0.
    """
    scores = np.asarray(scores, dtype=float)
    n = len(scores)
    if n == 0:
        raise ValueError("need at least one score")
    if n == 1:
        return 0, 0, 0.0
    # The positions scoring at least the second-highest score.
    top = np.flatnonzero(scores >= np.partition(scores, n - 2)[n - 2]).tolist()
    order = range(len(top))
    if rng is not None and len(set(scores[top].tolist())) < len(top):
        order = rng.sample(order, len(top))
    keys = dict(zip(top, order))
    best, second = sorted(top, key=lambda i: (-scores[i], keys[i]))[:2]
    return best, second, float(scores[best] - scores[second])


def nearest_two(table, seed: int = 0, tie_break: str = "random",
                start: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """top_two of each row of a probes x positions float array, over the row's
    candidates (not -inf, one at least), as arrays best, second (ints) and margin.

    Row k is probe start + k. tie_break "random" breaks its exact ties as
    top_two does, with question_rng(seed, start + k): the draw orders only
    the candidates scoring at least the row's second-best score, and is made
    only when a tie touches the best two. "first" prefers the lower
    position, as argmax does.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    if not len(table):
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    best = table.argmax(axis=1)
    rest = np.where(np.arange(table.shape[1]) == best[:, None], -np.inf, table)
    s1, s2 = table.max(axis=1), rest.max(axis=1)
    lone = s2 == -np.inf  # a lone candidate is its own runner-up, at margin 0
    second, margin = np.where(lone, best, rest.argmax(axis=1)), np.where(lone, 0.0, s1 - s2)
    if tie_break == "random":
        tied = ~lone & ((margin == 0) | (np.count_nonzero(table >= s2[:, None], axis=1) > 2))
        for k in np.flatnonzero(tied).tolist():
            # top_two reads only the candidates scoring at least the second-best.
            top = np.flatnonzero(table[k] >= s2[k])
            b, s, margin[k] = top_two(table[k, top], question_rng(seed, start + k))
            best[k], second[k] = top[b], top[s]
    return best, second, margin


def guess_count(margin, threshold):
    """The margin rule at threshold t, for one margin or an array: 0 (skip)
    when t > margin, 2 (best and second) when t < -margin, otherwise 1."""
    return (threshold <= margin) * (1 + (threshold < -margin))
