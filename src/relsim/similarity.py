"""The similarity core shared by the analogy solver and the noun-modifier
classifier.

A command scores its probes as one probes x positions table of cosines,
-inf where a position is not a probe's candidate. nearest_two takes each
row's best and second-best candidate and their margin; guess_count applies
a threshold afterwards, to an array of margins at once, so a sweep scores
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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TIE_BREAKS = ("random", "first")


def question_rng(seed: int, ordinal: int) -> random.Random:
    """Per-probe generator; depends only on the global seed and ordinal."""
    return random.Random(seed ^ ordinal)


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


def nearest_two(table, seed: int = 0, tie_break: str = "random",
                start: int = 0) -> list[TopTwo]:
    """top_two of each row of a probes x positions float array, over the
    row's candidates (its positions that are not -inf, one at least).

    Row k is probe start + k. tie_break "random" breaks its exact ties with
    question_rng(seed, start + k), drawn only when a tie touches the best
    two; "first" prefers the lower position, as argmax does.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    if not len(table):
        return []
    best = table.argmax(axis=1)
    rest = np.where(np.arange(table.shape[1]) == best[:, None], -np.inf, table)
    s1, s2 = table.max(axis=1), rest.max(axis=1)
    lone = s2 == -np.inf  # a lone candidate is its own runner-up, at margin 0
    second, s2 = np.where(lone, best, rest.argmax(axis=1)), np.where(lone, s1, s2)
    tops = [TopTwo(*top) for top in zip(best.tolist(), second.tolist(), (s1 - s2).tolist())]
    if tie_break == "random":
        tied = ~lone & ((s1 == s2) | (np.count_nonzero(table >= s2[:, None], axis=1) > 2))
        for k in np.flatnonzero(tied).tolist():
            candidates = np.flatnonzero(table[k] > -np.inf)
            top = top_two(table[k, candidates], question_rng(seed, start + k))
            tops[k] = TopTwo(int(candidates[top.best]), int(candidates[top.second]), top.margin)
    return tops


def guess_count(margin, threshold):
    """The margin rule at threshold t, for one margin or an array: 0 (skip)
    when t > margin, 2 (best and second) when t < -margin, otherwise 1."""
    return (threshold <= margin) * (1 + (threshold < -margin))


def margin_rule(first, second, margin: float, threshold: float) -> tuple:
    """The guess set of guess_count: (), (first,) or (first, second)."""
    return (first, second)[:guess_count(margin, threshold)]
