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

nearest_two_others scores each row against all the other rows (the LOOCV
table) BLOCK rows at a time. One matrix product of unit rows screens a
block, and an exact cosine is taken only near each row's best two, so
every cosine that decides a result is still bit-equal to vectors.cosine.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

TIE_BREAKS = ("random", "first")
BLOCK = 64  # probes scored at once: a blocked table holds this many cosines per candidate


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
    return _cosines(a, b, np.sqrt(np.vecdot(a, a)), np.sqrt(np.vecdot(b, b)))


def _cosines(a, b, na, nb) -> np.ndarray:
    """cosines of a and b, given their norms na and nb."""
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
    top = np.flatnonzero(scores >= np.partition(scores, n - 2)[n - 2])
    m, s = len(top), scores[top]
    order = range(m)
    if rng is not None and len(set(s.tolist())) < m:
        order = rng.sample(order, m)
    # By descending score, then by the drawn (or position) order.
    best, second = top[np.lexsort((order, -s))[:2]].tolist()
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
    _check_tie_break(tie_break)
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
            best[k], second[k], margin[k] = top_two(table[k], question_rng(seed, start + k))
    return best, second, margin


def nearest_two_others(rows, seed: int = 0,
                       tie_break: str = "random") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """nearest_two of each row's cosines to all the other rows (leave one
    out), row k as probe k: the arrays are those of nearest_two over the
    whole rows x rows cosines table with its diagonal set to -inf.

    The table is built BLOCK rows at a time. One matrix product of unit
    rows screens a block: it keeps each column whose cosine can come first
    or second in any of the block's rows. The block's cosines to those
    columns are then taken exactly as cosines takes them, and only these
    reach nearest_two, so every result is bit-equal to the full table's.
    Memory stays linear in the number of rows.
    """
    _check_tie_break(tie_break)
    if len(rows) < 2:
        raise ValueError("need at least two rows")
    lengths = list(map(len, rows))
    d = lengths[0]
    if lengths.count(d) < len(lengths):
        k = next(k for k, m in enumerate(lengths) if m != d)
        raise ValueError(f"row {k} has {lengths[k]} values, row 0 has {d}")
    rows = np.asarray(rows, dtype=float)
    n = len(rows)
    norm = np.sqrt(np.vecdot(rows, rows))
    # The unit rows as columns, d x n, which the screening product reads
    # fastest; zero rows stay zero.
    unit = np.divide(rows.T, np.where(norm == 0.0, np.inf, norm), order="C")
    # How far the screening product may lie below the exact cosines.
    # With u = eps / 2, c a true cosine and no square that overflows or
    # underflows (log counts have neither), both computations are within
    # b = (2d + 4)u of c, in any order of summation:
    # - exact: a dot product of d terms is within d*u*sum|a_k*b_k| of the
    #   truth, and so within d*u*|a|*|b| by Cauchy-Schwarz. Each norm is
    #   within (d/2 + 1)u, and their product and the division add u each.
    # - screen: each unit element carries its norm's (d/2 + 1)u and its
    #   own division's u, which the product sums to at most (d + 4)u by
    #   Cauchy-Schwarz, and the product's own sum adds d*u.
    # So a row's screened second-best s2 is at most 2b above the exact
    # second-best e2, and a position scoring at least e2 exactly screens
    # at least e2 - 2b >= s2 - 4b. delta = 4(d + 8)eps = (8d + 64)u exceeds
    # 4b = (8d + 16)u, and the 48u over cover the terms in u squared.
    delta = 4 * (d + 8) * np.finfo(float).eps
    blocks = []
    for lo in range(0, n, BLOCK):
        approx = unit[:, lo:lo + BLOCK].T @ unit
        np.fill_diagonal(approx[:, lo:], -np.inf)
        # Each row's screened second-best: set its best aside, then put it back.
        k = np.arange(len(approx))
        top = approx.argmax(axis=1)
        kept, approx[k, top] = approx[k, top], -np.inf
        floor = approx.max(axis=1) - delta
        approx[k, top] = kept
        cols = np.flatnonzero((approx >= floor[:, None]).any(axis=0))
        del approx  # each table is built with no other table of the call alive
        table = _cosines(rows[lo:lo + BLOCK, None], rows[cols], norm[lo:lo + BLOCK, None],
                         norm[cols])
        # A column that another row of the block screened in stays in this
        # row: its exact cosine is below this row's second-best, so it
        # moves no result. A probe's own column is masked in its own row.
        own = (lo <= cols) & (cols < lo + BLOCK)
        table[cols[own] - lo, own] = -np.inf
        best, second, margin = nearest_two(table, seed, tie_break, start=lo)
        blocks.append((cols[best], cols[second], margin))
        del table
    return tuple(map(np.concatenate, zip(*blocks)))


def _check_tie_break(tie_break: str) -> None:
    """Raise ValueError unless tie_break is one of TIE_BREAKS."""
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")


def guess_count(margin, threshold):
    """The margin rule at threshold t, for one margin or an array: 0 (skip) unless
    t <= margin (never at a NaN), then 2 (best and second) when t < -margin, else 1."""
    return (threshold <= margin) * (1 + (threshold < -margin))
