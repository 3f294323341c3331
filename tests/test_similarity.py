import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relsim.analogy import AnalogyQuestion, evaluate, outcomes_at, score_questions, solve_all
from relsim.nounmod import ALL_ABBREVIATIONS, loocv, loocv_scores, macroaverage
from relsim.similarity import (BLOCK, TIE_BREAKS, cosines, guess_count, nearest_two,
                               question_rng, top_two)
from relsim.sweep import (NOUNMOD_GRID, SAT_GRID, SweepRow, grid_thresholds,
                          nounmod_sweep, rows_to_csv, sat_sweep)
from relsim.vectors import RelationVector, WordPair, cosine

from oracles import oracle_cosine, oracle_loocv_confusion, oracle_margin_rule, oracle_ranked


def vec(raw):
    return RelationVector.from_raw(WordPair("a", "b"), raw)


def loocv_confusions(vectors, labels, grid, seed=0, tie_break="first"):
    """The 30-class LOOCV confusion at each threshold of the grid."""
    return [loocv(vectors, labels, t, 30, seed, tie_break).confusion for t in grid]


@st.composite
def tie_heavy_rows(draw, min_rows=2):
    """Small integer vectors drawn from a few base rows, so that rows
    repeat; at least one row is all zeros and one base row is repeated."""
    dim = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 9), min_size=dim, max_size=dim)
    base = draw(st.lists(row, min_size=1, max_size=6)) + [[0] * dim]
    picks = draw(st.lists(st.integers(0, len(base) - 1),
                          min_size=max(1, min_rows - 2), max_size=12))
    return [base[i] for i in picks] + [base[picks[0]], [0] * dim]


class TestTopTwo:
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=12),
           st.integers(0, 50), st.booleans())
    def test_matches_full_ranking(self, values, seed, use_rng):
        scores = [v / 4 for v in values]
        rng = (lambda: random.Random(seed)) if use_rng else (lambda: None)
        order = oracle_ranked(scores, rng())
        best, second, margin = top_two(scores, rng())
        assert (best, second) == (order[0], order[1])
        assert margin == scores[order[0]] - scores[order[1]]

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12), st.integers(0, 50))
    def test_draws_rng_only_for_a_tie_in_the_top_two(self, values, seed):
        """A passed rng is left as it was unless a tie touches the best
        two scores; then it is advanced by one sample(range(m), m), where m
        counts the scores at least the second-best."""
        scores = [v / 4 for v in values]
        n = len(scores)
        rng, expected = random.Random(seed), random.Random(seed)
        top_two(scores, rng)
        ranked = sorted(scores, reverse=True) + [None]
        if n > 1 and ranked[1] in (ranked[0], ranked[2]):
            m = sum(s >= ranked[1] for s in scores)
            expected.sample(range(m), m)
        assert rng.getstate() == expected.getstate()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", ["all-tied", "mostly-tied", "top-tied"])
    def test_long_tied_rows_match_full_ranking(self, shape, seed):
        """Rows of 599 scores, as one LOOCV probe scores the other labelled
        pairs: all equal (an all-zero probe), all but a few equal, or a
        tied top group above many distinct scores."""
        rnd = random.Random(seed)
        scores = [0.0] * 599
        if shape == "mostly-tied":
            for j in rnd.sample(range(599), 8):
                scores[j] = rnd.choice([-0.5, 0.25, 0.75])
        elif shape == "top-tied":
            scores = [rnd.random() / 2 for _ in range(599)]
            for j in rnd.sample(range(599), rnd.randrange(2, 40)):
                scores[j] = 0.75
        for rng in (lambda: random.Random(seed), lambda: None):
            order = oracle_ranked(scores, rng())
            assert top_two(scores, rng()) == (order[0], order[1],
                                              scores[order[0]] - scores[order[1]])

    def test_single_score_is_its_own_runner_up(self):
        assert top_two([0.3]) == top_two([0.3], random.Random(1)) == (0, 0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top_two([])


class TestTieDraw:
    """The random tie rule draws over the positions scoring at least the
    second-best score, with a generator seeded by (seed, ordinal) alone."""

    @given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5]), min_size=2, max_size=8),
           st.sampled_from(["add", "remove", "rescore"]), st.integers(0, 8),
           st.sampled_from([0.05, 0.3, 1.0]), st.integers(0, 200), st.integers(0, 100))
    @example(scores=[0.5, 0.5, 0.1], change="add", at=3, drop=0.5, seed=0, ordinal=0)
    def test_candidates_below_the_second_best_do_not_move_the_top_two(
            self, scores, change, at, drop, seed, ordinal):
        """Adding, removing or re-scoring a candidate that scores below the
        second-best leaves the best, the second and the margin as they were."""
        def top(row):
            best, second, margin = nearest_two(np.array([row]), seed, "random", start=ordinal)
            return best[0], second[0], margin[0]

        best, second, margin = top(scores)
        below = [j for j, s in enumerate(scores) if s < scores[second]]
        assume(change == "add" or below)
        ids, changed = list(range(len(scores))), list(scores)
        if change == "add":
            ids.insert(at % (len(scores) + 1), len(scores))
            changed.insert(at % (len(scores) + 1), scores[second] - drop)
        elif change == "remove":
            del ids[below[at % len(below)]], changed[below[at % len(below)]]
        else:
            changed[below[at % len(below)]] = scores[second] - drop
        new_best, new_second, new_margin = top(changed)
        assert (ids[new_best], ids[new_second], new_margin) == (best, second, margin)

    def test_question_rng_streams_differ_per_seed_and_ordinal(self):
        def stream(seed, ordinal):
            rng = question_rng(seed, ordinal)
            return tuple(rng.random() for _ in range(3))

        grid = [(seed, ordinal) for seed in range(-2, 6) for ordinal in range(8)]
        streams = [stream(*p) for p in grid]
        assert len(set(streams)) == len(grid)
        assert stream(1, 0) != stream(0, 1)
        assert streams == [stream(*p) for p in grid]


class TestPairMatrix:
    """similarity.cosines over the rows of a pair x pattern matrix."""

    def test_identical_vectors_tie_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            stem = vec(list(rng.integers(0, 200, 128)))
            other = vec(list(rng.integers(0, 200, 128)))
            choices = [other, stem, vec(list(stem.raw)), other, vec(list(other.raw))]
            scores = cosines(stem.r, [v.r for v in choices])
            assert scores[1] == scores[2]
            assert scores[0] == scores[3] == scores[4]

    def test_matches_scalar_cosine(self):
        rng = np.random.default_rng(4)
        vectors = [vec(list(rng.integers(0, 30, 16))) for _ in range(12)] + [vec([0] * 16)]
        rows = np.array([v.r for v in vectors])
        table = cosines(rows[:, None], rows)
        for i, v in enumerate(vectors):
            assert table[i].tolist() == cosines(v.r, rows).tolist() \
                == [cosine(v, w) for w in vectors]

    @settings(deadline=None)
    @given(st.data())
    def test_cosine_depends_on_its_two_rows_alone(self, data):
        dim = data.draw(st.one_of(st.integers(1, 8), st.just(128)))
        row = st.lists(st.integers(0, 10**6), min_size=dim, max_size=dim)
        raw = data.draw(st.lists(row, min_size=2, max_size=8))
        i, j = data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=2,
                                  max_size=2, unique=True))
        rows = np.array([vec(r).r for r in raw])
        table = cosines(rows[:, None], rows)
        got = table[i, j]
        assert got == cosines(rows[i], rows[j]) == cosine(rows[i], rows[j])
        assert got == cosines(rows[[i, j], None], rows[[i, j]])[0, 1]
        extra = [vec(r).r for r in data.draw(st.lists(row, max_size=8))]
        order = data.draw(st.permutations(range(len(rows) + len(extra))))
        superset = np.array([*rows, *extra])[order]
        pi, pj = order.index(i), order.index(j)
        assert got == cosines(superset[:, None], superset)[pi, pj]
        assert got == cosines(superset[pi], superset)[pj]
        assert got == table[j, i]

    def test_zero_norm_gives_zero(self):
        scores = cosines(vec([0, 0, 0]).r, [vec([1, 2, 3]).r, vec([0, 0, 0]).r])
        assert scores.tolist() == [0.0, 0.0]


class TestNearestTwo:
    @settings(deadline=None)
    @given(st.data(), st.integers(0, 50), st.integers(0, 100),
           st.sampled_from(["random", "first"]))
    def test_each_row_matches_full_ranking_of_its_candidates(self, data, seed, start,
                                                             tie_break):
        """Rows hold -inf cells (not candidates) and repeated scores; one
        row is a lone candidate and one an all-tie row."""
        width = data.draw(st.integers(1, 8))
        cell = st.one_of(st.just(-np.inf), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        row = st.lists(cell, min_size=width, max_size=width).filter(
            lambda r: max(r) > -np.inf)
        rows = data.draw(st.lists(row, max_size=6))
        rows += [[-np.inf] * (width - 1) + [0.5], [0.25] * width]
        rows = data.draw(st.permutations(rows))
        best, second, margin = nearest_two(np.array(rows), seed, tie_break, start=start)
        assert best.shape == second.shape == margin.shape == (len(rows),)
        assert (best.dtype.kind, second.dtype.kind, margin.dtype.kind) == ("i", "i", "f")
        for k, r in enumerate(rows):
            candidates = [j for j, s in enumerate(r) if s > -np.inf]
            scores = [r[j] for j in candidates]
            rng = question_rng(seed, start + k) if tie_break == "random" else None
            order = oracle_ranked(scores, rng) * 2  # a lone candidate is its own runner-up
            assert (best[k], second[k]) == (candidates[order[0]], candidates[order[1]])
            assert margin[k] == scores[order[0]] - scores[order[1]]

    @pytest.mark.parametrize("table", [[], np.zeros((0, 0)), np.full((0, 5), -np.inf)])
    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_empty_table_gives_three_empty_arrays(self, table, tie_break):
        best, second, margin = nearest_two(table, tie_break=tie_break)
        assert best.shape == second.shape == margin.shape == (0,)
        assert (best.dtype.kind, second.dtype.kind, margin.dtype.kind) == ("i", "i", "f")


def test_margin_rule_branches():
    """guess_count at t = 0, at t = +-margin (the best alone) and past it."""
    for m, t, expected in ((0.05, 0.0, 1), (0.05, 0.05, 1), (0.05, -0.05, 1), (0.05, 0.06, 0),
                           (0.05, -0.06, 2), (0.0, 0.0, 1)):
        assert guess_count(m, t) == expected
        assert ("a", "b")[:expected] == oracle_margin_rule("a", "b", m, t)


@given(st.data())
def test_guess_count_of_an_array_is_elementwise(data):
    margins = data.draw(st.lists(st.sampled_from([0.0, 0.01, 0.05]) | st.floats(0, 1),
                                 min_size=1, max_size=20))
    threshold = data.draw(st.sampled_from([0.0, *margins, *(-m for m in margins)])
                          | st.floats(-1, 1))
    counts = guess_count(np.array(margins), threshold)
    assert counts.shape == (len(margins),)
    for m, count in zip(margins, counts.tolist()):
        assert type(guess_count(m, threshold)) is int
        assert count == guess_count(m, threshold) == len(oracle_margin_rule("a", "b", m, threshold))


class TestLoocvOracle:
    @settings(deadline=None)
    @given(st.data())
    def test_confusion_matches_oracle_at_grid_thresholds(self, data):
        rows = data.draw(tie_heavy_rows())
        labels = data.draw(st.lists(st.sampled_from(["ag", "cs", "meas"]),
                                    min_size=len(rows), max_size=len(rows)))
        grid = grid_thresholds(*NOUNMOD_GRID)
        vectors = [vec(r) for r in rows]
        for t, confusion in zip(grid, loocv_confusions(vectors, labels, grid)):
            assert confusion == oracle_loocv_confusion([list(v.r) for v in vectors], labels, t)


# The ...636 is the rounding of a dot product summed with fused multiply-adds,
# as OpenBLAS's x86-64 ddot kernels do; a BLAS that rounds every product would
# match the oracle here, and this test would then pass unexpectedly.
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the probe [1, 2] gets cosine ...636 to the rows [1, 1] "
    "and ...634 to the parallel row [2, 2], where the oracle gives ...634 to "
    "all three, so the runner-up differs"))
def test_loocv_counterexample_with_parallel_rows():
    rows = [[1, 1], [1, 2], [2, 2], [1, 1], [0, 0]]
    labels = ["ag", "ag", "ag", "cs", "ag"]
    vectors = [vec(r) for r in rows]
    grid = grid_thresholds(*NOUNMOD_GRID)
    for t, confusion in zip(grid, loocv_confusions(vectors, labels, grid)):
        assert confusion == oracle_loocv_confusion([list(v.r) for v in vectors], labels, t)


# The opposite direction: here the program ties what the oracle splits. The
# same caveat holds: the cosines depend on how the dot products are rounded,
# and a machine that rounds them as the oracle does would pass this test.
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the probe [1, 3] gets cosine ...514 to the parallel rows "
    "[2, 2], [1, 1] and [2, 2], where the oracle gives ...5139 to [1, 1], so "
    "the runner-up differs"))
def test_loocv_counterexample_with_tied_parallel_rows():
    rows = [[2, 2], [1, 3], [0, 0], [0, 0], [1, 1], [2, 2], [0, 0]]
    labels = ["ag", "ag", "ag", "ag", "ag", "cs", "ag"]
    vectors = [vec(r) for r in rows]
    grid = grid_thresholds(*NOUNMOD_GRID)
    for t, confusion in zip(grid, loocv_confusions(vectors, labels, grid)):
        assert confusion == oracle_loocv_confusion([list(v.r) for v in vectors], labels, t)


# Identical rows split against a parallel one: the program ranks the parallel
# row first, the oracle the identical ones. The same caveat holds.
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the probe [5, 8] gets cosine ...382 to the identical rows "
    "[8, 8] and ...383 to the parallel row [4, 4], where the oracle gives ...384 "
    "and ...383, so the best neighbour differs"))
def test_loocv_counterexample_with_identical_and_parallel_rows():
    rows = [[8, 8], [4, 4], [5, 8], [8, 8], [0, 0]]
    labels = ["ag", "ag", "ag", "cs", "ag"]
    vectors = [vec(r) for r in rows]
    grid = grid_thresholds(*NOUNMOD_GRID)
    for t, confusion in zip(grid, loocv_confusions(vectors, labels, grid)):
        assert confusion == oracle_loocv_confusion([list(v.r) for v in vectors], labels, t)


def reference_solve(questions, vectors, threshold, seed, tie_break):
    """The question-by-question loop: pure-Python cosines, full ranking."""
    outcomes = []
    for ordinal, q in enumerate(questions):
        stem = vectors[q.stem.key()]
        if stem.is_zero():
            outcomes.append(())
            continue
        scores = [oracle_cosine(list(stem.r), list(vectors[c.key()].r)) for c in q.choices]
        rng = question_rng(seed, ordinal) if tie_break == "random" else None
        best, second = oracle_ranked(scores, rng)[:2]
        outcomes.append(oracle_margin_rule(best, second, scores[best] - scores[second], threshold))
    return outcomes


class TestSolveOracle:
    @settings(deadline=None)
    @given(st.data(), st.integers(0, 5), st.sampled_from(["random", "first"]))
    def test_guesses_match_reference_loop(self, data, seed, tie_break):
        rows = data.draw(tie_heavy_rows(min_rows=6))
        n_questions = data.draw(st.integers(1, 4))
        questions, vectors = [], {}
        for k in range(n_questions):
            picks = data.draw(st.lists(st.sampled_from(rows), min_size=6, max_size=6))
            stem = WordPair(f"s{k}", f"t{k}")
            choices = tuple(WordPair(f"c{k}_{j}", f"d{k}_{j}") for j in range(5))
            questions.append(AnalogyQuestion(stem, choices, 0))
            for pair, raw in zip((stem, *choices), picks):
                vectors[pair.key()] = vec(raw)
        for t in grid_thresholds(*SAT_GRID):
            got = [o.guesses for o in solve_all(questions, vectors, t, seed, tie_break)]
            assert got == reference_solve(questions, vectors, t, seed, tie_break)


def loop_top_two(probe, candidates, rng):
    """top_two over vectors.cosine of one probe with each candidate."""
    return top_two([cosine(probe, c) for c in candidates], rng)


class TestScoreTables:
    """The score tables against a per-probe loop of top_two over
    vectors.cosine rows, under the random tie rule."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_questions_with_2_5_and_7_choices(self, seed):
        rng = np.random.default_rng(seed)
        questions, vectors = [], {}
        for k in range(60):
            stem = WordPair(f"s{k}", f"t{k}")
            choices = tuple(WordPair(f"c{k}_{j}", f"d{k}_{j}") for j in range((2, 5, 7)[k % 3]))
            questions.append(AnalogyQuestion(stem, choices, k % 2))
            for pair in (stem, *choices):  # a few small rows, so scores tie often
                vectors[pair.key()] = vec(rng.integers(0, 2, 3))
        grid = grid_thresholds(*SAT_GRID)
        expected = {t: [] for t in grid}
        for k, q in enumerate(questions):
            stem = vectors[q.stem.key()]
            best, second, margin = loop_top_two(stem, [vectors[c.key()] for c in q.choices],
                                                question_rng(seed, k))
            for t in grid:
                expected[t].append(() if stem.is_zero() else
                                   oracle_margin_rule(best, second, margin, t))
        rows = sat_sweep(questions, vectors, grid, seed)
        for t, row in zip(grid, rows):
            got = [o.guesses for o in solve_all(questions, vectors, t, seed)]
            assert got == expected[t]
            assert (row.guesses, row.skipped, row.doubles) == (
                sum(map(len, got)), got.count(()), sum(len(g) == 2 for g in got))
            assert row.recall == sum(q.answer in g for q, g in zip(questions, got)) / 60
        assert solve_all([], {}, 0.0, seed) == [] and sat_sweep([], {}, grid, seed)[0].guesses == 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_loocv_over_several_blocks(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 * BLOCK + 20
        raw = rng.integers(0, 3, (n, 3))
        for edge in (BLOCK, 2 * BLOCK):  # the same row on both sides of an edge
            raw[edge] = raw[edge - 1]
        vectors = [vec(r) for r in raw]
        labels = [["ag", "cs", "meas"][i] for i in rng.integers(0, 3, n)]
        grid = grid_thresholds(*NOUNMOD_GRID)
        expected = {t: {} for t in grid}
        for i, v in enumerate(vectors):
            others = [j for j in range(n) if j != i]
            best, second, margin = loop_top_two(v, [vectors[j] for j in others],
                                                question_rng(seed, i))
            first, second = labels[others[best]], labels[others[second]]
            for t in grid:
                guesses = (first,) if first == second else \
                    oracle_margin_rule(first, second, margin, t)
                for g in guesses or (None,):
                    key = (labels[i], g)
                    expected[t][key] = expected[t].get(key, 0) + 1
        assert loocv_confusions(vectors, labels, grid, seed, "random") == [expected[t] for t in grid]


@st.composite
def edge_thresholds(draw, margins):
    """Thresholds in any order, with repeats: at and next to each +-margin,
    where guess_count steps, on the paper's grids, and NaN and +-inf."""
    edges = [0.0, np.nan, np.inf, -np.inf, *grid_thresholds(*SAT_GRID)]
    for m in np.asarray(margins).tolist():
        for t in (m, -m):
            edges += [t, float(np.nextafter(t, np.inf)), float(np.nextafter(t, -np.inf))]
    return draw(st.lists(st.sampled_from(edges), min_size=1, max_size=24))


def sweep_csv(rows):
    """The CSV of SweepRows: a float column compares by its repr, so bit for bit."""
    return rows_to_csv([SweepRow(*row) for row in rows])


class TestSweepRows:
    """Each sweep row against the per-threshold reports it stands for."""

    @settings(deadline=None)
    @given(st.data(), st.integers(0, 5), st.sampled_from(TIE_BREAKS))
    def test_sat_rows_match_evaluate_at_each_threshold(self, data, seed, tie_break):
        rows = data.draw(tie_heavy_rows(min_rows=7))
        questions, vectors = [], {}
        for k in range(data.draw(st.integers(1, 6))):
            n = data.draw(st.integers(2, 6))
            picks = data.draw(st.lists(st.sampled_from(rows), min_size=n + 1, max_size=n + 1))
            stem = WordPair(f"s{k}", f"t{k}")
            choices = tuple(WordPair(f"c{k}_{j}", f"d{k}_{j}") for j in range(n))
            questions.append(AnalogyQuestion(stem, choices, data.draw(st.integers(0, n - 1))))
            for pair, raw in zip((stem, *choices), picks):
                vectors[pair.key()] = vec(raw)
        scores = score_questions(questions, vectors, seed, tie_break)
        thresholds = data.draw(edge_thresholds(scores[2]))
        expected = []
        for t in thresholds:
            r = evaluate(questions, outcomes_at(scores, t))
            expected.append((t, r.precision, r.recall, r.f, r.guesses_made, r.skipped, r.doubles))
        assert rows_to_csv(sat_sweep(questions, vectors, thresholds, seed, tie_break)) \
            == sweep_csv(expected)

    @settings(deadline=None)
    @given(st.data(), st.integers(0, 5), st.sampled_from(TIE_BREAKS), st.sampled_from([30, 5]))
    def test_nounmod_rows_match_loocv_at_each_threshold(self, data, seed, tie_break,
                                                        granularity):
        rows = data.draw(tie_heavy_rows())
        labels = data.draw(st.lists(st.sampled_from(["ag", "cs", "meas", "tat"]),
                                    min_size=len(rows), max_size=len(rows)))
        vectors = [vec(r) for r in rows]
        margins = loocv_scores(vectors, labels, granularity, seed, tie_break)[-1]
        thresholds = data.draw(edge_thresholds(margins))
        expected = []
        for t in thresholds:
            r = loocv(vectors, labels, t, granularity, seed, tie_break)
            expected.append((t, *macroaverage(r.per_class), r.guesses_made, r.abstained,
                             r.doubles))
        assert rows_to_csv(nounmod_sweep(vectors, labels, thresholds, granularity, seed,
                                         tie_break)) == sweep_csv(expected)

    def test_a_long_grid_equals_its_parts(self):
        """The rows do not depend on where the grid is cut into the chunks
        it is counted in."""
        rng = np.random.default_rng(5)
        vectors = [vec(r) for r in rng.integers(0, 4, (40, 6))]
        labels = [ALL_ABBREVIATIONS[i] for i in rng.integers(0, 5, 40)]
        questions = [AnalogyQuestion(WordPair(f"s{k}", f"t{k}"),
                                     tuple(WordPair(f"c{k}_{j}", f"d{k}_{j}") for j in range(5)),
                                     k % 5) for k in range(8)]
        by_key = {p.key(): vectors[(5 * k + j) % 40]
                  for k, q in enumerate(questions) for j, p in enumerate(q.pairs())}
        grid = grid_thresholds(-0.5, 0.5, 0.0004)
        for cut in (1, 1234, len(grid) - 1):
            for sweep, args in ((sat_sweep, (questions, by_key)), (nounmod_sweep, (vectors, labels))):
                assert rows_to_csv(sweep(*args, grid)) == \
                    rows_to_csv(sweep(*args, grid[:cut]) + sweep(*args, grid[cut:]))

    def test_nounmod_sweep_memory_per_grid_point(self):
        """A sweep holds its rows and a bounded chunk of counts, not a
        LoocvResult per threshold (about 35 KB each at 30 classes)."""
        rng = np.random.default_rng(6)
        vectors = [vec(r) for r in rng.integers(0, 50, (200, 128))]
        labels = [ALL_ABBREVIATIONS[i] for i in rng.integers(0, 30, 200)]
        grid = grid_thresholds(-0.1, 0.1, 0.0001)
        tracemalloc.start()
        try:
            rows = nounmod_sweep(vectors, labels, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == len(grid) == 2001
        assert peak / len(grid) < 4096


class TestTieBreakValidation:
    def setup_method(self):
        self.q = AnalogyQuestion(WordPair("s", "t"),
                                 (WordPair("a", "b"), WordPair("c", "d")), 0)
        self.vectors = {p.key(): vec([1, 2, i]) for i, p in enumerate(self.q.pairs())}

    def test_solve_all_and_sat_sweep(self):
        with pytest.raises(ValueError, match="tie_break"):
            solve_all([self.q], self.vectors, 0.0, tie_break="frist")
        with pytest.raises(ValueError, match="tie_break"):
            sat_sweep([self.q], self.vectors, [0.0], tie_break="Random")

    def test_loocv_and_nounmod_sweep(self):
        vectors = [vec([1, 0]), vec([0, 1]), vec([1, 1])]
        with pytest.raises(ValueError, match="tie_break"):
            loocv(vectors, ["ag", "cs", "ag"], tie_break="lowest")
        with pytest.raises(ValueError, match="tie_break"):
            loocv(vectors[:2], ["ag", "cs"], tie_break="lowest")
        with pytest.raises(ValueError, match="tie_break"):
            nounmod_sweep(vectors, ["ag", "cs", "ag"], [0.0], tie_break="")

    def test_checked_before_any_probe(self):
        with pytest.raises(ValueError, match="tie_break"):
            nearest_two([], tie_break="none")
