import dataclasses
import json
import math
import random

import numpy as np
import pytest

from relsim.analogy import (AnalogyQuestion, GuessOutcome, cumulative_top_k,
                            decide, evaluate, f_measure, load_questions,
                            rank_pool, raw_sat_score, solve_all)
from relsim.errors import DataFormatError
from relsim.similarity import question_rng, top_two
from relsim.sweep import NOUNMOD_GRID, SAT_GRID, grid_thresholds, sat_sweep
from relsim.vectors import RelationVector, WordPair

from oracles import oracle_cosine

# Cosines from the worked traffic:street example; the answer is choice (e).
EXAMPLE_COSINES = [0.31874, 0.57234, 0.68757, 0.49725, 0.69265]


def vec(raw):
    return RelationVector.from_raw(WordPair("a", "b"), raw)


def solve_one(stem_raw, choice_raws, threshold=0.0, seed=0, tie_break="first"):
    """solve_all's outcome for one question with these raw vectors."""
    stem = WordPair("s", "t")
    choices = tuple(WordPair(f"c{j}", f"d{j}") for j in range(len(choice_raws)))
    vectors = {p.key(): vec(raw) for p, raw in zip((stem, *choices), (stem_raw, *choice_raws))}
    question = AnalogyQuestion(stem, choices, 0)
    return solve_all([question], vectors, threshold, seed, tie_break)[0]


class TestScoreChoices:
    """How solve_all scores a question's choices against its stem."""

    def test_zero_stem_gives_zero_cosines(self):
        out = solve_one([0, 0, 0], [[1, 2, 3], [4, 5, 6]], threshold=-1.0)
        assert out.guesses == () and out.skipped_zero_stem and out.margin == 0.0
        # a zero choice scores 0, as does one orthogonal to the stem: an exact tie
        out = solve_one([1, 0, 0], [[0, 0, 0], [0, 3, 4]])
        assert out.guesses == (0,) and out.margin == 0.0
        picks = set()
        for s in range(20):
            out = solve_one([1, 0, 0], [[0, 0, 0], [0, 3, 4]], seed=s, tie_break="random")
            assert out.guesses == top_two([0.0, 0.0], question_rng(s, 0))[:1]
            picks.add(out.guesses)
        assert picks == {(0,), (1,)}

    def test_identical_choice_scores_one(self):
        out = solve_one([1, 2, 3], [[9, 9, 9], [1, 2, 3]])
        assert out.guesses == (1,)
        other = oracle_cosine(list(vec([1, 2, 3]).r), list(vec([9, 9, 9]).r))
        assert out.margin == pytest.approx(1.0 - other)

    def test_order_preserved(self):
        out = solve_one([1, 0], [[1, 0], [0, 1], [1, 1]], threshold=-1.0)
        assert out.guesses == (0, 2)  # best, then the runner-up
        assert out.margin == pytest.approx(1.0 - 1 / math.sqrt(2))


class TestDecide:
    def test_single_guess_at_zero_threshold(self):
        out = decide(EXAMPLE_COSINES, 0.0)
        assert out.guesses == (4,)  # choice (e)
        assert out.margin == pytest.approx(0.00508, abs=1e-9)

    def test_positive_threshold_skips(self):
        assert decide(EXAMPLE_COSINES, 0.01).guesses == ()

    def test_negative_threshold_doubles(self):
        out = decide(EXAMPLE_COSINES, -0.01)
        assert out.guesses == (4, 2)  # (e) then (c)

    def test_threshold_equal_to_margin_guesses(self):
        out = decide(EXAMPLE_COSINES, 0.00508 - 1e-12)
        assert len(out.guesses) == 1

    def test_zero_stem_always_skips(self):
        out = decide(EXAMPLE_COSINES, -0.5, stem_is_zero=True)
        assert out.guesses == () and out.skipped_zero_stem

    def test_tie_broken_by_seed(self):
        picks = {decide([0.5, 0.5], 0.0, rng=random.Random(s)).guesses[0]
                 for s in range(20)}
        assert picks == {0, 1}

    def test_tie_margin_is_zero_single_guess(self):
        out = decide([0.5, 0.5], 0.0, rng=random.Random(0))
        assert len(out.guesses) == 1 and out.margin == 0.0

    def test_deterministic_given_seed(self):
        a = decide([0.3, 0.3, 0.1], 0.0, rng=random.Random(5))
        b = decide([0.3, 0.3, 0.1], 0.0, rng=random.Random(5))
        assert a.guesses == b.guesses

    def test_seed_irrelevant_without_ties(self):
        for s in range(10):
            assert decide(EXAMPLE_COSINES, 0.0, rng=random.Random(s)).guesses == (4,)


class TestGuessNesting:
    def test_guess_sets_nest_in_threshold(self):
        rng = random.Random(11)
        for _ in range(200):
            cosines = [rng.random() for _ in range(5)]
            thresholds = sorted(rng.uniform(-0.2, 0.2) for _ in range(6))
            prev = None
            for t in reversed(thresholds):  # descending t, growing guess sets
                out = decide(cosines, t, rng=random.Random(1))
                if prev is not None:
                    assert set(prev).issubset(set(out.guesses))
                prev = out.guesses


class TestEvaluate:
    def test_paper_counts(self):
        # 176 correct out of 369 guesses over 374 questions
        qs, outs = [], []
        stem_p = WordPair("x", "y")
        choices = tuple(WordPair(f"c{i}", f"d{i}") for i in range(5))
        for i in range(374):
            qs.append(AnalogyQuestion(stem_p, choices, 0))
            if i < 176:
                outs.append(GuessOutcome((0,), 0.1))
            elif i < 369:
                outs.append(GuessOutcome((1,), 0.1))
            else:
                outs.append(GuessOutcome((), 0.0, skipped_zero_stem=True))
        report = evaluate(qs, outs)
        assert report.correct == 176 and report.guesses_made == 369
        assert report.precision == pytest.approx(0.477, abs=0.0005)
        assert report.recall == pytest.approx(0.471, abs=0.0005)
        assert report.f == pytest.approx(0.474, abs=0.0005)

    def test_all_skipped_is_zero(self):
        q = AnalogyQuestion(WordPair("x", "y"),
                            (WordPair("a", "b"), WordPair("c", "d")), 0)
        report = evaluate([q, q], [GuessOutcome((), 0.0)] * 2)
        assert report.precision == report.recall == report.f == 0.0

    def test_perfect(self):
        q = AnalogyQuestion(WordPair("x", "y"),
                            (WordPair("a", "b"), WordPair("c", "d")), 1)
        report = evaluate([q] * 3, [GuessOutcome((1,), 0.2)] * 3)
        assert report.precision == report.recall == report.f == 1.0

    def test_double_guess_counts_membership(self):
        q = AnalogyQuestion(WordPair("x", "y"),
                            (WordPair("a", "b"), WordPair("c", "d")), 1)
        report = evaluate([q], [GuessOutcome((0, 1), 0.01)])
        assert report.correct == 1 and report.guesses_made == 2
        assert report.precision == 0.5 and report.recall == 1.0

    def test_doubles_counts_two_guess_outcomes(self):
        q = AnalogyQuestion(WordPair("x", "y"),
                            (WordPair("a", "b"), WordPair("c", "d")), 1)
        outs = [GuessOutcome((), 0.0), GuessOutcome((0,), 0.1), GuessOutcome((0, 1), 0.01),
                GuessOutcome((1, 0), 0.01), GuessOutcome((), 0.0, skipped_zero_stem=True)]
        report = evaluate([q] * len(outs), outs)
        assert report.doubles == 2 and report.skipped == 2 and report.guesses_made == 5


class TestRankPool:
    def test_identity_ranks_first(self):
        stem_v = vec([1, 2, 3])
        pool = [vec([0, 0, 1]), vec([1, 2, 3])]
        assert rank_pool(stem_v, pool)[0] == 1

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            stem_v = vec(list(rng.integers(0, 50, 8)))
            pool = [vec(list(rng.integers(0, 50, 8))) for _ in range(20)]
            from relsim.vectors import cosine
            scores = [cosine(stem_v, v) for v in pool]
            expected = [i for _, i in sorted(((-s, i) for i, s in enumerate(scores)))]
            assert rank_pool(stem_v, pool) == expected

    def test_output_is_permutation_and_sorted(self):
        rng = np.random.default_rng(5)
        stem_v = vec(list(rng.integers(0, 9, 6)))
        pool = [vec(list(rng.integers(0, 9, 6))) for _ in range(15)]
        from relsim.vectors import cosine
        order = rank_pool(stem_v, pool)
        assert sorted(order) == list(range(15))
        ranked_scores = [cosine(stem_v, pool[i]) for i in order]
        assert all(a >= b for a, b in zip(ranked_scores, ranked_scores[1:]))


class TestCumulativeTopK:
    def test_hand_enumeration(self):
        rows = cumulative_top_k([1, 1, 3], 3)
        assert (rows[0].cumulative, rows[0].cumulative_pct) == (2, pytest.approx(2 / 3))
        assert (rows[2].cumulative, rows[2].cumulative_pct) == (3, pytest.approx(1.0))

    def test_non_decreasing(self):
        rng = random.Random(1)
        ranks = [rng.randint(1, 30) for _ in range(100)]
        rows = cumulative_top_k(ranks, 10)
        cum = [r.cumulative for r in rows]
        assert cum == sorted(cum)


class TestRawSatScore:
    def test_perfect(self):
        assert raw_sat_score(78, 0) == 78

    def test_empty(self):
        assert raw_sat_score(0, 0) == 0

    def test_random_guessing_expectation(self):
        assert raw_sat_score(20, 80) == 0

    def test_paper_run(self):
        assert raw_sat_score(176, 193) == 127.75


class TestQuestionFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "q.tsv"
        p.write_text("# comment\n"
                     "mason:stone\tteacher:chalk\tcarpenter:wood\tsoldier:gun\t"
                     "photograph:camera\tbook:word\tb\n")
        qs = load_questions(p)
        assert len(qs) == 1
        assert qs[0].stem == WordPair("mason", "stone")
        assert qs[0].choices[1] == WordPair("carpenter", "wood")
        assert qs[0].answer == 1

    def test_multiword_members(self, tmp_path):
        p = tmp_path / "q.tsv"
        p.write_text("aircraft:shoot_down\ta:b\tc:d\ta\n")
        qs = load_questions(p)
        assert qs[0].stem.y == "shoot_down"

    def test_bad_answer_letter(self, tmp_path):
        p = tmp_path / "q.tsv"
        p.write_text("a:b\tc:d\te:f\t9\n")
        with pytest.raises(DataFormatError):
            load_questions(p)

    @pytest.mark.parametrize("answer", ["", " ", "bc", "ab", "c", "9"])
    def test_answer_must_be_one_choice_letter(self, tmp_path, answer):
        p = tmp_path / "q.tsv"
        p.write_text(f"a:b\tc:d\te:f\ta\na:b\tc:d\te:f\t{answer}\n")
        with pytest.raises(DataFormatError) as exc:
            load_questions(p)
        assert f"{p}:2" in str(exc.value)

    def test_bad_pair(self, tmp_path):
        p = tmp_path / "q.tsv"
        p.write_text("a-b\tc:d\te:f\ta\n")
        with pytest.raises(DataFormatError):
            load_questions(p)


class TestSweep:
    def make_fixture(self, n=30, seed=2):
        rng = np.random.default_rng(seed)
        questions, vectors = [], {}
        for i in range(n):
            stem_p = WordPair(f"s{i}", f"t{i}")
            choices = tuple(WordPair(f"c{i}_{j}", f"d{i}_{j}") for j in range(5))
            questions.append(AnalogyQuestion(stem_p, choices, int(rng.integers(5))))
            vectors[stem_p.key()] = vec(list(rng.integers(0, 20, 16)))
            for c in choices:
                vectors[c.key()] = vec(list(rng.integers(0, 20, 16)))
        # one zero-stem question
        vectors[questions[0].stem.key()] = vec([0] * 16)
        return questions, vectors

    def test_grid_arithmetic(self):
        assert len(grid_thresholds(-0.11, 0.11, 0.01)) == 23
        assert len(grid_thresholds(-0.03, 0.03, 0.01)) == 7

    def test_paper_grids_unchanged(self):
        assert grid_thresholds(*SAT_GRID) == [round(-0.11 + i / 100, 2) for i in range(23)]
        assert grid_thresholds(*NOUNMOD_GRID) == [-0.03, -0.02, -0.01, 0.0, 0.01, 0.02, 0.03]

    def test_grid_has_at_most_a_million_points(self):
        assert len(grid_thresholds(0, 1, 1 / 999_999)) == 10 ** 6
        for lo, hi, step in ((0, 1, 1e-6), (0, 1e308, 1e-308), (-1e308, 1e308, 1)):
            with pytest.raises(ValueError, match="at most 1000000 points"):
                grid_thresholds(lo, hi, step)

    @pytest.mark.parametrize("lo, hi, step, expected", [
        (0, 0.1, 0.06, [0.0, 0.06]), (0, 0.1, 0.04, [0.0, 0.04, 0.08]),
        (0, 0.1, 0.05, [0.0, 0.05, 0.1]), (0.3, 0.3, 0.1, [0.3]), (0, 0.1, 0.3, [0.0])])
    def test_grid_never_passes_hi(self, lo, hi, step, expected):
        assert grid_thresholds(lo, hi, step) == expected

    def test_monotonic_columns(self):
        questions, vectors = self.make_fixture()
        rows = sat_sweep(questions, vectors, grid_thresholds(-0.11, 0.11, 0.01))
        for a, b in zip(rows, rows[1:]):
            assert b.recall <= a.recall
            assert b.guesses <= a.guesses
            assert b.skipped >= a.skipped

    def test_sweep_doubles_equal_two_guess_outcomes(self):
        questions, vectors = self.make_fixture()
        thresholds = grid_thresholds(-0.11, 0.11, 0.01)
        rows = sat_sweep(questions, vectors, thresholds)
        for t, row in zip(thresholds, rows):
            outcomes = solve_all(questions, vectors, t)
            doubles = sum(1 for o in outcomes if len(o.guesses) == 2)
            assert row.doubles == evaluate(questions, outcomes).doubles == doubles
        assert rows[0].doubles > 0 and rows[-1].doubles == 0

    def test_zero_stem_always_skipped(self):
        questions, vectors = self.make_fixture()
        rows = sat_sweep(questions, vectors, grid_thresholds(-0.11, 0.11, 0.01))
        assert all(r.skipped >= 1 for r in rows)

    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_outcomes_hold_python_numbers(self, tie_break):
        """Guesses are ints and margins floats, which json.dumps takes; under
        "random" the zero stem's all-tie row takes the per-probe tie rule."""
        questions, vectors = self.make_fixture()
        outcomes = [decide([0.5, 0.5, 0.1], -0.01, rng=random.Random(1))]
        for t in (-0.05, 0.0, 0.05):
            outcomes += solve_all(questions, vectors, t, seed=3, tie_break=tie_break)
        assert {len(o.guesses) for o in outcomes} == {0, 1, 2}
        for out in outcomes:
            assert all(type(g) is int for g in out.guesses)
            assert type(out.margin) is float and type(out.skipped_zero_stem) is bool
        json.dumps([dataclasses.asdict(o) for o in outcomes])

    def test_solve_all_single_guess_at_zero(self):
        questions, vectors = self.make_fixture()
        outcomes = solve_all(questions, vectors, 0.0)
        for q, out in zip(questions, outcomes):
            if vectors[q.stem.key()].is_zero():
                assert out.guesses == ()
            else:
                assert len(out.guesses) == 1
                assert out.margin >= 0


def test_f_measure_between_min_and_max():
    rng = random.Random(3)
    for _ in range(100):
        p, r = rng.random(), rng.random()
        f = f_measure(p, r)
        assert min(p, r) <= f <= max(p, r) + 1e-15
