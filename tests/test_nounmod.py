import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsim.errors import DataFormatError
from relsim.nounmod import (ALL_ABBREVIATIONS, GROUPS, RELATION_CLASSES,
                            ClassMetrics, LabeledNounModifier, _tally, group_of, load_labeled_pairs, loocv,
                            macroaverage)
from relsim.vectors import RelationVector, WordPair

from oracles import oracle_cosine, oracle_loocv_confusion, oracle_margin_rule, oracle_tally


def vec(raw):
    return RelationVector.from_raw(WordPair("m", "h"), raw)


def fvec(values):
    # arbitrary float components, for geometry-controlled fixtures
    return RelationVector(WordPair("m", "h"), tuple(1 for _ in values),
                          np.asarray(values, dtype=float))


class TestTaxonomy:
    def test_thirty_classes_five_groups(self):
        assert len(RELATION_CLASSES) == 30
        assert len(set(ALL_ABBREVIATIONS)) == 30
        assert len(GROUPS) == 5

    @pytest.mark.parametrize("abbr,group", [
        ("ag", "participant"),
        ("cs", "causality"),
        ("meas", "quality"),
        ("tat", "temporality"),
        ("lfr", "spatial"),
    ])
    def test_group_of(self, abbr, group):
        assert group_of(abbr) == group

    def test_total_over_all_abbreviations(self):
        for abbr in ALL_ABBREVIATIONS:
            assert group_of(abbr) in GROUPS

    def test_group_sizes(self):
        sizes = {g: 0 for g in GROUPS}
        for abbr in ALL_ABBREVIATIONS:
            sizes[group_of(abbr)] += 1
        assert sizes == {"causality": 4, "temporality": 3, "spatial": 4,
                         "participant": 12, "quality": 7}

    def test_unknown_label_rejected(self):
        with pytest.raises(DataFormatError):
            group_of("bogus")


def probe_guesses(train, labels, probe, threshold=0.0, seed=0, tie_break="first"):
    """The guess set loocv gives a probe, labelled "probe", that is left
    out of train + [probe]; None stands for abstention."""
    result = loocv([*train, probe], [*labels, "probe"], threshold, 30, seed, tie_break)
    return {guess for (true, guess) in result.confusion if true == "probe"}


class TestClassify1nn:
    """The nearest neighbour loocv guesses for a left-out item."""

    def test_identical_vector_wins(self):
        train = [vec([1, 0, 0]), vec([3, 4, 5]), vec([0, 1, 0])]
        assert probe_guesses(train, ["a", "b", "c"], vec([3, 4, 5])) == {"b"}

    def test_orthogonal_probe_seeded_tie(self):
        train = [vec([1, 0, 0]), vec([0, 1, 0])]
        probe = vec([0, 0, 1])
        picks = [probe_guesses(train, ["a", "b"], probe, seed=s, tie_break="random")
                 for s in range(20)]
        assert all(len(p) == 1 for p in picks)
        assert set().union(*picks) == {"a", "b"}

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            train = [vec(list(rng.integers(0, 50, 6))) for _ in range(10)]
            labels = [f"l{j}" for j in range(10)]
            probe = vec(list(rng.integers(1, 50, 6)))
            scores = [oracle_cosine(list(probe.r), list(t.r)) for t in train]
            assert probe_guesses(train, labels, probe) == {labels[int(np.argmax(scores))]}


class TestClassifyMargin:
    """loocv's two-neighbour margin rule for a left-out item."""

    def make(self, c1, c2):
        # two training vectors whose cosines to probe [1, 0] are c1 and c2
        def from_cos(c):
            return fvec([c, np.sqrt(1 - c * c)])
        return [from_cos(c1), from_cos(c2)]

    def test_same_class_ignores_threshold(self):
        train = self.make(0.9, 0.2)  # margin 0.7
        for t in (0.9, 0.5, -0.9):
            assert probe_guesses(train, ["A", "A"], fvec([1, 0]), t) == {"A"}

    def test_three_branches(self):
        train = self.make(0.9, 0.85)
        probe = fvec([1, 0])
        assert probe_guesses(train, ["A", "B"], probe, 0.02) == {"A"}
        assert probe_guesses(train, ["A", "B"], probe, 0.1) == {None}
        assert probe_guesses(train, ["A", "B"], probe, -0.1) == {"A", "B"}

    def test_zero_threshold_single_label(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            train = [vec(list(rng.integers(0, 9, 4))) for _ in range(6)]
            labels = [str(rng.choice(["x", "y", "z"])) for _ in range(6)]
            out = probe_guesses(train, labels, vec(list(rng.integers(1, 9, 4))))
            assert len(out) == 1 and None not in out


class TestLoocv:
    def random_dataset(self, rng, n_items, dim, labels_pool):
        vecs = [vec([rng.randint(0, 40) for _ in range(dim)]) for _ in range(n_items)]
        labels = [rng.choice(labels_pool) for _ in range(n_items)]
        return vecs, labels

    def test_two_items_different_labels_both_missed(self):
        vecs = [vec([1, 0]), vec([0, 1])]
        result = loocv(vecs, ["ag", "cs"], 0.0, 30)
        by_label = {m.label: m for m in result.per_class}
        assert by_label["ag"].recall == 0.0
        assert by_label["cs"].recall == 0.0
        assert result.correct == 0

    def test_one_classification_per_item(self):
        rng = random.Random(0)
        vecs, labels = self.random_dataset(rng, 25, 5, ["ag", "cs", "meas"])
        result = loocv(vecs, labels, 0.0, 30, tie_break="first")
        assert result.guesses_made == 25
        assert result.abstained == 0
        tp_total = sum(m.tp for m in result.per_class)
        assert tp_total == result.correct
        assert sum(m.tp + m.fn for m in result.per_class) == 25

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(42)
        for _ in range(20):
            n = rng.randint(3, 20)
            vecs, labels = self.random_dataset(rng, n, rng.randint(2, 8),
                                               ["ag", "cs", "meas", "tat"])
            t = rng.choice([-0.05, -0.01, 0.0, 0.01, 0.05])
            result = loocv(vecs, labels, t, 30, tie_break="first")
            expected = oracle_loocv_confusion([list(v.r) for v in vecs], labels, t)
            assert result.confusion == expected

    @pytest.mark.parametrize("t", [math.inf, -math.inf, sys.float_info.max,
                                   -sys.float_info.max])
    def test_shared_class_guessed_once_at_extreme_thresholds(self, t):
        """An item whose two nearest neighbours share a class guesses it once
        at every threshold, infinite or not; the others skip above every
        margin and guess twice below every -margin."""
        vecs, labels = self.random_dataset(random.Random(11), 24, 5, ["ag", "cs", "meas"])
        raw = [list(v.r) for v in vecs]
        guess_sets = []
        for i in range(len(raw)):
            j1, j2 = sorted((j for j in range(len(raw)) if j != i),
                            key=lambda j: (-oracle_cosine(raw[i], raw[j]), j))[:2]
            l1, l2 = labels[j1], labels[j2]
            # Every margin lies in [0, 2], so its value cannot matter here.
            guess_sets.append((l1,) if l1 == l2 else oracle_margin_rule(l1, l2, 1.0, t))
        assert {len(g) for g in guess_sets} == {1, 0 if t > 0 else 2}
        result = loocv(vecs, labels, t, 30, tie_break="first")
        rows, confusion, made, abstained, doubles, correct = oracle_tally(
            labels, guess_sets, ALL_ABBREVIATIONS)
        assert [(m.label, m.size, m.tp, m.fp, m.fn, m.precision, m.recall, m.f)
                for m in result.per_class] == rows
        assert result.confusion == confusion
        assert (result.guesses_made, result.abstained, result.doubles, result.correct,
                result.total) == (made, abstained, doubles, correct, len(vecs))

    def test_nan_threshold_abstains_everywhere(self):
        """A NaN threshold fails every comparison of the margin rule, so every
        item abstains, those whose neighbours share a class (margin +inf)
        included, as solve_all skips every question at NaN."""
        vecs, labels = self.random_dataset(random.Random(11), 24, 5, ["ag", "cs", "meas"])
        assert loocv(vecs, labels, 0.0, 30).abstained == 0
        result = loocv(vecs, labels, math.nan, 30)
        assert (result.guesses_made, result.abstained, result.doubles, result.correct) \
            == (0, 24, 0, 0)
        assert set(result.confusion) == {(label, None) for label in labels}
        assert all((m.precision, m.recall, m.f) == (0.0, 0.0, 0.0) for m in result.per_class)

    def test_five_class_collapse_relabels(self):
        vecs = [vec([1, 0]), vec([2, 0]), vec([0, 1]), vec([0, 2])]
        labels = ["ag", "ben", "tat", "freq"]  # participant x2, temporality x2
        result = loocv(vecs, labels, 0.0, 5)
        by_label = {m.label: m for m in result.per_class}
        assert set(by_label) == set(GROUPS)
        assert by_label["participant"].recall == 1.0
        assert by_label["temporality"].recall == 1.0
        assert result.correct == 4

    def test_collapse_requires_rerun_not_postprocessing(self):
        # classifying on 30 classes then collapsing the guesses differs from
        # reclassifying on collapsed labels; the pipelines stay distinct
        rng = random.Random(9)
        vecs, labels = self.random_dataset(rng, 30, 4,
                                           ["ag", "ben", "cs", "eff", "tat"])
        r30 = loocv(vecs, labels, 0.0, 30, tie_break="first")
        r5 = loocv(vecs, labels, 0.0, 5, tie_break="first")
        collapsed_correct = sum(
            count for (true, guess), count in r30.confusion.items()
            if guess is not None and group_of(true) == group_of(guess))
        # the rerun can only do at least as well at group level
        assert r5.correct >= collapsed_correct

    def test_deterministic_given_seed(self):
        rng = random.Random(10)
        vecs, labels = self.random_dataset(rng, 15, 4, ["ag", "cs"])
        a = loocv(vecs, labels, 0.0, 30, seed=3)
        b = loocv(vecs, labels, 0.0, 30, seed=3)
        assert a.confusion == b.confusion


class TestTally:
    @settings(deadline=None)
    @given(st.data())
    def test_matches_per_item_oracle(self, data):
        n = data.draw(st.integers(1, 6))
        classes = ALL_ABBREVIATIONS[:n]
        items = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                             st.integers(0, n - 1), st.integers(0, 2)),
                                   max_size=40))
        if data.draw(st.booleans()):  # every item abstains
            items = [(t, f, s, 0) for t, f, s, _ in items]
        # a class shared by both neighbours is one guess at most, as loocv counts it
        items = [(t, f, s, min(c, 1) if f == s else c) for t, f, s, c in items]
        true, first, second, count = np.array(items, dtype=int).reshape(-1, 4).T
        result = _tally(true, first, second, count, classes)

        labels = [classes[t] for t, _, _, _ in items]
        guess_sets = [(classes[f], classes[s])[:c] for _, f, s, c in items]
        rows, confusion, made, abstained, doubles, correct = oracle_tally(labels, guess_sets,
                                                                          classes)
        assert [(m.label, m.size, m.tp, m.fp, m.fn, m.precision, m.recall, m.f)
                for m in result.per_class] == rows
        assert result.confusion == confusion
        assert (result.guesses_made, result.abstained, result.doubles, result.correct,
                result.total) == (made, abstained, doubles, correct, len(items))

    @pytest.mark.parametrize("granularity", [30, 5])
    def test_counts_are_ints_and_ratios_floats(self, granularity):
        rng = random.Random(4)
        vecs = [vec([rng.randint(0, 9) for _ in range(4)]) for _ in range(40)]
        labels = [rng.choice(["ag", "cs", "meas", "tat"]) for _ in range(40)]
        results = [loocv(vecs, labels, t, granularity) for t in (-0.05, 0.0, 0.05)]
        assert {r.abstained > 0 for r in results} == {r.doubles > 0 for r in results} \
            == {True, False}
        for r in results:
            assert all(type(x) is int for x in (r.guesses_made, r.abstained, r.doubles,
                                                r.correct, r.total, *r.confusion.values()))
            for m in r.per_class:
                assert all(type(x) is int for x in (m.size, m.tp, m.fp, m.fn))
                assert all(type(x) is float for x in (m.precision, m.recall, m.f))
            json.dumps([[t, g, k] for (t, g), k in r.confusion.items()])


class TestMacroaverage:
    def test_causality_row(self):
        # group-level F from its precision and recall
        m = ClassMetrics("causality", 86, 0, 0, 0, 0.212, 0.244, 0.0)
        from relsim.analogy import f_measure
        assert f_measure(m.precision, m.recall) == pytest.approx(0.227, abs=0.0005)

    def test_identical_classes(self):
        per = [ClassMetrics(f"c{i}", 5, 0, 0, 0, 0.4, 0.2, 0.3) for i in range(4)]
        assert macroaverage(per) == (pytest.approx(0.4), pytest.approx(0.2),
                                     pytest.approx(0.3))

    def test_zero_support_class_contributes_zeros(self):
        per = [ClassMetrics("a", 0, 0, 0, 0, 0.0, 0.0, 0.0),
               ClassMetrics("b", 10, 0, 0, 0, 1.0, 1.0, 1.0)]
        p, r, f = macroaverage(per)
        assert (p, r, f) == (0.5, 0.5, 0.5)

    def test_mean_of_f_not_f_of_means(self):
        per = [ClassMetrics("a", 1, 0, 0, 0, 1.0, 0.0, 0.0),
               ClassMetrics("b", 1, 0, 0, 0, 0.0, 1.0, 0.0)]
        p, r, f = macroaverage(per)
        assert f == 0.0  # harmonic mean of averaged P/R would be 0.5


class TestDataFile:
    def test_load(self, tmp_path):
        p = tmp_path / "nm.tsv"
        p.write_text("# modifier head class\n"
                     "laser\tprinter\tinst\n"
                     "flu\tvirus\tcs\textra\tcolumns\tignored\n")
        items = load_labeled_pairs(p)
        assert len(items) == 2
        assert items[0].pair() == WordPair("laser", "printer")
        assert items[1].label == "cs"

    def test_pair_is_built_once_and_kept_out_of_the_fields(self):
        item = LabeledNounModifier("laser", "printer", "inst")
        assert item.pair() is item.pair()
        assert item.pair() == WordPair("laser", "printer")
        twin = LabeledNounModifier("laser", "printer", "inst")
        assert item == twin and hash(item) == hash(twin)
        assert repr(item) == "LabeledNounModifier(modifier='laser', head='printer', label='inst')"
        with pytest.raises(ValueError):
            LabeledNounModifier("a:b", "printer", "inst")

    def test_unknown_class_reports_line(self, tmp_path):
        p = tmp_path / "nm.tsv"
        p.write_text("laser\tprinter\tinst\nfoo\tbar\tnope\n")
        with pytest.raises(DataFormatError) as exc:
            load_labeled_pairs(p)
        assert ":2" in str(exc.value)

    @pytest.mark.parametrize("line", ["a:b\tc\tloc", "a\tb:c\tloc", "\tc\tloc", "a\t \tloc"])
    def test_bad_member_reports_line(self, tmp_path, line):
        p = tmp_path / "nm.tsv"
        p.write_text(f"laser\tprinter\tinst\n{line}\n")
        with pytest.raises(DataFormatError) as exc:
            load_labeled_pairs(p)
        assert f"{p}:2" in str(exc.value)
