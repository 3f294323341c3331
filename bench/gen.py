"""Deterministic input generators for the benchmark.

Everything here is a pure function of the workload shape and the seed, and
imports nothing from relsim: the program only ever sees the files written
by ``write_inputs``.

Files written into the work directory:

* ``corpus.txt``   documents separated by ``%%`` lines (relsim's single-file
  corpus format);
* ``questions.tsv`` SAT-style questions (stem, five choices, answer letter);
* ``labeled.tsv``  noun-modifier pairs (modifier, head, class);
* ``prior.tsv``    synthetic raw hit counts for the pairs that are already
  cached before a pass (``key<TAB>128 counts``, no header);
* ``manifest.json`` what the generator knows by construction: token,
  vocabulary and document counts, the planted and faulty pairs with their
  expected vectors, the planted questions and the reversed pairs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

# The joining-term table the program ships (src/relsim/data/joining_terms.txt),
# repeated here so that generation does not depend on the code under test.
JOINING_TERMS = (
    "", "* not", "* very", "after", "and not", "are", "at", "at the",
    "become*", "but not", "contain*", "for", "for example", "for the", "from",
    "from the", "get*", "give*", "go", "goes", "has", "have", "in", "in the",
    "instead of", "into", "is", "is *", "is the", "lack*", "like", "like *",
    "like the", "make*", "need*", "not", "not the", "of", "of the", "on",
    "onto", "or", "rather than", "such as", "than", "that", "the", "their",
    "then", "this", "to", "to the", "turn*", "use*", "when", "which", "will",
    "with", "with the", "within", "without", "yet", "s", "s *",
)

# Inflected families, so that the embedded wildcards of the joining terms
# (and of stemmed members) expand to several vocabulary terms.
FAMILIES = {
    "become": ("become", "becomes", "became", "becoming"),
    "contain": ("contain", "contains", "contained", "containing"),
    "get": ("get", "gets", "got", "getting"),
    "give": ("give", "gives", "gave", "given", "giving"),
    "lack": ("lack", "lacks", "lacked", "lacking"),
    "make": ("make", "makes", "made", "making"),
    "need": ("need", "needs", "needed", "needing"),
    "turn": ("turn", "turns", "turned", "turning"),
    "use": ("use", "uses", "used", "using", "useful"),
}

# Function words in rough frequency order; every word of the 64 joining
# terms is here, so that every term can match.
FUNCTION_WORDS = (
    "the of and to in a is that for it as was with be by on not he this are "
    "or his from at which but have an they you were her she there been one "
    "all their has would when if so no will can more other into than then "
    "its some could them these two may time only very new like such first "
    "also after way most where should well over even because through any "
    "s many those same however about without under within yet example "
    "rather instead goes go onto"
).split()

# Tokens of the planted pairs; generated words never equal or extend them.
RESERVED_PREFIXES = ("bone", "dinner", "clock", "quorvant", "belistra",
                     "zindle", "pokrat")
RESERVED_TOKENS = {"x", "ray", "o", "ox", "qi"}

# Planted pairs: phrases inserted into fixed numbers of distinct documents.
# (left text, joining term, right text, number of documents, x on the left).
# The members' tokens occur nowhere else, so the whole expected vector is
# known by construction.
PLANTED = (
    ("quorvant", "belistra", (
        ("quorvant", "of the", "belistra", 3, True),
        ("belistra", "for", "quorvant", 2, False),
        ("quorvants", "such as", "belistras", 1, True))),
    ("zindlemar", "pokrathine", (
        ("zindlemar", "", "pokrathine", 2, True),
        ("pokrathine", "with", "zindlemars", 4, False))),
    # two short members, which stay unstemmed: the only source of queries
    # without any wildcard
    ("ox", "qi", (
        ("ox", "of", "qi", 2, True),
        ("qi", "with", "ox", 1, False))),
)
# Pairs whose members hold punctuation.  Tokenized, "x-ray" is "x ray" and
# "o'clock" is "o clock"; the expected vectors below are the ones the
# tokenized members give.
FAULTY = (
    ("x-ray", "bone", (("x-ray", "of", "bone", 2, True),)),
    ("o'clock", "dinner", (("o'clock", "", "dinner", 3, True),)),
)

CLASSES = (
    "cs eff prp detr freq tat tthr dir loc lat lfr ag ben inst obj obj_prop "
    "part posr prop prod src st whl cntr cont eq mat meas top type").split()

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_ONSETS = ("b c d f g h j k l m n p r s t v w z br cr dr fl gr pl pr st tr "
           "sk sl sp ch sh th").split()
_VOWELS = ("a e i o u ai ea ou io").split()
_CODAS = ("", "", "", "n", "r", "l", "s", "t", "m", "nd", "st", "rk")


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's inputs, and the steps of one pass."""

    corpus_bytes: int
    new_questions: int      # questions whose pairs the vectors step computes
    new_labeled: int        # labelled pairs the vectors step computes
    reversed_pairs: int     # labelled pairs that are the reverse of another
    prior_questions: int    # questions whose vectors come from prior.tsv
    prior_labeled: int
    faulty: bool            # include the punctuation-member pairs
    # One pass: build, vectors (index load included), sat, loocv30, loocv5
    # and nmsweep (the nounmod sweep) calls in order.  Short steps repeat
    # and are spread between the long ones, so that their medians are
    # steady and every metric samples the same stretch of time.
    schedule: tuple[str, ...]


# The short evaluation steps that index and vectors interleave.
_SMALL = ("sat", "loocv30", "sat", "loocv5", "sat", "nmsweep")

SHAPES = {
    # write path: a 7 MB corpus (1.5 M tokens, the size of the 10 MB corpus
    # of acceptance criterion 12, whose words are longer), a handful of
    # pairs and a small evaluation.
    "index": Shape(7 * 2**20, 1, 4, 0, 60, 100, False, (
        "build", "vectors", *_SMALL, "build", *_SMALL, "vectors", *_SMALL)),
    # read path: 113 new pairs in the assumed member mix below, over a 2 MB
    # corpus.
    "vectors": Shape(2 * 2**20, 14, 20, 4, 40, 100, True, (
        "build", "vectors", *_SMALL, "build", *_SMALL, "vectors", *_SMALL,
        "build", *_SMALL, "vectors", *_SMALL)),
    # similarity path: the paper's 374 questions and 600 labelled pairs
    # (3 of them the planted pairs), nearly all of them already cached.
    "evaluate": Shape(2**18, 1, 4, 0, 373, 593, False, (
        "build", "build", "vectors", "sat", "build", "build", "loocv30",
        "build", "vectors", "sat", "build", "loocv5", "build", "build",
        "vectors", "nmsweep", "build", "build", "vectors", "sat", "build",
        "vectors")),
}

# Member make-up.  Counts are shares of all members, fixed per workload so
# that a seed changes which words are chosen but not the mix.  The shares
# are assumptions, not measured from the paper's SAT or noun-modifier pairs,
# which the repository does not hold.
LENGTH_BANDS = (("short", 0.05), ("mid", 0.62), ("long9", 0.15),
                ("long11", 0.10), ("multi", 0.08))
TIERS = (("high", 0.08), ("mid", 0.46), ("low", 0.46))
TIER_RANKS = {"high": (5, 60), "mid": (300, 3000), "low": (3000, 20000)}


def tokenize(text: str) -> list[str]:
    """The tokenizer's specification, written apart from the program's."""
    return _TOKEN_RE.findall(text.lower())


MAX_GAP = 5  # characters an embedded wildcard may match


def stem(word: str) -> str:
    """The documented length-band stemming rule."""
    n = len(word)
    if n <= 2:
        return word
    out = word[:-4] if n > 10 else word[:-3] if n > 8 else word
    if sum(c.isalpha() for c in out) < 3:
        return word
    return out + "*"


def _zipf(rank: float) -> float:
    return 1.0 / (rank + 2.7)


class _Words:
    """Fresh pseudo-words, each used once."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.function_forms = set(FUNCTION_WORDS)
        for forms in FAMILIES.values():
            self.function_forms.update(forms)
        self.used = self.function_forms | RESERVED_TOKENS

    def _ok(self, w: str) -> bool:
        return (w not in self.used and w.isalpha()
                and not w.startswith(RESERVED_PREFIXES))

    def make(self, lo: int, hi: int) -> str:
        rng = self.rng
        while True:
            if hi <= 2:
                w = rng.choice("bcdfgkmptvz") + rng.choice("aeiouy")
            else:
                w = ""
                while len(w) < lo:
                    w += rng.choice(_ONSETS) + rng.choice(_VOWELS)
                w += rng.choice(_CODAS)
                if len(w) > hi:
                    continue
            if self._ok(w):
                self.used.add(w)
                return w

    def member(self, band: str) -> str:
        while True:
            if band == "short":
                m = self.make(2, 2)
            elif band == "mid":
                m = self.make(3, 8)
            elif band == "long9":
                m = self.make(9, 10)
            elif band == "long11":
                m = self.make(11, 14)
            else:
                m = self.make(3, 7) + "_" + self.make(2, 6)
            # A stem that also matches a function word ("tha*" matches
            # "that") costs many times more than the rest; how many members
            # do so would otherwise change with the seed.
            prefix = stem(m.split("_")[-1]).rstrip("*")
            if not any(w.startswith(prefix) and len(w) - len(prefix) <= MAX_GAP
                       for w in self.function_forms):
                return m


def _fixed_counts(total: int, shares) -> list[str]:
    """Exactly ``total`` labels, split by ``shares`` (largest remainder)."""
    raw = [(name, share * total) for name, share in shares]
    counts = {name: int(v) for name, v in raw}
    rest = total - sum(counts.values())
    for name, v in sorted(raw, key=lambda nv: nv[1] - int(nv[1]), reverse=True)[:rest]:
        counts[name] += 1
    return [name for name, _ in shares for _ in range(counts[name])]


@dataclass
class Inputs:
    corpus: str
    questions: list[tuple[list[tuple[str, str]], int]]  # (stem + 5 choices, answer)
    labeled: list[tuple[str, str, str]]
    prior: dict[str, list[int]]
    manifest: dict


def _realise_term(term: str, rng: random.Random, filler: list[str]) -> list[str]:
    out = []
    for unit in term.split():
        if unit == "*":
            out.append(rng.choice(filler))
        elif unit.endswith("*"):
            out.append(rng.choice(FAMILIES[unit[:-1]]))
        else:
            out.append(unit)
    return out


def _inflect(member: str, rng: random.Random) -> str:
    words = member.split("_")
    if len(words[-1]) > 2 and rng.random() < 0.3:
        words[-1] += rng.choice(("s", "ed", "ing", "er"))
    return " ".join(words)


def _snippet(x: str, y: str, rng: random.Random, filler: list[str]) -> str:
    term = rng.choice(JOINING_TERMS)
    if rng.random() < 0.5:
        x, y = y, x
    left, right = _inflect(x, rng), _inflect(y, rng)
    if term in ("s", "s *"):
        # a possessive: "x's y" tokenizes to x, s, y
        rest = _realise_term(term[1:], rng, filler)
        return " ".join([left + "'s", *rest, right])
    return " ".join([left, *_realise_term(term, rng, filler), right])


def _plant_text(left: str, term: str, right: str) -> str:
    return " ".join(p for p in (left, term, right) if p)


def _expected_vector(x: str, y: str, plants) -> list[int]:
    vec = [0] * (2 * len(JOINING_TERMS))
    for _, term, _, ndocs, x_left in plants:
        j = JOINING_TERMS.index(term)
        vec[2 * j + (0 if x_left else 1)] += ndocs
    return vec


def _synthetic_vector(rng: random.Random, profile: list[float]) -> list[int]:
    """Sparse Zipf-like raw counts; ``profile`` gives each dimension's
    chance of being non-zero."""
    return [int(rng.paretovariate(1.1)) if rng.random() < p else 0
            for p in profile]


def _profile(rng: random.Random) -> list[float]:
    active = set(rng.sample(range(128), 24))
    return [0.55 if d in active else 0.06 for d in range(128)]


def generate(workload: str, seed: int) -> Inputs:
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    words = _Words(rng)

    # --- pairs whose vectors a pass computes -----------------------------
    n_new_pairs = 6 * shape.new_questions + shape.new_labeled
    # Length bands, tiers and how they pair up are the same on every seed
    # (the most frequent member is paired with the least frequent, and so
    # on), and each tier's ranks are evenly spaced on a log scale, so that
    # the cost of a pass hardly moves with the seed.
    bands = _fixed_counts(2 * n_new_pairs, LENGTH_BANDS)
    random.Random(0).shuffle(bands)
    tiers = _fixed_counts(2 * n_new_pairs, TIERS)
    ranks = []
    for name, _ in TIERS:
        k = tiers.count(name)
        lo, hi = TIER_RANKS[name]
        spaced = [lo * (hi / lo) ** ((i + 0.5) / k) for i in range(k)]
        rng.shuffle(spaced)
        ranks += spaced
    order = [(i, 2 * n_new_pairs - 1 - i) for i in range(n_new_pairs)]
    rng.shuffle(order)
    member_rank = {}
    new_pairs = []
    for a, b in order:
        x, y = words.member(bands[a]), words.member(bands[b])
        member_rank[x], member_rank[y] = ranks[a], ranks[b]
        new_pairs.append((x, y) if rng.random() < 0.5 else (y, x))

    questions = []
    for q in range(shape.new_questions):
        questions.append((new_pairs[6 * q:6 * q + 6], rng.randrange(5)))
    labeled = [(x, y, rng.choice(CLASSES))
               for x, y in new_pairs[6 * shape.new_questions:]]
    reversed_keys = []
    for x, y, _ in labeled[:shape.reversed_pairs]:
        labeled.append((y, x, rng.choice(CLASSES)))
        reversed_keys.append([f"{x}:{y}", f"{y}:{x}"])
    planted = {}
    for x, y, plants in PLANTED:
        planted[f"{x}:{y}"] = _expected_vector(x, y, plants)
        labeled.append((x, y, rng.choice(CLASSES)))
    faulty = {}
    if shape.faulty:
        for x, y, plants in FAULTY:
            faulty[f"{x}:{y}"] = _expected_vector(x, y, plants)
            labeled.append((x, y, "tat"))

    # --- prior (already cached) pairs with synthetic vectors ---------------
    prior: dict[str, list[int]] = {}
    relations = [_profile(rng) for _ in range(40)]
    class_profiles = {c: _profile(rng) for c in CLASSES}
    planted_questions = []
    for q in range(shape.prior_questions):
        pairs = [(words.make(3, 8), words.make(3, 8)) for _ in range(6)]
        rel = rng.sample(range(40), 5)
        stem_vec = _synthetic_vector(rng, relations[rel[0]])
        answer = rng.randrange(5)
        choice_vecs = []
        for c in range(5):
            choice_vecs.append(_synthetic_vector(
                rng, relations[rel[0] if c == answer else rel[1 + c % 4]]))
        kind = q % 25
        if kind == 3:        # all-zero stem: the skip path
            stem_vec = [0] * 128
        elif kind in (7, 19):  # the answer's vector equals the stem's
            stem_vec[rng.randrange(128)] += 1000 + q  # keep planted vectors unique
            choice_vecs[answer] = list(stem_vec)
            planted_questions.append(len(questions))
        elif kind == 11:     # an exact tie between the answer and a distractor
            choice_vecs[(answer + 1) % 5] = list(choice_vecs[answer])
        for (x, y), vec in zip(pairs, [stem_vec, *choice_vecs]):
            prior[f"{x}:{y}"] = vec
        questions.append((pairs, answer))
    prior_labeled_vecs = []
    for i in range(shape.prior_labeled):
        x, y = words.make(3, 8), words.make(3, 10)
        label = CLASSES[i % len(CLASSES)]
        vec = _synthetic_vector(rng, class_profiles[label])
        if i % 40 == 13 and prior_labeled_vecs:  # exact tie in LOOCV
            vec = list(rng.choice(prior_labeled_vecs))
        prior_labeled_vecs.append(vec)
        prior[f"{x}:{y}"] = vec
        labeled.append((x, y, label))
    rng.shuffle(labeled)

    # --- corpus -----------------------------------------------------------
    filler = list(FUNCTION_WORDS[:40])
    types: list[str] = []
    weights: list[float] = []
    for r, w in enumerate(FUNCTION_WORDS):
        types.append(w)
        weights.append(_zipf(r) * 8)
    for forms in FAMILIES.values():
        r = rng.uniform(40, 400)
        for k, f in enumerate(forms):
            types.append(f)
            weights.append(_zipf(r * (k + 1)) * 8)
    for m, r in member_rank.items():
        for k, part in enumerate(m.split("_")):
            types.append(part)
            weights.append(_zipf(r * (k + 1)))
            if len(part) > 2:
                types.append(part + "s")
                weights.append(_zipf(r * 4))
    n_background = 25000
    for r in range(n_background):
        base = words.make(3, 12)
        types.append(base)
        weights.append(_zipf(r))
        if r % 3 == 0:
            types.append(base + rng.choice(("s", "ed", "ing", "er")))
            weights.append(_zipf(r * 3))
    cum = []
    acc = 0.0
    for wt in weights:
        acc += wt
        cum.append(acc)

    # relational snippets: new pairs, weighted by their members' frequency
    pair_w = [_zipf(min(member_rank[x], member_rank[y]) / 50) for x, y in new_pairs]
    pair_cum = []
    acc = 0.0
    for wt in pair_w:
        acc += wt
        pair_cum.append(acc)

    docs: list[str] = []
    size = 0
    while size < shape.corpus_bytes:
        n = rng.randint(400, 1100)
        toks = rng.choices(types, cum_weights=cum, k=n)
        for _ in range(n // 60):
            x, y = rng.choices(new_pairs, cum_weights=pair_cum)[0]
            toks.insert(rng.randrange(len(toks) + 1), _snippet(x, y, rng, filler))
        lines = []
        for start in range(0, len(toks), 14):
            line = " ".join(toks[start:start + 14])
            lines.append(line[:1].upper() + line[1:] + ".")
        text = "\n".join(lines)
        docs.append(text)
        size += len(text) + 4

    plants = PLANTED + FAULTY if shape.faulty else PLANTED
    texts = [_plant_text(left, term, right)
             for _, _, phrases in plants for left, term, right, ndocs, _ in phrases
             for _ in range(ndocs)]
    # one planted phrase per document, last, so that no two plants touch
    for d, text in zip(rng.sample(range(len(docs)), len(texts)), texts):
        docs[d] += "\n" + text + "."

    corpus = "\n%%\n".join(docs) + "\n"
    vocab: set[str] = set()
    tokens = 0
    for text in docs:
        toks = tokenize(text)
        tokens += len(toks)
        vocab.update(toks)

    manifest = {
        "workload": workload,
        "seed": seed,
        "docs": len(docs),
        "tokens": tokens,
        "vocabulary": len(vocab),
        "computed_pairs": len({f"{x}:{y}" for pairs, _ in questions for x, y in pairs}
                              | {f"{x}:{y}" for x, y, _ in labeled}) - len(prior),
        "planted": planted,
        "faulty": faulty,
        "reversed": reversed_keys,
        "planted_questions": planted_questions,
    }
    return Inputs(corpus, questions, labeled, prior, manifest)


LETTERS = "abcde"


def write_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Generate and write one workload's inputs; return the manifest."""
    inp = generate(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "corpus.txt").write_text(inp.corpus, encoding="utf-8")
    lines = ["\t".join([f"{x}:{y}" for x, y in pairs] + [LETTERS[ans]])
             for pairs, ans in inp.questions]
    (workdir / "questions.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (workdir / "labeled.tsv").write_text(
        "".join(f"{x}\t{y}\t{c}\n" for x, y, c in inp.labeled), encoding="utf-8")
    (workdir / "prior.tsv").write_text(
        "".join(k + "\t" + "\t".join(map(str, v)) + "\n" for k, v in inp.prior.items()),
        encoding="utf-8")
    (workdir / "manifest.json").write_text(json.dumps(inp.manifest, sort_keys=True),
                                           encoding="utf-8")
    return inp.manifest
