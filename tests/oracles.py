"""Independent brute-force oracles, kept deliberately separate from the
package's own code paths."""

import math
import re


def oracle_tokenize(text):
    """Maximal runs of ASCII a-z and 0-9 in the lowercased text, by regex."""
    return re.findall("[a-z0-9]+", text.lower())


# The characters str.splitlines breaks lines at, as its documentation lists them.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def oracle_pair_member(member):
    """Whether a word pair member is valid: it holds a token and no ':',
    tab or line break."""
    return bool(oracle_tokenize(member)) and not set(member) & set(":\t" + LINE_BREAKS)


def oracle_corpus_sections(text):
    """The text of each document of a single-file corpus: a line loop over
    str.splitlines() that starts a new section at every line whose strip()
    is "%%" and joins each section's lines with newlines."""
    sections = [[]]
    for line in text.splitlines():
        if line.strip() == "%%":
            sections.append([])
        else:
            sections[-1].append(line)
    return ["\n".join(lines) for lines in sections]


def oracle_match_unit(unit, token):
    """Match one query unit against one token, by direct string checks."""
    if unit == "*":
        return True
    if "*" in unit:
        prefix, suffix = unit.split("*")
        if len(token) < len(prefix) + len(suffix):
            return False
        middle = token[len(prefix):len(token) - len(suffix)]
        return (token[:len(prefix)] == prefix
                and (token[len(token) - len(suffix):] == suffix if suffix else True)
                and len(middle) <= 5)
    return token == unit


def oracle_count(doc_token_lists, units, mode):
    """Sliding-window phrase count over raw token lists.

    mode: "document" or "occurrence".
    """
    n = len(units)
    docs_hit = 0
    occurrences = 0
    for tokens in doc_token_lists:
        found = 0
        for start in range(len(tokens) - n + 1):
            if all(oracle_match_unit(units[j], tokens[start + j]) for j in range(n)):
                found += 1
        occurrences += found
        if found:
            docs_hit += 1
    return docs_hit if mode == "document" else occurrences


def oracle_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0 or nb == 0:
        return 0.0
    return dot / (na * nb)


def oracle_loocv_confusion(raw_vectors, labels, threshold):
    """Exhaustive leave-one-out two-neighbour classification.

    Ties broken by lowest index. Returns a dict (true, guessed-or-None)
    -> count, where each guessed label in a guess set counts once and
    abstentions record (true, None).
    """
    n = len(raw_vectors)
    confusion = {}

    def bump(key):
        confusion[key] = confusion.get(key, 0) + 1

    for i in range(n):
        scored = []
        for j in range(n):
            if j == i:
                continue
            scored.append((-oracle_cosine(raw_vectors[i], raw_vectors[j]), j))
        scored.sort()
        if len(scored) == 1:
            bump((labels[i], labels[scored[0][1]]))
            continue
        (c1neg, j1), (c2neg, j2) = scored[0], scored[1]
        l1, l2 = labels[j1], labels[j2]
        if l1 == l2:
            guesses = [l1]
        else:
            guesses = oracle_margin_rule(l1, l2, (-c1neg) - (-c2neg), threshold)
        if not guesses:
            bump((labels[i], None))
        for g in guesses:
            bump((labels[i], g))
    return confusion


def oracle_margin_rule(first, second, margin, threshold):
    """The guess set at a threshold, in branch form: none when the threshold
    is above the margin, both when it is below -margin, otherwise the best."""
    if threshold > margin:
        return ()
    if threshold < -margin:
        return (first, second)
    return (first,)


def oracle_ranked(scores, rng=None):
    """Indices by descending score; exact ties broken by a permutation
    drawn with rng.sample(range(n), n), or by ascending index."""
    n = len(scores)
    tiebreak = list(range(n)) if rng is None else rng.sample(range(n), n)
    return sorted(range(n), key=lambda i: (-scores[i], tiebreak[i]))


def oracle_tally(labels, guess_sets, classes):
    """Per-item LOOCV accounting over label names: each guess of the true
    class is a TP, any other guess an FP to the guessed class, and a true
    class left unguessed an FN. Returns the per-class rows (label, size,
    tp, fp, fn, precision, recall, F), the confusion (true, guessed or
    None for an abstention) -> count, and the guesses made, abstentions,
    double guesses and correct items."""
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    size = {c: 0 for c in classes}
    confusion = {}
    for true, guesses in zip(labels, guess_sets):
        size[true] += 1
        fn[true] += true not in guesses
        for g in guesses:
            (tp if g == true else fp)[g] += 1
        for g in guesses or (None,):
            confusion[(true, g)] = confusion.get((true, g), 0) + 1
    rows = []
    for c in classes:
        p = tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] else 0.0
        r = tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        rows.append((c, size[c], tp[c], fp[c], fn[c], p, r, f))
    return (rows, confusion, sum(map(len, guess_sets)), sum(not g for g in guess_sets),
            sum(len(g) == 2 for g in guess_sets), sum(tp.values()))


def oracle_load_cache(path):
    """The rows of a vector cache file whose header is valid, by one loop
    over its body lines: key -> tuple of int counts. The first bad row
    raises ValueError with the text of load_cache's error for it. A row is
    checked key first (a member rule, then a repeat), then its count text
    (each tab-separated field ASCII digits without a leading zero), then
    the number of counts (128)."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    lineno = 1
    while lineno < len(lines) and lines[lineno].startswith("# ") and "\t" not in lines[lineno]:
        lineno += 1
    entries = {}
    for line in lines[lineno:]:
        lineno += 1
        if not line.strip():
            continue
        key, _, text = line.partition("\t")
        x, _, y = key.partition(":")
        if not (oracle_pair_member(x) and oracle_pair_member(y)):
            error = (f"bad word pair {x!r}, {y!r}: a member has no token characters "
                     "(a-z, 0-9) or holds ':', a tab or a line break")
        elif key in entries:
            error = f"repeated key {key!r}"
        else:
            fields = text.split("\t")
            try:
                if not all(re.fullmatch("0|[1-9][0-9]*", f) for f in fields):
                    raise ValueError
                counts = tuple(int(f) for f in fields)  # int() refuses over 4300 digits
            except ValueError:
                error = "hit counts must be ASCII digits without leading zeros"
            else:
                if len(counts) == 128:
                    entries[key] = counts
                    continue
                error = f"expected 128 counts, got {len(counts)}"
        raise ValueError(f"{path}:{lineno}: {error}")
    return entries
