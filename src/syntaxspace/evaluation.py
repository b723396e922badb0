"""Metrics and ranking baselines.

Relation extraction is scored against the transitive closure of the stored
edges (annotators mark semantic pairs, not reduction-adjacent ones).
The ranking baselines work over content lemmas: function words are
filtered so that shared determiners and auxiliaries do not dominate the
overlap scores.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .lexicon import FUNCTION_LEMMAS
from .subsume import reach

BASELINE_METHODS = ("common_words", "jaccard", "tfidf_cosine", "unigram_lm",
                    "bm25", "gst", "lcs")


class UnknownMethod(ValueError):
    pass


# ---------------------------------------------------------------------------
# Relation extraction metrics
# ---------------------------------------------------------------------------


@dataclass
class PRFReport:
    correct: int
    predicted: int
    gold: int
    precision: float | None
    recall: float | None
    f1: float | None
    precision_undefined: bool = False
    recall_undefined: bool = False

    def line(self) -> str:
        def fmt(x, undef):
            return "undefined" if undef else f"{x:.2%}"
        return (f"P={fmt(self.precision, self.precision_undefined)} "
                f"R={fmt(self.recall, self.recall_undefined)} "
                f"F1={fmt(self.f1, self.precision_undefined or self.recall_undefined)} "
                f"({self.correct}/{self.predicted} predicted, {self.gold} gold)")


def relation_prf(gold: set, predicted: set) -> PRFReport:
    """Standard precision / recall / F1 over annotated relation pairs."""
    gold = set(gold)
    predicted = set(predicted)
    correct = len(gold & predicted)
    p_undef = len(predicted) == 0
    r_undef = len(gold) == 0
    precision = None if p_undef else correct / len(predicted)
    recall = None if r_undef else correct / len(gold)
    if p_undef or r_undef:
        f1 = None
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return PRFReport(correct, len(predicted), len(gold), precision, recall,
                     f1, p_undef, r_undef)


def space_closure(space) -> set[tuple[str, str, str]]:
    """(child, parent, dimension) triples in the closure of a built space."""
    out = set()
    for name, dim in space.dimensions.items():
        parents: dict[str, list[str]] = {}
        for child, parent in dim.edges:
            parents.setdefault(child, []).append(parent)
        for child in parents:
            out.update((child, p, name) for p in reach(parents, (child,)))
    return out


def load_gold_relations(path) -> set[tuple[str, str, str]]:
    out = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = tuple(line.split("\t"))
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected child, parent "
                                 f"and dimension, got {len(fields)} fields")
            out.add(fields)
    return out


# ---------------------------------------------------------------------------
# Question-answering precision
# ---------------------------------------------------------------------------


def qa_precision(gold: dict[str, set[int]], system: dict[str, list[int]],
                 k: int = 5):
    """Micro-averaged precision: correct returned / total returned."""
    correct = 0
    returned = 0
    for question, answers in system.items():
        answers = list(answers)[:k]
        returned += len(answers)
        gold_ids = gold.get(question, set())
        correct += sum(1 for a in answers if a in gold_ids)
    precision = correct / returned if returned else None
    return precision, correct, returned


def load_gold_answers(path) -> dict[str, set[int]]:
    """`Q: <text>` lines followed by `A: <sentence_id>` lines."""
    out: dict[str, set[int]] = {}
    current: str | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if line.startswith("Q:"):
                current = line[2:].strip()
                out.setdefault(current, set())
            elif line.startswith("A:") and current is not None:
                try:
                    out[current].add(int(line[2:]))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {line[2:].strip()!r} "
                                     f"is not a sentence id") from None
    return out


# ---------------------------------------------------------------------------
# Ranking baselines
# ---------------------------------------------------------------------------


def content_lemmas(lemmas) -> list[str]:
    """Filter function words; keep order for the sequence baselines."""
    return [w for w in lemmas
            if w not in FUNCTION_LEMMAS and any(c.isalnum() for c in w)]


@dataclass
class BaselineConfig:
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    gst_min_tile: int = 2


def baseline_rank(method: str, question: list[str],
                  sentences: list[tuple[int, list[str]]],
                  config: BaselineConfig | None = None) -> list[int]:
    """Rank sentence ids by similarity to the question under one method.

    `question` and the sentence token lists are lemma sequences; function
    words are filtered here.  Ties break to the lower sentence id.
    """
    if method not in BASELINE_METHODS:
        raise UnknownMethod(method)
    config = config or BaselineConfig()
    q = content_lemmas(question)
    docs = [(sid, content_lemmas(toks)) for sid, toks in sentences]
    scorer = _SCORERS[method]
    corpus_stats = _CorpusStats(docs)
    scored = [(-scorer(q, d, corpus_stats, config), sid) for sid, d in docs]
    scored.sort()
    return [sid for _, sid in scored]


class _CorpusStats:
    def __init__(self, docs):
        self.n_docs = len(docs)
        self.df = Counter()
        total_len = 0
        vocab = set()
        for _, toks in docs:
            for w in set(toks):
                self.df[w] += 1
            total_len += len(toks)
            vocab.update(toks)
        self.avgdl = total_len / self.n_docs if self.n_docs else 0.0
        self.vocab_size = len(vocab)


def _common_words(q, d, stats, config) -> float:
    return float(len(set(q) & set(d)))


def _jaccard(q, d, stats, config) -> float:
    qs, ds = set(q), set(d)
    union = qs | ds
    return len(qs & ds) / len(union) if union else 0.0


def _tfidf_cosine(q, d, stats, config) -> float:
    if not q or not d:
        return 0.0

    def vector(tokens):
        tf = Counter(tokens)
        return {
            w: tf[w] * math.log(stats.n_docs / stats.df[w])
            for w in tf if stats.df.get(w)
        }

    vq, vd = vector(q), vector(d)
    dot = sum(vq[w] * vd[w] for w in vq.keys() & vd.keys())
    nq = math.sqrt(sum(x * x for x in vq.values()))
    nd = math.sqrt(sum(x * x for x in vd.values()))
    return dot / (nq * nd) if nq and nd else 0.0


def _unigram_lm(q, d, stats, config) -> float:
    """Add-one-smoothed query likelihood, in log space."""
    if not q:
        return float("-inf")
    tf = Counter(d)
    denom = len(d) + stats.vocab_size
    if denom == 0:
        return float("-inf")
    return sum(math.log((tf[w] + 1) / denom) for w in q)


def _bm25(q, d, stats, config) -> float:
    tf = Counter(d)
    k1, b = config.bm25_k1, config.bm25_b
    score = 0.0
    for w in set(q):
        if w not in tf:
            continue
        df = stats.df[w]
        idf = math.log((stats.n_docs - df + 0.5) / (df + 0.5) + 1)
        norm = tf[w] * (k1 + 1) / (
            tf[w] + k1 * (1 - b + b * len(d) / stats.avgdl))
        score += idf * norm
    return score


def _lcs(q, d, stats, config) -> float:
    """Longest common subsequence length over lemma sequences."""
    m, n = len(q), len(d)
    if m == 0 or n == 0:
        return 0.0
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if q[i - 1] == d[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i][j - 1], table[i - 1][j])
    return float(table[m][n])


def _gst(q, d, stats, config) -> float:
    """Greedy string tiling: total length of maximal non-overlapping common
    contiguous tiles of at least `gst_min_tile` tokens."""
    min_tile = config.gst_min_tile
    marked_q = [False] * len(q)
    marked_d = [False] * len(d)
    total = 0
    while True:
        best: tuple[int, int, int] | None = None  # (length, qi, dj)
        for i in range(len(q)):
            if marked_q[i]:
                continue
            for j in range(len(d)):
                if marked_d[j] or q[i] != d[j]:
                    continue
                length = 0
                while (i + length < len(q) and j + length < len(d)
                       and not marked_q[i + length] and not marked_d[j + length]
                       and q[i + length] == d[j + length]):
                    length += 1
                if best is None or length > best[0]:
                    best = (length, i, j)
        if best is None or best[0] < min_tile:
            break
        length, i, j = best
        for off in range(length):
            marked_q[i + off] = True
            marked_d[j + off] = True
        total += length
    return float(total)


_SCORERS = {
    "common_words": _common_words,
    "jaccard": _jaccard,
    "tfidf_cosine": _tfidf_cosine,
    "unigram_lm": _unigram_lm,
    "bm25": _bm25,
    "gst": _gst,
    "lcs": _lcs,
}
