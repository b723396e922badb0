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
from functools import cached_property
from itertools import chain, compress
from operator import countOf, itemgetter, mul, neg, not_

from .corpus import gc_paused
from .lexicon import FUNCTION_LEMMAS
from .space import DIMENSIONS
from .subsume import reach
from .syntax import KEY_PREFIXES

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
    f1: float | None  # None, like precision and recall, when undefined

    def line(self) -> str:
        def fmt(x):
            return "undefined" if x is None else f"{x:.2%}"
        return (f"P={fmt(self.precision)} R={fmt(self.recall)} "
                f"F1={fmt(self.f1)} "
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
    return PRFReport(correct, len(predicted), len(gold), precision, recall, f1)


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
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = tuple(line.split("\t"))
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected child, parent "
                                 f"and dimension, got {len(fields)} fields")
            if fields[2] not in DIMENSIONS:
                raise ValueError(f"{path}:{lineno}: {fields[2]!r} is not a "
                                 f"dimension ({', '.join(DIMENSIONS)})")
            if not (fields[0] and fields[1]):
                raise ValueError(f"{path}:{lineno}: empty child or parent")
            for key in fields[:2]:
                if not (key.startswith(KEY_PREFIXES) and key.endswith(")")
                        and "|" in key):
                    raise ValueError(f"{path}:{lineno}: {key!r} is not a "
                                     f"canonical key such as np(head|mods)")
            if fields[0] == fields[1]:
                raise ValueError(f"{path}:{lineno}: child equals parent")
            out.add(fields)
    return out


# ---------------------------------------------------------------------------
# Question-answering precision
# ---------------------------------------------------------------------------


def qa_precision(gold: dict[str, set[int]], system: dict[str, list[int]],
                 k: int = 5):
    """Micro-averaged precision, correct / returned, over top k >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, not {k}")
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
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if line.startswith("Q:"):
                current = line[2:].strip()
                if not current:
                    raise ValueError(f"{path}:{lineno}: empty question")
                out.setdefault(current, set())
            elif line.startswith("A:"):
                if current is None:
                    raise ValueError(f"{path}:{lineno}: answer before the "
                                     f"first question")
                try:
                    out[current].add(int(line[2:]))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {line[2:].strip()!r} "
                                     f"is not a sentence id") from None
    return out


# ---------------------------------------------------------------------------
# Ranking baselines
# ---------------------------------------------------------------------------


class _ContentMemo(dict):
    """lemma -> whether it is a content lemma; emptied at `1 << 16` entries."""

    def __missing__(self, w):
        if len(self) >= 1 << 16:
            self.clear()
        self[w] = keep = w not in FUNCTION_LEMMAS and (
            w.isalnum() or any(c.isalnum() for c in w))
        return keep


_is_content = _ContentMemo()


def content_lemmas(lemmas) -> list[str]:
    """Filter function words; keep order for the sequence baselines."""
    return list(filter(_is_content.__getitem__, lemmas))


@dataclass
class BaselineConfig:
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    gst_min_tile: int = 2


class BaselineIndex:
    """`(sentence id, lemmas)` documents for any number of `baseline_rank`
    calls.  Lemma lists and tuples are kept by reference and must not change
    while the index is in use; other iterables are copied to lists, since
    the lemmas are read more than once.  A document's content lemmas are
    filtered the first time a scorer reads them, and the corpus statistics
    are computed on use.
    """

    def __init__(self, sentences):
        pairs = list(sentences)
        self.sids = list(map(itemgetter(0), pairs))
        # each document's lemmas: as given until filtered, then its content
        self.lemmas = list(map(itemgetter(1), pairs))
        if not {list, tuple}.issuperset(map(type, self.lemmas)):
            self.lemmas = [d if type(d) in (list, tuple) else list(d)
                           for d in self.lemmas]
        self.n_docs = len(pairs)
        self._unread = [True] * self.n_docs
        self._sharing = None, ()  # the last question's lemma set, positions
        self.vectors = {}  # position -> tf-idf vector and norm
        self.bm25_df = {}  # question lemma -> df

    def sharing(self, q) -> tuple[int, ...]:
        """Positions of the documents holding a lemma of `q`; `q` holds
        content lemmas only, so a document's lemmas tell before filtering.
        Kept for the last lemma set, which each method of a question asks."""
        qs, (last, positions) = set(q), self._sharing
        if qs != last:
            positions = tuple(compress(range(self.n_docs), map(
                not_, map(qs.isdisjoint, self.lemmas))))
            self._sharing = qs, positions
        return positions

    def content(self, positions) -> list[list[str]]:
        """Content lemmas of the documents at `positions`."""
        lemmas, unread = self.lemmas, self._unread
        for i in compress(positions, map(unread.__getitem__, positions)):
            lemmas[i] = content_lemmas(lemmas[i])
            unread[i] = False
        return list(map(lemmas.__getitem__, positions))

    @cached_property
    def by_sid(self) -> list[int]:
        """Positions in sentence id order; equal ids in corpus order."""
        return sorted(range(self.n_docs), key=self.sids.__getitem__)

    @property
    def docs(self) -> list[tuple[int, list[str]]]:
        return list(zip(self.sids, self.content(range(self.n_docs))))

    @cached_property
    def df(self) -> Counter:
        df = Counter(chain.from_iterable(map(set, self.lemmas)))
        return Counter({w: n for w, n in df.items() if _is_content[w]})

    @cached_property
    def idf(self) -> dict[str, float]:
        return {w: math.log(self.n_docs / n) for w, n in self.df.items()}

    @cached_property
    def avgdl(self) -> float:
        tokens = sum(map(_is_content.__getitem__,
                         chain.from_iterable(self.lemmas)))
        return tokens / self.n_docs if self.n_docs else 0.0

    @cached_property
    def vocab_size(self) -> int:
        return len(set().union(*self.content(range(self.n_docs))))


@gc_paused
def baseline_rank(method: str, question: list[str],
                  sentences: BaselineIndex | list[tuple[int, list[str]]],
                  config: BaselineConfig | None = None) -> list[int]:
    """Rank sentence ids by similarity to the question under one method.

    `question` and the sentence token lists are lemma sequences; function
    words are filtered here.  `sentences` may be a prebuilt
    `BaselineIndex`.  Ties break to the lower sentence id.
    """
    if method not in BASELINE_METHODS:
        raise UnknownMethod(method)
    index = sentences if isinstance(sentences, BaselineIndex) \
        else BaselineIndex(sentences)
    q = content_lemmas(question)
    scorer, config = _SCORERS[method], config or BaselineConfig()
    if method == "unigram_lm":  # the one method that scores every document
        keys = list(map(neg, scorer(q, index, config, range(index.n_docs))))
    else:
        # sharing no lemma scores 0.0 (sorts with -0.0)
        scored = index.sharing(q)
        keys = [0.0] * index.n_docs
        for i, score in zip(scored, scorer(q, index, config, scored)):
            keys[i] = -score
    if math.isnan(sum(keys)):  # a NaN orders with nothing: keep the pairs
        return list(map(itemgetter(1), sorted(zip(keys, index.sids))))
    # a stable sort by key of the documents in id order orders as the
    # (key, id) pairs do, and compares floats alone
    return list(map(index.sids.__getitem__,
                    sorted(index.by_sid, key=keys.__getitem__)))


def _common_words(q, index, config, positions):
    return map(float, map(len, map(set(q).intersection,
                                   index.content(positions))))


def _jaccard(q, index, config, positions):
    qs = set(q)
    return [len(qs.intersection(d)) / len(qs.union(d))
            for d in index.content(positions)]


def _tfidf_cosine(q, index, config, positions):
    idf, memo = index.idf, index.vectors

    def vector(tokens):
        tf = Counter(tokens)
        return {w: tf[w] * idf[w] for w in tf if w in idf}
    vq = vector(q)
    nq = math.sqrt(sum(map(mul, vq.values(), vq.values())))
    for i, d in zip(positions, index.content(positions)):
        if i not in memo:
            # vector(d) without a Counter: each lemma of a document has an
            # idf, and the keys come in the same order
            vd = dict(zip(d, map(idf.__getitem__, d)))
            if len(vd) < len(d):  # a lemma repeats
                vd = {w: d.count(w) * weight for w, weight in vd.items()}
            memo[i] = vd, math.sqrt(sum(map(mul, vd.values(), vd.values())))
    scores = []
    for vd, nd in map(memo.__getitem__, positions):
        both = vq.keys() & vd.keys()
        dot = sum(map(mul, map(vq.__getitem__, both),
                      map(vd.__getitem__, both)))
        scores.append(dot / (nq * nd) if nq and nd else 0.0)
    return scores


def _unigram_lm(q, index, config, positions):
    """Add-one-smoothed query likelihood, in log space.  A document that
    shares no lemma with the question scores by its length alone, so each
    such length is summed once."""
    qs, unshared, vocab_size = set(q), {}, index.vocab_size

    def score(d):
        denom = len(d) + vocab_size
        if not (q and denom):
            return float("-inf")
        if qs.isdisjoint(d):
            if denom not in unshared:
                unshared[denom] = sum(math.log(1 / denom) for w in q)
            return unshared[denom]
        return sum(math.log((d.count(w) + 1) / denom) for w in q)
    return map(score, index.content(positions))


def _bm25(q, index, config, positions):
    k1, b = config.bm25_k1, config.bm25_b
    docs = index.content(positions)
    # every document holding a lemma of the question is at `positions`
    qs, df = set(q), index.bm25_df
    if not df.keys() >= qs:
        counts = Counter(chain.from_iterable(map(qs.intersection, docs)))
        df.update((w, counts[w]) for w in qs)
    idf = {}
    for w in qs:  # sums in string-hash order, see README
        idf[w] = math.log((index.n_docs - df[w] + 0.5) / (df[w] + 0.5) + 1)

    def score(d):
        total = 0.0
        for w, weight in idf.items():
            if w in d:
                tf = d.count(w)
                total += weight * (tf * (k1 + 1) / (
                    tf + k1 * (1 - b + b * len(d) / index.avgdl)))
        return total
    return map(score, docs)


def _lcs(q, d) -> float:
    """Longest common subsequence length over lemma sequences."""
    if len(d) == 1:
        return float(d[0] in q)
    row = [0] * (len(d) + 1)
    for w in q:
        above, row = row, [0]
        for j, v in enumerate(d):
            row.append(above[j] + 1 if w == v else max(row[j], above[j + 1]))
    return float(row[-1])


def _lcs_scorer(q, index, config, positions):
    # only matching positions add to an LCS (Hunt & Szymanski, 1977), and a
    # lemma that is not in the question matches none
    qs = set(q)
    return [_lcs(q, [w for w in d if w in qs])
            for d in index.content(positions)]


def _gst(q, d, min_tile) -> float:
    """Greedy string tiling: total length of maximal non-overlapping common
    contiguous tiles of at least `min_tile` tokens."""
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
        marked_q[i:i + length] = [True] * length
        marked_d[j:j + length] = [True] * length
        total += length
    return float(total)


def _gst_scorer(q, index, config, positions):
    # a tile covers `gst_min_tile` positions of the document, each holding a
    # lemma of the question, so a document with fewer such positions has none
    qs, least = set(q), config.gst_min_tile
    return [_gst(q, d, least) if countOf(map(qs.__contains__, d), True)
            >= least else 0.0 for d in index.content(positions)]


# method -> scorer(q, index, config, positions): the scores of the documents
# at `positions`, in order; `unigram_lm` is given all of them
_SCORERS = {
    "common_words": _common_words,
    "jaccard": _jaccard,
    "tfidf_cosine": _tfidf_cosine,
    "unigram_lm": _unigram_lm,
    "bm25": _bm25,
    "gst": _gst_scorer,
    "lcs": _lcs_scorer,
}
BASELINE_METHODS = tuple(_SCORERS)
