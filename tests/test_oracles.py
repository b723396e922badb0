"""The closed-edge relation, the iterative cycle search and the sentence
splitter against their original implementations, kept here as references.

`np_reaches` and `vp_edge_reaches` scan every harvested edge at every step,
as the package did before an `EdgeSet` was closed when built; `find_cycle`
is the recursive cycle search.  They are copied unchanged except that
`edges.of_kind(kind)` (no longer part of `EdgeSet`) reads
`[e for e in edges if e.kind == kind]`.  The noun pool shares the head
"run" with the verb pool, so the closed relation's first step, which looks
up np edges by head, is checked across kinds.

`split_sentences` and `_inside_abbreviation` are the splitter that scanned
the whole text before each candidate dot, copied unchanged together with
the abbreviation list and boundary pattern they read.
"""

import re
from itertools import combinations

from hypothesis import given, settings, strategies as st

from syntaxspace import corpus
from syntaxspace.space import _find_cycle
from syntaxspace.subsume import (EQUAL, RELATED, SUBCLASS, SUPERCLASS,
                                 SYNTACTIC, UNRELATED, KindMismatch,
                                 SubclassEdge, _modifier_below, _multiset,
                                 _proper_superset, element_subclass,
                                 harvest_edges, phrase_subclass)
from syntaxspace.syntax import NOUN, Phrase, canonical_key

from conftest import np, vp


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def np_reaches(child: Phrase, parent: Phrase, edges) -> bool:
    """child == parent excluded; True when child is below parent through
    any mix of modifier steps and harvested np edges."""
    try:
        if phrase_subclass(child, parent):
            return True
    except KindMismatch:
        return False
    if edges is None or not len(edges):
        return False
    seen = set()
    frontier = [child]
    while frontier:
        current = frontier.pop()
        ckey = canonical_key(current)
        if ckey in seen:
            continue
        seen.add(ckey)
        for edge in [e for e in edges if e.kind == "np"]:
            edge_child = edges.elements[edge.child]
            if not isinstance(edge_child, Phrase):
                continue
            if edge.child == ckey or _modifier_below(current, edge_child):
                target = edges.elements[edge.parent]
                if not isinstance(target, Phrase):
                    continue
                if edge.parent == canonical_key(parent) \
                        or _modifier_below(target, parent):
                    return True
                frontier.append(target)
    return False


def vp_edge_reaches(child_key: str, parent_key: str, edges) -> bool:
    seen = set()
    frontier = [child_key]
    while frontier:
        key = frontier.pop()
        if key in seen:
            continue
        seen.add(key)
        if key == parent_key:
            return True
        frontier.extend(e.parent for e in [e for e in edges if e.kind == "vp"]
                        if e.child == key)
    return child_key != parent_key and parent_key in seen


def find_cycle(pairs: set[tuple[str, str]]):
    """Return the edge set of one cycle, or None."""
    graph: dict[str, list[str]] = {}
    for child, parent in sorted(pairs):
        graph.setdefault(child, []).append(parent)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in
             set(graph) | {p for ps in graph.values() for p in ps}}
    stack_path: list[str] = []

    def visit(node):
        color[node] = GREY
        stack_path.append(node)
        for nxt in graph.get(node, ()):
            if color[nxt] == GREY:
                start = stack_path.index(nxt)
                cycle_nodes = stack_path[start:] + [nxt]
                return {(cycle_nodes[k], cycle_nodes[k + 1])
                        for k in range(len(cycle_nodes) - 1)}
            if color[nxt] == WHITE:
                found = visit(nxt)
                if found:
                    return found
        stack_path.pop()
        color[node] = BLACK
        return None

    for node in sorted(color):
        if color[node] == WHITE:
            found = visit(node)
            if found:
                return found
    return None


# Abbreviations that do not end a sentence even when followed by a capital.
_ABBREVIATIONS = frozenset(
    ["e.g", "i.e", "fig", "figs", "et al", "al", "etc", "cf", "vs", "dr",
     "mr", "mrs", "ms", "prof", "no", "eq", "sec", "ref", "refs", "approx"]
)

_BOUNDARY = re.compile(r"([.!?])(\s+)(?=[\"'(\[]?[A-Z0-9])")


def split_sentences(raw: str) -> list[str]:
    """Split raw text into sentence strings.

    Boundaries are {. ! ?} followed by whitespace and a capital or digit,
    except after a known abbreviation or a single-initial ("J. Smith").
    """
    if not raw or not raw.strip():
        return []
    text = re.sub(r"\s+", " ", raw.strip())
    sentences = []
    start = 0
    for match in _BOUNDARY.finditer(text):
        end = match.end(1)
        if match.group(1) == "." and _inside_abbreviation(text, match.start(1)):
            continue
        piece = text[start:end].strip()
        if piece:
            sentences.append(piece)
        start = match.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _inside_abbreviation(text: str, dot: int) -> bool:
    before = text[:dot]
    word = re.search(r"[A-Za-z.]+$", before)
    if not word:
        return False
    token = word.group(0).lower().rstrip(".")
    if token in _ABBREVIATIONS:
        return True
    if f"{token}".replace(".", "") in ("eg", "ie"):
        return True
    # Single capital initial, e.g. "J." in "J. Smith".
    if len(token) == 1 and word.group(0)[0].isupper():
        return True
    # "et al." — lone "al" already covered; also catch "et al" kept together.
    return before.lower().endswith("et al")


def oracle_relation(e1: Phrase, e2: Phrase, edges) -> str:
    """`element_subclass` for noun and verb phrases (no synonyms), over the
    reference walks."""
    if e1.kind == NOUN:
        if canonical_key(e1) == canonical_key(e2):
            return EQUAL
        if np_reaches(e1, e2, edges):
            return SUBCLASS
        if np_reaches(e2, e1, edges):
            return SUPERCLASS
        return RELATED if e1.head == e2.head else UNRELATED
    if e1.head == e2.head:
        m1, m2 = _multiset(e1), _multiset(e2)
        if m1 == m2:
            return EQUAL
        if _proper_superset(m1, m2):
            return SUBCLASS
        if _proper_superset(m2, m1):
            return SUPERCLASS
        return RELATED
    k1, k2 = canonical_key(e1), canonical_key(e2)
    if vp_edge_reaches(k1, k2, edges):
        return SUBCLASS
    if vp_edge_reaches(k2, k1, edges):
        return SUPERCLASS
    return UNRELATED


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_NP_MODS = ("neural", "fast", "deep")
NOUNS = [np(head, *mods) for head in ("model", "system", "method")
         for size in range(3) for mods in combinations(_NP_MODS, size)] \
    + [np("run"), np("run", "fast"), np("run", "fast", "deep")]
VERBS = [vp(head, *mods) for head in ("run", "sprint", "jog", "move")
         for mods in ((), ("quickly",))]


def _pairs(pool):
    index = st.integers(0, len(pool) - 1)
    return st.lists(st.tuples(index, index), max_size=12)


@st.composite
def harvested(draw):
    """Random np and vp edges, plus a chain in each pool that may close
    into a cycle; repeated and reversed pairs exercise conflict drops."""
    triples = []
    for kind, pool in (("np", NOUNS), ("vp", VERBS)):
        pairs = draw(_pairs(pool))
        chain = draw(st.lists(st.integers(0, len(pool) - 1), max_size=6,
                              unique=True))
        pairs += list(zip(chain, chain[1:]))
        if len(chain) > 2 and draw(st.booleans()):
            pairs.append((chain[-1], chain[0]))
        for sid, (i, j) in enumerate(pairs):
            child, parent = pool[i], pool[j]
            edge = SubclassEdge(canonical_key(child), canonical_key(parent),
                                kind, SYNTACTIC, sid)
            triples.append((edge, child, parent))
    return harvest_edges(triples)


@settings(max_examples=60, deadline=None)
@given(harvested())
def test_element_subclass_matches_reference_walks(edges):
    for pool in (NOUNS, VERBS):
        for e1 in pool:
            for e2 in pool:
                assert element_subclass(e1, e2, edges) \
                    == oracle_relation(e1, e2, edges), (e1, e2)


_NODE = st.integers(0, 59).map(lambda i: f"n{i:02d}")


@settings(max_examples=200, deadline=None)
@given(st.sets(st.tuples(_NODE, _NODE), max_size=90))
def test_find_cycle_matches_recursive_search(pairs):
    assert _find_cycle(pairs) == find_cycle(pairs)


def _mixed_case(word):
    flags = st.lists(st.booleans(), min_size=len(word), max_size=len(word))
    return flags.map(lambda up: "".join(c.upper() if u else c
                                        for c, u in zip(word, up)))


_ABBREVIATION_WORDS = sorted(_ABBREVIATIONS | {"eg", "ie", "e..g"})
_WORDS = st.one_of(
    st.sampled_from(_ABBREVIATION_WORDS).flatmap(_mixed_case),
    st.sampled_from(["et al", "J", "A", "x", "LexRank", "It", "works",
                     "the", "St", "U.S", "a.b", "al-Khwarizmi"]),
    st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,2})?", fullmatch=True),
)
_PIECES = st.tuples(
    st.sampled_from(["", "", '"', "'", "(", "["]),
    _WORDS,
    st.sampled_from(["", "", ".", ".", "..", "!", "?", ")", "].", '."',
                     ".)", "?!"]),
)
_SPACES = st.text(alphabet=" \t\n", min_size=1, max_size=3)


@st.composite
def abbreviation_texts(draw):
    parts = [draw(st.text(alphabet=" \t\n", max_size=2))]
    for prefix, word, suffix in draw(st.lists(_PIECES, max_size=25)):
        parts += [prefix, word, suffix, draw(_SPACES)]
    return "".join(parts)


@settings(max_examples=200, deadline=None)
@given(abbreviation_texts())
def test_split_sentences_matches_reference(text):
    assert corpus.split_sentences(text) == split_sentences(text)
