"""Subclass decisions between phrases, clauses, sentences and questions.

Two sources of evidence are combined:

* the modifier rules — same head, and the more specific side carries a
  proper superset of the other side's modifiers (as lemma multisets);
* harvested syntactic-pattern edges ("X is an Y", "Y such as X", ...),
  consulted at every noun-phrase / verb-phrase comparison point.  An
  `EdgeSet` closes its edges once, when it is built, and answers every
  "is A below B" with one `up()` lookup.

Composite rules (verb phrases, prepositional phrases, clauses, sentences,
questions) use a product order: every aligned pair must be the same or a
subclass, and at least one pair must be strictly more specific.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import TaggedSentence
from .syntax import (ADJECTIVE, ADVERB, Adverbial, Clause, Element, NOUN,
                     ObjectGroup, PREPOSITIONAL, PRONOUN, Phrase,
                     SentenceSyntax, VERB, canonical_key, _Parser,
                     _nominal_start)

EQUAL = "equal"
SUBCLASS = "subclass"
SUPERCLASS = "superclass"
RELATED = "related"
UNRELATED = "unrelated"

MODIFIER = "modifier"
SYNTACTIC = "syntactic_pattern"


class KindMismatch(TypeError):
    """Compared elements have different lexical categories."""


@dataclass(frozen=True)
class SubclassEdge:
    child: str
    parent: str
    kind: str  # "np" | "vp"
    source: str = SYNTACTIC
    evidence: int | None = None  # sentence id where detected


class SynonymTable:
    """Symmetric lemma synonym sets; empty by default."""

    def __init__(self, pairs=()):
        self._map: dict[str, set[str]] = {}
        for a, b in pairs:
            self._map.setdefault(a, set()).add(b)
            self._map.setdefault(b, set()).add(a)

    @classmethod
    def load(cls, path) -> "SynonymTable":
        pairs = []
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) < 2:
                    raise ValueError(f"{path}:{lineno}: expected two lemmas")
                pairs.append((fields[0], fields[1]))
        return cls(pairs)

    def related(self, a: str, b: str) -> bool:
        return b in self._map.get(a, ())

    def synonyms(self, lemma: str) -> frozenset[str]:
        return frozenset(self._map.get(lemma, ()))

    def __len__(self) -> int:
        return len(self._map)


class EdgeSet:
    """Harvested subclass edges, the representative element per key, and
    their closure, all built by the constructor and never changed after.

    Conflicting directions (both a<b and b<a harvested) are dropped and
    logged so that antisymmetry holds downstream.
    """

    def __init__(self, triples=()):
        self.edges: dict[tuple[str, str], SubclassEdge] = {}
        self.elements: dict[str, Element] = {}
        self.dropped: list[tuple[str, str]] = []
        for edge, child, parent in triples:
            pair, reverse = (edge.child, edge.parent), (edge.parent, edge.child)
            if edge.child == edge.parent or pair in self.edges:
                continue
            if reverse in self.edges:
                del self.edges[reverse]
                self.dropped.append(pair)
                continue
            self.edges[pair] = edge
            self.elements.setdefault(edge.child, child)
            self.elements.setdefault(edge.parent, parent)
        self._parents: dict[str, set[str]] = {}
        self._np_children: dict[str, set[str]] = {}  # head -> child keys
        for edge in self.edges.values():
            self._parents.setdefault(edge.child, set()).add(edge.parent)
            if edge.kind == "np":
                head = self.elements[edge.child].head
                self._np_children.setdefault(head, set()).add(edge.child)
        steps = {k: self._step(e, k) for k, e in self.elements.items()}
        self._closure = {k: frozenset(reach(steps, (k,))) for k in steps}

    def _step(self, element: Phrase, key: str) -> set[str]:
        """Keys one harvested edge above `element` (whose key is `key`):
        edges from the key itself, and np edges from any phrase the element
        is modifier-below.  The modifier rule needs equal heads, so only
        np children with the element's head are tried."""
        out = set(self._parents.get(key, ()))
        for child in self._np_children.get(element.head, ()):
            if _modifier_below(element, self.elements[child]):
                out |= self._parents[child]
        return out

    def up(self, element: Phrase) -> frozenset[str]:
        """Keys reached from `element` in one or more harvested steps."""
        key = canonical_key(element)
        if key in self._closure:
            return self._closure[key]
        first = self._step(element, key)
        return frozenset(first).union(*(self._closure[k] for k in first))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges.values())


def reach(successors: dict, starts) -> set:
    """Nodes reached from `starts` in one or more steps; `successors` maps a
    node to the nodes one step on.  A start is included only on a cycle."""
    seen = set()
    frontier = list(starts)
    while frontier:
        for nxt in successors.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# Modifier rule: phrases decomposed as (pre, head, post)
# ---------------------------------------------------------------------------


def _contains(larger: tuple[str, ...], smaller: tuple[str, ...]) -> bool:
    """True when `larger`, as a multiset of lemmas, contains `smaller`."""
    if len(smaller) <= 1:
        return not smaller or smaller[0] in larger
    counts = Counter(larger)
    counts.subtract(smaller)
    return min(counts.values()) >= 0


def phrase_subclass(p1: Phrase, p2: Phrase) -> bool:
    """Modifier rule: equal heads and p2's modifiers a proper subset of p1's.

    Equal phrases are merged elsewhere, never subclassed, hence proper: a
    proper superset is a containing multiset with more elements."""
    if not isinstance(p1, Phrase) or not isinstance(p2, Phrase):
        raise KindMismatch("phrase_subclass expects phrases")
    if p1.kind != p2.kind:
        raise KindMismatch(f"{p1.kind} vs {p2.kind}")
    if p1.kind not in (NOUN, ADJECTIVE, ADVERB, VERB):
        raise KindMismatch(f"modifier rule does not apply to {p1.kind}")
    if p1.head != p2.head:
        return False
    m1, m2 = p1.modifiers(), p2.modifiers()
    return len(m1) > len(m2) and _contains(m1, m2)


def _np_reaches(child: Phrase, parent: Phrase, edges: EdgeSet) -> bool:
    """child == parent excluded; True when noun phrase child is below noun
    phrase parent through any mix of modifier steps and harvested np
    edges.  Only a reached phrase with the parent's head can be
    modifier-below it."""
    if phrase_subclass(child, parent):
        return True
    if not edges:
        return False
    parent_key = canonical_key(parent)
    elements = edges.elements
    return any(k == parent_key or (elements[k].head == parent.head
                                   and _modifier_below(elements[k], parent))
               for k in edges.up(child))


def _modifier_below(child: Phrase, parent: Phrase) -> bool:
    try:
        return phrase_subclass(child, parent)
    except KindMismatch:
        return False


# ---------------------------------------------------------------------------
# Verb phrases: (action, optional noun-phrase complement)
# ---------------------------------------------------------------------------


def _as_action_np(v) -> tuple[Phrase, Element | None]:
    if isinstance(v, tuple):
        return v[0], v[1]
    if isinstance(v, Clause) and v.subject is None and v.action is not None:
        return v.action, v.object
    if isinstance(v, Phrase) and v.kind == VERB:
        return v, None
    raise KindMismatch("not a verb phrase")


def _action_at_or_below(a1: Phrase, a2: Phrase, edges: EdgeSet,
                        syn: SynonymTable) -> str | None:
    """Same or synonym heads compare modifier multisets; other heads meet
    only through harvested verb-phrase edges ("to sprint is to run")."""
    if a1.head == a2.head or (syn is not None and syn.related(a1.head, a2.head)):
        m1, m2 = a1.modifiers(), a2.modifiers()
        if len(m1) < len(m2) or not _contains(m1, m2):
            return None
        return SUBCLASS if len(m1) > len(m2) else EQUAL
    if edges and canonical_key(a2) in edges.up(a1):
        return SUBCLASS
    return None


def verb_phrase_subclass(v1, v2, edges: EdgeSet | None = None,
                         syn: SynonymTable | None = None) -> bool:
    """Verb phrases compare component-wise: each pair same-or-subclass,
    at least one strictly more specific."""
    a1, np1 = _as_action_np(v1)
    a2, np2 = _as_action_np(v2)
    pairs = (_action_at_or_below(a1, a2, edges, syn),
             _optional(at_or_below, np1, np2, edges, syn))
    return None not in pairs and SUBCLASS in pairs


def _optional(relation, e1, e2, edges, syn) -> str | None:
    """`relation` of two optional slots: both empty Equal, one empty None."""
    if e1 is None and e2 is None:
        return EQUAL
    if e1 is None or e2 is None:
        return None
    return relation(e1, e2, edges, syn)


# ---------------------------------------------------------------------------
# Prepositional phrases
# ---------------------------------------------------------------------------


def prep_phrase_subclass(q1: Phrase, q2: Phrase,
                         edges: EdgeSet | None = None) -> bool:
    """Same preposition, and the inner noun phrase strictly below."""
    if not (isinstance(q1, Phrase) and isinstance(q2, Phrase)
            and q1.kind == PREPOSITIONAL and q2.kind == PREPOSITIONAL):
        raise KindMismatch("prep_phrase_subclass expects prepositional phrases")
    if q1.preposition() != q2.preposition():
        return False
    return at_or_below(_inner_np(q1), _inner_np(q2), edges) == SUBCLASS


def _inner_np(pp: Phrase) -> Phrase:
    return Phrase(NOUN, pp.head, pp.pre[1:], pp.post)


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------


def clause_subclass(c1: Clause, c2: Clause, edges: EdgeSet | None = None,
                    syn: SynonymTable | None = None) -> bool:
    """Equal lead words plus the component-wise product order."""
    if not (isinstance(c1, Clause) and isinstance(c2, Clause)):
        raise KindMismatch("clause_subclass expects clauses")
    if c1.lead != c2.lead:
        return False
    return _tuple_subclass((c1.subject, c2.subject), (c1.action, c2.action),
                           (c1.object, c2.object), c1.adverbials,
                           c2.adverbials, edges, syn, object_as_group=False)


# ---------------------------------------------------------------------------
# Sentences and questions
# ---------------------------------------------------------------------------


def _adverbial_pairs(advs1, advs2, edges, syn):
    """Kind-aligned pairing for the n>=m prefix condition.

    Returns (pair relations, number of unmatched extras on the child side)
    or None when the parent side has adverbials the child cannot match.
    """
    if len(advs1) < len(advs2):
        return None
    remaining = list(advs1)
    relations = []
    for target in advs2:
        best_idx = None
        best_rel = None
        for idx, cand in enumerate(remaining):
            if cand.kind != target.kind:
                continue
            rel = at_or_below(cand.content, target.content, edges, syn)
            if rel is not None:
                if best_idx is None or (best_rel == SUBCLASS and rel == EQUAL):
                    best_idx, best_rel = idx, rel
                if rel == EQUAL:
                    break
        if best_idx is None:
            return None
        relations.append(best_rel)
        remaining.pop(best_idx)
    return relations, len(remaining)


def _tuple_subclass(subj_pair, act_pair, obj_pair, advs1, advs2, edges, syn,
                    object_as_group: bool) -> bool:
    relations = [
        _optional(at_or_below, subj_pair[0], subj_pair[1], edges, syn),
        _optional(at_or_below, act_pair[0], act_pair[1], edges, syn),
    ]
    if object_as_group:
        relations.append(object_group_relation(obj_pair[0], obj_pair[1],
                                               edges, syn))
    else:
        relations.append(_optional(at_or_below, obj_pair[0], obj_pair[1],
                                   edges, syn))
    adv = _adverbial_pairs(advs1, advs2, edges, syn)
    if adv is None:
        return False
    pair_relations, extra = adv
    relations.extend(pair_relations)
    if any(r not in (EQUAL, SUBCLASS) for r in relations):
        return False
    return SUBCLASS in relations or extra > 0


def sentence_subclass(s1: SentenceSyntax, s2: SentenceSyntax,
                      edges: EdgeSet | None = None,
                      syn: SynonymTable | None = None) -> bool:
    """Component-wise same-or-subclass with n>=m adverbials and at least
    one strictly more specific pair (an extra adverbial counts)."""
    return _tuple_subclass((s1.subject, s2.subject), (s1.action, s2.action),
                           (s1.object, s2.object), s1.adverbials,
                           s2.adverbials, edges, syn, object_as_group=True)


def question_subclass(q1, q2, edges: EdgeSet | None = None,
                      syn: SynonymTable | None = None) -> bool:
    """The sentence comparison plus equal interrogative words (and
    question kinds)."""
    if q1.interrogative != q2.interrogative or q1.kind != q2.kind:
        return False
    return _tuple_subclass((q1.subject, q2.subject), (q1.action, q2.action),
                           (q1.object, q2.object), q1.adverbials,
                           q2.adverbials, edges, syn, object_as_group=True)


def object_group_relation(g1: ObjectGroup | None, g2: ObjectGroup | None,
                          edges=None, syn=None) -> str:
    """Slot-wise object comparison; indirect position differences are
    immaterial ("send X to Y" vs "send Y the X")."""
    if g1 is None and g2 is None:
        return EQUAL
    if g1 is None or g2 is None:
        return UNRELATED
    relations = [
        _optional(compare_elements, g1.direct, g2.direct, edges, syn),
        _optional(compare_elements, g1.indirect, g2.indirect, edges, syn),
        _optional(compare_elements, g1.complement, g2.complement, edges, syn),
    ]
    if any(r not in (EQUAL, SUBCLASS) for r in relations):
        if all(r in (EQUAL, SUPERCLASS) for r in relations):
            return SUPERCLASS
        return UNRELATED
    if all(r == EQUAL for r in relations):
        return EQUAL
    return SUBCLASS


# ---------------------------------------------------------------------------
# Integrated dispatcher
# ---------------------------------------------------------------------------


def at_or_below(e1, e2, edges: EdgeSet | None = None,
                syn: SynonymTable | None = None) -> str | None:
    """Equal when e1 is the same as e2, Subclass when e1 is strictly below
    e2, otherwise None (also across kinds).  One direction only."""
    if isinstance(e1, Phrase):
        if not isinstance(e2, Phrase) or e1.kind != e2.kind:
            return None
        if e1.kind == VERB:
            return _action_at_or_below(e1, e2, edges, syn)
        if e1.kind == PRONOUN:
            return EQUAL if e1.head == e2.head else None
        # a phrase key embeds the head, so different heads are never equal
        if e1.head == e2.head and canonical_key(e1) == canonical_key(e2):
            return EQUAL
        if e1.kind == NOUN:
            below = _np_reaches(e1, e2, edges)
        elif e1.kind == PREPOSITIONAL:
            below = prep_phrase_subclass(e1, e2, edges)
        else:  # adjective / adverb phrases: plain modifier rule
            below = phrase_subclass(e1, e2)
        return SUBCLASS if below else None
    if isinstance(e1, Clause):
        if not isinstance(e2, Clause):
            return None
        if canonical_key(e1) == canonical_key(e2):
            return EQUAL
        return SUBCLASS if clause_subclass(e1, e2, edges, syn) else None
    if isinstance(e1, Adverbial) and isinstance(e2, Adverbial) \
            and e1.kind == e2.kind:
        return at_or_below(e1.content, e2.content, edges, syn)
    return None


def element_subclass(e1: Element, e2: Element, edges: EdgeSet | None = None,
                     syn: SynonymTable | None = None) -> str:
    """Relation of two same-kind elements: Equal / Subclass / Superclass /
    Related / Unrelated, from `at_or_below` asked both ways.  Raises
    KindMismatch across lexical categories; adverbials of different kinds
    are Unrelated, otherwise their contents decide."""
    if isinstance(e1, Phrase) and isinstance(e2, Phrase):
        if e1.kind != e2.kind:
            raise KindMismatch(f"{e1.kind} vs {e2.kind}")
    elif isinstance(e1, Adverbial) and isinstance(e2, Adverbial):
        if e1.kind != e2.kind:
            return UNRELATED
        return element_subclass(e1.content, e2.content, edges, syn)
    elif not (isinstance(e1, Clause) and isinstance(e2, Clause)):
        raise KindMismatch(f"{type(e1).__name__} vs {type(e2).__name__}")
    relation = at_or_below(e1, e2, edges, syn)
    if relation is not None:
        return relation
    if at_or_below(e2, e1, edges, syn) is not None:
        return SUPERCLASS
    if isinstance(e1, Phrase) and e1.kind != PRONOUN and (
            (e1.head == e2.head and e1.preposition() == e2.preposition())
            or (e1.kind == VERB and syn is not None
                and syn.related(e1.head, e2.head))):
        return RELATED
    return UNRELATED


def compare_elements(e1, e2, edges=None, syn=None) -> str:
    """Like element_subclass but returns Unrelated across kinds."""
    try:
        return element_subclass(e1, e2, edges, syn)
    except KindMismatch:
        return UNRELATED


# ---------------------------------------------------------------------------
# Syntactic-pattern harvesting
# ---------------------------------------------------------------------------


def scan_syntactic_patterns(sentence: TaggedSentence,
                            parsed: SentenceSyntax | None) -> list[tuple[SubclassEdge, Element, Element]]:
    """Emit subclass edges found by surface patterns in one sentence.

    Noun-phrase patterns: "X is a/an Y", "X are Y (that ...)",
    "Y such as X", "Y including X", "X and other Y".
    Verb-phrase pattern: "to X is to Y".
    Returns (edge, child element, parent element) triples.
    """
    out = []
    out.extend(_scan_copula(sentence, parsed))
    out.extend(_scan_list_patterns(sentence))
    out.extend(_scan_infinitive_pattern(parsed, sentence.sentence_id))
    return out


def _scan_copula(sentence, parsed):
    if parsed is None or parsed.action is None or parsed.action.head != "be":
        return []
    if parsed.polarity != "affirmative" or parsed.action.pre:
        return []
    subject, group = parsed.subject, parsed.object
    if group is None or group.indirect is not None or group.complement is not None:
        return []
    predicate = group.direct
    if not (isinstance(subject, Phrase) and subject.kind == NOUN):
        return []
    if not (isinstance(predicate, Phrase) and predicate.kind == NOUN):
        return []
    tokens = sentence.tokens
    det = tokens[predicate.span[0]].lemma if predicate.span[0] < len(tokens) else ""
    head_plural = any(
        t.pos in ("NNS", "NNPS") and t.lemma == predicate.head
        for t in tokens[predicate.span[0]:predicate.span[1]]
    )
    if det not in ("a", "an") and not head_plural:
        return []
    parent = _strip_relative(predicate)
    child = _strip_pattern_tails(subject)
    edge = SubclassEdge(canonical_key(child), canonical_key(parent), "np",
                        SYNTACTIC, sentence.sentence_id)
    return [(edge, child, parent)]


def _strip_relative(phrase: Phrase) -> Phrase:
    """Drop a flattened "that ..." relative from the post-head: the pattern
    parent is the bare nominal ("dogs that guard" -> "dogs")."""
    if "that" in phrase.post:
        cut = phrase.post.index("that")
        return Phrase(phrase.kind, phrase.head, phrase.pre, phrase.post[:cut],
                      phrase.span)
    return phrase


def _strip_pattern_tails(phrase: Phrase) -> Phrase:
    for marker in ("such", "include"):
        if marker in phrase.post:
            cut = phrase.post.index(marker)
            return Phrase(phrase.kind, phrase.head, phrase.pre,
                          phrase.post[:cut], phrase.span)
    return phrase


def _scan_list_patterns(sentence):
    tokens = sentence.tokens
    parser = _Parser(tokens)
    out = []
    for i, tok in enumerate(tokens):
        # "NP_parent such as NP_child (, NP_child)*"
        if tok.lemma == "such" and i + 1 < len(tokens) \
                and tokens[i + 1].lemma == "as":
            parent = _np_ending_before(parser, tokens, i)
            if parent is not None:
                for child in _np_list(parser, tokens, i + 2):
                    out.append(_np_edge(child, parent, sentence.sentence_id))
        # "NP_parent including NP_child ..."
        elif tok.lemma == "include" and tok.pos == "VBG":
            parent = _np_ending_before(parser, tokens, i)
            if parent is not None:
                for child in _np_list(parser, tokens, i + 1):
                    out.append(_np_edge(child, parent, sentence.sentence_id))
        # "NP_child and other NP_parent"
        elif tok.pos == "CC" and i + 1 < len(tokens) \
                and tokens[i + 1].lemma == "other":
            child = _np_ending_before(parser, tokens, i)
            parent, _ = parser.parse_np(i + 2, len(tokens))
            if child is not None and parent is not None:
                out.append(_np_edge(child, parent, sentence.sentence_id))
    return out


def _np_edge(child: Phrase, parent: Phrase, sid: int):
    child = _strip_pattern_tails(child)
    parent = _strip_pattern_tails(parent)
    edge = SubclassEdge(canonical_key(child), canonical_key(parent), "np",
                        SYNTACTIC, sid)
    return edge, child, parent


def _np_ending_before(parser, tokens, idx):
    """Greedy noun phrase whose span ends exactly at idx."""
    start = idx - 1
    while start >= 0 and (tokens[start].pos in
                          ("JJ", "JJR", "JJS", "NN", "NNS", "NNP", "NNPS",
                           "CD", "VBG", "VBN", "DT", "PDT")):
        start -= 1
    start += 1
    while start < idx:
        phrase, j = parser.parse_np(start, idx)
        if phrase is not None and j == idx:
            return phrase
        start += 1
    return None


def _np_list(parser, tokens, i):
    """Comma/conjunction separated noun phrases starting at i.  Each item
    is parsed inside its own delimiter-bounded window so the list does not
    collapse into one phrase."""
    phrases = []
    end = len(tokens)
    while i < end:
        if not _nominal_start(tokens, i):
            break
        bound = i
        while bound < end and tokens[bound].pos not in (",", "CC"):
            bound += 1
        phrase, j = parser.parse_np(i, bound)
        if phrase is None:
            break
        phrases.append(phrase)
        i = j
        if i < end and tokens[i].pos == ",":
            i += 1
        if i + 1 < end and tokens[i].pos == "CC" \
                and tokens[i + 1].lemma != "other":
            i += 1
    return phrases


def _scan_infinitive_pattern(parsed, sid):
    """"to VP_child is to VP_parent": an edge between the two action keys."""
    if parsed is None or parsed.action is None or parsed.action.head != "be":
        return []
    subj, group = parsed.subject, parsed.object
    if not (isinstance(subj, Clause) and subj.lead == "to" and subj.action):
        return []
    if group is None or not isinstance(group.direct, Clause):
        return []
    obj = group.direct
    if obj.lead != "to" or obj.action is None:
        return []
    if canonical_key(subj.object) != canonical_key(obj.object):
        return []
    edge = SubclassEdge(canonical_key(subj.action), canonical_key(obj.action),
                        "vp", SYNTACTIC, sid)
    return [(edge, subj.action, obj.action)]


def harvest_edges(triples) -> EdgeSet:
    """Merge per-sentence scan results into one closed, conflict-free edge
    set."""
    return EdgeSet(triples)
