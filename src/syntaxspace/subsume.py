"""Subclass decisions between phrases, clauses, sentences and questions.

Two sources of evidence are combined:

* the modifier rules — same head, and the more specific side carries a
  proper superset of the other side's modifiers (as lemma multisets);
* harvested syntactic-pattern edges ("X is an Y", "Y such as X", ...),
  consulted at every noun-phrase / verb-phrase comparison point.  An
  `EdgeSet` closes its edges once, when it is built, and answers every
  "is A below B" with one `up()` lookup.

`_phrase_relation` is the one judgment of two phrases that reads both.

Composite rules (verb phrases, prepositional phrases, clauses, sentences,
questions) use a product order: every aligned pair must be the same or a
subclass, and at least one pair must be strictly more specific.

A dimension's `SearchIndex` gives the nodes `at_or_below` a query without
asking each node, and the pairs of its modifier edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from .corpus import TaggedSentence
from .syntax import (ADJECTIVE, ADVERB, Adverbial, Clause, Element, NOUN,
                     PREPOSITIONAL, PRONOUN, Phrase, SentenceSyntax, VERB,
                     canonical_key, slot_elements, _Parser, _nominal_start)

EQUAL = "equal"
SUBCLASS = "subclass"
SUPERCLASS = "superclass"
RELATED = "related"
UNRELATED = "unrelated"

MODIFIER = "modifier"
SYNTACTIC = "syntactic_pattern"


class KindMismatch(TypeError):
    """Compared elements have different lexical categories."""


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
        with open(path, encoding="utf-8-sig") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                # a lemma is one word: an empty or spaced field never applies
                if len(fields) != 2 or any(f.split() != [f] for f in fields):
                    raise ValueError(f"{path}:{lineno}: expected two lemmas "
                                     f"separated by one tab")
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
    It takes (child, parent, sentence id) triples and keys each endpoint;
    a triple whose endpoints share a key adds nothing.  `edges` maps each
    kept (child key, parent key) pair to the sentence id it was first seen
    in, and iterating the set yields those pairs.

    A pair harvested in both directions (a<b and b<a), in any order and
    any number of times, keeps neither, so that antisymmetry holds
    downstream; `dropped` logs it once, in the direction seen second.
    """

    def __init__(self, triples=()):
        first: dict[tuple[str, str], int | None] = {}
        self.elements: dict[str, Element] = {}
        self.dropped: list[tuple[str, str]] = []
        for child, parent, sid in triples:
            pair = canonical_key(child), canonical_key(parent)
            if pair[0] == pair[1]:
                continue
            self.elements.setdefault(pair[0], child)
            self.elements.setdefault(pair[1], parent)
            if pair not in first and pair[::-1] in first:
                self.dropped.append(pair)
            first.setdefault(pair, sid)
        self.edges = {pair: sid for pair, sid in first.items()
                      if pair[::-1] not in first}
        self._parents: dict[str, set[str]] = {}
        self._np_children: dict[str, set[str]] = {}  # head -> child keys
        for child, parent in self.edges:
            self._parents.setdefault(child, set()).add(parent)
            element = self.elements[child]
            if element.kind != VERB:
                self._np_children.setdefault(element.head, set()).add(child)
        steps = {k: self._step(e, k) for k, e in self.elements.items()}
        self._closure = {k: frozenset(reach(steps, (k,))) for k in steps}

    def _step(self, element: Phrase, key: str) -> set[str]:
        """Keys one harvested edge above `element` (whose key is `key`):
        edges from the key itself, and from any noun-phrase child the element
        is modifier-below (`_phrase_relation` without edges).  The modifier
        rule needs equal heads, so only children with the element's head
        are tried."""
        out = set(self._parents.get(key, ()))
        for child in self._np_children.get(element.head, ()):
            if _phrase_relation(element, self.elements[child]) == SUBCLASS:
                out |= self._parents[child]
        return out

    def up(self, element: Phrase, key: str | None = None) -> frozenset[str]:
        """Keys reached from `element` in one or more harvested steps;
        `key`, when the caller has it, is `canonical_key(element)`."""
        if key is None:
            key = canonical_key(element)
        if key in self._closure:
            return self._closure[key]
        first = self._step(element, key)
        return frozenset(first).union(*(self._closure[k] for k in first))

    def puts_below(self, k: str, target: Phrase, key: str) -> bool:
        """Whether reaching harvested key `k` puts a phrase at or below
        `target`, whose key is `key`: `k` is that key or, for a noun target,
        a harvested phrase modifier-below it (`_phrase_relation` without
        edges).  A verb target takes its key alone."""
        if k == key:
            return True
        if target.kind != NOUN:
            return False
        return _phrase_relation(self.elements[k], target) == SUBCLASS

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)


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
    if len(larger) == len(smaller):
        return sorted(larger) == sorted(smaller)
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
    return _phrase_relation(p1, p2) == SUBCLASS


def _phrase_relation(p1: Phrase, p2, edges: EdgeSet | None = None,
                     syn: SynonymTable | None = None) -> str | None:
    """Whether phrase p1 is at or below p2: Equal, Subclass or None (also
    across kinds and prepositions).  Where the heads meet (one head, or
    synonym verb heads) the modifier multisets decide, and for a verb
    nothing else counts; a pronoun is Equal by its head.  Otherwise a noun,
    verb or prepositional phrase is below when a key that its noun or verb
    side (a PP's inner noun phrase) reaches in `edges` puts it at or below
    the other side (`EdgeSet.puts_below`)."""
    kind = p1.kind
    if not isinstance(p2, Phrase) or kind != p2.kind or (
            kind == PREPOSITIONAL and p1.preposition() != p2.preposition()):
        return None
    verb = kind == VERB
    if p1.head == p2.head or (verb and syn is not None
                              and syn.related(p1.head, p2.head)):
        if kind == PRONOUN:
            return EQUAL
        m1, m2 = p1.modifiers(), p2.modifiers()
        if len(m1) >= len(m2) and _contains(m1, m2):
            return SUBCLASS if len(m1) > len(m2) else EQUAL
        if verb:
            return None
    if not edges or kind not in (NOUN, VERB, PREPOSITIONAL):
        return None
    if kind == PREPOSITIONAL:
        p1, p2 = _inner_np(p1), _inner_np(p2)
    key = canonical_key(p2)
    return SUBCLASS if any(edges.puts_below(k, p2, key)
                           for k in edges.up(p1)) else None


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


def verb_phrase_subclass(v1, v2, edges: EdgeSet | None = None,
                         syn: SynonymTable | None = None) -> bool:
    """Verb phrases compare component-wise: each pair same-or-subclass,
    at least one strictly more specific."""
    a1, np1 = _as_action_np(v1)
    a2, np2 = _as_action_np(v2)
    pairs = (_phrase_relation(a1, a2, edges, syn),
             at_or_below(np1, np2, edges, syn))
    return None not in pairs and SUBCLASS in pairs


# ---------------------------------------------------------------------------
# Prepositional phrases
# ---------------------------------------------------------------------------


def prep_phrase_subclass(q1: Phrase, q2: Phrase,
                         edges: EdgeSet | None = None) -> bool:
    """Same preposition, and the inner noun phrase strictly below."""
    if not (isinstance(q1, Phrase) and isinstance(q2, Phrase)
            and q1.kind == PREPOSITIONAL and q2.kind == PREPOSITIONAL):
        raise KindMismatch("prep_phrase_subclass expects prepositional phrases")
    return _phrase_relation(q1, q2, edges) == SUBCLASS


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
    return at_or_below(c1, c2, edges, syn) == SUBCLASS


# ---------------------------------------------------------------------------
# Sentences and questions
# ---------------------------------------------------------------------------


def pair_adverbials(advs, targets, relation) -> tuple[list, list]:
    """Pair each target in order with the first remaining adverbial of its
    kind that is Equal to it, else the first one below it (`relation(adv,
    i)` is `at_or_below` of `adv` and `targets[i]`); return each target's
    relation, None when unpaired, and the adverbials left over."""
    remaining = list(advs)
    relations = []
    for i, target in enumerate(targets):
        best = best_rel = None
        for pos, cand in enumerate(remaining):
            if cand.kind != target.kind:
                continue
            rel = relation(cand, i)
            if rel is not None and (best is None or rel == EQUAL):
                best, best_rel = pos, rel
                if rel == EQUAL:
                    break
        relations.append(best_rel)
        if best is not None:
            remaining.pop(best)
    return relations, remaining


def _tuple_relation(t1, t2, edges, syn) -> str | None:
    """Whether clause, sentence or question t1 is at or below t2 over the
    slots of `slot_elements` and the adverbials: Equal when every slot and,
    in order, every adverbial is Equal; else Subclass when every slot is at
    or below, `pair_adverbials` pairs every target, and a slot or pair is
    Subclass or an adverbial is left over.  An object group, even an empty
    one ("What does X send to?"), never stands against none."""
    advs, targets = t1.adverbials, t2.adverbials
    if (t1.object is None) != (t2.object is None) \
            or len(advs) < len(targets):  # some target would stay unpaired
        return None
    slots = []
    for e1, e2 in zip(slot_elements(t1), slot_elements(t2)):
        slots.append(at_or_below(e1, e2, edges, syn))
        if slots[-1] is None:
            return None
    if SUBCLASS not in slots and len(advs) == len(targets) and all(
            at_or_below(a, b, syn=syn) == EQUAL
            for a, b in zip(advs, targets)):
        return EQUAL
    pairs, extra = pair_adverbials(
        advs, targets, lambda a, i: at_or_below(a, targets[i], edges, syn))
    slots += pairs
    if None in slots or not (extra or SUBCLASS in slots):
        return None
    return SUBCLASS


def sentence_subclass(s1: SentenceSyntax, s2: SentenceSyntax,
                      edges: EdgeSet | None = None,
                      syn: SynonymTable | None = None) -> bool:
    """Component-wise same-or-subclass with n>=m adverbials and at least
    one strictly more specific pair (an extra adverbial counts)."""
    return _tuple_relation(s1, s2, edges, syn) == SUBCLASS


def question_subclass(q1, q2, edges: EdgeSet | None = None,
                      syn: SynonymTable | None = None) -> bool:
    """The sentence comparison plus equal interrogative words (and
    question kinds)."""
    return (q1.interrogative == q2.interrogative and q1.kind == q2.kind
            and _tuple_relation(q1, q2, edges, syn) == SUBCLASS)


# ---------------------------------------------------------------------------
# Integrated dispatcher
# ---------------------------------------------------------------------------


def at_or_below(e1, e2, edges: EdgeSet | None = None,
                syn: SynonymTable | None = None) -> str | None:
    """Equal, Subclass when e1 is strictly below e2, otherwise None (also
    across kinds): a missing part is Equal to a missing part alone, phrases
    go by `_phrase_relation`, clauses of one lead by `_tuple_relation` and
    adverbials of one kind by their contents.  One direction only.  Equal
    never reads harvested edges, so `edges` may be left out to ask it."""
    if e1 is None:
        return EQUAL if e2 is None else None
    if isinstance(e1, Phrase):
        return _phrase_relation(e1, e2, edges, syn)
    if isinstance(e1, Clause) and isinstance(e2, Clause) \
            and e1.lead == e2.lead:
        return _tuple_relation(e1, e2, edges, syn)
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
# The dimension index
# ---------------------------------------------------------------------------


class SearchIndex:
    """The one answer to "which nodes are at or below X?" for a dimension,
    equal to asking `at_or_below` of every node.  It posts each node's key
    in the node's bucket (`_shape`'s wrapper and head) under its modifiers,
    a clause's in its lead's bucket under `_lemmas(element, edges)`, and
    under each harvested key the node's side reaches (`edges.up`, so also
    through edges cycle breaking drops).  It keeps these postings alone
    and reads elements from `nodes`, the dimension's key -> element map."""

    def __init__(self, edges: EdgeSet, nodes: dict):
        self.edges, self.nodes = edges, nodes
        self.buckets, self.below = {}, {}

    def add(self, key: str, element) -> None:
        """Post `element`, whose canonical key is `key`."""
        wrapper, head, side, mods = _shape(element)
        if wrapper[-2] == "clause":
            head, mods = None, _lemmas(element, self.edges)
        bucket = self.buckets.setdefault((wrapper, head), {})
        for lemma in (None, *mods):  # None: every member
            bucket.setdefault(lemma, set()).add(key)
        side_key = key if side is element else None
        for k in (self.edges.up(side, side_key)
                  if side and self.edges else ()):
            self.below.setdefault((wrapper, self.edges.elements[k].head),
                                  {}).setdefault(k, set()).add(key)

    def anchors(self, query, syn: SynonymTable | None = None,
                among: set[str] | None = None) -> set[str]:
        """Keys of the nodes `at_or_below` the query, of those in `among`
        alone if it is given, in a new set the caller owns.  A phrase takes
        its bucket's members (a verb's synonym heads' too) posted under all
        its modifiers, counted if one repeats, and the nodes posted under a
        harvested key that `EdgeSet.puts_below` its side; it judges none.
        A clause judges the clauses of its lead posted under all of
        `_lemmas(query, syn=syn)`, which holds every clause below it, that
        are in `among`, but for the query itself, which is at its own
        level."""
        wrapper, head, side, mods = _shape(query)
        if wrapper[-2] == "clause":
            clauses = self.buckets.get((wrapper, None), {})
            found = _common(clauses, _lemmas(query, syn=syn))
            return {k for k in (found if among is None else found & among)
                    if self.nodes[k] is query
                    or at_or_below(self.nodes[k], query, self.edges, syn)}
        verb = side is not None and side.kind == VERB
        buckets = [self.buckets.get((wrapper, h), {}) for h in
                   ((head, *syn.synonyms(head)) if verb and syn else (head,))]
        found = _common(buckets[0], mods)
        for bucket in buckets[1:]:
            found |= _common(bucket, mods)
        if len(mods) > 1 and len(set(mods)) < len(mods):
            found = {k for k in found
                     if _contains(_shape(self.nodes[k])[3], mods)}
        reached = self.below.get((wrapper, side.head)) if side else None
        if reached:
            side_key = canonical_key(side)
            below = {key for k, keys in reached.items()
                     if self.edges.puts_below(k, side, side_key)
                     for key in keys}
            if verb:  # of the same or a synonym head, modifiers alone decide
                below -= {k for bucket in buckets for k in bucket.get(None, ())}
            found |= below
        return found if among is None else found & among

    def modifier_pairs(self):
        """The modifier rule's (child, parent) pairs: in each bucket of one
        `_shape` wrapper and head, the other members among a member's
        anchors, sorted; buckets in the order of their first sorted key,
        and none of pronouns, equal by their head."""
        buckets: dict[tuple, list[str]] = {}
        for key in sorted(self.nodes):
            buckets.setdefault(_shape(self.nodes[key])[:2], []).append(key)
        for (wrapper, _), keys in buckets.items():
            if len(keys) > 1 and wrapper[-2] != PRONOUN:
                members = set(keys)
                yield from sorted(
                    (c, p) for p in keys
                    for c in self.anchors(self.nodes[p], among=members)
                    if c != p)


def _common(bucket: dict, lemmas) -> set[str]:
    """Keys the bucket posts under every lemma, in a new set."""
    shortest, *rest = sorted((bucket.get(m, set())
                              for m in {None, *lemmas}), key=len)
    return shortest.intersection(*rest)


def _shape(element) -> tuple[tuple, str | None, Phrase | None, tuple]:
    """(wrapper, head, side, modifiers): the modifier rule compares modifiers
    (none for clauses and pronouns) inside one wrapper (adverbial kind, phrase
    kind and preposition, or clause lead) and head (a clause's action head);
    harvested edges count from the noun or verb (a PP's inner noun) side."""
    if isinstance(element, Adverbial):
        wrapper, *rest = _shape(element.content)
        return ("adverbial", element.kind) + wrapper, *rest
    if isinstance(element, Phrase):
        side = _inner_np(element) if element.kind == PREPOSITIONAL else (
            element if element.kind in (NOUN, VERB) else None)
        return ((element.kind, element.preposition()), element.head, side,
                element.modifiers() if element.kind != PRONOUN else ())
    return (("clause", element.lead or "-"),  # a clause
            element.action.head if element.action else "-", None, ())


def _lemmas(element, harvested: EdgeSet | None = None,
            syn: SynonymTable | None = None) -> set[str]:
    """Head and modifiers of every phrase in `element` (of a pronoun, equal
    by its head, the head alone) and every clause lead; with `harvested`,
    also those of each element a phrase's noun or verb side reaches in it;
    with `syn`, no verb head that has synonyms.  So `at_or_below(c, p,
    harvested, syn)` is not None only if `_lemmas(p, syn=syn) <= _lemmas(c,
    harvested)`: the modifier rule needs equal heads (or synonym verbs)
    and more modifiers, a harvested step reaches the parent's key or one
    modifier-below it, and the rest are product orders."""
    if isinstance(element, Adverbial):
        return _lemmas(element.content, harvested, syn)
    if isinstance(element, Clause):
        parts = (element.subject, element.action, element.object,
                 *element.adverbials)
        return {element.lead or "-"}.union(
            *(_lemmas(x, harvested, syn) for x in parts if x))
    _, head, side, mods = _shape(element)
    synonyms = syn and element.kind == VERB and syn.synonyms(head)
    out = {*mods} if synonyms else {head, *mods}
    for k in (harvested.up(side) if harvested and side else ()):
        out |= _lemmas(harvested.elements[k])
    return out


# ---------------------------------------------------------------------------
# Syntactic-pattern harvesting
# ---------------------------------------------------------------------------


def scan_syntactic_patterns(sentence: TaggedSentence,
                            parsed: SentenceSyntax | None) -> list[tuple[Phrase, Phrase, int]]:
    """Emit subclass edges found by surface patterns in one sentence.

    Noun-phrase patterns: "X is a/an Y", "X are Y (that ...)",
    "Y such as X", "Y including X", "X and other Y".
    Verb-phrase pattern: "to X is to Y".
    Returns (child, parent, sentence id) triples, which `EdgeSet` keys.
    """
    return (_scan_copula(sentence, parsed) + _scan_list_patterns(sentence)
            + _scan_infinitive_pattern(parsed, sentence.sentence_id))


def _scan_copula(sentence, parsed):
    if parsed is None or parsed.action is None or parsed.action.head != "be":
        return []
    if parsed.polarity != "affirmative" or parsed.action.pre:
        return []
    subject, group = parsed.subject, parsed.object
    if group is None or group.indirect is not None or group.complement is not None:
        return []
    predicate = group.direct
    if not all(isinstance(x, Phrase) and x.kind == NOUN
               for x in (subject, predicate)):
        return []
    tokens = sentence.tokens
    det = tokens[predicate.span[0]].lemma
    head_plural = any(
        t.pos in ("NNS", "NNPS") and t.lemma == predicate.head
        for t in tokens[predicate.span[0]:predicate.span[1]]
    )
    if det not in ("a", "an") and not head_plural:
        return []
    # the pattern parent is the bare nominal ("dogs that guard" -> "dogs")
    parent = _cut_post(predicate, "that")
    child = _cut_post(subject, "such", "include")
    return [(child, parent, sentence.sentence_id)]


def _cut_post(phrase: Phrase, *markers: str) -> Phrase:
    """Cut a flattened relative or pattern tail at the first marker held."""
    for marker in markers:
        if marker in phrase.post:
            return replace(phrase,
                           post=phrase.post[:phrase.post.index(marker)])
    return phrase


# every list pattern needs one of these lemmas
_LIST_LEMMAS = frozenset(("such", "include", "other"))


def _scan_list_patterns(sentence):
    tokens = sentence.tokens
    if _LIST_LEMMAS.isdisjoint(sentence.lemmas()):
        return []
    parser = _Parser(tokens)
    out = []
    for i, tok in enumerate(tokens):
        # "NP_parent such as / including NP_child (, NP_child)*"
        such_as = tok.lemma == "such" and i + 1 < len(tokens) \
            and tokens[i + 1].lemma == "as"
        if such_as or (tok.lemma == "include" and tok.pos == "VBG"):
            parent = _np_ending_before(parser, tokens, i)
            if parent is not None:
                for child in _np_list(parser, tokens,
                                      i + 2 if such_as else i + 1):
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
    return (_cut_post(child, "such", "include"),
            _cut_post(parent, "such", "include"), sid)


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
    """"to VP_child is to VP_parent": an edge between the two actions."""
    if parsed is None or parsed.action is None or parsed.action.head != "be":
        return []
    subj, obj = parsed.subject, parsed.object and parsed.object.direct
    if not all(isinstance(c, Clause) and c.lead == "to" and c.action
               for c in (subj, obj)) \
            or canonical_key(subj.object) != canonical_key(obj.object):
        return []
    return [(subj.action, obj.action, sid)]


def harvest_edges(triples) -> EdgeSet:
    """Merge per-sentence scan results into one closed, conflict-free edge
    set."""
    return EdgeSet(triples)
