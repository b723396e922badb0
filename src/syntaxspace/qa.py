"""Question parsing, candidate retrieval, and answer selection.

Questions are classified by their leading word and inverted auxiliary into
subject / object (direct, indirect, complement) / adverbial / general
questions, then un-inverted into the declarative slot tuple.  Candidates
come from intersecting dimension searches; each candidate is checked
against the answer pattern for the question kind: every question slot must
reappear as the same element, a synonym (action heads only), or a
subclass, and the asked-for slot must be filled by the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lexicon as lx
from .corpus import TaggedSentence
from .space import ResourceSpace, search  # noqa: F401 (callers rebind it)
from .subsume import (EQUAL, EdgeSet, SUBCLASS, SynonymTable, at_or_below,
                      pair_adverbials, same_class)
from .subsume import compare_elements  # noqa: F401 (callers rebind it)
from .syntax import (Adverbial, Element, ObjectGroup, Phrase, SentenceSyntax,
                     VERB, _Parser, _nominal_start, _verb_group_start,
                     canonical_key, polarity_of, slot_elements)

SUBJECT_Q = "subject"
DIRECT_OBJECT_Q = "direct_object"
INDIRECT_OBJECT_Q = "indirect_object"
OBJECT_COMPLEMENT_Q = "object_complement"
ADVERBIAL_Q = "adverbial"
GENERAL_Q = "general"

# which adverbial kinds answer which interrogative
_ADVERBIAL_GAPS = {
    "when": ("time",),
    "where": ("place",),
    "why": ("reason", "purpose"),
    "how": ("method",),
}

_AUX_LEMMAS = frozenset({"do", "be", "have"} | set(lx.MODAL_VERBS))


class NotAQuestion(ValueError):
    pass


@dataclass(slots=True)
class QuestionSyntax:
    kind: str  # the slot asked for: a `_SLOTS` kind, ADVERBIAL_Q or GENERAL_Q
    interrogative: str
    subject: Element | None
    action: Phrase | None
    object: ObjectGroup | None
    adverbials: tuple[Adverbial, ...]
    polarity: str = "affirmative"


@dataclass(slots=True)
class AnswerJudgment:
    sentence_id: int
    accepted: bool
    matched: dict[str, str] = field(default_factory=dict)
    consistency_penalty: int = 0
    strict_count: int = 0
    affirmed: bool | None = None

    @property
    def score(self) -> tuple:
        return (-len([o for o in self.matched.values()
                      if o in ("same", "synonym", "subclass", "gap_filled")]),
                self.strict_count, self.consistency_penalty, self.sentence_id)


# ---------------------------------------------------------------------------
# Question parsing
# ---------------------------------------------------------------------------


def parse_question(sentence: TaggedSentence) -> QuestionSyntax:
    """Parse a question against the question grammars.

    Raises NotAQuestion for inputs that neither end with "?" nor start
    with an interrogative, auxiliary or modal, or that do not fit any
    question pattern.
    """
    tokens = sentence.tokens
    end = len(tokens)
    has_qmark = False
    while end > 0 and tokens[end - 1].pos in (".", ",", ":"):
        if tokens[end - 1].surface == "?":
            has_qmark = True
        end -= 1
    parser = _Parser(tokens)
    leading, i = parser.parse_leading_adverbials(0, end)
    if i >= end:
        raise NotAQuestion("empty question")
    lemma = tokens[i].lemma
    is_wh = lemma in lx.WH_WORDS
    is_aux = lemma in _AUX_LEMMAS
    if not (has_qmark or is_wh or is_aux):
        raise NotAQuestion(f"not a question: {sentence.surface_text()!r}")
    if lemma in ("when", "where", "why", "how"):
        q = _parse_adverbial_question(parser, tokens, i, end, lemma)
    elif is_wh:
        q = _parse_wh_question(parser, tokens, i, end, lemma)
    elif is_aux:
        q = _parse_general_question(parser, tokens, i, end, lemma)
    else:
        raise NotAQuestion(f"cannot classify: {sentence.surface_text()!r}")
    q.adverbials = tuple(leading) + q.adverbials
    return q


def _skip_aux(tokens, i, end):
    """Consume the inverted auxiliary/modal and any negation."""
    negated = False
    if i < end and (tokens[i].lemma in _AUX_LEMMAS or tokens[i].pos == "MD"):
        i += 1
        while i < end and tokens[i].lemma in ("not", "never"):
            negated = True
            i += 1
        return i, negated, True
    return i, negated, False


def _parse_predicate(parser, i, end, negated=False,
                     missing="no verb group in question"):
    """Verb group, object group and trailing adverbials from i, as the
    (action, object, adverbials, polarity) slots of a question; the action
    loses its auxiliaries."""
    action, i = parser.parse_verb_group(i, end)
    if action is None:
        raise NotAQuestion(missing)
    group, i = parser.parse_object_group(i, end, action)
    advs, i = parser.parse_trailing_adverbials(i, end)
    return _strip_aux(action), group, tuple(advs), polarity_of(action, negated)


def _parse_adverbial_question(parser, tokens, i, end, word):
    i += 1
    # "how to build an extract?" form: affirmative whatever its verb group
    if i < end and tokens[i].pos == "TO":
        action, group, advs, _ = _parse_predicate(
            parser, i + 1, end, missing="bare infinitive question without a verb")
        return QuestionSyntax(ADVERBIAL_Q, word, None, action, group, advs,
                              "affirmative")
    i, negated, had_aux = _skip_aux(tokens, i, end)
    if not had_aux:
        raise NotAQuestion(f"'{word}' question without auxiliary")
    subject, i = parser.parse_subject_element(i, end)
    return QuestionSyntax(ADVERBIAL_Q, word, subject,
                          *_parse_predicate(parser, i, end, negated))


def _parse_wh_question(parser, tokens, i, end, word):
    i += 1
    type_np = None
    if i < end and _nominal_start(tokens, i) and not tokens[i].pos == "PRP":
        type_np, i = parser.parse_np(i, end)
    if i >= end:
        raise NotAQuestion("question ends after interrogative")
    nxt = tokens[i]
    # "what is X?": definition question asking for the (non-empty) object
    if type_np is None and nxt.lemma == "be":
        j = i + 1
        subject, j = parser.parse_subject_element(j, end)
        if subject is not None:
            advs, j = parser.parse_trailing_adverbials(j, end)
            if j >= end:
                action = Phrase(VERB, "be", (), (), (i, i + 1))
                return QuestionSyntax(DIRECT_OBJECT_Q, word, subject, action,
                                      None, tuple(advs), "affirmative")
    # inverted auxiliary -> object question
    if nxt.lemma in _AUX_LEMMAS and (
            type_np is not None
            or (i + 1 < end and (_nominal_start(tokens, i + 1)
                                 or tokens[i + 1].lemma in ("not", "never")))):
        return _parse_object_question(parser, tokens, i, end, word, type_np)
    # no inversion -> subject question
    if _verb_group_start(tokens, i):
        return QuestionSyntax(SUBJECT_Q, word, type_np,
                              *_parse_predicate(parser, i, end))
    raise NotAQuestion(f"unrecognized question shape after {word!r}")


def _parse_object_question(parser, tokens, i, end, word, type_np):
    i, negated, _ = _skip_aux(tokens, i, end)
    subject, i = parser.parse_subject_element(i, end)
    if subject is None:
        raise NotAQuestion("object question without a subject")
    action, i = parser.parse_verb_group(i, end)
    if action is None:
        raise NotAQuestion("no verb group in question")
    polarity = polarity_of(action, negated)
    action = _strip_aux(action)

    present = None
    # a preposition before the nominal rules out the complement reading
    indirect_prep = i < end and tokens[i].lemma in lx.OBJECT_PREPOSITIONS \
        and tokens[i].pos in ("TO", "IN") and _nominal_start(tokens, i + 1)
    if indirect_prep:
        present, i = parser.parse_np(i + 1, end)
    elif i < end and _nominal_start(tokens, i):
        present, i = parser.parse_np(i, end)
    dangling = i < end and tokens[i].lemma in lx.OBJECT_PREPOSITIONS \
        and tokens[i].pos in ("TO", "IN") \
        and (i + 1 >= end or tokens[i + 1].pos in (".", ","))
    if dangling:
        i += 1
    advs, i = parser.parse_trailing_adverbials(i, end)

    if dangling:
        # "which node does the network send the weight to?"
        group = ObjectGroup(present, type_np) if present is not None else \
            ObjectGroup(type_np)
        kind = INDIRECT_OBJECT_Q if present is not None else DIRECT_OBJECT_Q
    elif present is not None and not indirect_prep \
            and action.head in lx.COMPLEMENT_VERBS:
        # "what do researchers call deep learning?"
        group = ObjectGroup(present, None, type_np)
        kind = OBJECT_COMPLEMENT_Q
    elif present is not None or indirect_prep:
        # "which weight does the network send (to) node?" and "what does the
        # school award Mike?": the present nominal receives
        group = ObjectGroup(type_np, present)
        kind = DIRECT_OBJECT_Q
    else:
        group = ObjectGroup(type_np) if type_np is not None else None
        kind = DIRECT_OBJECT_Q
    return QuestionSyntax(kind, word, subject, action, group, tuple(advs),
                          polarity)


def _parse_general_question(parser, tokens, i, end, word):
    i, negated, _ = _skip_aux(tokens, i, end)
    subject, i = parser.parse_subject_element(i, end)
    if subject is None:
        raise NotAQuestion("general question without a subject")
    return QuestionSyntax(GENERAL_Q, word, subject,
                          *_parse_predicate(parser, i, end, negated))


def _strip_aux(action: Phrase) -> Phrase:
    """Drop auxiliary/modal pre-head items from a question action: they are
    functional and would block matching declarative actions.  Negation is
    kept for polarity-sensitive comparison."""
    keep = tuple(m for m in action.pre
                 if m in lx.NEGATION_WORDS
                 or m not in _AUX_LEMMAS and m not in lx.MODAL_VERBS)
    return Phrase(VERB, action.head, keep, action.post, action.span)


# ---------------------------------------------------------------------------
# Slots
# ---------------------------------------------------------------------------

# The slots of `slot_elements`, in its order: the name an answer judgment
# gives each, the question kind that asks for it and the dimension that
# holds it.
_SLOTS = (("subject", SUBJECT_Q, "subject"), ("action", None, "action"),
          ("object.direct", DIRECT_OBJECT_Q, "object"),
          ("object.indirect", INDIRECT_OBJECT_Q, "object"),
          ("object.complement", OBJECT_COMPLEMENT_Q, "object"))
_ASKED_DIMENSIONS = {kind: dim for _, kind, dim in _SLOTS if kind is not None}


# ---------------------------------------------------------------------------
# Candidate retrieval
# ---------------------------------------------------------------------------


def candidate_search(space: ResourceSpace, q: QuestionSyntax,
                     anchors: dict | None = None) -> set[int]:
    """Intersect the `SearchIndex` reads (with the space's synonyms) of the
    question's subject, action, direct object and adverbials; `anchors`
    gets each read slot's anchor keys under the slot's name.

    The slot the question's kind asks for, when the question leaves it
    empty, keeps, last, the sentences its dimension covers, since the
    answer grammar requires the element: a subject in the subject
    dimension, and a direct, indirect or complement object in the object
    dimension.
    """
    root = _ASKED_DIMENSIONS.get(q.kind)
    ids: set[int] | None = None
    # a dimension's first slot: the object is searched by its direct object
    for (name, _, dimension), element in [
            *zip(_SLOTS[:3], slot_elements(q)),
            *(((f"adverbial[{idx}]", None, "adverbial"), adverbial)
              for idx, adverbial in enumerate(q.adverbials))]:
        if element is None:
            continue
        root = None if dimension == root else root
        dim = space.dimensions[dimension]
        keys = dim.index.anchors(element, space.synonyms)
        if anchors is not None:
            anchors[name] = keys
        found = set().union(*(dim.postings[key] for key in keys))
        ids = found if ids is None else ids & found
    if root is not None:  # the root's sentences, intersected last
        covered = space.dimensions[root].covered
        ids = set(covered) if ids is None else ids & covered
    return set(space.sentences) if ids is None else ids


# ---------------------------------------------------------------------------
# Answer matching
# ---------------------------------------------------------------------------


def _read_slot(found, asked, keys, syn) -> str | None:
    """`at_or_below` of a searched slot, read from its anchor keys."""
    if canonical_key(found) not in keys:
        return None
    return EQUAL if same_class(found, asked, syn) else SUBCLASS


def match_answer(q: QuestionSyntax, s: SentenceSyntax,
                 edges: EdgeSet | None = None,
                 syn: SynonymTable | None = None,
                 anchors: dict | None = None) -> AnswerJudgment:
    """Check one candidate sentence against the answer pattern for q.

    Every question slot must be matched by the same element, a synonym
    (action heads only) or a subclass; the asked slot must be present, and
    when the question constrains its type the answer must be strictly more
    specific.  Polarity disagreement is a ranking penalty, not a filter.
    A slot in `anchors` (from `candidate_search`, with the same edges and
    synonyms) is read from its anchor keys; the others ask `at_or_below`.
    """
    matched: dict[str, str] = {}
    for (name, kind, _), found, asked in zip(_SLOTS, slot_elements(s),
                                             slot_elements(q)):
        is_gap = kind == q.kind
        if asked is None and not is_gap:
            continue
        if found is None:
            matched[name] = "missing"
        elif asked is None:
            matched[name] = "gap_filled"
        else:
            keys = anchors.get(name) if anchors else None
            rel = at_or_below(found, asked, edges, syn) if keys is None \
                else _read_slot(found, asked, keys, syn)
            if rel == EQUAL and not is_gap:
                # equal phrases differ in their heads only as synonym verbs
                synonym = isinstance(found, Phrase) and found.head != asked.head
                matched[name] = "synonym" if synonym else "same"
            elif rel == SUBCLASS:
                matched[name] = "gap_filled" if is_gap else "subclass"
            else:
                matched[name] = "mismatch"

    pairs, remaining = (), s.adverbials
    if q.adverbials:  # most questions have none: make no relation for them
        asked, kept = q.adverbials, anchors or {}
        pairs, remaining = pair_adverbials(s.adverbials, asked, lambda a, i: (
            at_or_below(a.content, asked[i].content, edges, syn)
            if f"adverbial[{i}]" not in kept
            else _read_slot(a, asked[i], kept[f"adverbial[{i}]"], syn)))
    for idx, rel in enumerate(pairs):
        matched[f"adverbial[{idx}]"] = ("missing" if rel is None else
                                        "same" if rel == EQUAL else "subclass")
    if q.kind == ADVERBIAL_Q:
        kinds = _ADVERBIAL_GAPS[q.interrogative]
        filled = any(a.kind in kinds for a in remaining)
        matched["adverbial*"] = "gap_filled" if filled else "missing"

    ok = not {"missing", "mismatch"} & set(matched.values())
    penalty = 0 if s.polarity == q.polarity else 1
    strict = sum(1 for outcome in matched.values() if outcome == "subclass")
    affirmed = ok and penalty == 0 if q.kind == GENERAL_Q else None
    return AnswerJudgment(s.sentence_id, ok, matched, penalty, strict,
                          affirmed)


# ---------------------------------------------------------------------------
# End-to-end answering
# ---------------------------------------------------------------------------


def answer(space: ResourceSpace, question: TaggedSentence | QuestionSyntax,
           k: int = 5) -> list[tuple[int, AnswerJudgment]]:
    """parse -> candidate search -> pattern match -> rank -> top k >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, not {k}")
    if isinstance(question, QuestionSyntax):
        q = question
    else:
        q = parse_question(question)
    judgments: list[AnswerJudgment] = []
    anchors: dict = {}
    for sid in sorted(candidate_search(space, q, anchors=anchors)):
        best = None
        for part in space.sentences.get(sid, ()):
            judgment = match_answer(q, part, space.edge_set, space.synonyms,
                                    anchors=anchors)
            if judgment.accepted and (best is None
                                      or judgment.score < best.score):
                best = judgment
        if best is not None:
            judgments.append(best)
    judgments.sort(key=lambda j: j.score)
    return [(j.sentence_id, j) for j in judgments[:k]]


# ---------------------------------------------------------------------------
# Relevance (between questions, between sentences)
# ---------------------------------------------------------------------------


def _any_pair_related(a, b, edges, syn) -> bool:
    pairs = [pair for pair in zip(slot_elements(a), slot_elements(b))
             if None not in pair]
    pairs += [(x.content, y.content) for x in a.adverbials
              for y in b.adverbials if x.kind == y.kind]
    return any(at_or_below(e1, e2, edges, syn)
               or at_or_below(e2, e1, edges, syn) for e1, e2 in pairs)


def question_relevant(q1: QuestionSyntax, q2: QuestionSyntax,
                      edges: EdgeSet | None = None,
                      syn: SynonymTable | None = None) -> bool:
    """Some aligned slot pair is the same / a subclass / a superclass."""
    return _any_pair_related(q1, q2, edges, syn)


def sentence_relevant(s1: SentenceSyntax, s2: SentenceSyntax,
                      edges: EdgeSet | None = None,
                      syn: SynonymTable | None = None) -> bool:
    return _any_pair_related(s1, s2, edges, syn)
