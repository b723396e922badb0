"""Recursive-descent parsing of tagged sentences into syntax tuples.

A sentence is decomposed into subject, action, object and a list of
classified adverbials.  Subjects and objects are noun phrases or clauses;
the action is a verb-phrase decomposition (pre-head, head, post-head);
adverbials are classified as time / place / method / purpose / reason /
condition through marker tables, or left unclassified.

The parser is deterministic: first-match descent with longest-match phrase
heads, a single parse per sentence, and every token either covered by a
constituent span or recorded in the `unparsed` list.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lexicon as lx
from .corpus import NOUN_TAGS, TaggedSentence, Token, VERB_TAGS

NOUN = "noun"
VERB = "verb"
ADJECTIVE = "adjective"
ADVERB = "adverb"
PREPOSITIONAL = "prepositional"
PRONOUN = "pronoun"

AFFIRMATIVE = "affirmative"
NEGATIVE = "negative"

ADVERBIAL_KINDS = ("time", "place", "method", "purpose", "reason",
                   "condition", "unclassified")


class ParseError(ValueError):
    pass


class NoFiniteVerb(ParseError):
    """The sentence has no verb group to serve as its action."""


@dataclass(frozen=True)
class Phrase:
    """(pre-head, head, post-head) decomposition of a phrase.

    For prepositional phrases the preposition is `pre[0]` and the inner
    noun-phrase head is `head`; remaining inner modifiers follow in
    `pre[1:]` and `post`.  All entries are lemmas; vacuous articles are
    dropped, matching the worked decompositions (e.g. "the researcher"
    renders as ("", "researcher", "")).
    """

    kind: str
    head: str
    pre: tuple[str, ...] = ()
    post: tuple[str, ...] = ()
    span: tuple[int, int] = (0, 0)

    def modifiers(self) -> tuple[str, ...]:
        if self.kind == PREPOSITIONAL:
            return self.pre[1:] + self.post
        return self.pre + self.post

    def preposition(self) -> str | None:
        return self.pre[0] if self.kind == PREPOSITIONAL and self.pre else None


@dataclass(frozen=True)
class Clause:
    """Lead word plus a nested (subject, action, object, adverbials) body."""

    lead: str | None
    subject: "Element | None"
    action: Phrase | None
    object: "Element | None"
    adverbials: tuple["Adverbial", ...] = ()
    span: tuple[int, int] = (0, 0)


Element = Phrase | Clause


@dataclass(frozen=True)
class Adverbial:
    kind: str
    content: Element
    marker: str | None = None
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class ObjectGroup:
    """The three object shapes: direct; indirect+direct; direct+complement."""

    direct: Element
    indirect: Element | None = None
    complement: Element | None = None
    indirect_position: str = "none"  # none | before_direct | after_preposition
    preposition: str | None = None
    span: tuple[int, int] = (0, 0)


@dataclass
class SentenceSyntax:
    sentence_id: int
    subject: Element | None
    action: Phrase | None
    object: ObjectGroup | None
    adverbials: tuple[Adverbial, ...]
    polarity: str = AFFIRMATIVE
    unparsed: tuple[int, ...] = ()
    part: int = 0
    doc_id: str = ""
    voice: str = "active"

    def constituent_spans(self) -> list[tuple[int, int]]:
        spans = []
        if self.subject is not None:
            spans.append(self.subject.span)
        if self.action is not None:
            spans.append(self.action.span)
        if self.object is not None:
            spans.append(self.object.span)
        spans.extend(a.span for a in self.adverbials)
        return spans


# ---------------------------------------------------------------------------
# Canonical keys and display forms
# ---------------------------------------------------------------------------

_KIND_TAG = {NOUN: "np", VERB: "vp", ADJECTIVE: "adjp", ADVERB: "advp",
             PRONOUN: "prn"}


def canonical_key(element: Element | Adverbial | None) -> str:
    """Deterministic key: same language representation -> same key.

    Modifier order is ignored (multisets); spans never participate.
    """
    if element is None:
        return "-"
    if isinstance(element, Phrase):
        if element.kind == PREPOSITIONAL:
            inner = " ".join(sorted(element.modifiers()))
            return f"pp({element.preposition()}|np({element.head}|{inner}))"
        mods = " ".join(sorted(element.modifiers()))
        return f"{_KIND_TAG[element.kind]}({element.head}|{mods})"
    if isinstance(element, Adverbial):
        return f"adv({element.kind}|{canonical_key(element.content)})"
    advs = ";".join(canonical_key(a) for a in element.adverbials)
    return "cl({lead}|{subj}|{act}|{obj}|{advs})".format(
        lead=element.lead or "-",
        subj=canonical_key(element.subject),
        act=canonical_key(element.action),
        obj=canonical_key(element.object),
        advs=advs,
    )


def display(element: Element | Adverbial | None) -> str:
    """Readable lemma-order rendering of an element (an adverbial shows its
    content)."""
    if element is None:
        return ""
    if isinstance(element, Phrase):
        return " ".join(element.pre + (element.head,) + element.post)
    if isinstance(element, Adverbial):
        return display(element.content)
    parts = [element.lead] if element.lead else []
    parts.extend(display(x) for x in
                 (element.subject, element.action, element.object) if x)
    parts.extend(display(a) for a in element.adverbials)
    return " ".join(p for p in parts if p)


# ---------------------------------------------------------------------------
# Token predicates
# ---------------------------------------------------------------------------

_PUNCT = frozenset([".", ",", ":", "(", ")", "``", "''"])
_NP_PRE_TAGS = frozenset(["JJ", "JJR", "JJS", "NN", "NNS", "NNP", "NNPS",
                          "CD", "VBG", "VBN", "PRP$"])
_DET_LIKE = frozenset(["DT", "PDT"])
_FINITE_TAGS = frozenset(["VBZ", "VBP", "VBD", "MD"])


def _is_punct(tok: Token) -> bool:
    return tok.pos in _PUNCT


def _nominal_start(tokens, i) -> bool:
    if i >= len(tokens):
        return False
    tok = tokens[i]
    if tok.pos in _DET_LIKE or tok.pos in NOUN_TAGS or tok.pos in ("CD", "PRP", "PRP$"):
        return True
    # demonstrative "that" before a noun
    if tok.lemma == "that" and tok.pos == "IN" and i + 1 < len(tokens) \
            and tokens[i + 1].pos in NOUN_TAGS:
        return True
    if tok.pos in ("JJ", "JJR", "JJS", "VBG", "VBN"):
        j = i
        while j < len(tokens) and tokens[j].pos in _NP_PRE_TAGS:
            if tokens[j].pos in NOUN_TAGS:
                return True
            j += 1
        return False
    return False


def _verb_group_start(tokens, i) -> bool:
    """True when tokens[i] begins a chain that reaches a verb head."""
    j = i
    while j < len(tokens):
        tok = tokens[j]
        if tok.pos in VERB_TAGS and tok.pos != "MD":
            return True
        if tok.pos == "MD" or tok.pos == "RB":
            j += 1
            continue
        break
    return False


def _finite_verb_start(tokens, i) -> bool:
    return i < len(tokens) and tokens[i].pos in _FINITE_TAGS


# ---------------------------------------------------------------------------
# Marker matching
# ---------------------------------------------------------------------------


def match_marker(tokens, i) -> tuple[str, int] | None:
    """Longest marker (possibly multi-word) starting at position i."""
    for marker, words in (lx.MARKERS_BY_FIRST.get(tokens[i].lemma, ())
                          if i < len(tokens) else ()):
        if tuple(tok.lemma for tok in tokens[i:i + len(words)]) == words:
            return marker, i + len(words)
    return None


def classify_marker(marker: str, content: Element | None,
                    has_finite: bool) -> str:
    """Pick the adverbial kind for a marker, in table priority order.

    Ambiguous markers are resolved by content: a clause with a finite verb
    prefers the reason/condition reading; a bare nominal headed by a time
    noun prefers time.
    """
    kinds = [kind for kind, table in lx.MARKER_TABLES if marker in table]
    if not kinds:
        return "unclassified"
    if len(kinds) == 1:
        return kinds[0]
    head = content.head if isinstance(content, Phrase) else None
    if head and (head in lx.TIME_NOUNS or lx.is_year(head)) and "time" in kinds:
        return "time"
    if has_finite:
        for kind in ("condition", "reason"):
            if kind in kinds:
                return kind
    if head and head in lx.PLACE_NOUNS and "place" in kinds:
        return "place"
    return kinds[0]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@dataclass
class _Parser:
    tokens: list[Token]

    # -- noun phrases ------------------------------------------------------

    def parse_np(self, i: int, end: int, attach_pps: bool = False,
                 subject_position: bool = False):
        """Parse a noun phrase starting at i; returns (Phrase, next_i) or
        (None, i).

        `attach_pps` makes every trailing preposition attach as post-head
        (used before the verb); otherwise only of/about attach and other
        prepositions are left for the adverbial layer.
        """
        tokens = self.tokens
        start = i
        pre: list[str] = []
        while i < end and (tokens[i].pos in _DET_LIKE
                           or (tokens[i].lemma == "that" and tokens[i].pos == "IN"
                               and i + 1 < end and tokens[i + 1].pos in NOUN_TAGS)):
            if tokens[i].lemma not in lx.ARTICLES:
                pre.append(tokens[i].lemma)
            i += 1
        if i < end and tokens[i].pos == "PRP":
            return Phrase(PRONOUN, tokens[i].lemma, (), (), (start, i + 1)), i + 1
        run: list[Token] = []
        while i < end and tokens[i].pos in _NP_PRE_TAGS:
            run.append(tokens[i])
            i += 1
        # give trailing modifiers back to the stream, but keep a gerund that
        # completes a compound nominal ("question answering")
        while run and run[-1].pos not in NOUN_TAGS and run[-1].pos != "CD" \
                and not (run[-1].pos == "VBG" and len(run) > 1
                         and run[-2].pos in NOUN_TAGS):
            run.pop()
            i -= 1
        if not any(t.pos in NOUN_TAGS or t.pos == "CD" for t in run):
            return None, start
        head = run[-1].lemma
        pre.extend(t.lemma for t in run[:-1] if t.lemma not in lx.ARTICLES)
        post: list[str] = []
        if i < end and tokens[i].pos == "(":
            i = self._skip_parenthetical(i, end)
        while i < end:
            tok = tokens[i]
            if tok.pos == "IN" and tok.lemma in lx.NP_ATTACH_PREPOSITIONS:
                if i + 1 < end and tokens[i + 1].pos == "VBG":
                    clause, j = self._parse_gerund_clause(i + 1, end)
                    if clause is None:
                        break
                    post.append(tok.lemma)
                    post.extend(self._flatten_lemmas(i + 1, j))
                    i = j
                    continue
                inner, j = self.parse_np(i + 1, end)
                if inner is None:
                    break
                post.append(tok.lemma)
                post.extend(inner.pre + (inner.head,) + inner.post)
                i = j
                continue
            if attach_pps and tok.pos == "IN" and tok.lemma in lx.PREPOSITIONS \
                    and _nominal_start(tokens, i + 1):
                inner, j = self.parse_np(i + 1, end)
                if inner is None:
                    break
                post.append(tok.lemma)
                post.extend(inner.pre + (inner.head,) + inner.post)
                i = j
                continue
            # hypernym-pattern tails stay inside the phrase so that the
            # sentence parse is not interrupted: "algorithms such as LexRank"
            if tok.lemma == "such" and i + 1 < end and tokens[i + 1].lemma == "as" \
                    and _nominal_start(tokens, i + 2):
                inner, j = self.parse_np(i + 2, end,
                                         subject_position=subject_position)
                if inner is None:
                    break
                post.extend(("such", "as") + inner.pre + (inner.head,) + inner.post)
                i = j
                continue
            if tok.lemma == "include" and tok.pos == "VBG" \
                    and _nominal_start(tokens, i + 1):
                inner, j = self.parse_np(i + 1, end)
                if inner is None:
                    break
                post.extend(("include",) + inner.pre + (inner.head,) + inner.post)
                i = j
                continue
            if tok.pos == "CC" and i + 1 < end and tokens[i + 1].lemma == "other" \
                    and _nominal_start(tokens, i + 1):
                inner, j = self.parse_np(i + 1, end)
                if inner is None:
                    break
                post.extend((tok.lemma,) + inner.pre + (inner.head,) + inner.post)
                i = j
                continue
            # plain coordination: kept inside one phrase; in object position
            # a following finite verb means sentence-level coordination
            if tok.pos == "CC" and _nominal_start(tokens, i + 1):
                inner, j = self.parse_np(i + 1, end,
                                         subject_position=subject_position)
                if inner is None:
                    break
                if not subject_position and _finite_verb_start(tokens, j):
                    break
                post.extend((tok.lemma,) + inner.pre + (inner.head,) + inner.post)
                i = j
                continue
            # comma inside an "A, B, and C" list: consume the next item; a
            # comma splice ("..., the researcher wins") stays a boundary
            if tok.pos == "," and self._list_continues(i + 1, end):
                if _nominal_start(tokens, i + 1):
                    inner, j = self.parse_np(i + 1, end,
                                             subject_position=subject_position)
                    if inner is None:
                        break
                    post.extend(inner.pre + (inner.head,) + inner.post)
                    i = j
                    continue
                if i + 1 < end and tokens[i + 1].pos == "CC":
                    i += 1  # ", and C": the conjunction branch takes over
                    continue
                break
            # restrictive relative: "dogs that guard houses"
            if tok.lemma == "that" and i + 1 < end \
                    and _verb_group_start(tokens, i + 1):
                j = i + 1
                flat = ["that"]
                while j < end and not _is_punct(tokens[j]) \
                        and match_marker(tokens, j) is None:
                    flat.append(tokens[j].lemma)
                    j += 1
                post.extend(x for x in flat if x not in lx.ARTICLES)
                i = j
                continue
            # non-restrictive tail: ", which is relevant ..."
            if tok.pos == "," and i + 1 < end and tokens[i + 1].pos in ("WDT", "WP"):
                j = i + 1
                flat = []
                while j < end and not _is_punct(tokens[j]):
                    flat.append(tokens[j].lemma)
                    j += 1
                post.extend(x for x in flat if x not in lx.ARTICLES)
                i = j
                continue
            break
        return Phrase(NOUN, head, tuple(pre), tuple(post), (start, i)), i

    def _flatten_lemmas(self, start: int, end: int) -> list[str]:
        return [t.lemma for t in self.tokens[start:end]
                if t.lemma not in lx.ARTICLES and not _is_punct(t)]

    def _list_continues(self, i: int, end: int) -> bool:
        """Only nominal material and commas up to a coordinating
        conjunction: the tail of an enumeration, not a new clause."""
        for j in range(i, end):
            tok = self.tokens[j]
            if tok.pos == "CC":
                return True
            if tok.pos in _NP_PRE_TAGS or tok.pos in _DET_LIKE or tok.pos == ",":
                continue
            return False
        return False

    def _skip_parenthetical(self, i: int, end: int) -> int:
        depth = 0
        while i < end:
            if self.tokens[i].pos == "(":
                depth += 1
            elif self.tokens[i].pos == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return i

    # -- verb groups -------------------------------------------------------

    def parse_verb_group(self, i: int, end: int):
        """Parse a verb chain; the pre-head collects modals, auxiliaries,
        adverbs and negation; the head is the last main/linking verb."""
        tokens = self.tokens
        start = i
        chain: list[Token] = []
        while i < end:
            tok = tokens[i]
            if tok.pos == "MD":
                chain.append(tok)
                i += 1
                continue
            if tok.pos in VERB_TAGS:
                chain.append(tok)
                i += 1
                # auxiliaries may chain on; the first main verb is the head
                if tok.lemma in ("be", "have", "do"):
                    continue
                break
            if tok.pos == "RB":
                if tok.lemma in ("not", "never") or (
                        i + 1 < end and (tokens[i + 1].pos in VERB_TAGS
                                         or tokens[i + 1].pos == "MD")):
                    chain.append(tok)
                    i += 1
                    continue
                break
            # "able to rank": adjective + to continues the chain
            if tok.pos == "JJ" and i + 2 <= end - 1 and tokens[i + 1].pos == "TO" \
                    and tokens[i + 2].pos in VERB_TAGS:
                chain.append(tok)
                chain.append(tokens[i + 1])
                i += 2
                continue
            break
        verbs = [k for k, t in enumerate(chain)
                 if t.pos in VERB_TAGS and t.pos != "MD"]
        if not verbs:
            return None, start
        head_idx = verbs[-1]
        # chain tokens other than the head are pre-head material; negation
        # may trail a copula head ("is not") and still belongs there
        pre = tuple(t.lemma for k, t in enumerate(chain) if k != head_idx)
        post: list[str] = []
        while i < end and tokens[i].pos == "RB" \
                and tokens[i].lemma not in ("not", "never") \
                and not _verb_group_start(tokens, i + 1):
            post.append(tokens[i].lemma)
            i += 1
        return Phrase(VERB, chain[head_idx].lemma, pre, tuple(post), (start, i)), i

    # -- adverbials --------------------------------------------------------

    def parse_adverbial(self, i: int, end: int):
        """Parse one adverbial starting at i; returns (Adverbial, next_i) or
        (None, i)."""
        tokens = self.tokens
        start = i
        matched = match_marker(tokens, i)
        if matched:
            marker, j = matched
            content, k, has_finite = self._parse_adverbial_content(j, end, marker)
            if content is not None:
                kind = classify_marker(marker, content, has_finite)
                if isinstance(content, Phrase) and content.kind == PREPOSITIONAL:
                    if content.head in lx.TIME_NOUNS or lx.is_year(content.head):
                        kind = "time"
                    elif content.head in lx.PLACE_NOUNS:
                        kind = "place"
                return Adverbial(kind, content, marker, (start, k)), k
        if i >= end:
            return None, start
        tok = tokens[i]
        # bare adverb phrase -> adverbial of method ("quickly", "again")
        if tok.pos in ("RB", "RBR", "RBS") and tok.lemma not in ("not", "never"):
            phrase = Phrase(ADVERB, tok.lemma, (), (), (i, i + 1))
            return Adverbial("method", phrase, None, (i, i + 1)), i + 1
        # method verb phrase without preposition: "using clustering algorithm"
        if tok.pos == "VBG" and tok.lemma in lx.METHOD_VERBS:
            clause, j = self._parse_gerund_clause(i, end)
            if clause is not None:
                return Adverbial("method", clause, None, (start, j)), j
        # "to" + verb: purpose clause ("to select the relevance sentences")
        if tok.pos == "TO" and i + 1 < end and tokens[i + 1].pos in VERB_TAGS:
            clause, j = self._parse_infinitive_clause(i + 1, end, lead="to")
            if clause is not None:
                clause = Clause("to", clause.subject, clause.action,
                                clause.object, clause.adverbials, (start, j))
                return Adverbial("purpose", clause, "to", (start, j)), j
        # generic preposition + NP: unclassified unless the noun decides it
        if tok.pos == "IN" and tok.lemma in lx.PREPOSITIONS \
                and _nominal_start(tokens, i + 1):
            inner, j = self.parse_np(i + 1, end)
            if inner is not None:
                pp = Phrase(PREPOSITIONAL, inner.head, (tok.lemma,) + inner.pre,
                            inner.post, (start, j))
                kind = "unclassified"
                if inner.head in lx.TIME_NOUNS or lx.is_year(inner.head):
                    kind = "time"
                elif inner.head in lx.PLACE_NOUNS:
                    kind = "place"
                return Adverbial(kind, pp, tok.lemma, (start, j)), j
        # bare time noun phrase: "next week"
        if _nominal_start(tokens, i):
            inner, j = self.parse_np(i, end)
            if inner is not None and (inner.head in lx.TIME_NOUNS
                                      or lx.is_year(inner.head)):
                return Adverbial("time", inner, None, (start, j)), j
        return None, start

    def _parse_adverbial_content(self, i: int, end: int, marker: str):
        """Content after a marker: a clause, a gerund clause, or a flat PP."""
        tokens = self.tokens
        if i >= end or _is_punct(tokens[i]):
            return None, i, False
        if tokens[i].pos == "TO" and i + 1 < end and tokens[i + 1].pos in VERB_TAGS:
            clause, k = self._parse_infinitive_clause(i + 1, end, lead=marker)
            return clause, k, False
        if tokens[i].pos in VERB_TAGS and tokens[i].pos == "VBG":
            clause, k = self._parse_gerund_clause(i, end, lead=marker)
            return clause, k, False
        if _verb_group_start(tokens, i):
            clause, k = self._parse_clause_body(i, end, lead=marker)
            return clause, k, True
        if _nominal_start(tokens, i):
            probe, j = self.parse_np(i, end)
            if probe is None:
                return None, i, False
            if j < end and _verb_group_start(tokens, j):
                clause, k = self._parse_clause_body(i, end, lead=marker)
                return clause, k, True
            pp = Phrase(PREPOSITIONAL, probe.head, (marker,) + probe.pre,
                        probe.post, (i, j))
            return pp, j, False
        return None, i, False

    # -- clause bodies -----------------------------------------------------

    def _parse_infinitive_clause(self, i: int, end: int, lead: str = "to",
                                 stop_at_finite: bool = False):
        start = i - 1 if i > 0 and self.tokens[i - 1].pos == "TO" else i
        action, i = self.parse_verb_group(i, end)
        if action is None:
            return None, start
        obj, i = self.parse_object_element(i, end, stop_at_finite=True)
        advs, i = self.parse_trailing_adverbials(i, end,
                                                 stop_at_finite=stop_at_finite)
        return Clause(lead, None, action, obj, tuple(advs), (start, i)), i

    def _parse_gerund_clause(self, i: int, end: int, lead: str | None = None):
        start = i
        action, i = self.parse_verb_group(i, end)
        if action is None:
            return None, start
        obj, i = self.parse_object_element(i, end, stop_at_finite=True)
        advs, i = self.parse_trailing_adverbials(i, end, stop_at_finite=True)
        return Clause(lead, None, action, obj, tuple(advs), (start, i)), i

    def _parse_clause_body(self, i: int, end: int, lead: str | None,
                           stop_before_main: bool = False):
        """Subject + action + object + adverbials, for marker-introduced
        clauses and clause subjects."""
        start = i
        subject = None
        if not _verb_group_start(self.tokens, i):
            subject, i = self.parse_subject_element(i, end)
        action, i = self.parse_verb_group(i, end)
        obj = None
        advs: list[Adverbial] = []
        if action is not None:
            element, i = self.parse_object_element(
                i, end, stop_at_finite=stop_before_main)
            obj = element
            advs, i = self.parse_trailing_adverbials(
                i, end, stop_at_finite=stop_before_main)
        if subject is None and action is None:
            return None, start
        return Clause(lead, subject, action, obj, tuple(advs), (start, i)), i

    # -- subjects ----------------------------------------------------------

    def parse_subject_element(self, i: int, end: int):
        """Noun phrase or noun clause in subject position."""
        tokens = self.tokens
        if i >= end:
            return None, i
        tok = tokens[i]
        if tok.pos == "TO" and i + 1 < end and tokens[i + 1].pos in VERB_TAGS:
            clause, j = self._parse_infinitive_clause(i + 1, end, lead="to",
                                                      stop_at_finite=True)
            if clause is not None:
                return clause, j
        if tok.pos == "VBG" and not _nominal_start(tokens, i):
            clause, j = self._parse_gerund_clause(i, end)
            if clause is not None:
                return clause, j
        if tok.lemma in ("that", "whether") and tok.pos == "IN" \
                and not (i + 1 < end and tokens[i + 1].pos in NOUN_TAGS):
            clause, j = self._parse_clause_body(i + 1, end, lead=tok.lemma,
                                                stop_before_main=True)
            if clause is not None:
                clause = Clause(clause.lead, clause.subject, clause.action,
                                clause.object, clause.adverbials, (i, j))
                return clause, j
        if tok.pos in ("WP", "WDT", "WP$") or (tok.pos == "WRB"):
            clause, j = self._parse_clause_body(i + 1, end, lead=tok.lemma,
                                                stop_before_main=True)
            if clause is not None:
                clause = Clause(clause.lead, clause.subject, clause.action,
                                clause.object, clause.adverbials, (i, j))
                return clause, j
        return self.parse_np(i, end, attach_pps=True, subject_position=True)

    # -- objects -----------------------------------------------------------

    def parse_object_element(self, i: int, end: int,
                             stop_at_finite: bool = False):
        """Single object element (noun phrase or noun clause)."""
        tokens = self.tokens
        if i >= end or _is_punct(tokens[i]):
            return None, i
        tok = tokens[i]
        if stop_at_finite and _finite_verb_start(tokens, i):
            return None, i
        if tok.lemma in ("that", "whether") and tok.pos == "IN" \
                and not (i + 1 < end and tokens[i + 1].pos in NOUN_TAGS
                         and not self._clause_follows(i + 1, end)):
            clause, j = self._parse_clause_body(i + 1, end, lead=tok.lemma)
            if clause is not None:
                clause = Clause(clause.lead, clause.subject, clause.action,
                                clause.object, clause.adverbials, (i, j))
                return clause, j
        if tok.pos == "TO" and i + 1 < end and tokens[i + 1].pos in VERB_TAGS:
            return self._parse_infinitive_clause(i + 1, end)
        if tok.pos == "VBG" and not _nominal_start(tokens, i):
            return self._parse_gerund_clause(i, end)
        if _nominal_start(tokens, i):
            return self.parse_np(i, end)
        return None, i

    def _clause_follows(self, i: int, end: int) -> bool:
        for j in range(i, end):
            if _is_punct(self.tokens[j]):
                return False
            if _finite_verb_start(self.tokens, j):
                return True
        return False

    def parse_object_group(self, i: int, end: int, verb: Phrase | None,
                           stop_at_finite: bool = False):
        """Full object group after the main action."""
        tokens = self.tokens
        start = i
        first, i = self.parse_object_element(i, end, stop_at_finite)
        if first is None:
            return None, i
        # direct + preposition + indirect: "gives the weight to each node"
        if i < end and tokens[i].pos in ("TO", "IN") \
                and tokens[i].lemma in ("to", "for") \
                and _nominal_start(tokens, i + 1):
            prep = tokens[i].lemma
            indirect, j = self.parse_np(i + 1, end)
            if indirect is not None and not (
                    indirect.head in lx.TIME_NOUNS or lx.is_year(indirect.head)):
                return ObjectGroup(first, indirect, None, "after_preposition",
                                   prep, (start, j)), j
        # adjective complement: "makes results excellent"; an adjective that
        # opens a marker ("due to") belongs to the adverbial layer instead
        if i < end and tokens[i].pos in ("JJ", "JJR", "JJS") \
                and not _nominal_start(tokens, i) \
                and match_marker(tokens, i) is None:
            adj = Phrase(ADJECTIVE, tokens[i].lemma, (), (), (i, i + 1))
            return ObjectGroup(first, None, adj, "none", None,
                               (start, i + 1)), i + 1
        # second bare nominal: indirect-before-direct, or a complement when
        # the verb names/classifies ("call X Y")
        if i < end and _nominal_start(tokens, i) \
                and not _finite_verb_start(tokens, i):
            second, j = self.parse_np(i, end)
            if second is not None:
                if verb is not None and verb.head in lx.COMPLEMENT_VERBS:
                    return ObjectGroup(first, None, second, "none", None,
                                       (start, j)), j
                return ObjectGroup(second, first, None, "before_direct", None,
                                   (start, j)), j
        return ObjectGroup(first, None, None, "none", None, (start, i)), i

    # -- adverbial sequences -------------------------------------------------

    def parse_trailing_adverbials(self, i: int, end: int,
                                  stop_at_finite: bool = False):
        tokens = self.tokens
        out: list[Adverbial] = []
        while i < end:
            if tokens[i].pos == ",":
                nxt = i + 1
                if nxt < end and not _is_punct(tokens[nxt]) \
                        and not _finite_verb_start(tokens, nxt) \
                        and tokens[nxt].pos != "CC":
                    i = nxt
                    continue
                break
            if stop_at_finite and _finite_verb_start(tokens, i):
                break
            adv, j = self.parse_adverbial(i, end)
            if adv is None:
                break
            out.append(adv)
            i = j
        return out, i

    def parse_leading_adverbials(self, i: int, end: int):
        """Comma-delimited marker spans and bare PPs before the subject."""
        tokens = self.tokens
        out: list[Adverbial] = []
        while i < end:
            tok = tokens[i]
            starts_marker = match_marker(tokens, i) is not None
            starts_pp = tok.pos == "IN" and tok.lemma in lx.PREPOSITIONS
            # "to select ...," with a comma is a purpose adverbial; without
            # one the infinitive is the sentence subject
            starts_to = tok.pos == "TO" and i + 1 < end \
                and tokens[i + 1].pos in VERB_TAGS \
                and self._find_comma(i, end) is not None
            if not (starts_marker or starts_pp or starts_to):
                break
            comma = self._find_comma(i, end)
            if comma is None:
                if starts_pp and _nominal_start(tokens, i + 1):
                    adv, j = self.parse_adverbial(i, end)
                    if adv is not None and isinstance(adv.content, Phrase):
                        out.append(adv)
                        i = j
                        continue
                break
            adv, j = self.parse_adverbial(i, comma)
            if adv is None or j != comma:
                break
            out.append(adv)
            i = comma + 1
        return out, i

    def _find_comma(self, i: int, end: int):
        depth = 0
        for j in range(i, end):
            tok = self.tokens[j]
            if tok.pos == "(":
                depth += 1
            elif tok.pos == ")":
                depth -= 1
            elif tok.pos == "," and depth == 0:
                return j
        return None


# ---------------------------------------------------------------------------
# Sentence-level entry points
# ---------------------------------------------------------------------------


def parse_sentence(sentence: TaggedSentence) -> SentenceSyntax:
    """Parse one sentence into its primary syntax tuple.

    Raises NoFiniteVerb when no verb group exists; such sentences count as
    uncovered by the action dimension.
    """
    return parse_sentence_parts(sentence)[0]


def parse_sentence_parts(sentence: TaggedSentence) -> list[SentenceSyntax]:
    """Parse a sentence; top-level coordination of finite clauses yields
    several parts sharing the sentence id."""
    tokens = sentence.tokens
    end = len(tokens)
    parser = _Parser(tokens)
    parts: list[SentenceSyntax] = []
    covered: set[int] = set()
    i = 0
    while i < end:
        syntax, i = _parse_one(parser, sentence, i, end, part=len(parts))
        if syntax is None:
            break
        parts.append(syntax)
        for st, en in syntax.constituent_spans():
            covered.update(range(st, en))
        # separators between coordinated parts and trailing punctuation are
        # not constituents; they surface in the unparsed list
        moved = False
        while i < end and tokens[i].pos in (",", "CC", "."):
            if tokens[i].pos == "CC":
                moved = True
            i += 1
        if not (moved and i < end):
            break
    if not parts:
        raise NoFiniteVerb(
            f"sentence {sentence.sentence_id}: no verb group found")
    leftover = tuple(k for k in range(end) if k not in covered)
    for part in parts:
        part.unparsed = leftover
    return parts


def _parse_one(parser: _Parser, sentence: TaggedSentence, i: int, end: int,
               part: int):
    tokens = sentence.tokens
    leading, i = parser.parse_leading_adverbials(i, end)

    subject = None
    if not _verb_group_start(tokens, i) or _nominal_start(tokens, i):
        subject, i = parser.parse_subject_element(i, end)

    action, i = parser.parse_verb_group(i, end)
    obj = None
    trailing: list[Adverbial] = []
    if action is not None:
        obj, i = parser.parse_object_group(i, end, action)
        trailing, i = parser.parse_trailing_adverbials(i, end)

    # Clause-subject wrap: another finite verb at top level means what was
    # parsed so far is a clause acting as the subject.
    while action is not None and i < end and _finite_verb_start(tokens, i):
        span_start = subject.span[0] if subject is not None else action.span[0]
        clause = Clause(None, subject, action,
                        obj.direct if obj is not None else None,
                        tuple(trailing), (span_start, i))
        subject = clause
        action, i = parser.parse_verb_group(i, end)
        obj, i = parser.parse_object_group(i, end, action)
        trailing, i = parser.parse_trailing_adverbials(i, end)

    if action is None and subject is None:
        return None, i
    if action is None:
        raise NoFiniteVerb(
            f"sentence {sentence.sentence_id}: no verb group found")

    polarity = NEGATIVE if set(action.pre) & lx.NEGATION_WORDS else AFFIRMATIVE
    syntax = SentenceSyntax(
        sentence_id=sentence.sentence_id,
        subject=subject,
        action=action,
        object=obj,
        adverbials=tuple(leading) + tuple(trailing),
        polarity=polarity,
        part=part,
        doc_id=sentence.doc_id,
        voice=sentence.voice,
    )
    return syntax, i


# ---------------------------------------------------------------------------
# Stand-alone operations over token windows
# ---------------------------------------------------------------------------


def parse_action(tokens: list[Token]) -> Phrase:
    """Parse a verb group from the start of a token window."""
    phrase, _ = _Parser(list(tokens)).parse_verb_group(0, len(tokens))
    if phrase is None:
        raise ParseError("not a verb group")
    return phrase


def parse_object(tokens: list[Token], verb: Phrase | None = None) -> ObjectGroup | None:
    """Parse an object group from the start of a token window; None when
    there is no object (the sentence stays valid)."""
    group, _ = _Parser(list(tokens)).parse_object_group(0, len(tokens), verb)
    return group


def classify_adverbial(tokens: list[Token]) -> Adverbial | None:
    """Parse and classify a candidate adverbial span."""
    adv, _ = _Parser(list(tokens)).parse_adverbial(0, len(tokens))
    return adv


# ---------------------------------------------------------------------------
# Debug dump (golden-test format)
# ---------------------------------------------------------------------------

_KIND_NAME = {NOUN: "noun phrase", ADJECTIVE: "adjective phrase",
              ADVERB: "adverb phrase", PRONOUN: "pronoun"}


def dump_element(element: Element | None) -> str:
    if element is None:
        return "Empty"
    if isinstance(element, Phrase):
        if element.kind == PREPOSITIONAL:
            inner = _triple(element.pre[1:], element.head, element.post)
            return f'("{element.preposition()}", {inner})'
        if element.kind == VERB:
            return _triple(element.pre, element.head, element.post)
        return (f"({_KIND_NAME[element.kind]}, "
                f"{_triple(element.pre, element.head, element.post)})")
    lead = f'"{element.lead}"' if element.lead else "Empty"
    return (
        f'(clause, "lead word": {lead}, '
        f'"subject": {dump_element(element.subject)}, '
        f'"action": {dump_element(element.action)}, '
        f'"object": {dump_element(element.object)}, '
        f'"adverbial": {dump_adverbials(element.adverbials)})'
    )


def _triple(pre, head, post) -> str:
    return f'("{" ".join(pre)}", "{head}", "{" ".join(post)}")'


def dump_adverbials(adverbials) -> str:
    if not adverbials:
        return "Empty"
    rendered = []
    for adv in adverbials:
        if adv.kind == "unclassified":
            rendered.append(f"(adverbial, {dump_element(adv.content)})")
        else:
            rendered.append(
                f"(adverbial of {adv.kind}, {dump_element(adv.content)})")
    if len(rendered) == 1:
        return rendered[0]
    return "[" + ", ".join(rendered) + "]"


def dump_object_group(group: ObjectGroup | None) -> str:
    if group is None:
        return "Empty"
    if group.indirect is None and group.complement is None:
        return dump_element(group.direct)
    if group.complement is not None:
        return (f'("direct": {dump_element(group.direct)}, '
                f'"complement": {dump_element(group.complement)})')
    return (f'("direct": {dump_element(group.direct)}, '
            f'"indirect": {dump_element(group.indirect)})')


def dump_parse(syntax: SentenceSyntax) -> str:
    """Render a parse in the nested parenthesized golden-test format."""
    return (
        f'"subject": {dump_element(syntax.subject)},\n'
        f'"action": {dump_element(syntax.action)},\n'
        f'"object": {dump_object_group(syntax.object)},\n'
        f'"adverbial": {dump_adverbials(syntax.adverbials)}'
    )
