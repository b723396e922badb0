"""Recursive-descent parsing of tagged sentences into syntax tuples.

A sentence is decomposed into subject, action, object and a list of
classified adverbials.  Subjects and objects are noun phrases or clauses;
the action is a verb-phrase decomposition (pre-head, head, post-head);
adverbials are classified as time / place / method / purpose / reason /
condition through marker tables, or left unclassified.

The parser is deterministic: first-match descent with longest-match phrase
heads and a single parse per sentence.  Constituent spans never overlap;
tokens outside them (separators, final marks, a tail the parse stops
before) are left out.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, replace

from . import lexicon as lx
from .corpus import (FINITE_VERB_TAGS, NOUN_TAGS, TaggedSentence, Token,
                     VERB_TAGS)

NOUN = "noun"
VERB = "verb"
ADJECTIVE = "adjective"
ADVERB = "adverb"
PREPOSITIONAL = "prepositional"
PRONOUN = "pronoun"

AFFIRMATIVE = "affirmative"
NEGATIVE = "negative"


class ParseError(ValueError):
    pass


class NoFiniteVerb(ParseError):
    """The sentence has no verb group to serve as its action."""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Clause:
    """Lead word plus a nested (subject, action, object, adverbials) body."""

    lead: str | None
    subject: "Element | None"
    action: Phrase | None
    object: "Element | None"
    adverbials: tuple["Adverbial", ...] = ()
    span: tuple[int, int] = (0, 0)


Element = Phrase | Clause


@dataclass(frozen=True, slots=True)
class Adverbial:
    kind: str
    content: Element  # its marker is the content's lead or preposition()
    _: KW_ONLY
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True, slots=True)
class ObjectGroup:
    """The three object shapes: direct; indirect+direct; direct+complement."""

    direct: Element
    indirect: Element | None = None
    complement: Element | None = None
    span: tuple[int, int] = (0, 0)


@dataclass(slots=True)
class SentenceSyntax:
    sentence_id: int
    subject: Element | None
    action: Phrase | None
    object: ObjectGroup | None
    adverbials: tuple[Adverbial, ...]
    polarity: str = AFFIRMATIVE


def slot_elements(t) -> tuple:
    """The subject, action and direct, indirect and complement object of a
    clause, sentence or question.  A clause's object fills the direct slot;
    without an object group the three object slots are None."""
    if isinstance(t, Clause):
        return t.subject, t.action, t.object, None, None
    group = t.object
    if group is None:
        return t.subject, t.action, None, None, None
    return t.subject, t.action, group.direct, group.indirect, group.complement


# ---------------------------------------------------------------------------
# Canonical keys and display forms
# ---------------------------------------------------------------------------

_KIND_TAG = {NOUN: "np", VERB: "vp", ADJECTIVE: "adjp", ADVERB: "advp",
             PRONOUN: "prn"}
KEY_PREFIXES = tuple(f"{tag}(" for tag in  # how each key opens
                     (*_KIND_TAG.values(), "pp", "adv", "cl"))


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


def _infinitive_start(tokens, i, end) -> bool:
    """A "to" followed by a verb at i."""
    return i + 1 < end and tokens[i].pos == "TO" \
        and tokens[i + 1].pos in VERB_TAGS


def _finite_verb_start(tokens, i) -> bool:
    return i < len(tokens) and tokens[i].pos in FINITE_VERB_TAGS


def _noun_kind(head: str, default: str | None) -> str | None:
    """The adverbial kind a head noun decides: time or place, else
    `default`."""
    if head in lx.TIME_NOUNS or lx.is_year(head):
        return "time"
    return "place" if head in lx.PLACE_NOUNS else default


def polarity_of(action: Phrase, negated: bool = False) -> str:
    """Negative when the action's pre-head (or an inverted auxiliary of a
    question, `negated`) carries a negation word."""
    if negated or not lx.NEGATION_WORDS.isdisjoint(action.pre):
        return NEGATIVE
    return AFFIRMATIVE


# ---------------------------------------------------------------------------
# Marker matching
# ---------------------------------------------------------------------------


def match_marker(tokens, i) -> tuple[str, int] | None:
    """Longest marker (possibly multi-word) starting at position i."""
    for marker, words in (lx.MARKERS_BY_FIRST.get(tokens[i].lemma, ())
                          if i < len(tokens) else ()):
        n = len(words)  # a longer one fails on a short window or 2nd lemma
        if n == 1 or (i + n <= len(tokens) and tokens[i + 1].lemma == words[1]
                      and tuple(t.lemma for t in tokens[i:i + n]) == words):
            return marker, i + n
    return None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Parser:
    tokens: list[Token]

    # -- noun phrases ------------------------------------------------------

    def parse_np(self, i: int, end: int, subject_position: bool = False):
        """Parse a noun phrase starting at i; returns (Phrase, next_i) or
        (None, i).

        Tails after the head fold into the post-head in one loop: of/about,
        "such as", "including", "and other", coordination and "A, B, and C"
        items each add their connector and the item's words (`_np_words`),
        relative clauses their lemmas.  Every item takes the phrase's
        position.  In subject position (before the verb) any preposition
        before a nominal attaches; otherwise only of/about do, and a finite
        verb after the phrase hands its last plain coordination back.
        """
        tokens = self.tokens
        words = self._np_words(i, end)
        if words is None:
            return None, i
        kind, pre, head, j = words
        start, i = i, j
        post: list[str] = []
        mark = None  # (conjunction, len(post)) of the last plain coordination
        list_end = -1  # a comma list's conjunction: each comma before it continues
        while kind == NOUN and i < end:  # a pronoun takes no tails
            tok = tokens[i]
            # A fold appends its connector lemmas `keep` and the words of the
            # item that starts at `j`.
            if tok.pos == "IN" and tok.lemma in lx.NP_ATTACH_PREPOSITIONS:
                if i + 1 < end and tokens[i + 1].pos == "VBG":
                    _, j = self._parse_verb_clause(i + 1, end)
                    post.extend(self._flatten_lemmas(i, j))
                    i = j
                    continue
                keep, j = (tok.lemma,), i + 1
            elif subject_position and tok.pos == "IN" \
                    and tok.lemma in lx.PREPOSITIONS and _nominal_start(tokens, i + 1):
                keep, j = (tok.lemma,), i + 1
            # hypernym-pattern tails stay inside the phrase so that the
            # sentence parse is not interrupted: "algorithms such as LexRank"
            elif tok.lemma == "such" and i + 1 < end \
                    and tokens[i + 1].lemma == "as" and _nominal_start(tokens, i + 2):
                keep, j = ("such", "as"), i + 2
            elif tok.lemma == "include" and tok.pos == "VBG" \
                    and _nominal_start(tokens, i + 1):
                keep, j = ("include",), i + 1
            # "and other" is a pattern tail, plain coordination a list item
            elif tok.pos == "CC" and _nominal_start(tokens, i + 1):
                keep, j = (tok.lemma,), i + 1
            # comma inside an "A, B, and C" list: consume the next item; a
            # comma splice ("..., the researcher wins") stays a boundary
            elif tok.pos == "," and (i < list_end
                                     or (list_end := self._list_end(i + 1, end)) > i):
                if _nominal_start(tokens, i + 1):
                    keep, j = (), i + 1
                elif i + 1 < end and tokens[i + 1].pos == "CC":
                    i += 1  # ", and C": the conjunction branch takes over
                    continue
                else:
                    break
            # restrictive relative: "dogs that guard houses"
            elif tok.lemma == "that" and i + 1 < end \
                    and _verb_group_start(tokens, i + 1):
                j = i + 1
                while j < end and not _is_punct(tokens[j]) \
                        and match_marker(tokens, j) is None:
                    j += 1
                post.extend(self._flatten_lemmas(i, j))
                i = j
                continue
            # non-restrictive tail: ", which is relevant ..."
            elif tok.pos == "," and i + 1 < end \
                    and tokens[i + 1].pos in ("WDT", "WP"):
                j = i + 1
                while j < end and not _is_punct(tokens[j]):
                    j += 1
                post.extend(self._flatten_lemmas(i + 1, j))
                i = j
                continue
            else:
                break
            words = self._np_words(j, end)
            if words is None:
                break
            item_kind, item_pre, item_head, k = words
            # in object position a plain coordination marks where it began;
            # a pronoun item ends where it stands, so it keeps its mark only
            # before a finite verb
            if tok.pos == "CC" and not subject_position and tokens[j].lemma != "other" \
                    and (item_kind == NOUN or _finite_verb_start(tokens, k)):
                mark = i, len(post)
            post += (*keep, *item_pre, item_head)
            i = k
        if mark is not None and _finite_verb_start(tokens, i):
            i, post = mark[0], post[:mark[1]]
        return Phrase(kind, head, tuple(pre), tuple(post), (start, i)), i

    def _np_words(self, i: int, end: int):
        """A noun phrase at i without tails: (kind, pre, head, next_i), or
        None; a pronoun keeps no pre-head, a noun skips a parenthetical."""
        tokens = self.tokens
        pre: list[str] = []
        while i < end and (tokens[i].pos in _DET_LIKE
                           or (tokens[i].lemma == "that" and tokens[i].pos == "IN"
                               and i + 1 < end and tokens[i + 1].pos in NOUN_TAGS)):
            if tokens[i].lemma not in lx.ARTICLES:
                pre.append(tokens[i].lemma)
            i += 1
        if i < end and tokens[i].pos == "PRP":
            return PRONOUN, [], tokens[i].lemma, i + 1
        run: list[Token] = []
        while i < end and tokens[i].pos in _NP_PRE_TAGS:
            run.append(tokens[i])
            i += 1
        # give trailing modifiers back to the stream, but keep a gerund that
        # completes a compound nominal ("question answering"): a run left
        # ends in a noun, a number or such a gerund, so it holds one of them
        while run and run[-1].pos not in NOUN_TAGS and run[-1].pos != "CD" \
                and not (run[-1].pos == "VBG" and len(run) > 1
                         and run[-2].pos in NOUN_TAGS):
            run.pop()
            i -= 1
        if not run:
            return None
        pre.extend(t.lemma for t in run[:-1] if t.lemma not in lx.ARTICLES)
        if i < end and tokens[i].pos == "(":
            i = self._skip_parenthetical(i, end)
        return NOUN, pre, run[-1].lemma, i

    def _flatten_lemmas(self, start: int, end: int) -> list[str]:
        return [t.lemma for t in self.tokens[start:end]
                if t.lemma not in lx.ARTICLES and not _is_punct(t)]

    def _list_end(self, i: int, end: int) -> int:
        """The coordinating conjunction after only nominal material and
        commas: the tail of an enumeration, not a new clause; else -1."""
        for j in range(i, end):
            tok = self.tokens[j]
            if tok.pos == "CC":
                return j
            if tok.pos in _NP_PRE_TAGS or tok.pos in _DET_LIKE or tok.pos == ",":
                continue
            return -1
        return -1

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
            content, k = self._parse_adverbial_content(j, end, marker)
            if content is not None:
                # a prepositional content's head noun may overrule the marker
                kind = lx.MARKER_KINDS[marker]
                if isinstance(content, Phrase):
                    kind = _noun_kind(content.head, kind)
                return Adverbial(kind, content, span=(start, k)), k
        if i >= end:
            return None, start
        tok = tokens[i]
        # bare adverb phrase -> adverbial of method ("quickly", "again")
        if tok.pos in ("RB", "RBR", "RBS") and tok.lemma not in ("not", "never"):
            phrase = Phrase(ADVERB, tok.lemma, (), (), (i, i + 1))
            return Adverbial("method", phrase, span=(i, i + 1)), i + 1
        # method verb phrase without preposition: "using clustering algorithm"
        if tok.pos == "VBG" and tok.lemma in lx.METHOD_VERBS:
            clause, j = self._parse_verb_clause(i, end)
            return Adverbial("method", clause, span=(start, j)), j
        # "to" + verb: purpose clause ("to select the relevance sentences")
        if _infinitive_start(tokens, i, end):
            clause, j = self._parse_verb_clause(i, end, "to",
                                                stop_at_finite=False)
            if clause is not None:
                return Adverbial("purpose", clause, span=(start, j)), j
        # generic preposition + NP: unclassified unless the noun decides it
        if tok.pos == "IN" and tok.lemma in lx.PREPOSITIONS \
                and _nominal_start(tokens, i + 1):
            inner, j = self.parse_np(i + 1, end)
            if inner is not None:
                pp = Phrase(PREPOSITIONAL, inner.head, (tok.lemma,) + inner.pre,
                            inner.post, (start, j))
                kind = _noun_kind(inner.head, "unclassified")
                return Adverbial(kind, pp, span=(start, j)), j
        # bare time noun phrase: "next week"
        if _nominal_start(tokens, i):
            inner, j = self.parse_np(i, end)
            if inner is not None and _noun_kind(inner.head, None) == "time":
                return Adverbial("time", inner, span=(start, j)), j
        return None, start

    def _parse_adverbial_content(self, i: int, end: int, marker: str):
        """Content after a marker: a clause, a gerund clause, or a flat PP."""
        tokens = self.tokens
        if i >= end or _is_punct(tokens[i]):
            return None, i
        if tokens[i].pos == "VBG" or _infinitive_start(tokens, i, end):
            return self._parse_verb_clause(
                i, end, marker, stop_at_finite=tokens[i].pos == "VBG")
        if _verb_group_start(tokens, i):
            return self._parse_clause_body(i, end, lead=marker)
        if _nominal_start(tokens, i):
            probe, j = self.parse_np(i, end)
            if probe is None:
                return None, i
            if j < end and _verb_group_start(tokens, j):
                return self._parse_clause_body(i, end, lead=marker)
            pp = Phrase(PREPOSITIONAL, probe.head, (marker,) + probe.pre,
                        probe.post, (i, j))
            return pp, j
        return None, i

    # -- clause bodies -----------------------------------------------------

    def _parse_verb_clause(self, i: int, end: int, lead: str | None = None,
                           stop_at_finite: bool = True):
        """Subjectless clause from i: an infinitive ("to select the
        sentences", whose span takes in the "to") or a gerund clause
        ("ranking the sentences").  The object stops at a finite verb; the
        trailing adverbials do so when `stop_at_finite` is set."""
        start = i
        if self.tokens[i].pos == "TO":
            i += 1
        action, i = self.parse_verb_group(i, end)
        if action is None:
            return None, start
        obj, i = self.parse_object_element(i, end, stop_at_finite=True)
        advs, i = self.parse_trailing_adverbials(i, end,
                                                 stop_at_finite=stop_at_finite)
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
        if _infinitive_start(tokens, i, end) \
                or tok.pos == "VBG" and not _nominal_start(tokens, i):
            clause, j = self._parse_verb_clause(
                i, end, "to" if tok.pos == "TO" else None)
            if clause is not None:
                return clause, j
        if tok.pos in ("WP", "WDT", "WP$", "WRB") \
                or tok.lemma in ("that", "whether") and tok.pos == "IN" \
                and not (i + 1 < end and tokens[i + 1].pos in NOUN_TAGS):
            clause, j = self._parse_clause_body(i + 1, end, lead=tok.lemma,
                                                stop_before_main=True)
            if clause is not None:
                return replace(clause, span=(i, j)), j
        return self.parse_np(i, end, subject_position=True)

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
                return replace(clause, span=(i, j)), j
        if _infinitive_start(tokens, i, end):
            return self._parse_verb_clause(i, end, "to", stop_at_finite=False)
        if tok.pos == "VBG" and not _nominal_start(tokens, i):
            return self._parse_verb_clause(i, end)
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

    def parse_object_group(self, i: int, end: int, verb: Phrase | None):
        """Full object group after the main action."""
        tokens = self.tokens
        start = i
        first, i = self.parse_object_element(i, end)
        if first is None:
            return None, i
        # direct + preposition + indirect: "gives the weight to each node"
        if i < end and tokens[i].pos in ("TO", "IN") \
                and tokens[i].lemma in ("to", "for") \
                and _nominal_start(tokens, i + 1):
            indirect, j = self.parse_np(i + 1, end)
            if indirect is not None \
                    and _noun_kind(indirect.head, None) != "time":
                return ObjectGroup(first, indirect, span=(start, j)), j
        # adjective complement: "makes results excellent"; an adjective that
        # opens a marker ("due to") belongs to the adverbial layer instead
        if i < end and tokens[i].pos in ("JJ", "JJR", "JJS") \
                and not _nominal_start(tokens, i) \
                and match_marker(tokens, i) is None:
            adj = Phrase(ADJECTIVE, tokens[i].lemma, (), (), (i, i + 1))
            return ObjectGroup(first, None, adj, span=(start, i + 1)), i + 1
        # second bare nominal: indirect-before-direct, or a complement when
        # the verb names/classifies ("call X Y")
        if i < end and _nominal_start(tokens, i) \
                and not _finite_verb_start(tokens, i):
            second, j = self.parse_np(i, end)
            if second is not None:
                if verb is not None and verb.head in lx.COMPLEMENT_VERBS:
                    return ObjectGroup(first, None, second, span=(start, j)), j
                return ObjectGroup(second, first, span=(start, j)), j
        return ObjectGroup(first, span=(start, i)), i

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
            starts_to = _infinitive_start(tokens, i, end) \
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
    i = 0
    while i < end:
        syntax, i = _parse_one(parser, sentence, i, end)
        if syntax is None:
            break
        parts.append(syntax)
        # separators between coordinated parts and trailing punctuation are
        # not constituents
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
    return parts


def _parse_one(parser: _Parser, sentence: TaggedSentence, i: int, end: int):
    tokens = sentence.tokens
    leading, i = parser.parse_leading_adverbials(i, end)

    subject = None
    if not _verb_group_start(tokens, i) or _nominal_start(tokens, i):
        subject, i = parser.parse_subject_element(i, end)

    action, i = parser.parse_verb_group(i, end)
    obj = None
    trailing: list[Adverbial] = []
    while action is not None:
        obj, i = parser.parse_object_group(i, end, action)
        trailing, i = parser.parse_trailing_adverbials(i, end)
        if not _finite_verb_start(tokens, i):
            break
        # Clause-subject wrap: another finite verb at top level means what
        # was parsed so far is a clause acting as the subject.
        span_start = subject.span[0] if subject is not None else action.span[0]
        subject = Clause(None, subject, action,
                         obj.direct if obj is not None else None,
                         tuple(trailing), (span_start, i))
        action, i = parser.parse_verb_group(i, end)

    if action is None and subject is None:
        return None, i
    if action is None:
        raise NoFiniteVerb(
            f"sentence {sentence.sentence_id}: no verb group found")

    syntax = SentenceSyntax(
        sentence_id=sentence.sentence_id,
        subject=subject,
        action=action,
        object=obj,
        adverbials=tuple(leading) + tuple(trailing),
        polarity=polarity_of(action),
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
