"""The closed-edge relation, cycle breaking, the sentence splitter and the
one-direction relation `at_or_below` against their original
implementations, kept here as references.

`np_reaches` and `vp_edge_reaches` scan every harvested edge at every step,
as the package did before an `EdgeSet` was closed when built; `find_cycle`
is the recursive cycle search.  They are copied unchanged except that
they read an `EdgeSet` as its (child key, parent key) pairs: the np walk
takes the pairs whose child is no verb, the vp walk those whose child is
one.  `ref_break_cycles` is cycle
breaking as it was when each drop sorted the edges again and searched the
whole graph afresh, copied unchanged but for its name and for calling
`find_cycle`.  The noun pool shares the head "run" with the verb pool, so
the closed relation's first step, which looks up np edges by head, is
checked across kinds.

The anchors that a dimension's `SearchIndex` gives `search` are checked
against testing every node with `at_or_below`, the scan it replaced, and
`build_dimension` against the copy whose modifier step judged every
ordered pair of a bucket.  `search` is checked against the same scan over
random spaces.  `candidate_search` and `match_answer` are checked against
the copies that wrote the subject, action and object slots out by hand,
one branch or `slot()` call each, and asked `at_or_below` of every slot;
`answer`, which reads the searched slots from the anchors, against the
answers those copies give, also with the `search` that walked the
dimension's reduced edges below the anchors (`Dimension.descendants`,
copied).

`split_sentences` and `_inside_abbreviation` are the splitter that scanned
the whole text before each candidate dot and collapsed whitespace with
`re.sub`, copied unchanged together with the abbreviation list and boundary
pattern they read.

The ranking baselines, which filter the corpus once into a
`BaselineIndex` and skip documents that share no lemma with the question,
are checked against the copy that prepared everything on each call.

The references compare modifiers through `phrase_subclass`,
`_modifier_below`, `_multiset` and `_proper_superset` as they were when
every call built two `Counter`s, copied unchanged, so that they never call
the length-first rule under test.  `match_marker` is checked against the
loop that tried every marker at each token that can start one, copied
unchanged but for reading `ALL_MARKERS` and `MARKER_FIRST_TOKENS` (a copy of
the set that `lexicon` no longer has) without the `lx.` prefix, also on
texts that end inside a multi-word marker.

`tag` and `normalize_voice` are checked against the tagger that read every
token afresh and built each token as a frozen dataclass: `tag`, `_tag_word`,
`_aux_tag`, `_contextual_fixups`, `normalize_voice`, `_rewrite_window` and
`_reinflect` are copied unchanged but for the `ref_` prefix on the public
names, together with a dataclass `Token` of their own; the helpers they call
and that did not change are read from `corpus`.  `normalize_voice` searches
on past an agentless window and keeps `passive_converted` (the rule that
made it rewrite every agent window and idempotent on the voice), through
`ref_find_passive_window`: the window finder as it was when it always
searched from the first token, copied unchanged but for its name and a
`start` index to search from.  `tag` and `ingest_text`
are also checked, token for token and of the type `corpus.Token`, against
`ref_loop_tag` and `ref_contextual_fixups`: the tagger that built each
namedtuple token in a loop and visited every token in its fixups, copied
unchanged but for their names and for reading `Token`, and the lemma and
tag of the memoized `_tag_word`'s token, from `corpus`.  The reference
tokenizes the whole sentence and reads each word in place, where `tag`
reads each whitespace-free chunk through a memo, so the texts glue pieces
into chunks of several tokens and of none.  The two fixups call
`ref_verb_inflection_tag`.

`classify_marker`, `_verb_inflection_tag` and `qa._strip_aux` are kept as
they were before each became the one rule it always gave: a marker's kind
from its first table, then a prepositional content's head noun; "VBZ" for
every inflection left after the participle test; every pre-head item that
is not an auxiliary.  Their tests run every marker against every content
shape, every inflected form of a `VERBS` lemma, and every pre-head of up to
two closed-class words.

`_scan_list_patterns` is kept as it was when it ran its token loop over
every sentence, and `scan_syntactic_patterns` is checked against it on
sentences with and without the patterns' trigger lemmas.

`_Parser.parse_np` is kept, on the subclass `_RefParser`, as it was when it
folded each item through a recursive parse of an inner noun phrase and
took `attach_pps`; the one loop is checked against it in both positions,
and `_parse_one` through either parser, on windows of phrases joined by
every connector a phrase folds and followed by finite verbs.

`display` is checked against `ref_display`, the rendering that recursed
into each part of a clause, copied unchanged but for its name and that of
its self-call, on phrases, clauses and adverbials nested in one another,
with parts left out or empty.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations, product
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from syntaxspace import corpus, evaluation, qa
from syntaxspace import lexicon as lx
from syntaxspace.corpus import (ACTIVE, NOUN_TAGS, PASSIVE_AGENTLESS,
                                PASSIVE_CONVERTED, TAGSET, VERB_TAGS,
                                _NP_TAGS, _PUNCT_TAGS, MalformedLine,
                                TaggedSentence, _open_class_reading,
                                _verb_inflection_tag, tokenize)
from syntaxspace.evaluation import (BASELINE_METHODS, BaselineConfig,
                                    UnknownMethod)
from syntaxspace.lexicon import ALL_MARKERS, FUNCTION_LEMMAS
from syntaxspace.qa import GENERAL_Q, AnswerJudgment, QuestionSyntax
from syntaxspace.space import (DIMENSIONS, _EVIDENCE_RANK, _SNAPSHOT_HEAD,
                               _SNAPSHOT_TAIL, Dimension, ResourceSpace,
                               _break_cycles, build_dimension,
                               corpus_section, search, sentence_elements,
                               transitive_reduce)
from syntaxspace.subsume import (EQUAL, MODIFIER, RELATED, SUBCLASS,
                                 SUPERCLASS, SYNTACTIC, UNRELATED, EdgeSet,
                                 KindMismatch, SearchIndex, SynonymTable,
                                 _as_action_np, _inner_np, _np_edge,
                                 _np_ending_before, _np_list, _scan_copula,
                                 _scan_infinitive_pattern, _shape,
                                 at_or_below, clause_subclass,
                                 element_subclass, harvest_edges,
                                 question_subclass, reach,
                                 scan_syntactic_patterns, sentence_subclass,
                                 verb_phrase_subclass)
from syntaxspace.syntax import (_DET_LIKE, _NP_PRE_TAGS, ADJECTIVE, ADVERB,
                                NOUN, PREPOSITIONAL, PRONOUN, VERB, Adverbial,
                                Clause, NoFiniteVerb, ObjectGroup, Phrase,
                                SentenceSyntax, _finite_verb_start, _is_punct,
                                _nominal_start, _noun_kind, _parse_one,
                                _Parser, _verb_group_start, canonical_key,
                                classify_adverbial, display, match_marker,
                                parse_sentence_parts)

from conftest import UNICODE_SPACES, adjp, advp, np, pp, vp
from generators import tagged_rows, word_soup


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def _multiset(phrase: Phrase) -> Counter:
    return Counter(phrase.modifiers())


def _proper_superset(larger: Counter, smaller: Counter) -> bool:
    return smaller != larger and all(larger[k] >= v for k, v in smaller.items())


def phrase_subclass(p1: Phrase, p2: Phrase) -> bool:
    """Modifier rule: equal heads and p2's modifiers a proper subset of p1's.

    Equal phrases are merged elsewhere, never subclassed, hence proper.
    """
    if not isinstance(p1, Phrase) or not isinstance(p2, Phrase):
        raise KindMismatch("phrase_subclass expects phrases")
    if p1.kind != p2.kind:
        raise KindMismatch(f"{p1.kind} vs {p2.kind}")
    if p1.kind not in (NOUN, ADJECTIVE, ADVERB, VERB):
        raise KindMismatch(f"modifier rule does not apply to {p1.kind}")
    if p1.head != p2.head:
        return False
    return _proper_superset(_multiset(p1), _multiset(p2))


def _modifier_below(child: Phrase, parent: Phrase) -> bool:
    try:
        return phrase_subclass(child, parent)
    except KindMismatch:
        return False


MARKER_FIRST_TOKENS = frozenset(m.split()[0] for m in ALL_MARKERS)


def ref_match_marker(tokens, i) -> tuple[str, int] | None:
    """Longest marker (possibly multi-word) starting at position i."""
    if i >= len(tokens) or tokens[i].lemma not in MARKER_FIRST_TOKENS:
        return None
    best = None
    for marker in ALL_MARKERS:
        words = marker.split()
        if len(words) > len(tokens) - i:
            continue
        if all(tokens[i + k].lemma == words[k] for k in range(len(words))):
            if best is None or len(words) > len(best[0].split()):
                best = (marker, i + len(words))
    return best


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
        for c, p in edges:
            edge_child = edges.elements[c]
            if not isinstance(edge_child, Phrase) or edge_child.kind == VERB:
                continue
            if c == ckey or _modifier_below(current, edge_child):
                target = edges.elements[p]
                if not isinstance(target, Phrase):
                    continue
                if p == canonical_key(parent) \
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
        frontier.extend(p for c, p in edges
                        if edges.elements[c].kind == VERB and c == key)
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


def ref_break_cycles(raw_edges, dropped_log) -> list:
    edges = list(raw_edges)
    while True:
        cycle = find_cycle({(c, p) for c, p, _, _ in edges})
        if cycle is None:
            return edges
        # candidates on the cycle, weakest evidence first, then latest
        candidates = [
            (i, entry) for i, entry in enumerate(edges)
            if (entry[0], entry[1]) in cycle
        ]
        candidates.sort(key=lambda item: (_EVIDENCE_RANK[item[1][2]], -item[0]))
        idx, entry = candidates[0]
        edges.pop(idx)
        dropped_log.append((entry[0], entry[1], entry[2]))


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


@dataclass(frozen=True)
class Token:
    surface: str
    lemma: str
    pos: str


def ref_tag(sentence: str, sentence_id: int = 0,
            doc_id: str = "") -> TaggedSentence:
    """Tag one raw sentence.  Never fails; unknown words get heuristic tags."""
    tokens: list[Token] = []
    for i, word in enumerate(tokenize(sentence)):
        lemma, pos = _tag_word(word, i)
        tokens.append(Token(word, lemma, pos))
    tokens = _contextual_fixups(tokens)
    return TaggedSentence(sentence_id, doc_id, tokens, ACTIVE, sentence)


def _tag_word(word: str, i: int):
    if word in _PUNCT_TAGS:
        return word, _PUNCT_TAGS[word]
    lower = word.lower()

    # Closed classes first; these lists come straight from the grammars.
    if lower in lx.MODAL_VERBS:
        return lower, "MD"
    if lower in lx.BE_FORMS or lower in lx.HAVE_FORMS or lower in lx.DO_FORMS:
        return lx.IRREGULAR_VERB_LEMMAS.get(lower, lower), _aux_tag(lower)
    if lower == "to":
        return "to", "TO"
    if lower == "not" or lower == "never":
        return lower, "RB"
    if lower in ("who", "whom", "whoever", "what", "whatever"):
        return lower, "WP"
    if lower == "whose":
        return lower, "WP$"
    if lower in ("which", "whichever"):
        return lower, "WDT"
    if lower in ("when", "where", "why", "how", "whenever", "wherever", "however"):
        return lower, "WRB"
    if lower == "that":
        return lower, "IN"  # complementizer reading; NP rule handles the rest
    if lower in ("such", "other", "own"):
        return lower, "JJ"
    if lower in lx.DETERMINERS and lower not in ("many", "most", "several", "few", "one", "more", "such", "all", "both"):
        return lower, "DT"
    if lower in lx.PRONOUNS:
        return lower, "PRP"
    if lower in lx.COORDINATING_CONJUNCTIONS:
        return lower, "CC"
    if lower in ("if", "because", "unless", "whether", "since", "while", "although", "though"):
        return lower, "IN"
    if lower in lx.PREPOSITIONS:
        return lower, "IN"
    if word.replace(".", "").isdigit():
        return lower, "CD"

    # Open classes through the lexicon with inflection analysis.
    reading = _open_class_reading(lower)
    if reading:
        return reading

    # Suffix heuristics for unknown words.
    if word[0].isupper() and i > 0:
        return lower, "NNP"
    if lower.endswith("ing"):
        return _strip_with(lower, lx.verb_lemma_candidates, lx.VERBS), "VBG"
    if lower.endswith("ed"):
        return _strip_with(lower, lx.verb_lemma_candidates, lx.VERBS), "VBN"
    if lower.endswith("ly"):
        return lower, "RB"
    if lower.endswith(("tion", "ment", "ness", "ity", "ism", "ance", "ence")):
        return lower, "NN"
    if lower.endswith(("ous", "ive", "able", "ible", "ful", "ic", "al", "ar")) or "-" in lower:
        return lower, "JJ"
    if word[0].isupper():
        return lower, "NNP"
    if lower.endswith("s") and lower not in lx.S_FINAL_SINGULARS:
        return lx.noun_lemma_candidates(lower)[0], "NNS"
    return lower, "NN"


def _strip_with(word, candidates, vocab):
    for cand in candidates(word):
        if cand in vocab:
            return cand
    return word


def _aux_tag(lower: str) -> str:
    return {
        "am": "VBP", "is": "VBZ", "are": "VBP", "was": "VBD", "were": "VBD",
        "be": "VB", "been": "VBN", "being": "VBG",
        "have": "VBP", "has": "VBZ", "had": "VBD",
        "do": "VBP", "does": "VBZ", "did": "VBD", "done": "VBN",
        "doing": "VBG", "having": "VBG",
    }[lower]


def _contextual_fixups(tokens: list[Token]) -> list[Token]:
    """Resolve noun/verb ambiguity and finite-verb agreement from context."""
    out = list(tokens)
    for i, tok in enumerate(out):
        prev = out[i - 1] if i > 0 else None
        # Noun/verb ambiguous lemma: a determiner, adjective or preposition
        # before it forces the noun reading; a subject nominal before it and
        # an -s form forces VBZ.
        if tok.pos in ("NN", "NNS") and tok.lemma in lx.VERBS:
            if prev is None or prev.pos in ("DT", "JJ", "IN", "PRP$", "CD", "POS"):
                continue
            if prev.pos == "TO":
                out[i] = replace(tok, pos="VB")
            elif prev.pos == "MD" or (prev.pos in ("VBP", "VBZ", "VBD") and prev.lemma in ("do", "be", "have")):
                out[i] = replace(tok, pos="VB")
            elif prev.pos in NOUN_TAGS and tok.surface.lower().endswith("s") and tok.surface.lower() != tok.lemma:
                out[i] = replace(tok, pos="VBZ")
            elif prev.pos in ("NNS", "NNPS", "NNP") and tok.surface.lower() == tok.lemma:
                # plural/proper noun + base form agrees as a finite verb; a
                # singular common noun before keeps the compound reading
                out[i] = replace(tok, pos="VBP")
        # Base verbs in the lexicon: -s surface means VBZ after a nominal; a
        # determiner or true preposition before forces the noun reading
        # (subordinators like "that" do precede verbs).
        if tok.pos == "VB":
            surf = tok.surface.lower()
            noun_trigger = prev is not None and (
                prev.pos in ("DT", "JJ", "PRP$", "POS")
                or (prev.pos == "IN" and prev.lemma in lx.PREPOSITIONS
                    and prev.lemma not in ("that", "whether")))
            if noun_trigger:
                out[i] = replace(tok, pos="NNS" if surf != tok.lemma else "NN")
            elif surf != tok.lemma:
                out[i] = replace(tok, pos=ref_verb_inflection_tag(surf, tok.lemma))
            elif prev is not None and prev.pos in ("NNS", "NNPS", "NNP") or (prev is not None and prev.pos == "PRP" and prev.lemma in ("i", "you", "we", "they")):
                out[i] = replace(tok, pos="VBP")
        # "to" before a base verb is infinitival TO, before a nominal it is IN.
        if tok.pos == "TO":
            nxt = out[i + 1] if i + 1 < len(out) else None
            if nxt is not None and nxt.pos not in VERB_TAGS and nxt.pos != "RB":
                out[i] = replace(tok, pos="IN")
    return out


def ref_loop_tag(sentence: str, sentence_id: int = 0,
                 doc_id: str = "") -> TaggedSentence:
    """Tag one raw sentence.  Never fails; unknown words get heuristic tags."""
    tokens: list[corpus.Token] = []
    for i, word in enumerate(tokenize(sentence)):
        _, lemma, pos = corpus._tag_word(word, i > 0)
        tokens.append(corpus.Token(word, lemma, pos))
    tokens = ref_contextual_fixups(tokens)
    return TaggedSentence(sentence_id, doc_id, tokens, ACTIVE, sentence)


def ref_contextual_fixups(tokens: list[corpus.Token]) -> list[corpus.Token]:
    """Resolve noun/verb ambiguity and finite-verb agreement from context."""
    out = list(tokens)
    for i, tok in enumerate(out):
        prev = out[i - 1] if i > 0 else None
        # Noun/verb ambiguous lemma: a determiner, adjective or preposition
        # before it forces the noun reading; a subject nominal before it and
        # an -s form forces VBZ.
        if tok.pos in ("NN", "NNS") and tok.lemma in lx.VERBS:
            if prev is None or prev.pos in ("DT", "JJ", "IN", "PRP$", "CD", "POS"):
                continue
            if prev.pos == "TO":
                out[i] = tok._replace(pos="VB")
            elif prev.pos == "MD" or (prev.pos in ("VBP", "VBZ", "VBD") and prev.lemma in ("do", "be", "have")):
                out[i] = tok._replace(pos="VB")
            elif prev.pos in NOUN_TAGS and tok.surface.lower().endswith("s") and tok.surface.lower() != tok.lemma:
                out[i] = tok._replace(pos="VBZ")
            elif prev.pos in ("NNS", "NNPS", "NNP") and tok.surface.lower() == tok.lemma:
                # plural/proper noun + base form agrees as a finite verb; a
                # singular common noun before keeps the compound reading
                out[i] = tok._replace(pos="VBP")
        # Base verbs in the lexicon: -s surface means VBZ after a nominal; a
        # determiner or true preposition before forces the noun reading
        # (subordinators like "that" do precede verbs).
        if tok.pos == "VB":
            surf = tok.surface.lower()
            noun_trigger = prev is not None and (
                prev.pos in ("DT", "JJ", "PRP$", "POS")
                or (prev.pos == "IN" and prev.lemma in lx.PREPOSITIONS
                    and prev.lemma not in ("that", "whether")))
            if noun_trigger:
                out[i] = tok._replace(pos="NNS" if surf != tok.lemma else "NN")
            elif surf != tok.lemma:
                out[i] = tok._replace(pos=ref_verb_inflection_tag(surf, tok.lemma))
            elif prev is not None and prev.pos in ("NNS", "NNPS", "NNP") or (prev is not None and prev.pos == "PRP" and prev.lemma in ("i", "you", "we", "they")):
                out[i] = tok._replace(pos="VBP")
        # "to" before a base verb is infinitival TO, before a nominal it is IN.
        if tok.pos == "TO":
            nxt = out[i + 1] if i + 1 < len(out) else None
            if nxt is not None and nxt.pos not in VERB_TAGS and nxt.pos != "RB":
                out[i] = tok._replace(pos="IN")
    return out


def ref_normalize_voice(sentence: TaggedSentence) -> TaggedSentence:
    """Rewrite `NP1 be-aux VBN by NP2` windows as `NP2 verb NP1`.

    The verb is re-inflected to agree with NP2 (modals and perfect "have"
    are kept).  Every agent window is rewritten; a passive window without a
    "by" agent stays as it is but flags the sentence.  Idempotent: the
    output holds no convertible window, and a converted sentence stays so.
    """
    tokens = sentence.tokens
    converted = sentence.voice == PASSIVE_CONVERTED
    agentless = False
    start = 0
    while (window := ref_find_passive_window(tokens, start)) is not None:
        if window["agent_start"] is None:
            agentless = True
            start = window["participle"] + 1
            continue
        tokens = _rewrite_window(tokens, window)
        converted = True
        start = 0
    if converted:
        voice = PASSIVE_CONVERTED
    elif agentless:
        voice = PASSIVE_AGENTLESS
    else:
        voice = sentence.voice
    return TaggedSentence(sentence.sentence_id, sentence.doc_id, tokens, voice,
                          sentence.raw)


def ref_find_passive_window(tokens: list[Token], start: int = 0):
    for i, tok in enumerate(tokens[start:], start):
        if tok.lemma != "be" or tok.pos not in ("VBZ", "VBP", "VBD", "VB", "VBN"):
            continue
        # Optional adverbs between the auxiliary and the participle.
        j = i + 1
        while j < len(tokens) and tokens[j].pos == "RB":
            j += 1
        if j >= len(tokens) or tokens[j].pos != "VBN":
            continue
        participle = j
        # NP1 directly before the auxiliary chain (chain may include modals
        # and have-forms before the be-form).
        chain_start = i
        k = i - 1
        while k >= 0 and (tokens[k].pos in ("MD", "RB") or tokens[k].lemma in ("have", "be")):
            chain_start = k
            k -= 1
        np_end = chain_start  # exclusive
        np_start = np_end
        while np_start - 1 >= 0 and tokens[np_start - 1].pos in _NP_TAGS:
            np_start -= 1
        if np_start == np_end:
            continue
        if not any(tokens[t].pos in NOUN_TAGS or tokens[t].pos == "PRP"
                   for t in range(np_start, np_end)):
            continue
        # Post-participle adverbs, then the "by" agent.
        m = participle + 1
        while m < len(tokens) and tokens[m].pos == "RB":
            m += 1
        post_adv_end = m
        agent_start = agent_end = None
        if m < len(tokens) and tokens[m].lemma == "by" and tokens[m].pos == "IN":
            start = end = m + 1
            while end < len(tokens) and (
                tokens[end].pos in _NP_TAGS
                or tokens[end].lemma in ("of", "in", "that")
                and tokens[end].pos in ("IN", "DT")
            ):
                end += 1
            while end > start and tokens[end - 1].lemma in ("of", "in", "that"):
                end -= 1
            if end > start and any(
                tokens[t].pos in NOUN_TAGS or tokens[t].pos == "PRP"
                for t in range(start, end)
            ):
                agent_start, agent_end = start, end
        return {
            "np_start": np_start, "np_end": np_end, "chain_start": chain_start,
            "be_index": i, "participle": participle,
            "post_adv_end": post_adv_end, "agent_start": agent_start,
            "agent_end": agent_end,
        }
    return None


def _rewrite_window(tokens: list[Token], w) -> list[Token]:
    np1 = tokens[w["np_start"]:w["np_end"]]
    agent = tokens[w["agent_start"]:w["agent_end"]]
    # Auxiliaries kept in front of the verb: modals, have-forms, negation.
    kept = [t for t in tokens[w["chain_start"]:w["be_index"]]
            if t.pos in ("MD", "RB") or t.lemma == "have"]
    participle = tokens[w["participle"]]
    pre_adv = tokens[w["be_index"] + 1:w["participle"]]
    post_adv = tokens[w["participle"] + 1:w["post_adv_end"]]

    be_tok = tokens[w["be_index"]]
    # Tense/agreement: modal or have keeps the stored form; otherwise the
    # new finite verb agrees with the agent head.
    verb = _reinflect(participle, kept, be_tok, agent)

    return (
        tokens[:w["np_start"]]
        + agent
        + kept
        + pre_adv
        + [verb]
        + np1
        + post_adv
        + tokens[w["agent_end"]:]
    )


def _reinflect(participle: Token, kept: list[Token], be_tok: Token,
               agent: list[Token]) -> Token:
    base = participle.lemma
    if any(t.lemma == "have" for t in kept):
        return replace(participle)  # perfect: "has been built" -> "has built"
    if any(t.pos == "MD" for t in kept):
        return Token(base, base, "VB")
    head = next((t for t in reversed(agent) if t.pos in NOUN_TAGS), None)
    plural = head is not None and head.pos in ("NNS", "NNPS")
    if be_tok.pos == "VBD":  # was/were
        return Token(lx.past_tense(base), base, "VBD")
    if plural:
        return Token(base, base, "VBP")
    return Token(lx.third_singular(base), base, "VBZ")


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
    + [np("run"), np("run", "fast"), np("run", "fast", "deep"),
       np("run", "fast", "fast", "deep"), np("model", "neural", "neural"),
       np("model", "neural", "fast", "deep")]
VERBS = [vp(head, *mods) for head in ("run", "sprint", "jog", "move")
         for mods in ((), ("quickly",))] \
    + [vp("run", "quickly", "quickly"), vp("run", "quickly", "slowly"),
       vp("jog", "quickly", "slowly"), vp("jog", "slowly", "quickly")]


def _pairs(pool):
    index = st.integers(0, len(pool) - 1)
    return st.lists(st.tuples(index, index), max_size=12)


@st.composite
def harvested(draw):
    """Random np and vp edges, plus a chain in each pool that may close
    into a cycle; repeated and reversed pairs exercise conflict drops."""
    triples = []
    for pool in (NOUNS, VERBS):
        pairs = draw(_pairs(pool))
        chain = draw(st.lists(st.integers(0, len(pool) - 1), max_size=6,
                              unique=True))
        pairs += list(zip(chain, chain[1:]))
        if len(chain) > 2 and draw(st.booleans()):
            pairs.append((chain[-1], chain[0]))
        triples += [(pool[i], pool[j], sid)
                    for sid, (i, j) in enumerate(pairs)]
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


@st.composite
def edge_lists(draw):
    """Entries with distinct (child, parent) pairs, as `build_dimension`
    makes them, in random order and of mixed evidence: random edges, up to
    four chains closed into cycles (nested where they share nodes) and
    mutual pairs."""
    pairs = draw(st.lists(st.tuples(_NODE, _NODE), max_size=60))
    for chain in draw(st.lists(st.lists(_NODE, min_size=2, max_size=15,
                                        unique=True), max_size=4)):
        pairs += zip(chain, chain[1:] + chain[:1])
    for a, b in draw(st.lists(st.tuples(_NODE, _NODE), max_size=8)):
        pairs += [(a, b), (b, a)]
    pairs = draw(st.permutations(list(dict.fromkeys(pairs))))
    sources = draw(st.lists(st.sampled_from((MODIFIER, SYNTACTIC)),
                            min_size=len(pairs), max_size=len(pairs)))
    return [(c, p, source, i)
            for i, ((c, p), source) in enumerate(zip(pairs, sources))]


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_break_cycles_matches_reference(raw):
    dropped, ref_dropped = [], []
    assert _break_cycles(raw, dropped) == ref_break_cycles(raw, ref_dropped)
    assert dropped == ref_dropped


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
_SPACES = st.text(alphabet=UNICODE_SPACES, min_size=1, max_size=3)


@st.composite
def abbreviation_texts(draw):
    parts = [draw(st.text(alphabet=UNICODE_SPACES, max_size=2))]
    for prefix, word, suffix in draw(st.lists(_PIECES, max_size=25)):
        parts += [prefix, word, suffix, draw(_SPACES)]
    return "".join(parts)


@settings(max_examples=200, deadline=None)
@given(abbreviation_texts())
def test_split_sentences_matches_reference(text):
    assert corpus.split_sentences(text) == split_sentences(text)


# Whole markers and single words, the words of every marker among them, so
# that multi-word markers occur whole, cut short and overlapping ("so as
# to", "as long as"), next to distractors.
_MARKER_WORDS = sorted({w for m in ALL_MARKERS for w in m.split()})
_LEMMA_RUNS = st.lists(st.one_of(
    st.sampled_from(sorted(ALL_MARKERS)).map(str.split),
    st.sampled_from(_MARKER_WORDS + ["model", "be", "the", "run", "."]).map(
        lambda w: [w])), max_size=8).map(lambda runs: sum(runs, []))


# Also runs that end with a multi-word marker cut off after one or more of
# its words, so that the sentence ends inside the marker.
_CUT_MARKERS = sorted(m for m in ALL_MARKERS if " " in m)
_CUT_RUNS = st.tuples(
    _LEMMA_RUNS, st.sampled_from(_CUT_MARKERS).map(str.split).flatmap(
        lambda words: st.integers(1, len(words) - 1).map(
            lambda n: words[:n]))).map(lambda pair: pair[0] + pair[1])


@settings(max_examples=500, deadline=None)
@given(st.one_of(_LEMMA_RUNS, _CUT_RUNS))
def test_match_marker_matches_reference(lemmas):
    tokens = [corpus.Token(w, w, "IN") for w in lemmas]
    for i in range(len(tokens) + 1):
        assert match_marker(tokens, i) == ref_match_marker(tokens, i), i


# Lexicon words with their inflections, closed-class words, and unknown words
# (bare, -ing/-ed/-ly/-s and other suffixes, hyphenated), each capitalised or
# not; digits and punctuation; and passive windows with and without an agent.
_OPEN_WORDS = sorted(lx.NOUNS | lx.VERBS | lx.ADJECTIVES | lx.ADVERBS)
_CLOSED_WORDS = sorted(lx.MODAL_VERBS | lx.BE_FORMS | lx.HAVE_FORMS
                       | lx.DO_FORMS | lx.DETERMINERS | lx.PRONOUNS
                       | lx.PREPOSITIONS | lx.COORDINATING_CONJUNCTIONS
                       | {"to", "not", "that", "which", "whose", "how"})
_INFLECTED = st.one_of(
    st.sampled_from(sorted(lx.VERBS)).flatmap(lambda v: st.sampled_from(
        [lx.third_singular(v), lx.past_tense(v), lx.past_participle(v),
         v + "ing"])),
    st.sampled_from(sorted(lx.NOUNS)).map(lambda n: n + "s"),
)
_STEM = st.from_regex(r"[bdfgkmpvz][aeiou][bdfgkmpvz]{1,2}", fullmatch=True)
_UNKNOWN = st.one_of(
    st.tuples(_STEM, st.sampled_from(["", "ing", "ed", "ly", "s", "tion",
                                      "ous"])).map("".join),
    st.tuples(_STEM, _STEM).map("-".join),
)
_TAGGER_WORD = st.tuples(
    st.one_of(st.sampled_from(_OPEN_WORDS), st.sampled_from(_CLOSED_WORDS),
              _INFLECTED, _UNKNOWN),
    st.booleans(),
).map(lambda wc: wc[0].capitalize() if wc[1] else wc[0])
_PASSIVE = st.tuples(
    st.sampled_from(["the", "a", "some"]),
    st.sampled_from(["extract", "models", "Zorbing", "results"]),
    st.sampled_from(["is", "are", "was", "were", "has been", "can be",
                     "is not"]),
    st.sampled_from(["", "well"]),
    st.one_of(st.sampled_from(sorted(lx.VERBS)).map(lx.past_participle),
              st.sampled_from(["zabed", "Zabed", "labelled", "run"])),
    st.sampled_from(["by the", "by", "by a", "quickly by", ""]),
    st.sampled_from(["researchers", "LexRank", "network", "Vozzing"]),
).map(" ".join)
_TAGGER_SENTENCES = st.lists(st.one_of(
    _TAGGER_WORD,
    st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,2})?", fullmatch=True),
    st.sampled_from(sorted(_PUNCT_TAGS)),
    _PASSIVE,
), min_size=1, max_size=10)


def _rows(sentence):
    return ([(t.surface, t.lemma, t.pos) for t in sentence.tokens],
            sentence.voice, sentence.sentence_id, sentence.doc_id,
            sentence.raw)


@settings(max_examples=300, deadline=None)
@given(_TAGGER_SENTENCES)
def test_tag_and_normalize_voice_match_reference(pieces):
    # every piece both first and later in a sentence
    texts = [" ".join(pieces), " ".join(pieces[1:] + pieces[:1])]
    texts += [f"{piece} {piece}" for piece in pieces]
    for _ in range(2):  # the second pass reads a warm cache
        for text in texts:
            got, want = corpus.tag(text, 7, "d"), ref_tag(text, 7, "d")
            assert _rows(got) == _rows(want)
            assert _rows(corpus.normalize_voice(got)) \
                == _rows(ref_normalize_voice(want))


# Tagger words, marks and passive windows next to abbreviations, quotes and
# apostrophes (a curly one leaves a lone "s"), chunks of several tokens and
# of none, joined by Unicode whitespace or glued into one chunk.
_FRONT_END_PIECES = st.one_of(
    _TAGGER_WORD,
    st.sampled_from(sorted(_PUNCT_TAGS) + ["\u2019s", "'s", "s", "*"]),
    _PASSIVE,
    _PIECES.map("".join),
    st.sampled_from(["models,data", "(LexRank).", "3.5x", "a*b", "\u2014",
                     "*", "na\u00efve", "\u0663.\u0665", "e.g.,the"]),
)


@st.composite
def front_end_texts(draw):
    # often led by a chunk with no token, so the first token is in a later one
    parts = [draw(st.text(alphabet=UNICODE_SPACES, max_size=2)),
             draw(st.sampled_from(["", "*", "\u2014", "* *"])),
             draw(_SPACES)]
    for piece in draw(st.lists(_FRONT_END_PIECES, max_size=20)):
        parts += [piece, draw(st.one_of(_SPACES, st.just("")))]
    return "".join(parts)


def _same_tokens(got: TaggedSentence, want: TaggedSentence):
    assert _rows(got) == _rows(want)
    assert got.tokens == want.tokens
    assert all(type(t) is corpus.Token for t in got.tokens)


@settings(max_examples=300, deadline=None)
@given(front_end_texts())
def test_tag_and_ingest_text_match_the_loop_reference(text):
    for _ in range(2):  # the second pass reads a warm cache
        _same_tokens(corpus.tag(text, 7, "d"), ref_loop_tag(text, 7, "d"))
        want = [ref_loop_tag(sentence, 3 + offset, "d")
                for offset, sentence in enumerate(split_sentences(text))]
        want = [sentence for sentence in want if sentence.tokens]
        got = corpus.ingest_text(text, "d", first_id=3)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_tokens(g, w)


# ---------------------------------------------------------------------------
# Front-end rules that always gave one result
# ---------------------------------------------------------------------------
#
# `classify_marker` (followed by the head-noun rule `parse_adverbial` applied
# to a prepositional content), `_verb_inflection_tag` and `qa._strip_aux`
# as they were before each became the rule it reduces to, copied unchanged
# but for the `ref_` prefix.  Each test runs every input that the lexicon
# facts behind the reduction cover, so a lexicon change that breaks one of
# those facts fails here.


def ref_classify_marker(marker: str, content, has_finite: bool) -> str:
    kinds = [kind for kind, table in lx.MARKER_TABLES if marker in table]
    if not kinds:
        return "unclassified"
    if len(kinds) == 1:
        return kinds[0]
    noun_kind = _noun_kind(content.head, None) \
        if isinstance(content, Phrase) else None
    if noun_kind == "time" and "time" in kinds:
        return "time"
    if has_finite:
        for kind in ("condition", "reason"):
            if kind in kinds:
                return kind
    if noun_kind == "place" and "place" in kinds:
        return "place"
    return kinds[0]


def ref_marker_kind(marker: str, content, has_finite: bool) -> str:
    kind = ref_classify_marker(marker, content, has_finite)
    if isinstance(content, Phrase) and content.kind == PREPOSITIONAL:
        kind = _noun_kind(content.head, kind)
    return kind


# After a marker: a finite, a gerund and an infinitive clause, and a phrase
# headed by a time noun, a place noun, a year and another noun.
_MARKER_CONTENTS = ("the team builds models", "building models",
                    "to build models", "the week", "the city", "2020",
                    "the model")


def test_marker_kind_matches_reference():
    for marker in sorted(lx.ALL_MARKERS):
        words = [corpus.Token(w, w, "IN") for w in marker.split()]
        for text in _MARKER_CONTENTS:
            tokens = words + corpus.tag(text).tokens
            adv = classify_adverbial(tokens)
            assert adv.span == (0, len(tokens)), (marker, text)
            assert isinstance(adv.content, Clause) \
                or adv.content.kind == PREPOSITIONAL
            for has_finite in (False, True):
                assert adv.kind == ref_marker_kind(
                    marker, adv.content, has_finite), (marker, text, has_finite)


def ref_verb_inflection_tag(surface: str, base: str) -> str:
    if surface.endswith("ing"):
        return "VBG"
    if surface == lx.third_singular(base):
        return "VBZ"
    past, part = lx.past_tense(base), lx.past_participle(base)
    if surface == part:
        return "VBN"
    if surface == past:
        return "VBD"
    if surface.endswith("ed"):
        return "VBN"  # spelling-variant participles ("labelled")
    if surface.endswith("s"):
        return "VBZ"
    return "VB"


def _inflected_verbs() -> list[str]:
    """Every word from which `verb_lemma_candidates` strips a `VERBS` lemma
    by a suffix, and every irregular form."""
    words = set(lx.IRREGULAR_VERB_LEMMAS)
    for lemma in lx.VERBS:
        stem, last = lemma[:-1], lemma[-1]
        words.update(w for w in (
            lemma + "s", lemma + "es", stem + "ies", lemma + "ing",
            stem + "ing", lemma + last + "ing", stem + "ied", lemma + "ed",
            lemma + "d", lemma + last + "ed")
            if w != lemma and lemma in lx.verb_lemma_candidates(w))
    return sorted(words)


def test_verb_inflection_tag_matches_reference():
    calls = 0
    for word in _inflected_verbs():
        for base in lx.verb_lemma_candidates(word):
            if base != word and base in lx.VERBS:
                calls += 1
                assert _verb_inflection_tag(word, base) \
                    == ref_verb_inflection_tag(word, base), (word, base)
        # `_contextual_fixups` reads a VB token as its own lemma
        lemma, pos = _open_class_reading(word) or (word, None)
        assert pos != "VB" or lemma == word, word
    assert calls > 900


def ref_strip_aux(action: Phrase) -> Phrase:
    keep = tuple(m for m in action.pre
                 if m in lx.NEGATION_WORDS
                 or m not in qa._AUX_LEMMAS and m not in lx.MODAL_VERBS)
    return Phrase(VERB, action.head, keep, action.post, action.span)


_PRE_HEAD_WORDS = sorted(
    lx.MODAL_VERBS | lx.NEGATION_WORDS | lx.BE_FORMS | lx.HAVE_FORMS
    | lx.DO_FORMS | {"be", "have", "do", "to", "able"} | lx.DETERMINERS
    | lx.PRONOUNS | lx.PREPOSITIONS | lx.COORDINATING_CONJUNCTIONS
    | lx.SUBORDINATE_CONJUNCTIONS | lx.ADVERBS)


def test_strip_aux_matches_reference():
    for n in (0, 1, 2):
        for pre in product(_PRE_HEAD_WORDS, repeat=n):
            action = Phrase(VERB, "build", pre, ("well",), (1, 4))
            assert qa._strip_aux(action) == ref_strip_aux(action), pre


# ---------------------------------------------------------------------------
# The five-valued relation before `at_or_below`
# ---------------------------------------------------------------------------
#
# `element_subclass`, `_np_relation`, `_action_relation`, `_np_reaches` and
# the composite rules they call, as they were when every kind wrote out its
# own five-valued comparison, walking both directions.  Their code is
# copied unchanged, under `ref_` names and without docstrings, so that none
# of them calls a function that `at_or_below` changed.


def ref_np_relation(p1: Phrase, p2: Phrase, edges) -> str:
    if canonical_key(p1) == canonical_key(p2):
        return EQUAL
    if ref_np_reaches(p1, p2, edges):
        return SUBCLASS
    if ref_np_reaches(p2, p1, edges):
        return SUPERCLASS
    return RELATED if p1.head == p2.head else UNRELATED


def ref_np_reaches(child: Phrase, parent: Phrase, edges) -> bool:
    try:
        if phrase_subclass(child, parent):
            return True
    except KindMismatch:
        return False
    if not edges:
        return False
    parent_key = canonical_key(parent)
    return any(k == parent_key or _modifier_below(edges.elements[k], parent)
               for k in edges.up(child))


def ref_action_relation(a1: Phrase, a2: Phrase, edges, syn) -> str:
    if a1.head == a2.head or (syn is not None and syn.related(a1.head, a2.head)):
        m1, m2 = _multiset(a1), _multiset(a2)
        if m1 == m2:
            return EQUAL
        if _proper_superset(m1, m2):
            return SUBCLASS
        if _proper_superset(m2, m1):
            return SUPERCLASS
        return RELATED
    if edges:
        if canonical_key(a2) in edges.up(a1):
            return SUBCLASS
        if canonical_key(a1) in edges.up(a2):
            return SUPERCLASS
    return UNRELATED


def ref_verb_phrase_subclass(v1, v2, edges=None, syn=None) -> bool:
    a1, np1 = _as_action_np(v1)
    a2, np2 = _as_action_np(v2)
    pairs = [ref_action_relation(a1, a2, edges, syn)]
    pairs.append(ref_optional_relation(np1, np2, edges, syn))
    if any(r not in (EQUAL, SUBCLASS) for r in pairs):
        return False
    return SUBCLASS in pairs


def ref_optional_relation(e1, e2, edges, syn) -> str:
    if e1 is None and e2 is None:
        return EQUAL
    if e1 is None or e2 is None:
        return UNRELATED
    return ref_compare_elements(e1, e2, edges, syn)


def ref_prep_phrase_subclass(q1: Phrase, q2: Phrase, edges=None) -> bool:
    if not (isinstance(q1, Phrase) and isinstance(q2, Phrase)
            and q1.kind == PREPOSITIONAL and q2.kind == PREPOSITIONAL):
        raise KindMismatch("prep_phrase_subclass expects prepositional phrases")
    if q1.preposition() != q2.preposition():
        return False
    return ref_np_relation(_inner_np(q1), _inner_np(q2), edges) == SUBCLASS


def ref_clause_subclass(c1: Clause, c2: Clause, edges=None,
                        syn=None) -> bool:
    if not (isinstance(c1, Clause) and isinstance(c2, Clause)):
        raise KindMismatch("clause_subclass expects clauses")
    if c1.lead != c2.lead:
        return False
    return ref_tuple_subclass((c1.subject, c2.subject),
                              (c1.action, c2.action), (c1.object, c2.object),
                              c1.adverbials, c2.adverbials, edges, syn,
                              object_as_group=False)


def ref_adverbial_pairs(advs1, advs2, edges, syn):
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
            rel = ref_compare_elements(cand.content, target.content, edges,
                                       syn)
            if rel in (EQUAL, SUBCLASS):
                if best_idx is None or (best_rel == SUBCLASS and rel == EQUAL):
                    best_idx, best_rel = idx, rel
                if rel == EQUAL:
                    break
        if best_idx is None:
            return None
        relations.append(best_rel)
        remaining.pop(best_idx)
    return relations, len(remaining)


def ref_tuple_subclass(subj_pair, act_pair, obj_pair, advs1, advs2, edges,
                       syn, object_as_group: bool) -> bool:
    relations = [
        ref_optional_relation(subj_pair[0], subj_pair[1], edges, syn),
        ref_optional_relation(act_pair[0], act_pair[1], edges, syn),
    ]
    if object_as_group:
        relations.append(ref_object_group_relation(obj_pair[0], obj_pair[1],
                                                   edges, syn))
    else:
        relations.append(ref_optional_relation(obj_pair[0], obj_pair[1],
                                               edges, syn))
    adv = ref_adverbial_pairs(advs1, advs2, edges, syn)
    if adv is None:
        return False
    pair_relations, extra = adv
    relations.extend(pair_relations)
    if any(r not in (EQUAL, SUBCLASS) for r in relations):
        return False
    return SUBCLASS in relations or extra > 0


def ref_object_group_relation(g1, g2, edges=None, syn=None) -> str:
    if g1 is None and g2 is None:
        return EQUAL
    if g1 is None or g2 is None:
        return UNRELATED
    relations = [
        ref_optional_relation(g1.direct, g2.direct, edges, syn),
        ref_optional_relation(g1.indirect, g2.indirect, edges, syn),
        ref_optional_relation(g1.complement, g2.complement, edges, syn),
    ]
    if any(r not in (EQUAL, SUBCLASS) for r in relations):
        if all(r in (EQUAL, SUPERCLASS) for r in relations):
            return SUPERCLASS
        return UNRELATED
    if all(r == EQUAL for r in relations):
        return EQUAL
    return SUBCLASS


def ref_element_subclass(e1, e2, edges=None, syn=None) -> str:
    if isinstance(e1, Phrase) and isinstance(e2, Phrase):
        if e1.kind != e2.kind:
            raise KindMismatch(f"{e1.kind} vs {e2.kind}")
        if e1.kind == NOUN:
            return ref_np_relation(e1, e2, edges)
        if e1.kind == PRONOUN:
            return EQUAL if e1.head == e2.head else UNRELATED
        if e1.kind == PREPOSITIONAL:
            if canonical_key(e1) == canonical_key(e2):
                return EQUAL
            if ref_prep_phrase_subclass(e1, e2, edges):
                return SUBCLASS
            if ref_prep_phrase_subclass(e2, e1, edges):
                return SUPERCLASS
            if e1.preposition() == e2.preposition() and e1.head == e2.head:
                return RELATED
            return UNRELATED
        if e1.kind == VERB:
            return ref_action_relation(e1, e2, edges, syn)
        if canonical_key(e1) == canonical_key(e2):
            return EQUAL
        if phrase_subclass(e1, e2):
            return SUBCLASS
        if phrase_subclass(e2, e1):
            return SUPERCLASS
        return RELATED if e1.head == e2.head else UNRELATED
    if isinstance(e1, Clause) and isinstance(e2, Clause):
        if canonical_key(e1) == canonical_key(e2) \
                or ref_clause_same(e1, e2, edges, syn):
            return EQUAL
        if ref_clause_subclass(e1, e2, edges, syn):
            return SUBCLASS
        if ref_clause_subclass(e2, e1, edges, syn):
            return SUPERCLASS
        return UNRELATED
    if isinstance(e1, Adverbial) and isinstance(e2, Adverbial):
        if e1.kind != e2.kind:
            return UNRELATED
        return ref_element_subclass(e1.content, e2.content, edges, syn)
    raise KindMismatch(f"{type(e1).__name__} vs {type(e2).__name__}")


def ref_compare_elements(e1, e2, edges=None, syn=None) -> str:
    try:
        return ref_element_subclass(e1, e2, edges, syn)
    except KindMismatch:
        return UNRELATED


# Clauses of one lead are Equal when every part is, so clauses whose verbs
# are synonyms can be: written for the reference alone, since none of the
# above had it.
def ref_clause_same(c1: Clause, c2: Clause, edges, syn) -> bool:
    if c1.lead != c2.lead \
            or len(c1.adverbials) != len(c2.adverbials):
        return False
    parts = [ref_optional_relation(x, y, edges, syn) for x, y in
             ((c1.subject, c2.subject), (c1.action, c2.action),
              (c1.object, c2.object), *zip(c1.adverbials, c2.adverbials))]
    return all(r == EQUAL for r in parts)


# The relevance rule: some aligned slot pair, or some pair of adverbials of
# one kind, is the same, a subclass or a superclass.
def ref_any_pair_related(t1, t2, edges=None, syn=None) -> bool:
    def slots(t):
        group = t.object or ObjectGroup(None)
        return t.subject, t.action, group.direct, group.indirect, \
            group.complement
    pairs = [(x, y) for x, y in zip(slots(t1), slots(t2))
             if x is not None and y is not None]
    pairs += [(x.content, y.content) for x in t1.adverbials
              for y in t2.adverbials if x.kind == y.kind]
    return any(ref_compare_elements(x, y, edges, syn)
               in (EQUAL, SUBCLASS, SUPERCLASS) for x, y in pairs)


# Every kind, and phrases that differ only in their preposition, verbs whose
# modifiers do not nest (so same-head and synonym verbs are Related), and
# clauses and adverbials whose parts are drawn from the noun and verb pools
# that the harvested edges range over; the last clauses differ from others
# only in a verb that `SYNONYMS` relates, or only in their lead.
_REL_NOUNS = [np("model"), np("model", "neural"), np("model", "deep"),
              np("system"), np("system", "neural"), np("method"),
              np("run"), np("run", "fast")]
_REL_VERBS = [vp(head, *mods) for head in ("run", "sprint", "jog", "move")
              for mods in ((), ("quickly",), ("slowly",))]
_PREPS = [pp(prep, head, *mods) for prep in ("in", "on")
          for head, mods in (("model", ()), ("model", ("neural",)),
                             ("model", ("deep",)), ("system", ()),
                             ("run", ()))]
_OTHERS = [Phrase(PRONOUN, "it"), Phrase(PRONOUN, "they"),
           adjp("fast"), adjp("fast", "very"), adjp("fast", "really"),
           adjp("deep"),
           advp("quickly"), Phrase(ADVERB, "quickly", ("very",))]
_CLAUSES = [Clause("to", None, action, obj)
            for action in (vp("run"), vp("run", "quickly"), vp("sprint"))
            for obj in (None, np("model"), np("model", "neural"))] \
    + [Clause("that", subject, vp("move"), None, advs)
       for subject in (np("system"), np("system", "neural"))
       for advs in ((), (Adverbial("place", pp("in", "model")),))] \
    + [Clause("to", None, vp("jog"), np("model", "neural")),
       Clause("that", np("system", "neural"), vp("run"), None,
              (Adverbial("place", pp("in", "model")),)),
       Clause("whether", np("system"), vp("move"), None)] \
    + [Clause("that", np("system"), vp("move"), None, advs)  # both orders
       for advs in ((Adverbial("place", pp("in", "model")),
                     Adverbial("place", pp("on", "system"))),
                    (Adverbial("place", pp("on", "system")),
                     Adverbial("place", pp("in", "model"))))]
_ADVERBIALS = [Adverbial(kind, content) for kind in ("place", "time")
               for content in (pp("in", "model"), pp("in", "model", "neural"),
                               pp("on", "system"))] \
    + [Adverbial("purpose", clause) for clause in _CLAUSES[:4]]
ELEMENTS = (_REL_NOUNS + _REL_VERBS + _PREPS + _OTHERS + _CLAUSES
            + _ADVERBIALS)
VERB_PHRASES = _REL_VERBS + _CLAUSES[:9] \
    + [(vp("run", *mods), obj) for mods in ((), ("quickly",))
       for obj in (np("model"), np("model", "neural"), np("run"))]
GROUPS = [None] + [ObjectGroup(direct, indirect, complement)
                   for direct in (np("model"), np("model", "neural"))
                   for indirect in (None, np("system"),
                                    np("system", "neural"))
                   for complement in (None, adjp("fast"))]
# Sentences some of whose slot and adverbial pairs are related and some not.
_RELEVANCE = [SentenceSyntax(1, subject, action, group, advs)
              for subject in (None, np("system"), np("method"))
              for action in (vp("run"), vp("jog"))
              for group in (None, ObjectGroup(None),
                            ObjectGroup(np("model"), np("system", "neural")))
              for advs in ((), (Adverbial("place",
                                          pp("in", "model", "neural")),))]
# a self-pair, which `SynonymTable.load` accepts, makes a head its own
# synonym; the last table gives "run" two synonyms that are not each other's
SYNONYMS = st.sampled_from([None, SynonymTable([("sprint", "jog")]),
                            SynonymTable([("run", "move")]),
                            SynonymTable([("run", "run")]),
                            SynonymTable([("run", "sprint"), ("run", "jog")])])


def _outcome(relation, *args):
    try:
        return relation(*args)
    except KindMismatch:
        return KindMismatch


@settings(max_examples=25, deadline=None)
@given(harvested(), SYNONYMS)
def test_at_or_below_derives_the_five_valued_relation(edges, syn):
    for e1 in ELEMENTS:
        for e2 in ELEMENTS:
            expected = _outcome(ref_element_subclass, e1, e2, edges, syn)
            assert _outcome(element_subclass, e1, e2, edges, syn) \
                == expected, (e1, e2)
            below = expected if expected in (EQUAL, SUBCLASS) else None
            assert at_or_below(e1, e2, edges, syn) == below, (e1, e2)
    # a missing part is Equal to a missing part alone, and Equal never reads
    # harvested edges
    parts = ELEMENTS + _MODIFIED + _OFF_DIMENSION + [None]
    for e1 in parts:
        for e2 in parts:
            relation = at_or_below(e1, e2, edges, syn)
            if None in (e1, e2):
                assert relation == (EQUAL if e1 is e2 else None), (e1, e2)
            assert (at_or_below(e1, e2, syn=syn) == EQUAL) \
                == (relation == EQUAL), (e1, e2)
    for v1 in VERB_PHRASES:
        for v2 in VERB_PHRASES:
            assert verb_phrase_subclass(v1, v2, edges, syn) \
                == ref_verb_phrase_subclass(v1, v2, edges, syn), (v1, v2)
    for c1 in _CLAUSES:
        for c2 in _CLAUSES:
            assert clause_subclass(c1, c2, edges, syn) \
                == ref_clause_subclass(c1, c2, edges, syn), (c1, c2)
    # an empty group ("What does X send to?") stands against every group
    # and none, below a strictly more specific subject
    tuples = [(subject, group) for subject in (np("system"),
                                               np("system", "neural"))
              for group in GROUPS + [ObjectGroup(None)]]
    for subject1, g1 in tuples:
        s1 = SentenceSyntax(1, subject1, vp("run"), g1, ())
        q1 = QuestionSyntax("general", "do", subject1, vp("run"), g1, ())
        for subject2, g2 in tuples:
            s2 = SentenceSyntax(2, subject2, vp("run"), g2, ())
            q2 = QuestionSyntax("general", "do", subject2, vp("run"), g2, ())
            expected = ref_tuple_subclass(
                (subject1, subject2), (vp("run"), vp("run")), (g1, g2), (),
                (), edges, syn, object_as_group=True)
            assert sentence_subclass(s1, s2, edges, syn) == expected, (s1, s2)
            assert question_subclass(q1, q2, edges, syn) == expected, (q1, q2)
    for s1 in _RELEVANCE:
        for s2 in _RELEVANCE:
            assert qa.sentence_relevant(s1, s2, edges, syn) \
                == ref_any_pair_related(s1, s2, edges, syn), (s1, s2)


# Adverbials whose content is a noun or a verb phrase, next to the
# prepositional and clause contents of ELEMENTS.
_PLAIN_ADVERBIALS = [Adverbial("time", content)
                     for content in (np("model"), np("model", "neural"),
                                     np("system"), vp("run"),
                                     vp("sprint", "quickly"))]


# Nodes the modifier postings must sort exactly: repeated modifiers (a
# member that holds a query's modifiers as a set but not as a multiset),
# pronouns with modifiers (equal by their head alone), prepositional and
# adverbial wrappers of modified nouns, and synonym verbs with modifiers.
_MODIFIED = [np("model", "neural", "neural", "deep"),
             Phrase(PRONOUN, "it", ("all",)),
             Phrase(PRONOUN, "they", ("all",)),
             pp("in", "model", "neural", "neural"),
             pp("in", "model", "neural", "fast"),
             pp("on", "model", "neural", "deep"),
             Adverbial("place", pp("in", "model", "neural", "deep")),
             Adverbial("time", np("model", "neural", "neural")),
             Adverbial("time", np("model", "neural", "fast", "deep")),
             Adverbial("time", np("run", "fast")),
             vp("sprint", "quickly", "slowly"),
             vp("move", "quickly", "quickly"),
             Adverbial("time", vp("jog", "quickly")),
             Adverbial("time", vp("move", "quickly", "slowly"))]


# Queries that are nodes of neither dimension below, as questions usually
# are: a head bucket no member fills, modifiers no member is posted under,
# repeats no member holds, and clauses whose verb has synonyms.
_OFF_DIMENSION = [np("method", "fast", "fast"), np("model", "tiny"),
                  np("widget"), np("widget", "neural"),
                  Phrase(PRONOUN, "we", ("all",)),
                  pp("in", "system", "deep"), pp("under", "model", "neural"),
                  pp("in", "model", "tiny"),
                  vp("move", "slowly", "slowly"), vp("jog", "quickly", "fast"),
                  vp("walk", "quickly"),
                  Adverbial("time", np("method", "neural")),
                  Adverbial("time", np("model", "neural", "tiny")),
                  Adverbial("time", vp("run", "slowly", "slowly")),
                  Adverbial("manner", np("model", "neural")),
                  Adverbial("place", pp("in", "system", "deep", "deep")),
                  Clause("to", None, vp("jog"), np("model")),
                  Clause("that", np("system"), vp("run"), None)]


@settings(max_examples=25, deadline=None)
@given(harvested(), SYNONYMS)
def test_search_index_anchors_equal_the_scan(edges, syn):
    """The anchors `search` takes from a dimension's index are exactly the
    nodes that `at_or_below` accepts when every node is tested, for queries
    that are nodes of the dimension and for queries that are not; with
    `among`, those of them in `among`."""
    base = ELEMENTS + _PLAIN_ADVERBIALS + _MODIFIED
    for members in (base, base + NOUNS + VERBS):
        dim = build_dimension("subject", list(enumerate(members)), edges)
        among = set(sorted(dim.nodes)[::2])
        for query in base + NOUNS + VERBS + _OFF_DIMENSION:
            scan = {key for key, element in dim.nodes.items()
                    if at_or_below(element, query, edges, syn)}
            assert dim.index.anchors(query, syn) == scan, (query, len(members))
            assert dim.index.anchors(query, syn, among=among) \
                == scan & among, (query, len(members))


# `search` as it was when it also walked the reduced edges below its
# anchors: `Dimension.descendants`, copied unchanged but for taking the
# children map that `build_dimension` filled as an argument.  With it in
# place of `search`, `ref_candidate_search` is the search of that time.


def descendants(children: dict[str, list[str]], keys: set[str]) -> set[str]:
    return set(keys) | reach(children, keys)


def ref_search(space: ResourceSpace, dimension: str, query) -> set[int]:
    dim = space.dimensions[dimension]
    if query is None:
        return set(dim.covered)
    children: dict[str, list[str]] = {}
    for child, parent in dim.edges:
        children.setdefault(parent, []).append(child)
    keys = descendants(children, dim.index.anchors(query, space.synonyms))
    return set().union(*(dim.postings[key] for key in keys))


_SUBJECTS = [None] + _REL_NOUNS + NOUNS + _OTHERS[:2] + _CLAUSES
_ACTIONS = VERBS + _REL_VERBS
# verb contents whose heads `SYNONYMS` relate to the plain adverbials' verbs
_PART_ADVERBIALS = _ADVERBIALS + _PLAIN_ADVERBIALS + [
    Adverbial("time", vp("move")), Adverbial("time", vp("jog", "quickly"))]


@st.composite
def spaces(draw):
    """A space of up to 10 sentences of one or two parts drawn from the
    pools the harvested edges range over: modified verbs such as "run
    quickly" lie modifier-below the child of a harvested vp edge."""
    edges = draw(harvested())
    syn = draw(SYNONYMS) or SynonymTable()
    sentences = {}
    for sid in range(1, draw(st.integers(1, 10)) + 1):
        sentences[sid] = [SentenceSyntax(
            sid, draw(st.sampled_from(_SUBJECTS)),
            draw(st.sampled_from(_ACTIONS)), draw(st.sampled_from(GROUPS)),
            tuple(draw(st.lists(st.sampled_from(_PART_ADVERBIALS),
                                max_size=2))))
            for _ in range(draw(st.integers(1, 2)))]
    items = {name: [] for name in DIMENSIONS}
    for sid, parts in sentences.items():
        for part in parts:
            for name, elements in sentence_elements(part).items():
                items[name].extend((sid, e) for e in elements)
    dims = {name: build_dimension(name, items[name], edges)
            for name in DIMENSIONS}
    return ResourceSpace(dims, sentences, {}, [], edges, syn)


_OBJECT_GAPS = ("direct", "indirect", "complement")
# the slot each question kind asks for, and the adverbial kinds that answer
# each interrogative of an adverbial question
_REF_GAPS = {"subject": "subject", "direct_object": "direct",
             "indirect_object": "indirect", "object_complement": "complement",
             "adverbial": "adverbial", "general": "none"}
_REF_ADVERBIAL_KINDS = {"when": ("time",), "where": ("place",),
                        "why": ("reason", "purpose"), "how": ("method",)}


@st.composite
def questions(draw, parts):
    """A question whose slots each hold the element of one of `parts` or one
    drawn from the pools, so that some sentences answer it; its kind and
    interrogative are ones `parse_question` gives together."""
    part = draw(st.sampled_from(parts))

    def pick(own, pool):
        return own if draw(st.integers(0, 2)) else draw(st.sampled_from(pool))

    kind = draw(st.sampled_from(sorted(_REF_GAPS)))
    gap = _REF_GAPS[kind]
    interrogative = "do" if kind == "general" else "what"
    if kind == "adverbial":
        interrogative = draw(st.sampled_from(sorted(_REF_ADVERBIAL_KINDS)))
    if gap == "subject":  # a type the answer must be strictly below
        subject = draw(st.sampled_from((None, *NOUNS)))
    else:
        subject = pick(part.subject, _SUBJECTS) or np("model")
    group = pick(part.object, GROUPS)
    if gap in _OBJECT_GAPS and group is not None:  # untyped or typed
        group = replace(group, **{gap: draw(st.one_of(
            st.none(), st.sampled_from(NOUNS + [adjp("fast")])))})
    advs = draw(st.lists(st.sampled_from(part.adverbials or _PART_ADVERBIALS),
                         max_size=1))
    return QuestionSyntax(kind, interrogative, subject,
                          pick(part.action, _ACTIONS), group, tuple(advs))


@settings(max_examples=50, deadline=None)
@given(spaces(), st.data())
def test_search_reads_the_index_alone(space, data):
    """`search` returns the sentences posted at the nodes `at_or_below`
    accepts when every node is tested, and `answer`, which reads the
    searched slots from the anchors, gives what the reference pipeline
    gives from `at_or_below`, with the space's synonyms and without, also
    when its `search` walks the dimension's edges below the anchors: a
    sentence only the walk reaches is one matching rejects."""
    edges, syn = space.edge_set, space.synonyms
    queries = (ELEMENTS + NOUNS + VERBS + _PLAIN_ADVERBIALS
               + _OFF_DIMENSION)
    for name, dim in space.dimensions.items():
        for query in queries:
            scan = set().union(*(
                dim.postings[key] for key, element in dim.nodes.items()
                if at_or_below(element, query, edges, syn)))
            assert search(space, name, query) == scan, (name, query)
    parts = [part for parts in space.sentences.values() for part in parts]
    for q in data.draw(st.lists(questions(parts), min_size=1, max_size=10)):
        for each in (space, replace(space, synonyms=SynonymTable())):
            got = qa.answer(each, q, k=20)
            assert got == ref_answer(each, q, k=20), q
            with mock.patch.dict(globals(), search=ref_search):
                assert got == ref_answer(each, q, k=20), q


# `candidate_search` and `match_answer` as they were when each wrote the
# subject, action and object slots out by hand, copied unchanged but for
# their names and for `_same_or_synonym`, which `match_answer` called.


def ref_candidate_search(space: ResourceSpace, q: QuestionSyntax) -> set[int]:
    """Intersect dimension searches over the question's non-gap slots.

    A gap slot with no type constraint contributes its dimension root when
    the answer grammar requires the element to be present (subject and
    object questions).
    """
    ids: set[int] | None = None
    gap = _REF_GAPS[q.kind]

    def narrow(found: set[int]):
        nonlocal ids
        ids = found if ids is None else ids & found

    if q.subject is not None:
        narrow(search(space, "subject", q.subject))
    elif gap == "subject":
        narrow(search(space, "subject", None))
    if q.action is not None:
        narrow(search(space, "action", q.action))
    if q.object is not None and q.object.direct is not None:
        narrow(search(space, "object", q.object.direct))
    elif gap in ("direct", "indirect", "complement"):
        narrow(search(space, "object", None))
    for adverbial in q.adverbials:
        narrow(search(space, "adverbial", adverbial))
    if ids is None:
        ids = set(space.sentences)
    return ids


def ref_match_answer(q: QuestionSyntax, s: SentenceSyntax,
                     edges: EdgeSet | None = None,
                     syn: SynonymTable | None = None) -> AnswerJudgment:
    """Check one candidate sentence against the answer pattern for q.

    Every question slot must be matched by the same element, a synonym
    (action heads only) or a subclass; the asked slot must be present, and
    when the question constrains its type the answer must be strictly more
    specific.  Polarity disagreement is a ranking penalty, not a filter.
    """
    matched: dict[str, str] = {}
    ok = True
    asked = _REF_GAPS[q.kind]

    def slot(name: str, answer_elem, question_elem, gap: bool):
        nonlocal ok
        if question_elem is None and not gap:
            return
        if gap:
            if answer_elem is None:
                matched[name] = "missing"
                ok = False
                return
            if question_elem is not None:
                rel = at_or_below(answer_elem, question_elem, edges, syn)
                if rel != SUBCLASS:
                    matched[name] = "mismatch"
                    ok = False
                    return
            matched[name] = "gap_filled"
            return
        if answer_elem is None:
            matched[name] = "missing"
            ok = False
            return
        rel = at_or_below(answer_elem, question_elem, edges, syn)
        if rel == EQUAL:
            matched[name] = _same_or_synonym(answer_elem, question_elem, syn)
        elif rel == SUBCLASS:
            matched[name] = "subclass"
        else:
            matched[name] = "mismatch"
            ok = False

    slot("subject", s.subject, q.subject, gap=asked == "subject")
    slot("action", s.action, q.action, gap=False)

    q_group = q.object or ObjectGroup(None)  # type: ignore[arg-type]
    s_group = s.object
    slot("object.direct", s_group.direct if s_group else None,
         q_group.direct if q.object else None, gap=asked == "direct")
    slot("object.indirect", s_group.indirect if s_group else None,
         q_group.indirect if q.object else None, gap=asked == "indirect")
    slot("object.complement", s_group.complement if s_group else None,
         q_group.complement if q.object else None, gap=asked == "complement")

    remaining = list(s.adverbials)
    for idx, q_adv in enumerate(q.adverbials):
        hit = None
        for pos, cand in enumerate(remaining):
            if cand.kind != q_adv.kind:
                continue
            rel = at_or_below(cand.content, q_adv.content, edges, syn)
            if rel is not None and (hit is None or rel == EQUAL):
                hit = (pos, "same" if rel == EQUAL else "subclass")
                if rel == EQUAL:
                    break
        if hit is None:
            matched[f"adverbial[{idx}]"] = "missing"
            ok = False
        else:
            remaining.pop(hit[0])
            matched[f"adverbial[{idx}]"] = hit[1]
    if asked == "adverbial":
        kinds = _REF_ADVERBIAL_KINDS[q.interrogative]
        filler = next((a for a in remaining if a.kind in kinds), None)
        if filler is None:
            matched["adverbial*"] = "missing"
            ok = False
        else:
            matched["adverbial*"] = "gap_filled"

    penalty = 0 if s.polarity == q.polarity else 1
    strict = sum(1 for outcome in matched.values() if outcome == "subclass")
    affirmed = None
    if q.kind == GENERAL_Q:
        affirmed = ok and penalty == 0
    return AnswerJudgment(s.sentence_id, ok, matched, penalty, strict,
                          affirmed)


def ref_answer(space: ResourceSpace, q: QuestionSyntax, k: int = 5):
    """`answer` from the reference search and match, ranked as `answer`
    ranks."""
    judgments = []
    for sid in sorted(ref_candidate_search(space, q)):
        best = None
        for part in space.sentences.get(sid, ()):
            judgment = ref_match_answer(q, part, space.edge_set,
                                        space.synonyms)
            if judgment.accepted and (best is None
                                      or judgment.score < best.score):
                best = judgment
        if best is not None:
            judgments.append(best)
    judgments.sort(key=lambda j: j.score)
    return [(j.sentence_id, j) for j in judgments[:k]]


def _same_or_synonym(answer_elem, question_elem, syn) -> str:
    if syn is not None and isinstance(answer_elem, Phrase) \
            and isinstance(question_elem, Phrase) \
            and answer_elem.kind == VERB \
            and answer_elem.head != question_elem.head \
            and syn.related(answer_elem.head, question_elem.head):
        return "synonym"
    return "same"


def _recording(fn, calls):
    def recorded(*args):
        calls.append(args)
        return fn(*args)
    return recorded


@settings(max_examples=50, deadline=None)
@given(spaces(), st.data())
def test_slot_walk_matches_reference(space, data):
    """`candidate_search` gives the reference's candidates from one
    `SearchIndex.anchors` read for each slot the reference searches below
    an element, in the same order.  `match_answer` gives the whole
    judgment, `matched` in the same order, from the same `at_or_below`
    calls, with the space's synonym table and without one, and the same
    judgment when it reads the slots from the anchors that
    `candidate_search` kept."""
    parts = [part for parts in space.sentences.values() for part in parts]
    original = SearchIndex.anchors

    def recorded(index, query, syn=None):
        got_calls.append((index, query, syn))
        return original(index, query, syn)
    for q in data.draw(st.lists(questions(parts), min_size=1, max_size=10)):
        got_calls, ref_calls, anchors = [], [], {}
        with mock.patch.object(SearchIndex, "anchors", recorded):
            got = qa.candidate_search(space, q, anchors=anchors)
        with mock.patch.dict(globals(), search=_recording(search, ref_calls)):
            assert got == ref_candidate_search(space, q), q
        assert got_calls == [(space.dimensions[name].index, query,
                              space.synonyms)
                             for _, name, query in ref_calls
                             if query is not None], q
        for syn in (None, space.synonyms):
            for part in parts:
                got_calls, ref_calls = [], []
                with mock.patch.object(qa, "at_or_below",
                                       _recording(at_or_below, got_calls)):
                    got = qa.match_answer(q, part, space.edge_set, syn)
                with mock.patch.dict(globals(), at_or_below=_recording(
                        at_or_below, ref_calls)):
                    ref = ref_match_answer(q, part, space.edge_set, syn)
                assert got == ref, (q, part)
                assert list(got.matched) == list(ref.matched), (q, part)
                assert got_calls == ref_calls, (q, part)
        for part in parts:
            read = qa.match_answer(q, part, space.edge_set, space.synonyms,
                                   anchors=anchors)
            ref = ref_match_answer(q, part, space.edge_set, space.synonyms)
            assert read == ref, (q, part)
            assert list(read.matched) == list(ref.matched), (q, part)


# `build_dimension` as it was when step 2a judged every node against every
# unattached edge on every pass and step 2b every ordered pair of a bucket,
# copied unchanged but for its name, for breaking cycles with
# `ref_break_cycles`, and for reading the harvested edges as pairs (a verb
# child's for the action dimension, the others' for subject and object)
# with their evidence from `harvested.edges`.


def ref_build_dimension(name: str, items: list[tuple[int, object]],
                        harvested: EdgeSet | None = None) -> Dimension:
    """Merge, connect, break cycles, reduce, attach postings."""
    harvested = harvested if harvested is not None else EdgeSet()
    dim = Dimension()

    # 1. canonicalize and merge duplicates
    for sid, element in items:
        key = canonical_key(element)
        if key not in dim.nodes:
            dim.nodes[key] = element
        dim.postings.setdefault(key, set()).add(sid)

    raw_edges: list[tuple[str, str, str, int | None]] = []

    # 2a. inject harvested edges whose child belongs to this dimension
    # (exactly, or through a more specific node), materializing missing
    # endpoints; repeated so edge chains attach
    if name != "adverbial":
        pending = sorted(pair for pair in harvested if (
            harvested.elements[pair[0]].kind == VERB) == (name == "action"))
        seen_entries: set[tuple] = set()
        changed = True
        while changed:
            changed = False
            for child, parent in pending:
                entry = (child, parent, SYNTACTIC,
                         harvested.edges[child, parent])
                if entry in seen_entries:
                    continue
                child_elem = harvested.elements[child]
                attaches = child in dim.nodes or any(
                    at_or_below(element, child_elem, harvested)
                    == SUBCLASS for element in dim.nodes.values())
                if not attaches:
                    continue
                for endpoint in (child, parent):
                    if endpoint not in dim.nodes:
                        dim.nodes[endpoint] = harvested.elements[endpoint]
                        dim.postings.setdefault(endpoint, set())
                raw_edges.append(entry)
                seen_entries.add(entry)
                changed = True

    # 2b. modifier-rule edges by pairwise comparison inside head buckets
    edge_pairs = {(c, p) for c, p, _, _ in raw_edges}
    buckets: dict[tuple, list[str]] = {}
    for key in sorted(dim.nodes):
        buckets.setdefault(_shape(dim.nodes[key])[:2], []).append(key)
    for bucket_keys in buckets.values():
        for child_key in bucket_keys:
            for parent_key in bucket_keys:
                if child_key == parent_key:
                    continue
                rel = at_or_below(dim.nodes[child_key],
                                  dim.nodes[parent_key], harvested)
                if rel == SUBCLASS and (child_key, parent_key) not in edge_pairs:
                    raw_edges.append((child_key, parent_key, MODIFIER, None))
                    edge_pairs.add((child_key, parent_key))

    # 3. break cycles: drop lowest-evidence, then latest-discovered
    kept = ref_break_cycles(raw_edges, dim.dropped_edges)

    # 4. transitive reduction
    pairs = {(c, p) for c, p, _, _ in kept}
    reduced = transitive_reduce(pairs)
    dim.edges = {(c, p): (src, ev) for c, p, src, ev in kept
                 if (c, p) in reduced}
    return dim


@settings(max_examples=40, deadline=None)
@given(harvested())
def test_build_dimension_matches_pairwise_reference(edges):
    """Steps 2a and 2b read the dimension's `SearchIndex`, and step 3
    resumes one search after each drop; the dimension, its edge order and
    its dropped edges are the same as when every node, every pair and
    every cycle search was done afresh."""
    items = list(enumerate(ELEMENTS + _PLAIN_ADVERBIALS + _MODIFIED + NOUNS))
    for name in ("subject", "action", "object", "adverbial"):
        dim = build_dimension(name, items, edges)
        ref = ref_build_dimension(name, items, edges)
        assert list(dim.nodes.items()) == list(ref.nodes.items()), name
        assert list(dim.edges.items()) == list(ref.edges.items()), name
        assert list(dim.postings.items()) == list(ref.postings.items())
        assert dim.dropped_edges == ref.dropped_edges, name


# ---------------------------------------------------------------------------
# Ranking baselines
# ---------------------------------------------------------------------------
#
# `content_lemmas`, `_CorpusStats`, the seven scorers and `baseline_rank`
# below are the implementation that prepared the corpus on every call and
# scored every document, copied unchanged.


def content_lemmas(lemmas) -> list[str]:
    """Filter function words; keep order for the sequence baselines."""
    return [w for w in lemmas
            if w not in FUNCTION_LEMMAS and any(c.isalnum() for c in w)]


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


_CONTENT = ["graph", "rank", "sentence", "model", "naïve", "x-ray"]
_FUNCTION = ["the", "a", "of", "be", "and", "it"]
_ODD = ["e.g", "3-d", "u.s.", "--", ".", "(", "'", "", "2", "½"]
_UNASKED = ["tree", "node"]  # content lemmas that no question holds
_LEMMAS = st.sampled_from(_CONTENT + _FUNCTION + _ODD)
_DOCUMENT = st.lists(st.one_of(_LEMMAS, st.sampled_from(_UNASKED)),
                     max_size=20)
_QUESTION = st.one_of(st.lists(_LEMMAS, max_size=6),
                      st.lists(st.sampled_from(_FUNCTION), max_size=3),
                      # three or more of two lemmas repeat one
                      st.lists(st.sampled_from(_CONTENT[:2]), min_size=3,
                               max_size=6))
_CONFIG = st.one_of(st.just(BaselineConfig()), st.builds(
    BaselineConfig, st.floats(0, 3), st.floats(0, 1), st.integers(0, 4)),
    # bm25 scores NaN, which pins the rank of documents that score NaN
    st.builds(BaselineConfig, st.sampled_from([math.inf, 1.2]),
              st.sampled_from([math.nan, 0.75]), st.integers(0, 4)))


@st.composite
def baseline_corpora(draw):
    """Documents, some repeated and some sharing no lemma with any question,
    under distinct sentence ids in any order; perhaps one content lemma is
    in every document, where its idf is 0."""
    docs = draw(st.lists(_DOCUMENT, max_size=12))
    docs += draw(st.lists(st.lists(st.sampled_from(_UNASKED), min_size=1,
                                   max_size=4), max_size=6))
    docs += draw(st.lists(st.sampled_from(docs), max_size=4)) if docs else []
    everywhere = draw(st.none() | st.sampled_from(_CONTENT))
    if everywhere is not None:
        docs = [d[:i] + [everywhere] + d[i:]
                for d in docs for i in [draw(st.integers(0, len(d)))]]
    ids = draw(st.lists(st.integers(0, 99), min_size=len(docs),
                        max_size=len(docs), unique=True))
    return list(zip(ids, docs))


@settings(max_examples=150, deadline=None)
@given(baseline_corpora(), _QUESTION, _CONFIG, _DOCUMENT, st.integers(0, 99))
def test_baseline_rank_matches_reference(sentences, question, config,
                                         edit, at):
    docs = [(sid, content_lemmas(doc)) for sid, doc in sentences]
    stats = _CorpusStats(docs)

    def check_corpus(index):
        assert index.df == stats.df
        assert (index.avgdl, index.vocab_size, index.docs) == (
            stats.avgdl, stats.vocab_size, docs)

    for _, doc in sentences:
        assert evaluation.content_lemmas(doc) == content_lemmas(doc)
    check_corpus(evaluation.BaselineIndex(sentences))  # before filtering
    partly = evaluation.BaselineIndex(sentences)
    evaluation.baseline_rank("jaccard", question, partly, config)
    check_corpus(partly)  # only the documents sharing a lemma are filtered
    index = evaluation.BaselineIndex(sentences)
    for method in BASELINE_METHODS:
        expected = baseline_rank(method, question, sentences, config)
        assert evaluation.baseline_rank(method, question, sentences,
                                        config) == expected, method
        assert evaluation.baseline_rank(method, question, index,
                                        config) == expected, method
    check_corpus(index)  # statistics read from partly filtered documents
    # the plain list again, after a lemma list changed in place; then the
    # same corpus with lemma tuples, and the lists once more
    if sentences:
        sentences[at % len(sentences)][1][:] = edit
    tuples = [(sid, tuple(doc)) for sid, doc in sentences]
    for pairs in (sentences, tuples, sentences):
        for method in BASELINE_METHODS:
            assert evaluation.baseline_rank(method, question, pairs, config) \
                == baseline_rank(method, question, pairs, config), method


# ---------------------------------------------------------------------------
# The snapshot reader
# ---------------------------------------------------------------------------
#
# `ref_parse_pretagged` is the reader that stripped each line and tested it
# with three `startswith` calls before splitting it, and built each token
# through `Token`; `ref_corpus_section` the section that appended the
# snapshot's lines one by one up to the first `[DIMENSION subject]` line.
# Both are copied unchanged but for their names.


def ref_parse_pretagged(text: str) -> list[TaggedSentence]:
    sentences: list[TaggedSentence] = []
    doc_id = ""
    voice = ACTIVE
    current: list[corpus.Token] = []
    next_id = 1

    def flush():
        nonlocal current, next_id, voice
        if current:
            sentences.append(TaggedSentence(next_id, doc_id, current, voice))
            next_id += 1
        current = []
        voice = ACTIVE

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            flush()
            continue
        if stripped.startswith("#doc"):
            flush()
            doc_id = stripped[4:].strip()
            continue
        if stripped.startswith("#voice"):
            voice = stripped[6:].strip() or ACTIVE
            if voice not in (ACTIVE, PASSIVE_CONVERTED, PASSIVE_AGENTLESS):
                raise MalformedLine(lineno, f"unknown voice {voice!r}")
            continue
        if stripped.startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise MalformedLine(lineno, f"expected 3 columns, got {len(parts)}")
        surface, lemma, pos = parts
        if pos not in TAGSET:
            raise MalformedLine(lineno, f"unknown tag {pos!r}")
        if lemma.split() != [lemma]:
            raise MalformedLine(lineno, f"bad lemma {lemma!r}")
        current.append(corpus.Token(surface, lemma, pos))
    flush()
    return sentences


def ref_corpus_section(snapshot_text: str) -> str:
    tail = snapshot_text.rfind("\n[UNCOVERED]\n") + 1
    if not (snapshot_text.startswith(_SNAPSHOT_HEAD) and tail
            and _SNAPSHOT_TAIL.fullmatch(snapshot_text, tail)):
        raise ValueError("not a complete #space v1 snapshot")
    out = []
    for line in snapshot_text.splitlines()[2:]:
        # the first section header, never a corpus line (three columns)
        if line == f"[DIMENSION {DIMENSIONS[0]}]":
            break
        out.append(line)
    return "\n".join(out)


_LINE_BREAKS = st.sampled_from(["\n", "\n", "\r", "\r\n", "\x0b", "\x1c",
                                "\x85", " "])
_TOKEN_LINE = st.tuples(
    st.sampled_from(["LexRank", "builds", "x y", "#x", " #"]),
    st.sampled_from(["lexrank", "build", "x"]),
    st.sampled_from(["NNP", "VBZ", "."])).map("\t".join)
_BLANK_LINE = st.text(alphabet=UNICODE_SPACES, max_size=3)
# "#"-led lines: #doc, #voice and comments, some with tabs or led by spaces
_HASH_LINE = st.sampled_from([
    "#doc d1", "#doc", " #doc  d 2\t", "#docs", "#doc\td3",
    "#voice passive_converted", "\t#voice passive_agentless", "#voice",
    "#voice active ", "#voicepassive_converted", "# a comment", "#",
    "#\tx\tNN", " #a\tb\tNNP", "#\t\t", "\u3000#x\tx\tNN"])
# fields that are empty, spaced, led by "#" or not a tag
_TSV_FIELD = st.sampled_from(["LexRank", "builds", "lexrank", "build", "",
                              "a b", " x", "#", "#doc", "x\u3000"])
_WELL_FORMED_LINES = st.one_of(_TOKEN_LINE, _TOKEN_LINE, _TOKEN_LINE,
                               _BLANK_LINE, _HASH_LINE)
_TSV_LINES = st.one_of(
    _WELL_FORMED_LINES, _WELL_FORMED_LINES, _WELL_FORMED_LINES,
    st.tuples(_TSV_FIELD, _TSV_FIELD,
              st.sampled_from(["NNP", "VBZ", "XX", "", " NN"])
              ).map("\t".join),
    st.lists(_TSV_FIELD, min_size=1, max_size=4).map("\t".join),
    st.just("#voice bogus"),
)


@st.composite
def tsv_texts(draw):
    """Tagged texts, well formed or with odd lines anywhere, under any
    line breaks."""
    lines = draw(st.sampled_from([_WELL_FORMED_LINES, _TSV_LINES]))
    parts = []
    for line in draw(st.lists(lines, max_size=14)):
        parts += [line, draw(_LINE_BREAKS)]
    return "".join(parts[:-1] if draw(st.booleans()) else parts)


def _read_tsv(parse, text):
    try:
        sentences = parse(text)
    except MalformedLine as exc:
        return exc.line_number, exc.message, str(exc)
    return [(s.sentence_id, s.doc_id, s.voice, s.tokens) for s in sentences]


@settings(max_examples=400, deadline=None)
@given(tsv_texts())
def test_parse_pretagged_matches_the_loop_reference(text):
    got = _read_tsv(corpus.parse_pretagged, text)
    assert got == _read_tsv(ref_parse_pretagged, text)
    for _, _, _, tokens in got if isinstance(got, list) else ():
        assert all(type(t) is corpus.Token for t in tokens)


_SECTION_LINES = st.one_of(
    _TSV_LINES,
    st.sampled_from(["[DIMENSION subject]", "[DIMENSION subject]",
                     "[DIMENSION action]", "[NODES]", "[UNCOVERED]",
                     " [DIMENSION subject]", "[DIMENSION subject] ",
                     "[dimension subject]"]),
)


@st.composite
def snapshot_texts(draw):
    """Snapshot-like texts with no, one or several `[DIMENSION subject]`
    lines, perhaps cut off or with trailing lines."""
    body = "".join(line + draw(_LINE_BREAKS)
                   for line in draw(st.lists(_SECTION_LINES, max_size=10)))
    text = (draw(st.sampled_from(["#space v1\n[CORPUS]\n"] * 4
                                 + ["#space v1\n",
                                    "#space v1\r\n[CORPUS]\n"]))
            + body + "\n[UNCOVERED]\n"
            + draw(st.sampled_from(["", "3", "1,12", "", "1,"])) + "\n")
    cut = draw(st.sampled_from(["", "", "", "cut", "more"]))
    if cut == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    elif cut == "more":
        text += draw(st.sampled_from(["x\n", "\n", "[UNCOVERED]\n\n"]))
    return text


def _section(func, text):
    try:
        return func(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(snapshot_texts())
def test_corpus_section_matches_the_loop_reference(text):
    assert _section(corpus_section, text) == _section(ref_corpus_section,
                                                      text)


# ---------------------------------------------------------------------------
# Syntactic-pattern scan
# ---------------------------------------------------------------------------
#
# `_scan_list_patterns` as it was when it ran its token loop over every
# sentence, copied unchanged but for its name; the helpers it calls are
# read from `subsume`.  The drawn sentences hold the three list patterns,
# their trigger lemmas where no pattern fires ("such" without a following
# "as", "include" under tags other than VBG, "other" after no
# conjunction) and sentences with none of them.


def ref_scan_list_patterns(sentence):
    tokens = sentence.tokens
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


def _tokens(*rows):
    return [corpus.Token(*row) for row in rows]


# noun phrases, words and marks with no trigger lemma; each trigger piece is
# inserted among them between two noun phrases
_SCAN_NPS = [
    _tokens(("tools", "tool", "NNS")),
    _tokens(("the", "the", "DT"), ("neural", "neural", "JJ"),
            ("models", "model", "NNS")),
    _tokens(("LexRank", "lexrank", "NNP")),
    _tokens(("a", "a", "DT"), ("parser", "parser", "NN")),
]
_SCAN_WORDS = st.sampled_from(_SCAN_NPS + [
    _tokens(("build", "build", "VBP")),
    _tokens(("is", "be", "VBZ")),
    _tokens(("as", "as", "IN")),
    _tokens(("and", "and", "CC")),
    _tokens((",", ",", ",")),
])
_SCAN_TRIGGERS = st.sampled_from([
    _tokens(("such", "such", "JJ"), ("as", "as", "IN")),
    _tokens(("such", "such", "JJ")),
    _tokens(("such", "such", "PDT")),
    _tokens(("including", "include", "VBG")),
    _tokens(("including", "include", "IN")),
    _tokens(("include", "include", "VBP")),
    _tokens(("includes", "include", "VBZ")),
    _tokens(("included", "include", "VBN")),
    _tokens(("and", "and", "CC"), ("other", "other", "JJ")),
    _tokens(("or", "or", "CC"), ("other", "other", "JJ")),
    _tokens(("other", "other", "JJ")),
])


@st.composite
def scan_sentences(draw):
    pieces = draw(st.lists(_SCAN_WORDS, max_size=6))
    for trigger in draw(st.lists(_SCAN_TRIGGERS, max_size=2)):
        pieces.insert(draw(st.integers(0, len(pieces))),
                      draw(st.sampled_from(_SCAN_NPS)) + trigger
                      + draw(st.sampled_from(_SCAN_NPS)))
    return TaggedSentence(4, "d", [t for piece in pieces for t in piece]
                          + _tokens((".", ".", ".")))


@settings(max_examples=300, deadline=None)
@given(scan_sentences())
def test_scan_syntactic_patterns_matches_the_full_scan(sentence):
    """`scan_syntactic_patterns` gives what it gave when the list patterns
    scanned every sentence, with each parsed part and with none."""
    try:
        parts = parse_sentence_parts(sentence)
    except NoFiniteVerb:
        parts = []
    for part in (None, *parts):
        want = (_scan_copula(sentence, part)
                + ref_scan_list_patterns(sentence)
                + _scan_infinitive_pattern(part, sentence.sentence_id))
        assert scan_syntactic_patterns(sentence, part) == want


# ---------------------------------------------------------------------------
#
# `_Parser.parse_np` as it was when it folded each item through a recursive
# parse of an inner noun phrase, with `attach_pps`, copied unchanged on
# `_RefParser` but for its name and that of its self-call, together with the
# `_list_continues` it calls; the helpers it calls are read from `syntax`
# and `_Parser`.  `_RefParser.parse_np` is what the other methods called:
# the only caller that set `attach_pps`, `parse_subject_element`, also set
# `subject_position`.  The windows are `generators.word_soup` soups over
# `generators.FOLD_GROUPS`: phrases joined by every connector a phrase
# folds, then the finite verbs that hand an item back, then any pieces.


class _RefParser(_Parser):
    def parse_np(self, i: int, end: int, subject_position: bool = False):
        return self.ref_parse_np(i, end, attach_pps=subject_position,
                                 subject_position=subject_position)

    def ref_parse_np(self, i: int, end: int, attach_pps: bool = False,
                     subject_position: bool = False):
        """Parse a noun phrase starting at i; returns (Phrase, next_i) or
        (None, i).

        Tails after the head fold into the post-head: of/about, "such as",
        "including", "and other", coordination and "A, B, and C" items each
        through one recursive parse of an inner noun phrase, relative
        clauses as flat lemmas.  `attach_pps` makes every trailing
        preposition attach as post-head (used before the verb); otherwise
        only of/about attach and other prepositions are left for the
        adverbial layer.  `subject_position` keeps coordination inside the
        phrase even before a finite verb.
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
        # completes a compound nominal ("question answering"): a run left
        # ends in a noun, a number or such a gerund, so it holds one of them
        while run and run[-1].pos not in NOUN_TAGS and run[-1].pos != "CD" \
                and not (run[-1].pos == "VBG" and len(run) > 1
                         and run[-2].pos in NOUN_TAGS):
            run.pop()
            i -= 1
        if not run:
            return None, start
        head = run[-1].lemma
        pre.extend(t.lemma for t in run[:-1] if t.lemma not in lx.ARTICLES)
        post: list[str] = []
        if i < end and tokens[i].pos == "(":
            i = self._skip_parenthetical(i, end)
        while i < end:
            tok = tokens[i]
            # A fold parses an inner noun phrase and appends its words to the
            # post-head: (connector lemmas kept, where the inner phrase
            # starts, whether it parses in subject position, whether a finite
            # verb after it ends this phrase).
            if tok.pos == "IN" and tok.lemma in lx.NP_ATTACH_PREPOSITIONS:
                if i + 1 < end and tokens[i + 1].pos == "VBG":
                    _, j = self._parse_verb_clause(i + 1, end)
                    post.extend(self._flatten_lemmas(i, j))
                    i = j
                    continue
                fold = (tok.lemma,), i + 1, False, False
            elif attach_pps and tok.pos == "IN" and tok.lemma in lx.PREPOSITIONS \
                    and _nominal_start(tokens, i + 1):
                fold = (tok.lemma,), i + 1, False, False
            # hypernym-pattern tails stay inside the phrase so that the
            # sentence parse is not interrupted: "algorithms such as LexRank"
            elif tok.lemma == "such" and i + 1 < end \
                    and tokens[i + 1].lemma == "as" and _nominal_start(tokens, i + 2):
                fold = ("such", "as"), i + 2, subject_position, False
            elif tok.lemma == "include" and tok.pos == "VBG" \
                    and _nominal_start(tokens, i + 1):
                fold = ("include",), i + 1, False, False
            # "and other" is a pattern tail; plain coordination is kept
            # inside one phrase, but in object position a following finite
            # verb means sentence-level coordination
            elif tok.pos == "CC" and _nominal_start(tokens, i + 1):
                plain = tokens[i + 1].lemma != "other"
                fold = ((tok.lemma,), i + 1, subject_position and plain,
                        plain and not subject_position)
            # comma inside an "A, B, and C" list: consume the next item; a
            # comma splice ("..., the researcher wins") stays a boundary
            elif tok.pos == "," and self._list_continues(i + 1, end):
                if _nominal_start(tokens, i + 1):
                    fold = (), i + 1, subject_position, False
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
            keep, j, inner_subject, stop_at_finite = fold
            inner, j = self.ref_parse_np(j, end, subject_position=inner_subject)
            if inner is None or stop_at_finite and _finite_verb_start(tokens, j):
                break
            post.extend(keep + inner.pre + (inner.head,) + inner.post)
            i = j
        return Phrase(NOUN, head, tuple(pre), tuple(post), (start, i)), i

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


@st.composite
def fold_windows(draw):
    """A `generators.word_soup` window of tokens, and an end."""
    rows = word_soup(draw(st.randoms(use_true_random=False)))
    tokens = [corpus.Token(*row) for row in rows]
    return tokens, draw(st.integers(1, len(tokens)))


def _window(text: str):
    """Tokens of "surface/lemma/pos" words, and their number."""
    tokens = [corpus.Token(*row) for row in tagged_rows(text)]
    return tokens, len(tokens)


def _parse_one_outcome(parser_type, sentence):
    try:
        return _parse_one(parser_type(sentence.tokens), sentence, 0,
                          len(sentence.tokens))
    except NoFiniteVerb as exc:
        return str(exc)


@settings(max_examples=1500, deadline=None)
@given(fold_windows())
# the last plain coordination before a finite verb is handed back, in
# object position only; an item skips its parenthetical; only of/about
# attach in object position
@example(_window("models/model/NNS and/and/CC tools/tool/NNS or/or/CC "
                 "team/team/NN builds/build/VBZ"))
@example(_window("models/model/NNS of/of/IN tools/tool/NNS (/(/( 2020/2020/CD "
                 ")/)/) in/in/IN the/the/DT team/team/NN"))
# a coordinated pronoun ends where it stands: only a finite verb right after
# it hands it back, and it leaves the mark of an earlier coordination
@example(_window("models/model/NNS and/and/CC it/it/PRP of/of/IN "
                 "tools/tool/NNS builds/build/VBZ"))
@example(_window("models/model/NNS and/and/CC team/team/NN and/and/CC "
                 "it/it/PRP of/of/IN tools/tool/NNS builds/build/VBZ"))
def test_parse_np_folds_as_the_recursive_reference(window):
    """One loop gives the phrase, span and next index that the recursive
    parse gave, in both positions, and the same sentence parts."""
    tokens, end = window
    for subject_position in (False, True):
        assert _Parser(tokens).parse_np(0, end, subject_position) \
            == _RefParser(tokens).parse_np(0, end, subject_position)
    sentence = TaggedSentence(1, "d", tokens + [corpus.Token(".", ".", ".")])
    assert _parse_one_outcome(_Parser, sentence) \
        == _parse_one_outcome(_RefParser, sentence)


# ---------------------------------------------------------------------------
# Display
# ---------------------------------------------------------------------------


def ref_display(element) -> str:
    """Readable lemma-order rendering of an element (an adverbial shows its
    content)."""
    if element is None:
        return ""
    if isinstance(element, Phrase):
        return " ".join(element.pre + (element.head,) + element.post)
    if isinstance(element, Adverbial):
        return ref_display(element.content)
    parts = [element.lead] if element.lead else []
    parts.extend(ref_display(x) for x in
                 (element.subject, element.action, element.object) if x)
    parts.extend(ref_display(a) for a in element.adverbials)
    return " ".join(p for p in parts if p)


_DISPLAY_WORDS = st.sampled_from(["", "model", "deep", "in"])
_DISPLAY_PHRASES = st.builds(
    Phrase, st.sampled_from([NOUN, VERB, PREPOSITIONAL]), _DISPLAY_WORDS,
    st.lists(_DISPLAY_WORDS, max_size=2).map(tuple),
    st.lists(_DISPLAY_WORDS, max_size=2).map(tuple))


def _display_nests(inner):
    """Clauses with `inner` parts, any of them left out, and adverbials of
    `inner` contents."""
    adverbials = st.builds(Adverbial, st.sampled_from(["time", "method"]),
                           inner)
    return st.builds(Clause, st.sampled_from([None, "", "that", "by"]),
                     st.none() | inner, st.none() | _DISPLAY_PHRASES,
                     st.none() | inner,
                     st.lists(adverbials, max_size=3).map(tuple)) \
        | adverbials


@settings(max_examples=500, deadline=None)
@given(st.none() | st.recursive(_DISPLAY_PHRASES, _display_nests,
                                max_leaves=20))
@example(Clause("that", Clause(None, None, None, None),
                Phrase(VERB, ""), Clause("", Phrase(NOUN, ""), None, None,
                                         (Adverbial("time", Phrase(NOUN,
                                                                   "")),))))
def test_display_matches_the_recursive_reference(element):
    assert display(element) == ref_display(element)
