"""Text ingestion: sentence splitting, tagging, and voice normalization.

The built-in tagger is a rule/lexicon tagger: closed-class words come from
the bundled word lists, open-class words are resolved through a small
lexicon with inflection analysis, and unknown words fall back to suffix
heuristics.  All downstream golden tests can bypass it entirely through the
pre-tagged TSV format (`load_pretagged`).

Passive clauses with an explicit "by" agent are rewritten to active voice;
agentless passives are only flagged.  Downstream modules therefore see
active-voice token streams.
"""

from __future__ import annotations

import gc
import re
import string
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import chain, repeat

from . import lexicon as lx

# Tag inventory for pre-tagged input validation (Penn-style).
TAGSET = frozenset(
    [
        "NN", "NNS", "NNP", "NNPS", "VB", "VBD", "VBG", "VBN", "VBP", "VBZ",
        "JJ", "JJR", "JJS", "RB", "RBR", "RBS", "IN", "TO", "DT", "PDT",
        "PRP", "PRP$", "MD", "CC", "CD", "WDT", "WP", "WP$", "WRB", "EX",
        "POS", "RP", "UH", "FW", "SYM", ".", ",", ":", "(", ")", "``", "''",
    ]
)

VERB_TAGS = frozenset(["VB", "VBD", "VBG", "VBN", "VBP", "VBZ", "MD"])
FINITE_VERB_TAGS = frozenset(["VBD", "VBP", "VBZ", "MD"])
NOUN_TAGS = frozenset(["NN", "NNS", "NNP", "NNPS"])

ACTIVE = "active"
PASSIVE_CONVERTED = "passive_converted"
PASSIVE_AGENTLESS = "passive_agentless"


class MalformedLine(ValueError):
    """Raised by `parse_pretagged` on a bad TSV line."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number, self.message = line_number, message


Token = namedtuple("Token", "surface lemma pos")
_new_tuple = tuple.__new__  # a Token without the Python-level Token.__new__


def gc_paused(func):
    """Run each call of `func` with the cyclic garbage collector off, and
    turn it back on when the call returns or raises only if it was on
    before.  The pipeline's data holds no reference cycles, so reference
    counting frees all of it and a pass during a bulk call finds nothing."""
    @wraps(func)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if was_enabled:
                # the young pass held off is due at the caller's next
                # allocation; run it here, so the call pays for it, and
                # before the collector is on, so that it is the only one
                if gc.get_count()[0] > gc.get_threshold()[0]:
                    gc.collect(0)
                gc.enable()
    return paused


@dataclass(slots=True)
class TaggedSentence:
    sentence_id: int
    doc_id: str
    tokens: list[Token]
    voice: str = ACTIVE
    raw: str = ""

    def surface_text(self) -> str:
        return self.raw if self.raw else " ".join(t.surface for t in self.tokens)

    def lemmas(self) -> list[str]:
        return [t.lemma for t in self.tokens]


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------

# Abbreviations that do not end a sentence even when followed by a capital.
_ABBREVIATIONS = frozenset(
    ["fig", "figs", "al", "etc", "cf", "vs", "dr", "mr", "mrs", "ms",
     "prof", "no", "eq", "sec", "ref", "refs", "approx"]
)

_WORD_CHARS = string.ascii_letters + "."

_BOUNDARY = re.compile(r"([.!?])(\s+)(?=[\"'(\[]?[A-Z0-9])")


def split_sentences(raw: str) -> list[str]:
    """Split raw text into sentence strings.

    Boundaries are {. ! ?} followed by whitespace and a capital or digit,
    except after a known abbreviation or a single-initial ("J. Smith").
    """
    # str.split() cuts at the 29 code points `\s` matches
    text = " ".join(raw.split())
    if not text:
        return []
    sentences = []
    start = 0
    # no piece is blank or padded: `text` is stripped, and each boundary
    # keeps its mark and ends where the next sentence's first character is
    for match in _BOUNDARY.finditer(text):
        if match.group(1) == "." and _inside_abbreviation(text, match.start(1)):
            continue
        sentences.append(text[start:match.end(1)])
        start = match.end()
    sentences.append(text[start:])
    return sentences


def _inside_abbreviation(text: str, dot: int) -> bool:
    # `text` has single spaces, so the word before the dot starts after the
    # last space; looking no further back keeps splitting linear.
    word = text[text.rfind(" ", 0, dot) + 1:dot]
    word = word[len(word.rstrip(_WORD_CHARS)):]
    if not word:
        return False
    token = word.lower().rstrip(".")
    if token in _ABBREVIATIONS:
        return True
    if token.replace(".", "") in ("eg", "ie"):  # also "e.g", "e..g"
        return True
    # Single capital initial, e.g. "J." in "J. Smith".
    return len(token) == 1 and word[0].isupper()


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    [A-Za-z][A-Za-z0-9'-]*      # words, hyphenated words, contractions
    | \d+(?:\.\d+)?             # numbers
    | [.,;:?!()\[\]"“”]         # punctuation kept as single tokens
    """,
    re.VERBOSE,
)


def tokenize(sentence: str) -> list[str]:
    return _TOKEN_RE.findall(sentence)


# ---------------------------------------------------------------------------
# Tagging
# ---------------------------------------------------------------------------


_PUNCT_TAGS = {
    ".": ".", "?": ".", "!": ".", ",": ",", ";": ":", ":": ":",
    "(": "(", ")": ")", "[": "(", "]": ")", '"': "''", "“": "``", "”": "''",
}

_AUX_TAGS = {
    "am": "VBP", "is": "VBZ", "are": "VBP", "was": "VBD", "were": "VBD",
    "be": "VB", "been": "VBN", "being": "VBG",
    "have": "VBP", "has": "VBZ", "had": "VBD",
    "do": "VBP", "does": "VBZ", "did": "VBD", "done": "VBN",
}


def tag(sentence: str, sentence_id: int = 0,
        doc_id: str = "") -> TaggedSentence:
    """Tag one raw sentence.  Never fails; unknown words get heuristic tags."""
    words = tokenize(sentence)
    readings = map(_tag_word, words, chain((False,), repeat(True)))
    tokens = [_new_tuple(Token, (word, lemma, pos))
              for word, (lemma, pos) in zip(words, readings)]
    _contextual_fixups(tokens)
    return TaggedSentence(sentence_id, doc_id, tokens, ACTIVE, sentence)


@lru_cache(maxsize=1 << 16)
def _tag_word(word: str, inside: bool):
    """(lemma, pos) of one word; `inside` is true after the first token."""
    if word in _PUNCT_TAGS:
        return word, _PUNCT_TAGS[word]
    lower = word.lower()

    # Closed classes first; these lists come straight from the grammars.
    if lower in lx.MODAL_VERBS:
        return lower, "MD"
    if lower in lx.BE_FORMS or lower in lx.HAVE_FORMS or lower in lx.DO_FORMS:
        return lx.IRREGULAR_VERB_LEMMAS.get(lower, lower), _AUX_TAGS[lower]
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
    if lower in lx.DETERMINERS and lower not in ("many", "most", "several", "few", "one", "more", "all", "both"):
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
    if word[0].isupper() and inside:
        return lower, "NNP"
    if lower.endswith("ing"):
        return lower, "VBG"
    if lower.endswith("ed"):
        return lower, "VBN"
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


def _open_class_reading(lower: str):
    """Best reading from the open-class lexicon, or None."""
    if lower in lx.ADVERBS:
        return lower, "RB"
    if lower in lx.ADJECTIVES:
        return lower, "JJ"
    if lower in lx.NOUNS:
        return lower, "NN"  # noun/verb ambiguity resolved contextually later
    if lower in lx.VERBS:
        return lower, "VB"
    for cand in lx.noun_lemma_candidates(lower):
        if cand != lower and cand in lx.NOUNS:
            return cand, "NNS"
    for cand in lx.verb_lemma_candidates(lower):
        if cand == lower:
            continue
        if cand in lx.VERBS:
            return cand, _verb_inflection_tag(lower, cand)
    return None


def _verb_inflection_tag(surface: str, base: str) -> str:
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
    return "VBZ"  # every other inflection the candidates strip ends in -s


_FIXUP_TAGS = frozenset(["NN", "NNS", "VB", "TO"])  # the tags a rule changes


def _contextual_fixups(out: list[Token]) -> None:
    """Resolve noun/verb ambiguity and finite-verb agreement in place.  Only
    NN, NNS, VB and TO tokens change, so only they are visited, in order:
    each reads itself as tagged, `prev` fixed and `nxt` not yet fixed."""
    for i, tok in enumerate(out):
        if tok.pos not in _FIXUP_TAGS:
            continue
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
        # Base verbs in the lexicon (surface and lemma alike): a determiner,
        # adjective, possessive or true preposition before forces the noun
        # reading (subordinators like "that" do precede verbs); a plural or
        # proper noun or a plural pronoun before makes it VBP.
        if tok.pos == "VB":
            noun_trigger = prev is not None and (
                prev.pos in ("DT", "JJ", "PRP$", "POS")
                or (prev.pos == "IN" and prev.lemma in lx.PREPOSITIONS))
            if noun_trigger:
                out[i] = tok._replace(pos="NN")
            elif prev is not None and prev.pos in ("NNS", "NNPS", "NNP") or (prev is not None and prev.pos == "PRP" and prev.lemma in ("i", "you", "we", "they")):
                out[i] = tok._replace(pos="VBP")
        # "to" before a base verb is infinitival TO, before a nominal it is IN.
        if tok.pos == "TO":
            nxt = out[i + 1] if i + 1 < len(out) else None
            if nxt is not None and nxt.pos not in VERB_TAGS and nxt.pos != "RB":
                out[i] = tok._replace(pos="IN")


# ---------------------------------------------------------------------------
# Pre-tagged TSV
# ---------------------------------------------------------------------------


def load_pretagged(path) -> list[TaggedSentence]:
    """Load sentences from TSV: `surface<TAB>lemma<TAB>pos`, blank-line
    separated; `#doc <id>` lines set the document id.  Bypasses the tagger.
    """
    with open(path, encoding="utf-8-sig") as handle:
        return parse_pretagged(handle.read())


@gc_paused
def parse_pretagged(text: str) -> list[TaggedSentence]:
    sentences: list[TaggedSentence] = []
    doc_id, voice, current = "", ACTIVE, []

    def flush():
        nonlocal current, voice
        if current:
            sentences.append(TaggedSentence(len(sentences) + 1, doc_id,
                                            current, voice))
        current, voice = [], ACTIVE

    for lineno, line in enumerate(text.splitlines(), start=1):
        lead = line.lstrip()  # `line` itself unless it starts with a space
        if not lead:
            flush()
        elif lead[0] != "#":
            parts = line.split("\t")
            if len(parts) != 3:
                raise MalformedLine(lineno,
                                    f"expected 3 columns, got {len(parts)}")
            _, lemma, pos = parts
            if pos not in TAGSET:
                raise MalformedLine(lineno, f"unknown tag {pos!r}")
            if lemma.split() != [lemma]:
                raise MalformedLine(lineno, f"bad lemma {lemma!r}")
            current.append(_new_tuple(Token, parts))
        elif lead.startswith("#doc"):
            flush()
            doc_id = lead[4:].strip()
        elif lead.startswith("#voice"):
            voice = lead[6:].strip() or ACTIVE
            if voice not in (ACTIVE, PASSIVE_CONVERTED, PASSIVE_AGENTLESS):
                raise MalformedLine(lineno, f"unknown voice {voice!r}")
        # any other line led by "#" is a comment
    flush()
    return sentences


def serialize_pretagged(sentences: list[TaggedSentence]) -> str:
    lines = []
    last_doc = None
    for sent in sentences:
        if sent.doc_id != last_doc:
            lines.append(f"#doc {sent.doc_id}")
            last_doc = sent.doc_id
        if sent.voice != ACTIVE:
            lines.append(f"#voice {sent.voice}")
        for tok in sent.tokens:
            lines.append(f"{tok.surface}\t{tok.lemma}\t{tok.pos}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Voice normalization
# ---------------------------------------------------------------------------

_NP_TAGS = frozenset(["DT", "JJ", "JJR", "JJS", "NN", "NNS", "NNP", "NNPS",
                      "CD", "PRP", "VBG", "VBN", "POS", "PRP$"])


def normalize_voice(sentence: TaggedSentence) -> TaggedSentence:
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
    # each rewrite drops the be-form and "by", so the loop ends; the search
    # goes on past an agentless window, and starts again after a rewrite
    while (window := _passive_window(tokens, start)) is not None:
        participle, rewritten = window
        if rewritten is None:
            agentless, start = True, participle + 1
        else:
            tokens, converted, start = rewritten, True, 0
    voice = PASSIVE_CONVERTED if converted else \
        PASSIVE_AGENTLESS if agentless else sentence.voice
    return TaggedSentence(sentence.sentence_id, sentence.doc_id, tokens, voice,
                          sentence.raw)


def _passive_window(tokens: list[Token], start: int = 0):
    """(participle index, rewritten tokens) of the first passive window whose
    be-form is at `start` or later, with None for the tokens when it has no
    "by" agent; None when no window is left."""
    n = len(tokens)
    for i in range(start, n):
        tok = tokens[i]
        if tok.lemma != "be" or tok.pos not in ("VBZ", "VBP", "VBD", "VB", "VBN"):
            continue
        # Optional adverbs between the auxiliary and the participle.
        j = i + 1
        while j < n and tokens[j].pos == "RB":
            j += 1
        if j >= n or tokens[j].pos != "VBN":
            continue
        # NP1 directly before the auxiliary chain (chain may include modals
        # and have-forms before the be-form).
        chain_start = i
        while chain_start > 0 and (
                tokens[chain_start - 1].pos in ("MD", "RB")
                or tokens[chain_start - 1].lemma in ("have", "be")):
            chain_start -= 1
        np_start = chain_start
        while np_start > 0 and tokens[np_start - 1].pos in _NP_TAGS:
            np_start -= 1
        np1 = tokens[np_start:chain_start]
        if not _holds_nominal(np1):
            continue
        # Post-participle adverbs, then the "by" agent.
        m = j + 1
        while m < n and tokens[m].pos == "RB":
            m += 1
        if m == n or tokens[m].lemma != "by" or tokens[m].pos != "IN":
            return j, None
        end = m + 1
        while end < n and (tokens[end].pos in _NP_TAGS
                           or tokens[end].lemma in ("of", "in", "that")
                           and tokens[end].pos in ("IN", "DT")):
            end += 1
        while end > m + 1 and tokens[end - 1].lemma in ("of", "in", "that"):
            end -= 1
        agent = tokens[m + 1:end]
        if not _holds_nominal(agent):
            return j, None
        # Auxiliaries kept in front of the verb: modals, have-forms, negation.
        kept = [t for t in tokens[chain_start:i]
                if t.pos in ("MD", "RB") or t.lemma == "have"]
        # Tense/agreement: modal or have keeps the stored form; otherwise the
        # new finite verb agrees with the agent head.
        verb = _reinflect(tokens[j], kept, tok, agent)
        return j, (tokens[:np_start] + agent + kept + tokens[i + 1:j] + [verb]
                   + np1 + tokens[j + 1:m] + tokens[end:])
    return None


def _holds_nominal(tokens: list[Token]) -> bool:
    """Whether the tokens hold a noun or a pronoun."""
    return any(t.pos in NOUN_TAGS or t.pos == "PRP" for t in tokens)


def _reinflect(participle: Token, kept: list[Token], be_tok: Token,
               agent: list[Token]) -> Token:
    base = participle.lemma
    if any(t.lemma == "have" for t in kept):
        return participle  # perfect: "has been built" -> "has built"
    if any(t.pos == "MD" for t in kept):
        return Token(base, base, "VB")
    head = next((t for t in reversed(agent) if t.pos in NOUN_TAGS), None)
    plural = head is not None and head.pos in ("NNS", "NNPS")
    if be_tok.pos == "VBD":  # was/were
        return Token(lx.past_tense(base), base, "VBD")
    if plural:
        return Token(base, base, "VBP")
    return Token(lx.third_singular(base), base, "VBZ")


# ---------------------------------------------------------------------------
# Document ingestion
# ---------------------------------------------------------------------------


@gc_paused
def ingest_text(raw: str, doc_id: str = "",
                first_id: int = 1) -> list[TaggedSentence]:
    """Split and tag one document.

    The tagging is kept in source order; voice normalization runs when the
    space is built, so ranking baselines can still see the text as written.
    A document with no token ("* * *") gives no sentence, as the TSV cannot
    hold one.  With a boundary, each piece ends with its mark or starts with
    a capital or digit, so has a token, and the ids stay consecutive.
    """
    tagged = [tag(sentence, first_id + offset, doc_id)
              for offset, sentence in enumerate(split_sentences(raw))]
    return [sentence for sentence in tagged if sentence.tokens]
