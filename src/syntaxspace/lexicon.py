"""Word lists, marker tables, and morphology used across the pipeline.

Everything here is plain data: closed-class word sets, the marker tables
that classify adverbials, a compact open-class lexicon for the built-in
tagger, and the irregular-form tables used by the lemmatizer and by verb
re-inflection during passive-to-active rewriting.  All sets hold lowercase
lemmas or surface forms.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Closed classes
# ---------------------------------------------------------------------------

MODAL_VERBS = frozenset(
    ["can", "could", "may", "might", "must", "should", "shall", "will", "would"]
)

# be/have forms that mark tense, voice and mood; do-forms added for question
# support ("does X ...?") and negation ("does not").
BE_FORMS = frozenset(["am", "is", "are", "was", "were", "be", "been", "being"])
HAVE_FORMS = frozenset(["have", "has", "had"])
DO_FORMS = frozenset(["do", "does", "did", "done"])

SUBORDINATE_CONJUNCTIONS = frozenset(
    [
        "that", "whether", "whom", "whose", "who", "whoever", "what", "whatever",
        "which", "whichever", "why", "when", "whenever", "where", "wherever",
        "how", "however",
    ]
)

SUBJECT_INTERROGATIVES = frozenset(["what", "who", "which", "whose"])
OBJECT_INTERROGATIVES = frozenset(["what", "whom", "which", "whose"])
ADVERBIAL_INTERROGATIVES = frozenset(["when", "where", "why", "how"])
WH_WORDS = frozenset(
    SUBJECT_INTERROGATIVES | OBJECT_INTERROGATIVES | ADVERBIAL_INTERROGATIVES
)

DETERMINERS = frozenset(
    ["a", "an", "the", "this", "these", "those", "each", "every", "some", "any",
     "no", "another", "such", "all", "both", "many", "most", "several", "few",
     "one", "more"]
)
# Semantically vacuous determiners dropped from phrase decompositions.
ARTICLES = frozenset(["a", "an", "the"])

PRONOUNS = frozenset(
    ["i", "you", "he", "she", "it", "we", "they", "me", "him", "her", "us",
     "them", "itself", "themselves", "himself", "herself", "myself", "yourself",
     "ourselves", "something", "anything", "nothing", "everything", "someone",
     "anyone", "everyone"]
)

PREPOSITIONS = frozenset(
    ["in", "on", "at", "by", "for", "with", "from", "to", "of", "about", "over",
     "under", "between", "among", "during", "against", "through", "via",
     "across", "into", "onto", "within", "without", "toward", "towards",
     "after", "before", "since", "until", "like", "as", "per", "upon"]
)

COORDINATING_CONJUNCTIONS = frozenset(["and", "or", "but", "nor", "yet"])

NEGATION_WORDS = frozenset(["not", "never", "no"])

# Prepositions whose trailing phrase stays attached to the preceding noun
# phrase as post-head material instead of becoming an adverbial.
NP_ATTACH_PREPOSITIONS = frozenset(["of", "about"])

# Prepositions that can introduce an indirect object after a direct object.
OBJECT_PREPOSITIONS = frozenset(["to", "for", "at", "on"])

# Verbs whose second post-verbal nominal is an object complement rather than
# a direct object ("call deep learning representation learning").
COMPLEMENT_VERBS = frozenset(["call", "name", "consider", "make", "deem", "label"])

# ---------------------------------------------------------------------------
# Adverbial marker tables
# ---------------------------------------------------------------------------
# Multi-word markers are space-joined lemma sequences; matching tries the
# longest sequence first.

TIME_MARKERS = frozenset(
    ["after", "before", "since", "when", "while", "once", "until", "whenever"]
)
PLACE_MARKERS = frozenset(["where", "wherever"])
METHOD_MARKERS = frozenset(
    ["as", "as if", "as though", "like", "by", "through", "via", "with", "on"]
)
METHOD_VERBS = frozenset(
    ["use", "utilize", "employ", "apply", "exploit", "implement"]
)
PURPOSE_MARKERS = frozenset(
    ["so", "so that", "so as to", "in order that", "in order to",
     "for fear that", "in case that", "lest", "for"]
)
REASON_MARKERS = frozenset(
    ["because of", "due to", "owing to", "as", "since", "because", "based on"]
)
CONDITION_MARKERS = frozenset(
    ["if", "unless", "as long as", "so long as", "provided that", "in case",
     "in case of", "on condition that"]
)

# Priority order used when a marker appears in several tables.
MARKER_TABLES = (
    ("condition", CONDITION_MARKERS),
    ("reason", REASON_MARKERS),
    ("purpose", PURPOSE_MARKERS),
    ("method", METHOD_MARKERS),
    ("place", PLACE_MARKERS),
    ("time", TIME_MARKERS),
)

ALL_MARKERS = frozenset().union(*(table for _, table in MARKER_TABLES))

# First lemma -> the (marker, words) pairs it starts, longest first: the
# first that `match_marker` finds is the longest, as no two share words.
MARKERS_BY_FIRST = {first: tuple(sorted(
    ((m, tuple(m.split())) for m in ALL_MARKERS if m.split()[0] == first),
    key=lambda pair: (-len(pair[1]), pair[0])))
    for first in sorted({m.split()[0] for m in ALL_MARKERS})}

TIME_NOUNS = frozenset(
    ["time", "week", "month", "year", "day", "today", "tomorrow", "yesterday",
     "decade", "century", "morning", "afternoon", "evening", "night", "moment",
     "january", "february", "march", "april", "may", "june", "july", "august",
     "september", "october", "november", "december",
     "monday", "tuesday", "wednesday", "thursday", "friday", "saturday",
     "sunday", "spring", "summer", "autumn", "winter"]
)

PLACE_NOUNS = frozenset(
    ["china", "beijing", "america", "europe", "asia", "london", "paris",
     "country", "city", "place", "area", "region", "world", "laboratory",
     "lab", "university", "institute", "school", "office", "room", "building",
     "street", "home", "site"]
)


def is_year(word: str) -> bool:
    return len(word) == 4 and word.isdigit() and word[0] in "12"


# ---------------------------------------------------------------------------
# Open-class lexicon for the built-in tagger
# ---------------------------------------------------------------------------

VERBS = frozenset(
    [
        "add", "answer", "appear", "apply", "ask", "bark", "base", "become",
        "begin", "build", "call", "change", "check", "choose", "classify",
        "combine", "compare", "compose", "compute", "connect", "consider",
        "construct", "contain", "continue", "convert", "count", "cover",
        "create", "deem", "define", "demonstrate", "depend", "describe",
        "design", "detect", "discover", "employ", "encourage", "evaluate",
        "examine", "exist", "explain", "exploit", "extract", "filter", "find",
        "finish", "follow", "generate", "give", "guard", "handle", "happen",
        "help", "identify", "implement", "improve", "include", "incorporate",
        "increase", "indicate", "infer", "introduce", "keep", "know", "label",
        "learn", "link", "locate", "make", "manage", "match", "measure",
        "merge", "move", "name", "need", "obtain", "operate", "order",
        "organize", "parse", "perform", "present", "preserve", "process",
        "produce", "propose", "prove", "provide", "publish", "rank", "read",
        "receive", "reduce", "reflect", "remove", "report", "represent",
        "require", "retrieve", "return", "run", "score", "search", "see",
        "select", "send", "show", "solve", "split", "sprint", "start", "stop",
        "store",
        "study", "summarize", "support", "take", "test", "train", "transform",
        "update", "use", "utilize", "verify", "view", "want", "win", "work",
        "write",
    ]
)

NOUNS = frozenset(
    [
        "abstraction", "algorithm", "analysis", "animal", "answer", "application",
        "approach", "area", "article", "cat", "characteristic", "chemistry",
        "class", "cluster", "clustering", "complexity", "concept", "condition",
        "content", "corpus", "coverage", "data", "database", "dataset",
        "dimension", "document", "dog", "engine", "era", "essence", "event",
        "mammal",
        "experiment", "extract", "feature", "field", "graph", "house", "idea",
        "information", "input", "kind", "label", "language", "learning",
        "link", "machine", "mathematics", "metadata", "method", "model",
        "network", "node", "noun", "number", "object", "optimization",
        "output", "overloading", "paper", "paragraph", "pattern", "person",
        "phrase", "prize", "problem", "procedure", "process", "processing",
        "purpose", "quality", "query", "question", "relation", "relevance",
        "representation", "researcher", "resource", "result", "retrieval",
        "scenario", "scientist", "score", "search", "sentence", "service",
        "space",
        "structure", "subfield", "subject", "summarization", "summary",
        "system", "task", "technique", "test", "text", "thing", "tool",
        "training", "tree", "verb", "watchdog", "weight", "word",
    ]
)

ADJECTIVES = frozenset(
    [
        "able", "adjacent", "automatic", "available", "bad", "big",
        "challenging", "complex", "concise", "correct", "deep", "different",
        "direct",
        "due", "essential", "excellent", "fast", "general", "good", "high",
        "huge", "important", "large", "low", "main", "many", "most", "neural",
        "new", "old", "other", "relational", "relevant", "salient", "same",
        "seminal", "senior", "short",
        "several", "simple", "slow", "small", "strong", "supervised",
        "textual", "top", "unsupervised", "weak", "wide", "widely",
        "well-established",
    ]
)

ADVERBS = frozenset(
    [
        "again", "also", "automatically", "carefully", "commonly", "directly",
        "efficiently", "fast", "iteratively", "often", "primarily", "quickly",
        "slowly", "successfully", "together", "well", "widely",
    ]
)

# ---------------------------------------------------------------------------
# Morphology
# ---------------------------------------------------------------------------

# base -> (past, past participle); only forms the regular "+ed" rule misses.
IRREGULAR_VERBS = {
    "be": ("was", "been"),
    "become": ("became", "become"),
    "build": ("built", "built"),
    "buy": ("bought", "bought"),
    "choose": ("chose", "chosen"),
    "do": ("did", "done"),
    "find": ("found", "found"),
    "give": ("gave", "given"),
    "go": ("went", "gone"),
    "have": ("had", "had"),
    "hold": ("held", "held"),
    "know": ("knew", "known"),
    "leave": ("left", "left"),
    "make": ("made", "made"),
    "read": ("read", "read"),
    "run": ("ran", "run"),
    "see": ("saw", "seen"),
    "send": ("sent", "sent"),
    "show": ("showed", "shown"),
    "take": ("took", "taken"),
    "teach": ("taught", "taught"),
    "win": ("won", "won"),
    "write": ("wrote", "written"),
}

# inflected surface -> base lemma, derived from IRREGULAR_VERBS plus the
# suppletive be/do/have paradigms.
IRREGULAR_VERB_LEMMAS: dict[str, str] = {}
for _base, (_past, _part) in IRREGULAR_VERBS.items():
    IRREGULAR_VERB_LEMMAS[_past] = _base
    IRREGULAR_VERB_LEMMAS[_part] = _base
IRREGULAR_VERB_LEMMAS.update(
    {
        "am": "be", "is": "be", "are": "be", "was": "be", "were": "be",
        "been": "be", "being": "be",
        "does": "do", "did": "do", "done": "do", "doing": "do",
        "has": "have", "had": "have", "having": "have",
    }
)

IRREGULAR_NOUN_PLURALS = {
    "children": "child",
    "corpora": "corpus",
    "criteria": "criterion",
    "feet": "foot",
    "men": "man",
    "mice": "mouse",
    "people": "person",
    "phenomena": "phenomenon",
    "women": "woman",
}

# Words ending in -s that are not plurals.
S_FINAL_SINGULARS = frozenset(
    ["mathematics", "physics", "news", "analysis", "basis", "thesis", "this",
     "its", "his", "us", "thus", "always", "perhaps", "nucleus", "status",
     "corpus", "focus", "process", "class", "business"]
)

_VOWELS = "aeiou"


def third_singular(base: str) -> str:
    """Inflect a base verb to 3rd-person singular present ("build"->"builds")."""
    if base == "be":
        return "is"
    if base == "have":
        return "has"
    if base == "do":
        return "does"
    if base.endswith(("s", "x", "z", "ch", "sh", "o")):
        return base + "es"
    if base.endswith("y") and len(base) > 1 and base[-2] not in _VOWELS:
        return base[:-1] + "ies"
    return base + "s"


def past_tense(base: str) -> str:
    """Inflect a base verb to simple past ("select"->"selected")."""
    if base in IRREGULAR_VERBS:
        return IRREGULAR_VERBS[base][0]
    return _ed_form(base)


def past_participle(base: str) -> str:
    if base in IRREGULAR_VERBS:
        return IRREGULAR_VERBS[base][1]
    return _ed_form(base)


def _ed_form(base: str) -> str:
    if base.endswith("e"):
        return base + "d"
    if base.endswith("y") and len(base) > 1 and base[-2] not in _VOWELS:
        return base[:-1] + "ied"
    return base + "ed"


def verb_lemma_candidates(word: str) -> list[str]:
    """Possible base forms for an inflected verb, best guess first."""
    if word in IRREGULAR_VERB_LEMMAS:
        return [IRREGULAR_VERB_LEMMAS[word]]
    out = []
    if word.endswith("ies") and len(word) > 4:
        out.append(word[:-3] + "y")
    if word.endswith("es") and len(word) > 3:
        out.append(word[:-2])
    if word.endswith("s") and not word.endswith("ss"):
        out.append(word[:-1])
    if word.endswith("ing") and len(word) > 4:
        stem = word[:-3]
        out.extend([stem, stem + "e"])
        if len(stem) > 2 and stem[-1] == stem[-2]:
            out.append(stem[:-1])
    if word.endswith("ied") and len(word) > 4:
        out.append(word[:-3] + "y")
    if word.endswith("ed") and len(word) > 3:
        stem = word[:-2]
        out.extend([stem + "e", stem])
        if len(stem) > 2 and stem[-1] == stem[-2]:
            out.append(stem[:-1])
    out.append(word)
    return out


def noun_lemma_candidates(word: str) -> list[str]:
    if word in IRREGULAR_NOUN_PLURALS:
        return [IRREGULAR_NOUN_PLURALS[word]]
    if word in S_FINAL_SINGULARS or not word.endswith("s"):
        return [word]
    out = []
    if word.endswith("ies") and len(word) > 4:
        out.append(word[:-3] + "y")
    if word.endswith(("ses", "xes", "zes", "ches", "shes")) and len(word) > 4:
        out.append(word[:-2])
    if not word.endswith("ss"):
        out.append(word[:-1])
    out.append(word)
    return out


# ---------------------------------------------------------------------------
# Function words for the ranking baselines
# ---------------------------------------------------------------------------
# Bag-of-words and sequence baselines operate on content lemmas only; this is
# the filter.  It mirrors the closed classes above.

FUNCTION_LEMMAS = frozenset(
    DETERMINERS
    | PRONOUNS
    | PREPOSITIONS
    | COORDINATING_CONJUNCTIONS
    | MODAL_VERBS
    | NEGATION_WORDS
    | SUBORDINATE_CONJUNCTIONS
    | {"be", "do", "have", "to", "there", "here", "very", "so", "if", "then",
       "than", "too", "also", "just", "only", "own", "same", "out", "up",
       "down", "off", "because", "due", "owing", "unless", "lest", "et", "al"}
)
