"""Deterministic corpus generators for the acceptance suites.

`synthetic_corpus` builds a taxonomy-planned corpus: modifier chains for
subjects, objects, actions and adverbials, plus copular sentences that
feed the pattern harvester.  Because the sentences are generated from the
same grammars the parser implements, the planned subclass pairs double as
gold annotations and near-perfect recovery is the designed bar.

`random_corpus` produces small random corpora and question pairs for the
monotonicity and relevance property suites.

`FOLD_GROUPS` are pretagged pieces rich in the tails a noun phrase folds
(of/about, prepositions, "such as", "including", coordination, "other",
commas, relative clauses, parentheses, pronouns) and in the finite verbs
that end a phrase; `word_soup` strings them at random.
"""

import random

from syntaxspace import lexicon as lx
from syntaxspace.corpus import tag
from syntaxspace.qa import QuestionSyntax
from syntaxspace.syntax import (Adverbial, Clause, ObjectGroup, Phrase,
                                canonical_key)


def np(head, *mods):
    return Phrase("noun", head, tuple(mods))


def vp(head, *mods):
    return Phrase("verb", head, tuple(mods))


def _article(word):
    return "an" if word[0] in "aeiou" else "a"


# ---------------------------------------------------------------------------
# Planned synthetic corpus with gold relations
# ---------------------------------------------------------------------------

# modifier chains: each level adds one modifier to the previous level
SUBJECT_CHAINS = [
    ("algorithm", ["unsupervised", "graph-based"]),
    ("network", ["neural", "deep"]),
    ("researcher", ["senior"]),
    ("database", ["relational"]),
]
OBJECT_CHAINS = [
    ("extract", ["short", "textual"]),
    ("summary", ["concise"]),
    ("weight", ["large"]),
    ("corpus", ["general", "huge"]),
]
VERB_CHAINS = [
    ("build", "quickly"),
    ("select", "carefully"),
    ("store", "often"),
    ("rank", "iteratively"),
]
# (surface adverbial text, planned key); method clauses come in chains
ADVERBIAL_CHAINS = [
    ("by classifying sentences", "by classifying textual sentences"),
    ("to select sentences", "to select good sentences"),
]
PLACE_ADVERBIALS = ["in China", "in Beijing"]
HEARST_PARENTS = ["technique", "tool", "procedure", "method"]


def _chain_phrases(head, mods):
    """All levels of one chain, most general first."""
    return [np(head, *mods[:k]) for k in range(len(mods) + 1)]


def _np_text(phrase):
    return " ".join(phrase.pre + (phrase.head,))


def synthetic_corpus():
    """Return (tagged sentences, gold relation triples)."""
    subject_levels = [p for head, mods in SUBJECT_CHAINS
                      for p in _chain_phrases(head, mods)]
    object_levels = [p for head, mods in OBJECT_CHAINS
                     for p in _chain_phrases(head, mods)]

    texts = []
    used = {"subject": set(), "action": set(), "object": set(),
            "adverbial": set()}
    rng = random.Random(20240)

    def add(text):
        texts.append(text)

    # core sentences: cycle subject levels x object levels x verbs so every
    # chain level appears, alternating adverb and adverbial use
    for i in range(36):
        subj = subject_levels[i % len(subject_levels)]
        obj = object_levels[(i * 3 + 1) % len(object_levels)]
        verb, adverb = VERB_CHAINS[i % len(VERB_CHAINS)]
        with_adverb = i % 2 == 0
        verb_text = f"{adverb} {lx.third_singular(verb)}" if with_adverb \
            else lx.third_singular(verb)
        tail = ""
        adv_keys = []
        if i % 3 == 0:
            place = PLACE_ADVERBIALS[i % len(PLACE_ADVERBIALS)]
            tail = f" {place}"
            inner = place.split()[1].lower()
            adv_keys.append(f"adv(place|pp(in|np({inner}|)))")
        elif i % 3 == 1:
            shallow, deep = ADVERBIAL_CHAINS[i % len(ADVERBIAL_CHAINS)]
            chosen = deep if i % 2 == 0 else shallow
            tail = f" {chosen}"
            adv_keys.append(_planned_adverbial_key(chosen))
        subj_text = f"The {_np_text(subj)}"
        obj_text = f"{_article(_np_text(obj))} {_np_text(obj)}"
        add(f"{subj_text} {verb_text} {obj_text}{tail}.")
        used["subject"].add(canonical_key(subj))
        used["object"].add(canonical_key(obj))
        used["action"].add(canonical_key(vp(verb, adverb) if with_adverb
                                         else vp(verb)))
        used["adverbial"].update(adv_keys)

    # copular sentences for the pattern harvester: the deepest level of each
    # subject chain is declared a subclass of a fresh head
    hearst_edges = []
    for idx, (head, mods) in enumerate(SUBJECT_CHAINS):
        child = np(head, *mods)
        parent = np(HEARST_PARENTS[idx % len(HEARST_PARENTS)])
        add(f"{_article(_np_text(child)).capitalize()} {_np_text(child)} "
            f"is {_article(parent.head)} {parent.head}.")
        hearst_edges.append((canonical_key(child), canonical_key(parent)))
        used["subject"].add(canonical_key(child))

    # filler variation so the corpus is comfortably larger than 50 sentences
    for i in range(14):
        subj = subject_levels[(i * 5 + 2) % len(subject_levels)]
        obj = object_levels[(i * 7 + 3) % len(object_levels)]
        verb, adverb = VERB_CHAINS[(i + 2) % len(VERB_CHAINS)]
        add(f"The {_np_text(subj)} {lx.third_singular(verb)} "
            f"{_article(_np_text(obj))} {_np_text(obj)}.")
        used["subject"].add(canonical_key(subj))
        used["object"].add(canonical_key(obj))
        used["action"].add(canonical_key(vp(verb)))

    tagged = [tag(text, sentence_id=i + 1, doc_id="synthetic")
              for i, text in enumerate(texts)]

    gold = _planned_gold(used, hearst_edges)
    return tagged, gold


def _planned_adverbial_key(text):
    words = text.split()
    marker = words[0]  # "by" or "to"
    verb_surface = words[1]
    verb = verb_surface[:-3] if marker == "by" else verb_surface
    if marker == "by" and verb.endswith("y") is False and verb not in lx.VERBS:
        for cand in lx.verb_lemma_candidates(verb_surface):
            if cand in lx.VERBS:
                verb = cand
                break
    noun_mods = words[2:-1]
    noun = words[-1]
    noun_lemma = lx.noun_lemma_candidates(noun)[0]
    inner = np(noun_lemma, *noun_mods)
    clause = Clause(marker, None, vp(verb), inner, ())
    kind = "method" if marker == "by" else "purpose"
    return canonical_key(Adverbial(kind, clause))


def _planned_gold(used, hearst_edges):
    """Gold = per-dimension closure of the planned chain and pattern edges,
    restricted to keys that were actually instantiated."""
    gold = set()

    def chain_pairs(chains, kind, instantiated):
        pairs = []
        for head, mods in chains:
            levels = [canonical_key(np(head, *mods[:k]))
                      for k in range(len(mods) + 1)]
            for deep in range(len(levels)):
                for shallow in range(deep):
                    if levels[deep] in instantiated and levels[shallow] in instantiated:
                        pairs.append((levels[deep], levels[shallow]))
        return pairs

    # subject dimension: chain pairs plus harvested edges and their closure
    subject_edges = chain_pairs(SUBJECT_CHAINS, "subject", used["subject"])
    subject_edges.extend(hearst_edges)
    for child, parent in _closure(subject_edges):
        gold.add((child, parent, "subject"))

    for child, parent in _closure(chain_pairs(OBJECT_CHAINS, "object",
                                              used["object"])):
        gold.add((child, parent, "object"))

    action_edges = []
    for verb, adverb in VERB_CHAINS:
        deep, shallow = canonical_key(vp(verb, adverb)), canonical_key(vp(verb))
        if deep in used["action"] and shallow in used["action"]:
            action_edges.append((deep, shallow))
    for child, parent in _closure(action_edges):
        gold.add((child, parent, "action"))

    adverbial_edges = []
    for shallow_text, deep_text in ADVERBIAL_CHAINS:
        deep = _planned_adverbial_key(deep_text)
        shallow = _planned_adverbial_key(shallow_text)
        if deep in used["adverbial"] and shallow in used["adverbial"]:
            adverbial_edges.append((deep, shallow))
    for child, parent in _closure(adverbial_edges):
        gold.add((child, parent, "adverbial"))
    return gold


def _closure(pairs):
    out = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(out):
            for c, d in list(out):
                if b == c and (a, d) not in out:
                    out.add((a, d))
                    changed = True
    return out


# ---------------------------------------------------------------------------
# Random corpora and question pairs for the property suites
# ---------------------------------------------------------------------------

RANDOM_NOUNS = ["algorithm", "network", "extract", "summary", "corpus",
                "weight", "sentence", "document", "model", "database"]
RANDOM_MODS = ["unsupervised", "neural", "good", "fast", "general", "deep",
               "textual", "simple"]
RANDOM_VERBS = ["build", "select", "store", "rank", "send", "use"]
RANDOM_ADVERBS = ["quickly", "carefully", "often"]
RANDOM_PLACES = ["China", "Beijing"]


def random_corpus(rng: random.Random, max_sentences: int = 30):
    """Random active-voice sentences over a bounded vocabulary."""
    return [tag(text, sentence_id=i + 1, doc_id="random")
            for i, text in enumerate(random_texts(rng, max_sentences))]


def random_texts(rng: random.Random, max_sentences: int = 30) -> list[str]:
    """The texts of `random_corpus`."""
    texts = []
    for _ in range(rng.randint(8, max_sentences)):
        subj = _random_np(rng)
        verb = rng.choice(RANDOM_VERBS)
        verb_text = lx.third_singular(verb)
        if rng.random() < 0.4:
            verb_text = f"{rng.choice(RANDOM_ADVERBS)} {verb_text}"
        obj = _random_np(rng) if rng.random() < 0.85 else None
        parts = [f"The {subj}", verb_text]
        if obj is not None:
            parts.append(f"{_article(obj)} {obj}")
        if rng.random() < 0.4:
            parts.append(f"in {rng.choice(RANDOM_PLACES)}")
        texts.append(" ".join(parts) + ".")
    return texts


def random_question_text(rng: random.Random) -> str:
    """A question over the vocabulary of `random_texts`."""
    noun, verb = _random_np(rng), rng.choice(RANDOM_VERBS)
    return rng.choice([
        f"What does the {noun} {verb}?",
        f"Which {noun} {lx.third_singular(verb)} the {_random_np(rng)}?",
        f"Does the {noun} {verb} the {_random_np(rng)} in "
        f"{rng.choice(RANDOM_PLACES)}?"])


def _random_np(rng, max_depth: int = 3) -> str:
    mods = rng.sample(RANDOM_MODS, rng.randint(0, max_depth))
    return " ".join(mods + [rng.choice(RANDOM_NOUNS)])


def _np_from_text(text: str) -> Phrase:
    words = text.split()
    return np(words[-1], *words[:-1])


def random_question_pair(rng: random.Random):
    """A corpus-independent (q1, q2) pair with q1 a subclass of q2; the
    candidate sets of these may well be empty (the subset property must
    hold regardless)."""
    subj = _random_np(rng, 1)
    verb = rng.choice(RANDOM_VERBS)
    obj = _random_np(rng, 1)
    adverbial = Adverbial(
        "place", Phrase("prepositional", rng.choice(RANDOM_PLACES).lower(),
                        ("in",))) if rng.random() < 0.5 else None

    def build(subj_phrase, obj_phrase, advs):
        return QuestionSyntax(
            kind="general", interrogative="do", subject=subj_phrase,
            action=vp(verb), object=ObjectGroup(obj_phrase),
            adverbials=tuple(advs), polarity="affirmative")

    q2 = build(_np_from_text(subj), _np_from_text(obj),
               [adverbial] if adverbial else [])

    extra_mod = rng.choice([m for m in RANDOM_MODS if m not in subj.split()])
    spec_subj = _np_from_text(f"{extra_mod} {subj}")
    spec_obj = _np_from_text(obj)
    extra_advs = list(q2.adverbials)
    if rng.random() < 0.5:
        extra_advs.append(Adverbial(
            "method", Phrase("adverb", rng.choice(RANDOM_ADVERBS))))
    q1 = build(spec_subj, spec_obj, extra_advs)
    return q1, q2


def _question_parts(space):
    """Sentence parts usable as question sources: phrase subject, action,
    and phrase direct object all present."""
    out = []
    for parts in space.sentences.values():
        for part in parts:
            if (isinstance(part.subject, Phrase) and part.subject.kind == "noun"
                    and part.action is not None and part.object is not None
                    and isinstance(part.object.direct, Phrase)
                    and part.object.direct.kind == "noun"):
                out.append(part)
    return out


def _keep_mods(rng, phrase, probability):
    kept = tuple(m for m in phrase.modifiers() if rng.random() < probability)
    return Phrase(phrase.kind, phrase.head, kept, ())


def question_pair_from_space(rng: random.Random, space):
    """(q1, q2, source_id): general questions derived from one corpus
    sentence, with sentence slots below q1 slots below q2 slots.  The
    source sentence is then a guaranteed candidate of both questions,
    which keeps the subset property non-vacuous."""
    parts = _question_parts(space)
    if not parts:
        return None
    source = rng.choice(parts)

    def build(subject, action, obj, advs):
        return QuestionSyntax(
            kind="general", interrogative="do", subject=subject,
            action=action, object=ObjectGroup(obj), adverbials=tuple(advs),
            polarity="affirmative")

    subj1 = _keep_mods(rng, source.subject, 0.6)
    subj2 = _keep_mods(rng, subj1, 0.3)
    act1 = _keep_mods(rng, source.action, 0.6)
    act2 = _keep_mods(rng, act1, 0.3)
    obj1 = _keep_mods(rng, source.object.direct, 0.6)
    obj2 = _keep_mods(rng, obj1, 0.3)
    advs1 = [a for a in source.adverbials if rng.random() < 0.5]
    advs2 = [a for a in advs1 if rng.random() < 0.4]

    strict = (canonical_key(subj1) != canonical_key(subj2)
              or canonical_key(act1) != canonical_key(act2)
              or canonical_key(obj1) != canonical_key(obj2)
              or len(advs1) > len(advs2))
    if not strict:
        if subj1.modifiers():
            subj2 = Phrase(subj1.kind, subj1.head, (), ())
        elif obj1.modifiers():
            obj2 = Phrase(obj1.kind, obj1.head, (), ())
        elif advs1:
            advs2 = []
        else:
            return None  # nothing to specialize on
    return (build(subj1, act1, obj1, advs1),
            build(subj2, act2, obj2, advs2),
            source.sentence_id)


def relevant_pair_from_space(rng: random.Random, space):
    """(q1, q2, anchor, sid1, sid2): questions derived from two sentences
    whose subjects share a head; the anchor pair is (subject of the first,
    bare head), so both questions are relevant and both sources answer
    their own question."""
    parts = _question_parts(space)
    by_head = {}
    for part in parts:
        by_head.setdefault(part.subject.head, []).append(part)
    heads = sorted(h for h, ps in by_head.items() if ps)
    if not heads:
        return None
    head = rng.choice(heads)
    s1 = rng.choice(by_head[head])
    s2 = rng.choice(by_head[head])

    def build(subject, action, obj):
        return QuestionSyntax(
            kind="general", interrogative="do", subject=subject,
            action=action, object=ObjectGroup(obj), adverbials=(),
            polarity="affirmative")

    x = Phrase("noun", head, tuple(s1.subject.modifiers()), ())
    y = Phrase("noun", head, (), ())
    q1 = build(x, _keep_mods(rng, s1.action, 0.0),
               _keep_mods(rng, s1.object.direct, 0.5))
    q2 = build(y, _keep_mods(rng, s2.action, 0.0),
               _keep_mods(rng, s2.object.direct, 0.0))
    return q1, q2, ("subject", x, y), s1.sentence_id, s2.sentence_id


# ---------------------------------------------------------------------------
# Pretagged word soups rich in noun-phrase folds
# ---------------------------------------------------------------------------

def tagged_rows(text: str) -> list[tuple[str, ...]]:
    """(surface, lemma, pos) rows of "surface/lemma/pos" words."""
    return [tuple(word.split("/")) for word in text.split()]


# the pieces by their place in a window: a phrase is up to two modifiers, a
# head and maybe a parenthetical; connectors join phrases; verbs follow
FOLD_GROUPS = {
    "modifier": ["the/the/DT", "a/a/DT", "these/these/DT", "neural/neural/JJ",
                 "fast/fast/JJ", "two/two/CD", "ranking/rank/VBG"],
    "head": ["models/model/NNS", "tools/tool/NNS", "team/team/NN",
             "LexRank/lexrank/NNP", "2020/2020/CD",
             "question/question/NN answering/answer/VBG", "it/it/PRP",
             "them/them/PRP"],
    "paren": ["(/(/( 2020/2020/CD )/)/)", "(/(/(", ")/)/)"],
    "connector": ["of/of/IN", "about/about/IN", "in/in/IN", "with/with/IN",
                  "such/such/JJ as/as/IN", "including/include/VBG",
                  "and/and/CC", "or/or/CC", "and/and/CC other/other/JJ",
                  "other/other/JJ", ",/,/,", ",/,/, and/and/CC",
                  "that/that/IN rank/rank/VBP",
                  "that/that/WDT builds/build/VBZ", ",/,/, which/which/WDT"],
    "verb": ["builds/build/VBZ", "build/build/VBP", "ranked/rank/VBD",
             "can/can/MD"],
}
FOLD_PIECES = [piece for group in FOLD_GROUPS.values() for piece in group]


def word_soup(rng: random.Random, max_items: int = 5) -> list[tuple]:
    """(surface, lemma, pos) rows: a phrase, up to `max_items` connectors
    each with a phrase, maybe a verb, then a few pieces of any group."""
    def phrase():
        pieces = rng.sample(FOLD_GROUPS["modifier"], rng.randint(0, 2))
        pieces.append(rng.choice(FOLD_GROUPS["head"]))
        if rng.random() < 0.15:
            pieces.append(rng.choice(FOLD_GROUPS["paren"]))
        return pieces
    pieces = phrase()
    for _ in range(rng.randint(0, max_items)):
        pieces += [rng.choice(FOLD_GROUPS["connector"])] + phrase()
    if rng.random() < 0.6:
        pieces.append(rng.choice(FOLD_GROUPS["verb"]))
    pieces += rng.choices(FOLD_PIECES, k=rng.randint(0, 4))
    return tagged_rows(" ".join(pieces))
