"""Seeded synthetic corpora and question sets for the benchmark.

Everything is planned from the workload parameters and the seed; nothing is
kept or dropped by running the system under test on it.  The vocabulary is
drawn from the built-in tagger's lexicon so that every word is known.

A corpus mixes:

* plain active sentences with modifier chains in all four dimensions
  (adjectives on noun phrases, adverbs on verbs, place / time / method /
  purpose adverbials, clause adverbials such as "by ranking salient
  sentences");
* passives, with a "by"-agent (rewritten to active voice at build time) and
  without one (flagged, parsed as written);
* sentences carrying an in-sentence abbreviation ("e.g.") that the
  sentence splitter must not break on;
* Hearst-style pattern sentences ("X is a Y", "Ys such as Xs and Zs",
  "Ys including Xs", "Xs and other Ys", "to X is to Y"), some of which close
  subclass cycles.

Questions are derived from the plans of corpus sentences (generalised by
dropping modifiers) plus a share of random combinations that usually have
no answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from syntaxspace import lexicon as lx

NOUNS = (
    "algorithm", "network", "representation", "summary", "weight", "sentence",
    "document", "model", "database", "dataset", "engine", "feature", "graph",
    "machine", "paper", "paragraph", "pattern", "phrase", "researcher",
    "scientist", "structure", "system", "technique", "tool", "tree", "word",
    "concept", "article", "approach", "cluster",
)
ADJECTIVES = (
    "unsupervised", "neural", "deep", "textual", "concise", "large",
    "general", "huge", "relational", "senior", "short", "simple", "strong",
    "excellent", "salient",
)
VERBS = (
    "build", "select", "store", "rank", "send", "compute", "generate",
    "evaluate", "construct", "retrieve", "produce", "combine",
)
ADVERBS = ("quickly", "carefully", "often", "iteratively", "efficiently",
           "automatically")
PLACES = ("in China", "in Beijing", "in the laboratory", "at the university",
          "in Europe", "in the office")
TIMES = ("in January", "in March", "in 2019", "in 2021", "in the morning")
ABBREVIATION_TAILS = ("in Asia, e.g. in Beijing", "in Europe, e.g. in London",
                      "in the region, e.g. in Paris")

# modifier counts per noun phrase, as decks: for up to 1, 2 and 3 modifiers
MODIFIER_COUNTS = {1: (0, 0, 1, 1, 1), 2: (0, 0, 0, 1, 1, 1, 1, 2, 2, 2),
                   3: (0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3)}
QUESTION_MIX = (("subject", 0.20), ("direct", 0.25), ("indirect", 0.05),
                ("adverbial", 0.20), ("general", 0.15), ("what_is", 0.05),
                ("unanswered", 0.10))
ADVERBIAL_QUESTION_WORD = {"place": "Where", "time": "When",
                           "method": "How", "purpose": "Why"}


def _check_vocabulary():
    """Every word is known to the tagger in exactly one open class, so that
    any word can fill any slot of the plan with the same tags."""
    classes = {"noun": (NOUNS, lx.NOUNS), "adjective": (ADJECTIVES,
                                                        lx.ADJECTIVES),
               "verb": (VERBS, lx.VERBS), "adverb": (ADVERBS, lx.ADVERBS)}
    for name, (words, lexicon) in classes.items():
        others = [lex for other, (_, lex) in classes.items() if other != name]
        bad = [w for w in words
               if w not in lexicon or any(w in lex for lex in others)]
        if bad:
            raise ValueError(f"{name}s not unambiguous in the lexicon: {bad}")


# ---------------------------------------------------------------------------
# Surface forms
# ---------------------------------------------------------------------------


def _plural(noun: str) -> str:
    if noun.endswith(("s", "x", "z", "ch", "sh")):
        return noun + "es"
    if noun.endswith("y") and noun[-2] not in "aeiou":
        return noun[:-1] + "ies"
    return noun + "s"


def _gerund(verb: str) -> str:
    if verb.endswith("e") and not verb.endswith("ee"):
        return verb[:-1] + "ing"
    return verb + "ing"


def _article(word: str) -> str:
    return "an" if word[0] in "aeiou" else "a"


@dataclass(frozen=True)
class NounPhrase:
    noun: str
    adjectives: tuple[str, ...] = ()
    plural: bool = False

    def words(self) -> str:
        head = _plural(self.noun) if self.plural else self.noun
        return " ".join(self.adjectives + (head,))

    def definite(self) -> str:
        return f"the {self.words()}"

    def indefinite(self) -> str:
        words = self.words()
        return words if self.plural else f"{_article(words)} {words}"

    def generalised(self, rng: random.Random, keep: float) -> "NounPhrase":
        kept = tuple(a for a in self.adjectives if rng.random() < keep)
        return NounPhrase(self.noun, kept, self.plural)


@dataclass(frozen=True)
class Adverbial:
    kind: str  # place | time | method | purpose
    text: str


@dataclass
class Plan:
    """One planned active clause: the slots questions are derived from."""
    subject: NounPhrase
    verb: str
    obj: NounPhrase
    adverb: str | None = None
    indirect: NounPhrase | None = None
    adverbials: list[Adverbial] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    documents: list[tuple[str, str]]  # (doc_id, raw text)
    sentence_count: int
    questions: list[str]
    baseline_questions: list[str]


class _Generator:
    def __init__(self, params: dict, seed: int):
        self.p = params
        # The plan (sentence kinds, taxonomy shape, modifier counts, question
        # kinds) comes from the workload's fixed plan seed; the run seed
        # decides which words fill it.  The system's cost is non-linear in
        # the corpus structure, so a structure drawn anew per seed would make
        # seed-to-seed differences swamp the differences between versions.
        self.rng = random.Random(params["plan_seed"])
        words = random.Random(seed)
        self.nouns = tuple(words.sample(NOUNS, len(NOUNS)))
        self.adjectives = tuple(words.sample(ADJECTIVES, len(ADJECTIVES)))
        # "send" takes an indirect object; it keeps its place so that the
        # plan's indirect objects do not move with the seed
        others = [v for v in VERBS if v != "send"]
        words.shuffle(others)
        others.insert(VERBS.index("send"), "send")
        self.verbs = tuple(others)
        self.adverbs = tuple(words.sample(ADVERBS, len(ADVERBS)))
        self.decks: dict[tuple, list] = {}

    def deal(self, cards: tuple):
        """Draw from a shuffled deck of `cards`, reshuffled when empty, so
        every card is used equally often."""
        deck = self.decks.setdefault(cards, [])
        if not deck:
            deck.extend(cards)
            self.rng.shuffle(deck)
        return deck.pop()

    # -- phrases ----------------------------------------------------------

    def noun_phrase(self, plural_share: float = 0.25, max_mods: int = 2,
                    noun: str | None = None) -> NounPhrase:
        rng = self.rng
        count = self.deal(MODIFIER_COUNTS[max_mods])
        mods = sorted(rng.sample(self.adjectives, count),
                      key=self.adjectives.index)
        return NounPhrase(noun or self.deal(self.nouns), tuple(mods),
                          rng.random() < plural_share)

    def adverbial(self) -> Adverbial:
        rng = self.rng
        kind = rng.choice(("place", "time", "method", "method", "purpose"))
        if kind == "place":
            return Adverbial(kind, rng.choice(PLACES))
        if kind == "time":
            return Adverbial(kind, rng.choice(TIMES))
        inner = self.noun_phrase(plural_share=1.0)
        if kind == "purpose":
            return Adverbial(kind,
                             f"to {rng.choice(self.verbs)} {inner.words()}")
        if rng.random() < 0.5:
            return Adverbial(kind, f"by {_gerund(rng.choice(self.verbs))} "
                                   f"{inner.words()}")
        return Adverbial(kind, f"with {self.noun_phrase(0.0).indefinite()}")

    def plan(self) -> Plan:
        rng = self.rng
        verb = self.deal(self.verbs)
        adverb = rng.choice(self.adverbs) if rng.random() < 0.3 else None
        indirect = self.noun_phrase(0.0, 1) if verb == "send" else None
        advs = [self.adverbial()
                for _ in range(rng.choices((0, 1, 2), (3, 5, 2))[0])]
        return Plan(self.noun_phrase(), verb, self.noun_phrase(max_mods=3),
                    adverb, indirect, advs)

    # -- sentences --------------------------------------------------------

    @staticmethod
    def active_text(plan: Plan) -> str:
        subject = plan.subject
        verb = plan.verb if subject.plural else lx.third_singular(plan.verb)
        if plan.adverb:
            verb = f"{plan.adverb} {verb}"
        parts = [subject.definite().capitalize(), verb, plan.obj.indefinite()]
        if plan.indirect is not None:
            parts.append(f"to {plan.indirect.definite()}")
        parts.extend(a.text for a in plan.adverbials)
        return " ".join(parts) + "."

    def passive_text(self, plan: Plan, with_agent: bool) -> str:
        obj = plan.obj
        be = "are" if obj.plural else self.rng.choice(("is", "was"))
        if obj.plural and be == "are" and self.rng.random() < 0.5:
            be = "were"
        participle = lx.past_participle(plan.verb)
        if with_agent:
            body = f"{obj.definite()} {be} {participle} by " \
                   f"{plan.subject.definite()}."
            if not plan.adverbials:
                return body.capitalize()
            # a trailing adverbial would attach to the agent noun phrase
            lead = plan.adverbials[0].text
            return f"{lead[0].upper()}{lead[1:]}, {body}"
        tail = f" {plan.adverbials[0].text}" if plan.adverbials else ""
        return f"{obj.definite().capitalize()} {be} {participle}{tail}."

    def abbreviation_text(self, plan: Plan) -> str:
        plan.adverbials = []
        body = self.active_text(plan)[:-1]
        return f"{body} {self.rng.choice(ABBREVIATION_TAILS)}."

    def noun_pattern(self, index: int) -> str:
        """The index-th noun pattern sentence states taxonomy edge `index`,
        in a form fixed by the index, so the harvested graph has the same
        shape for every seed; only the words at its vertices change."""
        rng = self.rng
        subject = self.noun_phrase(0.0, 1).definite().capitalize()
        verb = lx.third_singular(rng.choice(self.verbs))
        child, parent = self.noun_edges[index % len(self.noun_edges)]
        form = index % 4
        if form == 0:
            x = self.noun_phrase(0.0, 1, noun=child)
            if rng.random() < 0.3:
                return (f"{NounPhrase(x.noun, x.adjectives, True).words()} "
                        f"are {_plural(parent)}.").capitalize()
            return f"{x.indefinite().capitalize()} is " \
                   f"{NounPhrase(parent).indefinite()}."
        if form == 1:
            sibling = next(c for c, p in self.noun_edges
                           if p == parent and c != child)
            return (f"{subject} {verb} {_plural(parent)} such as "
                    f"{_plural(child)} and {_plural(sibling)}.")
        if form == 2:
            return (f"{subject} {verb} {_plural(parent)} including "
                    f"{_plural(child)}.")
        return (f"{subject} {verb} {_plural(child)} and other "
                f"{_plural(parent)}.")

    def verb_pattern(self, index: int) -> str:
        v1, v2 = self.verb_edges[index % len(self.verb_edges)]
        obj = self.noun_phrase(1.0, 1).words()
        return f"To {v1} the {obj} is to {v2} the {obj}."

    def closing_text(self, index: int) -> str:
        """Even closers turn a child -> parent -> grandparent path into a
        3-cycle; odd ones reverse one stated edge, which the harvester
        resolves as a conflict."""
        child, parent = self.noun_edges[(index * 7) % self.lower_edges]
        if index % 2 == 0:
            parent = self.parents[parent][0]
        return (f"{NounPhrase(parent).indefinite().capitalize()} is "
                f"{NounPhrase(child).indefinite()}.")

    # -- corpus -----------------------------------------------------------

    def taxonomy(self):
        """A seeded assignment of nouns and verbs to a fixed-shape taxonomy:
        five layers of six nouns, each noun below two nouns of the next
        layer; verbs in six pairs."""
        nouns = list(self.nouns)
        self.rng.shuffle(nouns)
        width = 6
        layers = [nouns[k:k + width] for k in range(0, len(nouns), width)]
        self.parents = {}
        self.noun_edges = []
        for lower, upper in zip(layers, layers[1:]):
            for i, child in enumerate(lower):
                self.parents[child] = [upper[i], upper[(i + 1) % width]]
                self.noun_edges.extend((child, p) for p in self.parents[child])
        # edges whose parent still has a parent, for the 3-cycle closers
        self.lower_edges = len(self.noun_edges) - 2 * width
        verbs = list(self.verbs)
        self.rng.shuffle(verbs)
        self.verb_edges = list(zip(verbs[0::2], verbs[1::2]))

    def corpus(self) -> tuple[list[str], list[Plan]]:
        p, rng = self.p, self.rng
        self.taxonomy()
        total = p["sentences"]
        n_pattern = round(total * p["pattern_share"])
        n_closing = round(n_pattern * p["cycle_share"])
        n_verb = (n_pattern - n_closing) // 5
        n_noun = n_pattern - n_closing - n_verb
        n_passive = round(total * p["passive_share"])
        n_abbrev = round(total * p["abbreviation_share"])
        n_plain = total - n_pattern - n_passive - n_abbrev

        kinds = (["plain"] * n_plain + ["passive"] * n_passive
                 + ["abbrev"] * n_abbrev + ["closing"] * n_closing
                 + ["noun_pattern"] * n_noun + ["verb_pattern"] * n_verb)
        rng.shuffle(kinds)

        texts: list[str] = []
        plans: list[Plan] = []
        seen = {"closing": 0, "noun_pattern": 0, "verb_pattern": 0}
        patterns = {"closing": self.closing_text,
                    "noun_pattern": self.noun_pattern,
                    "verb_pattern": self.verb_pattern}
        for kind in kinds:
            if kind in patterns:
                texts.append(patterns[kind](seen[kind]))
                seen[kind] += 1
            elif kind == "plain":
                plan = self.plan()
                texts.append(self.active_text(plan))
                plans.append(plan)
            elif kind == "passive":
                plan = self.plan()
                plan.indirect = None
                with_agent = rng.random() < 0.5
                texts.append(self.passive_text(plan, with_agent))
                if with_agent:
                    plan.adverb = None
                    plans.append(plan)
            else:
                plan = self.plan()
                plan.indirect = None
                texts.append(self.abbreviation_text(plan))
        return texts, plans

    # -- questions --------------------------------------------------------

    def question(self, kind: str, plan: Plan) -> str:
        rng = self.rng
        subject = plan.subject.generalised(rng, 0.5)
        obj = plan.obj.generalised(rng, 0.5)
        do = "do" if subject.plural else "does"
        if kind == "subject":
            if rng.random() < 0.5:
                return (f"What {lx.third_singular(plan.verb)} "
                        f"{obj.indefinite()}?")
            return (f"Which {plan.subject.noun} "
                    f"{lx.third_singular(plan.verb)} {obj.definite()}?")
        if kind == "direct":
            return f"What {do} {subject.definite()} {plan.verb}?"
        if kind == "indirect":
            return (f"What {do} {subject.definite()} send {obj.definite()} "
                    f"to?")
        if kind == "adverbial":
            adv = rng.choice(plan.adverbials)
            word = ADVERBIAL_QUESTION_WORD[adv.kind]
            return (f"{word} {do} {subject.definite()} {plan.verb} "
                    f"{obj.definite()}?")
        if kind == "what_is":
            return f"What is {obj.indefinite()}?"
        return f"{do.capitalize()} {subject.definite()} {plan.verb} " \
               f"{obj.definite()}?"

    def questions(self, plans: list[Plan]) -> list[str]:
        """A fixed mix of question kinds; each derived from a random plan
        that has the slot the kind asks about.  "unanswered" questions are
        general questions over random slot combinations."""
        rng, count = self.rng, self.p["questions"]
        kinds = [kind for kind, share in QUESTION_MIX
                 for _ in range(round(count * share))][:count]
        kinds += ["general"] * (count - len(kinds))
        rng.shuffle(kinds)
        pools = {"indirect": [p for p in plans if p.indirect is not None],
                 "adverbial": [p for p in plans if p.adverbials]}
        out = []
        for kind in kinds:
            if kind == "unanswered":
                plan = Plan(self.noun_phrase(0.0), rng.choice(self.verbs),
                            self.noun_phrase(0.0))
                out.append((kind, self.question("general", plan)))
            else:
                plan = rng.choice(pools.get(kind, plans))
                out.append((kind, self.question(kind, plan)))
        return out


def generate(params: dict, seed: int) -> Workload:
    """The benchmark inputs for one workload and seed."""
    _check_vocabulary()
    gen = _Generator(params, seed)
    texts, plans = gen.corpus()
    size = params["doc_sentences"]
    documents = [(f"d{i // size:04d}", " ".join(texts[i:i + size]))
                 for i in range(0, len(texts), size)]
    questions = gen.questions(plans)
    return Workload(documents, len(texts), [q for _, q in questions],
                    _stratified(questions, params["baseline_questions"]))


def _stratified(questions: list[tuple[str, str]], count: int) -> list[str]:
    """`count` questions taken round-robin over the question kinds, so the
    baseline timings see the same kind mix for every seed."""
    by_kind = {kind: [q for k, q in questions if k == kind]
               for kind, _ in QUESTION_MIX}
    out: list[str] = []
    while len(out) < count:
        for kind, _ in QUESTION_MIX:
            if by_kind[kind] and len(out) < count:
                out.append(by_kind[kind].pop(0))
    return out
