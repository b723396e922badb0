from collections import Counter

import pytest

from syntaxspace import corpus
from syntaxspace.corpus import tag
from syntaxspace.syntax import (NOUN, PREPOSITIONAL, PRONOUN, VERB,
                                Adverbial, Clause, NoFiniteVerb, ObjectGroup,
                                ParseError, Phrase, canonical_key, dump_parse,
                                parse_sentence, parse_sentence_parts,
                                slot_elements, _Parser)

from conftest import DATA, SHORT_INPUT, tag_corpus

S1_EXPECTED = (
    '"subject": (clause, "lead word": "to", "subject": Empty, '
    '"action": ("", "solve", ""), '
    '"object": (noun phrase, ("complex", "problem", "")), '
    '"adverbial": Empty),\n'
    '"action": ("", "be", ""),\n'
    '"object": (noun phrase, ("", "essence", "of mathematics")),\n'
    '"adverbial": Empty'
)

S2_EXPECTED = (
    '"subject": (clause, "lead word": Empty, '
    '"subject": (noun phrase, ("", "experiment", "")), '
    '"action": ("", "show", ""), '
    '"object": (noun phrase, ("good", "result", "")), '
    '"adverbial": (adverbial of place, ("in", ("", "china", "")))),\n'
    '"action": ("", "encourage", ""),\n'
    '"object": (noun phrase, ("", "researcher", "")),\n'
    '"adverbial": Empty'
)


class TestGoldenParses:
    def test_infinitive_clause_subject(self, parse_fixture_sentences):
        parsed = parse_sentence(parse_fixture_sentences[0])
        assert dump_parse(parsed) == S1_EXPECTED

    def test_clause_subject_with_omitted_lead(self, parse_fixture_sentences):
        parsed = parse_sentence(parse_fixture_sentences[1])
        assert dump_parse(parsed) == S2_EXPECTED


class TestParseSentence:
    def test_method_adverbial(self):
        parsed = parse_sentence(tag(SHORT_INPUT[0], sentence_id=1))
        assert canonical_key(parsed.subject) == "np(lexrank|)"
        assert parsed.action.head == "build"
        assert canonical_key(parsed.object.direct) == "np(extract|)"
        assert len(parsed.adverbials) == 1
        adv = parsed.adverbials[0]
        assert adv.kind == "method"
        assert isinstance(adv.content, Clause)
        assert adv.content.lead == "by"
        assert adv.content.action.head == "select"

    def test_reason_adverbial(self):
        parsed = parse_sentence(tag(SHORT_INPUT[1], sentence_id=2))
        assert parsed.action.head == "be"
        assert canonical_key(parsed.object.direct) == "np(algorithm|unsupervised)"
        assert parsed.adverbials[0].kind == "reason"
        assert parsed.adverbials[0].content.lead == "due to"

    def test_clause_object_after_voice_normalization(self):
        tagged = corpus.normalize_voice(tag(SHORT_INPUT[2], sentence_id=3))
        parsed = parse_sentence(tagged)
        assert parsed.action.head == "show"
        clause = parsed.object.direct
        assert isinstance(clause, Clause)
        assert clause.lead == "that"
        assert clause.action.head == "build"
        assert canonical_key(clause.subject) == "np(algorithm|unsupervised)"

    def test_no_finite_verb(self):
        with pytest.raises(NoFiniteVerb):
            parse_sentence(tag("hello there", sentence_id=9))

    def test_unclosed_parenthesis_hides_the_verb(self):
        # the noun phrase skips to the end looking for the ")"
        with pytest.raises(NoFiniteVerb):
            parse_sentence(tag("The model (works well.", 1))

    def test_imperative_has_no_subject(self):
        parsed = parse_sentence(tag("Run the test.", sentence_id=1))
        assert parsed.subject is None
        assert parsed.action.head == "run"
        assert canonical_key(parsed.object.direct) == "np(test|)"

    def test_negative_polarity(self):
        parsed = parse_sentence(
            tag("unsupervised algorithm does not need the labelled data", 1))
        assert parsed.polarity == "negative"
        assert parsed.action.head == "need"

    def test_nested_modifier_sentence(self):
        parsed = parse_sentence(tag(
            "in China, researchers of ICT have published many papers about neural networks", 1))
        assert parsed.adverbials[0].kind == "place"
        subj = parsed.subject
        assert subj.head == "researcher"
        assert subj.post == ("of", "ict")
        obj = parsed.object.direct
        assert obj.pre == ("many",)
        assert obj.post == ("about", "neural", "network")

    def test_coordinated_clauses_split_into_parts(self):
        parts = parse_sentence_parts(tag(
            "LexRank builds an extract and supervised algorithm builds a summary.", 7))
        assert len(parts) == 2
        assert all(p.sentence_id == 7 for p in parts)
        assert canonical_key(parts[1].subject) == "np(algorithm|supervised)"

    def test_coordinated_subject_stays_one_phrase(self):
        parts = parse_sentence_parts(tag("LexRank and TextRank build extracts.", 1))
        assert len(parts) == 1
        assert parts[0].subject.head == "lexrank"
        assert "textrank" in parts[0].subject.post


def _np(head, pre=(), post=(), span=(0, 0)):
    return Phrase(NOUN, head, pre, post, span)


def _vp(head, span):
    return Phrase(VERB, head, (), (), span)


class TestConstructions:
    """One sentence per construction; each assertion pins a whole element,
    spans included."""

    def test_including_tail(self):
        parsed = parse_sentence(tag(
            "The system uses algorithms (graphs) including LexRank.", 1))
        assert parsed.object == ObjectGroup(
            _np("algorithm", (), ("include", "lexrank"), (3, 9)), span=(3, 9))

    def test_comma_list(self):
        parsed = parse_sentence(tag(
            "LexRank, TextRank, and SumBasic build extracts.", 1))
        assert parsed.subject == _np(
            "lexrank", (), ("textrank", "and", "sumbasic"), (0, 6))

    @pytest.mark.parametrize("lead", ["that", "whether"])
    def test_clause_subject_with_lead(self, lead):
        parsed = parse_sentence(tag(
            f"{lead.capitalize()} the algorithm builds an extract shows the value.", 1))
        assert parsed.subject == Clause(
            lead, _np("algorithm", span=(1, 3)), _vp("build", (3, 4)),
            _np("extract", span=(4, 6)), (), (0, 6))
        assert parsed.action == _vp("show", (6, 7))

    def test_gerund_subject(self):
        parsed = parse_sentence(tag(
            "Ranking the sentences builds the summary.", 1))
        assert parsed.subject == Clause(
            None, None, _vp("rank", (0, 1)), _np("sentence", span=(1, 3)),
            (), (0, 3))

    def test_using_method_adverbial(self):
        parsed = parse_sentence(tag(
            "The system builds it using the clustering algorithm.", 1))
        clause = Clause(None, None, _vp("use", (4, 5)),
                        _np("algorithm", ("clustering",), span=(5, 8)),
                        (), (4, 8))
        assert parsed.adverbials == (Adverbial("method", clause, span=(4, 8)),)

    def test_bare_time_noun_phrase(self):
        parsed = parse_sentence(tag(
            "The team builds the model quickly next week.", 1))
        assert parsed.adverbials[1] == Adverbial(
            "time", _np("week", ("next",), span=(6, 8)), span=(6, 8))

    def test_marker_with_infinitive_content(self):
        parsed = parse_sentence(tag(
            "The system ranks them as to build an extract.", 1))
        clause = Clause("as", None, _vp("build", (6, 7)),
                        _np("extract", span=(7, 9)), (), (5, 9))
        assert parsed.adverbials == (Adverbial("reason", clause, span=(4, 9)),)

    def test_call_complement(self):
        parsed = parse_sentence(tag("Researchers call it LexRank.", 1))
        assert parsed.object == ObjectGroup(
            Phrase(PRONOUN, "it", (), (), (2, 3)), None,
            _np("lexrank", span=(3, 4)), span=(2, 4))

    def test_gerund_object(self):
        parsed = parse_sentence(tag("The system needs ranking the sentences.", 1))
        assert parsed.object == ObjectGroup(Clause(
            None, None, _vp("rank", (3, 4)), _np("sentence", span=(4, 6)),
            (), (3, 6)), span=(3, 6))

    def test_that_clause_object_with_bare_noun_subject(self):
        # a noun after "that" opens a clause when a finite verb follows it
        # before any punctuation
        parsed = parse_sentence(tag(
            "The team reports that researchers build models.", 1))
        assert parsed.object == ObjectGroup(Clause(
            "that", _np("researcher", span=(4, 5)), _vp("build", (5, 6)),
            _np("model", span=(6, 7)), (), (3, 7)), span=(3, 7))

    def test_demonstrative_that_in_the_object(self):
        # and otherwise "that" is a modifier of the noun phrase
        parsed = parse_sentence(tag("The team uses that model.", 1))
        assert parsed.object == ObjectGroup(
            _np("model", ("that",), span=(3, 5)), span=(3, 5))

    def test_leading_prepositional_phrase_without_comma(self):
        parsed = parse_sentence(tag("In 2020 the team built a model.", 1))
        assert parsed.adverbials == (Adverbial(
            "time", Phrase(PREPOSITIONAL, "2020", ("in",), (), (0, 2)),
            span=(0, 2)),)
        assert parsed.subject == _np("team", span=(2, 4))
        assert parsed.action == _vp("build", (4, 5))

    def test_comma_inside_parentheses_ends_no_leading_adverbial(self):
        parsed = parse_sentence(tag(
            "In the system (LexRank, TextRank), the team builds models.", 1))
        assert parsed.adverbials == (Adverbial(
            "unclassified", Phrase(PREPOSITIONAL, "system", ("in",), (),
                                   (0, 8)), span=(0, 8)),)
        assert parsed.subject == _np("team", span=(9, 11))

    def test_marker_before_a_participle_is_a_clause(self):
        parsed = parse_sentence(tag("The model works if properly trained.", 1))
        clause = Clause("if", None, Phrase(VERB, "train", ("properly",), (),
                                           (4, 6)), None, (), (4, 6))
        assert parsed.adverbials == (
            Adverbial("condition", clause, span=(3, 6)),)


def _slot_keys(text: str) -> str:
    """A sentence's parse as `constructions.tsv` writes it: each part's
    filled slots as slot=key, or the name of the parse error."""
    try:
        parts = parse_sentence_parts(corpus.normalize_voice(tag(text, 1)))
    except ParseError as exc:
        return type(exc).__name__
    slots = ("subject", "action", "object", "indirect", "complement")
    return " || ".join("; ".join(
        [f"{slot}={canonical_key(e)}"
         for slot, e in zip(slots, slot_elements(part)) if e is not None]
        + [f"adverbial={canonical_key(a)}" for a in part.adverbials])
        for part in parts)


def test_construction_table():
    """An `ok` row gets the keys it should; a row left to a ROADMAP item
    gets what it got when recorded, so that a change that fixes or moves
    any row fails until the row is updated."""
    lines = (DATA / "constructions.tsv").read_text(encoding="utf-8")
    rows = [line.split("\t") for line in lines.splitlines()
            if not line.startswith("#")][1:]
    statuses = Counter()
    for name, text, keys, status, today in rows:
        assert _slot_keys(text) == (keys if status == "ok" else today), name
        statuses[status] += 1
    print(f"constructions: {statuses.pop('ok')} of {len(rows)} rows ok; "
          + ", ".join(f"{item}: {n}" for item, n in sorted(statuses.items())))


class TestEarlyStops:
    """Inputs on which a parse step stops short; each pins what is left."""

    def test_preposition_ending_the_text_is_no_adverbial(self):
        parsed = parse_sentence(tag("The team builds models with", 1))
        assert parsed.object == ObjectGroup(_np("model", span=(3, 4)),
                                            span=(3, 4))
        assert parsed.adverbials == ()

    @pytest.mark.parametrize("text", [
        "The team builds models, big and small.",  # no item after the comma
        "The team builds models, tools",  # no conjunction before the end
    ])
    def test_comma_that_continues_no_list_ends_the_object(self, text):
        parsed = parse_sentence(tag(text, 1))
        assert parsed.object == ObjectGroup(_np("model", span=(3, 4)),
                                            span=(3, 4))
        assert parsed.adverbials == ()

    def test_adverb_before_no_verb_ends_the_chain(self):
        parsed = parse_sentence(tag("The model is often.", 1))
        assert parsed.action == Phrase(VERB, "be", (), ("often",), (2, 4))
        assert parsed.object is None

    def test_to_before_a_modal_is_no_infinitive(self):
        parsed = parse_sentence(tag("The team wants to can models.", 1))
        assert parsed.action == _vp("want", (2, 3))
        assert (parsed.object, parsed.adverbials) == (None, ())

    @pytest.mark.parametrize("text", [
        "The team works because of these.",  # a determiner heads no phrase
        "The team works because quickly.",  # neither a clause nor a phrase
    ])
    def test_marker_before_no_content_opens_no_adverbial(self, text):
        parsed = parse_sentence(tag(text, 1))
        assert parsed.action == _vp("work", (2, 3))
        assert parsed.adverbials == ()

    def test_whether_before_nothing_is_no_object(self):
        parsed = parse_sentence(tag("The team knows whether.", 1))
        assert (parsed.object, parsed.adverbials) == (None, ())

    def test_that_before_a_noun_ending_the_text_is_a_determiner(self):
        parsed = parse_sentence(tag("The team knows that model", 1))
        assert parsed.object == ObjectGroup(
            _np("model", ("that",), span=(3, 5)), span=(3, 5))


class TestParseAction:
    def test_long_pre_head_chain(self):
        parsed = parse_sentence(tag(
            "the algorithm might have not been able to rank the sentences", 1))
        action = parsed.action
        assert action.pre == ("might", "have", "not", "be", "able", "to")
        assert action.head == "rank"
        assert parsed.polarity == "negative"

    def test_bare_copula(self):
        parsed = parse_sentence(tag("LexRank is an unsupervised algorithm", 1))
        assert parsed.action.head == "be"
        assert parsed.action.pre == ()

    def test_adverb_pre_head(self):
        parsed = parse_sentence(tag("the network iteratively sends the weight", 1))
        assert parsed.action.pre == ("iteratively",)
        assert parsed.action.head == "send"

    def test_not_a_verb_group(self):
        parser = _Parser(tag("the red house", 1).tokens)
        phrase, i = parser.parse_verb_group(0, 3)
        assert phrase is None
        assert i == 0


def _tagged(text):
    """Tokens from "surface/TAG" words, or "surface/TAG/lemma" where the
    lemma is not the surface."""
    tokens = []
    for word in text.split():
        surface, pos, *lemma = word.split("/")
        tokens.append(corpus.Token(surface, lemma[0] if lemma else surface,
                                   pos))
    return tokens


class TestParseNounPhrase:
    # the modifiers given back leave no noun or number: no phrase, and the
    # parse stays where it started
    @pytest.mark.parametrize("text", [
        "of/IN the/DT big/JJ red/JJ ./.",
        "of/IN the/DT very/RB fast/JJ running/VBG/run ./.",
        "of/IN the/DT fast/JJ running/VBG/run ./.",
    ])
    def test_run_without_a_noun_or_number(self, text):
        tokens = _tagged(text)
        assert _Parser(tokens).parse_np(1, len(tokens)) == (None, 1)

    def test_gerund_completing_a_compound_is_the_head(self):
        tokens = _tagged("question/NN answering/VBG/answer works/VBZ/work "
                         "./.")
        phrase, i = _Parser(tokens).parse_np(0, len(tokens))
        assert (phrase.head, phrase.pre, i) == ("answer", ("question",), 2)

    def test_number_alone_is_a_phrase(self):
        tokens = _tagged("the/DT 3/CD big/JJ ./.")
        phrase, i = _Parser(tokens).parse_np(0, len(tokens))
        assert (phrase.head, phrase.pre, i) == ("3", (), 2)

    def test_comma_list_is_scanned_once(self, monkeypatch):
        # every comma before the conjunction reuses where the conjunction is,
        # so a long list costs linear time, and the list folds in a loop
        items = ", ".join(f"model{i}" for i in range(4999))
        sentence = tag(f"The team builds {items} and tools.", 1)
        scans = []
        list_end = _Parser._list_end

        def counted(self, i, end):
            scans.append(i)
            return list_end(self, i, end)
        monkeypatch.setattr(_Parser, "_list_end", counted)
        obj = parse_sentence(sentence).object.direct
        assert len(scans) <= 2
        assert (obj.head, len(obj.post), obj.post[-2:]) \
            == ("model0", 5000, ("and", "tool"))


class TestParseObject:
    def test_indirect_after_preposition(self):
        parsed = parse_sentence(tag("The algorithm gives the weight to each node.", 1))
        group = parsed.object
        assert group.direct.head == "weight"
        assert group.indirect.head == "node"

    def test_adjective_complement(self):
        parsed = parse_sentence(tag("The algorithm makes results excellent.", 1))
        group = parsed.object
        assert group.direct.head == "result"
        assert group.complement.kind == "adjective"
        assert group.complement.head == "excellent"
        assert group.indirect is None

    def test_single_direct_object(self):
        parsed = parse_sentence(tag("LexRank builds an extract", 1))
        group = parsed.object
        assert group.direct.head == "extract"
        assert group.indirect is None and group.complement is None

    def test_indirect_before_direct(self):
        parsed = parse_sentence(tag(
            "the network iteratively sends adjacent nodes the updated weight", 1))
        group = parsed.object
        assert group.indirect.head == "node"
        assert group.direct.head == "weight"

    def test_no_object(self):
        parsed = parse_sentence(tag("The algorithm works well.", 1))
        assert parsed.object is None


def _marker(adverbial):
    """The marker that opened an adverbial: its clause lead or preposition."""
    content = adverbial.content
    return content.lead if isinstance(content, Clause) \
        else content.preposition()


class TestClassifyAdverbial:
    def cases(self):
        return [
            ("when the optimization is done, the algorithm stops", "time", "when"),
            ("because the algorithm successfully reduces the complexity, researchers use it",
             "reason", "because"),
            ("to select the relevance sentences, the algorithm ranks nodes",
             "purpose", "to"),
            ("if the algorithm finds the sentence, the test works",
             "condition", "if"),
            ("the algorithm works in China", "place", "in"),
            ("the researcher won the prize in 1911", "time", "in"),
            ("the algorithm builds extracts by classifying sentences", "method", "by"),
        ]

    @pytest.mark.parametrize("text,kind,marker", [
        ("when the optimization is done, the algorithm stops", "time", "when"),
        ("because the algorithm successfully reduces the complexity, researchers use it",
         "reason", "because"),
        ("to select the relevance sentences, the algorithm ranks nodes",
         "purpose", "to"),
        ("if the algorithm finds the sentence, the test works", "condition", "if"),
        ("the algorithm works in China", "place", "in"),
        ("the researcher won the prize in 1911", "time", "in"),
        ("the algorithm builds extracts by classifying sentences", "method", "by"),
    ])
    def test_kinds(self, text, kind, marker):
        parsed = parse_sentence(tag(text, 1))
        assert len(parsed.adverbials) == 1
        assert parsed.adverbials[0].kind == kind
        assert _marker(parsed.adverbials[0]) == marker

    def test_bare_adverb_is_method(self):
        parsed = parse_sentence(tag("He solves the problems quickly.", 1))
        assert parsed.adverbials[0].kind == "method"
        assert parsed.adverbials[0].content.head == "quickly"

    def test_unclassified_preposition(self):
        parsed = parse_sentence(tag("the database stores metadata in search engine", 1))
        assert parsed.adverbials[0].kind == "unclassified"

    def test_since_with_clause_is_reason(self):
        parsed = parse_sentence(tag(
            "since the algorithm reduces the complexity, researchers use it", 1))
        assert parsed.adverbials[0].kind == "reason"

    def test_since_with_year_is_time(self):
        parsed = parse_sentence(tag("the algorithm works since 2019", 1))
        assert parsed.adverbials[0].kind == "time"

    def test_marker_soundness(self):
        # every classified adverbial carries a marker from its table, or is
        # a structural match (bare adverb phrase / time-place noun)
        from syntaxspace import lexicon as lx
        table = dict(lx.MARKER_TABLES)
        for text, _, _ in self.cases():
            parsed = parse_sentence(tag(text, 1))
            for adv in parsed.adverbials:
                if adv.kind == "unclassified":
                    continue
                structural = (
                    isinstance(adv.content, Phrase)
                    and (adv.content.kind == "adverb"
                         or adv.content.head in lx.TIME_NOUNS
                         or adv.content.head in lx.PLACE_NOUNS
                         or lx.is_year(adv.content.head))
                ) or (adv.kind == "purpose" and _marker(adv) == "to"
                      and isinstance(adv.content, Clause))
                assert structural or _marker(adv) in table[adv.kind]


class TestInvariants:
    # The token indices outside every constituent span: here separators
    # and final marks.
    LEFTOVER = {
        SHORT_INPUT[0]: {9},
        SHORT_INPUT[1]: {12},
        SHORT_INPUT[2]: {11},
        SHORT_INPUT[3]: {8},
        "To solve complex problems is the essence of mathematics.": {9},
        "The experiment shows good results in China encourages the "
        "researcher.": {10},
        "In 1911, Marie Curie won the Nobel Prize in chemistry again.": {2, 12},
        "the algorithm gives the weight to each node": set(),
    }

    @pytest.mark.parametrize("text", list(LEFTOVER))
    def test_token_conservation(self, text):
        tagged = corpus.normalize_voice(tag(text, sentence_id=1))
        covered = set()
        for part in parse_sentence_parts(tagged):
            spans = [x.span for x in (part.subject, part.action, part.object)
                     if x is not None] + [a.span for a in part.adverbials]
            for start, end in spans:
                span = set(range(start, end))
                assert not span & covered, "overlapping constituents"
                covered |= span
        assert covered == set(range(len(tagged.tokens))) - self.LEFTOVER[text]

    @pytest.mark.parametrize("text", SHORT_INPUT)
    def test_pattern_exclusivity(self, text):
        tagged = corpus.normalize_voice(tag(text, sentence_id=1))
        for part in parse_sentence_parts(tagged):
            # one subject, one action, one object group per part by type
            assert part.action is None or isinstance(part.action, Phrase)
            assert part.object is None or part.object.direct is not None

    @pytest.mark.parametrize("text", SHORT_INPUT)
    def test_determinism(self, text):
        tagged = corpus.normalize_voice(tag(text, sentence_id=1))
        assert dump_parse(parse_sentence(tagged)) == dump_parse(parse_sentence(tagged))


class TestStandaloneOps:
    def test_parse_action_window(self):
        tokens = tag("might have not been able to rank the sentences", 1).tokens
        from syntaxspace.syntax import parse_action
        action = parse_action(tokens)
        assert action.pre == ("might", "have", "not", "be", "able", "to")
        assert action.head == "rank"

    def test_parse_action_rejects_nominal(self):
        from syntaxspace.syntax import ParseError, parse_action
        with pytest.raises(ParseError):
            parse_action(tag("the red house", 1).tokens)

    def test_parse_object_window(self):
        from syntaxspace.syntax import parse_object
        group = parse_object(tag("the weight to each node", 1).tokens)
        assert group.direct.head == "weight"
        assert group.indirect.head == "node"

    def test_parse_object_none(self):
        from syntaxspace.syntax import parse_object
        assert parse_object(tag("quickly", 1).tokens) is None

    def test_display_of_a_missing_part_is_empty(self):
        from syntaxspace.syntax import display
        assert display(None) == ""

    def test_classify_adverbial_of_no_tokens(self):
        from syntaxspace.syntax import classify_adverbial
        assert classify_adverbial([]) is None

    def test_classify_adverbial_window(self):
        from syntaxspace.syntax import classify_adverbial
        adv = classify_adverbial(tag("when the optimization is done", 1).tokens)
        assert adv.kind == "time" and _marker(adv) == "when"
        adv = classify_adverbial(
            tag("because the algorithm successfully reduces the complexity", 1).tokens)
        assert adv.kind == "reason"
        adv = classify_adverbial(tag("to select the relevance sentences", 1).tokens)
        assert adv.kind == "purpose"
