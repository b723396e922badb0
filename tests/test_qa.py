import pytest

from syntaxspace import corpus, qa
from syntaxspace.corpus import tag
from syntaxspace.qa import (AnswerJudgment, NotAQuestion, QuestionSyntax,
                            answer, candidate_search, match_answer,
                            parse_question, question_relevant,
                            sentence_relevant)
from syntaxspace.space import build_space
from syntaxspace.subsume import (EQUAL, SynonymTable, at_or_below,
                                 sentence_subclass)
from syntaxspace.syntax import (Adverbial, SentenceSyntax, canonical_key,
                                display, parse_sentence)

from conftest import SHORT_QUESTION, np, pp, tag_corpus, vp


def q(text):
    return parse_question(tag(text))


def parsed(text, sid=1):
    return parse_sentence(corpus.normalize_voice(tag(text, sentence_id=sid)))


class TestParseQuestion:
    def test_subject_question(self):
        out = q("In search engine, what database stores the metadata?")
        assert out.kind == "subject"
        assert out.interrogative == "what"
        assert display(out.subject) == "database"
        assert out.action.head == "store"
        assert display(out.object.direct) == "metadata"
        assert [a.kind for a in out.adverbials] == ["unclassified"]
        assert display(out.adverbials[0].content) == "in search engine"

    def test_indirect_object_question(self):
        out = q("in unsupervised algorithm, which node does the network send the weight to?")
        assert out.kind == "indirect_object"
        assert display(out.object.direct) == "weight"
        assert display(out.object.indirect) == "node"

    @pytest.mark.parametrize("text,kind,slots", [
        ("Which node does the network send the weight to?", "indirect_object",
         ("np(weight|)", "np(node|)", None)),
        ("What does the network send to?", "direct_object",
         (None, None, None)),
        ("Which node does the network send to?", "direct_object",
         ("np(node|)", None, None)),
        ("Which weight does the network send to node?", "direct_object",
         ("np(weight|)", "np(node|)", None)),
        ("What do researchers call deep learning?", "object_complement",
         ("np(learning|deep)", None, None)),
        ("Which weight does the network send each node?", "direct_object",
         ("np(weight|)", "np(node|each)", None)),
        ("What does the team build?", "direct_object", None),
        ("Which model does the team build?", "direct_object",
         ("np(model|)", None, None)),
    ])
    def test_object_question_shapes(self, text, kind, slots):
        # one case per shape of the object group; None is no group at all
        out = q(text)
        assert out.kind == kind
        group = out.object
        assert slots == (None if group is None else tuple(
            None if e is None else canonical_key(e)
            for e in (group.direct, group.indirect, group.complement)))

    def test_adverbial_question_with_extra_adverbial(self):
        out = q("When did Marie Curie win the Nobel Prize again?")
        assert out.kind == "adverbial"
        assert out.interrogative == "when"
        assert display(out.subject) == "marie curie"
        assert out.action.head == "win"
        assert display(out.object.direct) == "nobel prize"
        assert [(a.kind, display(a.content)) for a in out.adverbials] \
            == [("method", "again")]

    def test_general_question(self):
        out = q("In summarization, does graph-based algorithm incorporate structured representations?")
        assert out.kind == "general"
        assert out.interrogative == "do"
        assert display(out.subject) == "graph-based algorithm"

    def test_definition_question(self):
        out = q("What is text summarization?")
        assert out.kind == "direct_object"
        assert display(out.subject) == "text summarization"
        assert out.action.head == "be"
        assert out.object is None

    def test_object_complement_question(self):
        out = q("in computer science, what do researchers call deep learning?")
        assert out.kind == "object_complement"
        assert display(out.object.direct) == "deep learning"

    def test_not_a_question(self):
        with pytest.raises(NotAQuestion):
            q("hello there")

    @pytest.mark.parametrize("text, message", [
        ("The model ranks sentences?", "cannot classify"),
        ("What does the model?", "no verb group in question"),
        ("What does not?", "object question without a subject"),
        ("What?", "question ends after interrogative"),
        ("What quickly?", "unrecognized question shape after 'what'"),
        ("When the team builds models?", "'when' question without auxiliary"),
        ("Does the team?", "no verb group in question"),
    ])
    def test_unparsable_question_shapes(self, text, message):
        with pytest.raises(NotAQuestion, match=message):
            q(text)

    def test_negative_polarity(self):
        out = q("does the algorithm not need labelled data?")
        assert out.polarity == "negative"
        # a negation right after the inverted auxiliary is no action word
        out = q("Does not the team build models?")
        assert (out.kind, out.polarity) == ("general", "negative")
        assert "not" not in out.action.pre

    def test_how_to_form(self):
        out = q("how to build an extract?")
        assert out.kind == "adverbial"
        assert out.subject is None
        assert out.action.head == "build"


class TestCandidateSearch:
    def test_motivation_example(self, short_space):
        out = candidate_search(short_space, q(SHORT_QUESTION))
        assert out == {1}

    def test_unmatched_subject_yields_empty(self, short_space):
        out = candidate_search(short_space, q("How does the parser build an extract?"))
        assert out == set()

    def test_general_question_intersects_all_slots(self, short_space):
        out = candidate_search(short_space,
                               q("does LexRank build an extract by selecting top ranked sentences?"))
        assert out == {1}

    def test_definition_requires_object_root(self):
        space = build_space(tag_corpus([
            "Text summarization is the process of selecting information.",
            "Text summarization works.",
        ]))
        out = candidate_search(space, q("What is text summarization?"))
        assert out == {1}

    def test_clause_with_a_synonym_verb_is_a_candidate(self):
        # the object search reads the space's synonyms, as matching does:
        # "that the big dog sprints" is below "that the dog runs"
        space = build_space(
            tag_corpus(["The researcher reports that the big dog sprints."]),
            SynonymTable([("run", "sprint")]))
        question = q("Who reports that the dog runs?")
        assert match_answer(question, space.sentences[1][0],
                            space.edge_set, space.synonyms).accepted
        assert candidate_search(space, question) == {1}
        assert [sid for sid, _ in answer(space, question)] == [1]


class TestMatchAnswer:
    def test_worked_subject_answer(self):
        question = q("In search engine, what database stores the metadata?")
        sentence = parsed("database in master service stores metadata of the "
                          "web pages in master-slave search engine")
        judgment = match_answer(question, sentence)
        assert judgment.accepted
        assert judgment.matched["subject"] == "gap_filled"
        assert judgment.matched["action"] == "same"
        assert judgment.matched["object.direct"] == "subclass"
        assert judgment.matched["adverbial[0]"] == "subclass"

    def test_consistency_penalty(self):
        question = q("what algorithm needs labelled data")
        sentence = parsed("unsupervised algorithm does not need the labelled data")
        judgment = match_answer(question, sentence)
        assert judgment.accepted
        assert judgment.consistency_penalty == 1

    def test_when_gap_unfilled_rejected(self):
        question = q("When did Marie Curie win the Nobel Prize?")
        sentence = parsed("Marie Curie won the Nobel Prize")
        judgment = match_answer(question, sentence)
        assert not judgment.accepted
        assert judgment.matched["adverbial*"] == "missing"

    def test_when_gap_filled(self):
        question = q("When did Marie Curie win the Nobel Prize again?")
        sentence = parsed("In 1911, Marie Curie won the Nobel Prize in chemistry again.")
        judgment = match_answer(question, sentence)
        assert judgment.accepted
        assert judgment.matched["adverbial*"] == "gap_filled"
        assert judgment.matched["adverbial[0]"] == "same"

    def test_indirect_object_answer(self):
        question = q("in unsupervised algorithm, which node does the network "
                     "send the weight to?")
        sentence = parsed("in graph-based unsupervised algorithm, the "
                          "attention-based network iteratively sends the "
                          "updated weight to the adjacent nodes")
        judgment = match_answer(question, sentence)
        assert judgment.accepted
        assert judgment.matched["object.indirect"] == "gap_filled"
        assert judgment.matched["object.direct"] == "subclass"
        assert judgment.matched["subject"] == "subclass"
        assert judgment.matched["action"] == "subclass"

    def test_indirect_before_direct_shape_matches_too(self):
        question = q("in unsupervised algorithm, which node does the network "
                     "send the weight to?")
        sentence = parsed("in graph-based unsupervised algorithm, the "
                          "attention-based network iteratively sends adjacent "
                          "nodes the updated weight")
        judgment = match_answer(question, sentence)
        assert judgment.accepted

    def test_synonym_action(self):
        syn = SynonymTable([("build", "construct")])
        question = q("what does LexRank build?")
        sentence = parsed("LexRank constructs an extract")
        judgment = match_answer(question, sentence, syn=syn)
        assert judgment.accepted
        assert judgment.matched["action"] == "synonym"

    def test_equal_adverbial_after_a_subclass_one_wins(self):
        # "in the chemistry lab" is below "in the lab", but the later equal
        # adverbial is the one paired
        place = Adverbial("place", pp("in", "lab"))
        question = QuestionSyntax("general", "do", np("curie"), vp("win"),
                                  None, (place,))
        sentence = SentenceSyntax(
            1, np("curie"), vp("win"), None,
            (Adverbial("place", pp("in", "lab", "chemistry")), place))
        judgment = match_answer(question, sentence)
        assert judgment.accepted
        assert judgment.matched["adverbial[0]"] == "same"
        assert judgment.strict_count == 0

    @pytest.mark.parametrize("sentence", [
        "The team builds models on rainy days on sunny days.",
        "The team builds models on sunny days on rainy days.",
    ])
    def test_adverbials_pair_as_sentence_subclass_pairs_them(self, sentence):
        # "on days" takes the first time adverbial below it, whichever
        # order the sentence gives them, and "on sunny days" what is left
        question = q("Does the team build models on days on sunny days?")
        s = parsed(sentence)
        assert match_answer(question, s).accepted \
            == sentence_subclass(s, question)

    def test_general_affirmed_flag(self):
        question = q("does unsupervised algorithm need labelled data?")
        yes = parsed("unsupervised algorithm needs labelled data")
        no = parsed("unsupervised algorithm does not need the labelled data")
        assert match_answer(question, yes).affirmed is True
        assert match_answer(question, no).affirmed is False

    def test_unanchored_adverbial_judgment_equals_anchored(self):
        space = build_space(tag_corpus(
            ["The team builds models in the laboratory."]))
        question = q("What does the team build in the laboratory?")
        anchors: dict = {}
        assert candidate_search(space, question, anchors=anchors) == {1}
        assert "adverbial[0]" in anchors
        sentence = space.sentences[1][0]
        anchored = match_answer(question, sentence, space.edge_set,
                                space.synonyms, anchors=anchors)
        assert anchored.accepted
        assert anchored.matched["adverbial[0]"] == "same"
        assert match_answer(question, sentence, space.edge_set,
                            space.synonyms) == anchored


class TestAnswer:
    def test_motivation_example(self, short_space):
        results = answer(short_space, tag(SHORT_QUESTION))
        assert [sid for sid, _ in results] == [1]
        assert results[0][1].matched["adverbial*"] == "gap_filled"

    def test_definition_question(self):
        space = build_space(tag_corpus([
            "The algorithm ranks sentences.",
            "Text summarization is the process of selecting the most salient "
            "information in one or more textual documents.",
        ]))
        results = answer(space, tag("What is text summarization?"))
        assert [sid for sid, _ in results] == [2]

    def test_not_a_question_propagates(self, short_space):
        with pytest.raises(NotAQuestion):
            answer(short_space, tag("hello there"))

    def test_passive_conversion_definition_answer(self):
        space = build_space(tag_corpus([
            "In NLP tasks, a language is represented by a huge general corpus "
            "in that language.",
            "The corpus stores sentences.",
        ]))
        results = answer(space, tag("What does general corpus represent in NLP task?"))
        assert [sid for sid, _ in results] == [1]
        judgment = results[0][1]
        assert judgment.matched["subject"] == "subclass"
        assert judgment.matched["object.direct"] == "gap_filled"

    def test_ranking_prefers_fewer_subclass_steps(self):
        space = build_space(tag_corpus([
            "graph-based unsupervised algorithm builds an extract by selecting sentences.",
            "unsupervised algorithm builds an extract by classifying sentences.",
        ]))
        results = answer(space, tag("How does unsupervised algorithm build an extract?"))
        assert [sid for sid, _ in results] == [2, 1]

    def test_best_scoring_accepted_part_is_kept(self):
        space = build_space(tag_corpus([
            "The team does not build models, but the team builds models."]))
        assert len(space.sentences[1]) == 2
        results = answer(space, tag("Does the team build models?"))
        assert [sid for sid, _ in results] == [1]
        judgment = results[0][1]
        assert judgment.consistency_penalty == 0
        assert judgment.affirmed is True

    def test_k_truncation(self):
        texts = [f"unsupervised algorithm builds an extract by classifying sentences."
                 for _ in range(7)]
        space = build_space(tag_corpus(texts))
        results = answer(space, tag("How does unsupervised algorithm build an extract?"), k=3)
        assert len(results) == 3
        assert [sid for sid, _ in results] == [1, 2, 3]


    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_rejected(self, short_space, k):
        with pytest.raises(ValueError):
            answer(short_space, tag(SHORT_QUESTION), k=k)


_REPORTS = ["The team reports that the system builds models.",
            "The team reports that the system builds neural models.",
            "It reports that the system builds models."]


def _matched(results):
    return [(sid, judgment.matched) for sid, judgment in results]


class TestSearchedSlots:
    """Clause, pronoun and synonym slots judged through `answer`, which
    reads each searched slot from the anchors of its search."""

    def test_clause_object(self):
        space = build_space(tag_corpus(_REPORTS))
        results = answer(space, tag("Who reports that the system builds "
                                    "models?"))
        same = {"subject": "gap_filled", "action": "same",
                "object.direct": "same"}
        assert _matched(results) == [
            (1, same), (3, same),
            (2, {**same, "object.direct": "subclass"})]

    def test_pronoun_subject(self):
        space = build_space(tag_corpus(_REPORTS))
        results = answer(space, tag("Does it report that the system builds "
                                    "models?"))
        assert _matched(results) == [
            (3, {"subject": "same", "action": "same",
                 "object.direct": "same"})]
        assert results[0][1].affirmed is True

    def test_synonym_action(self):
        space = build_space(tag_corpus(_REPORTS),
                            SynonymTable([("report", "show")]))
        results = answer(space, tag("Who shows that the system builds "
                                    "models?"))
        same = {"subject": "gap_filled", "action": "synonym",
                "object.direct": "same"}
        assert _matched(results) == [
            (1, same), (3, same),
            (2, {**same, "object.direct": "subclass"})]

    def test_clause_with_a_synonym_verb_is_the_same(self):
        # with run/sprint, "that the dog sprints" is Equal to "that the dog
        # runs", as its verb is, not only the more specific clause below it
        syn = SynonymTable([("run", "sprint")])
        space = build_space(tag_corpus([
            "The researcher reports that the dog sprints.",
            "The researcher reports that the big dog sprints."]), syn)
        question = q("Who reports that the dog runs?")
        same = {"subject": "gap_filled", "action": "same",
                "object.direct": "same"}
        assert _matched(answer(space, question)) == [
            (1, same), (2, {**same, "object.direct": "subclass"})]
        found = space.sentences[1][0].object.direct
        asked = question.object.direct
        assert at_or_below(found, asked, space.edge_set, syn) == EQUAL
        assert at_or_below(found, asked, space.edge_set) is None

    def test_searched_slots_ask_no_at_or_below(self, short_space,
                                               monkeypatch):
        # subject (typed gap and given), action, direct object and question
        # adverbials are read; only the indirect slot asks with the harvested
        # edges (a read slot asks its Equal without them)
        calls = []

        def recorded(found, asked, edges=None, syn=None):
            if edges is not None:
                calls.append((found, asked))
            return at_or_below(found, asked, edges, syn)
        monkeypatch.setattr(qa, "at_or_below", recorded)
        for question in (SHORT_QUESTION, "What algorithm builds an extract?",
                         "Does supervised algorithm build an extract by "
                         "classifying sentences?"):
            assert answer(short_space, tag(question))
        assert calls == []
        space = build_space(tag_corpus([
            "The network sends the weight to the node.",
            "The network sends the weight to the adjacent node."]))
        question = q("Which node does the network send the weight to?")
        # a typed gap takes only a strictly more specific answer
        assert [sid for sid, _ in answer(space, question)] == [2]
        assert [asked for _, asked in calls] \
            == [question.object.indirect] * 2


class TestRelevance:
    def test_subclass_questions_relevant(self):
        q1 = q("what does graph-based unsupervised algorithm select?")
        q2 = q("what does unsupervised algorithm select?")
        assert question_relevant(q1, q2)

    def test_disjoint_questions_irrelevant(self):
        q1 = q("what does LexRank build?")
        q2 = q("where does the researcher work?")
        assert not question_relevant(q1, q2)

    def test_self_relevant(self):
        out = q("what does unsupervised algorithm select?")
        assert question_relevant(out, out)

    def test_sentence_relevance(self):
        s1 = parsed("in China, researchers of ICT have published many papers about neural networks")
        s2 = parsed("researchers have published many papers")
        assert sentence_relevant(s1, s2)
        assert sentence_relevant(s1, s1)
        s3 = parsed("the network sends the weight")
        assert not sentence_relevant(s2, s3)


class TestMonotonicitySmoke:
    def test_specialized_question_candidates_are_subset(self, short_space):
        q1 = q("How does graph-based unsupervised algorithm build an extract?")
        q2 = q("How does unsupervised algorithm build an extract?")
        from syntaxspace.subsume import question_subclass
        assert question_subclass(q1, q2, short_space.edge_set)
        assert candidate_search(short_space, q1) <= candidate_search(short_space, q2)


class TestDeterminismAndGapRule:
    def test_answer_determinism(self, short_space):
        a = answer(short_space, tag(SHORT_QUESTION))
        b = answer(short_space, tag(SHORT_QUESTION))
        assert [(sid, j.score) for sid, j in a] == [(sid, j.score) for sid, j in b]

    def test_gap_rule_every_accepted_answer_fills_the_gap(self, short_space):
        results = answer(short_space, tag(SHORT_QUESTION))
        for _, judgment in results:
            assert judgment.accepted
            assert "gap_filled" in judgment.matched.values()


class TestAnswerClosure:
    def test_subclass_of_accepted_answer_is_candidate(self):
        """If s is a subclass of s' and s' answers q with exact slot
        matches, s is in the candidate set of q (descendant closure)."""
        from syntaxspace.subsume import sentence_subclass
        space = build_space(tag_corpus([
            "researchers publish papers.",
            "in China, researchers of ICT publish many papers about neural networks.",
        ]))
        s_prime = space.sentences[1][0]
        s = space.sentences[2][0]
        assert sentence_subclass(s, s_prime, space.edge_set)
        question = q("do researchers publish papers?")
        judgment = match_answer(question, s_prime, space.edge_set)
        assert judgment.accepted
        assert all(outcome == "same" for outcome in judgment.matched.values())
        candidates = candidate_search(space, question)
        assert s_prime.sentence_id in candidates
        assert s.sentence_id in candidates
        # and s is itself an accepted answer
        assert match_answer(question, s, space.edge_set).accepted

    def test_irrelevant_questions_leave_answers_unconstrained(self):
        """Irrelevant questions may have relevant or irrelevant answers;
        nothing to reject, only that both outcomes are representable."""
        q1 = q("what does LexRank build?")
        q2 = q("where does the researcher work?")
        assert not question_relevant(q1, q2)
        s1 = parsed("LexRank builds an extract")
        s2 = parsed("the researcher works in China")
        assert sentence_relevant(s1, s1)
        assert not sentence_relevant(s1, s2)


class TestDefinitionRetrieval:
    def test_six_copular_definitions_all_retrieved(self):
        texts = [
            "Automatic text summarization is a well-established subfield of "
            "natural language processing, which is relevant for a number of scenarios.",
            "Automatic text summarization is an essential tool in this era of "
            "information overloading.",
            "Automatic text summarization is the process of abstracting large "
            "texts into a few paragraphs while preserving its information content.",
            "Automatic text summarization is a seminal problem in information "
            "retrieval and natural language processing.",
            "Automatic text summarization is one of the widely used applications "
            "in the field of natural language processing (NLP).",
            "Text summarization is the process of selecting the most salient "
            "information in one or more textual documents.",
            "The algorithm ranks sentences.",
            "LexRank builds an extract.",
            "Summarization tools work quickly.",
        ]
        space = build_space(tag_corpus(texts))
        results = answer(space, tag("What is text summarization?"), k=10)
        assert {sid for sid, _ in results} == {1, 2, 3, 4, 5, 6}
        # the exact-subject match outranks the more specific subjects
        assert results[0][0] == 6
        assert results[0][1].matched["subject"] == "same"
