from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from syntaxspace import corpus, subsume
from syntaxspace.corpus import tag
from syntaxspace.subsume import (EQUAL, KindMismatch, RELATED, SUBCLASS,
                                 SUPERCLASS, SYNTACTIC, UNRELATED,
                                 SynonymTable,
                                 at_or_below, clause_subclass,
                                 compare_elements, element_subclass,
                                 harvest_edges, phrase_subclass,
                                 prep_phrase_subclass, question_subclass,
                                 scan_syntactic_patterns, sentence_subclass,
                                 verb_phrase_subclass)
from syntaxspace.syntax import (Adverbial, Clause, SentenceSyntax,
                                canonical_key, parse_sentence)
from syntaxspace.qa import parse_question, sentence_relevant
from syntaxspace.space import build_space

from conftest import adjp, advp, np, pp, tag_corpus, vp


def parse(text, sid=1):
    return parse_sentence(corpus.normalize_voice(tag(text, sentence_id=sid)))


def harvest(*texts):
    triples = []
    for sid, text in enumerate(texts, start=1):
        tagged = corpus.normalize_voice(tag(text, sentence_id=sid))
        triples.extend(scan_syntactic_patterns(tagged, parse_sentence(tagged)))
    return harvest_edges(triples)


class TestPhraseSubclass:
    def test_worked_example(self):
        assert phrase_subclass(np("algorithm", "graph-based", "unsupervised"),
                               np("algorithm", "unsupervised"))

    def test_reversal_false(self):
        assert not phrase_subclass(np("algorithm", "unsupervised"),
                                   np("algorithm", "graph-based", "unsupervised"))

    def test_equal_phrases_not_subclass(self):
        phrase = np("algorithm", "fast")
        assert not phrase_subclass(phrase, phrase)

    def test_disjoint_modifiers(self):
        assert not phrase_subclass(np("algorithm", "fast"),
                                   np("algorithm", "summarization"))

    def test_different_heads(self):
        assert not phrase_subclass(np("algorithm"), np("extract"))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            phrase_subclass(np("algorithm"), vp("use"))

    @pytest.mark.parametrize("p1, p2", [
        (np("algorithm"), "algorithm"),  # not a phrase
        (pp("in", "china"), pp("in", "china")),  # no modifier rule
    ])
    def test_kind_mismatch_on_other_kinds(self, p1, p2):
        with pytest.raises(KindMismatch):
            phrase_subclass(p1, p2)

    def test_adjective_and_adverb_phrases(self):
        assert phrase_subclass(adjp("beautiful", "very"), adjp("beautiful"))
        assert not phrase_subclass(advp("quickly"), advp("quickly"))

    def test_repeated_modifiers_count(self):
        """More modifiers is not enough: the smaller side's multiset must be
        contained, each lemma as often as it occurs there."""
        assert phrase_subclass(np("dog", "big", "big"), np("dog", "big"))
        assert not phrase_subclass(np("dog", "big", "small"),
                                   np("dog", "big", "big"))
        assert not phrase_subclass(np("dog", "big", "small", "red"),
                                   np("dog", "big", "big"))
        assert not phrase_subclass(np("dog", "big"), np("dog", "big", "big"))
        v1, v2 = vp("go", "quickly", "slowly"), vp("go", "slowly", "quickly")
        assert element_subclass(v1, v2) == EQUAL
        assert element_subclass(vp("go", "slowly", "slowly"), v1) == RELATED


class TestVerbPhraseSubclass:
    def test_worked_example(self):
        v1 = (vp("use", "automatically"), np("algorithm", "graph-based", "unsupervised"))
        v2 = (vp("use"), np("algorithm", "graph-based"))
        assert verb_phrase_subclass(v1, v2)

    def test_self_false(self):
        v = (vp("use"), np("lexrank"))
        assert not verb_phrase_subclass(v, v)

    def test_different_heads_false(self):
        assert not verb_phrase_subclass((vp("use"), np("lexrank")),
                                        (vp("run"), np("lexrank")))

    def test_bare_verb_phrases(self):
        assert verb_phrase_subclass(vp("go", "slowly"), vp("go"))
        assert not verb_phrase_subclass(vp("go"), vp("go", "slowly"))

    @pytest.mark.parametrize("v", [np("lexrank"), Clause(
        "that", np("team"), vp("use"), None, ())])  # a clause with a subject
    def test_kind_mismatch(self, v):
        with pytest.raises(KindMismatch):
            verb_phrase_subclass(v, vp("use"))


class TestPrepPhraseSubclass:
    def test_worked_example(self):
        assert prep_phrase_subclass(
            pp("through", "algorithm", "graph-based", "unsupervised"),
            pp("through", "algorithm", "graph-based"))

    def test_integrated_with_harvested_edge(self):
        edges = harvest(
            "LexRank is an unsupervised algorithm due to no training data is required.")
        assert prep_phrase_subclass(pp("based on", "lexrank"),
                                    pp("based on", "algorithm", "unsupervised"),
                                    edges)

    def test_different_prepositions(self):
        assert not prep_phrase_subclass(pp("in", "china"), pp("on", "china"))

    def test_equal_false(self):
        phrase = pp("in", "china")
        assert not prep_phrase_subclass(phrase, phrase)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            prep_phrase_subclass(pp("in", "china"), np("china"))


class TestClauseSubclass:
    def c1(self):
        return Clause("what", np("algorithm", "graph-based", "unsupervised"),
                      vp("do", "can"), None, ())

    def c2(self):
        return Clause("what", np("algorithm", "unsupervised"),
                      vp("do", "can"), None, ())

    def test_worked_example(self):
        assert clause_subclass(self.c1(), self.c2())

    def test_lead_word_mismatch(self):
        other = Clause("how", np("algorithm", "unsupervised"), vp("do", "can"),
                       None, ())
        assert not clause_subclass(self.c1(), other)

    def test_self_false(self):
        assert not clause_subclass(self.c1(), self.c1())

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            clause_subclass(self.c1(), np("algorithm"))


class TestSentenceSubclass:
    def test_worked_example(self):
        child = parse("in China, researchers of ICT have published many papers about neural networks")
        parent = parse("researchers have published many papers")
        assert sentence_subclass(child, parent)
        assert not sentence_subclass(parent, child)

    def test_self_false(self):
        sentence = parse("researchers have published many papers")
        assert not sentence_subclass(sentence, sentence)

    def test_extra_adverbial_alone_is_strict(self):
        child = parse("LexRank builds an extract by selecting top ranked sentences.")
        parent = parse("LexRank builds an extract.")
        assert sentence_subclass(child, parent)
        assert not sentence_subclass(parent, child)


class TestQuestionSubclass:
    def q(self, text):
        return parse_question(tag(text))

    def test_derived_example(self):
        q1 = self.q("what does graph-based unsupervised algorithm select?")
        q2 = self.q("what does unsupervised algorithm select?")
        assert question_subclass(q1, q2)
        assert not question_subclass(q2, q1)

    def test_interrogative_mismatch(self):
        q1 = self.q("what does unsupervised algorithm select?")
        q2 = self.q("how does unsupervised algorithm select?")
        assert not question_subclass(q1, q2)

    def test_self_false(self):
        q = self.q("what does unsupervised algorithm select?")
        assert not question_subclass(q, q)

    def test_empty_object_group_is_not_below_no_group(self):
        # the dangling "to" leaves an object group with no element in it
        q1 = self.q("What does the big network send to?")
        q2 = self.q("What does the network send?")
        assert q1.object is not None and q2.object is None
        assert not question_subclass(q1, q2)


class TestScanPatterns:
    def test_is_a_pattern(self):
        edges = harvest(
            "LexRank is an unsupervised algorithm due to no training data is required.")
        assert ("np(lexrank|)", "np(algorithm|unsupervised)") in edges.edges

    def test_such_as(self):
        edges = harvest("algorithms such as LexRank build extracts")
        assert ("np(lexrank|)", "np(algorithm|)") in edges.edges

    def test_including(self):
        edges = harvest("the corpus contains algorithms including LexRank")
        assert ("np(lexrank|)", "np(algorithm|)") in edges.edges

    def test_pronoun_list_child_is_an_np_edge(self):
        # only the infinitive pattern yields verbs: a pronoun child stays np
        space = build_space(tag_corpus(["Researchers such as it build models.",
                                        "It builds models."]))
        pair = ("prn(it|)", "np(researcher|)")
        assert space.edge_set.edges[pair] == 1
        assert space.dimensions["subject"].edges[pair] == (SYNTACTIC, 1)
        assert pair not in space.dimensions["action"].edges

    def test_edge_set_yields_its_kept_pairs_with_first_evidence(self):
        edges = harvest("a cat is an animal", "a dog is an animal",
                        "a cat is an animal", "an animal is a dog")
        cat = ("np(cat|)", "np(animal|)")
        assert list(edges) == [cat]
        assert edges.edges == {cat: 1}
        assert edges.dropped == [("np(animal|)", "np(dog|)")]

    def test_such_as_comma_list(self):
        edges = harvest(
            "Tools such as LexRank, TextRank and SumBasic build summaries.")
        assert sorted(edges.edges) == [("np(lexrank|)", "np(tool|)"),
                                       ("np(sumbasic|)", "np(tool|)"),
                                       ("np(textrank|)", "np(tool|)")]

    def test_such_as_parent_after_a_word_that_starts_no_phrase(self):
        # "all" (read as a noun) heads no phrase that ends before "such"
        edges = harvest("Researchers build all the tools such as LexRank.")
        assert sorted(edges.edges) == [("np(lexrank|)", "np(tool|)")]

    @pytest.mark.parametrize("text", [
        "Researchers build models, such as LexRank.",  # no parent before
        "Researchers build tools such as these.",  # no child after
        "A dog is an animal for children.",  # a copula with an indirect object
    ])
    def test_incomplete_pattern_harvests_nothing(self, text):
        edges = harvest(text)
        assert len(edges) == 0
        assert edges.dropped == []

    def test_and_other(self):
        edges = harvest("LexRank and other algorithms build extracts")
        assert ("np(lexrank|)", "np(algorithm|)") in edges.edges

    def test_are_that_pattern(self):
        edges = harvest("watchdogs are dogs that guard houses")
        assert ("np(watchdog|)", "np(dog|)") in edges.edges

    def test_example_sentence_with_parenthetical(self):
        edges = harvest("healthcare question answering (HQA) is a challenging task")
        assert ("np(answer|healthcare question)", "np(task|challenging)") in edges.edges

    def test_no_match_is_empty(self):
        edges = harvest("LexRank builds an extract by selecting top ranked sentences.")
        assert len(edges) == 0

    def test_negated_copula_not_harvested(self):
        edges = harvest("LexRank is not an unsupervised algorithm")
        assert len(edges) == 0

    def test_definite_article_not_harvested(self):
        edges = harvest("Text summarization is the process of selecting information")
        assert len(edges) == 0

    def test_conflicting_directions_dropped(self):
        edges = harvest("a cat is an animal", "an animal is a cat")
        assert len(edges) == 0
        assert edges.dropped

    def test_third_sighting_does_not_restore_a_conflict(self):
        edges = harvest("a cat is an animal", "an animal is a cat",
                        "a cat is an animal")
        assert len(edges) == 0
        assert edges.dropped == [("np(animal|)", "np(cat|)")]

    def test_conflict_holds_across_the_parts_of_a_sentence(self):
        # each part of the second sentence scans its list pattern again
        space = build_space(tag_corpus([
            "The algorithm is a LexRank.",
            "Algorithms such as LexRank rank sentences, and the team "
            "builds models."]))
        assert len(space.sentences[2]) == 2
        assert len(space.edge_set) == 0
        assert space.edge_set.dropped == [("np(lexrank|)", "np(algorithm|)")]

    def test_infinitive_vp_pattern(self):
        edges = harvest("to sprint is to run")
        assert ("vp(sprint|)", "vp(run|)") in edges.edges

    @pytest.mark.parametrize("text", [
        "Dogs are dogs.", "A dog is a dog.", "Animals such as animals run.",
        "To run is to run.",
    ])
    def test_self_loop_adds_no_edge_and_no_conflict(self, text):
        tagged = corpus.normalize_voice(tag(text, sentence_id=1))
        [(child, parent, _)] = scan_syntactic_patterns(
            tagged, parse_sentence(tagged))
        assert canonical_key(child) == canonical_key(parent)
        edges = harvest(text)
        assert len(edges) == 0
        assert edges.dropped == []


class TestElementSubclass:
    def test_with_harvested_edge(self):
        edges = harvest(
            "LexRank is an unsupervised algorithm due to no training data is required.")
        assert element_subclass(np("lexrank"), np("algorithm", "unsupervised"),
                                edges) == SUBCLASS
        assert element_subclass(np("algorithm", "unsupervised"), np("lexrank"),
                                edges) == SUPERCLASS

    def test_chained_edge_and_modifier(self):
        edges = harvest(
            "LexRank is an unsupervised algorithm due to no training data is required.")
        # lexrank -> unsupervised algorithm -> algorithm (modifier hop)
        assert element_subclass(np("lexrank"), np("algorithm"), edges) == SUBCLASS
        # graph-based lexrank -> lexrank (modifier) -> unsupervised algorithm
        assert element_subclass(np("lexrank", "graph-based"),
                                np("algorithm", "unsupervised"), edges) == SUBCLASS

    def test_equal_on_identical_keys(self):
        e = np("algorithm", "unsupervised")
        assert element_subclass(e, e) == EQUAL

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            element_subclass(np("algorithm"), vp("use", "algorithm"))

    def test_related_same_head(self):
        assert element_subclass(np("algorithm", "fast"),
                                np("algorithm", "slow")) == RELATED

    def test_unrelated(self):
        assert element_subclass(np("algorithm"), np("extract")) == UNRELATED

    def test_synonym_heads_equal_for_verbs(self):
        syn = SynonymTable([("build", "construct")])
        assert element_subclass(vp("build"), vp("construct"), None, syn) == EQUAL
        assert element_subclass(vp("build"), vp("construct")) == UNRELATED


class TestMissingParts:
    PARTS = [np("algorithm"), vp("build"), pp("in", "model"),
             Clause("that", np("system"), vp("run"), None, ()),
             Adverbial("place", pp("in", "model"))]

    def test_missing_part_equals_missing_part(self):
        assert at_or_below(None, None) == EQUAL

    @pytest.mark.parametrize("part", PARTS)
    def test_missing_part_against_a_part_is_unrelated(self, part):
        assert at_or_below(None, part) is None
        assert at_or_below(part, None) is None

    def test_element_relations_still_refuse_missing_parts(self):
        with pytest.raises(KindMismatch):
            element_subclass(None, None)
        assert compare_elements(None, None) == UNRELATED

    def test_sentences_lacking_one_part_are_not_relevant_by_it(self):
        s1 = SentenceSyntax(1, np("algorithm"), vp("build"), None, ())
        s2 = SentenceSyntax(2, np("extract"), vp("rank"), None, ())
        assert not sentence_relevant(s1, s2)


class TestSynonymTable:
    def test_symmetry_enforced(self):
        syn = SynonymTable([("build", "construct")])
        assert syn.related("build", "construct")
        assert syn.related("construct", "build")

    def test_load(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("build\tconstruct\n# comment\nstore\tkeep\n")
        syn = SynonymTable.load(path)
        assert syn.related("keep", "store")


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

LEMMAS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
          "theta", "iota", "kappa"]

phrases = st.builds(
    lambda head, pre, post: np(head, *pre).__class__(
        "noun", head, tuple(pre), tuple(post)),
    head=st.sampled_from(LEMMAS[:3]),
    pre=st.lists(st.sampled_from(LEMMAS), max_size=3),
    post=st.lists(st.sampled_from(LEMMAS), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(phrases)
def test_irreflexive(p):
    assert element_subclass(p, p) != SUBCLASS


@settings(max_examples=200, deadline=None)
@given(phrases, phrases)
def test_antisymmetric(p1, p2):
    try:
        both = phrase_subclass(p1, p2) and phrase_subclass(p2, p1)
    except KindMismatch:
        return
    assert not both


@settings(max_examples=300, deadline=None)
@given(phrases, phrases, phrases)
def test_transitive(p1, p2, p3):
    if phrase_subclass(p1, p2) and phrase_subclass(p2, p3):
        assert phrase_subclass(p1, p3)


@settings(max_examples=200, deadline=None)
@given(phrases, phrases, st.sampled_from(["in", "on", "through", "with"]))
def test_monotone_composition_rule3(p1, p2, prep):
    """np1 below np2 lifts to (prep, np1) below (prep, np2)."""
    if phrase_subclass(p1, p2):
        lifted1 = pp(prep, p1.head, *p1.modifiers())
        lifted2 = pp(prep, p2.head, *p2.modifiers())
        assert prep_phrase_subclass(lifted1, lifted2)


@settings(max_examples=300, deadline=None)
@given(phrases, phrases)
def test_brute_force_oracle_equivalence(p1, p2):
    """phrase_subclass agrees with a direct evaluation of the set
    conditions: equal heads and proper multiset inclusion of modifiers."""
    got = phrase_subclass(p1, p2)
    m1 = Counter(p1.pre + p1.post)
    m2 = Counter(p2.pre + p2.post)
    expected = (p1.head == p2.head and m1 != m2
                and all(m1[k] >= v for k, v in m2.items()))
    assert got == expected
