import math

import pytest

from syntaxspace import corpus, evaluation
from syntaxspace.corpus import tag
from syntaxspace.evaluation import (BASELINE_METHODS, BaselineConfig,
                                    BaselineIndex, PRFReport, UnknownMethod,
                                    baseline_rank, content_lemmas,
                                    load_gold_answers, load_gold_relations,
                                    qa_precision, relation_prf, space_closure)
from syntaxspace.space import build_space
from syntaxspace.syntax import (ADVERB, PRONOUN, Adverbial, Clause, Phrase,
                                canonical_key)

from conftest import (SHORT_INPUT, SHORT_QUESTION, adjp, np, pp, tag_corpus,
                      vp)


class TestRelationPRF:
    def test_hand_computed(self):
        gold = {("a", "b", "subject"), ("b", "c", "subject")}
        predicted = {("a", "b", "subject"), ("b", "c", "subject"),
                     ("a", "c", "subject")}
        report = relation_prf(gold, predicted)
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == 1.0
        assert report.f1 == pytest.approx(0.8)

    def test_perfect(self):
        gold = {("a", "b", "subject")}
        report = relation_prf(gold, gold)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_empty_predictions_flagged(self):
        report = relation_prf({("a", "b", "subject")}, set())
        assert report.precision is None
        assert report.recall == 0.0
        assert report.f1 is None
        assert report.line() \
            == "P=undefined R=0.00% F1=undefined (0/0 predicted, 1 gold)"

    def test_empty_gold_flagged(self):
        report = relation_prf(set(), {("a", "b", "subject")})
        assert report.recall is None
        assert report.precision == 0.0
        assert report.line() \
            == "P=0.00% R=undefined F1=undefined (0/1 predicted, 0 gold)"

    def test_line_of_a_report_built_directly(self):
        # undefined is read from the value None, not from a second field
        assert PRFReport(0, 0, 2, None, 0.0, None).line() \
            == "P=undefined R=0.00% F1=undefined (0/0 predicted, 2 gold)"

    def test_f1_zero_when_no_overlap(self):
        report = relation_prf({("a", "b", "s")}, {("c", "d", "s")})
        assert report.f1 == 0.0

    def test_bounds_and_max(self):
        gold = {("a", "b", "s"), ("b", "c", "s"), ("c", "d", "s")}
        predicted = {("a", "b", "s"), ("x", "y", "s")}
        report = relation_prf(gold, predicted)
        for value in (report.precision, report.recall, report.f1):
            assert 0.0 <= value <= 1.0
        assert report.f1 <= max(report.precision, report.recall)

    def test_space_closure_includes_derived_pairs(self, short_space):
        closure = space_closure(short_space)
        assert ("np(lexrank|)", "np(algorithm|unsupervised)", "subject") in closure


class TestQAPrecision:
    def test_all_correct(self):
        gold = {"q": {1, 2, 3}}
        assert qa_precision(gold, {"q": [1, 2, 3]})[0] == 1.0

    def test_four_of_five(self):
        gold = {"q": {1, 2, 3, 4}}
        precision, correct, returned = qa_precision(gold, {"q": [1, 2, 3, 4, 9]})
        assert precision == pytest.approx(0.8)
        assert (correct, returned) == (4, 5)

    def test_micro_average(self):
        gold = {"q1": {1, 2, 3}, "q2": {7}}
        system = {"q1": [1, 2, 3, 9], "q2": [7, 8]}
        precision, correct, returned = qa_precision(gold, system)
        assert (correct, returned) == (4, 6)
        assert precision == pytest.approx(4 / 6)

    def test_k_truncation(self):
        gold = {"q": {1}}
        precision, _, returned = qa_precision(gold, {"q": [2, 3, 1]}, k=2)
        assert returned == 2
        assert precision == 0.0

    def test_empty_returns_flagged(self):
        precision, _, _ = qa_precision({"q": {1}}, {"q": []})
        assert precision is None

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_rejected(self, k):
        # a cut at k = -1 would score 2 of the 3 returned answers
        with pytest.raises(ValueError):
            qa_precision({"q": {1, 2, 3}}, {"q": [1, 2, 3]}, k=k)


@pytest.fixture(scope="module")
def short_lemmas():
    tagged = tag_corpus(SHORT_INPUT)
    return [(s.sentence_id, s.lemmas()) for s in tagged]


@pytest.fixture(scope="module")
def question_lemmas():
    return tag(SHORT_QUESTION).lemmas()


class TestBaselines:

    @pytest.mark.parametrize("method", ["common_words", "jaccard",
                                        "tfidf_cosine", "unigram_lm", "bm25"])
    def test_bag_of_words_top_rank_sentence3(self, method, short_lemmas,
                                             question_lemmas):
        ranked = baseline_rank(method, question_lemmas, short_lemmas)
        assert ranked[0] == 3

    @pytest.mark.parametrize("method", ["gst", "lcs"])
    def test_sequence_methods_top_rank_sentence4(self, method, short_lemmas,
                                                 question_lemmas):
        ranked = baseline_rank(method, question_lemmas, short_lemmas)
        assert ranked[0] == 4

    @pytest.mark.parametrize("method", BASELINE_METHODS)
    def test_identical_sentence_ranks_first(self, method, short_lemmas):
        question = tag(SHORT_INPUT[3]).lemmas()
        ranked = baseline_rank(method, question, short_lemmas)
        assert ranked[0] == 4

    def test_unknown_method(self, short_lemmas, question_lemmas):
        with pytest.raises(UnknownMethod):
            baseline_rank("embedding_cosine", question_lemmas, short_lemmas)

    @pytest.mark.parametrize("method", ["bm25", "tfidf_cosine"])
    def test_reorder_invariance(self, method, short_lemmas, question_lemmas):
        reordered = list(reversed(short_lemmas))
        a = baseline_rank(method, question_lemmas, short_lemmas)
        b = baseline_rank(method, question_lemmas, reordered)
        assert a == b

    def test_tie_break_lower_id_first(self):
        sentences = [(2, ["alpha", "beta"]), (1, ["alpha", "beta"])]
        ranked = baseline_rank("common_words", ["alpha"], sentences)
        assert ranked == [1, 2]

    def test_nan_scores_keep_the_order_of_the_pairs(self):
        # k1 = inf scores inf / inf = NaN, which orders with nothing: the
        # sorted (score, id) pairs keep such documents in corpus order
        sentences = [(2, ["alpha"]), (1, ["alpha"]), (3, ["beta"])]
        config = BaselineConfig(bm25_k1=math.inf)
        assert baseline_rank("bm25", ["alpha"], sentences, config) == [2, 1, 3]

    def test_content_lemma_filter(self):
        lemmas = tag("How does unsupervised algorithm build an extract?").lemmas()
        assert content_lemmas(lemmas) == ["unsupervised", "algorithm", "build",
                                          "extract"]

    def test_gst_min_tile(self):
        q = ["alpha", "beta", "gamma"]
        sentences = [(1, ["alpha", "beta", "gamma"]), (2, ["alpha", "delta", "beta"])]
        config = BaselineConfig(gst_min_tile=2)
        ranked = baseline_rank("gst", q, sentences, config)
        assert ranked == [1, 2]

    def test_lcs_runs_only_on_documents_sharing_a_lemma(self, monkeypatch):
        calls = []
        lcs = evaluation._lcs
        monkeypatch.setattr(evaluation, "_lcs",
                            lambda q, d: calls.append(d) or lcs(q, d))
        sentences = [(i, [f"word{i}", "the", "graph"]) for i in range(500)]
        sentences += [(500, ["rank", "graph", "sentence"]),
                      (501, ["the", "rank", "model"])]
        index = BaselineIndex(sentences)
        ranked = baseline_rank("lcs", ["rank", "sentence"], index)
        assert ranked[:2] == [500, 501]
        # each document is read as its lemmas that occur in the question
        assert calls == [["rank", "sentence"], ["rank"]]

    # 500 documents that share nothing with QUESTION, then 2 that share a
    # lemma of it; WORD_7 shares only document 7 and document 501
    WORK_CORPUS = [(i, [f"word{i}", "the", "tree"]) for i in range(500)] + [
        (500, ["the", "rank", "graph"]), (501, ["a", "sentence", "model"])]
    QUESTION = ["the", "rank", "sentence"]
    WORD_7 = ["word7", "of", "model"]

    @staticmethod
    def _filtered(monkeypatch) -> list:
        """The lemma lists `content_lemmas` is called on, from now on."""
        calls = []
        filter_ = evaluation.content_lemmas
        monkeypatch.setattr(evaluation, "content_lemmas",
                            lambda lemmas: calls.append(lemmas)
                            or filter_(lemmas))
        return calls

    @pytest.mark.parametrize("method", BASELINE_METHODS)
    def test_list_filters_only_the_documents_sharing_a_lemma(
            self, method, monkeypatch):
        calls = self._filtered(monkeypatch)
        baseline_rank(method, self.QUESTION, self.WORK_CORPUS)
        docs = [d for _, d in self.WORK_CORPUS]
        if method == "unigram_lm":  # scores every document by its length
            assert calls == [self.QUESTION] + docs
        else:
            assert calls == [self.QUESTION] + docs[500:]

    def test_prebuilt_index_filters_each_document_once(self, monkeypatch):
        calls = self._filtered(monkeypatch)
        index = BaselineIndex(self.WORK_CORPUS)
        assert calls == []
        docs = [d for _, d in self.WORK_CORPUS]
        for method in BASELINE_METHODS:
            for question in (self.QUESTION, self.WORD_7):
                before = len(calls)
                baseline_rank(method, question, index)
                assert calls[before] is question
                if method == "common_words":
                    assert calls[before + 1:] == (
                        docs[500:] if question is self.QUESTION else [docs[7]])
        read = [d for d in calls if d is not self.QUESTION
                and d is not self.WORD_7]
        assert sorted(map(id, read)) == sorted(map(id, docs))

    def test_sharing_is_kept_for_the_last_question(self):
        index = BaselineIndex(self.WORK_CORPUS)
        shared = index.sharing(["rank", "sentence"])
        assert shared == (500, 501)
        # each method of one question asks again: one pass serves them all
        assert index.sharing(["sentence", "rank", "rank"]) is shared
        assert index.sharing(["model"]) == (501,)
        assert index.sharing(["rank", "sentence"]) == shared

    def test_one_shot_documents_are_read_in_full(self, short_lemmas,
                                                 question_lemmas):
        index = BaselineIndex((sid, iter(d)) for sid, d in short_lemmas)
        for method in BASELINE_METHODS:  # each method rereads the documents
            assert baseline_rank(method, question_lemmas, index) == \
                baseline_rank(method, question_lemmas, short_lemmas)
        assert index.docs == BaselineIndex(short_lemmas).docs

    def test_content_memo_stays_within_its_bound(self, monkeypatch):
        memo = evaluation._ContentMemo()
        monkeypatch.setattr(evaluation, "_is_content", memo)
        lemmas = [f"lemma{i}" for i in range((1 << 16) + 100)]
        assert content_lemmas(lemmas) == lemmas
        assert len(memo) <= 1 << 16
        while len(memo) < 1 << 16:
            content_lemmas([f"filler{len(memo)}"])
        # "the" arrives at a full memo and empties it
        assert content_lemmas(["the", "graph", "--", "e.g", "the"]) == [
            "graph", "e.g"]
        assert memo == {"the": False, "graph": True, "--": False, "e.g": True}


class TestGoldLoaders:
    def test_relations(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("np(a|)\tnp(b|)\tsubject\n# comment\nvp(c|)\tvp(d|)\taction\n")
        assert load_gold_relations(path) == {
            ("np(a|)", "np(b|)", "subject"), ("vp(c|)", "vp(d|)", "action")}

    def test_relations_take_every_kind_of_key(self, tmp_path):
        # each kind of key `canonical_key` writes, below a plainer one
        keys = [canonical_key(e) for e in (
            np("model", "neural"), vp("run", "quickly"), adjp("fast", "very"),
            Phrase(ADVERB, "quickly", ("very",)),
            Phrase(PRONOUN, "it", ("all",)), pp("in", "model", "neural"),
            Adverbial("time", pp("in", "model", "neural")),
            Clause("to", None, vp("run", "quickly"), np("model")))]
        rows = {(key, key.split("|")[0] + "|)", "object") for key in keys}
        path = tmp_path / "gold.tsv"
        path.write_text("".join("\t".join(row) + "\n" for row in rows))
        assert load_gold_relations(path) == rows

    @pytest.mark.parametrize("text, line, message", [
        ("np(a|)\tnp(b|)\tsubjects\n", 1,
         "'subjects' is not a dimension (subject, action, object, adverbial)"),
        ("#doc short\nLexRank\tlexrank\tNNP\n", 2,
         "'NNP' is not a dimension (subject, action, object, adverbial)"),
        ("np(a|)\tnp(b|)\tsubject\n\tnp(b|)\tsubject\n", 2,
         "empty child or parent"),
        ("np(a|)\t\tobject\n", 1, "empty child or parent"),
        ("lexrank\talgorithm\tsubject\n", 1,
         "'lexrank' is not a canonical key such as np(head|mods)"),
        ("np(a|)\tnp(b|\tsubject\n", 1,
         "'np(b|' is not a canonical key such as np(head|mods)"),
        ("np(lexrank)\tnp(algorithm|unsupervised)\tsubject\n", 1,
         "'np(lexrank)' is not a canonical key such as np(head|mods)"),
        ("np(a|)\tnp(a|)\tsubject\n", 1, "child equals parent"),
        ("# pairs\nvp(c|)\tvp(d|)\taction\nvp(c|)\tvp(c|)\taction\n", 3,
         "child equals parent"),
    ])
    def test_malformed_relations(self, tmp_path, text, line, message):
        path = tmp_path / "gold.tsv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_gold_relations(path)
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_answers(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_text("Q: What is X?\nA: 3\nA: 5\nQ: Who did Y?\nA: 2\n")
        gold = load_gold_answers(path)
        assert gold == {"What is X?": {3, 5}, "Who did Y?": {2}}

    @pytest.mark.parametrize("text, line, message", [
        ("A: 3\nQ: What is X?\nA: 5\n", 1, "answer before the first question"),
        ("# gold\n\nA: 3\n", 3, "answer before the first question"),
        ("Q: What is X?\nA: 3\nQ:\nA: 5\n", 3, "empty question"),
        ("Q:   \n", 1, "empty question"),
    ])
    def test_malformed_answers(self, tmp_path, text, line, message):
        path = tmp_path / "gold.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_gold_answers(path)
        assert str(info.value) == f"{path}:{line}: {message}"
