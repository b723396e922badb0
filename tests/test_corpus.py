import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from syntaxspace import corpus
from syntaxspace import lexicon as lx
from syntaxspace.corpus import (MalformedLine, load_pretagged, normalize_voice,
                                parse_pretagged, serialize_pretagged,
                                split_sentences, tag)

from conftest import UNICODE_SPACES


class TestSplitSentences:
    def test_two_sentences(self):
        text = "LexRank builds an extract. LexRank is an unsupervised algorithm."
        assert split_sentences(text) == [
            "LexRank builds an extract.",
            "LexRank is an unsupervised algorithm.",
        ]

    def test_empty_input(self):
        assert split_sentences("") == []
        assert split_sentences("   \n ") == []

    def test_abbreviation_not_boundary(self):
        out = split_sentences("See Fig. 3 for details. It works.")
        assert out == ["See Fig. 3 for details.", "It works."]

    def test_more_abbreviations(self):
        out = split_sentences("Methods, e.g. LexRank, work. J. Smith et al. agree. Done.")
        assert len(out) == 3

    def test_question_and_exclamation(self):
        out = split_sentences("Does it work? It works! Good.")
        assert out == ["Does it work?", "It works!", "Good."]

    def test_long_document_splits_in_linear_time(self):
        text = " ".join(f"Method {i} follows e.g. J. R. Smith et al. in "
                        f"Fig. {i % 9 + 1}. It uses T. Lee's data."
                        for i in range(1000))
        start = time.perf_counter()
        out = split_sentences(text)
        elapsed = time.perf_counter() - start
        assert len(out) == 2000
        assert out[0] == "Method 0 follows e.g. J. R. Smith et al. in Fig. 1."
        assert elapsed < 2.0


class TestTagger:
    def test_short_sentence_tags(self):
        tagged = tag("LexRank builds an extract")
        assert [t.pos for t in tagged.tokens] == ["NNP", "VBZ", "DT", "NN"]
        assert [t.lemma for t in tagged.tokens] == ["lexrank", "build", "an", "extract"]

    def test_plural_noun_lemma(self):
        tok = tag("algorithms").tokens[0]
        assert tok.lemma == "algorithm"
        assert tok.pos == "NNS"

    def test_modal(self):
        assert tag("can").tokens[0].pos == "MD"

    @pytest.mark.parametrize("text", ["The team can test models.",
                                      "The team does test models."])
    def test_noun_and_verb_reads_as_verb_after_an_auxiliary(self, text):
        # "test" is a lexicon noun and verb: a modal or an auxiliary
        # before it gives the verb reading
        tags = {t.surface: t.pos for t in tag(text).tokens}
        assert tags["test"] == "VB"

    @pytest.mark.parametrize("word, lemma, pos", [
        ("whose", "whose", "WP$"),
        ("wrote", "write", "VBD"),  # irregular past
        ("addes", "add", "VBZ"),  # an -es form that is not `third_singular`
        ("applied", "apply", "VBN"),
        ("corpora", "corpus", "NNS"),  # irregular plural
    ])
    def test_word_readings(self, word, lemma, pos):
        tok = tag(word).tokens[0]
        assert (tok.lemma, tok.pos) == (lemma, pos)

    @pytest.mark.parametrize("text, pos", [("Researchers test models.", "VBP"),
                                           ("The team tests models.", "VBZ")])
    def test_noun_and_verb_after_a_noun_is_a_verb(self, text, pos):
        # "test" is a lexicon noun and verb: a base form after a plural
        # noun agrees with it, an -s form after any noun is VBZ
        tags = [t.pos for t in tag(text).tokens]
        assert tags[-3:] == [pos, "NNS", "."]

    def test_third_singular_of_the_auxiliaries(self):
        assert [lx.third_singular(v) for v in ("be", "have", "do")] \
            == ["is", "has", "does"]

    def test_unknown_word_suffixes(self):
        tags = {t.surface: t.pos for t in tag("zorbing zorbed zorbly zorbness").tokens}
        assert tags["zorbing"] == "VBG"
        assert tags["zorbed"] == "VBN"
        assert tags["zorbly"] == "RB"
        assert tags["zorbness"] == "NN"

    def test_deterministic(self):
        text = "The results show that the extract can be built well."
        first = [(t.surface, t.lemma, t.pos) for t in tag(text).tokens]
        second = [(t.surface, t.lemma, t.pos) for t in tag(text).tokens]
        assert first == second

    @pytest.mark.parametrize("copies", [20, 200])
    def test_each_word_form_is_read_once(self, monkeypatch, copies):
        sentence = "Models train models quickly and researchers train models."
        reads = []
        read = corpus._open_class_reading
        monkeypatch.setattr(corpus, "_open_class_reading",
                            lambda lower: reads.append(lower) or read(lower))
        corpus._tag_chunk.cache_clear()
        corpus._tag_word.cache_clear()
        corpus._is_abbreviation.cache_clear()
        sentences = corpus.ingest_text(" ".join([sentence] * copies))
        assert len(sentences) == copies
        # one read per distinct chunk: "models." holds "models" and "."
        assert corpus._tag_chunk.cache_info().misses == 7
        # one read per (word, first-or-later) pair: "and" and "." are
        # closed-class; a chunk reads "Models" as later, and the sentence's
        # first token is read again as first
        assert sorted(reads) == ["models", "models", "models", "quickly",
                                 "researchers", "train"]
        assert corpus._tag_word.cache_info().misses == 8
        # every boundary's dot follows "models"
        assert corpus._is_abbreviation.cache_info().misses == 1

    def test_each_reading_is_one_token(self):
        # a word form read alike is one shared Token, within a sentence and
        # across sentences, and so is a token the fixups retag
        first = tag("Researchers test models and researchers test models.")
        second = tag("Researchers test models.")
        assert first.tokens[2] is first.tokens[6] is second.tokens[2]
        assert first.tokens[1].pos == "VBP"  # "test", read NN, then retagged
        assert first.tokens[1] is first.tokens[5] is second.tokens[1]
        assert len({id(t) for t in first.tokens}) == 6

    def test_a_repeated_chunk_is_the_same_tokens(self):
        # "(graphs)," and "rank" are tokenized and tagged once each, and
        # both places of "(graphs)," hold the memo's four Token objects
        corpus._tag_chunk.cache_clear()
        tokens = tag("Models rank (graphs), and teams rank (graphs), "
                     "too.").tokens
        assert corpus._tag_chunk.cache_info()[:2] == (2, 6)  # hits, misses
        chunk = corpus._tag_chunk("(graphs),")
        assert [t.surface for t in chunk] == ["(", "graphs", ")", ","]
        assert all(a is b is c for a, b, c in zip(chunk, tokens[2:6],
                                                  tokens[9:13]))

    @pytest.mark.parametrize("text", ["* Zorbing trains.",
                                      "\u2014 Zorbing trains.",
                                      "\u2028* Zorbing trains.",
                                      "*Zorbing trains."])
    def test_first_word_reads_as_first_after_a_token_less_chunk(self, text):
        # a capitalised unknown word reads NNP only after the first token;
        # here the first chunk holds no token, or "*" before the word
        assert tag("The Zorbing trains.").tokens[1].pos == "NNP"
        tokens = tag(text).tokens
        assert tokens == tag("Zorbing trains.").tokens
        assert tokens[0] == ("Zorbing", "zorbing", "VBG")

    def test_threads_share_the_memo(self):
        texts = [f"Zab{i}ing models train Zab{i}ing quickly by Zab{i % 3}ed."
                 for i in range(40)]
        corpus._tag_chunk.cache_clear()
        corpus._tag_word.cache_clear()
        want = [[tuple(t) for t in tag(text).tokens] for text in texts]
        corpus._tag_chunk.cache_clear()
        corpus._tag_word.cache_clear()
        got = [None] * len(texts)

        def work(k):
            for i in range(k, len(texts), 8):
                got[i] = [tuple(t) for t in tag(texts[i]).tokens]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want


class TestPretagged:
    def test_load_four_tokens(self, tmp_path):
        path = tmp_path / "one.tsv"
        path.write_text("#doc d1\nLexRank\tlexrank\tNNP\nbuilds\tbuild\tVBZ\n"
                        "an\tan\tDT\nextract\textract\tNN\n")
        sentences = load_pretagged(path)
        assert len(sentences) == 1
        assert len(sentences[0].tokens) == 4
        assert sentences[0].doc_id == "d1"

    def test_byte_order_mark_is_not_read_as_text(self, tmp_path):
        path = tmp_path / "one.tsv"
        path.write_text("\ufeff#doc d1\nLexRank\tlexrank\tNNP\n",
                        encoding="utf-8")
        sentences = load_pretagged(path)
        assert sentences[0].doc_id == "d1"
        assert sentences[0].tokens[0].surface == "LexRank"

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("word\tword\tXX\n")
        with pytest.raises(MalformedLine):
            load_pretagged(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("word\tword\n")
        with pytest.raises(MalformedLine) as err:
            load_pretagged(path)
        assert err.value.line_number == 1

    def test_each_distinct_line_is_one_token(self):
        first, second = parse_pretagged(
            "#doc d1\nmodels\tmodel\tNNS\nrun\trun\tVBP\n\n"
            "models\tmodel\tNNS\nrun\trun\tVBP\nmodels\tmodel\tNNS\n")
        assert first.tokens[0] is second.tokens[0] is second.tokens[2]
        assert first.tokens[1] is second.tokens[1]
        assert [tuple(t) for t in second.tokens] == [
            ("models", "model", "NNS"), ("run", "run", "VBP"),
            ("models", "model", "NNS")]

    def test_a_repeated_bad_line_is_named_by_its_first_line(self):
        with pytest.raises(MalformedLine) as err:
            parse_pretagged("word\tword\tNN\nword\tword\tXX\n"
                            "word\tword\tNN\nword\tword\tXX\n")
        assert err.value.line_number == 2
        assert "unknown tag 'XX'" in str(err.value)

    @pytest.mark.parametrize("lemma", ["", "two words", " "])
    def test_bad_lemma_rejected(self, lemma):
        with pytest.raises(MalformedLine) as err:
            parse_pretagged(f"#doc d1\nword\tword\tNN\nword\t{lemma}\tNN\n")
        assert err.value.line_number == 3
        assert "bad lemma" in str(err.value)

    @pytest.mark.parametrize("voice", ["bogus", "Active", "passive"])
    def test_unknown_voice_rejected(self, voice):
        with pytest.raises(MalformedLine) as err:
            parse_pretagged(f"#doc d1\n#voice {voice}\nword\tword\tNN\n")
        assert err.value.line_number == 2
        assert "unknown voice" in str(err.value)

    @pytest.mark.parametrize("voice", [corpus.ACTIVE, corpus.PASSIVE_CONVERTED,
                                       corpus.PASSIVE_AGENTLESS])
    def test_each_voice_loads(self, voice):
        sentences = parse_pretagged(f"#voice {voice}\nword\tword\tNN\n")
        assert sentences[0].voice == voice

    def test_round_trip(self):
        text = ("#doc d1\nThe\tthe\tDT\nresults\tresult\tNNS\nshow\tshow\tVBP\n"
                "\n#doc d2\nIt\tit\tPRP\nworks\twork\tVBZ\n")
        sentences = parse_pretagged(text)
        again = parse_pretagged(serialize_pretagged(sentences))
        assert [[(t.surface, t.lemma, t.pos) for t in s.tokens] for s in again] \
            == [[(t.surface, t.lemma, t.pos) for t in s.tokens] for s in sentences]
        assert [s.doc_id for s in again] == ["d1", "d2"]

    def test_voices_round_trip(self):
        sentences = [normalize_voice(tag(text)) for text in (
            "the extract is built by LexRank", "LexRank builds an extract",
            "the extract is built well")]
        text = serialize_pretagged(sentences)
        assert [line for line in text.splitlines()
                if line.startswith("#voice")] \
            == ["#voice passive_converted", "#voice passive_agentless"]
        assert [s.voice for s in parse_pretagged(text)] == [
            corpus.PASSIVE_CONVERTED, corpus.ACTIVE, corpus.PASSIVE_AGENTLESS]


class TestNormalizeVoice:
    def test_agentful_passive_converted(self):
        tagged = tag("the extract is built by LexRank")
        out = normalize_voice(tagged)
        assert out.voice == corpus.PASSIVE_CONVERTED
        assert [t.surface for t in out.tokens] == ["LexRank", "builds", "the", "extract"]
        assert out.tokens[1].lemma == "build"

    def test_active_unchanged(self):
        tagged = tag("LexRank builds an extract")
        out = normalize_voice(tagged)
        assert out.voice == corpus.ACTIVE
        assert [t.surface for t in out.tokens] == [t.surface for t in tagged.tokens]

    def test_agentless_flagged_unchanged(self):
        tagged = tag("the extract is built well")
        out = normalize_voice(tagged)
        assert out.voice == corpus.PASSIVE_AGENTLESS
        assert [t.surface for t in out.tokens] == [t.surface for t in tagged.tokens]

    def test_plural_agent_agreement(self):
        out = normalize_voice(tag("the weight is given by the networks"))
        assert "give" in [t.surface for t in out.tokens]

    def test_past_tense_preserved(self):
        out = normalize_voice(tag("the prize was won by the researcher"))
        assert "won" in [t.surface for t in out.tokens]

    def test_irregular_do_agrees_with_the_agent(self):
        out = normalize_voice(tag("The model is done by the team."))
        assert [t.surface for t in out.tokens] \
            == ["the", "team", "does", "The", "model", "."]
        assert out.tokens[2].lemma == "do"

    def test_trailing_preposition_is_cut_from_the_agent(self):
        out = normalize_voice(tag("The model is built by the team in."))
        assert [t.surface for t in out.tokens] \
            == ["the", "team", "builds", "The", "model", "in", "."]

    def test_agent_without_a_noun_is_agentless(self):
        tagged = tag("The model is built by the large.")
        out = normalize_voice(tagged)
        assert out.voice == corpus.PASSIVE_AGENTLESS
        assert out.tokens == tagged.tokens

    def test_window_without_a_noun_before_it_is_left_alone(self):
        tagged = tag("The big is built by the team.")
        out = normalize_voice(tagged)
        assert out.voice == corpus.ACTIVE
        assert out.tokens == tagged.tokens

    def test_modal_keeps_base_form(self):
        out = normalize_voice(tag("the extract can be built well by unsupervised algorithm"))
        surfaces = [t.surface for t in out.tokens]
        assert surfaces[:5] == ["unsupervised", "algorithm", "can", "build", "the"]

    @pytest.mark.parametrize("text", [
        "the extract is built by LexRank",
        "LexRank builds an extract",
        "the extract is built well",
        "In NLP tasks, a language is represented by a huge general corpus in that language.",
        ", and ".join(["the model was built by the team"] * 12),
        # an agentless window before an agent one, and after it
        "The model was trained, and the summary was generated by the system.",
        "The summary was generated by the team, and the model was trained.",
    ])
    def test_idempotent(self, text):
        once = normalize_voice(tag(text))
        start = 0  # every window left is agentless
        while (window := corpus._passive_window(once.tokens, start)) \
                is not None:
            participle, rewritten = window
            assert rewritten is None
            start = participle + 1
        twice = normalize_voice(once)
        assert [(t.surface, t.pos) for t in twice.tokens] \
            == [(t.surface, t.pos) for t in once.tokens]
        assert twice.voice == once.voice

    @pytest.mark.parametrize("text", [
        "the extract is built by LexRank",
        "the weight is given by the networks",
    ])
    def test_token_multiset_preserved_modulo_rewrite(self, text):
        tagged = tag(text)
        out = normalize_voice(tagged)
        before = sorted(t.lemma for t in tagged.tokens)
        after = sorted(t.lemma for t in out.tokens)
        # "by" is removed and the be-auxiliary dropped; the verb keeps its lemma
        removed = [w for w in before if before.count(w) > after.count(w)]
        assert set(removed) <= {"by", "be"}
        added = [w for w in after if after.count(w) > before.count(w)]
        assert added == []


class TestIngest:
    def test_ingest_splits_and_tags(self):
        text = ("LexRank builds an extract. "
                "The extract is built by LexRank.")
        sentences = corpus.ingest_text(text, "d")
        assert len(sentences) == 2
        # ingest keeps source order; voice conversion happens at build time
        assert all(s.voice == corpus.ACTIVE for s in sentences)
        assert normalize_voice(sentences[1]).voice == corpus.PASSIVE_CONVERTED
        assert [s.sentence_id for s in sentences] == [1, 2]

    def test_document_without_tokens_has_no_sentence(self):
        assert corpus.ingest_text("* * *") == []


# Words, abbreviations and marks, each with an optional straight or curly
# apostrophe or quote on either side, joined by runs of Unicode whitespace.
_INGEST_WORDS = st.sampled_from([
    "The", "system", "model", "ranks", "sentences", "LexRank", "builds",
    "an", "extract", "It", "works", "is", "built", "by", "s", "S", "e.g.",
    "i.e.", "et al.", "Fig.", "J.", "Dr.", "U.S.", "3", "2.5", "*", "-", ".",
    "?", "!", ","])
_QUOTES = st.sampled_from(["", "", "\u2019", "'", '"', "\u201c", "\u201d",
                           "\u2019s", "'s"])
_INGEST_TEXTS = st.lists(st.tuples(
    _QUOTES, _INGEST_WORDS, _QUOTES,
    st.text(alphabet=UNICODE_SPACES, min_size=1, max_size=2),
), max_size=20).map(lambda parts: "".join("".join(p) for p in parts))


@settings(max_examples=300, deadline=None)
@given(_INGEST_TEXTS)
def test_ingested_text_survives_the_tsv(text):
    sentences = corpus.ingest_text(text, "d")
    again = parse_pretagged(serialize_pretagged(sentences))
    assert [(s.sentence_id, s.voice, s.tokens) for s in again] \
        == [(s.sentence_id, s.voice, s.tokens) for s in sentences]
