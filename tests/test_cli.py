import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

from syntaxspace import cli
from syntaxspace.cli import main

from conftest import SHORT_INPUT, SHORT_QUESTION

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def workspace(tmp_path):
    raw = tmp_path / "short.txt"
    raw.write_text(" ".join(SHORT_INPUT) + "\n")
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_short(workspace, capsys):
    corpus_snap = workspace / "corpus.snap"
    space_snap = workspace / "space.snap"
    code, _, _ = run(capsys, "ingest", workspace / "short.txt", "-o", corpus_snap)
    assert code == 0
    code, _, _ = run(capsys, "build", corpus_snap, "-o", space_snap)
    assert code == 0
    return corpus_snap, space_snap


class TestPipeline:
    def test_ingest_build_query(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        code, out, _ = run(capsys, "query", space_snap, SHORT_QUESTION)
        assert code == 0
        lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert lines[0].startswith("1\t1\tshort\t")
        assert "LexRank builds an extract" in lines[0]
        assert len(lines) == 1

    def test_query_explain(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        code, out, _ = run(capsys, "query", space_snap, SHORT_QUESTION,
                           "--explain")
        assert code == 0
        assert "adverbial*: gap_filled" in out

    def test_ingest_matches_golden_file(self, tmp_path, capsys):
        demo = pathlib.Path(__file__).parent.parent / "demo" / "short.txt"
        code, _, _ = run(capsys, "ingest", demo, "-o", tmp_path / "short.tsv")
        assert code == 0
        assert (tmp_path / "short.tsv").read_bytes() \
            == (DATA / "short.tsv").read_bytes()

    def test_apostrophes_ingest_matches_golden_file(self, tmp_path, capsys):
        # curly and straight apostrophes, abbreviations, an initial, and a
        # no-break space, U+2028 and U+0085 between words
        corpus_snap, space_snap = tmp_path / "a.tsv", tmp_path / "a.snap"
        code, _, _ = run(capsys, "ingest", DATA / "apostrophes.txt", "-o",
                         corpus_snap)
        assert code == 0
        assert corpus_snap.read_bytes() \
            == (DATA / "apostrophes.tsv").read_bytes()
        assert run(capsys, "build", corpus_snap, "-o", space_snap)[0] == 0
        code, out, _ = run(capsys, "query", space_snap, "What ranks sentences?")
        assert code == 0
        assert "The system s model ranks sentences ." in out

    def test_chunks_ingest_matches_golden_file(self, tmp_path, capsys):
        # chunks of several tokens and of none: glued punctuation, brackets
        # and quotes, "*", "\u2014" and "a*b" (the first chunk holds no
        # token), Unicode digits and Unicode separators between words
        corpus_snap = tmp_path / "c.tsv"
        code, _, _ = run(capsys, "ingest", DATA / "chunks.txt", "-o",
                         corpus_snap)
        assert code == 0
        assert corpus_snap.read_bytes() == (DATA / "chunks.tsv").read_bytes()

    def test_patterns_match_golden_files(self, tmp_path, capsys):
        # a harvested 3-cycle with one edge dropped, a "to X is to Y" edge,
        # a by-agent passive, a two-part sentence and a clause adverbial
        corpus_snap, space_snap = tmp_path / "p.tsv", tmp_path / "p.space"
        assert run(capsys, "ingest", DATA / "patterns.txt", "-o",
                   corpus_snap)[0] == 0
        assert corpus_snap.read_bytes() \
            == (DATA / "patterns.tsv").read_bytes()
        assert run(capsys, "build", corpus_snap, "-o", space_snap)[0] == 0
        assert space_snap.read_bytes() \
            == (DATA / "patterns.space").read_bytes()
        for command, golden in (("dump-edges", "patterns_edges.txt"),
                                ("stats", "patterns_stats.txt")):
            code, out, _ = run(capsys, command, space_snap)
            assert code == 0
            assert out == (DATA / golden).read_text()

    def test_query_matches_golden_file(self, tmp_path, capsys):
        demo = pathlib.Path(__file__).parent.parent / "demo" / "short.txt"
        run(capsys, "ingest", demo, "-o", tmp_path / "short.tsv")
        run(capsys, "build", tmp_path / "short.tsv", "-o", tmp_path / "s")
        code, out, _ = run(capsys, "query", tmp_path / "s", SHORT_QUESTION)
        assert code == 0
        assert out == (DATA / "short_query.txt").read_text()

    def test_query_explain_matches_golden_file(self, tmp_path, capsys):
        demo = pathlib.Path(__file__).parent.parent / "demo" / "short.txt"
        run(capsys, "ingest", demo, "-o", tmp_path / "short.tsv")
        run(capsys, "build", tmp_path / "short.tsv", "-o", tmp_path / "s")
        out = ""
        for line in (DATA / "short_gold.txt").read_text().splitlines():
            if line.startswith("Q: "):
                code, answers, _ = run(capsys, "query", tmp_path / "s",
                                       line[3:], "--explain")
                assert code == 0
                out += answers
        assert out == (DATA / "short_explain.txt").read_text()

    def test_eval_matches_golden_file(self, tmp_path, capsys):
        demo = pathlib.Path(__file__).parent.parent / "demo" / "short.txt"
        run(capsys, "ingest", demo, "-o", tmp_path / "short.tsv")
        run(capsys, "build", tmp_path / "short.tsv", "-o", tmp_path / "s")
        out = ""
        for command in ("qa", "baselines"):
            code, report, _ = run(capsys, "-k", 2, "eval", command,
                                  tmp_path / "s", DATA / "short_gold.txt")
            assert code == 0
            out += report
        assert out == (DATA / "short_eval.txt").read_text()

    def test_query_explain_with_synonyms_matches_golden_file(self, tmp_path,
                                                             capsys):
        # synonym, gap_filled through a harvested edge, same, adverbial[0],
        # affirmed, and a clause whose verb is a synonym of the question's
        demo = pathlib.Path(__file__).parent.parent / "demo" / "short.txt"
        run(capsys, "ingest", demo, "-o", tmp_path / "short.tsv")
        run(capsys, "build", tmp_path / "short.tsv", "-o", tmp_path / "s")
        syn = tmp_path / "synonyms.tsv"
        syn.write_text("build\tconstruct\n")
        out = ""
        for question in ("What constructs an extract?",
                         "What algorithm builds an extract?",
                         "What does LexRank build?",
                         "Does supervised algorithm build an extract by "
                         "classifying sentences?",
                         "Do the results show that unsupervised algorithm "
                         "can construct the extract well?"):
            code, answers, _ = run(capsys, "--synonyms", syn, "query",
                                   tmp_path / "s", question, "--explain")
            assert code == 0
            out += answers
        assert out == (DATA / "short_explain_synonyms.txt").read_text()

    def test_adverbial_pairs_explain_matches_golden_file(self, tmp_path,
                                                         capsys):
        # two time adverbials below "on days": each question pairs them in
        # order, the first one below a target taken
        run(capsys, "ingest", DATA / "adverbial_pairs.txt", "-o",
            tmp_path / "a.tsv")
        run(capsys, "build", tmp_path / "a.tsv", "-o", tmp_path / "a")
        out = ""
        for question in ("Does the team build models on days on sunny days?",
                         "Does the team build models on sunny days on days?"):
            code, answers, _ = run(capsys, "query", tmp_path / "a", question,
                                   "--explain")
            assert code == 0
            out += answers
        assert out == (DATA / "adverbial_pairs_explain.txt").read_text()

    def test_passives_match_golden_file(self, tmp_path, capsys):
        # every agent passive rewritten, before and after an agentless one,
        # with a modal and a perfect; agentless ones kept as written
        run(capsys, "ingest", DATA / "passives.txt", "-o", tmp_path / "p.tsv")
        assert run(capsys, "build", tmp_path / "p.tsv", "-o",
                   tmp_path / "p.space")[0] == 0
        assert (tmp_path / "p.space").read_bytes() \
            == (DATA / "passives.space").read_bytes()

    def test_dump_parse_matches_golden_file(self, tmp_path, capsys):
        # object_shapes renders an indirect object, a complement, no
        # object, an unclassified adverbial and a list of adverbials
        demo = pathlib.Path(__file__).parent.parent / "demo" / "short.txt"
        for text, golden in ((demo, "short_parse.txt"),
                             (DATA / "object_shapes.txt",
                              "object_shapes_parse.txt")):
            run(capsys, "ingest", text, "-o", tmp_path / "c.tsv")
            code, out, _ = run(capsys, "dump-parse", tmp_path / "c.tsv")
            assert code == 0
            assert out == (DATA / golden).read_text(), golden

    def test_stats(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        code, out, _ = run(capsys, "stats", space_snap)
        assert code == 0
        assert "subject dimension: 4 nodes, 1 subclass relations" in out
        assert "1NF: True" in out

    def test_dump_edges_lists_subject_edge(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        code, out, _ = run(capsys, "dump-edges", space_snap)
        assert code == 0
        assert ("np(lexrank|)\tnp(algorithm|unsupervised)\tsubject\t"
                "syntactic_pattern\t2") in out

    def test_dump_parse(self, workspace, capsys):
        corpus_snap, _ = build_short(workspace, capsys)
        code, out, _ = run(capsys, "dump-parse", corpus_snap)
        assert code == 0
        assert '"action": ("", "build", "")' in out

    def test_dump_parse_marks_a_sentence_without_a_verb(self, tmp_path,
                                                         capsys):
        raw, corpus_snap = tmp_path / "v.txt", tmp_path / "v.snap"
        raw.write_text("Hello there. The team builds models.\n")
        assert run(capsys, "ingest", raw, "-o", corpus_snap)[0] == 0
        code, out, _ = run(capsys, "dump-parse", corpus_snap)
        assert code == 0
        assert out.startswith("# sentence 1: Hello there .\n"
                              "# unparsed: sentence 1: no verb group found\n"
                              "\n# sentence 2: The team builds models .\n")

    def test_build_is_byte_identical(self, workspace, capsys):
        corpus_snap, space_snap = build_short(workspace, capsys)
        first = space_snap.read_bytes()
        code, _, _ = run(capsys, "build", corpus_snap, "-o", space_snap)
        assert code == 0
        assert space_snap.read_bytes() == first

    def test_empty_corpus_builds_with_warning(self, tmp_path, capsys):
        empty = tmp_path / "empty.snap"
        empty.write_text("")
        out_snap = tmp_path / "space.snap"
        code, _, err = run(capsys, "build", empty, "-o", out_snap)
        assert code == 0
        assert "empty corpus" in err

    def test_pretagged_ingest(self, tmp_path, capsys):
        corpus_snap = tmp_path / "corpus.snap"
        code, out, _ = run(capsys, "--tagger", "pretagged", "ingest",
                           DATA / "parse_fixtures.tsv", "-o", corpus_snap)
        assert code == 0
        assert "ingested 2 sentences" in out


class TestEvalCommands:
    def test_eval_relations(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        gold = workspace / "gold.tsv"
        gold.write_text("np(lexrank|)\tnp(algorithm|unsupervised)\tsubject\n")
        code, out, _ = run(capsys, "eval", "relations", space_snap, gold)
        assert code == 0
        assert "P=100.00%" in out and "R=100.00%" in out

    def test_eval_qa(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        gold = workspace / "gold_answers.txt"
        gold.write_text(f"Q: {SHORT_QUESTION}\nA: 1\n")
        code, out, _ = run(capsys, "eval", "qa", space_snap, gold)
        assert code == 0
        assert "qa precision@5 = 100.00% (1/1)" in out

    def test_eval_qa_reads_a_non_question_as_no_answers(self, workspace,
                                                        capsys):
        # "hello there" returns nothing, and 99 is no sentence of the corpus
        _, space_snap = build_short(workspace, capsys)
        gold = workspace / "gold_answers.txt"
        gold.write_text(f"Q: {SHORT_QUESTION}\nA: 1\nQ: hello there\nA: 2\n"
                        "A: 99\n")
        code, out, err = run(capsys, "eval", "qa", space_snap, gold)
        assert code == 0
        assert out == "qa precision@5 = 100.00% (1/1)\n"
        assert err == "warning: gold answer ids not in corpus: [99]\n"

    def test_eval_baselines(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        gold = workspace / "gold_answers.txt"
        gold.write_text(f"Q: {SHORT_QUESTION}\nA: 1\n")
        code, out, _ = run(capsys, "--top-k", "1", "eval", "baselines",
                           space_snap, gold)
        assert code == 0
        # the bag-of-words baselines pick sentence 3, the sequence methods
        # sentence 4; none of them finds the annotated answer
        assert "common_words   precision@1 = 0.00% (0/1)" in out
        assert "lcs            precision@1 = 0.00% (0/1)" in out

    @pytest.mark.parametrize("what", ["qa", "baselines"])
    @pytest.mark.parametrize("text, line, message", [
        (f"A: 1\nQ: {SHORT_QUESTION}\n", 1,
         "answer before the first question"),
        (f"Q: {SHORT_QUESTION}\nA: 1\nQ: \nA: 2\n", 3, "empty question"),
    ], ids=["answer_first", "empty_question"])
    def test_malformed_gold_answers_are_data_errors(self, workspace, capsys,
                                                    what, text, line, message):
        _, space_snap = build_short(workspace, capsys)
        gold = workspace / "gold_answers.txt"
        gold.write_text(text)
        code, out, err = run(capsys, "eval", what, space_snap, gold)
        assert code == 2
        assert err == f"error: {gold}:{line}: {message}\n" and out == ""


class TestErrorHandling:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "ingest", tmp_path / "nope.txt", "-o",
                           tmp_path / "out.snap")
        assert code == 2

    def test_malformed_pretagged_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("word\tword\tXX\n")
        code, _, err = run(capsys, "--tagger", "pretagged", "ingest", bad,
                           "-o", tmp_path / "out.snap")
        assert code == 2
        assert "unknown tag" in err

    def test_unparseable_question_is_data_error(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        code, _, err = run(capsys, "query", space_snap, "hello there")
        assert code == 2

    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_invalid_top_k(self, workspace, capsys):
        code, _, err = run(capsys, "-k", "0", "stats", workspace / "x")
        assert code == 1

    @pytest.mark.parametrize("damage", ["truncated", "wrong_version",
                                        "trailing_garbage"])
    @pytest.mark.parametrize("command", ["query", "stats", "dump-edges",
                                         "dump-parse"])
    def test_incomplete_snapshot_is_data_error(self, workspace, capsys,
                                               damage, command):
        _, space_snap = build_short(workspace, capsys)
        text = space_snap.read_text()
        damaged = workspace / "damaged.snap"
        damaged.write_text({
            "truncated": text[:text.index("[DIMENSION ") - 40],
            "wrong_version": text.replace("#space v1", "#space v9", 1),
            "trailing_garbage": text + "garbage\n",
        }[damage])
        args = [command, damaged] + ([SHORT_QUESTION] if command == "query"
                                     else [])
        code, out, err = run(capsys, *args)
        assert code == 2
        assert err == f"error: {damaged}: not a complete #space v1 snapshot\n"
        assert out == ""

    @pytest.mark.parametrize("command", [
        ["query", "{snap}", SHORT_QUESTION], ["stats", "{snap}"],
        ["dump-edges", "{snap}"], ["eval", "baselines", "{snap}", "{gold}"]])
    def test_snapshot_that_does_not_match_its_corpus_is_data_error(
            self, workspace, capsys, command):
        _, space_snap = build_short(workspace, capsys)
        text = space_snap.read_text()
        node = text.index("[DIMENSION subject]\n[NODES]\n") + 28
        damaged = workspace / "damaged.snap"
        damaged.write_text(text[:node] + "x" + text[node + 1:])
        gold = workspace / "gold.txt"
        gold.write_text(f"Q: {SHORT_QUESTION}\nA: 1\n")
        args = [a.format(snap=damaged, gold=gold) for a in command]
        code, out, err = run(capsys, *args)
        assert code == 2
        assert err == (f"error: {damaged}: snapshot does not match its "
                       f"corpus (rebuild it)\n")
        assert out == ""
        # dump-parse reads only the corpus section
        assert run(capsys, "dump-parse", damaged)[0] == 0

    DEEP = " and ".join(["models"] * 2000)

    LONG_LIST = ", ".join(["models"] * 1199) + " and tools"

    DISTINCT_LIST = ", ".join(f"model{i}" for i in range(4999)) + " and model4999"

    NESTED = "the team knows that " * 1000 + "the team wins"

    def test_long_lists_parse_and_nested_clauses_are_uncovered(self, tmp_path,
                                                                capsys):
        # lists fold in a loop, whatever their length; the parser still
        # recurses into clauses inside clauses, and a sentence nested too
        # deeply is left uncovered
        raw = tmp_path / "deep.txt"
        raw.write_text(f"The team builds {self.LONG_LIST}. "
                       f"The lab builds {self.DISTINCT_LIST}. "
                       f"LexRank builds {self.DEEP}. "
                       f"{self.NESTED.capitalize()}. "
                       f"LexRank builds summaries.\n")
        corpus_snap, space_snap = tmp_path / "deep.tsv", tmp_path / "deep.snap"
        assert run(capsys, "ingest", raw, "-o", corpus_snap)[0] == 0
        code, out, err = run(capsys, "build", corpus_snap, "-o", space_snap)
        assert code == 0
        assert err == "warning: 1 sentences not parsed: [4]\n"
        for question, answers in (("What builds summaries?", ["5"]),
                                  ("What does the lab build?", ["2"])):
            code, out, _ = run(capsys, "query", space_snap, question)
            assert code == 0
            assert [line.split("\t")[1] for line in out.splitlines()] \
                == answers
        code, out, _ = run(capsys, "dump-parse", corpus_snap)
        assert code == 0
        assert out.count("# unparsed: nests too deeply to parse\n") == 1

    def test_clauses_nested_400_deep_build_and_answer(self, tmp_path, capsys):
        # the snapshot renders each nested clause without recursing
        raw = tmp_path / "nested.txt"
        raw.write_text("The team knows that " * 400
                       + "the team wins. LexRank builds summaries.\n")
        corpus_snap, space_snap = tmp_path / "n.tsv", tmp_path / "n.snap"
        assert run(capsys, "ingest", raw, "-o", corpus_snap)[0] == 0
        code, _, err = run(capsys, "build", corpus_snap, "-o", space_snap)
        assert (code, err) == (0, "")
        code, out, _ = run(capsys, "query", space_snap,
                           "What builds summaries?")
        assert code == 0
        assert [line.split("\t")[1] for line in out.splitlines()] == ["2"]

    def test_deeply_nested_question_is_data_error(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        code, out, err = run(capsys, "query", space_snap,
                             f"Does {self.NESTED}?")
        assert code == 2
        assert err == ("error: a sentence or question nests too deeply "
                       "to parse\n")
        assert out == ""

    def test_long_coordinated_question_is_answered(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        code, _, err = run(capsys, "query", space_snap,
                           f"How does {self.DEEP} build an extract?")
        assert code == 0
        assert err == ""

    def test_corpus_token_like_a_section_header_loads(self, tmp_path, capsys):
        corpus_snap = tmp_path / "odd.tsv"
        corpus_snap.write_text(
            "LexRank\tlexrank\tNNP\nbuilds\tbuild\tVBZ\n"
            "summaries\tsummary\tNNS\n.\t.\t.\n\n"
            "[DIMENSION x\tx\tNN\nruns\trun\tVBZ\n.\t.\t.\n")
        space_snap = tmp_path / "odd.snap"
        assert run(capsys, "build", corpus_snap, "-o", space_snap)[0] == 0
        code, out, _ = run(capsys, "stats", space_snap)
        assert code == 0
        assert "subject dimension: 2 nodes" in out

    @pytest.mark.parametrize("text", ["The system\u2019s model ranks sentences.",
                                      "The system 's model ranks sentences."])
    def test_lone_s_after_an_apostrophe_builds(self, tmp_path, capsys, text):
        raw = tmp_path / "apostrophe.txt"
        raw.write_text(text + "\n", encoding="utf-8")
        corpus_snap, space_snap = tmp_path / "c.tsv", tmp_path / "s.snap"
        assert run(capsys, "ingest", raw, "-o", corpus_snap)[0] == 0
        assert run(capsys, "build", corpus_snap, "-o", space_snap)[0] == 0
        code, out, _ = run(capsys, "query", space_snap, "What ranks sentences?")
        assert code == 0
        assert "The system s model ranks sentences ." in out

    @pytest.mark.parametrize("fails", ["write", "flush"])
    def test_closed_stdout_exits_quietly(self, workspace, capsys, monkeypatch,
                                         fails):
        # the reader of a pipe has gone: an unbuffered stdout fails on the
        # first write, a buffered one on the flush
        _, space_snap = build_short(workspace, capsys)

        class ClosedPipe:
            def __init__(self, handle):
                self.fileno = handle.fileno

            def write(self, text):
                if fails == "write":
                    raise BrokenPipeError(32, "Broken pipe")
                return len(text)

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        with open(workspace / "stdout", "w") as handle:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(handle))
            code = main(["query", str(space_snap), SHORT_QUESTION])
            monkeypatch.undo()
            assert os.path.samestat(os.fstat(handle.fileno()),
                                    os.stat(os.devnull))
        assert code == 0
        assert capsys.readouterr().err == ""


# a malformed line in each kind of side file: (text, bad line, argv)
MALFORMED = {
    # a voice `build_space` never writes
    "corpus_voice": (
        "#doc short\n#voice bogus\nLexRank\tlexrank\tNNP\n",
        2, lambda snap, bad: ["build", bad, "-o", f"{bad}.space"]),
    # a corpus line is named by its line in the file, in a TSV and in a
    # snapshot, which holds two lines before its corpus
    "corpus_tag": (
        "#doc short\nLexRank\tlexrank\tXX\n",
        2, lambda snap, bad: ["dump-parse", bad]),
    "snapshot_corpus_tag": (
        "#space v1\n[CORPUS]\n#doc short\nLexRank\tlexrank\tNNP\n"
        "builds\tbuild\tXX\n\n[DIMENSION subject]\n[UNCOVERED]\n\n",
        5, lambda snap, bad: ["query", bad, SHORT_QUESTION]),
    "gold_relations": (
        "np(lexrank|)\tnp(algorithm|unsupervised)\tsubject\nnp(lexrank|)\n",
        2, lambda snap, bad: ["eval", "relations", snap, bad]),
    # a tagged corpus is three columns too, but its third is no dimension
    "gold_relations_dimension": (
        "#doc short\nLexRank\tlexrank\tNNP\nbuilds\tbuild\tVBZ\n",
        2, lambda snap, bad: ["eval", "relations", snap, bad]),
    # bare lemmas are no canonical keys: no build could predict the pair
    "gold_relations_key": (
        "np(lexrank|)\tnp(algorithm|unsupervised)\tsubject\n"
        "lexrank\talgorithm\tsubject\n",
        2, lambda snap, bad: ["eval", "relations", snap, bad]),
    # every canonical key holds a "|": np(lexrank) names no node
    "gold_relations_bar": (
        "np(lexrank)\tnp(algorithm|unsupervised)\tsubject\n",
        1, lambda snap, bad: ["eval", "relations", snap, bad]),
    "gold_answers": (
        f"Q: {SHORT_QUESTION}\nA: 1\n\nA: first\n",
        4, lambda snap, bad: ["eval", "qa", snap, bad]),
    "synonyms": (
        "# lemma pairs\nbuild\tconstruct\nmake\n",
        3, lambda snap, bad: ["--synonyms", bad, "stats", snap]),
    # a row applies only as one lemma, a tab and one lemma
    "synonyms_three_fields": (
        "build\tconstruct\nmake\tform\tshape\n",
        2, lambda snap, bad: ["--synonyms", bad, "stats", snap]),
    "synonyms_empty_field": (
        "build\t\tconstruct\n",
        1, lambda snap, bad: ["--synonyms", bad, "stats", snap]),
    "synonyms_phrase": (
        "build\tconstruct\nbuild fast\tconstruct\n",
        2, lambda snap, bad: ["--synonyms", bad, "stats", snap]),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_side_file_names_file_and_line(workspace, capsys, kind):
    text, line, argv = MALFORMED[kind]
    _, space_snap = build_short(workspace, capsys)
    bad = workspace / f"{kind}.txt"
    bad.write_text(text)
    code, out, err = run(capsys, *argv(space_snap, bad))
    assert code == 2
    assert err.startswith(f"error: {bad}:{line}: ") and err.count("\n") == 1
    assert out == ""


_DECODE_ERROR = ("'utf-8' codec can't decode byte 0xff in position 0: "
                 "invalid start byte")
# each place where a command reads a file that is not UTF-8
NOT_UTF8 = {
    "build": lambda snap, bad: ["build", bad, "-o", f"{bad}.space"],
    "ingest": lambda snap, bad: ["ingest", bad, "-o", f"{bad}.tsv"],
    "dump-parse": lambda snap, bad: ["dump-parse", bad],
    "query": lambda snap, bad: ["query", bad, SHORT_QUESTION],
    "synonyms": lambda snap, bad: ["--synonyms", bad, "query", snap,
                                   SHORT_QUESTION],
    "eval_qa": lambda snap, bad: ["eval", "qa", snap, bad],
    "eval_relations": lambda snap, bad: ["eval", "relations", snap, bad],
}


@pytest.mark.parametrize("kind", [*sorted(NOT_UTF8), "config_not_utf8",
                                  "config_not_json"])
def test_unreadable_file_is_named(workspace, capsys, monkeypatch, kind):
    _, space_snap = build_short(workspace, capsys)
    bad = workspace / "bad"
    bad.write_bytes(b"{bad" if kind == "config_not_json" else b"\xff\xfe{}\n")
    if kind.startswith("config"):
        monkeypatch.setenv("SYNTAXSPACE_CONFIG", str(bad))
        code, out, err = run(capsys, "stats", space_snap)
        message = _DECODE_ERROR if kind == "config_not_utf8" else \
            "Expecting property name enclosed in double quotes: line 1"
        assert code == 1
        assert err.startswith(f"config error: {bad}: {message}")
    else:
        code, out, err = run(capsys, *NOT_UTF8[kind](space_snap, bad))
        assert code == 2
        assert err == f"error: {bad}: {_DECODE_ERROR}\n"
    assert out == "" and err.count("\n") == 1


# each kind of input file: its text, given the short corpus and space, and
# the command that reads it at `path`, writing to `out` if it writes
BOM_INPUTS = {
    "config": (lambda corpus, space: '{"top_k": 1}',
               lambda space, path, out: ["query", space, SHORT_QUESTION]),
    "gold_answers": (lambda corpus, space: f"Q: {SHORT_QUESTION}\nA: 1\n",
                     lambda space, path, out: ["eval", "qa", space, path]),
    "gold_relations": (
        lambda corpus, space: "np(lexrank|)\tnp(algorithm|unsupervised)"
                              "\tsubject\n",
        lambda space, path, out: ["eval", "relations", space, path]),
    "pretagged": (lambda corpus, space: corpus.read_text(),
                  lambda space, path, out: ["--tagger", "pretagged", "ingest",
                                            path, "-o", out]),
    "snapshot": (lambda corpus, space: space.read_text(),
                 lambda space, path, out: ["query", path, SHORT_QUESTION]),
    "synonyms": (lambda corpus, space: "build\tconstruct\n",
                 lambda space, path, out: ["--synonyms", path, "query", space,
                                           "What constructs an extract?"]),
    "text": (lambda corpus, space: " ".join(SHORT_INPUT) + "\n",
             lambda space, path, out: ["ingest", path, "-o", out]),
    "tsv": (lambda corpus, space: corpus.read_text(),
            lambda space, path, out: ["build", path, "-o", out]),
}


@pytest.mark.parametrize("kind", sorted(BOM_INPUTS))
def test_byte_order_mark_is_not_read_as_text(workspace, capsys, monkeypatch,
                                             kind):
    text, argv = BOM_INPUTS[kind]
    corpus_snap, space_snap = build_short(workspace, capsys)
    text = text(corpus_snap, space_snap)
    path, out = workspace / kind, workspace / f"{kind}.out"
    if kind == "config":
        monkeypatch.setenv("SYNTAXSPACE_CONFIG", str(path))
    results = []
    for mark in ("", "\ufeff"):
        path.write_text(mark + text, encoding="utf-8")
        out.unlink(missing_ok=True)
        code, stdout, err = run(capsys, *argv(space_snap, path, out))
        results.append((code, stdout, err,
                        out.read_bytes() if out.exists() else None))
    assert results[0][0] == 0 and results[1] == results[0]


class TestProcessEntry:
    def test_run_calls_main_without_the_collector_then_freezes(
            self, monkeypatch):
        seen = []

        def fake_main():
            seen.append((gc.isenabled(), gc.get_freeze_count()))
            return 3

        monkeypatch.setattr(cli, "main", fake_main)
        # a fresh interpreter may start with objects frozen (3.12.1 does)
        frozen = gc.get_freeze_count()
        assert gc.isenabled()
        try:
            assert cli.run() == 3
            assert seen == [(False, frozen)]
            assert not gc.isenabled() and gc.get_freeze_count() > frozen
        finally:
            gc.unfreeze()
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, workspace,
                                                      capsys, enabled):
        corpus_snap = workspace / "corpus.tsv"
        space_snap = workspace / "space.snap"
        assert run(capsys, "ingest", workspace / "short.txt", "-o",
                   corpus_snap)[0] == 0
        try:
            (gc.enable if enabled else gc.disable)()
            for argv in (["build", corpus_snap, "-o", space_snap],
                         ["query", space_snap, SHORT_QUESTION],
                         ["stats", space_snap]):
                assert run(capsys, *argv)[0] == 0
                assert gc.isenabled() is enabled, argv[0]
        finally:
            gc.enable()

    @pytest.mark.parametrize("case", ["answered", "not_a_question",
                                      "damaged"])
    def test_module_entry_prints_what_main_prints(self, workspace, capsys,
                                                  case):
        _, space_snap = build_short(workspace, capsys)
        question = "hello there" if case == "not_a_question" \
            else SHORT_QUESTION
        if case == "damaged":
            text = space_snap.read_text()
            space_snap.write_text(text[:text.index("[DIMENSION ") - 40])
        argv = ["query", str(space_snap), question]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-m", "syntaxspace.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        want = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want
        assert want[0] == (0 if case == "answered" else 2)


class TestConfig:
    def test_env_config(self, workspace, capsys, monkeypatch, tmp_path):
        _, space_snap = build_short(workspace, capsys)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"top_k": 1}))
        monkeypatch.setenv("SYNTAXSPACE_CONFIG", str(config))
        texts = [
            "unsupervised algorithm builds an extract by classifying sentences.",
            "unsupervised algorithm builds an extract by selecting sentences.",
        ]
        raw = tmp_path / "two.txt"
        raw.write_text(" ".join(texts))
        corpus_snap = tmp_path / "c.snap"
        two_space = tmp_path / "s.snap"
        run(capsys, "ingest", raw, "-o", corpus_snap)
        run(capsys, "build", corpus_snap, "-o", two_space)
        code, out, _ = run(capsys, "query", two_space, SHORT_QUESTION)
        assert code == 0
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(rows) == 1  # top_k from env config

    def test_flag_overrides_env(self, workspace, capsys, monkeypatch, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"top_k": 17}))
        monkeypatch.setenv("SYNTAXSPACE_CONFIG", str(config))
        _, space_snap = build_short(workspace, capsys)
        code, out, _ = run(capsys, "-k", "1", "query", space_snap,
                           SHORT_QUESTION)
        assert code == 0

    @pytest.mark.parametrize("content", [
        "[1]",
        '{"top_k": "5"}',
        '{"bm25_k1": true}',
        '{"synonym_path": 3}',
        '{"tagger": "xyz"}',
        '{"bm25_k1": -1}',
        '{"bm25_k1": Infinity}',
        pytest.param('{"bm25_k1": 1' + "0" * 400 + '}', id="k1-beyond-float"),
        '{"bm25_b": 1.5}',
        '{"bm25_b": NaN}',
        '{"gst_min_tile": 0}',
    ])
    def test_bad_config_is_a_usage_error(self, capsys, monkeypatch, tmp_path,
                                         content):
        config = tmp_path / "config.json"
        config.write_text(content)
        monkeypatch.setenv("SYNTAXSPACE_CONFIG", str(config))
        code, _, err = run(capsys, "stats", tmp_path / "space.snap")
        assert code == 1
        assert err.startswith("config error: ")

    @pytest.mark.parametrize("flags", [
        ["--bm25-k1", "-1", "--bm25-b", "0"],
        ["--bm25-k1", "nan"],
        ["--bm25-b", "-0.5"],
        ["--gst-min-tile", "0"],
    ])
    def test_bad_baseline_flag_is_a_usage_error(self, workspace, capsys,
                                                flags):
        _, space_snap = build_short(workspace, capsys)
        gold = workspace / "gold.txt"
        gold.write_text(f"Q: {SHORT_QUESTION}\nA: 1\n")
        code, out, err = run(capsys, *flags, "eval", "baselines", space_snap,
                             gold)
        assert code == 1
        assert err.startswith("config error: ") and out == ""


class TestSyntheticPipeline:
    def test_eval_relations_on_synthetic_corpus(self, tmp_path, capsys):
        """Full CLI round trip over the generated corpus: ingest from raw
        text, build, then score the recovered relations against the
        generator's gold annotations."""
        import generators
        from syntaxspace.corpus import serialize_pretagged

        tagged, gold = generators.synthetic_corpus()
        corpus_snap = tmp_path / "synthetic.snap"
        corpus_snap.write_text(serialize_pretagged(tagged))
        space_snap = tmp_path / "space.snap"
        gold_path = tmp_path / "gold.tsv"
        gold_path.write_text(
            "".join(f"{c}\t{p}\t{d}\n" for c, p, d in sorted(gold)))
        code, _, _ = run(capsys, "build", corpus_snap, "-o", space_snap)
        assert code == 0
        code, out, _ = run(capsys, "eval", "relations", space_snap, gold_path)
        assert code == 0
        assert "P=100.00% R=100.00% F1=100.00%" in out

    def test_query_synthetic_space(self, tmp_path, capsys):
        import generators
        from syntaxspace.corpus import serialize_pretagged

        tagged, _ = generators.synthetic_corpus()
        corpus_snap = tmp_path / "synthetic.snap"
        corpus_snap.write_text(serialize_pretagged(tagged))
        space_snap = tmp_path / "space.snap"
        run(capsys, "build", corpus_snap, "-o", space_snap)
        code, out, _ = run(capsys, "query", space_snap,
                           "What does the unsupervised algorithm build?")
        assert code == 0
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert rows, "expected at least one answer"
        for row in rows:
            text = row.split("\t")[-1]
            assert "algorithm" in text and "builds" in text


class TestSynonymsAndDumpPaths:
    def test_synonyms_flag_expands_action_search(self, tmp_path, capsys):
        raw = tmp_path / "doc.txt"
        raw.write_text("LexRank constructs an extract by selecting sentences.")
        syn = tmp_path / "syn.tsv"
        syn.write_text("build\tconstruct\n")
        corpus_snap = tmp_path / "c.snap"
        space_snap = tmp_path / "s.snap"
        run(capsys, "ingest", raw, "-o", corpus_snap)
        run(capsys, "build", corpus_snap, "-o", space_snap)
        code, out, _ = run(capsys, "query", space_snap,
                           "What does LexRank build?")
        assert code == 0 and "no answers" in out
        code, out, _ = run(capsys, "--synonyms", syn, "query", space_snap,
                           "What does LexRank build?", "--explain")
        assert code == 0
        assert "action: synonym" in out
        assert "LexRank constructs an extract" in out

    def test_dump_parse_accepts_space_snapshot(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        code, out, _ = run(capsys, "dump-parse", space_snap)
        assert code == 0
        assert '"action": ("", "build", "")' in out

    def test_query_explain_notes_voice(self, tmp_path, capsys):
        raw = tmp_path / "doc.txt"
        raw.write_text("The extract is built by LexRank.")
        corpus_snap = tmp_path / "c.snap"
        space_snap = tmp_path / "s.snap"
        run(capsys, "ingest", raw, "-o", corpus_snap)
        run(capsys, "build", corpus_snap, "-o", space_snap)
        code, out, _ = run(capsys, "query", space_snap,
                           "What does LexRank build?", "--explain")
        assert code == 0
        assert "voice: passive_converted" in out
