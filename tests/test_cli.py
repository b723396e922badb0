import json
import pathlib

import pytest

from syntaxspace.cli import main

from conftest import SHORT_INPUT, SHORT_QUESTION

DATA = pathlib.Path(__file__).parent / "data"


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

    def test_deeply_nested_corpus_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "deep.txt"
        raw.write_text(f"LexRank builds {self.DEEP}.\n")
        corpus_snap = tmp_path / "deep.tsv"
        assert run(capsys, "ingest", raw, "-o", corpus_snap)[0] == 0
        code, out, err = run(capsys, "build", corpus_snap, "-o",
                             tmp_path / "deep.snap")
        assert code == 2
        assert err == ("error: a sentence or question nests too deeply "
                       "to parse\n")

    def test_deeply_nested_question_is_data_error(self, workspace, capsys):
        _, space_snap = build_short(workspace, capsys)
        code, out, err = run(capsys, "query", space_snap,
                             f"How does {self.DEEP} build an extract?")
        assert code == 2
        assert err == ("error: a sentence or question nests too deeply "
                       "to parse\n")
        assert out == ""

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


# a malformed line in each kind of side file: (text, bad line, argv)
MALFORMED = {
    "gold_relations": (
        "np(lexrank|)\tnp(algorithm|unsupervised)\tsubject\nnp(lexrank|)\n",
        2, lambda snap, bad: ["eval", "relations", snap, bad]),
    "gold_answers": (
        f"Q: {SHORT_QUESTION}\nA: 1\n\nA: first\n",
        4, lambda snap, bad: ["eval", "qa", snap, bad]),
    "synonyms": (
        "# lemma pairs\nbuild\tconstruct\nmake\n",
        3, lambda snap, bad: ["--synonyms", bad, "stats", snap]),
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
