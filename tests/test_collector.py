"""The bulk calls run with the cyclic garbage collector paused.

`ingest_text`, `parse_pretagged`, `build_space` and `baseline_rank` turn the
collector off for their duration and restore the caller's setting, and
`cli.run` runs a whole CLI process without it.  That is safe only because
the pipeline's data holds no reference cycles, which the last tests here
check: with the collector off, `gc.collect()` finds nothing after any step,
and after a CLI command only the cycles that argparse leaves.
"""

import dataclasses
import gc
import json
import random
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from syntaxspace import qa
from syntaxspace.cli import build_parser, main
from syntaxspace.corpus import (MalformedLine, ingest_text, parse_pretagged,
                                serialize_pretagged, tag)
from syntaxspace.evaluation import BASELINE_METHODS, baseline_rank
from syntaxspace.space import build_space, serialize_space

from conftest import SHORT_INPUT, SHORT_QUESTION
from generators import random_corpus, synthetic_corpus

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402


@contextmanager
def counted_passes():
    """The generation of every collection that starts inside the block,
    counted from empty generations."""
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        yield starts
    finally:
        gc.callbacks.remove(hook)


@contextmanager
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def large_tagged():
    """About 900 random sentences: enough allocation for dozens of
    collections when nothing pauses the collector."""
    tagged = []
    for seed in range(40):
        for sentence in random_corpus(random.Random(seed), max_sentences=40):
            tagged.append(dataclasses.replace(sentence,
                                              sentence_id=len(tagged) + 1))
    return tagged


@pytest.fixture(scope="module")
def large_list(large_tagged):
    """About 2,700 documents, as many as a long benchmark document has."""
    return [(s.sentence_id, s.lemmas()) for s in large_tagged] * 3


def bulk_calls(large_tagged, large_list):
    corpus_text = serialize_pretagged(large_tagged)
    return {
        "ingest_text": lambda: ingest_text(" ".join(SHORT_INPUT), "short"),
        "parse_pretagged": lambda: parse_pretagged(corpus_text),
        "build_space": lambda: build_space(large_tagged),
        "baseline_rank": lambda: baseline_rank(
            "bm25", tag(SHORT_QUESTION).lemmas(), large_list),
    }


def passes(call):
    """The generations of the collections that start during `call`, and of
    those that start in the allocations right after it returns."""
    with counted_passes() as starts:
        call()
        during = len(starts)
        for _ in range(100):
            set()  # allocates and frees: runs a pass only if one is due
    return starts[:during], starts[during:]


class TestPause:
    def test_build_space_runs_at_most_the_pass_at_exit(self, large_tagged):
        during, _ = passes(lambda: build_space.__wrapped__(large_tagged))
        # 31 under Python 3.11's default thresholds, 11 under 3.13's
        assert len(during) >= 5
        # the pass held off runs before the call returns, not in the caller
        assert passes(lambda: build_space(large_tagged)) == ([0], [])

    def test_baseline_rank_runs_at_most_the_pass_at_exit(self, large_list):
        question = tag(SHORT_QUESTION).lemmas()
        during, _ = passes(
            lambda: baseline_rank.__wrapped__("bm25", question, large_list))
        assert len(during) >= 3
        during, after = passes(
            lambda: baseline_rank("bm25", question, large_list))
        assert during in ([], [0]) and after == []

    @pytest.mark.parametrize("name", ["ingest_text", "parse_pretagged",
                                      "build_space", "baseline_rank"])
    def test_collector_is_on_after_each_call(self, name, large_tagged,
                                             large_list):
        assert gc.isenabled()
        bulk_calls(large_tagged, large_list)[name]()
        assert gc.isenabled()

    def test_collector_is_on_after_a_call_raises(self):
        with pytest.raises(MalformedLine):
            parse_pretagged("LexRank\tlexrank\tNNP\nbuilds\tbuild\tXX\n")
        assert gc.isenabled()

    def test_collector_turned_off_by_the_caller_stays_off(self, large_tagged,
                                                         large_list):
        calls = bulk_calls(large_tagged, large_list)
        with collector_off(), counted_passes() as starts:
            for name, call in calls.items():
                call()
                assert not gc.isenabled(), name
        assert starts == []

    def test_threads_restore_the_collector(self):
        tagged, _ = synthetic_corpus()
        corpus_text = serialize_pretagged(tagged)
        want = serialize_space(build_space(tagged), corpus_text)
        got = [None] * 8

        def work(k):
            for _ in range(3):
                space = build_space(parse_pretagged(corpus_text))
                got[k] = serialize_space(space, corpus_text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 8
        assert gc.isenabled()


def workload(name):
    """(documents, questions) of the demo text or of a benchmark workload's
    generator, cut to 200 sentences and 40 questions."""
    if name == "demo":
        return ([("short", (ROOT / "demo" / "short.txt").read_text())],
                [SHORT_QUESTION, "What is an unsupervised algorithm?",
                 "What builds an extract?", "Where does LexRank work?"])
    with open(ROOT / "perfbench" / "workloads.json", encoding="utf-8") as f:
        params = dict(json.load(f)["workloads"][name]["generator"])
    params.update(sentences=min(params["sentences"], 200), questions=40,
                  baseline_questions=0)
    generated = inputs.generate(params, seed=7)
    return generated.documents, generated.questions


def argparse_cycles(argv) -> int:
    """The objects in the reference cycles that building the CLI's parser
    and parsing `argv` leave: argparse's help formatters and their
    sections refer to each other."""
    build_parser().parse_args(argv)
    return gc.collect()


@pytest.mark.parametrize("name", ["demo", "hearst-build", "plain-longdoc"])
def test_pipeline_data_has_no_reference_cycles(name, tmp_path):
    documents, questions = workload(name)
    gc.collect()
    with collector_off():
        sentences = []
        for doc_id, text in documents:
            sentences.extend(ingest_text(text, doc_id,
                                         first_id=len(sentences) + 1))
        assert gc.collect() == 0, "ingest"
        space = build_space(sentences)
        assert gc.collect() == 0, "build_space"
        corpus_text = serialize_pretagged(sentences)
        serialize_space(space, corpus_text)
        assert gc.collect() == 0, "serialize_space"
        answered = 0
        for question in questions:
            try:
                answered += bool(qa.answer(space, tag(question)))
            except qa.NotAQuestion:
                pass
        assert answered
        assert gc.collect() == 0, "qa.answer"
        slist = [(sid, list(space.records[sid].lemmas))
                 for sid in space.sentence_ids()]
        for question in questions[:3]:
            for method in BASELINE_METHODS:
                baseline_rank(method, tag(question).lemmas(), slist)
        assert gc.collect() == 0, "baseline_rank"
        parse_pretagged(corpus_text)
        assert gc.collect() == 0, "parse_pretagged"
        del space
        assert gc.collect() == 0, "del space"
        # the commands a CLI process runs, which `cli.run` runs with the
        # collector off
        tsv, snap, gold = (tmp_path / f"{name}.{suffix}"
                           for suffix in ("tsv", "space", "gold"))
        tsv.write_text(corpus_text, encoding="utf-8")
        gold.write_text("".join(f"Q: {question}\nA: 1\n"
                                for question in questions),
                        encoding="utf-8")
        for argv in (["build", tsv, "-o", snap],
                     *(["query", snap, question, "--explain"]
                       for question in questions[:3]),
                     ["stats", snap], ["dump-edges", snap],
                     ["eval", "qa", snap, gold],
                     ["eval", "baselines", snap, gold]):
            argv = [str(arg) for arg in argv]
            cycles = argparse_cycles(argv)
            assert main(argv) == 0, argv
            assert gc.collect() == cycles, argv
