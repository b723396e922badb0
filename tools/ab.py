"""In-process A/B of two versions of the package on a benchmark workload.

    python3 tools/ab.py time --parent HEAD --workload plain-longdoc --seed 5
    python3 tools/ab.py diff --parent HEAD --random 100000

The change is the working tree's `src/syntaxspace`, or `--change <rev>`'s.
The parent is `--parent <rev>`'s, exported with `git archive` into a
folder under `.perfbench-work/` that is removed on exit.  Each side is
imported under its own package name (`syntaxspace_parent`,
`syntaxspace_change`); the package imports itself only relatively, so a
copy runs unchanged.  Inputs are generated by `perfbench/inputs.py` from
the workload and seed (modulo the recorded seeds), as `perfbench/run.py`
generates them.

`time` first builds each side's snapshot and answers every question, and
refuses to time (exit 1) when the two sides' snapshots or answers differ.
It then times the stages `ingest_text`, `normalize_voice`,
`parse_sentence_parts`, `build_space`, the question pass (`corpus.tag` and
`qa.answer` per question) and snapshot load (`cli.query`'s rebuild), with
the collector off and the process pinned to one CPU.  A sample is the
minimum of `--repeat` runs of a stage over the whole input; in each of
`--pairs` pairs both sides take one sample of a stage, and the side that
goes first alternates from pair to pair.  Per stage it prints each side's
median and quartiles in ms and the pairs in which the change was faster.

`diff` compares what the two sides make of the same inputs: the workloads'
(hearst-build and plain-longdoc unless `--workload` is given) corpora and
questions for each of `--seeds` (0-31), and `--random` texts in corpora of
`RANDOM_BATCH`, half from `tests/generators.random_texts` and half pretagged
word soups (`generators.word_soup`, alone or as an object), each corpus
asked a few questions.  For each sentence it compares the tagger's output
(each token's surface, lemma and tag, the voice and the raw text), the
voice-normalized parts with their spans (or the error raised) and the
harvested triples; for each corpus, the uncovered sentences and each
dimension's edges and dropped edges; for each question, the tagger's
output, its parse and top-k answers.  It prints the items that differ,
grouped by the first field that differs, and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"
TOP_K = 5
DIFF_WORKLOADS = ("hearst-build", "plain-longdoc")
RANDOM_BATCH = 20
SHOWN = 5  # differing items printed per group
STAGES = ("ingest_text", "normalize_voice", "parse_sentence_parts",
          "build_space", "question_pass", "snapshot_load")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    timing = modes.add_parser("time", help="time the stages of both sides")
    timing.add_argument("--parent", required=True, metavar="REV")
    timing.add_argument("--change", metavar="REV",
                        help="a revision in place of the working tree")
    timing.add_argument("--workload", required=True)
    timing.add_argument("--seed", type=int, default=0)
    timing.add_argument("--pairs", type=int, default=11)
    timing.add_argument("--repeat", type=int, default=3)
    diffing = modes.add_parser("diff", help="compare the outputs of both sides")
    diffing.add_argument("--parent", required=True, metavar="REV")
    diffing.add_argument("--change", metavar="REV",
                         help="a revision in place of the working tree")
    diffing.add_argument("--workload", action="append",
                         help=f"repeatable; default {', '.join(DIFF_WORKLOADS)}")
    diffing.add_argument("--seeds", type=seed_range, default=range(32),
                         metavar="A-B", help="workload seeds (default 0-31)")
    diffing.add_argument("--random", type=int, default=0, metavar="N",
                         help="random texts to compare (default 0)")
    args = parser.parse_args(argv)
    if args.mode == "time" and (args.pairs < 1 or args.repeat < 1):
        parser.error("--pairs and --repeat must be at least 1")
    return args


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev: str, into: Path) -> Path:
    """`rev`'s `src/syntaxspace`, extracted under `into`."""
    archive = git("archive", "--format=tar", rev, "src/syntaxspace")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extraction_filter = tarfile.data_filter
        tar.extractall(into)
    return into / "src" / "syntaxspace"


def load(name: str, directory: Path) -> SimpleNamespace:
    """The package at `directory`, imported as `name`, and the modules the
    stages call."""
    spec = importlib.util.spec_from_file_location(
        name, directory / "__init__.py",
        submodule_search_locations=[str(directory)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{
        module: importlib.import_module(f"{name}.{module}")
        for module in ("cli", "corpus", "qa", "space", "subsume", "syntax")})


class Side:
    """One version of the package, the stages it runs, and its outputs."""

    def __init__(self, label: str, pkg: SimpleNamespace, workload,
                 snapshot_path: Path):
        self.label, self.pkg, self.workload = label, pkg, workload
        self.snapshot_path = snapshot_path
        self.sentences = self.ingest_text()
        self.normalized = self.normalize_voice()
        self.space = self.build_space()
        self.snapshot = pkg.space.serialize_space(
            self.space, pkg.corpus.serialize_pretagged(self.sentences))
        snapshot_path.write_text(self.snapshot, encoding="utf-8")
        self.answers = self.question_pass()

    def ingest_text(self):
        sentences = []
        for doc_id, text in self.workload.documents:
            sentences.extend(self.pkg.corpus.ingest_text(
                text, doc_id, first_id=len(sentences) + 1))
        return sentences

    def normalize_voice(self):
        return [self.pkg.corpus.normalize_voice(s) for s in self.sentences]

    def parse_sentence_parts(self):
        parsed = []
        for sentence in self.normalized:
            try:
                parsed.append(self.pkg.syntax.parse_sentence_parts(sentence))
            except (self.pkg.syntax.NoFiniteVerb, RecursionError):
                parsed.append(None)
        return parsed

    def build_space(self):
        return self.pkg.space.build_space(self.sentences)

    def question_pass(self):
        corpus, qa = self.pkg.corpus, self.pkg.qa
        answers = []
        for question in self.workload.questions:
            try:
                results = qa.answer(self.space, corpus.tag(question), k=TOP_K)
            except qa.NotAQuestion:
                results = None
            answers.append(None if results is None else
                           [(sid, j.score) for sid, j in results])
        return answers

    def snapshot_load(self):
        return self.pkg.cli._load_space(str(self.snapshot_path),
                                        self.pkg.cli.Config())

    def sample(self, stage: str, repeat: int) -> float:
        run = getattr(self, stage)
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        return best


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def time_stages(parent: Side, change: Side, pairs: int, repeat: int) -> dict:
    """{stage: {label: samples}}; pair i runs the parent first when i is
    even, the change first when it is odd."""
    samples = {stage: {parent.label: [], change.label: []}
               for stage in STAGES}
    for pair in range(pairs):
        order = (parent, change) if pair % 2 == 0 else (change, parent)
        for stage in STAGES:
            for side in order:
                samples[stage][side.label].append(side.sample(stage, repeat))
    return samples


def report(samples: dict, parent: str, change: str) -> None:
    print(f"{'stage':<22}{'parent ms: median [q1, q3]':>32}"
          f"{'change ms: median [q1, q3]':>32}{'change':>9}{'wins':>8}")
    for stage, by_side in samples.items():
        cells = []
        for label in (parent, change):
            q1, q2, q3 = (x * 1e3 for x in quartiles(by_side[label]))
            cells.append(f"{q2:.3f} [{q1:.3f}, {q3:.3f}]")
        before = statistics.median(by_side[parent])
        after = statistics.median(by_side[change])
        wins = sum(b < a for a, b in zip(by_side[parent], by_side[change]))
        print(f"{stage:<22}{cells[0]:>32}{cells[1]:>32}"
              f"{after / before - 1:>+9.1%}"
              f"{f'{wins}/{len(by_side[parent])}':>8}")


def outcome(call, *args):
    """What `call(*args)` returns, or the exception it raises."""
    try:
        return call(*args)
    except Exception as exc:  # NoFiniteVerb, NotAQuestion, RecursionError
        return exc


def tagging(sentence) -> tuple[str, str]:
    """The field of what the tagger made of a sentence or question."""
    return ("tokens", repr(([tuple(t) for t in sentence.tokens],
                            sentence.voice, sentence.raw)))


def observe(pkg, label: str, sentences, questions) -> dict:
    """{item: ((field, value), ...)} of one side for a corpus of tagged
    sentences and its tagged questions, as `build_space` and `qa.answer`
    see them."""
    items = {}
    for sentence in sentences:
        normalized = pkg.corpus.normalize_voice(sentence)
        parts = outcome(pkg.syntax.parse_sentence_parts, normalized)
        triples = [] if isinstance(parts, Exception) else [
            pkg.subsume.scan_syntactic_patterns(normalized, part)
            for part in parts]
        items[f"{label} sentence {sentence.sentence_id}"] = (
            tagging(sentence), ("parts", repr(parts)),
            ("triples", repr(triples)))
    space = pkg.space.build_space(sentences)
    items[label] = (("uncovered", repr(space.uncovered)), *(
        (f"{name} {what}", repr(sorted(getattr(dim, what).items())
                                if what == "edges" else dim.dropped_edges))
        for name, dim in space.dimensions.items()
        for what in ("edges", "dropped_edges")))
    for number, question in enumerate(questions, 1):
        answers = outcome(pkg.qa.answer, space, question, TOP_K)
        items[f"{label} question {number}"] = (
            tagging(question),
            ("parse", repr(outcome(pkg.qa.parse_question, question))),
            ("answers", repr(answers if isinstance(answers, Exception) else
                             [(sid, j.score) for sid, j in answers])))
    return items


def diff_inputs(args, generate):
    """(label, build) of each corpus to compare; `build(pkg)` gives that
    side's tagged sentences and questions."""
    for name in args.workload or DIFF_WORKLOADS:
        for seed in args.seeds:
            workload = generate(name, seed)

            def build(pkg, workload=workload):
                sentences = []
                for doc_id, text in workload.documents:
                    sentences.extend(pkg.corpus.ingest_text(
                        text, doc_id, first_id=len(sentences) + 1))
                return sentences, [pkg.corpus.tag(q)
                                   for q in workload.questions]
            yield f"{name} seed {seed}", build
    import generators
    rng = random.Random(0)
    left, batch = args.random, 0
    while left > 0:
        size = min(left, RANDOM_BATCH)
        if batch % 2 == 0:
            texts = []
            while len(texts) < size:
                texts += generators.random_texts(rng, RANDOM_BATCH)
            texts = texts[:size]
            asked = [generators.random_question_text(rng) for _ in range(4)]

            def build(pkg, texts=texts, asked=asked):
                tag = pkg.corpus.tag
                return ([tag(text, sentence_id=i, doc_id="random")
                         for i, text in enumerate(texts, 1)],
                        [tag(q) for q in asked])
        else:
            soups = [rng.choice(SENTENCE_STARTS) + generators.word_soup(rng)
                     + [(".", ".", ".")] for _ in range(size)]
            asked = [rng.choice(QUESTION_STARTS) + generators.word_soup(rng)
                     + [("?", "?", ".")] for _ in range(4)]

            def build(pkg, soups=soups, asked=asked):
                corpus = pkg.corpus

                def tagged(sid, rows):
                    return corpus.TaggedSentence(
                        sid, "soup", [corpus.Token(*row) for row in rows])
                return ([tagged(i, rows) for i, rows in enumerate(soups, 1)],
                        [tagged(0, rows) for rows in asked])
        yield f"random {batch}", build
        left -= size
        batch += 1


# a soup starts a sentence, or is the object of one
SENTENCE_STARTS = [[], [("The", "the", "DT"), ("team", "team", "NN"),
                        ("builds", "build", "VBZ")]]
QUESTION_STARTS = [[("What", "what", "WP")], [("Who", "who", "WP")],
                   [("Which", "which", "WDT")], [("Does", "do", "VBZ")],
                   [("How", "how", "WRB"), ("does", "do", "VBZ")]]


def diff(parent: SimpleNamespace, change: SimpleNamespace,
         corpora) -> tuple[dict, int]:
    """{first differing field: [(item, parent value, change value)]}, and
    the number of items compared; an item only one side has differs in
    the field "item"."""
    groups, compared = {}, 0
    for label, build in corpora:
        before = observe(parent, label, *build(parent))
        after = observe(change, label, *build(change))
        for item in [*before, *(item for item in after if item not in before)]:
            compared += 1
            if item not in before or item not in after:
                groups.setdefault("item", []).append(
                    (item, str(item in before), str(item in after)))
                continue
            for (field, old), (_, new) in zip(before[item], after[item]):
                if old != new:
                    groups.setdefault(field, []).append((item, old, new))
                    break
    return groups, compared


def report_diff(groups: dict, compared: int) -> None:
    differing = sum(len(found) for found in groups.values())
    print(f"items compared: {compared}; differing: {differing}")
    for field, found in sorted(groups.items()):
        print(f"first differing field {field!r}: {len(found)} items")
        for item, old, new in found[:SHOWN]:
            print(f"  {item}\n    parent: {old[:400]}\n    change: {new[:400]}")


def pin_cpu():
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(SRC), str(PERFBENCH), str(TESTS)]
    import inputs
    import run
    workloads = run.load_workloads()
    names = [args.workload] if args.mode == "time" \
        else args.workload or DIFF_WORKLOADS
    for name in names:
        if name not in workloads:
            print(f"error: unknown workload {name!r}; "
                  f"known: {sorted(workloads)}", file=sys.stderr)
            return 2
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ab-", dir=run.WORK))
    try:
        parent = load("syntaxspace_parent", export(args.parent, work / "parent"))
        change = load("syntaxspace_change", SRC / "syntaxspace"
                      if args.change is None
                      else export(args.change, work / "change"))
        sides = (f"parent {args.parent}, change "
                 f"{args.change or 'working tree'}")
        if args.mode == "diff":
            print(f"ab diff: {sides}; workloads {', '.join(names)} seeds "
                  f"{args.seeds.start}-{args.seeds.stop - 1}; {args.random} "
                  f"random texts")
            groups, compared = diff(parent, change, diff_inputs(
                args, lambda name, seed: inputs.generate(
                    workloads[name]["generator"], seed)))
            report_diff(groups, compared)
            return 1 if groups else 0
        seed = args.seed % run.RECORDED_SEEDS
        workload = inputs.generate(workloads[args.workload]["generator"], seed)
        pin_cpu()
        parent = Side("parent", parent, workload, work / "parent.snap")
        change = Side("change", change, workload, work / "change.snap")
        print(f"ab time: {args.workload} seed {seed}; {sides}; "
              f"{args.pairs} pairs, each sample the minimum of "
              f"{args.repeat} runs")
        for what in ("snapshot", "answers"):
            if getattr(parent, what) != getattr(change, what):
                print(f"refusing to time: the {what} differ",
                      file=sys.stderr)
                return 1
        print(f"outputs equal: snapshot {len(parent.snapshot)} bytes, "
              f"answers to {len(parent.answers)} questions")
        collecting = gc.isenabled()
        gc.disable()
        try:
            samples = time_stages(parent, change, args.pairs, args.repeat)
        finally:
            if collecting:
                gc.enable()
        report(samples, parent.label, change.label)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
