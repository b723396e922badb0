"""In-process A/B of two versions of the package on a benchmark workload.

    python3 tools/ab.py time --parent HEAD --workload plain-longdoc --seed 5

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
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import os
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
TOP_K = 5
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
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.repeat < 1:
        parser.error("--pairs and --repeat must be at least 1")
    return args


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
        for module in ("cli", "corpus", "qa", "space", "syntax")})


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


def pin_cpu():
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(SRC), str(PERFBENCH)]
    import inputs
    import run
    workloads = run.load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads)}", file=sys.stderr)
        return 2
    seed = args.seed % run.RECORDED_SEEDS
    workload = inputs.generate(workloads[args.workload]["generator"], seed)
    pin_cpu()
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ab-", dir=run.WORK))
    try:
        parent_dir = export(args.parent, work / "parent")
        change_dir = SRC / "syntaxspace" if args.change is None \
            else export(args.change, work / "change")
        parent = Side("parent", load("syntaxspace_parent", parent_dir),
                      workload, work / "parent.snap")
        change = Side("change", load("syntaxspace_change", change_dir),
                      workload, work / "change.snap")
        print(f"ab time: {args.workload} seed {seed}; parent "
              f"{args.parent}, change {args.change or 'working tree'}; "
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
