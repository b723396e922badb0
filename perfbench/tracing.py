"""Traced run: per-layer time and counts, measured from outside the package.

Spans (name, start, end, parent, phase) are kept in memory around calls into
each module's public functions and written out when the run ends.  Calls
that the package makes internally are reached by rebinding module
attributes for the duration of the traced phases:

* `subsume.compare_elements`, bound in `subsume`, `space` and `qa`, timed at
  the outermost call only (it recurses through clauses and adverbials);
* `subsume.phrase_subclass`, counted but not timed (millions of calls);
* `space.transitive_reduce`, `space.search` (also bound in `qa`),
  `qa.parse_question`, `qa.candidate_search`, `qa.match_answer`;
* `corpus.split_sentences` and `corpus.tag`, as called by `ingest_text`.

The build is decomposed into the public calls `build_space` makes, in its
order, and must reproduce its snapshot byte for byte; otherwise the
per-layer numbers would describe a different program.  Tracing overhead is
reported as traced minus untraced build time and query p50.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import run
from syntaxspace import corpus, evaluation, qa, subsume, syntax
from syntaxspace import space as space_mod

DIMENSIONS = space_mod.DIMENSIONS


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, phase)
        self.open: list[int] = []
        self.phase = "setup"
        self.compare_calls = defaultdict(int)
        self.compare_s = defaultdict(float)
        self.phrase_subclass_calls = defaultdict(int)
        self.observed = defaultdict(list)  # span name -> observe(result)
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.open[-1] if self.open else None
        self.spans.append(None)
        self.open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent,
                                 self.phase)
            self.open.pop()

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                self.observed[name].append(observe(result))
            return result
        return traced

    def wrap_compare(self, fn):
        depth = [0]

        def compare_elements(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] = 0
                self.compare_s[self.phase] += time.perf_counter() - start
                self.compare_calls[self.phase] += 1
        return compare_elements

    def wrap_count(self, fn):
        def phrase_subclass(*args, **kwargs):
            self.phrase_subclass_calls[self.phase] += 1
            return fn(*args, **kwargs)
        return phrase_subclass

    def install(self):
        compare = self.wrap_compare(subsume.compare_elements)
        search = self.wrap("space.search", space_mod.search)
        bindings = [
            (subsume, "compare_elements", compare),
            (space_mod, "compare_elements", compare),
            (qa, "compare_elements", compare),
            (subsume, "phrase_subclass",
             self.wrap_count(subsume.phrase_subclass)),
            (space_mod, "transitive_reduce",
             self.wrap("space.transitive_reduce",
                       space_mod.transitive_reduce)),
            (space_mod, "search", search),
            (qa, "search", search),
            (qa, "parse_question",
             self.wrap("qa.parse_question", qa.parse_question)),
            (qa, "candidate_search",
             self.wrap("qa.candidate_search", qa.candidate_search, len)),
            (qa, "match_answer",
             self.wrap("qa.match_answer", qa.match_answer,
                       lambda judgment: judgment.accepted)),
            (corpus, "split_sentences",
             self.wrap("corpus.split_sentences", corpus.split_sentences)),
            (corpus, "tag", self.wrap("corpus.tag", corpus.tag)),
        ]
        for module, attr, replacement in bindings:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def tracing(self, phase: str):
        """Rebind the traced functions while the block runs."""
        self.phase = phase
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- reading the spans ------------------------------------------------

    def total(self, name: str, phase: str | None = None) -> float:
        return sum(end - start for n, start, end, _, p in self.spans
                   if n == name and (phase is None or p == phase))

    def count(self, name: str, phase: str | None = None) -> int:
        return sum(1 for n, _, _, _, p in self.spans
                   if n == name and (phase is None or p == phase))

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the time their children cover
        (children of one span run one after another, never overlapping)."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return sum(end - start - child_time[i]
                   for i, (n, start, end, _, _) in enumerate(self.spans)
                   if n == name)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"],
                       "spans": self.spans}, handle)


def decomposed_build(tagged, tracer: Tracer):
    """`space.build_space`, one public call at a time, in its order."""
    synonyms = subsume.SynonymTable()
    parsed, records, uncovered, triples = {}, {}, [], []
    for raw in tagged:
        with tracer.span("corpus.normalize_voice"):
            sentence = corpus.normalize_voice(raw)
        records[sentence.sentence_id] = space_mod.SentenceRecord(
            sentence.sentence_id, sentence.doc_id, raw.surface_text(),
            sentence.voice, raw.lemmas())
        try:
            with tracer.span("syntax.parse_sentence_parts"):
                parts = syntax.parse_sentence_parts(sentence)
        except syntax.NoFiniteVerb:
            uncovered.append(sentence.sentence_id)
            continue
        parsed[sentence.sentence_id] = parts
        for part in parts:
            with tracer.span("subsume.scan_syntactic_patterns"):
                triples.extend(subsume.scan_syntactic_patterns(sentence, part))
    with tracer.span("subsume.harvest_edges"):
        edge_set = subsume.harvest_edges(triples)
    items = {name: [] for name in DIMENSIONS}
    for sid in sorted(parsed):
        for part in parsed[sid]:
            for name, elements in space_mod.sentence_elements(part).items():
                items[name].extend((sid, e) for e in elements)
    dimensions = {}
    for name in DIMENSIONS:
        with tracer.span(f"space.build_dimension.{name}"):
            dimensions[name] = space_mod.build_dimension(name, items[name],
                                                         edge_set)
    return space_mod.ResourceSpace(dimensions, parsed, records, uncovered,
                                   edge_set, synonyms)


def _question_pass(space, questions):
    latencies, answers = [], []
    for question in questions:
        start = time.perf_counter()
        results = run.ask(space, question)
        latencies.append(time.perf_counter() - start)
        answers.append(None if results is None else run.answer_rows(results))
    return latencies, answers


def traced_run(args, workload, recorded, ledger, host) -> dict:
    label = f"{args.workload}/seed {args.seed} (traced)"
    tracer = Tracer()

    def calibrate():
        # a few calibrations between phases; their median scales the run
        for _ in range(5):
            host.sample()

    calibrate()
    with tracer.tracing("ingest"):
        sentences = run.ingest(workload)
    ledger.check(len(sentences) == workload.sentence_count,
                 f"{label}: split {len(sentences)} sentences, "
                 f"generated {workload.sentence_count}")
    corpus_text = corpus.serialize_pretagged(sentences)
    calibrate()

    start = time.perf_counter()
    reference = space_mod.build_space(sentences)
    untraced_build = time.perf_counter() - start
    reference_snapshot = space_mod.serialize_space(reference, corpus_text)
    calibrate()

    with tracer.tracing("build"):
        start = time.perf_counter()
        space = decomposed_build(sentences, tracer)
        traced_build = time.perf_counter() - start
        with tracer.span("space.serialize_space"):
            snapshot = space_mod.serialize_space(space, corpus_text)
    ledger.check(snapshot == reference_snapshot,
                 f"{label}: decomposed build differs from build_space")

    untraced_latencies, reference_answers = _question_pass(
        reference, workload.questions)
    with tracer.tracing("query"):
        latencies, answers = _question_pass(space, workload.questions)
    for question, result in zip(workload.questions, answers):
        ledger.check(result is not None, f"{label}: not a question: "
                                         f"{question!r}")
    ledger.check(answers == reference_answers,
                 f"{label}: traced answers differ")
    calibrate()
    judgments = tracer.observed["qa.match_answer"]
    candidates = tracer.observed["qa.candidate_search"]
    answered = sum(1 for rows in answers if rows)

    baseline_s = defaultdict(float)
    slist = run.baseline_corpus(space)

    def timer(method, seconds):
        baseline_s[method] += seconds
    rankings = [run.rank_all(q, slist, timer)
                for q in workload.baseline_questions]
    run.compare_digest(ledger, run.outputs_digest(snapshot, answers,
                                                  rankings),
                       recorded, label)
    calibrate()

    # the CLI's cold path: interpreter start + import, then _load_space's
    # public calls (read, corpus_section, parse_pretagged, build_space)
    startup = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import syntaxspace.cli"],
                       check=True, cwd=run.ROOT, env=run.subprocess_env(),
                       timeout=run.SUBPROCESS_TIMEOUT)
        startup.append(time.perf_counter() - start)
    run.WORK.mkdir(exist_ok=True)
    snapshot_path = run.WORK / f"{args.workload}-{args.seed}.snap"
    snapshot_path.write_text(snapshot, encoding="utf-8")
    start = time.perf_counter()
    text = snapshot_path.read_text(encoding="utf-8")
    loaded_corpus = space_mod.corpus_section(text)
    parse_start = time.perf_counter()
    loaded = corpus.parse_pretagged(loaded_corpus)
    parse_pretagged_s = time.perf_counter() - parse_start
    space_mod.build_space(loaded)
    load_space_s = time.perf_counter() - start

    tracer.dump(run.WORK / f"trace-{args.workload}-{args.seed}.json")

    metrics = {
        "corpus.split_s": (tracer.total("corpus.split_sentences", "ingest"),
                           "s"),
        "corpus.tag_s": (tracer.total("corpus.tag", "ingest"), "s"),
        "corpus.tokens": (sum(len(s.tokens) for s in sentences), "count"),
        "corpus.normalize_voice_s": (tracer.total("corpus.normalize_voice"),
                                     "s"),
        "corpus.passives_converted": (
            sum(1 for r in space.records.values()
                if r.voice == corpus.PASSIVE_CONVERTED), "count"),
        "corpus.parse_pretagged_s": (parse_pretagged_s, "s"),
        "syntax.parse_s": (tracer.total("syntax.parse_sentence_parts"), "s"),
        "syntax.uncovered": (len(space.uncovered), "count"),
        "subsume.scan_s": (tracer.total("subsume.scan_syntactic_patterns"),
                           "s"),
        "subsume.harvest_s": (tracer.total("subsume.harvest_edges"), "s"),
        "subsume.harvested_edges": (len(space.edge_set), "count"),
        "subsume.harvest_conflicts": (len(space.edge_set.dropped), "count"),
    }
    for phase in ("build", "query"):
        metrics[f"subsume.compare_calls.{phase}"] = (
            tracer.compare_calls[phase], "count")
        metrics[f"subsume.phrase_subclass_calls.{phase}"] = (
            tracer.phrase_subclass_calls[phase], "count")
        metrics[f"subsume.compare_s.{phase}"] = (tracer.compare_s[phase],
                                                 "s")
    for name in DIMENSIONS:
        metrics[f"space.build_dimension_s.{name}"] = (
            tracer.total(f"space.build_dimension.{name}"), "s")
    metrics["space.transitive_reduce_s"] = (
        tracer.total("space.transitive_reduce"), "s")
    for name in DIMENSIONS:
        metrics[f"space.nodes.{name}"] = (len(space.dimensions[name].nodes),
                                          "count")
        metrics[f"space.edges.{name}"] = (len(space.dimensions[name].edges),
                                          "count")
    metrics.update({
        "space.cycle_drops": (sum(len(d.dropped_edges)
                                  for d in space.dimensions.values()),
                              "count"),
        "space.serialize_s": (tracer.total("space.serialize_space"), "s"),
        "space.search_s": (tracer.total("space.search", "query"), "s"),
        "space.search_calls": (tracer.count("space.search", "query"),
                               "count"),
        "qa.parse_question_s": (tracer.total("qa.parse_question"), "s"),
        "qa.candidate_search_s": (tracer.self_time("qa.candidate_search"),
                                  "s"),
        "qa.candidates_per_q": (sum(candidates) / len(candidates), "count"),
        "qa.match_s": (tracer.total("qa.match_answer"), "s"),
        "qa.match_calls": (len(judgments), "count"),
        "qa.accept_ratio": (sum(judgments) / max(len(judgments), 1),
                            "ratio"),
        "qa.answered_share": (answered / len(answers), "ratio"),
    })
    for method in evaluation.BASELINE_METHODS:
        metrics[f"evaluation.baseline_rank_s.{method}"] = (
            baseline_s[method], "s")
    metrics.update({
        "cli.startup_s": (run.median(startup), "s"),
        "cli.load_space_s": (load_space_s, "s"),
        "trace.overhead.build_s": (traced_build - untraced_build, "s"),
        "trace.overhead.query_p50_ms": (
            (run.percentile(latencies, 50)
             - run.percentile(untraced_latencies, 50)) * 1e3, "ms"),
    })
    return metrics
