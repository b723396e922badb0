"""Command-line front door: ingest -> build -> inspect -> query -> evaluate.

Snapshots are deterministic plain text so that identical inputs produce
byte-identical files.  Exit codes: 0 ok, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import evaluation, qa, space as space_mod
from .corpus import (MalformedLine, TaggedSentence, ingest_text,
                     load_pretagged, parse_pretagged, serialize_pretagged,
                     tag)
from .space import (ResourceSpace, build_space, check_normal_forms,
                    corpus_section, coverage, serialize_space, space_stats)
from .subsume import SynonymTable
from .syntax import dump_parse, parse_sentence_parts, NoFiniteVerb

USAGE_ERROR = 1
DATA_ERROR = 2

CONFIG_ENV = "SYNTAXSPACE_CONFIG"

TAGGERS = ("builtin", "pretagged")


@dataclass
class Config:
    tagger: str = "builtin"  # one of TAGGERS
    synonym_path: str | None = None
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    gst_min_tile: int = 2
    top_k: int = 5


# accepted JSON types per Config field; a bool is never a number
_CONFIG_TYPES = {
    "tagger": (str,),
    "synonym_path": (str, type(None)),
    "bm25_k1": (int, float),
    "bm25_b": (int, float),
    "gst_min_tile": (int,),
    "top_k": (int,),
}


def load_config(args) -> Config:
    config = Config()
    path = os.environ.get(CONFIG_ENV)
    if path:
        with open(path, encoding="utf-8") as handle:
            values = json.load(handle)
        if not isinstance(values, dict):
            raise ValueError(f"{path}: top level must be a JSON object")
        for key, value in values.items():
            if key not in _CONFIG_TYPES:
                continue
            if isinstance(value, bool) \
                    or not isinstance(value, _CONFIG_TYPES[key]):
                raise ValueError(f"{path}: {key} has the wrong type "
                                 f"({type(value).__name__})")
            setattr(config, key, value)
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if config.top_k < 1:
        raise ValueError("top_k must be >= 1")
    # exact int/float comparisons: they also refuse nan, inf and ints too
    # large for a float
    if not 0 <= config.bm25_k1 <= sys.float_info.max:
        raise ValueError(f"bm25_k1 must be finite and >= 0, "
                         f"not {config.bm25_k1}")
    if not 0 <= config.bm25_b <= 1:
        raise ValueError(f"bm25_b must be in [0, 1], not {config.bm25_b}")
    if config.gst_min_tile < 1:
        raise ValueError("gst_min_tile must be >= 1")
    if config.tagger not in TAGGERS:
        raise ValueError(f"tagger must be one of {', '.join(TAGGERS)}, "
                         f"not {config.tagger!r}")
    return config


def _load_synonyms(config: Config) -> SynonymTable:
    if config.synonym_path:
        return SynonymTable.load(config.synonym_path)
    return SynonymTable()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args, config: Config) -> int:
    sentences: list[TaggedSentence] = []
    next_id = 1
    for path in args.paths:
        if not os.path.exists(path):
            print(f"ingest: no such file: {path}", file=sys.stderr)
            return DATA_ERROR
        if config.tagger == "pretagged":
            loaded = load_pretagged(path)
            for s in loaded:
                s.sentence_id = next_id
                sentences.append(s)
                next_id += 1
        else:
            doc_id = os.path.splitext(os.path.basename(path))[0]
            with open(path, encoding="utf-8") as handle:
                raw = handle.read()
            for s in ingest_text(raw, doc_id, first_id=next_id):
                sentences.append(s)
                next_id += 1
    text = serialize_pretagged(sentences)
    _write(args.output, text)
    print(f"ingested {len(sentences)} sentences -> {args.output}")
    return 0


def cmd_build(args, config: Config) -> int:
    corpus_text = _read(args.corpus)
    sentences = parse_pretagged(corpus_text)
    if not sentences:
        print("build: empty corpus, writing empty space", file=sys.stderr)
    space = build_space(sentences, _load_synonyms(config))
    snapshot = serialize_space(space, corpus_text)
    _write(args.output, snapshot)
    for line in space_stats(space):
        print(line)
    if space.uncovered:
        print(f"warning: {len(space.uncovered)} sentences without an action: "
              f"{space.uncovered}", file=sys.stderr)
    print(f"space -> {args.output}")
    return 0


def cmd_stats(args, config: Config) -> int:
    space = _load_space(args.space, config)
    for line in space_stats(space):
        print(line)
    print()
    for line in coverage(space).lines():
        print(line)
    print()
    for line in check_normal_forms(space).lines():
        print(line)
    return 0


def cmd_query(args, config: Config) -> int:
    space = _load_space(args.space, config)
    try:
        question = tag(args.question)
        results = qa.answer(space, question, k=config.top_k)
    except qa.NotAQuestion as exc:
        print(f"query: {exc}", file=sys.stderr)
        return DATA_ERROR
    for rank, (sid, judgment) in enumerate(results, start=1):
        record = space.records[sid]
        score = ",".join(str(x) for x in judgment.score)
        print(f"{rank}\t{sid}\t{record.doc_id}\t({score})\t{record.text}")
        if args.explain:
            for slot in sorted(judgment.matched):
                print(f"\t{slot}: {judgment.matched[slot]}")
            if judgment.affirmed is not None:
                print(f"\taffirmed: {judgment.affirmed}")
            if record.voice != "active":
                print(f"\tvoice: {record.voice}")
    if not results:
        print("no answers")
    return 0


def cmd_dump_edges(args, config: Config) -> int:
    space = _load_space(args.space, config)
    for name in space_mod.DIMENSIONS:
        dim = space.dimensions[name]
        for child, parent in sorted(dim.edges):
            source, evidence = dim.edge_meta[(child, parent)]
            ev = "" if evidence is None else evidence
            print(f"{child}\t{parent}\t{name}\t{source}\t{ev}")
    return 0


def cmd_dump_parse(args, config: Config) -> int:
    corpus_text = _read(args.corpus)
    if corpus_text.lstrip().startswith("#space"):
        corpus_text = _snapshot_corpus(args.corpus, corpus_text)
    for sentence in parse_pretagged(corpus_text):
        print(f"# sentence {sentence.sentence_id}: {sentence.surface_text()}")
        try:
            for part in parse_sentence_parts(sentence):
                print(dump_parse(part))
        except NoFiniteVerb as exc:
            print(f"# unparsed: {exc}")
        print()
    return 0


def cmd_eval(args, config: Config) -> int:
    space = _load_space(args.space, config)
    if args.what == "relations":
        gold = evaluation.load_gold_relations(args.gold)
        predicted = evaluation.space_closure(space)
        report = evaluation.relation_prf(gold, predicted)
        print("relations " + report.line())
        return 0
    gold = evaluation.load_gold_answers(args.gold)
    unknown = set().union(*gold.values(), set()) - set(space.records)
    if unknown:
        print(f"warning: gold answer ids not in corpus: {sorted(unknown)}",
              file=sys.stderr)
    if args.what == "qa":
        system = {}
        for question in sorted(gold):
            try:
                results = qa.answer(space, tag(question), k=config.top_k)
            except qa.NotAQuestion:
                results = []
            system[question] = [sid for sid, _ in results]
        precision, correct, returned = evaluation.qa_precision(
            gold, system, config.top_k)
        shown = "undefined" if precision is None else f"{precision:.2%}"
        print(f"qa precision@{config.top_k} = {shown} ({correct}/{returned})")
        return 0
    if args.what == "baselines":
        index = evaluation.BaselineIndex(
            (sid, space.records[sid].lemmas) for sid in space.sentence_ids())
        bconfig = evaluation.BaselineConfig(config.bm25_k1, config.bm25_b,
                                            config.gst_min_tile)
        questions = {question: tag(question).lemmas()
                     for question in sorted(gold)}
        for method in evaluation.BASELINE_METHODS:
            system = {}
            for question, q_lemmas in questions.items():
                ranked = evaluation.baseline_rank(method, q_lemmas, index,
                                                  bconfig)
                system[question] = ranked[:config.top_k]
            precision, correct, returned = evaluation.qa_precision(
                gold, system, config.top_k)
            shown = "undefined" if precision is None else f"{precision:.2%}"
            print(f"{method:<14} precision@{config.top_k} = {shown} "
                  f"({correct}/{returned})")
        return 0
    print(f"eval: unknown target {args.what}", file=sys.stderr)
    return USAGE_ERROR


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _snapshot_corpus(path: str, snapshot: str) -> str:
    try:
        return corpus_section(snapshot)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_space(path: str, config: Config) -> ResourceSpace:
    """Rebuild the space from the snapshot's corpus; the snapshot must be
    exactly what `build` writes for that corpus."""
    snapshot = _read(path)
    corpus_text = _snapshot_corpus(path, snapshot)
    space = build_space(parse_pretagged(corpus_text), _load_synonyms(config))
    if serialize_space(space, corpus_text) != snapshot:
        raise ValueError(f"{path}: snapshot does not match its corpus "
                         f"(rebuild it)")
    return space


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syntaxspace",
        description="Syntax-dimension extraction and question answering")
    parser.add_argument("--tagger", choices=TAGGERS)
    parser.add_argument("--synonyms", dest="synonym_path")
    parser.add_argument("--bm25-k1", dest="bm25_k1", type=float)
    parser.add_argument("--bm25-b", dest="bm25_b", type=float)
    parser.add_argument("--gst-min-tile", dest="gst_min_tile", type=int)
    parser.add_argument("-k", "--top-k", dest="top_k", type=int)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="tag raw or pre-tagged files")
    p.add_argument("paths", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="build the four dimensions")
    p.add_argument("corpus")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="node/edge counts, coverage, normal forms")
    p.add_argument("space")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("query", help="answer a natural-language question")
    p.add_argument("space")
    p.add_argument("question")
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("dump-edges", help="subclass edges as TSV")
    p.add_argument("space")
    p.set_defaults(func=cmd_dump_edges)

    p = sub.add_parser("dump-parse", help="golden-format parse dumps")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_dump_parse)

    p = sub.add_parser("eval", help="metrics against gold files")
    p.add_argument("what", choices=("relations", "qa", "baselines"))
    p.add_argument("space")
    p.add_argument("gold")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        config = load_config(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args, config)
    except MalformedLine as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except RecursionError:  # the parser recurses per coordinated item
        print("error: a sentence or question nests too deeply to parse",
              file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
