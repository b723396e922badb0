"""Record the output digests that every benchmark run is checked against.

    python3 perfbench/record.py --workload hearst-build [--seeds 0-31]

Runs each input set once, untimed, and stores the sha256 of the snapshot
bytes, of the top-k answer lists and of each baseline's rankings in
`digests/<workload>.json`.  Record them from the code whose outputs are the
reference (the benchmark was defined against the seed code); a later change
that alters outputs on purpose must re-record them and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def record(workload_name: str, seed: int) -> dict:
    from syntaxspace import corpus, space as space_mod
    import inputs
    spec = run.load_workloads()[workload_name]
    workload = inputs.generate(spec["generator"], seed)
    sentences = run.ingest(workload)
    if len(sentences) != workload.sentence_count:
        raise SystemExit(f"{workload_name}/{seed}: split {len(sentences)} "
                         f"sentences, generated {workload.sentence_count}")
    space = space_mod.build_space(sentences)
    snapshot = space_mod.serialize_space(
        space, corpus.serialize_pretagged(sentences))
    answers = []
    for question in workload.questions:
        results = run.ask(space, question)
        if results is None:
            raise SystemExit(f"{workload_name}/{seed}: not a question: "
                             f"{question!r}")
        answers.append(run.answer_rows(results))
    slist = run.baseline_corpus(space)
    rankings = [run.rank_all(q, slist) for q in workload.baseline_questions]
    return run.outputs_digest(snapshot, answers, rankings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default=f"0-{run.RECORDED_SEEDS - 1}",
                        help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    run.pin_hash_seed()
    sys.path.insert(0, str(run.SRC))
    first, last = (int(x) for x in args.seeds.split("-"))
    path = run.digest_path(args.workload)
    digests = json.loads(path.read_text(encoding="utf-8")) \
        if path.exists() else {}
    for seed in range(first, last + 1):
        digest = record(args.workload, seed)
        digests[str(seed)] = digest
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"{args.workload} seed {seed}: {digest['snapshot'][:16]}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
