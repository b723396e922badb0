"""syntaxspace benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload hearst-build --seed 3 \
        --seconds 30 --trace 0

Drives the package from outside, the way a user does: ingest raw text,
`build_space`, serialize the snapshot, answer a closed loop of questions,
run cold `syntaxspace query` subprocesses and rank the corpus with the seven
baselines.  Outputs are checked against digests recorded from the seed code
(`digests/`, written by `record.py`).  `--trace 0` prints the end-to-end
metrics; `--trace 1` makes a separate traced run (see `tracing.py`) and
prints the per-layer metrics.

Load model: one process, one client, no threads.  Questions form a closed
loop (each is sent when the previous one has returned); CLI subprocesses run
one at a time.  Phases run interleaved in rounds (see `timed_run`); each
round makes one whole pass over the question set.  The run lasts at least
`--seconds` and at least the workload's `min_rounds` (`workloads.json`).

`--seed` selects one of RECORDED_SEEDS input sets (seed modulo
RECORDED_SEEDS), so that every run is checked against recorded digests.
"""

from __future__ import annotations

import argparse
import difflib
import gc
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RECORDED_SEEDS = 32
# The seed code's bm25 ranking adds floats in string-hash order
# (`for w in set(q)` in evaluation._bm25), so near-ties can rank differently
# from one interpreter to the next.  Every benchmark process runs under one
# fixed hash seed so that outputs, and the digests they are checked
# against, are reproducible.
HASH_SEED = "0"
TOP_K = 5
SUBPROCESS_TIMEOUT = 150
# Host speed.  The benchmark shares its machine, and the same work runs up
# to a third slower for seconds to minutes at a time.  A fixed pure-Python
# workload (`calibration_sample`: dict, string, sort, difflib and regex
# work, none of it from the package) is timed between tasks, and each time
# sample is scaled by CALIBRATION_REF_S / (median of the CALIBRATION_WINDOW
# calibrations around it): times are seconds on a host where the
# calibration takes CALIBRATION_REF_S.  The package cannot change the
# calibration, so the scale cancels host drift and nothing else.  Unscaled
# values are printed as `raw.*` lines.
CALIBRATION_REF_S = 0.040
CALIBRATION_WINDOW = 6
_CALIBRATION_WORDS = [f"w{i % 97}" for i in range(400)]
_CALIBRATION_TEXT = "Some words, e.g. these. " * 2500
_CALIBRATION_TAIL = re.compile(r"[A-Za-z.]+$")


def pin_hash_seed():
    """Re-execute this script under HASH_SEED unless already running so."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def pin_cpu():
    """Keep this process and its children (CLI queries, set-up probes) on
    one CPU, the one the calibration measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workloads() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def digest_path(workload: str) -> Path:
    return HERE / "digests" / f"{workload}.json"


def load_digest(workload: str, seed: int) -> dict | None:
    path = digest_path(workload)
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(str(seed))


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def sha(value) -> str:
    return hashlib.sha256(
        json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def calibration_sample() -> float:
    # with the collector on, the calibration's allocations would trigger
    # collections whose cost grows with the package's heap
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for i in range(20000):
            key = f"w{i % 977}x{i % 13}"
            counts[key] = counts.get(key, 0) + len(key) + (i & 7)
        sorted(counts.items(), key=lambda item: (item[1], item[0]))
        words = _CALIBRATION_WORDS
        for shift in range(1, 9):
            difflib.SequenceMatcher(None, words, words[shift:] + words[:shift],
                                    autojunk=False).get_opcodes()
        # memory-bound part: regex scans over copies of a long string
        for cut in (1, 2, 3):
            _CALIBRATION_TAIL.search(_CALIBRATION_TEXT[:-cut])
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Calibration samples taken through a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        self.samples.append(calibration_sample())
        return self.samples[-1]

    def scale(self) -> float:
        """Scale for the run as a whole, from the median calibration."""
        return CALIBRATION_REF_S / median(self.samples)

    def scale_near(self, task: int, width: int = CALIBRATION_WINDOW) -> float:
        """Scale for a sample taken between calibrations task - 1 and task,
        from the median of the `width` calibrations around it."""
        low = max(0, min(task - width // 2, len(self.samples) - width))
        return CALIBRATION_REF_S / median(self.samples[low:low + width])


class Ledger:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)
        return ok


# ---------------------------------------------------------------------------
# Phases shared by the timed run, the traced run and digest recording
# ---------------------------------------------------------------------------


def ingest(workload) -> list:
    from syntaxspace import corpus
    sentences = []
    for doc_id, text in workload.documents:
        sentences.extend(corpus.ingest_text(text, doc_id,
                                            first_id=len(sentences) + 1))
    return sentences


def answer_rows(results) -> list:
    return [[sid, list(judgment.score)] for sid, judgment in results]


def ask(space, question: str):
    """tag + answer; None when the question is rejected."""
    from syntaxspace import corpus, qa
    try:
        return qa.answer(space, corpus.tag(question), k=TOP_K)
    except qa.NotAQuestion:
        return None


def baseline_corpus(space) -> list:
    return [(sid, list(space.records[sid].lemmas))
            for sid in space.sentence_ids()]


def rank_all(question: str, slist: list, timer=None) -> dict:
    """All seven baseline rankings of the corpus for one question."""
    from syntaxspace import corpus, evaluation
    lemmas = corpus.tag(question).lemmas()
    config = evaluation.BaselineConfig()
    out = {}
    for method in evaluation.BASELINE_METHODS:
        start = time.perf_counter()
        out[method] = evaluation.baseline_rank(method, lemmas, slist, config)
        if timer is not None:
            timer(method, time.perf_counter() - start)
    return out


def outputs_digest(snapshot: str, answers: list, rankings: list) -> dict:
    """Digests of everything the benchmark checks: snapshot bytes, top-k
    answer lists, and the seven baseline rankings per question."""
    methods = sorted(rankings[0]) if rankings else []
    return {
        "snapshot": hashlib.sha256(snapshot.encode()).hexdigest(),
        "answers": sha(answers),
        "baselines": {m: sha([r[m] for r in rankings]) for m in methods},
    }


def compare_digest(ledger: Ledger, got: dict, recorded: dict | None,
                   label: str):
    if not ledger.check(recorded is not None, f"{label}: no recorded digest"):
        return
    for key in ("snapshot", "answers"):
        ledger.check(got[key] == recorded[key], f"{label}: {key} digest")
    for method, digest in recorded["baselines"].items():
        ledger.check(got["baselines"].get(method) == digest,
                     f"{label}: {method} ranking digest")


def setup_probe(params: dict, seed: int) -> float:
    start = time.perf_counter()
    import syntaxspace  # noqa: F401  (import cost is part of set-up)
    import inputs
    inputs.generate(params, seed)
    return time.perf_counter() - start


def setup_sample(args) -> float:
    """One set-up probe in a fresh interpreter (import + input generation)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=subprocess_env(), timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def cli_query(snapshot_path: Path, question: str):
    """Cold `syntaxspace query`; returns (seconds, exit code, rows)."""
    cmd = [sys.executable, "-m", "syntaxspace.cli", "query",
           str(snapshot_path), question]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=subprocess_env(), timeout=SUBPROCESS_TIMEOUT)
    elapsed = time.perf_counter() - start
    rows = []
    for line in proc.stdout.splitlines():
        fields = line.split("\t")
        if len(fields) == 5:
            score = [int(x) for x in fields[3].strip("()").split(",")]
            rows.append([int(fields[1]), score])
    return elapsed, proc.returncode, rows


# ---------------------------------------------------------------------------
# Timed (untraced) run
# ---------------------------------------------------------------------------


def round_schedule(counts: dict[str, int]) -> list[str]:
    """One round's tasks, each kind spread evenly over the round: the k-th
    of n tasks of a kind sits at fraction (k + 0.5) / n.  Ingest and build
    come first, since the other tasks need the space."""
    slots = [((k + 0.5) / n, name) for name, n in counts.items()
             for k in range(n)]
    order = [name for _, name in sorted(slots)]
    for first in ("build", "ingest"):
        order.remove(first)
        order.insert(0, first)
    return order


def timed_run(args, spec: dict, workload, recorded: dict | None,
              ledger: Ledger, host: HostSpeed) -> tuple[dict, dict]:
    """Rounds of interleaved tasks until at least `min_rounds` have run and
    `--seconds` have passed.  Every metric takes many samples spread over
    the whole run, each scaled by the calibrations around it, and reports
    their median (or percentile).  Returns scaled and unscaled metrics."""
    from syntaxspace import corpus, space as space_mod

    per_round = spec["per_round"]
    questions = workload.questions
    batches = per_round["query_batches"]
    label = f"{args.workload}/seed {args.seed}"
    samples: dict[str, list[float]] = {
        name: [] for name in ("setup", "ingest", "build", "query", "cli",
                              "baselines")}
    WORK.mkdir(exist_ok=True)
    snapshot_path = WORK / f"{args.workload}-{args.seed}.snap"
    state = {"snapshot": None, "space": None}
    answers: list = [None] * len(questions)  # first answer per question
    rankings: dict[int, dict] = {}
    counters = {"query": 0, "cli": 0, "baselines": 0}

    def take(kind: str) -> int:
        index = counters[kind]
        counters[kind] += 1
        return index

    def do_setup():
        samples["setup"].append(setup_sample(args))

    def do_ingest():
        start = time.perf_counter()
        sentences = ingest(workload)
        samples["ingest"].append(time.perf_counter() - start)
        ledger.check(len(sentences) == workload.sentence_count,
                     f"{label}: split {len(sentences)} sentences, "
                     f"generated {workload.sentence_count}")
        state["sentences"] = sentences

    def do_build():
        sentences = state["sentences"]
        start = time.perf_counter()
        space = space_mod.build_space(sentences)
        samples["build"].append(time.perf_counter() - start)
        text = space_mod.serialize_space(
            space, corpus.serialize_pretagged(sentences))
        if state["snapshot"] is None:
            state["snapshot"] = text
            snapshot_path.write_text(text, encoding="utf-8")
        else:
            ledger.check(text == state["snapshot"],
                         f"{label}: rebuilds differ")
        state["space"] = space
        state["slist"] = baseline_corpus(space)

    def do_query():
        # one batch of the closed loop; `batches` batches make one pass
        batch = take("query") % batches
        for index in range(batch, len(questions), batches):
            start = time.perf_counter()
            results = ask(state["space"], questions[index])
            samples["query"].append(time.perf_counter() - start)
            if not ledger.check(results is not None,
                                f"{label}: not a question: "
                                f"{questions[index]!r}"):
                continue
            rows = answer_rows(results)
            if answers[index] is None:
                answers[index] = rows
            else:
                ledger.check(rows == answers[index],
                             f"{label}: answers changed")

    def do_cli():
        index = take("cli") % len(questions)
        elapsed, code, rows = cli_query(snapshot_path, questions[index])
        samples["cli"].append(elapsed)
        if ledger.check(code == 0, f"{label}: CLI exit {code}"):
            in_process = answer_rows(ask(state["space"], questions[index]))
            ledger.check(rows == in_process,
                         f"{label}: CLI answers differ for "
                         f"{questions[index]!r}")

    def do_baselines():
        index = take("baselines") % len(workload.baseline_questions)
        start = time.perf_counter()
        ranking = rank_all(workload.baseline_questions[index],
                           state["slist"])
        samples["baselines"].append(time.perf_counter() - start)
        if index in rankings:
            ledger.check(ranking == rankings[index],
                         f"{label}: baseline rankings changed")
        rankings[index] = ranking

    tasks = {"setup": do_setup, "ingest": do_ingest, "build": do_build,
             "query": do_query, "cli": do_cli, "baselines": do_baselines}
    schedule = round_schedule({
        "query" if name == "query_batches" else name: n
        for name, n in per_round.items()})
    placed: dict[str, list[int]] = {name: [] for name in samples}
    host.sample()
    rounds = 0
    run_start = time.perf_counter()
    while rounds < spec["min_rounds"] \
            or time.perf_counter() - run_start < args.seconds:
        rounds += 1
        for kind in schedule:
            done = len(samples[kind])
            tasks[kind]()
            task = len(host.samples)  # calibrations before this task
            placed[kind].extend([task] * (len(samples[kind]) - done))
            host.sample()

    ledger.check(None not in answers and
                 len(rankings) == len(workload.baseline_questions),
                 f"{label}: rounds too few to cover every question")
    compare_digest(ledger, outputs_digest(
        state["snapshot"], answers, [rankings[i] for i in sorted(rankings)]),
        recorded, label)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok_share = (ledger.attempted - len(ledger.failures)) / ledger.attempted
    print(f"samples: {rounds} rounds in "
          f"{time.perf_counter() - run_start:.1f} s; "
          + ", ".join(f"{name} {len(values)}"
                      for name, values in samples.items()))
    scaled = {name: [x * host.scale_near(task)
                     for x, task in zip(values, placed[name])]
              for name, values in samples.items()}
    metrics = {
        **_time_metrics(scaled),
        "snapshot_kb": (len(state["snapshot"].encode()) / 1024, "KiB"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MiB"),
        "ok_ops_share": (ok_share, "ratio"),
    }
    return metrics, _time_metrics(samples)


def _time_metrics(samples: dict[str, list[float]]) -> dict:
    return {
        "setup_s": (median(samples["setup"]), "s"),
        "ingest_s": (median(samples["ingest"]), "s"),
        "build_s": (median(samples["build"]), "s"),
        "query_p50_ms": (percentile(samples["query"], 50) * 1e3, "ms"),
        "query_p95_ms": (percentile(samples["query"], 95) * 1e3, "ms"),
        "cli_query_s": (median(samples["cli"]), "s"),
        "baselines_p50_ms": (percentile(samples["baselines"], 50) * 1e3,
                             "ms"),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_hash_seed()
    pin_cpu()
    if not (SRC / "syntaxspace" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads)}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    input_seed = args.seed % RECORDED_SEEDS
    if args.setup_probe:
        print(setup_probe(spec["generator"], input_seed))
        return 0

    import inputs
    workload = inputs.generate(spec["generator"], input_seed)
    recorded = load_digest(args.workload, input_seed)
    ledger = Ledger()
    host = HostSpeed()
    if args.trace:
        import tracing
        raw = tracing.traced_run(args, workload, recorded, ledger, host)
        # spans cannot each be scaled; the traced run uses the run median
        scale = host.scale()
        metrics = {name: (value * scale if unit in ("s", "ms") else value,
                          unit)
                   for name, (value, unit) in raw.items()}
    else:
        metrics, raw = timed_run(args, spec, workload, recorded, ledger,
                                 host)

    print(f"host calibration: median {median(host.samples) * 1e3:.2f} ms "
          f"over {len(host.samples)} samples")
    for name, (value, unit) in raw.items():
        if unit in ("s", "ms"):
            print(f"{'raw.' + name:<44} {value:>14.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    for reason in ledger.failures:
        print(f"FAILED: {reason}", file=sys.stderr)
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
