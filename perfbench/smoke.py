"""Smoke test of the benchmark itself, on the tiny `smoke` workload.

    python3 perfbench/smoke.py

Runs `run.py` untraced and traced and checks that the last line is the
result object, that every metric named in BENCHMARK.json is printed with its
unit, and that no operation failed (so the recorded digests verified).
Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def check_run(trace: int, expected: dict) -> list[str]:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", "smoke",
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=run.SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"trace {trace}: not correct: {proc.stderr}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        problems.append(f"trace {trace}: metrics {sorted(metrics)} "
                        f"!= {sorted(expected)}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                     (int, float)):
            problems.append(f"trace {trace}: {name}: {got}")
        if not any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in proc.stdout.splitlines()):
            problems.append(f"trace {trace}: {name} not printed with {unit}")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        problems += check_run(trace, {m["name"]: m["unit"]
                                      for m in bench[key]})
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print("smoke: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
