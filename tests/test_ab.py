"""`tools/ab.py time` and `diff`, run with HEAD on both sides on the smoke
workload."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
STAGES = ("ingest_text", "normalize_voice", "parse_sentence_parts",
          "build_space", "question_pass", "snapshot_load")


def test_time_mode_prints_every_stage_of_equal_outputs():
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           "HEAD"], capture_output=True)
    if head.returncode != 0:
        pytest.skip("no git history to export a revision from")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "time",
         "--parent", "HEAD", "--change", "HEAD", "--workload", "smoke",
         "--seed", "3", "--pairs", "1", "--repeat", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("outputs equal: ") for line in lines)
    assert [line.split()[0] for line in lines[-len(STAGES):]] \
        == list(STAGES)


def test_diff_mode_finds_no_difference_between_equal_sides():
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           "HEAD"], capture_output=True)
    if head.returncode != 0:
        pytest.skip("no git history to export a revision from")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "diff",
         "--parent", "HEAD", "--change", "HEAD", "--workload", "smoke",
         "--seeds", "3", "--random", "200"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    compared, differing = proc.stdout.splitlines()[-1].split("; ")
    assert int(compared.removeprefix("items compared: ")) > 200
    assert differing == "differing: 0"
