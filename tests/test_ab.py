"""`tools/ab.py time` and `diff`, run with HEAD on both sides on the smoke
workload, and `diff` on two sides whose tagging differs."""

import importlib.util
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

from syntaxspace import corpus, qa, space, subsume, syntax

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


@pytest.mark.parametrize("field, value", [
    ("raw", "LexRank  builds summaries."),
    ("voice", corpus.PASSIVE_AGENTLESS),
])
def test_diff_reports_a_tagging_change_that_leaves_the_parse_alone(field,
                                                                   value):
    spec = importlib.util.spec_from_file_location("ab",
                                                  ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    parent, change = (SimpleNamespace(corpus=corpus, qa=qa, space=space,
                                      subsume=subsume, syntax=syntax)
                      for _ in range(2))

    def build(pkg):
        sentence = corpus.tag("LexRank builds summaries.", 1, "d")
        if pkg is change:
            setattr(sentence, field, value)
        return [sentence], [corpus.tag("What builds summaries?")]

    groups, compared = ab.diff(parent, change, [("c", build)])
    assert compared > 2
    assert {field: [item for item, _, _ in found]
            for field, found in groups.items()} \
        == {"tokens": ["c sentence 1"]}
