"""The README's Python examples run as written.

The two ```python blocks run in order, in one namespace and from the repo
root, as a reader pasting them into one interpreter would: the second (the
ranking baselines) reuses `sp`, `corpus` and `question` from the first.
"""

import re
import warnings
from pathlib import Path

from syntaxspace.evaluation import BASELINE_METHODS

ROOT = Path(__file__).resolve().parents[1]


def python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_examples_run_in_order(monkeypatch, capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    monkeypatch.chdir(ROOT)
    namespace = {"__name__": "__readme__"}
    with warnings.catch_warnings(record=True) as caught:
        # a file never closed warns when it is freed, inside the block
        warnings.simplefilter("always", ResourceWarning)
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    assert [w for w in caught if w.category is ResourceWarning] == []
    lines = capsys.readouterr().out.splitlines()
    # the first block prints one line per answer, led by its sentence id
    answers = lines[:-len(BASELINE_METHODS)]
    assert answers and all(line.split()[0].isdigit() for line in answers)
    assert [line.split()[0] for line in lines[-len(BASELINE_METHODS):]] == \
        list(BASELINE_METHODS)
