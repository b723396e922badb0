"""The benchmark's traced run (`perfbench/tracing.py`) rebinds package
functions by module attribute.  Every name it rebinds must exist, and
`uninstall` must put every original back; a refactor that drops a name the
tracer rebinds fails here, not only in `perfbench/run.py --trace 1`."""

import sys
from pathlib import Path

from syntaxspace import corpus, evaluation, qa, space, subsume, syntax

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

MODULES = (corpus, evaluation, qa, space, subsume, syntax)


def test_tracer_rebinds_existing_names_and_restores_them():
    before = {module: dict(vars(module)) for module in MODULES}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        rebound = list(tracer._saved)
        assert rebound
        for module, attr, original in rebound:
            assert getattr(module, attr) is not original, attr
    finally:
        tracer.uninstall()
    for module in MODULES:
        assert vars(module) == before[module], module.__name__
