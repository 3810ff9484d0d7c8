"""The benchmark tracer's wrap targets still exist in fricsim.

``perfbench/spans.py`` wraps fricsim functions by module and attribute path
and skips a target it cannot find, so a rename in ``src`` would silently
drop a benchmark layer.  This test loads the tracer from its file and
resolves every target; only the three known-stale targets may be missing.
"""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")
STALE = {
    "fricsim.forces.ForceModel.all_gaps",
    "fricsim.forces.ForceModel.penetrating_candidates",
    "fricsim.simulate.inexact_damped_newton",
}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves_but_the_known_stale():
    spans = _spans()
    missing = {f"{module}.{path}" for _, module, path, _ in spans.TARGETS
               if spans._resolve(module, path) is None}
    assert missing <= STALE
