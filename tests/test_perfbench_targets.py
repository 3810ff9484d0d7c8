"""The benchmark tracer's wrap targets and hooks still fit fricsim.

``perfbench/spans.py`` wraps fricsim functions by module and attribute path
and skips a target it cannot find, so a rename in ``src`` would silently
drop a benchmark layer; a hook that meets a result of another shape is
skipped the same way.  These tests load the tracer from its file, resolve
every target (only the three known-stale targets may be missing) and run
the candidate-build hook on a real lagged contact state.
"""

import importlib.util
import json
import os

import numpy as np

from fricsim.experiments import block_slide_scene
from fricsim.scene import load_scene
from fricsim.simulate import Simulation

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


def test_after_build_hook_counts_a_lagged_contact_state():
    spans = _spans()
    sim = Simulation(load_scene(json.dumps(block_slide_scene(
        0.01, "be", "lagged:4", solver_kind="iterative"))))
    for _ in range(5):
        sim.advance()
    st = sim.state
    contact = sim.model.build_contact_state(st.q, st.v, st.t, sim.h)
    assert contact.lagged is not None
    tracer = spans.Tracer()
    assert spans._after_build(tracer, (), {}, contact) is contact
    active = int(np.count_nonzero(contact.cset.lam > 0.0))
    assert tracer.counts["candidates"] == contact.cset.size > 0
    assert tracer.counts["active"] == active > 0
