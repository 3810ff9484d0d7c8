"""The benchmark tracer's wrap targets and hooks still fit fricsim.

``perfbench/spans.py`` wraps fricsim functions by module and attribute path
and skips a target it cannot find, so a rename in ``src`` would silently
drop a benchmark layer; a hook that meets a result of another shape is
skipped the same way.  These tests load the tracer from its file, resolve
every target (only the three known-stale targets may be missing), run
the candidate-build hook on a real lagged contact state and check that a
wrapped layer is still called where its figure is read.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

from fricsim.experiments import block_slide_scene
from fricsim.integrators import StageProblem
from fricsim.scene import load_scene, load_scene_file
from fricsim.simulate import Simulation

ROOT = os.path.join(os.path.dirname(__file__), "..")
SPANS = os.path.join(ROOT, "perfbench", "spans.py")
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


@pytest.mark.parametrize("scene, calls", [("ball_drop.json", 1),
                                          ("plate_squeeze.json", 0)])
def test_one_stage_jacobian_calls_the_damping_q_layer_once(scene, calls):
    # ``elasticity.damping_q_ms`` times fricsim.forces.damping_q_blocks; if
    # the assembly stopped calling that name the layer would read 0.  With
    # no element's beta > 0 (the plates) it builds no damping direction.
    spans = _spans()
    sim = Simulation(load_scene_file(
        os.path.join(ROOT, "scenes", scene)))
    for _ in range(3):
        sim.advance()
    st, h = sim.state, sim.h
    prob = StageProblem(
        model=sim.model,
        contact=sim.model.build_contact_state(st.q, st.v, st.t, h),
        v_lin=st.v, q_ref=st.q, c=h, t_eval=st.t + h, h=h)
    tracer = spans.Tracer(layers={"elasticity.damping_q"})
    with tracer:
        prob.jacobian(st.v)
    assert tracer.missing == []
    assert tracer.layer == ["elasticity.damping_q"] * calls


@pytest.mark.parametrize("scene, calls", [("ball_drop.json", 1),
                                          ("plate_squeeze.json", 0)])
def test_one_stage_jacobian_calls_the_volume_hessian_layer_once(scene, calls):
    # ``volume.hessian_ms`` times fricsim.forces.volume_hessian_blocks,
    # once per volume region (the ball has one, the plates none); if the
    # assembly stopped calling that name the layer would read 0.
    spans = _spans()
    sim = Simulation(load_scene_file(
        os.path.join(ROOT, "scenes", scene)))
    for _ in range(3):
        sim.advance()
    st, h = sim.state, sim.h
    prob = StageProblem(
        model=sim.model,
        contact=sim.model.build_contact_state(st.q, st.v, st.t, h),
        v_lin=st.v, q_ref=st.q, c=h, t_eval=st.t + h, h=h)
    tracer = spans.Tracer(layers={"volume.hessian"})
    with tracer:
        prob.jacobian(st.v)
    assert tracer.missing == []
    assert tracer.layer == ["volume.hessian"] * calls
