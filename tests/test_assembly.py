"""The stage Jacobian on the model's fixed CSR pattern against a COO oracle.

``StageProblem.jacobian`` has the model assemble df/dv + c df/dq in one
weighted pass, one scatter per part into one precomputed pattern, and forms
J on its ``data``.  The oracle here assembles each force term's df/dq and
df/dv block by block with ``scipy.sparse.coo_matrix`` (duplicates summed),
combines them densely, rank-1 volume terms included, and applies the
Dirichlet rows by hand; the two must agree to 1e-14 relative.  On the same stage states the weights must act linearly, and the
real part of a dual residual evaluation must be the residual bit for bit.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from fricsim.dual import Dual
from fricsim.experiments import block_slide_scene
from fricsim.forces import CsrPattern
from fricsim.scene import load_scene, load_scene_file
from fricsim.simulate import Simulation

from helpers import term_jacobians

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")

FIXED_CUBE = {
    "duration": 0.1, "step": 0.01, "integrator": "be",
    "meshes": [{
        "name": "cube",
        "generator": {"kind": "box", "size": [0.1, 0.1, 0.1],
                      "divisions": [1, 1, 1]},
        "material": {"density": 800.0, "youngs_modulus": 2e5,
                     "poisson_ratio": 0.3, "rayleigh_beta": 1e-3},
        "translate": [0.0, 0.0502, 0.0],
        "fixed_vertices": [4, 5, 6, 7],
        "fixed_velocity": [0.01, 0.0, 0.0],
    }],
    "obstacles": [{"kind": "half_space", "point": [0.0, 0.0, 0.0],
                   "normal": [0.0, 1.0, 0.0],
                   "friction": {"mu_d": 0.5, "epsilon": 1e-3}}],
}


def _scene(name):
    if name == "slide":
        return load_scene(json.dumps(block_slide_scene(
            0.01, "be", "lagged:4", solver_kind="iterative")))
    if name == "fixed_cube":
        return load_scene(json.dumps(FIXED_CUBE))
    return load_scene_file(os.path.join(SCENES, f"{name}.json"))


def _stage(name, steps):
    """(problem, v) of the first solve after ``steps`` accepted steps."""
    sim = Simulation(_scene(name))
    for _ in range(steps):
        sim.advance()
    seen = []

    def capture(problem, v0, guess=None):
        seen.append((problem, np.asarray(v0, float).copy()))
        return Simulation._solve(sim, problem, v0, guess)

    sim._solve = capture
    sim.advance()
    return seen[0]


def coo_oracle(prob, v):
    """Dense J(v), its rank-1 volume terms included, from every force
    term's df/dq and df/dv assembled block by block through COO."""
    model = prob.model
    terms = term_jacobians(model, prob.positions(v), v, prob.t_eval,
                           prob.contact).values()
    dfdq, dfdv = (sum(x) for x in zip(*terms))
    jac = np.diag(model.mass_dofs) - prob.c * (dfdv + prob.c * dfdq)
    fixed = model.fixed_mask
    jac[fixed] = 0.0
    jac[fixed, fixed] = 1.0
    return jac


@pytest.fixture(scope="module", params=[
    ("ball_drop", 70), ("plate_squeeze", 5), ("slide", 3),
    ("fixed_cube", 3)])
def stage(request):
    return request.param[0], _stage(*request.param)


def test_jacobian_matches_coo_oracle(stage):
    name, (prob, v) = stage
    assert prob.contact.cset.size > 0, "the state must have contacts"
    jac, rank1 = prob.jacobian(v)
    assert len(rank1) == len(prob.model.volume_penalties)
    jac = jac.toarray()
    for r in rank1:
        jac += r.scale * np.outer(r.u, r.w)
    oracle = coo_oracle(prob, v)
    err = np.max(np.abs(jac - oracle))
    assert err <= 1e-14 * np.max(np.abs(oracle)), name


def test_one_scatter_per_part(stage, monkeypatch):
    _, (prob, v) = stage
    calls = []
    real = CsrPattern.scatter

    def counted(self, slots, weights):
        calls.append(1)
        return real(self, slots, weights)

    monkeypatch.setattr(CsrPattern, "scatter", counted)
    prob.jacobian(v)
    # elements, contacts and one per volume region
    assert len(calls) == 2 + len(prob.model.volume_penalties)


def test_weights_act_linearly(stage):
    _, (prob, v) = stage
    model = prob.model
    args = (prob.positions(v), v, prob.t_eval, prob.contact)
    c_q, c_v = prob.c, 1.0
    data, rank1 = model.jacobians(*args, c_q, c_v)
    data_q, rank1_q = model.jacobians(*args, 1.0, 0.0)
    data_v, rank1_v = model.jacobians(*args, 0.0, 1.0)
    want = c_q * data_q + c_v * data_v
    assert np.max(np.abs(data - want)) <= 1e-14 * np.max(np.abs(want))
    for r, r_q, r_v in zip(rank1, rank1_q, rank1_v, strict=True):
        assert r.scale == pytest.approx(c_q * r_q.scale + c_v * r_v.scale,
                                        rel=1e-14)
        assert np.array_equal(r.u, r_q.u) and np.array_equal(r.w, r_q.w)


def test_scene_coverage(stage):
    name, (prob, v) = stage
    model = prob.model
    if name == "ball_drop":
        assert prob.c != prob.h  # BDF2 stage
        assert np.all(model.mesh.beta > 0.0) and model.volume_penalties
    if name == "plate_squeeze":
        assert model.friction_mode == "implicit"
    if name == "slide":
        # friction reads the lagged anchor, a snapshot of the candidate pairs
        anchor = prob.contact.lagged
        assert model.friction_mode == "lagged" and anchor is not None
        assert np.array_equal(anchor.vertex, prob.contact.cset.vertex)
        live = replace(prob, contact=replace(prob.contact, lagged=None))
        assert not np.array_equal(prob.residual(v), live.residual(v))
    if name == "fixed_cube":
        assert model.fixed_mask.any()


def test_successive_calls_share_the_pattern(stage):
    _, (prob, v) = stage
    first, _ = prob.jacobian(v)
    second, _ = prob.jacobian(v + 1e-3)
    pat = prob.model.pattern()
    assert np.shares_memory(first.indices, second.indices)
    assert np.shares_memory(first.indices, pat.indices)
    assert np.shares_memory(first.indptr, second.indptr)
    assert first.has_sorted_indices and first.nnz == pat.nnz


def test_dual_residual_real_part_is_bitwise(stage):
    _, (prob, v) = stage
    p = np.random.default_rng(0).normal(size=v.size)
    assert np.array_equal(prob.residual(Dual(v, p)).re, prob.residual(v))


def test_simulation_setup_builds_no_pattern():
    sim = Simulation(_scene("ball_drop"))
    assert sim.model._pattern is None
    sim.advance()
    assert sim.model._pattern is not None
