"""Derivative consistency of the assembled force Jacobians.

Randomized small fixtures: a box resting near a tilted plane plus a sphere
obstacle, optional volume penalty, Stribeck friction.  Checks
  * forces against central finite differences (rel err <= 1e-4),
  * assembled Jacobian products (sparse + low-rank) against dual-number JVPs
    (rel err <= 1e-10),
for both friction modes, and for the stage residuals of every scheme.
"""

import numpy as np
import pytest

from fricsim import dual as dm
from fricsim.contact import HalfSpace, PenaltyParams, Sphere
from fricsim.dual import Dual
from fricsim.elasticity import element_forces
from fricsim.forces import ContactState, ForceModel
from fricsim.friction import FrictionParams
from fricsim.integrators import StageProblem
from fricsim.mesh import MaterialParams, SystemState, TetMeshModel
from fricsim.meshgen import box_grid

from helpers import split_jacobians, term_forces


def make_fixture(seed: int, friction_mode="implicit", with_volume=True,
                 beta=1e-3):
    rng = np.random.default_rng(seed)
    mat = MaterialParams(density=rng.uniform(300, 2000),
                         youngs_modulus=rng.uniform(5e4, 5e5),
                         poisson_ratio=rng.uniform(0.1, 0.45),
                         rayleigh_alpha=rng.uniform(0, 2),
                         rayleigh_beta=beta)
    mesh = TetMeshModel(*box_grid((0.1, 0.08, 0.12), (2, 1, 2)),
                        mat)  # 18 vertices
    fr = FrictionParams(mu_d=rng.uniform(0.2, 0.8),
                        mu_s=rng.uniform(0.8, 1.5),
                        mu_v=rng.uniform(0.0, 0.1),
                        epsilon=1e-3)
    tilt = rng.uniform(-0.2, 0.2)
    plane = HalfSpace(point=(0, -0.04, 0),
                      normal=(np.sin(tilt), np.cos(tilt), 0), friction=fr)
    sphere = Sphere(center=(0.0, 0.1, 0.0), radius=0.06, contains=False,
                    friction=fr)
    pen = PenaltyParams(delta=2e-3, kappa=rng.uniform(1e3, 1e4))
    vps = []
    if with_volume:
        from fricsim.volume import VolumePenaltyParams
        vps = [VolumePenaltyParams(region=mesh.surface_tris,
                                   model=rng.choice(["quadratic", "ideal_gas",
                                                     "nearly_incompressible"]),
                                   kappa_v_atm=rng.uniform(0.5, 2.0))]
    model = ForceModel(mesh, [plane, sphere], pen, gravity=(0, -9.8, 0),
                       volume_penalties=vps, friction_mode=friction_mode)
    q = mesh.rest_q() + 1e-3 * rng.normal(size=mesh.n_dofs)
    v = 2e-3 * rng.normal(size=mesh.n_dofs)
    contact = model.build_contact_state(q, v, 0.0, 0.01)
    assert contact.cset.size > 0, "fixture must have active contacts"
    return model, q, v, contact, rng


# the ids are fixed: these test names are tracked across versions of the suite
FRICTION_MODES = [pytest.param("implicit", id="implicit-False"),
                  pytest.param("lagged", id="lagged-False")]


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-30)
    return np.max(np.abs(a - b)) / denom


def apply_full(dfdx, rank1, p):
    out = dfdx @ p
    for r in rank1:
        out = out + r.apply(p)
    return out


@pytest.mark.parametrize("mode", FRICTION_MODES)
def test_force_jacobians_match_fd(mode):
    for seed in range(3):
        model, q, v, contact, rng = make_fixture(seed, friction_mode=mode)
        dfdq, dfdv, rank1 = split_jacobians(model, q, v, 0.0, contact)
        hq = 1e-6 * 0.1
        for _ in range(3):
            p = rng.normal(size=q.size)
            fp = model.force(q + hq * p, v, 0.0, contact)
            fm = model.force(q - hq * p, v, 0.0, contact)
            fd = (fp - fm) / (2 * hq)
            assert rel_err(apply_full(dfdq, rank1, p), fd) <= 1e-4
            fpv = model.force(q, v + hq * p, 0.0, contact)
            fmv = model.force(q, v - hq * p, 0.0, contact)
            fdv = (fpv - fmv) / (2 * hq)
            assert rel_err(dfdv @ p, fdv) <= 1e-4


@pytest.mark.parametrize("mode", FRICTION_MODES)
@pytest.mark.parametrize("scheme_name", ["be", "tr", "bdf2", "sdirk2",
                                         "trbdf2"])
def test_stage_jacobian_matches_jvp(scheme_name, mode):
    if mode == "lagged" and scheme_name not in ("be", "tr"):
        pytest.skip("lagged is defined for be/tr only")
    model, q, v, contact, rng = make_fixture(11, friction_mode=mode)
    h = 0.004
    st = SystemState(q, v, 0.0)
    # representative stage: BE-like with the scheme's coefficient
    coeff = {"be": h, "tr": 0.5 * h, "bdf2": 2 * h / 3,
             "sdirk2": (1 - 1 / np.sqrt(2)) * h,
             "trbdf2": (2 - np.sqrt(2)) * 0.5 * h}[scheme_name]
    prob = StageProblem(model=model, contact=contact, v_lin=st.v, q_ref=st.q,
                        c=coeff, t_eval=h, h=h)
    v_eval = v + 1e-3 * rng.normal(size=v.size)
    jac, rank1 = prob.jacobian(v_eval)
    for _ in range(4):
        p = rng.normal(size=v.size)
        assembled = apply_full(jac, rank1, p)
        ad = prob.jvp(v_eval, p)
        assert rel_err(assembled, ad) <= 1e-10


def test_full_residual_jvp_double_oracle():
    # the stage-residual JVP agrees with central finite differences (~1e-6)
    # and with the assembled product (~1e-10) on one fixture
    model, q, v, contact, rng = make_fixture(5)
    h = 0.004
    prob = StageProblem(model=model, contact=contact, v_lin=v, q_ref=q,
                        c=h, t_eval=h, h=h)
    jac, rank1 = prob.jacobian(v)
    hfd = 1e-7
    for _ in range(4):
        p = rng.normal(size=v.size)
        fd = (np.asarray(prob.residual(v + hfd * p), float)
              - np.asarray(prob.residual(v - hfd * p), float)) / (2 * hfd)
        ad = prob.jvp(v, p)
        assert rel_err(ad, fd) <= 1e-6
        assert rel_err(apply_full(jac, rank1, p), ad) <= 1e-10


def test_parts_sum_to_total():
    # the force is the sum of its six terms (elastic, damping, gravity,
    # contact, friction, volume), each from its own kernel
    model, q, v, contact, rng = make_fixture(21)
    total = model.force(q, v, 0.0, contact)
    parts = sum(term_forces(model, q, v, 0.0, contact).values())
    np.testing.assert_allclose(total, parts, rtol=1e-12, atol=1e-12)


NON_CONTACT_TERMS = frozenset({"elastic", "damping", "gravity", "volume"})
ALL_TERMS = NON_CONTACT_TERMS | {"contact", "friction"}


@pytest.mark.parametrize("terms", [frozenset({"elastic"}),
                                   frozenset({"damping"}),
                                   frozenset({"elastic", "damping"}),
                                   NON_CONTACT_TERMS, ALL_TERMS],
                         ids=["elastic", "damping", "elastic+damping",
                              "non_contact", "all"])
def test_shared_element_pass_matches_the_selected_terms(terms):
    # one element pass (element_forces) serves "elastic" and "damping"; it
    # must give the elastic_force/damping_force terms its flags select, and
    # the force must give the non-contact terms with the no-pair contact
    # state and all six with the real one, also for the Dual inputs of a
    # JVP in q and in v
    model, q, v, contact, rng = make_fixture(24)
    p, w = rng.normal(size=q.size), rng.normal(size=v.size)
    for qq, vv in ((q, v), (Dual(q, p), v), (q, Dual(v, w))):
        if terms == ALL_TERMS:
            got = model.force(qq, vv, 0.0, contact)
        elif terms == NON_CONTACT_TERMS:
            got = model.force(qq, vv, 0.0, ContactState.empty(model.table))
        else:
            got = element_forces(model.mesh, qq, vv, "elastic" in terms,
                                 "damping" in terms)
        t = term_forces(model, qq, vv, 0.0, contact)
        expect = 0.0 * qq + 0.0 * vv
        for name in ("elastic", "damping", "gravity", "contact", "friction",
                     "volume"):
            if name in terms:
                expect = expect + t[name]
        for part in (dm.value, dm.tangent):
            scale = np.max(np.abs(part(expect)))
            np.testing.assert_allclose(part(got), part(expect), rtol=0.0,
                                       atol=1e-13 * scale)


def test_gravity_force_is_mass_times_g():
    model, q, v, contact, rng = make_fixture(22, with_volume=False)
    expect = np.tile([0.0, -9.8, 0.0], model.mesh.n_verts) \
        * model.mesh.mass_dofs
    np.testing.assert_allclose(model.gravity_force, expect, rtol=1e-14)


def test_dirichlet_rows_replace_residual():
    model, q, v, contact, rng = make_fixture(23)
    model.fixed_mask[:3] = True
    model.fixed_velocity[:3] = [0.1, 0.0, 0.0]
    h = 0.01
    prob = StageProblem(model=model, contact=contact, v_lin=v, q_ref=q,
                        c=h, t_eval=h, h=h)
    r = prob.residual(v)
    np.testing.assert_allclose(r[:3], v[:3] - [0.1, 0.0, 0.0], atol=1e-14)
    jac, rank1 = prob.jacobian(v)
    row = jac[:3].toarray()
    expect = np.zeros((3, q.size))
    expect[0, 0] = expect[1, 1] = expect[2, 2] = 1.0
    np.testing.assert_allclose(row, expect, atol=1e-14)
    for r1 in rank1:
        assert np.all(r1.u[:3] == 0.0)
    # JVP still matches the assembled constrained system
    p = rng.normal(size=v.size)
    assert rel_err(apply_full(jac, rank1, p), prob.jvp(v, p)) <= 1e-10
