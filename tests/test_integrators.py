import numpy as np
import pytest

from fricsim.contact import HalfSpace, PenaltyParams
from fricsim.forces import ContactState, ForceModel
from fricsim.friction import FrictionParams
from fricsim.integrators import make_scheme
from fricsim.mesh import MaterialParams, SystemState, TetMeshModel
from fricsim.meshgen import box_grid
from fricsim.solvers import SolverConfig, damped_newton

from helpers import LinearForceModel

TIGHT = SolverConfig(r_tol_rel=1e-12, r_tol_abs=1e-14, v_tol=1e-13)


def _solve(problem, v0, guess=None):
    return damped_newton(problem, v0, TIGHT, guess=guess)


def _free_state(n=2):
    return SystemState(np.zeros(3 * n), np.ones(3 * n), 0.0)


@pytest.mark.parametrize("name", ["be", "tr", "bdf2", "trbdf2", "sdirk2"])
def test_force_free_keeps_velocity(name):
    h = 0.05
    model = LinearForceModel(mass=np.full(6, 2.0))
    st = _free_state()
    # consistent constant-velocity history for the two-step scheme
    prev = SystemState(st.q - h * st.v, st.v.copy(), -h)
    scheme = make_scheme(name)
    res = scheme.step(model, None, st, h, _solve, prev=prev)
    np.testing.assert_allclose(res.v, st.v, atol=1e-12)
    np.testing.assert_allclose(res.q, st.q + h * st.v, atol=1e-12)


def test_be_constant_force_exact():
    # gravity-like constant force: root is v + h*g per dof
    mass = np.full(6, 3.0)
    g = np.tile([0.0, -9.8, 0.0], 2)
    model = LinearForceModel(mass=mass, const=mass * g)
    st = SystemState(np.zeros(6), np.zeros(6))
    res = make_scheme("be").step(model, None, st, 0.01, _solve)
    np.testing.assert_allclose(res.v, 0.01 * g, rtol=1e-12)


def test_tr_equals_be_for_constant_force():
    mass = np.full(3, 1.5)
    model = LinearForceModel(mass=mass, const=np.array([0.3, -0.7, 0.1]))
    st = SystemState(np.zeros(3), np.full(3, 0.2))
    r_be = make_scheme("be").step(model, None, st, 0.02, _solve)
    r_tr = make_scheme("tr").step(model, None, st, 0.02, _solve)
    np.testing.assert_allclose(r_tr.v, r_be.v, rtol=1e-12)


def _scalar_amplification(name, z, steps=1):
    """One step of the scheme on v' = a v with h*a = z (mass 1)."""
    a = z  # h = 1
    model = LinearForceModel(mass=np.ones(3), a_v=a * np.eye(3))
    st = SystemState(np.zeros(3), np.ones(3))
    scheme = make_scheme(name)
    prev = SystemState(st.q.copy(), st.v.copy(), st.t)
    for _ in range(steps):
        res = scheme.step(model, None, st, 1.0, _solve, prev=prev)
        prev = st
        st = SystemState(res.q, res.v, st.t + 1.0)
    return st.v[0]


def test_tr_amplification_matches_closed_form():
    for z in (-0.5, -2.0, -10.0):
        got = _scalar_amplification("tr", z)
        assert got == pytest.approx((1 + z / 2) / (1 - z / 2), rel=1e-10)


def test_be_amplification_matches_closed_form():
    for z in (-0.5, -5.0):
        got = _scalar_amplification("be", z)
        assert got == pytest.approx(1.0 / (1.0 - z), rel=1e-10)


def test_l_stability_amplification_to_zero():
    z = -1e8
    assert abs(_scalar_amplification("sdirk2", z)) < 1e-6
    assert abs(_scalar_amplification("trbdf2", z)) < 1e-6
    # BDF2 with flat unit history: amplification 1/(1 - 2z/3) -> 0
    from types import SimpleNamespace
    model = LinearForceModel(mass=np.ones(3), a_v=z * np.eye(3))
    prev = SimpleNamespace(q=np.zeros(3), v=np.ones(3), t=-1.0)
    st = SystemState(np.zeros(3), np.ones(3), 0.0)
    res = make_scheme("bdf2").step(model, None, st, 1.0, _solve, prev=prev)
    assert abs(res.v[0]) < 1e-6
    # TR does not damp: amplification -> -1
    assert _scalar_amplification("tr", z) == pytest.approx(-1.0, abs=1e-6)


def test_second_order_accuracy_scalar():
    # v' = -v, exact e^{-t}; halving h gives order >= 1.9
    for name in ("tr", "bdf2", "trbdf2", "sdirk2"):
        errs = []
        for h in (0.2, 0.1, 0.05):
            model = LinearForceModel(mass=np.ones(3), a_v=-np.eye(3))
            st = SystemState(np.zeros(3), np.ones(3))
            prev = None
            scheme = make_scheme(name)
            t, n = 0.0, int(round(1.0 / h))
            for _ in range(n):
                res = scheme.step(model, None, st, h, _solve, prev=prev)
                prev = st
                st = SystemState(res.q, res.v, t + h)
                t += h
            errs.append(abs(st.v[0] - np.exp(-1.0)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9, (name, errs)


def _tet_model(**kw):
    mat = MaterialParams(density=500.0, youngs_modulus=5e4, poisson_ratio=0.3,
                         **kw)
    mesh = TetMeshModel(*box_grid((0.1, 0.1, 0.1), (1, 1, 1)), mat)
    return ForceModel(mesh, gravity=(0.0, -9.8, 0.0))


def _run(model, scheme_name, h, t_end, v0=None):
    mesh = model.mesh
    q = mesh.rest_q().copy()
    v = np.zeros(mesh.n_dofs) if v0 is None else v0.copy()
    # squash it a bit so elasticity is active and nonlinear
    q = ((mesh.rest_positions - mesh.rest_positions.mean(0))
         * np.array([1.06, 0.92, 1.03]) + mesh.rest_positions.mean(0)).ravel()
    st = SystemState(q, v, 0.0)
    scheme = make_scheme(scheme_name)
    prev = None
    contact = model.build_contact_state(st.q, st.v, 0.0, h)
    steps = int(round(t_end / h))
    for _ in range(steps):
        res = scheme.step(model, contact, st, h, _solve, prev=prev)
        prev = st
        st = SystemState(res.q, res.v, st.t + h)
    return st


def test_richardson_orders_fem_fixture():
    # single-cube elastic body under gravity, no contact: empirical order
    # (finest-pair Richardson estimate; the acceptance suite runs the full
    # thresholds at higher resolution)
    t_end = 0.02
    hs = (t_end / 32, t_end / 64, t_end / 128)
    expected = {"be": 0.9, "tr": 1.9, "bdf2": 1.9, "trbdf2": 1.9,
                "sdirk2": 1.9}
    model = _tet_model()
    ref = _run(model, "trbdf2", t_end / 1024, t_end)
    for name, min_order in expected.items():
        errs = []
        for h in hs:
            out = _run(model, name, h, t_end)
            errs.append(np.linalg.norm(out.v - ref.v))
        order = np.log2(errs[1] / errs[2])
        assert order >= min_order, (name, errs)


def test_lagged_equals_implicit_without_friction():
    mat = MaterialParams(density=800.0, youngs_modulus=2e5, poisson_ratio=0.3)
    mesh = TetMeshModel(*box_grid((0.1, 0.1, 0.1), (1, 1, 1)), mat)
    plane = HalfSpace((0, 0, 0), (0, 1, 0), friction=FrictionParams(mu_d=0.0))
    pen = PenaltyParams(delta=1e-3, kappa=5e3)
    q0 = mesh.rest_q().copy()
    q0[1::3] += 0.0504  # just touching the ground
    v0 = np.zeros(mesh.n_dofs)
    v0[1::3] = -0.05
    h = 0.01
    results = {}
    for mode in ("implicit", "lagged"):
        model = ForceModel(mesh, [plane], pen, friction_mode=mode)
        st = SystemState(q0.copy(), v0.copy(), 0.0)
        contact = model.build_contact_state(st.q, st.v, 0.0, h)
        scheme = make_scheme("be", lagged=(mode == "lagged"))
        res = scheme.step(model, contact, st, h, _solve)
        results[mode] = res.v
    np.testing.assert_allclose(results["lagged"], results["implicit"],
                               rtol=1e-7, atol=1e-12)


def test_lagged_equals_implicit_at_static_equilibrium():
    # equilibrium: q^{t+h} = q^t so the lagged anchors coincide with implicit
    mat = MaterialParams(density=800.0, youngs_modulus=1e6, poisson_ratio=0.3,
                         rayleigh_alpha=5.0)
    mesh = TetMeshModel(*box_grid((0.1, 0.1, 0.1), (1, 1, 1)), mat)
    mu = FrictionParams(mu_d=0.5, epsilon=1e-4)
    plane = HalfSpace((0, 0, 0), (0, 1, 0), friction=mu)
    pen = PenaltyParams(delta=1e-3, kappa=2e5)
    h = 0.01
    model = ForceModel(mesh, [plane], pen, friction_mode="implicit")
    # drop in at the rigid-balance depth and settle with implicit BE steps
    lam_each = mesh.vertex_mass.sum() * 9.8 / 4.0
    d0 = pen.delta - np.sqrt(lam_each * pen.delta / (3.0 * pen.kappa))
    q = mesh.rest_q().copy()
    q[1::3] += 0.05 + d0
    st = SystemState(q, np.zeros(mesh.n_dofs), 0.0)
    scheme = make_scheme("be")
    for k in range(2000):
        contact = model.build_contact_state(st.q, st.v, st.t, h)
        res = scheme.step(model, contact, st, h, _solve)
        st = SystemState(res.q, res.v, st.t + h)
        if np.max(np.abs(st.v)) < 1e-9:
            break
    assert np.max(np.abs(st.v)) < 1e-9
    # one further step in each mode matches
    out = {}
    for mode in ("implicit", "lagged"):
        m2 = ForceModel(mesh, [plane], pen, friction_mode=mode)
        contact = m2.build_contact_state(st.q, st.v, st.t, h)
        sch = make_scheme("be", lagged=(mode == "lagged"))
        res = sch.step(m2, contact, st, h, _solve)
        out[mode] = res.v
    np.testing.assert_allclose(out["lagged"], out["implicit"], atol=1e-10)


def _sliding_cube(h, lagged=False):
    """(model, start state, contact state) of a cube sliding on a plane
    with its bottom face inside the penalty support."""
    mat = MaterialParams(density=800.0, youngs_modulus=2e5, poisson_ratio=0.3)
    mesh = TetMeshModel(*box_grid((0.1, 0.1, 0.1), (1, 1, 1)), mat)
    plane = HalfSpace((0, 0, 0), (0, 1, 0),
                      friction=FrictionParams(mu_d=0.5, epsilon=1e-3))
    model = ForceModel(mesh, [plane], PenaltyParams(delta=1e-3, kappa=5e3),
                       friction_mode="lagged" if lagged else "implicit")
    q0 = mesh.rest_q().copy()
    q0[1::3] += 0.0504
    v0 = np.tile([0.05, -0.02, 0.0], mesh.n_verts)
    st = SystemState(q0, v0, 0.0)
    contact = model.build_contact_state(st.q, st.v, st.t, h)
    assert contact.cset.size and (contact.lagged is not None) == lagged
    return model, st, contact


@pytest.mark.parametrize("lagged", [False, True])
@pytest.mark.parametrize("name", ["be", "tr"])
def test_stage_residual_has_one_form(name, lagged):
    # implicit and lagged stages alike solve M (v - v_lin) - c f - f_const = 0
    h = 0.01
    model, st, contact = _sliding_cube(h, lagged)
    mesh, v0 = model.mesh, st.v
    seen = []

    def capture(problem, v_start, guess=None):
        seen.append(problem)
        return _solve(problem, v_start, guess)

    make_scheme(name, lagged=lagged).step(model, contact, st, h, capture)
    prob, = seen
    assert prob.c == (h if name == "be" else 0.5 * h)
    v = v0 + 1e-3 * np.random.default_rng(2).normal(size=v0.size)
    force = model.force(prob.q_ref + prob.c * v, v, prob.t_eval, contact)
    f_const = 0.0
    if name == "tr":
        f_const = 0.5 * h * model.force(st.q, st.v, st.t, contact)
        assert np.array_equal(prob.f_const, f_const)
    want = mesh.mass_dofs * (v - prob.v_lin) - prob.c * force - f_const
    assert np.array_equal(prob.residual(v), want)


def test_missplit_stage_solves_against_no_pairs():
    # tr_missplit's explicit half sees the step's contact pairs and its
    # implicit half none: M (v - v0) = h/2 (f(q0, v0) + f_0(q1, v)) with
    # q1 = q0 + h/2 (v0 + v) and f_0 the force on a state with no pairs
    h = 0.01
    model, st, contact = _sliding_cube(h)
    no_pairs = ContactState.empty(model.table)
    seen = []

    def capture(problem, v_start, guess=None):
        v, rep = _solve(problem, v_start, guess)
        seen.append((problem, rep))
        return v, rep

    res = make_scheme("tr_missplit").step(model, contact, st, h, capture)
    (prob, rep), = seen
    assert prob.contact.cset.size == 0 and rep.stop == "residual"
    f0 = model.force(st.q, st.v, st.t, contact)
    f1 = model.force(res.q, res.v, st.t + h, no_pairs)
    # the contact pairs act at both ends of the step
    assert not np.allclose(f0, model.force(st.q, st.v, st.t, no_pairs))
    assert not np.allclose(f1, model.force(res.q, res.v, st.t + h, contact))
    r = model.mass_dofs * (res.v - st.v) - 0.5 * h * (f0 + f1)
    assert np.max(np.abs(r)) <= rep.tol
    # the stage's assembled Jacobian against its dual JVP
    rng = np.random.default_rng(5)
    v_eval = res.v + 1e-3 * rng.normal(size=res.v.size)
    jac, rank1 = prob.jacobian(v_eval)
    for _ in range(4):
        p = rng.normal(size=v_eval.size)
        assembled = jac @ p + sum(r1.apply(p) for r1 in rank1)
        ad = prob.jvp(v_eval, p)
        err = np.max(np.abs(assembled - ad)) / np.max(np.abs(ad))
        assert err <= 1e-10


@pytest.mark.parametrize("name, with_prev, offered, stages", [
    ("be", True, True, 1), ("tr", True, True, 1),
    ("tr_missplit", True, True, 1), ("bdf2", True, True, 1),
    ("bdf2", False, False, 1), ("sdirk2", True, False, 2),
    ("trbdf2", True, False, 2)])
def test_schemes_say_which_stage_takes_the_guess(name, with_prev, offered,
                                                 stages):
    # the first stage starts from v0; BE, TR, tr_missplit and BDF2 (with a
    # history) offer their one stage the guess, BDF2's BE bootstrap and
    # every stage of SDIRK2 and TR-BDF2 none, and a second stage starts
    # from the first stage's result
    h = 0.01
    model, st, contact = _sliding_cube(h)
    prev = SystemState(st.q - h * st.v, st.v.copy(), -h) if with_prev \
        else None
    v0, prediction = st.v + 1e-3, 2.0 * st.v
    calls = []

    def recording(problem, v_start, guess=None):
        v, rep = _solve(problem, v_start, guess)
        calls.append((v_start, guess, v))
        return v, rep

    make_scheme(name).step(model, contact, st, h, recording, prev=prev,
                           v0=v0, guess=prediction)
    assert len(calls) == stages
    (v_start, guess, _), *later = calls
    assert v_start is v0 and guess is (prediction if offered else None)
    for (v_start, guess, _), (_, _, v_before) in zip(later, calls):
        assert v_start is v_before and guess is None


def test_residual_roundtrip_consistency():
    # at the root, re-substituting the advanced state satisfies the update rule
    model = _tet_model()
    mesh = model.mesh
    st = SystemState(mesh.rest_q(), 0.01 * np.ones(mesh.n_dofs), 0.0)
    h = 0.005
    contact = model.build_contact_state(st.q, st.v, 0.0, h)
    for name in ("be", "tr", "bdf2", "trbdf2", "sdirk2"):
        scheme = make_scheme(name)
        prev = SystemState(st.q.copy(), st.v.copy(), st.t)
        res = scheme.step(model, contact, st, h, _solve, prev=prev)
        if name == "be":
            f = model.force(res.q, res.v, h, contact)
            lhs = mesh.mass_dofs * (res.v - st.v)
            np.testing.assert_allclose(lhs, h * f, atol=1e-10)
            np.testing.assert_allclose(res.q, st.q + h * res.v, atol=1e-14)
        if name == "tr":
            f0 = model.force(st.q, st.v, 0.0, contact)
            f1 = model.force(res.q, res.v, h, contact)
            lhs = mesh.mass_dofs * (res.v - st.v)
            np.testing.assert_allclose(lhs, 0.5 * h * (f0 + f1), atol=1e-10)


def test_lagged_higher_order_rejected():
    with pytest.raises(ValueError, match="lagged"):
        make_scheme("bdf2", lagged=True)
    with pytest.raises(ValueError, match="unknown integrator"):
        make_scheme("rk4")
