import numpy as np
import pytest

from fricsim.contact import (HalfSpace, ObstacleTable, PenaltyParams, Sphere,
                             gaps)
from fricsim.dual import jvp
from fricsim.friction import (FrictionParams, contact_friction_blocks,
                              contact_friction_forces, friction_magnitude_c,
                              smooth_s, stribeck_g)

EPS = 1e-3
PEN = PenaltyParams(delta=1e-3, kappa=1e4)


def test_smoother_endpoints():
    assert smooth_s(0.0, EPS) == pytest.approx(0.0)
    assert smooth_s(EPS, EPS) == pytest.approx(1.0)
    assert smooth_s(0.5 * EPS, EPS) == pytest.approx(0.75)
    assert smooth_s(10 * EPS, EPS) == pytest.approx(1.0)


def test_smoother_c1_at_eps():
    # exact dual derivatives straddling the seam converge to the same limit
    from fricsim.dual import derivative
    h = 1e-12 * EPS
    left = derivative(lambda v: smooth_s(v, EPS), EPS - h)
    right = derivative(lambda v: smooth_s(v, EPS), EPS + h)
    assert abs(left - right) <= 1e-8


def test_smoother_monotone():
    v = np.linspace(0, 2 * EPS, 200)
    s = smooth_s(v, EPS)
    assert np.all(np.diff(s) >= -1e-15)


def test_stribeck_g_values():
    assert stribeck_g(0.0) == pytest.approx(1.0)
    assert stribeck_g(1.0) == pytest.approx(0.0)
    assert stribeck_g(0.5) == pytest.approx(0.5)
    assert stribeck_g(2.0) == pytest.approx(0.0)
    h = 1e-9
    assert (stribeck_g(1.0 + h) - stribeck_g(1.0 - h)) / (2 * h) == \
        pytest.approx(0.0, abs=1e-6)


def test_magnitude_coulomb_plateau():
    p = FrictionParams(mu_d=0.4, epsilon=EPS)
    lam = 7.0
    for v in (EPS, 2 * EPS, 100 * EPS):
        assert friction_magnitude_c(v, lam, p) == pytest.approx(0.4 * lam)


def test_magnitude_stribeck_decay_and_viscous():
    p = FrictionParams(mu_d=0.5, mu_s=1.5, mu_v=0.2, epsilon=EPS, v_s=10 * EPS)
    lam = 3.0
    v = 20 * EPS  # beyond v_s and eps
    assert friction_magnitude_c(v, lam, p) == pytest.approx(0.5 * lam + 0.2 * v)


def test_magnitude_derived_example():
    # mu_d=0.5, mu_s=1.5, v_s=10*eps, v=eps: c = (0.5 + 1.0*g(0.1))*lam
    # with g(0.1) = (1.2)(0.81) = 0.972
    p = FrictionParams(mu_d=0.5, mu_s=1.5, epsilon=EPS, v_s=10 * EPS)
    lam = 2.0
    expect = (0.5 + 1.0 * 0.972) * lam
    assert friction_magnitude_c(EPS, lam, p) == pytest.approx(expect, rel=1e-12)


def test_magnitude_c1_at_seams():
    from fricsim.dual import derivative
    p = FrictionParams(mu_d=0.3, mu_s=0.9, mu_v=0.1, epsilon=EPS, v_s=10 * EPS)
    for seam in (EPS, 10 * EPS):
        h = 1e-12 * seam
        dl = derivative(lambda v: friction_magnitude_c(v, 1.0, p), seam - h)
        dr = derivative(lambda v: friction_magnitude_c(v, 1.0, p), seam + h)
        assert abs(dl - dr) <= 1e-8


def test_vs_below_eps_warns():
    with pytest.warns(UserWarning, match="static friction"):
        FrictionParams(mu_d=0.5, epsilon=1e-2, v_s=1e-3)


def test_table_friction_rows_are_the_obstacles_params():
    """``ObstacleTable.friction`` holds each obstacle's ``FrictionParams``
    in the columns mu_d, mu_s, mu_v, epsilon, v_s, defaults included; an
    obstacle without friction gets the row of ``FrictionParams(mu_d=0)``,
    and a vertex sliding on it feels a bitwise zero friction force."""
    stribeck = FrictionParams(mu_d=0.4, mu_s=0.9, mu_v=0.05, epsilon=1e-3,
                              v_s=5e-3)
    coulomb = FrictionParams(mu_d=0.5, epsilon=2e-3)
    table = ObstacleTable([
        HalfSpace((0, 0, 0), (0, 1, 0), friction=stribeck),
        Sphere((0.3, 0.1, 0.0), 0.1, friction=coulomb),
        HalfSpace((0, 0, 0.05), (0, 0, -1))])
    assert table.friction.tolist() == [
        [0.4, 0.9, 0.05, 1e-3, 5e-3],
        [0.5, 0.5, 0.0, 2e-3, 10 * 2e-3],
        [0.0, 0.0, 0.0, 1e-4, 1e-3]]
    frictionless = FrictionParams(mu_d=0.0)
    assert table.friction[2].tolist() == [
        frictionless.mu_d, frictionless.mu_s, frictionless.mu_v,
        frictionless.epsilon, frictionless.v_s]

    q = np.array([0.0, 0.5, 0.0495])  # inside the wall's penalty support
    cs = gaps(table, q, 0.0, penalty=PEN)
    assert cs.obstacle.tolist() == [2] and cs.lam[0] > 0.0
    v = np.array([0.03, -0.02, 0.01])
    assert np.array_equal(_friction(cs, q, v), np.zeros(3))
    blocks = contact_friction_blocks(cs, q, v, 0.0, PEN)
    assert np.array_equal(blocks[:, 3:], np.zeros((1, 3, 6)))


def _friction(cs, q, v, **kw):
    """The set's friction force (m,) at t = 0, the second of
    ``contact_friction_forces``."""
    return contact_friction_forces(cs, q, v, 0.0, PEN, **kw)[1]


def _plane_setup(mu=0.5, mu_s=None, height=0.0005, n_verts=1):
    fr = FrictionParams(mu_d=mu, mu_s=mu_s, epsilon=EPS)
    plane = HalfSpace(point=(0, 0, 0), normal=(0, 1, 0), friction=fr)
    q = np.array([[0.1 * i, height, 0.0] for i in range(n_verts)]).ravel()
    cs = gaps(ObstacleTable([plane]), q, 0.0, penalty=PEN)
    return plane, q, cs


def test_friction_zero_velocity():
    plane, q, cs = _plane_setup()
    f = _friction(cs, q, np.zeros_like(q))
    assert np.all(f == 0.0)


def test_friction_coulomb_limit_direction():
    plane, q, cs = _plane_setup(mu=0.5)
    v = np.array([0.03, 0.0, 0.04])  # tangential, speed >> eps
    f = _friction(cs, q, v).reshape(-1, 3)[0]
    lam = cs.lam[0]
    assert np.linalg.norm(f) == pytest.approx(0.5 * lam, rel=1e-9)
    direction = f / np.linalg.norm(f)
    np.testing.assert_allclose(direction, -v / np.linalg.norm(v), atol=1e-12)
    assert f[1] == pytest.approx(0.0, abs=1e-15)


def test_friction_mdp_brute_force():
    # for |vbar| >= eps the force maximizes -vbar.y over the Coulomb disk
    rng = np.random.default_rng(11)
    plane, q, cs = _plane_setup(mu=0.7)
    lam = cs.lam[0]
    mu = 0.7
    for _ in range(100):
        ang = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(EPS, 50 * EPS)
        v = np.array([speed * np.cos(ang), 0.0, speed * np.sin(ang)])
        f = _friction(cs, q, v).reshape(-1, 3)[0]
        vbar = np.array([v[0], v[2]])
        fbar = np.array([f[0], f[2]])
        best = -vbar @ fbar
        for _ in range(200):
            y = rng.normal(size=2)
            y *= mu * lam * rng.uniform(0, 1) ** 0.5 / np.linalg.norm(y)
            assert -vbar @ y <= best * (1 + 1e-9) + 1e-15
        assert np.linalg.norm(fbar) <= mu * lam * (1 + 1e-12)


def test_friction_dissipative_all_speeds():
    plane, q, cs = _plane_setup(mu=0.8, mu_s=1.6)
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=3) * 10 ** rng.uniform(-6, 1)
        f = _friction(cs, q, v)
        assert v @ f <= 1e-18


def test_friction_frame_equivariance():
    rng = np.random.default_rng(5)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    th = 1.1
    kx = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                   [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(th) * kx + (1 - np.cos(th)) * (kx @ kx)

    fr = FrictionParams(mu_d=0.4, epsilon=EPS)
    plane = HalfSpace(point=(0.0, 0.0, 0.0), normal=(0.0, 1.0, 0.0),
                      friction=fr)
    q = np.array([0.02, 0.0004, -0.01])
    v = np.array([0.05, -0.001, 0.02])
    cs = gaps(ObstacleTable([plane]), q, 0.0, penalty=PEN)
    f = _friction(cs, q, v)

    plane_r = HalfSpace(point=rot @ plane.point, normal=rot @ plane.normal,
                        friction=fr)
    q_r = rot @ q
    v_r = rot @ v
    cs_r = gaps(ObstacleTable([plane_r]), q_r, 0.0, penalty=PEN)
    f_r = _friction(cs_r, q_r, v_r)
    np.testing.assert_allclose(f_r, rot @ f, rtol=1e-10, atol=1e-14)


def test_friction_coulomb_consistency_as_eps_shrinks():
    v = np.array([0.01, 0.0, 0.0])
    mu, lam_height = 0.5, 0.0005
    prev_err = None
    for eps in (1e-2, 1e-4, 1e-6):
        fr = FrictionParams(mu_d=mu, epsilon=eps)
        plane = HalfSpace(point=(0, 0, 0), normal=(0, 1, 0), friction=fr)
        q = np.array([0.0, lam_height, 0.0])
        cs = gaps(ObstacleTable([plane]), q, 0.0, penalty=PEN)
        f = _friction(cs, q, v)
        lam = cs.lam[0]
        target = -mu * lam * v / np.linalg.norm(v)
        err = np.linalg.norm(f - target)
        if prev_err is not None:
            assert err <= prev_err + 1e-16
        prev_err = err
    assert prev_err <= 1e-12 * mu  # converged at eps = 1e-6


def test_lagged_uses_frozen_lambda():
    plane, q, cs = _plane_setup(mu=0.5)
    v = np.array([0.02, 0.0, 0.0])
    f0 = _friction(cs, q, v, anchor=cs)
    assert np.any(f0 != 0.0)
    # moving the vertex away does not change the lagged force
    q_far = q + np.array([0.0, 10.0, 0.0])
    f_far = _friction(cs, q_far, v, anchor=cs)
    np.testing.assert_allclose(f_far, f0)
    # implicit force at the separated state vanishes instead
    f_impl = _friction(cs, q_far, v)
    assert np.all(f_impl == 0.0)


def test_friction_jvp_matches_fd_in_v():
    plane, q, cs = _plane_setup(mu=0.6, mu_s=1.2)
    rng = np.random.default_rng(9)
    v = np.array([2 * EPS, 0.0, -0.5 * EPS])
    p = rng.normal(size=3)
    h = 1e-8
    fd = (_friction(cs, q, v + h * p) - _friction(cs, q, v - h * p)) / (2 * h)
    ad = jvp(lambda vv: _friction(cs, q, vv), v, p)
    denom = max(np.max(np.abs(fd)), 1e-30)
    assert np.max(np.abs(ad - fd)) / denom <= 1e-4


def test_friction_jvp_matches_fd_in_q_sphere():
    # curved obstacle: sliding-basis derivatives are live
    fr = FrictionParams(mu_d=0.5, epsilon=EPS)
    sph = Sphere(center=(0.0, 0.0, 0.0), radius=0.1, friction=fr)
    x = np.array([0.1 + 0.0004, 0.0, 0.0])
    q = x.copy()
    cs = gaps(ObstacleTable([sph]), q, 0.0, penalty=PEN)
    assert cs.size == 1
    v = np.array([0.0, 0.01, 0.003])
    rng = np.random.default_rng(13)
    p = rng.normal(size=3)
    h = 1e-8
    fd = (_friction(cs, q + h * p, v) - _friction(cs, q - h * p, v)) / (2 * h)

    def f_of_q(qq):
        return _friction(cs, qq, v)

    ad = jvp(f_of_q, q, p)
    denom = max(np.max(np.abs(fd)), 1e-30)
    assert np.max(np.abs(ad - fd)) / denom <= 1e-4


def test_jacobian_blocks_negative_semidefinite_at_rest():
    # at vbar = 0 the velocity Jacobian is pure tangential damping with
    # slope c'(0+) = 2 mu_s lambda / eps (+ mu_v); NSD for any tangential v
    plane, q, cs = _plane_setup(mu=0.9, mu_s=1.5)
    dfdv = contact_friction_blocks(cs, q, np.zeros(3), 0.0, PEN)[:, 3:, 3:]
    sym = 0.5 * (dfdv[0] + dfdv[0].T)
    w = np.linalg.eigvalsh(sym)
    assert w.max() <= 1e-9 * max(1.0, -w.min())
    lam = cs.lam[0]
    expect = -2.0 * 1.5 * lam / EPS
    for tang in (np.array([1.0, 0, 0]), np.array([0, 0, 1.0])):
        assert tang @ dfdv[0] @ tang == pytest.approx(expect, rel=1e-9)


def test_jacobian_blocks_nsd_while_sliding_coulomb():
    # without Stribeck decay (mu_s = mu_d) the sliding branch stays NSD
    plane, q, cs = _plane_setup(mu=0.9)
    for v in (np.array([0.5 * EPS, 0.0, 0.0]), np.array([5 * EPS, 0.0, 2 * EPS])):
        dfdv = contact_friction_blocks(cs, q, v, 0.0, PEN)[:, 3:, 3:]
        sym = 0.5 * (dfdv[0] + dfdv[0].T)
        w = np.linalg.eigvalsh(sym)
        assert w.max() <= 1e-9 * max(1.0, -w.min())

