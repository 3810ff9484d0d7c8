import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fricsim.contact import (KAPPA_MAX, HalfSpace, ObstacleTable,
                             PenaltyParams, RigidMotion, Sphere,
                             adaptive_stiffen, contact_energy, gaps,
                             penalty_b, penalty_db, penalty_lambda,
                             tangential_velocity)
from fricsim.friction import contact_friction_blocks, contact_friction_forces
from helpers import gap, surface_velocity

DELTA = 1e-3
KAPPA = 1e4
PEN = PenaltyParams(delta=DELTA, kappa=KAPPA)
GROUND = HalfSpace(point=(0, 0, 0), normal=(0, 1, 0))


def _contact_force(cs, q, t, pen):
    """The residual kernel's contact force of the frozen set, at rest."""
    return contact_friction_forces(cs, q, np.zeros_like(q), t, pen)[0]


def test_plane_gap_values():
    x = np.array([[0.2, 0.3, -0.1]])
    d = gap(GROUND, x, 0.0)
    assert d[0] == pytest.approx(0.3)
    x2 = np.array([[0.0, -0.01, 0.0]])
    assert gap(GROUND, x2, 0.0)[0] == pytest.approx(-0.01)


def test_sphere_gap_zero_on_surface():
    s = Sphere(center=(0, 0, 0), radius=0.5)
    x = np.array([[0.5, 0.0, 0.0]])
    assert gap(s, x, 0.0)[0] == pytest.approx(0.0, abs=1e-12)
    inside = Sphere(center=(0, 0, 0), radius=0.5, contains=True)
    assert gap(inside, np.array([[0.2, 0.0, 0.0]]), 0.0)[0] == \
        pytest.approx(0.3)


def test_penalty_support_boundary():
    assert penalty_b(DELTA, DELTA, KAPPA) == pytest.approx(0.0)
    assert penalty_b(2 * DELTA, DELTA, KAPPA) == pytest.approx(0.0)
    assert penalty_b(0.0, DELTA, KAPPA) == pytest.approx(KAPPA * DELTA**2)
    assert penalty_b(-DELTA, DELTA, KAPPA) == pytest.approx(8 * KAPPA * DELTA**2)


def test_penalty_c2_at_delta():
    h = 1e-9
    for fn in (penalty_b, penalty_db):
        left = fn(DELTA - h, DELTA, KAPPA)
        right = fn(DELTA + h, DELTA, KAPPA)
        assert abs(left - right) < 1e-12 * KAPPA * DELTA**2 + 1e-10


@settings(derandomize=True, max_examples=40)
@given(d=st.floats(min_value=-5e-3, max_value=5e-3))
def test_lambda_nonnegative_and_c1(d):
    lam = penalty_lambda(d, DELTA, KAPPA)
    assert lam >= 0.0
    if d >= DELTA:
        assert lam == 0.0
    # C1 continuity of lambda in d (central difference of derivative)
    h = 1e-7
    dl = (penalty_lambda(d + h, DELTA, KAPPA)
          - penalty_lambda(d - h, DELTA, KAPPA)) / (2 * h)
    assert np.isfinite(dl)


def test_lambda_at_touch():
    assert penalty_lambda(0.0, DELTA, KAPPA) == pytest.approx(3 * KAPPA * DELTA)


def _simple_set(heights):
    q = np.array([[0.0, h, 0.0] for h in heights]).ravel()
    cs = gaps(ObstacleTable([GROUND]), q, 0.0, penalty=PEN)
    return q, cs


def test_gaps_candidate_selection():
    q, cs = _simple_set([0.3, 0.0012, -0.0005])
    # only vertices within 1.5*delta are candidates
    assert set(cs.vertex.tolist()) == {1, 2}
    d_by_vertex = dict(zip(cs.vertex.tolist(), cs.d.tolist()))
    assert d_by_vertex[2] == pytest.approx(-0.0005)


def test_contact_force_zero_when_separated():
    q, cs = _simple_set([0.3, 0.2, 5.0])
    f = _contact_force(cs, q, 0.0, PEN)
    assert np.all(f == 0.0) and cs.size == 0


def test_contact_force_along_normal_and_fd():
    q, cs = _simple_set([0.0005, 0.0002, -0.0001])
    f = _contact_force(cs, q, 0.0, PEN)
    fmat = f.reshape(-1, 3)
    assert np.all(fmat[:, 1] >= 0.0)       # pushes along +n
    assert np.allclose(fmat[:, [0, 2]], 0.0)
    # finite difference of the aggregate penalty energy
    h = 1e-9
    fd = np.zeros_like(q)
    for i in range(q.size):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        fd[i] = -(contact_energy(cs, qp, 0.0, PEN)
                  - contact_energy(cs, qm, 0.0, PEN)) / (2 * h)
    assert np.max(np.abs(f - fd)) <= 1e-5 * max(np.max(np.abs(f)), 1.0)


def test_contact_force_conservative_loop():
    # loop integral of f_c around a closed path with a fixed contact set
    q, cs = _simple_set([0.0004])
    theta = np.linspace(0, 2 * np.pi, 2001)
    radius = 2e-4
    path = np.stack([radius * np.cos(theta),
                     0.0004 + radius * np.sin(theta) * 0.5,
                     np.zeros_like(theta)], axis=1)
    work = 0.0
    for k in range(len(theta) - 1):
        mid = 0.5 * (path[k] + path[k + 1])
        f = _contact_force(cs, mid.ravel(), 0.0, PEN)
        work += f @ (path[k + 1] - path[k])
    assert abs(work) < 1e-8 * KAPPA * DELTA**2


def test_sliding_basis_extracts_tangential():
    q, cs = _simple_set([0.0005])
    v = np.zeros_like(q)
    v[1] = 2.0                      # purely normal
    assert np.allclose(tangential_velocity(cs, v, 0.0), 0.0)
    v = np.zeros_like(q)
    v[0], v[2] = 0.3, -0.4          # purely tangential, speed 0.5
    vbar = tangential_velocity(cs, v, 0.0)
    assert np.linalg.norm(vbar[0]) == pytest.approx(0.5)


def test_moving_obstacle_velocity_subtracted():
    motion = RigidMotion(translation=[(0.0, (0, 0, 0)), (1.0, (0.5, 0, 0))])
    plane = HalfSpace(point=(0, 0, 0), normal=(0, 1, 0), motion=motion)
    q = np.array([0.0, 0.0005, 0.0])
    cs = gaps(ObstacleTable([plane]), q, 0.5, penalty=PEN)
    v = np.zeros(3)
    v[0] = 0.5  # vertex co-moving with the plane
    vbar = tangential_velocity(cs, v, 0.5)
    assert np.linalg.norm(vbar) == pytest.approx(0.0, abs=1e-12)


def test_adaptive_stiffen_factors():
    pen = PenaltyParams(delta=DELTA, kappa=KAPPA)
    assert adaptive_stiffen(0.0, pen) == pytest.approx(4.0 * KAPPA)
    assert adaptive_stiffen(-DELTA, pen) == pytest.approx(16.0 * KAPPA)
    assert pen.kappa == KAPPA


def test_adaptive_stiffen_cap():
    # the bump past KAPPA_MAX is a StepFailure of the step
    # (tests/test_simulate.py); kappa itself may not start past it
    with pytest.raises(ValueError, match="KAPPA_MAX"):
        PenaltyParams(delta=DELTA, kappa=2 * KAPPA_MAX)


def test_rotating_obstacle_surface_velocity():
    motion = RigidMotion(rotation_axis=(0, 0, 1), rotation_pivot=(0, 0, 0),
                         rotation_angles=[(0.0, 0.0), (1.0, np.pi)])
    plane = HalfSpace(point=(0, 0, 0), normal=(0, 1, 0), motion=motion)
    x = np.array([[1.0, 0.0, 0.0]])
    w = surface_velocity(plane, x, 0.5)
    # omega = pi rad/s about z, at (1,0,0) -> v = (0, pi, 0)
    np.testing.assert_allclose(w, [[0.0, np.pi, 0.0]], atol=1e-12)


def test_zero_rotation_axis_rejected():
    with pytest.raises(ValueError, match="rotation axis must be nonzero"):
        RigidMotion(rotation_axis=(0, 0, 0),
                    rotation_angles=[(0.0, 0.0), (1.0, 1.0)])


@pytest.mark.parametrize("contains", [True, False])
def test_sphere_contact_blocks_match_fd(contains):
    # vertices inside the penalty support of a sphere wall, from inside a
    # container or outside a ball: the curvature term has opposite signs
    sph = Sphere(center=(0.0, 0.0, 0.0), radius=0.1, contains=contains)
    rng = np.random.default_rng(21)
    dirs = rng.normal(size=(4, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    x = dirs * (0.1 + (-0.0004 if contains else 0.0004))
    q = x.ravel()
    cs = gaps(ObstacleTable([sph]), q, 0.0, PEN)
    assert cs.size == 4
    blocks = contact_friction_blocks(cs, q, np.zeros_like(q), 0.0, PEN,
                                     1.0, 0.0)[:, :3]
    h = 1e-7
    for c in range(3):
        step = np.zeros_like(x)
        step[:, c] = h
        fd = (_contact_force(cs, q + step.ravel(), 0.0, PEN)
              - _contact_force(cs, q - step.ravel(), 0.0, PEN)) / (2 * h)
        np.testing.assert_allclose(blocks[:, :, c], fd.reshape(-1, 3),
                                   rtol=0, atol=1e-6 * np.abs(blocks).max())
    # along a tangent only the curvature term lambda * Hess(d) acts:
    # -lambda/r inside a container, +lambda/r outside a ball
    tang = np.cross(dirs, [0.0, 0.0, 1.0])
    tang /= np.linalg.norm(tang, axis=1)[:, None]
    curv = np.einsum("ki,kij,kj->k", tang, blocks, tang)
    expect = cs.lam / np.linalg.norm(x, axis=1) * (-1.0 if contains else 1.0)
    np.testing.assert_allclose(curv, expect, rtol=1e-9)
