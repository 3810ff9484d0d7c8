"""The one contact-and-friction pass against a per-obstacle oracle.

``contact_friction_blocks`` seeds three stage directions (c_q e_i, c_v e_i)
per contact in one ``dual.jacobian_blocks`` pass, and
``contact_friction_forces`` gathers every contact's geometry from the
obstacle table in one evaluation.  The oracle here does it the long way:
per obstacle and per block kind, one ``jacobian_blocks`` pass of a kernel
written with that obstacle's scalar ``FrictionParams`` and its gap, normal
and surface velocity in closed form, for the dq and dv blocks apart.  The
mixed state has a Stribeck half-space, a moving sphere, a frictionless
rotating plane, a sphere spinning about an off-centre pivot and a vertex
touching two obstacles.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from fricsim import dual as dm
from fricsim import friction
from fricsim.contact import (HalfSpace, ObstacleTable, PenaltyParams,
                             RigidMotion, Sphere, gaps, penalty_lambda,
                             snapshot)
from fricsim.experiments import block_slide_scene
from fricsim.friction import (FrictionParams, contact_friction_blocks,
                              contact_friction_forces, friction_magnitude_c)
from fricsim.scene import load_scene, load_scene_file
from fricsim.simulate import Simulation
from helpers import bits_equal, count_frames

PEN = PenaltyParams(delta=1e-3, kappa=1e4)
T = 0.25
SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def _obstacles(contains):
    """A Stribeck floor, a moving sphere resting on it (a ball, or a large
    container the other points lie inside), a frictionless wall that
    rotates about a far pivot and a rising ball that spins about a pivot
    off its centre."""
    floor = HalfSpace((0, 0, 0), (0, 1, 0), friction=FrictionParams(
        mu_d=0.4, mu_s=0.9, mu_v=0.05, epsilon=1e-3, v_s=5e-3))
    centre, radius = ((0.0, 0.5, 0.0), 2.0) if contains \
        else ((0.3, 0.1, 0.0), 0.1)
    sphere = Sphere(centre, radius, contains=contains,
                    friction=FrictionParams(mu_d=0.7, mu_s=1.1, epsilon=2e-3),
                    motion=RigidMotion(translation=[(0.0, (0, 0, 0)),
                                                    (1.0, (0.04, 0, 0.02))]))
    wall = HalfSpace((0, 0, 0.05), (0, 0, -1), motion=RigidMotion(
        rotation_axis=(0, 1, 0), rotation_pivot=(0.0, 0.0, -2.0),
        rotation_angles=[(0.0, 0.0), (1.0, 0.004)]))
    spinner = Sphere((-0.5, 0.3, -0.3), 0.1,
                     friction=FrictionParams(mu_d=0.5, epsilon=1e-3),
                     motion=RigidMotion(
                         translation=[(0.0, (0, 0, 0)),
                                      (1.0, (0.03, 0.02, 0))],
                         rotation_axis=(0, 1, 0),
                         rotation_pivot=(-0.5, 0.3, -0.5),
                         rotation_angles=[(0.0, 0.0), (1.0, 0.02)]))
    return [floor, sphere, wall, spinner]


def _moved(obs, base, t):
    """The point ``base`` of the obstacle carried by its motion to t."""
    pivot = obs.motion.rotation_pivot
    r, off, _, _ = obs.motion.frame(t)
    return r @ (base - pivot) + pivot + off


def _gap_normal(obs, x, t):
    """Closed-form gap (k,) and unit normal (k, 3) of one obstacle at the
    positions x (k, 3); generic over Dual x."""
    if isinstance(obs, HalfSpace):
        n = np.broadcast_to(obs.motion.frame(t)[0] @ obs.normal,
                            np.shape(dm.value(x)))
        return dm.dot_last(x - _moved(obs, obs.point, t), n), n
    rel = x - _moved(obs, obs.center, t)
    dist = dm.norm_last(rel)
    unit = rel / dist[..., None]
    if obs.contains:
        return obs.radius - dist, -unit
    return dist - obs.radius, unit


def _surface_velocity(obs, x, t):
    """Closed-form velocity (k, 3) of the obstacle's material points at x:
    its linear velocity plus omega x (x - pivot(t))."""
    _, off, vlin, omega = obs.motion.frame(t)
    arm = x - (obs.motion.rotation_pivot + off)
    return vlin + dm.cross_last(np.broadcast_to(omega, arm.shape), arm)


def _onto(obs, x, gap):
    """x moved along the obstacle normal until its gap is ``gap``."""
    for _ in range(3):
        d, n = _gap_normal(obs, x[None], T)
        x = x + (gap - d[0]) * n[0]
    return x


def _state(contains):
    """(obstacles, q, v): 4 points inside the penalty support of each
    obstacle and a corner point 0.5 delta from the floor and the sphere."""
    obstacles = _obstacles(contains)
    floor, sphere, wall, spinner = obstacles
    rng = np.random.default_rng(4)
    points = []
    for obs, near in ((floor, (0.1, 0.0, -0.1)), (wall, (-0.2, 0.3, 0.05))):
        for _ in range(4):
            x = np.array(near) + 0.02 * rng.normal(size=3)
            points.append(_onto(obs, x, rng.uniform(-0.2, 0.8) * PEN.delta))
    # the sphere's points on its upper half, on the floor side of the wall
    for ball, upper in ((sphere, True), (spinner, False)):
        centre = _moved(ball, ball.center, T)
        for _ in range(4):
            u = rng.normal(size=3)
            if upper:
                u[1] = abs(u[1]) + 1.0
                u[2] = -abs(u[2]) - 0.5
            u /= np.linalg.norm(u)
            points.append(_onto(ball, centre + ball.radius * u,
                                rng.uniform(-0.2, 0.8) * PEN.delta))
    centre = _moved(sphere, sphere.center, T)
    g = 0.5 * PEN.delta
    rise = centre[1] - g
    reach = sphere.radius - g if contains else sphere.radius + g
    points.append(centre + [np.sqrt(reach ** 2 - rise ** 2), -rise, 0.0])
    q = np.ravel(points)
    speeds = rng.choice([0.3, 3.0, 30.0], size=len(points)) * 1e-3
    dirs = rng.normal(size=(len(points), 3))
    v = (dirs / np.linalg.norm(dirs, axis=1)[:, None] * speeds[:, None]).ravel()
    return obstacles, q, v


def _friction_local(v, lam, normal, w, params):
    rel = v - w
    vt = rel - dm.dot_last(rel, normal)[..., None] * normal
    speed = dm.norm_last(vt)
    return -(friction_magnitude_c(speed, lam, params) / speed)[..., None] * vt


def _oracle(cset, obstacles, q, v, anchor_set):
    """(blocks (k, 6, 6), contact force, friction force), per obstacle."""
    x = q.reshape(-1, 3)[cset.vertex]
    vv = v.reshape(-1, 3)[cset.vertex]
    blocks = np.zeros((cset.size, 6, 6))
    f_c = np.zeros((len(q) // 3, 3))
    f_f = np.zeros((len(q) // 3, 3))
    for oi in np.unique(cset.obstacle):
        obs = obstacles[oi]
        m = np.nonzero(cset.obstacle == oi)[0]
        params = obs.friction or FrictionParams(mu_d=0.0)

        def contact(xd, obs=obs):
            d, n = _gap_normal(obs, xd, T)
            return penalty_lambda(d, PEN.delta, PEN.kappa)[..., None] * n

        def anchor(xd, obs=obs, m=m):
            if anchor_set is not None:
                return (anchor_set.lam[m], anchor_set.n[m],
                        _surface_velocity(obs, anchor_set.x[m], T))
            d, n = _gap_normal(obs, xd, T)
            return (penalty_lambda(d, PEN.delta, PEN.kappa), n,
                    _surface_velocity(obs, xd, T))

        def friction_v(vd, *anc, params=params):
            return _friction_local(vd, *anc, params)

        def friction_q(xd, vm, anchor=anchor, params=params):
            return _friction_local(vm, *anchor(xd), params)

        blocks[m, :3, :3] = dm.jacobian_blocks(contact, x[m])
        if anchor_set is None:  # else constant in q
            blocks[m, 3:, :3] = dm.jacobian_blocks(friction_q, x[m], vv[m])
        blocks[m, 3:, 3:] = dm.jacobian_blocks(friction_v, vv[m],
                                               *anchor(x[m]))
        np.add.at(f_c, cset.vertex[m], contact(x[m]))
        np.add.at(f_f, cset.vertex[m], friction_v(vv[m], *anchor(x[m])))
    return blocks, f_c.ravel(), f_f.ravel()


def _close(got, want):
    scale = max(np.abs(want).max(), 1e-300)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * scale)


def _mixed_set(mode, contains):
    """(obstacles, cset, q, v, anchor) of the mixed state: the lagged
    anchor is the same pairs re-snapshotted elsewhere."""
    obstacles, q, v = _state(contains)
    cset = gaps(ObstacleTable(obstacles), q, T, PEN)
    assert np.array_equal(np.bincount(cset.obstacle), [5, 5, 4, 4])
    corner = cset.vertex == len(q) // 3 - 1  # on the floor and the sphere
    assert np.array_equal(cset.obstacle[corner], [0, 1])
    assert np.all(cset.lam > 0.0)
    anchor = None
    if mode == "lagged":
        q0 = q + 1e-4 * np.random.default_rng(1).normal(size=q.size)
        anchor = snapshot(cset.table, cset.vertex, cset.obstacle, q0, 0.2,
                          PEN)
    return obstacles, cset, q, v, anchor


@pytest.mark.parametrize("contains", [False, True])
@pytest.mark.parametrize("mode", ["implicit", "lagged"])
def test_one_pass_matches_per_obstacle_oracle(mode, contains):
    obstacles, cset, q, v, anchor = _mixed_set(mode, contains)
    dq, dv = (contact_friction_blocks(cset, q, v, T, PEN, *weights,
                                      anchor=anchor)
              for weights in ((1.0, 0.0), (0.0, 1.0)))
    f_c, f_f = contact_friction_forces(cset, q, v, T, PEN, anchor=anchor)
    want, want_c, want_f = _oracle(cset, obstacles, q, v, anchor)
    _close(dq[:, :3], want[:, :3, :3])
    _close(dv[:, 3:], want[:, 3:, 3:])
    _close(dq[:, 3:], want[:, 3:, :3])
    assert np.all(dv[:, :3] == 0.0)
    if mode != "implicit":
        assert np.all(dq[:, 3:] == 0.0)
    else:
        assert np.abs(dq[:, 3:]).max() > 0.0
    # the frictionless wall's contacts carry no friction
    wall = cset.obstacle == 2
    assert np.all(dq[wall, 3:] == 0.0) and np.all(dv[wall, 3:] == 0.0)
    assert np.abs(dv[~wall, 3:]).max() > 0.0
    _close(f_c, want_c)
    _close(f_f, want_f)


_RNG_WEIGHTS = np.random.default_rng(17)


@pytest.mark.parametrize("c_q,c_v", [
    (1.0, 0.0), (0.0, 1.0),
    *(tuple(_RNG_WEIGHTS.uniform(-2.0, 2.0, size=2)) for _ in range(2)),
    (0.0037, 1.0)], ids=["dq", "dv", "random0", "random1", "stage"])
@pytest.mark.parametrize("contains", [False, True])
@pytest.mark.parametrize("mode", ["implicit", "lagged"])
def test_stage_weighted_blocks_match_the_oracle(mode, contains, c_q, c_v):
    """The three-seed pass gives c_q df/dq + c_v df/dv of both forces, on
    half-spaces and a sphere, in both friction modes; at weights (1, 0) a
    lagged contact's friction rows are exactly zero."""
    obstacles, cset, q, v, anchor = _mixed_set(mode, contains)
    blocks = contact_friction_blocks(cset, q, v, T, PEN, c_q, c_v,
                                     anchor=anchor)
    assert blocks.shape == (cset.size, 6, 3)
    want = _oracle(cset, obstacles, q, v, anchor)[0]
    want = c_q * want[:, :, :3] + c_v * want[:, :, 3:]
    _close(blocks[:, :3], want[:, :3])
    _close(blocks[:, 3:], want[:, 3:])
    if mode == "lagged" and (c_q, c_v) == (1.0, 0.0):
        assert np.all(blocks[:, 3:] == 0.0)


@pytest.mark.parametrize("mode", ["implicit", "lagged"])
def test_plain_coulomb_table_gives_the_full_law_bitwise(mode, monkeypatch):
    """On a table whose friction rows are all plain Coulomb the kernel
    skips the Stribeck and viscous terms, and its forces and blocks equal
    the full law's bit for bit (the skipped terms are exact zeros)."""
    obstacles, q, v = _state(True)
    floor, sphere = obstacles[:2]
    floor.friction = FrictionParams(mu_d=0.4, epsilon=1e-3)
    sphere.friction = FrictionParams(mu_d=0.7, epsilon=2e-3)
    table = ObstacleTable(obstacles)
    assert table.coulomb
    cset = gaps(table, q, T, PEN)
    anchor = None
    if mode == "lagged":
        anchor = snapshot(table, cset.vertex, cset.obstacle, q + 1e-4, 0.2,
                          PEN)
    full = _count_calls(monkeypatch, friction, "friction_magnitude_c")

    def evaluate():
        return (*contact_friction_forces(cset, q, v, T, PEN, anchor=anchor),
                contact_friction_blocks(cset, q, v, T, PEN, 0.0037, 1.0,
                                        anchor=anchor))

    plain = evaluate()
    assert not full
    table.coulomb = False
    law = evaluate()
    assert len(full) == 2
    assert np.abs(plain[1]).max() > 0.0
    for got, want in zip(plain, law):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("params", [
    FrictionParams(mu_d=0.4, mu_s=0.41, epsilon=1e-3),
    FrictionParams(mu_d=0.4, mu_v=1e-3, epsilon=1e-3)],
    ids=["stribeck", "viscous"])
def test_one_stribeck_or_viscous_row_takes_the_full_law(params, monkeypatch):
    """One row with mu_s > mu_d or mu_v > 0 among plain Coulomb ones makes
    the table take the full law, which the oracle's forces match."""
    obstacles, q, v = _state(False)
    floor, sphere = obstacles[:2]
    floor.friction = params
    sphere.friction = FrictionParams(mu_d=0.7, epsilon=2e-3)
    table = ObstacleTable(obstacles)
    assert not table.coulomb
    cset = gaps(table, q, T, PEN)
    full = _count_calls(monkeypatch, friction, "friction_magnitude_c")
    f_c, f_f = contact_friction_forces(cset, q, v, T, PEN)
    assert len(full) == 1
    _, want_c, want_f = _oracle(cset, obstacles, q, v, None)
    _close(f_c, want_c)
    _close(f_f, want_f)


@pytest.mark.parametrize("dual", [False, True], ids=["real", "dual"])
@pytest.mark.parametrize("mode", ["implicit", "lagged"])
def test_forces_are_add_at_of_the_kernel_bitwise(mode, dual):
    """Each force sums the kernel's per-contact outputs onto their vertices
    bit for bit as np.add.at does into zeros, real parts and tangents, on
    a set where one vertex meets two obstacles."""
    obstacles, q, v = _state(False)
    cset = gaps(ObstacleTable(obstacles), q, T, PEN)
    assert np.bincount(cset.vertex).max() == 2
    anchor = None
    if mode == "lagged":
        anchor = snapshot(cset.table, cset.vertex, cset.obstacle,
                          q + 1e-4, 0.2, PEN)
    if dual:
        rng = np.random.default_rng(9)
        q = dm.Dual(q, rng.normal(size=q.size))
        v = dm.Dual(v, rng.normal(size=v.size))
    x, vv = q.reshape(-1, 3), v.reshape(-1, 3)
    per_contact = friction._contact_friction_local(
        x[cset.vertex], vv[cset.vertex], cset.obstacle,
        *friction._lagged_anchor(T, anchor), table=cset.table, t=T,
        penalty=PEN)
    got = contact_friction_forces(cset, q, v, T, PEN, anchor=anchor)
    for force, per in zip(got, per_contact):
        for part in (dm.value, dm.tangent):
            want = np.zeros(x.shape)
            np.add.at(want, cset.vertex, part(per))
            assert np.array_equal(part(force), want.ravel())


def test_half_space_geometry_is_the_plane_distance_bitwise():
    """On a set of half-spaces only, the gathered gap is bitwise each
    obstacle's plane distance dot_last(x - p, n) on its own rows, real and
    Dual, and the normal and surface velocity are its own."""
    floor, _, wall, _ = _obstacles(False)
    ramp = HalfSpace((0, 0.1, 0), (1, 2, 0), motion=RigidMotion(
        translation=[(0.0, (0, 0, 0)), (1.0, (0.3, 0.0, 0.1))]))
    obstacles = [floor, wall, ramp]
    rng = np.random.default_rng(7)
    x = rng.normal(size=(15, 3))
    obstacle = rng.permutation(np.arange(15) % 3)
    table = ObstacleTable(obstacles)
    for xq in (x, dm.Dual(x, rng.normal(size=x.shape))):
        d, n = table.gap_normal(obstacle, xq, T)
        w = table.velocity(obstacle, xq, T)
        for oi, obs in enumerate(obstacles):
            rows = np.nonzero(obstacle == oi)[0]
            nb = np.broadcast_to(obs.motion.frame(T)[0] @ obs.normal,
                                 (len(rows), 3))
            p = _moved(obs, obs.point, T)
            assert bits_equal(d[rows], dm.dot_last(xq[rows] - p, nb)), oi
            assert np.array_equal(n[rows], nb), oi
            assert bits_equal(w[rows], _surface_velocity(obs, xq[rows], T)), oi


def _stage():
    """(problem, v) of the first solve after 120 plate_squeeze steps."""
    sim = Simulation(load_scene_file(os.path.join(SCENES,
                                                  "plate_squeeze.json")))
    for _ in range(120):
        sim.advance()
    seen = []

    def capture(problem, v0, guess=None):
        seen.append((problem, np.asarray(v0, float).copy()))
        return Simulation._solve(sim, problem, v0, guess)

    sim._solve = capture
    sim.advance()
    return seen[0]


def _count_calls(monkeypatch, owner, name):
    """The argument lists of every call of ``owner.name`` from now on."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_dual_pass_and_one_geometry_evaluation(monkeypatch):
    """The residual gathers every contact's geometry in one
    ``ObstacleTable.gap_normal`` call, the Jacobian in one dual pass, and
    both read the obstacle frames of their stage time, evaluated once per
    obstacle and stage time."""
    prob, v = _stage()
    model = prob.model
    assert len(model.table.obstacles) == 3
    assert len(np.unique(prob.contact.cset.obstacle)) == 3
    passes = _count_calls(monkeypatch, dm, "jacobian_blocks")
    geometry = _count_calls(monkeypatch, ObstacleTable, "gap_normal")
    frames = count_frames(monkeypatch)
    model.jacobians(prob.positions(v), v, prob.t_eval, prob.contact,
                    prob.c, 1.0)
    assert len(passes) == len(geometry) == 1
    geometry.clear()
    prob.residual(v)
    assert len(geometry) == 1
    # the stage's frames were evaluated in its solve, before the count
    assert frames(model.table.obstacles) == [0, 0, 0]
    later = replace(prob, t_eval=prob.t_eval + prob.h)
    for _ in range(2):
        later.residual(v)
        later.jacobian(v)
    assert frames(model.table.obstacles) == [1, 1, 1]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_contact_velocity_gives_a_non_finite_residual(bad):
    """A NaN or inf in v on a contact vertex makes the stage residual
    non-finite on all three of that vertex's rows, although the penalty,
    pre-sliding and Stribeck functions give their constant branch (0 or 1)
    for a non-finite argument."""
    prob, v = _stage()
    cset = prob.contact.cset
    vertex = cset.vertex[np.argmax(cset.lam)]
    assert np.all(np.isfinite(prob.residual(v)))
    v = v.copy()
    v[3 * vertex + 1] = bad
    with np.errstate(invalid="ignore"):
        r = prob.residual(v)
    assert not np.any(np.isfinite(r[3 * vertex:3 * vertex + 3]))


def _advanced(scene, steps=60):
    sim = Simulation(scene)
    infos = [sim.advance() for _ in range(steps)]
    return sim, infos


def _lagged_slide():
    return _advanced(load_scene(json.dumps(block_slide_scene(
        0.01, "be", "lagged:4", solver_kind="iterative"))))


def test_candidate_snapshot_serves_the_anchor_and_the_record(monkeypatch):
    """A lagged candidate build scans every (surface vertex, obstacle) pair
    once and snapshots its pairs once; it is its own anchor.  Outside its
    solves an accepted step makes that one build of its end state (plus
    one snapshot per later lagged pass), the whole step evaluates each
    obstacle's frame once, at its one stage time, and ``record`` reads the
    build without any geometry evaluation."""
    slide, _ = _lagged_slide()
    squeeze, _ = _advanced(load_scene_file(os.path.join(
        SCENES, "plate_squeeze.json")))
    model, st = slide.model, slide.state
    every = len(model.table.obstacles) * len(model.mesh.surface_vertices)
    evaluated = _count_calls(monkeypatch, ObstacleTable, "gap_normal")
    frames = count_frames(monkeypatch)

    def rows():  # the rows of each gap evaluation so far
        return [len(args[1]) for args in evaluated]

    contact = model.build_contact_state(st.q, st.v, st.t, slide.h)
    assert contact.cset.size and contact.lagged is contact.cset
    assert rows() == [every, contact.cset.size]
    for sim in (slide, squeeze):
        obstacles = sim.model.table.obstacles
        every = len(obstacles) * len(sim.model.mesh.surface_vertices)
        held = sim.contact().cset.size
        evaluated.clear()
        before = frames(obstacles)
        sim.record()
        assert rows() == [] and frames(obstacles) == before

        def solve(problem, v0, guess=None, sim=sim):
            done = len(evaluated)
            out = Simulation._solve(sim, problem, v0, guess)
            del evaluated[done:]  # residual evaluations are not counted
            return out

        sim._solve = solve
        info = sim.advance()
        assert info.retries == 0
        later_passes = len(info.reports) - 1 if sim is slide else 0
        assert later_passes or sim is squeeze
        assert rows() == [held] * later_passes + [every,
                                                  sim.contact().cset.size]
        assert frames(obstacles) == [b + 1 for b in before]


def test_held_contact_state_is_a_fresh_build_of_the_state():
    sim, _ = _lagged_slide()
    st = sim.state
    held = sim.contact()
    fresh = sim.model.build_contact_state(st.q, st.v, st.t, sim.h)
    assert held.cset.size and held.lagged is held.cset
    for name in ("vertex", "obstacle", "x", "d", "lam", "n"):
        assert np.array_equal(getattr(held.cset, name),
                              getattr(fresh.cset, name)), name
    assert held.cset.deepest == fresh.cset.deepest


def test_lagged_passes_stop_at_their_fixed_point():
    """A later lagged pass whose solve takes no Newton iteration leaves the
    anchor where it was, so no further pass follows it."""
    _, infos = _lagged_slide()
    # a retried step's reports run on over its tries
    steps = [i for i in infos if not i.retries]
    assert len(steps) > 50 and any(len(i.reports) < 4 for i in steps)
    for info in steps:
        assert all(r.iterations for r in info.reports[1:-1]), info.index
