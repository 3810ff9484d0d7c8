"""The contact-candidate path against a brute-force scan of every
(surface vertex, obstacle) pair, on the three-obstacle plate_squeeze scene,
the sweep margin of a rotating or resting obstacle, and the table's
per-kind gap shortcut against its general path."""

import os

import numpy as np

from fricsim import dual as dm
from fricsim.contact import (HalfSpace, ObstacleTable, PenaltyParams,
                             RigidMotion, Sphere, gaps, penalty_lambda)
from fricsim.forces import ForceModel
from fricsim.mesh import MaterialParams, TetMeshModel
from fricsim.meshgen import box_grid
from fricsim.scene import load_scene_file
from helpers import bits_equal, gap, gap_normal, surface_velocity

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")
H = 0.005


def _model():
    scene = load_scene_file(os.path.join(SCENES, "plate_squeeze.json"))
    model = scene.build_model()
    rng = np.random.default_rng(3)
    q = scene.initial_q + 2e-4 * rng.normal(size=scene.initial_q.size)
    v = 0.05 * rng.normal(size=q.size)
    return model, q, v


def _brute_force(model, q, v, t, h):
    """(vertex, obstacle, d, n) of every pair inside the activation distance,
    one pair at a time, in vertex-then-obstacle order."""
    x, vv = q.reshape(-1, 3), v.reshape(-1, 3)
    rows = []
    for vert in model.mesh.surface_vertices:
        obs_speed = max(np.linalg.norm(surface_velocity(o, x[vert][None], t))
                        for o in model.table.obstacles)
        reach = 1.5 * model.penalty.delta \
            + h * (np.linalg.norm(vv[vert]) + obs_speed)
        for oi, obs in enumerate(model.table.obstacles):
            d, n = gap_normal(obs, x[vert][None], t)
            if d[0] < reach:
                rows.append((vert, oi, d[0], n[0]))
    return rows


def test_candidates_match_brute_force():
    model, q, v = _model()
    t = 0.1
    cset = model.build_contact_state(q, v, t, H).cset
    rows = _brute_force(model, q, v, t, H)
    assert len({oi for _, oi, _, _ in rows}) == 3  # every obstacle in play
    np.testing.assert_array_equal(cset.vertex, [r[0] for r in rows])
    np.testing.assert_array_equal(cset.obstacle, [r[1] for r in rows])
    d = np.array([r[2] for r in rows])
    np.testing.assert_allclose(cset.d, d, rtol=1e-14, atol=1e-18)
    np.testing.assert_allclose(cset.n, [r[3] for r in rows], rtol=1e-14,
                               atol=1e-18)
    pen = model.penalty
    np.testing.assert_allclose(cset.lam, penalty_lambda(d, pen.delta,
                                                        pen.kappa),
                               rtol=1e-12, atol=0.0)


def test_rotating_obstacle_sweeps_candidates_in():
    # a floor spinning about a pivot 1 m away, level at t = 0.1, sweeps up
    # at 0.5 m/s under the block: its bottom vertices, at rest 3 mm above it,
    # are inside the swept band but outside the band its (zero) linear
    # velocity alone gives
    motion = RigidMotion(rotation_axis=(0, 0, 1), rotation_pivot=(-1, 0, 0),
                         rotation_angles=[(0.0, -0.05), (1.0, 0.45)])
    floor = HalfSpace(point=(0, 0, 0), normal=(0, 1, 0), motion=motion)
    mesh = TetMeshModel(*box_grid((0.02, 0.02, 0.02), (1, 1, 1)),
                        MaterialParams(density=1000.0, youngs_modulus=1e5,
                                       poisson_ratio=0.3))
    model = ForceModel(mesh, [floor], PenaltyParams(delta=1e-3, kappa=1e4))
    x = mesh.rest_positions.copy()
    x[:, 1] += 0.003 - x[:, 1].min()
    t, h = 0.1, 0.01
    d = gap(floor, x, t)
    bottom = np.nonzero(d < 0.01)[0]
    assert len(bottom) == 4
    linear_band = 1.5 * model.penalty.delta \
        + h * np.linalg.norm(motion.frame(t)[2])
    swept_band = 1.5 * model.penalty.delta + h * np.linalg.norm(
        surface_velocity(floor, x[bottom], t), axis=1)
    assert np.all((d[bottom] > linear_band) & (d[bottom] < swept_band))
    cset = model.build_contact_state(x.ravel(), np.zeros(x.size), t, h).cset
    np.testing.assert_array_equal(cset.vertex, bottom)


def test_obstacle_speed_is_an_exact_zero_when_nothing_moves(monkeypatch):
    # a plate that slides until t = 0.5 and then holds, and a fixed ball:
    # while the plate moves the speed is the largest surface-velocity norm
    # at each position; after, it is the scalar 0.0 with no evaluation
    plate = HalfSpace(point=(0, 0, 0), normal=(0, 1, 0), motion=RigidMotion(
        translation=[(0.0, (0, 0, 0)), (0.5, (0.1, 0.2, 0))]))
    table = ObstacleTable([plate, Sphere(center=(0, 1, 0), radius=0.1)])
    x = np.random.default_rng(4).normal(size=(6, 3))
    np.testing.assert_allclose(table.speed(x, 0.25),
                               np.full(6, np.hypot(0.2, 0.4)), rtol=1e-15)

    def no_velocity(*args):
        raise AssertionError("velocity evaluated with no obstacle moving")

    monkeypatch.setattr(ObstacleTable, "velocity", no_velocity)
    assert table.speed(x, 0.75) == 0.0 and isinstance(
        table.speed(x, 0.75), float)


def test_extra_pairs_are_unioned_sorted_and_unique():
    model, q, v = _model()
    base = model.build_contact_state(q, v, 0.0, H).cset
    pairs = set(zip(base.vertex.tolist(), base.obstacle.tolist()))
    far = [(int(vert), oi) for vert in model.mesh.surface_vertices
           for oi in range(3) if (int(vert), oi) not in pairs][:4]
    assert len(far) == 4
    extra = np.array(far + far[:2] + [next(iter(pairs))])  # with repeats
    cset = model.build_contact_state(q, v, 0.0, H,
                                     extra_candidates=extra).cset
    got = list(zip(cset.vertex.tolist(), cset.obstacle.tolist()))
    assert got == sorted(pairs | set(far))
    x = q.reshape(-1, 3)
    for k, (vert, oi) in enumerate(got):
        d, _ = gap_normal(model.table.obstacles[oi], x[vert][None], 0.0)
        assert cset.d[k] == d[0]


def test_extra_pairs_union_is_unique_pairs_order():
    """The scanned pairs plus ``extra`` pairs that repeat scanned and
    unscanned ones come out as the rows of ``np.unique(pairs, axis=0)``."""
    model, q, v = _model()
    table, pen = model.table, model.penalty
    n_obs = len(table.obstacles)
    assert n_obs >= 3
    surf = model.mesh.surface_vertices
    scanned = gaps(table, q, 0.1, pen, candidate_vertices=surf)
    pairs = np.stack([scanned.vertex, scanned.obstacle], axis=1)
    rng = np.random.default_rng(8)
    far = np.stack([rng.choice(surf, 12), rng.integers(0, n_obs, 12)], axis=1)
    extra = np.concatenate([far, pairs[::3], far[:5], pairs[:2]])
    cset = gaps(table, q, 0.1, pen, candidate_vertices=surf, extra=extra)
    want = np.unique(np.concatenate([pairs, extra]), axis=0)
    assert len(want) > len(pairs)
    assert np.array_equal(np.stack([cset.vertex, cset.obstacle], axis=1),
                          want)


def test_table_kind_shortcut_is_the_general_path_bitwise():
    """A half-space-only table takes the plane distance without the
    per-contact kind mask, and a mixed table joins both kinds on it; both
    give bitwise the gap and normal of the general path: the mask path of
    a table flagged as holding spheres, and each kind's rows alone."""
    moving = RigidMotion(translation=[(0.0, (0, 0, 0)), (1.0, (0.1, 0, 0))])
    planes = [HalfSpace((0, 0, 0), (0, 1, 0)),
              HalfSpace((0, 0.1, 0), (1, 2, 0), motion=moving)]
    ball = Sphere((0.3, 0.1, 0.0), 0.2, motion=moving)
    plane_only, general = ObstacleTable(planes), ObstacleTable(planes)
    general.spheres = True
    mixed, ball_only = ObstacleTable(planes + [ball]), ObstacleTable([ball])
    assert mixed.spheres and not plane_only.spheres
    rng = np.random.default_rng(6)
    x = rng.normal(size=(12, 3))
    t = 0.25
    for xq in (x, dm.Dual(x, rng.normal(size=x.shape))):
        obstacle = np.arange(12) % 2
        for got, want in zip(plane_only.gap_normal(obstacle, xq, t),
                             general.gap_normal(obstacle, xq, t)):
            assert bits_equal(got, want)
        obstacle = np.arange(12) % 3
        d, n = mixed.gap_normal(obstacle, xq, t)
        plane = obstacle < 2
        d_p, n_p = plane_only.gap_normal(obstacle[plane], xq[plane], t)
        d_b, n_b = ball_only.gap_normal(np.zeros(4, int), xq[~plane], t)
        assert bits_equal(d[plane], d_p) and bits_equal(n[plane], n_p)
        assert bits_equal(d[~plane], d_b) and bits_equal(n[~plane], n_b)


def _penetration(cset):
    """(least gap of the scan, the set's (n, 2) pairs with d < 0)."""
    inside = cset.d < 0.0
    return cset.deepest, np.stack([cset.vertex[inside],
                                   cset.obstacle[inside]], axis=1)


def test_penetration_is_minimum_and_exact_pairs():
    model, q, v = _model()
    q = q.copy()
    q[1::3] -= 1e-3  # sink the block into the floor
    t = 0.1
    deepest, pairs = _penetration(model.build_contact_state(q, v, t, H).cset)
    x = q.reshape(-1, 3)
    surf = model.mesh.surface_vertices
    gaps = [(int(vert), oi, gap(obs, x[vert][None], t)[0])
            for vert in surf for oi, obs in enumerate(model.table.obstacles)]
    assert deepest == min(g for _, _, g in gaps) < 0.0
    assert sorted(map(tuple, pairs.tolist())) \
        == [(vert, oi) for vert, oi, g in gaps if g < 0.0]


def test_penetration_without_obstacles():
    model, q, v = _model()
    model.table = ObstacleTable([])
    deepest, pairs = _penetration(model.build_contact_state(q, v, 0.0,
                                                            H).cset)
    assert deepest == np.inf and pairs.shape == (0, 2)
