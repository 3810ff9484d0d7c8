import os

import numpy as np
import pytest

from fricsim import volume
from fricsim.dual import Dual, jvp
from fricsim.forces import ForceModel
from fricsim.mesh import MaterialParams, TetMeshModel
from fricsim.meshgen import box_grid
from fricsim.scene import load_scene_file
from fricsim.simulate import Simulation
from fricsim.volume import (ATM, VolumeDomainError, VolumePenaltyParams,
                            enclosed_volume, volume_energy, volume_force,
                            volume_hessian_blocks, volume_law)

from helpers import (reference_enclosed_volume,
                     reference_volume_hessian_blocks, split_jacobians)

MAT = MaterialParams(density=1000.0, youngs_modulus=1e6, poisson_ratio=0.3)
BALL_DROP = os.path.join(os.path.dirname(__file__), "..", "scenes",
                         "ball_drop.json")


@pytest.fixture(scope="module")
def cube():
    m = TetMeshModel(*box_grid((1.0, 1.0, 1.0), (2, 2, 2)), MAT)
    return m


def _params(region, model="quadratic", kv=1.0, v0=None):
    return VolumePenaltyParams(region=region, model=model, kappa_v_atm=kv,
                               rest_volume=v0)


def test_unit_cube_volume(cube):
    v, g = enclosed_volume(cube.surface_tris, cube.rest_q())
    assert v == pytest.approx(1.0, rel=1e-12)


def test_volume_translation_invariant(cube):
    q = cube.rest_q() + np.tile([2.0, -1.0, 0.5], cube.n_verts)
    v, g = enclosed_volume(cube.surface_tris, q)
    assert v == pytest.approx(1.0, rel=1e-12)
    v0, g0 = enclosed_volume(cube.surface_tris, cube.rest_q())
    np.testing.assert_allclose(g, g0, atol=1e-12)


def test_volume_gradient_matches_fd(cube):
    rng = np.random.default_rng(0)
    q = cube.rest_q() + 0.01 * rng.normal(size=cube.n_dofs)
    v, g = enclosed_volume(cube.surface_tris, q)
    h = 1e-6
    for _ in range(5):
        p = rng.normal(size=q.size)
        vp, _ = enclosed_volume(cube.surface_tris, q + h * p)
        vm, _ = enclosed_volume(cube.surface_tris, q - h * p)
        fd = (vp - vm) / (2 * h)
        assert g @ p == pytest.approx(fd, rel=1e-6)


def test_generic_volume_path_matches_real_and_old_oracle(cube):
    rng = np.random.default_rng(6)
    region = cube.surface_tris
    q = cube.rest_q() + 0.02 * rng.normal(size=cube.n_dofs)
    p = rng.normal(size=q.size)
    v, g = enclosed_volume(region, q)
    vd, gd = enclosed_volume(region, Dual(q, p))
    assert vd.re == v and np.array_equal(gd.re, g)
    assert vd.eps == pytest.approx(g @ p, rel=1e-12)
    # the gradient as np.add.at of np.cross terms, bit for bit
    x = q.reshape(-1, 3)
    p1, p2, p3 = x[region[:, 0]], x[region[:, 1]], x[region[:, 2]]
    oracle = np.zeros_like(x)
    np.add.at(oracle, region[:, 0], np.cross(p2, p3) / 6.0)
    np.add.at(oracle, region[:, 1], np.cross(p3, p1) / 6.0)
    np.add.at(oracle, region[:, 2], np.cross(p1, p2) / 6.0)
    assert np.array_equal(g, oracle.ravel())


def _bits(x):
    """The int64 bit patterns of a real array or scalar, so that -0.0 and
    +0.0 differ."""
    return np.asarray(x, float).view(np.int64)


def _same_bits(got, want):
    return (np.array_equal(_bits(got), _bits(want))
            and np.shape(got) == np.shape(want))


def _regions(cube):
    """(name, triangles, positions, tables) of the cube and of the
    ``ball_drop`` region, each at a deformed q."""
    rng = np.random.default_rng(8)
    ball = load_scene_file(BALL_DROP).build_model()
    vp = ball.volume_penalties[0]
    out = []
    for name, tris, q0, tables in (
            ("cube", cube.surface_tris, cube.rest_q(),
             volume.RegionTables(cube.surface_tris)),
            ("ball", vp.region, ball.mesh.rest_q(), vp.tables())):
        scale = np.ptp(q0.reshape(-1, 3), axis=0).max()
        out.append((name, tris, q0 + 0.03 * scale * rng.normal(size=q0.size),
                    tables))
    return out


def test_table_path_is_the_cross_product_formula_bitwise(cube):
    # V, dV/dq and the Hessian blocks from the region tables against the
    # per-triangle cross products they replaced, bit for bit (signed zeros
    # included), for a real q, both parts of a dual q, and for the tables
    # built once or from the plain (n_t, 3) triangles
    rng = np.random.default_rng(9)
    for name, tris, q, tables in _regions(cube):
        p = rng.normal(size=q.size)
        want_v, want_g = reference_enclosed_volume(tris, q)
        want_vd, want_gd = reference_enclosed_volume(tris, Dual(q, p))
        want_h = reference_volume_hessian_blocks(tris, q)
        for region in (tables, tris):
            v, g = enclosed_volume(region, q)
            assert _same_bits(v, want_v) and _same_bits(g, want_g), name
            vd, gd = enclosed_volume(region, Dual(q, p))
            for got, want in ((vd, want_vd), (gd, want_gd)):
                assert _same_bits(got.re, want.re), name
                assert _same_bits(got.eps, want.eps), name
            h = volume_hessian_blocks(region, q)
            assert _same_bits(h, want_h), name


def test_one_table_build_per_simulation(monkeypatch):
    # the tables are built once per model, at set-up, and kept for every
    # later step, and two simulations of one SceneConfig each build their
    # own and run bit for bit the same
    builds = []

    class Counted(volume.RegionTables):
        def __init__(self, region):
            builds.append(len(region))
            super().__init__(region)

    monkeypatch.setattr(volume, "RegionTables", Counted)
    scene = load_scene_file(BALL_DROP)
    runs = []
    for _ in range(2):
        sim = Simulation(scene)
        assert len(builds) == len(runs) + 1
        records = [sim.record()]
        for _ in range(20):
            sim.advance()
            records.append(sim.record())
        assert len(builds) == len(runs) + 1
        runs.append((sim.state, records))
    (a, rec_a), (b, rec_b) = runs
    assert _same_bits(a.q, b.q) and _same_bits(a.v, b.v)
    assert [r.region_volumes for r in rec_a] == [r.region_volumes
                                                 for r in rec_b]
    assert rec_a[-1].volume == rec_b[-1].volume


def test_open_region_rejected(cube):
    with pytest.raises(VolumeDomainError, match="closed"):
        _params(cube.surface_tris[:-2])


def test_energies_zero_at_rest(cube):
    for model in ("quadratic", "ideal_gas", "nearly_incompressible"):
        p = _params(cube.surface_tris, model, v0=1.0)
        assert volume_energy(1.0, p) == pytest.approx(0.0, abs=1e-12)


def test_quadratic_energy_value(cube):
    p = _params(cube.surface_tris, "quadratic", kv=1.0, v0=1.0)
    # (0.1)^2/2 in atm.m^3 = 0.005 * 101325 J
    assert volume_energy(1.1, p) == pytest.approx(0.005 * ATM, rel=1e-12)


def test_taylor_third_order_remainder(cube):
    # |W_ig - W2| and |W_ni - W2| shrink ~8x when dV is halved (kv = 1)
    region = cube.surface_tris
    v0 = 1.0
    pq = _params(region, "quadratic", kv=1.0, v0=v0)
    pig = _params(region, "ideal_gas", kv=1.0, v0=v0)
    pni = _params(region, "nearly_incompressible", kv=1.0, v0=v0)
    for sign in (+1.0, -1.0):
        dv = 0.02 * v0 * sign
        for pexact in (pig, pni):
            e_full = abs(volume_energy(v0 + dv, pexact)
                         - volume_energy(v0 + dv, pq))
            e_half = abs(volume_energy(v0 + dv / 2, pexact)
                         - volume_energy(v0 + dv / 2, pq))
            ratio = e_full / e_half
            assert 7.0 <= ratio <= 9.0


def test_shared_curvature_at_rest(cube):
    # second difference about V0: all three models give 1/(V0 kv) (kv = 1)
    region = cube.surface_tris
    v0, h = 1.0, 1e-4
    for model in ("quadratic", "ideal_gas", "nearly_incompressible"):
        p = _params(region, model, kv=1.0, v0=v0)
        w = [volume_energy(v0 + s * h, p) for s in (-1, 0, 1)]
        curv = (w[0] - 2 * w[1] + w[2]) / h**2
        assert curv == pytest.approx(ATM / v0, rel=1e-4)


def test_log_models_reject_nonpositive_volume(cube):
    # the unit cube turned inside out (V = -1) and flattened (V = 0): the
    # log laws' W, W' and W'' and so their force are not finite there
    region = cube.surface_tris
    q0 = cube.rest_q().reshape(-1, 3)
    for q, vol in (((2.0 * q0.mean(0) - q0).ravel(), -1.0),
                   ((q0 * [1.0, 0.0, 1.0]).ravel(), 0.0)):
        v, _ = enclosed_volume(region, q)
        assert v == pytest.approx(vol, abs=1e-12)
        for model in ("ideal_gas", "nearly_incompressible"):
            p = _params(region, model, v0=1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                law = volume_law(v, p)
                f = volume_force(q, p)
            assert not np.any(np.isfinite(law)), (model, vol)
            assert not np.any(np.isfinite(f)), (model, vol)
        pq = _params(region, "quadratic", v0=1.0)
        assert np.all(np.isfinite(volume_law(v, pq)))
        assert np.all(np.isfinite(volume_force(q, pq)))


def test_force_zero_at_rest_and_expansive_when_compressed(cube):
    region = cube.surface_tris
    p = _params(region, "quadratic", v0=None)
    p.rest_volume = 1.0
    f = volume_force(cube.rest_q(), p)
    assert np.max(np.abs(f)) < 1e-9
    q_comp = ((cube.rest_positions - cube.rest_positions.mean(0)) * 0.95
              + cube.rest_positions.mean(0)).ravel()
    f = volume_force(q_comp, p)
    _, g = enclosed_volume(region, q_comp)
    assert f @ g > 0.0  # points along +dV/dq


def test_force_matches_energy_fd(cube):
    rng = np.random.default_rng(2)
    region = cube.surface_tris
    q = cube.rest_q() + 0.01 * rng.normal(size=cube.n_dofs)
    for model in ("quadratic", "ideal_gas", "nearly_incompressible"):
        p = _params(region, model, kv=0.5, v0=1.0)
        f = volume_force(q, p)

        def energy(qq):
            v, _ = enclosed_volume(region, qq)
            return volume_energy(v, p)

        h = 1e-7
        for _ in range(3):
            d = rng.normal(size=q.size)
            fd = -(energy(q + h * d) - energy(q - h * d)) / (2 * h)
            assert f @ d == pytest.approx(fd, rel=2e-5, abs=1e-8)


def _volume_jacobians(cube, params, q):
    """(sparse volume block of df/dq, Rank1 list) from ForceModel.jacobians
    with weights (1, 0): the sparse df/dq less that of the same model
    without the volume term."""
    v = np.zeros_like(q)
    split = []
    for vps in ([params], []):
        model = ForceModel(cube, gravity=(0.0, 0.0, 0.0),
                           volume_penalties=vps)
        contact = model.build_contact_state(q, v, 0.0, 0.01)
        split.append(split_jacobians(model, q, v, 0.0, contact))
    (dfdq, _, rank1), (dfdq_bare, _, _) = split
    return dfdq - dfdq_bare, rank1


def test_jacobian_apply_matches_force_jvp(cube):
    rng = np.random.default_rng(3)
    region = cube.surface_tris
    q = cube.rest_q() + 0.02 * rng.normal(size=cube.n_dofs)
    for model in ("quadratic", "ideal_gas", "nearly_incompressible"):
        p = _params(region, model, kv=2.0, v0=1.0)
        dfdq, rank1 = _volume_jacobians(cube, p, q)
        assert len(rank1) == 1
        for _ in range(3):
            d = rng.normal(size=q.size)
            assembled = dfdq @ d + rank1[0].apply(d)
            ad = jvp(lambda qq: volume_force(qq, p), q, d)
            denom = max(np.max(np.abs(ad)), 1e-30)
            assert np.max(np.abs(assembled - ad)) / denom <= 1e-10


def test_jacobian_apply_zero_direction(cube):
    p = _params(cube.surface_tris, "quadratic", v0=1.0)
    dfdq, (term,) = _volume_jacobians(cube, p, cube.rest_q())
    zero = np.zeros(cube.n_dofs)
    assert np.all(dfdq @ zero + term.apply(zero) == 0.0)


def test_volume_rank1_is_curvature_times_gradient(cube):
    rng = np.random.default_rng(4)
    region = cube.surface_tris
    q = cube.rest_q() + 0.02 * rng.normal(size=cube.n_dofs)
    vol, g = enclosed_volume(region, q)
    for model in ("quadratic", "ideal_gas", "nearly_incompressible"):
        p = _params(region, model, kv=1.0, v0=1.0)
        # W''(V) of the three energies, with V0 = 1
        curvature = {"quadratic": 1.0 / p.kappa_v,
                     "ideal_gas": p.p0 / vol ** 2,
                     "nearly_incompressible": 1.0 / (vol * p.kappa_v)}[model]
        _, (term,) = _volume_jacobians(cube, p, q)
        assert term.scale == pytest.approx(-curvature, rel=1e-14)
        assert np.array_equal(term.u, g) and np.array_equal(term.w, g)


def test_volume_force_conservative_loop(cube):
    region = cube.surface_tris
    p = _params(region, "quadratic", v0=1.0)
    rng = np.random.default_rng(5)
    d1 = rng.normal(size=cube.n_dofs)
    d2 = rng.normal(size=cube.n_dofs)
    theta = np.linspace(0, 2 * np.pi, 4001)
    base = cube.rest_q()
    work = 0.0
    prev = None
    for th in theta:
        qq = base + 0.01 * (np.cos(th) * d1 + np.sin(th) * d2)
        if prev is not None:
            mid = 0.5 * (qq + prev)
            f = volume_force(mid, p)
            work += f @ (qq - prev)
        prev = qq
    assert abs(work) < 1e-6 * ATM * 0.01
