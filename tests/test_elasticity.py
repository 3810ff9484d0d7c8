import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.transform import Rotation
from hypothesis import given, settings, strategies as st

from fricsim import elasticity
from fricsim.dual import Dual, jvp
from fricsim.elasticity import (_kinematics, damping_force, damping_q_blocks,
                                elastic_energy, elastic_force, element_blocks,
                                element_forces, element_kinematics)
from fricsim.forces import ContactState, ForceModel
from fricsim.integrators import StageProblem
from fricsim.mesh import MaterialParams, TetMeshModel
from fricsim.meshgen import ball_grid, box_grid
from fricsim.scene import load_scene_file
from fricsim.simulate import Simulation
from fricsim.solvers import SolveFailure, damped_newton

from helpers import element_block_indices, split_jacobians

MAT = MaterialParams(density=1000.0, youngs_modulus=1e6, poisson_ratio=0.3,
                     rayleigh_alpha=0.5, rayleigh_beta=1e-3)

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")

UNIT_TET = np.array([[0.0, 0.0, 0.0],
                     [1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0]])


@pytest.fixture(scope="module")
def mesh():
    return TetMeshModel(*box_grid((0.1, 0.1, 0.1), (2, 2, 2)), MAT)


@pytest.fixture(scope="module")
def perturbed(mesh):
    rng = np.random.default_rng(7)
    scale = 0.002  # 2% of edge length, safely uninverted
    return mesh.rest_q() + scale * rng.normal(size=mesh.n_dofs)


def fd_gradient(fn, q, h):
    g = np.zeros_like(q)
    for i in range(q.size):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        g[i] = (fn(qp) - fn(qm)) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-30)
    return np.max(np.abs(a - b)) / denom


def stiffness_matrix(mesh, q):
    """K = -df_e/dq from the assembled force Jacobian: at v = 0, with no
    contact or volume term, only the elastic force depends on q."""
    model = ForceModel(mesh)
    v = np.zeros_like(q)
    contact = model.build_contact_state(q, v, 0.0, 0.0)
    return -split_jacobians(model, q, v, 0.0, contact)[0]


def test_energy_zero_at_rest(mesh):
    assert elastic_energy(mesh, mesh.rest_q()) == pytest.approx(0.0, abs=1e-12)


def test_energy_translation_invariant(mesh):
    q = mesh.rest_q() + np.tile([0.3, -0.2, 0.7], mesh.n_verts)
    assert elastic_energy(mesh, q) == pytest.approx(0.0, abs=1e-10)


def test_energy_rotation_invariant(mesh):
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th), 0],
                    [np.sin(th), np.cos(th), 0],
                    [0, 0, 1.0]])
    q = (mesh.rest_positions @ rot.T).ravel()
    assert abs(elastic_energy(mesh, q)) < 1e-9


def test_uniaxial_stretch_matches_density_formula():
    tet = TetMeshModel(UNIT_TET, [[0, 1, 2, 3]], MAT)
    x = UNIT_TET.copy()
    x[:, 0] *= 1.01
    mu, lam = MAT.lame
    j = 1.01
    psi = 0.5 * mu * (1.01**2 + 2.0 - 3.0) - mu * np.log(j) \
        + 0.5 * lam * np.log(j) ** 2
    vol = 1.0 / 6.0
    assert elastic_energy(tet, x.ravel()) == pytest.approx(vol * psi, rel=1e-12)


def test_inverted_element_infinite_energy():
    tet = TetMeshModel(UNIT_TET, [[0, 1, 2, 3]], MAT)
    x = UNIT_TET.copy()
    x[3, 2] = -1.0  # flip through the base plane
    assert elastic_energy(tet, x.ravel()) == np.inf


def test_cofactor_kinematics_match_numpy():
    # G = F^{-T} and J from F's cofactor columns, and their tangents
    # dG = -G dF^T G and dJ = J <G, dF>
    # on (3, 3, n_e) columns
    rng = np.random.default_rng(2)
    f = rng.normal(size=(10, 3, 3)) + 3.0 * np.eye(3)
    df = rng.normal(size=(10, 3, 3))
    g, j = _kinematics(Dual(_columns(f), _columns(df)))
    assert g.shape == (3, 3, 10) and j.shape == (10,)
    g_re, g_eps = (x.transpose(2, 0, 1) for x in (g.re, g.eps))
    np.testing.assert_allclose(g_re, np.linalg.inv(f).swapaxes(1, 2),
                               rtol=1e-10)
    np.testing.assert_allclose(j.re, np.linalg.det(f), rtol=1e-12)
    np.testing.assert_allclose(
        g_eps, -g_re @ df.swapaxes(1, 2) @ g_re, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(j.eps, j.re * (g_re * df).sum(axis=(1, 2)),
                               rtol=1e-10)


OPERATOR_MESHES = {
    "box": lambda: TetMeshModel(*box_grid((0.1, 0.1, 0.1), (2, 2, 2)), MAT),
    "ball": lambda: TetMeshModel(*ball_grid(0.05, 3), MAT),
}


def _columns(m):
    """(3, 3, n_e) component columns of (n_e, 3, 3) matrices."""
    return np.ascontiguousarray(m.transpose(1, 2, 0))


def _deformed(mesh, seed):
    rng = np.random.default_rng(seed)
    edge = np.cbrt(mesh.rest_volumes.min())
    return mesh.rest_q() + 0.05 * edge * rng.normal(size=mesh.n_dofs)


def _edge_matrix_f(mesh, q):
    """F = [x_k - x0] Bm per element, from gathered corners."""
    x = np.reshape(q, (-1, 3))[mesh.tets]
    rest = mesh.rest_positions[mesh.tets]
    bm = np.linalg.inv(np.swapaxes(rest[:, 1:] - rest[:, :1], 1, 2))
    return np.swapaxes(x[:, 1:] - x[:, :1], 1, 2) @ bm


def _scattered_corner_forces(mesh, stress):
    """-vol N P^T per element corner, summed into the vertices by
    np.add.at, as a flat (m,) vector."""
    s = mesh.scratch()
    n = s.shape_grad.transpose(2, 0, 1)  # (n_e, 4, 3)
    corner = s.volumes[:, None, None] * (n @ stress.swapaxes(1, 2))
    out = np.zeros((mesh.n_verts, 3))
    np.add.at(out, mesh.tets, corner)
    return -out.ravel()


@pytest.mark.parametrize("name", sorted(OPERATOR_MESHES))
def test_gradient_operator_matches_edge_matrices(name):
    mesh = OPERATOR_MESHES[name]()
    s = mesh.scratch()
    n_e = len(mesh.tets)
    assert s.grad.shape == (9 * n_e, mesh.n_dofs) and s.grad.nnz == 36 * n_e
    np.testing.assert_allclose(s.gradient(mesh.rest_q()),
                               np.broadcast_to(np.eye(3)[..., None],
                                               (3, 3, n_e)),
                               rtol=0.0, atol=1e-13)
    # row (3c + j) n_e + e of D q is F[e, c, j]: component-major columns
    q = _deformed(mesh, 11)
    f = _edge_matrix_f(mesh, q)
    assert rel_err(s.gradient(q), _columns(f)) <= 1e-13
    assert rel_err((s.grad @ q).reshape(9, n_e), f.reshape(n_e, 9).T) <= 1e-13


@pytest.mark.parametrize("name", sorted(OPERATOR_MESHES))
def test_gradient_transpose_matches_corner_scatter(name):
    # -D^T vec(vol P), for a random P and for the elastic force's own P
    mesh = OPERATOR_MESHES[name]()
    s = mesh.scratch()
    stress = np.random.default_rng(13).normal(size=(len(mesh.tets), 3, 3))
    weighted = s.volumes * _columns(stress)
    assert rel_err(-(s.grad_t @ weighted.ravel()),
                   _scattered_corner_forces(mesh, stress)) <= 1e-12
    q = _deformed(mesh, 12)
    f = _edge_matrix_f(mesh, q)
    logj = np.log(np.linalg.det(f))[:, None, None]
    mu, lam = mesh.mu[:, None, None], mesh.lam[:, None, None]
    p = mu * f + (lam * logj - mu) * np.linalg.inv(f).swapaxes(1, 2)
    assert rel_err(elastic_force(mesh, q),
                   _scattered_corner_forces(mesh, p)) <= 1e-12


def test_dual_element_forces_real_part_is_the_real_pass():
    # the bitwise real part of a dual residual rests on this: every
    # product and quotient of the element pass, einsum included, takes its
    # real part exactly as the real pass does
    mesh = OPERATOR_MESHES["ball"]()
    assert np.all(mesh.beta > 0.0)
    rng = np.random.default_rng(14)
    q = _deformed(mesh, 15)
    v, p, u = (rng.normal(size=mesh.n_dofs) for _ in range(3))
    dual = element_forces(mesh, Dual(q, p), Dual(v, u), True, True)
    real = element_forces(mesh, q, v, True, True)
    assert dual.re.tobytes() == real.tobytes()


def test_gradient_operator_built_once_per_mesh(monkeypatch):
    calls = []

    class Counted(elasticity.ElasticScratch):
        def __init__(self, mesh):
            super().__init__(mesh)
            calls.append(self.grad.shape)

    monkeypatch.setattr(elasticity, "ElasticScratch", Counted)
    sim = Simulation(load_scene_file(os.path.join(SCENES, "ball_drop.json")))
    assert calls == []  # built at the first kernel call, not in set-up
    for _ in range(20):
        sim.advance()
    mesh = sim.model.mesh
    assert calls == [(9 * len(mesh.tets), mesh.n_dofs)]


def test_force_zero_at_rest(mesh):
    f = elastic_force(mesh, mesh.rest_q())
    assert np.max(np.abs(f)) < 1e-9 * MAT.youngs_modulus


def test_force_momentum_free(mesh, perturbed):
    f = elastic_force(mesh, perturbed).reshape(-1, 3)
    net = f.sum(axis=0)
    assert np.linalg.norm(net) <= 1e-8 * np.linalg.norm(f)


def test_force_matches_energy_gradient(mesh, perturbed):
    f = elastic_force(mesh, perturbed)
    h = 1e-6 * 0.1  # 1e-6 * characteristic length
    fd = -fd_gradient(lambda q: elastic_energy(mesh, q), perturbed, h)
    assert rel_err(f, fd) <= 1e-5


def test_stiffness_symmetric_and_matches_fd(mesh, perturbed):
    k = stiffness_matrix(mesh, perturbed)
    asym = abs(k - k.T).max() / abs(k).max()
    assert asym <= 1e-8
    # columnwise finite differences of the force
    h = 1e-6 * 0.1
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.normal(size=mesh.n_dofs)
        fp = elastic_force(mesh, perturbed + h * p)
        fm = elastic_force(mesh, perturbed - h * p)
        fd_kp = -(fp - fm) / (2 * h)
        assert rel_err(k @ p, fd_kp) <= 1e-4


def test_stiffness_nullspace_translation(mesh, perturbed):
    k = stiffness_matrix(mesh, perturbed)
    for axis in range(3):
        tr = np.zeros(mesh.n_dofs)
        tr[axis::3] = 1.0
        assert np.max(np.abs(k @ tr)) <= 1e-8 * abs(k).max()


def test_stiffness_psd_at_rest(mesh):
    k = stiffness_matrix(mesh, mesh.rest_q()).toarray()
    w = np.linalg.eigvalsh(0.5 * (k + k.T))
    assert w.min() >= -1e-8 * w.max()


def test_stiffness_product_matches_matrix(mesh, perturbed):
    rng = np.random.default_rng(4)
    k = stiffness_matrix(mesh, perturbed)
    w = rng.normal(size=mesh.n_dofs)
    np.testing.assert_allclose(-jvp(lambda q: elastic_force(mesh, q),
                                    perturbed, w), k @ w,
                               rtol=1e-9, atol=1e-9 * abs(k).max())


def test_damping_zero_velocity(mesh, perturbed):
    assert np.all(damping_force(mesh, perturbed, np.zeros(mesh.n_dofs)) == 0.0)


def test_damping_mass_proportional_limit(mesh, perturbed):
    m2 = TetMeshModel(*box_grid((0.1, 0.1, 0.1), (2, 2, 2)),
                      MaterialParams(1000.0, 1e6, 0.3, rayleigh_alpha=1.0))
    rng = np.random.default_rng(5)
    v = rng.normal(size=m2.n_dofs)
    np.testing.assert_allclose(damping_force(m2, m2.rest_q(), v),
                               -m2.mass_dofs * v, rtol=1e-14)


def test_damping_dissipates_at_rest(mesh):
    rng = np.random.default_rng(6)
    v = rng.normal(size=mesh.n_dofs)
    power = v @ damping_force(mesh, mesh.rest_q(), v)
    assert power <= 1e-12


def test_damping_jvp_matches_fd(mesh, perturbed):
    rng = np.random.default_rng(8)
    v = 0.1 * rng.normal(size=mesh.n_dofs)
    p = rng.normal(size=mesh.n_dofs)
    h = 1e-7
    fd = (damping_force(mesh, perturbed + h * p, v)
          - damping_force(mesh, perturbed - h * p, v)) / (2 * h)
    ad = jvp(lambda q: damping_force(mesh, q, v), perturbed, p)
    assert rel_err(ad, fd) <= 1e-4


def _two_material_box():
    box = TetMeshModel(*box_grid((0.1, 0.1, 0.1), (2, 1, 1)), MAT)
    right = box.rest_positions[box.tets].mean(axis=1)[:, 0] > 0.0
    box.mu = np.where(right, 3.0 * box.mu, box.mu)
    box.lam = np.where(right, 0.2 * box.lam, box.lam)
    box.beta = np.where(right, 4e-3, 1e-3)
    return box


SINGLE_TET = TetMeshModel(UNIT_TET, [[0, 1, 2, 3]], MAT)
TWO_MATERIAL_BOX = _two_material_box()
angle = st.floats(min_value=-np.pi, max_value=np.pi)
stretch = st.floats(min_value=0.5, max_value=2.0)


def _near_inversion_states(r1, r2, s1, s2, log_j, seed):
    """(mesh, q, v) on both test meshes, at F = R1 diag(s1, s2, J/(s1 s2))
    R2^T (so det F = J in [1e-3, 10]) applied to a jittered rest shape."""
    sigma = np.diag([s1, s2, 10.0 ** log_j / (s1 * s2)])
    f = (Rotation.from_euler("zyx", r1).as_matrix() @ sigma
         @ Rotation.from_euler("zyx", r2).as_matrix().T)
    rng = np.random.default_rng(seed)
    for mesh in (SINGLE_TET, TWO_MATERIAL_BOX):
        edge = np.cbrt(mesh.rest_volumes.min())
        x = mesh.rest_positions + 0.02 * edge * rng.normal(
            size=mesh.rest_positions.shape)
        yield mesh, (x @ f.T).ravel(), rng.normal(size=mesh.n_dofs)


def _assert_blocks_match_jvp(mesh, blocks, force, q):
    """Each column of the assembled -blocks matches the JVP of ``force``
    at q to 1e-10 of the largest entry."""
    dfdq = -sp.coo_matrix((blocks.ravel(), element_block_indices(mesh)),
                          shape=(mesh.n_dofs, mesh.n_dofs)).toarray()
    scale = np.max(np.abs(dfdq))
    assert scale > 0.0
    for k in range(mesh.n_dofs):
        col = jvp(force, q, np.eye(mesh.n_dofs)[k])
        assert np.max(np.abs(dfdq[:, k] - col)) <= 1e-10 * scale


near_inversion = given(
    r1=st.tuples(angle, angle, angle), r2=st.tuples(angle, angle, angle),
    s1=stretch, s2=stretch, log_j=st.floats(min_value=-3.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1))


@settings(derandomize=True, max_examples=30, deadline=None)
@near_inversion
def test_damping_q_blocks_match_jvp_near_inversion(r1, r2, s1, s2, log_j,
                                                   seed):
    # Q is the kernel's K + Q at (c_q, c_v) = (1, 0) less its K
    for mesh, q, v in _near_inversion_states(r1, r2, s1, s2, log_j, seed):
        kin = element_kinematics(mesh, q)
        blocks = (element_blocks(mesh, kin, 1.0, 0.0,
                                 damping_q_blocks(mesh, kin, v))
                  - element_blocks(mesh, kin, 1.0, 0.0))
        _assert_blocks_match_jvp(
            mesh, blocks, lambda qq: damping_force(mesh, qq, v), q)


@settings(derandomize=True, max_examples=30, deadline=None)
@near_inversion
def test_element_stiffness_matches_jvp_near_inversion(r1, r2, s1, s2, log_j,
                                                      seed):
    # the cofactor G = F^{-T} stays exact as det F falls to 1e-3
    for mesh, q, _ in _near_inversion_states(r1, r2, s1, s2, log_j, seed):
        blocks = element_blocks(mesh, element_kinematics(mesh, q), 1.0, 0.0)
        _assert_blocks_match_jvp(
            mesh, blocks, lambda qq: elastic_force(mesh, qq), q)


def test_line_search_never_accepts_a_non_finite_state_near_inversion():
    # BE stages of a contact-free tet whose inertia alone would carry it
    # through inversion within the step (q_ref + h v_lin mirrors it through
    # its centroid at half size), so full Newton steps often reach
    # det F <= 0, where the residual is not finite
    model = ForceModel(SINGLE_TET)
    h = 0.01
    non_finite = []  # per residual call

    @settings(derandomize=True, max_examples=40, deadline=None)
    @near_inversion
    def solve_stage(r1, r2, s1, s2, log_j, seed):
        mesh, q, v = next(_near_inversion_states(r1, r2, s1, s2, log_j, seed))
        x = q.reshape(-1, 3)
        prob = StageProblem(
            model=model, contact=ContactState.empty(model.table),
            v_lin=v - (1.5 / h) * (x - x.mean(axis=0)).ravel(), q_ref=q,
            c=h, t_eval=h, h=h)
        stage_residual = prob.residual

        def residual(vv):
            r = stage_residual(vv)
            non_finite.append(not np.all(np.isfinite(r)))
            return r

        prob.residual = residual
        try:
            vv, rep = damped_newton(prob, np.zeros(mesh.n_dofs))
        except SolveFailure as exc:
            rep = exc.report
        else:
            assert np.isfinite(elastic_energy(mesh, prob.positions(vv)))
        assert np.all(np.isfinite(rep.residual_norms))

    solve_stage()
    assert any(non_finite)  # some trials were non-finite, and none was taken


BETA0_BOX = TetMeshModel(*box_grid((0.1, 0.1, 0.1), (2, 1, 1)),
                         replace(MAT, rayleigh_beta=0.0))


@pytest.mark.parametrize("mesh", [TWO_MATERIAL_BOX, BETA0_BOX],
                         ids=["two_material_box", "beta0_box"])
def test_element_blocks_match_jvp_at_both_weights(mesh):
    # c_q K + c_v beta K + c_q Q against c_q df/dq + c_v df/dv of the
    # element pass less its -alpha M v; on the beta = 0 box the kernel
    # takes its one-column form
    c_q, c_v = 0.7, 1.3
    q = _deformed(mesh, 21)
    v = np.random.default_rng(22).normal(size=mesh.n_dofs)
    kin = element_kinematics(mesh, q)
    damp = (damping_q_blocks(mesh, kin, v)
            if np.any(mesh.beta > 0.0) else None)
    assert (damp is None) == (mesh is BETA0_BOX)

    def force(p):  # its JVP at p = 0 is c_q df/dq + c_v df/dv
        qq, vv = q + c_q * p, v + c_v * p
        return (element_forces(mesh, qq, vv, elastic=True, damping=True)
                + mesh.alpha * mesh.mass_dofs * vv)

    _assert_blocks_match_jvp(mesh, element_blocks(mesh, kin, c_q, c_v, damp),
                             force, np.zeros(mesh.n_dofs))
