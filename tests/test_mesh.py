import numpy as np
import pytest

from fricsim.mesh import (MaterialParams, MeshConstructionError, SystemState,
                          TetMeshModel, check_closed_oriented, lumped_mass,
                          tet_volumes)
from fricsim.meshgen import ball_grid, box_grid

MAT = MaterialParams(density=1000.0, youngs_modulus=1e6, poisson_ratio=0.3)

UNIT_TET = np.array([[0.0, 0.0, 0.0],
                     [1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0]])
ONE_TET = np.array([[0, 1, 2, 3]])


def test_unit_tet_mass_split():
    # vol = 1/6, rho = 6 -> total 1 kg, 0.25 kg per corner
    mass = lumped_mass(tet_volumes(UNIT_TET, ONE_TET), ONE_TET, 6.0, 4)
    np.testing.assert_allclose(mass, 0.25)


def test_shared_vertex_mass_adds():
    verts = np.vstack([UNIT_TET, [[1.0, 1.0, 1.0]]])
    tets = np.array([[0, 1, 2, 3], [4, 1, 3, 2]])  # share face (1, 2, 3)
    mass = lumped_mass(tet_volumes(verts, tets), tets, 6.0, 5)
    single = lumped_mass(tet_volumes(UNIT_TET, ONE_TET), ONE_TET, 6.0, 4)
    vol2 = tet_volumes(verts, [tets[1]])[0]
    # shared vertices get the sum of both tets' contributions
    assert mass[1] == pytest.approx(single[1] + 6.0 * vol2 / 4.0)
    assert mass[0] == pytest.approx(single[0])  # unshared: unchanged


def test_total_mass_equals_density_times_volume():
    m = TetMeshModel(*box_grid((0.2, 0.1, 0.3), (3, 2, 4)), MAT)
    vol = 0.2 * 0.1 * 0.3
    assert m.vertex_mass.sum() == pytest.approx(MAT.density * vol, rel=1e-12)


def test_mass_invariant_under_refinement():
    coarse = TetMeshModel(*box_grid((0.2, 0.2, 0.2), (2, 2, 2)), MAT)
    fine = TetMeshModel(*box_grid((0.2, 0.2, 0.2), (5, 5, 5)), MAT)
    assert coarse.vertex_mass.sum() == pytest.approx(fine.vertex_mass.sum(),
                                                     rel=1e-10)


def test_degenerate_element_error_names_element():
    verts = np.vstack([UNIT_TET, UNIT_TET[0]])  # duplicate -> zero volume
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4]])
    with pytest.raises(MeshConstructionError, match="element 1"):
        lumped_mass(tet_volumes(verts, tets), tets, 1.0, 5)


@pytest.mark.parametrize("per_element", [False, True],
                         ids=["scalar", "per_element"])
def test_lumped_mass_is_the_corner_add_at_bitwise(per_element):
    # the ball's mass bit for bit as np.add.at of rho vol / 4, corner
    # column by corner column, into zeros
    ball = TetMeshModel(*ball_grid(0.05, 4), MAT)
    rho = (np.random.default_rng(3).uniform(500.0, 2000.0, len(ball.tets))
           if per_element else MAT.density)
    share = np.broadcast_to(rho, len(ball.tets)) \
        * tet_volumes(ball.rest_positions, ball.tets) / 4.0
    want = np.zeros(ball.n_verts)
    for k in range(4):
        np.add.at(want, ball.tets[:, k], share)
    got = lumped_mass(tet_volumes(ball.rest_positions, ball.tets), ball.tets,
                      rho, ball.n_verts)
    assert np.array_equal(got, want)
    if not per_element:
        assert np.array_equal(ball.vertex_mass, want)


def test_unreferenced_vertex_has_no_mass_and_is_rejected():
    verts = np.vstack([UNIT_TET, [[2.0, 2.0, 2.0]]])
    mass = lumped_mass(tet_volumes(verts, ONE_TET), ONE_TET, 6.0, 5)
    assert mass.shape == (5,) and mass[4] == 0.0
    with pytest.raises(MeshConstructionError, match="positive mass"):
        TetMeshModel(verts, [[0, 1, 2, 3]], MAT)


def test_state_validation():
    with pytest.raises(ValueError):
        SystemState(np.zeros(4), np.zeros(4))
    st = SystemState(np.zeros(6), np.zeros(6))
    st.q[0] = np.nan
    with pytest.raises(FloatingPointError):
        st.assert_finite()


def test_surface_closed_and_oriented():
    m = TetMeshModel(*box_grid((1.0, 1.0, 1.0), (2, 2, 2)), MAT)
    assert check_closed_oriented(m.surface_tris)
    # outward orientation: signed volume of the surface equals the box volume
    x = m.rest_positions
    tris = m.surface_tris
    v6 = np.einsum("ij,ij->i", x[tris[:, 0]],
                   np.cross(x[tris[:, 1]], x[tris[:, 2]]))
    assert v6.sum() / 6.0 == pytest.approx(1.0, rel=1e-12)


def test_ball_mesh_valid():
    m = TetMeshModel(*ball_grid(0.05, 4), MAT)
    assert np.all(m.rest_volumes > 0)
    assert check_closed_oriented(m.surface_tris)
    r = np.linalg.norm(m.rest_positions, axis=1)
    assert r.max() == pytest.approx(0.05, rel=1e-12)
    # enclosed volume approaches the sphere volume from below
    x = m.rest_positions
    tris = m.surface_tris
    vol = np.einsum("ij,ij->i", x[tris[:, 0]],
                    np.cross(x[tris[:, 1]], x[tris[:, 2]])).sum() / 6.0
    assert 0.7 * 4 / 3 * np.pi * 0.05**3 < vol < 4 / 3 * np.pi * 0.05**3


def test_material_validation():
    with pytest.raises(ValueError, match="poisson_ratio"):
        MaterialParams(1000.0, 1e6, 0.6)
    with pytest.raises(ValueError):
        MaterialParams(-1.0, 1e6, 0.3)
