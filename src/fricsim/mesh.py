"""State, mesh, material and lumped-mass types shared by the physics modules.

Generalized coordinates are stacked vertex positions (SI meters), so a mesh
with n vertices owns m = 3n degrees of freedom.  Mesh and material data are
immutable after construction, but for one lazily built cache
(``TetMeshModel._scratch``) whose values are deterministic;
:class:`SystemState` is owned by the stepping loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual as dm


class MeshConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic material: density, elastic moduli and Rayleigh coefficients."""

    density: float          # kg/m^3
    youngs_modulus: float   # Pa
    poisson_ratio: float    # dimensionless, in [0, 0.5)
    rayleigh_alpha: float = 0.0  # 1/s, mass-proportional damping
    rayleigh_beta: float = 0.0   # s, stiffness-proportional damping

    def __post_init__(self):
        if self.density <= 0:
            raise ValueError(f"density must be positive, got {self.density}")
        if self.youngs_modulus <= 0:
            raise ValueError(
                f"youngs_modulus must be positive, got {self.youngs_modulus}")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError(
                f"poisson_ratio must lie in [0, 0.5), got {self.poisson_ratio}")
        if self.rayleigh_alpha < 0 or self.rayleigh_beta < 0:
            raise ValueError("Rayleigh coefficients must be nonnegative")

    @property
    def lame(self) -> tuple[float, float]:
        """(mu, lambda) Lame parameters from (E, nu)."""
        e, nu = self.youngs_modulus, self.poisson_ratio
        mu = e / (2.0 * (1.0 + nu))
        lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        return mu, lam


@dataclass
class SystemState:
    """Stacked positions q (m,), velocities v (m,) and simulation time t."""

    q: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.q.shape != self.v.shape:
            raise ValueError("q and v must have identical shapes")
        if self.q.ndim != 1 or self.q.size % 3 != 0:
            raise ValueError("q must be a flat vector of stacked 3-vectors")

    @property
    def n_verts(self) -> int:
        return self.q.size // 3

    def positions(self) -> np.ndarray:
        return self.q.reshape(-1, 3)

    def velocities(self) -> np.ndarray:
        return self.v.reshape(-1, 3)

    def copy(self) -> "SystemState":
        return SystemState(self.q.copy(), self.v.copy(), self.t)

    def assert_finite(self):
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.v))):
            raise FloatingPointError("state contains non-finite components")


def tet_volumes(rest_positions: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Signed volumes of tets (n_e,) given vertex positions (n_v, 3)."""
    x = np.asarray(rest_positions, dtype=float)
    t = np.asarray(tets, dtype=int)
    d1 = x[t[:, 1]] - x[t[:, 0]]
    d2 = x[t[:, 2]] - x[t[:, 0]]
    d3 = x[t[:, 3]] - x[t[:, 0]]
    return np.einsum("ij,ij->i", d1, np.cross(d2, d3)) / 6.0


def build_lumped_mass(rest_positions, tets, density) -> np.ndarray:
    """Per-vertex lumped mass (kg), one entry per rest position: each tet
    spreads rho*vol/4 to its corners, so a vertex in no tet gets 0.

    ``density`` may be a scalar or a per-element array.  Raises on degenerate
    (non-positive volume) elements, naming the offender.
    """
    tets = np.asarray(tets, dtype=int)
    return _lumped_mass(tet_volumes(rest_positions, tets), tets, density,
                        len(rest_positions))


def _lumped_mass(vols, tets, density, n_verts) -> np.ndarray:
    """:func:`build_lumped_mass` from the tets' rest volumes ``vols``."""
    bad = np.nonzero(vols <= 0.0)[0]
    if bad.size:
        raise MeshConstructionError(
            f"element {bad[0]} has non-positive rest volume {vols[bad[0]]:.3e}")
    share = np.broadcast_to(np.asarray(density, dtype=float), vols.shape) \
        * vols / 4.0
    return dm.spread(tets.T.ravel(), np.tile(share, 4), n_verts)


def surface_triangles(tets: np.ndarray) -> np.ndarray:
    """Outward-oriented boundary triangles of a tet mesh.

    Faces appearing in exactly one tet are boundary; orientation follows the
    positively-oriented parent tet so normals point out of the solid.
    """
    tets = np.asarray(tets, dtype=int)
    # Outward faces of a positively-oriented tet (v0, v1, v2, v3).
    faces = np.concatenate([
        tets[:, [0, 2, 1]],
        tets[:, [0, 1, 3]],
        tets[:, [0, 3, 2]],
        tets[:, [1, 2, 3]],
    ])
    key = np.sort(faces, axis=1)
    _, inverse, counts = np.unique(key, axis=0, return_inverse=True,
                                   return_counts=True)
    return faces[counts[inverse] == 1]


def check_closed_oriented(tris: np.ndarray) -> bool:
    """True when every directed edge appears exactly once with its reverse."""
    tris = np.asarray(tris, dtype=int)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    fwd = set(map(tuple, edges))
    if len(fwd) != len(edges):
        return False
    return all((b, a) in fwd for a, b in fwd)


class TetMeshModel:
    """Tetrahedral mesh with rest shape, material, lumped mass and surface.

    Immutable after construction but for one cache, ``_scratch``, which
    :meth:`scratch` builds at the first kernel call with deterministic
    values, so the mesh is safe to share read-only.  Dof layout is
    vertex-major: q[3i:3i+3] is vertex i.
    """

    def __init__(self, rest_positions, tets, material: MaterialParams):
        self.rest_positions = np.array(rest_positions, dtype=float)
        self.tets = np.array(tets, dtype=int)
        if self.rest_positions.ndim != 2 or self.rest_positions.shape[1] != 3:
            raise MeshConstructionError("rest_positions must be (n, 3)")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise MeshConstructionError("tets must be (n_e, 4)")
        self.rest_volumes = tet_volumes(self.rest_positions, self.tets)
        self.vertex_mass = _lumped_mass(self.rest_volumes, self.tets,
                                        material.density, self.n_verts)
        if np.any(self.vertex_mass <= 0.0):
            raise MeshConstructionError("every vertex must carry positive mass")
        self.surface_tris = surface_triangles(self.tets)
        self.surface_vertices = np.unique(self.surface_tris)
        # Per-element material arrays (uniform here; kept per-element so a
        # merged multi-mesh model can vary them).
        mu, lam = material.lame
        n_e = len(self.tets)
        self.mu = np.full(n_e, mu)
        self.lam = np.full(n_e, lam)
        # Rayleigh alpha per dof, beta per element, so merged models can mix
        # materials without special cases.
        self.alpha = np.full(3 * len(self.rest_positions),
                             material.rayleigh_alpha)
        self.beta = np.full(n_e, material.rayleigh_beta)
        self._scratch = None

    @property
    def n_verts(self) -> int:
        return len(self.rest_positions)

    @property
    def n_dofs(self) -> int:
        return 3 * self.n_verts

    @property
    def mass_dofs(self) -> np.ndarray:
        """Diagonal of the (m x m) lumped mass matrix."""
        return np.repeat(self.vertex_mass, 3)

    def rest_q(self) -> np.ndarray:
        return self.rest_positions.ravel()

    def total_mass(self) -> float:
        return float(self.vertex_mass.sum())

    def scratch(self):
        """Cached per-element volumes, shape gradients, N N^T and the
        gradient operator D, vec F = D q, built at the first call (see
        elasticity)."""
        if self._scratch is None:
            from .elasticity import ElasticScratch  # elasticity imports mesh
            self._scratch = ElasticScratch(self)
        return self._scratch


def merge_meshes(meshes: list[TetMeshModel]) -> TetMeshModel:
    """Concatenate meshes into one model with reindexed connectivity.

    Deformable-deformable contact is out of scope, so merged solids interact
    only through shared obstacles; merging gives the physics one q vector.
    """
    if len(meshes) == 1:
        return meshes[0]
    rest, tets, tris = [], [], []
    offset = 0
    for m in meshes:
        rest.append(m.rest_positions)
        tets.append(m.tets + offset)
        tris.append(m.surface_tris + offset)
        offset += m.n_verts
    merged = TetMeshModel.__new__(TetMeshModel)
    merged.rest_positions = np.concatenate(rest)
    merged.tets = np.concatenate(tets)
    merged.rest_volumes = np.concatenate([m.rest_volumes for m in meshes])
    merged.vertex_mass = np.concatenate([m.vertex_mass for m in meshes])
    merged.surface_tris = np.concatenate(tris)
    merged.surface_vertices = np.unique(merged.surface_tris)
    merged.mu = np.concatenate([m.mu for m in meshes])
    merged.lam = np.concatenate([m.lam for m in meshes])
    merged.alpha = np.concatenate([m.alpha for m in meshes])
    merged.beta = np.concatenate([m.beta for m in meshes])
    merged._scratch = None
    return merged
