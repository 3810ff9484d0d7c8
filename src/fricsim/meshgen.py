"""Procedural tetrahedral meshes for boxes and balls: the vertices and tets
of :func:`box_grid` and :func:`ball_grid`, which ``TetMeshModel`` takes.

Boxes use the Kuhn 6-tet cube subdivision (conforming without parity games);
balls map the box lattice radially onto the sphere, which preserves positive
orientation at the resolutions used here (asserted at build time).
"""

from __future__ import annotations

import numpy as np

from .mesh import tet_volumes

# Vertex paths 0 -> diagonal corner for the 6 Kuhn tets of a unit cube,
# indexed into the (dx, dy, dz) corner lattice below.
_CORNERS = np.array([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])
_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _corner_index(d):
    return d[0] * 4 + d[1] * 2 + d[2]


def _kuhn_tets():
    tets = []
    for perm in _PERMS:
        path = [np.zeros(3, dtype=int)]
        for axis in perm:
            step = path[-1].copy()
            step[axis] = 1
            path.append(step)
        tets.append([_corner_index(p) for p in path])
    return np.array(tets, dtype=int)


_KUHN = _kuhn_tets()


def box_grid(size, divisions) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and tets of an axis-aligned box centered at the origin."""
    sx, sy, sz = (float(s) for s in size)
    nx, ny, nz = (int(d) for d in divisions)
    if min(sx, sy, sz) <= 0.0:
        raise ValueError("size must be positive along every axis")
    if min(nx, ny, nz) < 1:
        raise ValueError("divisions must be >= 1 along every axis")
    xs = np.linspace(-sx / 2, sx / 2, nx + 1)
    ys = np.linspace(-sy / 2, sy / 2, ny + 1)
    zs = np.linspace(-sz / 2, sz / 2, nz + 1)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    verts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    tets = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                corner_ids = [vid(i + di, j + dj, k + dk)
                              for di, dj, dk in _CORNERS]
                for tet in _KUHN:
                    tets.append([corner_ids[c] for c in tet])
    tets = np.array(tets, dtype=int)
    tets = _orient_positive(verts, tets)
    return verts, tets


def _orient_positive(verts, tets):
    vols = tet_volumes(verts, tets)
    flip = vols < 0
    tets = tets.copy()
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    vols = tet_volumes(verts, tets)
    if np.any(vols <= 0):
        raise ValueError("degenerate element in generated mesh")
    return tets


def ball_grid(radius: float, divisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and tets of a ball: box lattice mapped radially to the sphere.

    The map p -> p * (|p|_inf / |p|_2) sends nested cube shells to nested
    spherical shells and is a homeomorphism, so the lattice stays valid.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    verts, tets = box_grid((2.0, 2.0, 2.0), (divisions,) * 3)
    sup = np.max(np.abs(verts), axis=1)
    eu = np.linalg.norm(verts, axis=1)
    scale = np.ones(len(verts))
    nz = eu > 0
    scale[nz] = sup[nz] / eu[nz]
    verts = verts * scale[:, None] * float(radius)
    tets = _orient_positive(verts, tets)
    return verts, tets
