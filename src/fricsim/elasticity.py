"""Neo-Hookean elasticity and Rayleigh damping for tetrahedral meshes.

Energy density per element (Lame mu, lambda; J = det F):

    psi(F) = mu/2 (tr(F^T F) - 3) - mu ln J + lambda/2 (ln J)^2

which is zero with zero slope at F = I and rotation invariant.  Inverted
elements (J <= 0) evaluate to +inf so the line search rejects such states.

All kernels are generic over ndarray-vs-Dual input, so the same code path
produces values and Jacobian-vector products.  The Jacobian blocks are closed
form and take one ``element_kinematics`` evaluation, made once per assembly:
the stiffness blocks K_e (``_element_stiffness``) and the damping blocks
d(beta K_e v_e)/dq_e (``damping_q_blocks``, the q-derivative of the stiffness
product).
"""

from __future__ import annotations

import numpy as np

from . import dual as dm
from .mesh import TetMeshModel


class ElasticScratch:
    """Per-element rest inverses, volumes and shape gradients (cached)."""

    def __init__(self, mesh: TetMeshModel):
        x = mesh.rest_positions
        t = mesh.tets
        d1 = x[t[:, 1]] - x[t[:, 0]]
        d2 = x[t[:, 2]] - x[t[:, 0]]
        d3 = x[t[:, 3]] - x[t[:, 0]]
        dm_rest = np.stack([d1, d2, d3], axis=-1)          # (n_e, 3, 3)
        self.rest_inv = np.linalg.inv(dm_rest)             # Bm
        self.volumes = mesh.rest_volumes
        # Shape gradients N (n_e, 4, 3): dF[i, j]/dx[a, c] = delta_ic N[a, j].
        n = np.empty((len(t), 4, 3))
        n[:, 1:, :] = self.rest_inv
        n[:, 0, :] = -self.rest_inv.sum(axis=1)
        self.shape_grad = n


def _deformation_gradient(rest_inv, x_elem):
    d1 = x_elem[:, 1, :] - x_elem[:, 0, :]
    d2 = x_elem[:, 2, :] - x_elem[:, 0, :]
    d3 = x_elem[:, 3, :] - x_elem[:, 0, :]
    ds = dm.stack_last([d1, d2, d3])  # columns d1, d2, d3
    return dm.matmul(ds, rest_inv)


def _first_piola(f, mu, lam):
    """P = mu F + (lambda ln J - mu) F^{-T}."""
    j = dm.det3(f)
    finv_t = dm.swap_last2(dm.inv3(f))
    logj = dm.log(j)
    return mu[:, None, None] * f + (lam * logj - mu)[:, None, None] * finv_t


def elastic_energy(mesh: TetMeshModel, q):
    """Total elastic energy (J); +inf when any element is inverted."""
    s = mesh.scratch()
    if not np.all(np.isfinite(dm.value(q))):
        raise ValueError("non-finite positions passed to elastic_energy")
    x = q.reshape(-1, 3)
    f = _deformation_gradient(s.rest_inv, x[mesh.tets])
    j = dm.det3(f)
    if np.any(dm.value(j) <= 0.0):
        return np.inf
    tr_c = (f * f).sum(axis=(-2, -1))
    logj = dm.log(j)
    psi = 0.5 * mesh.mu * (tr_c - 3.0) - mesh.mu * logj \
        + 0.5 * mesh.lam * logj ** 2
    return dm.asum(s.volumes * psi)


def _element_forces(mesh, s, x_elem):
    """Per-element corner forces (n_e, 4, 3) = -vol * N P^T."""
    f = _deformation_gradient(s.rest_inv, x_elem)
    p = _first_piola(f, mesh.mu, mesh.lam)
    npt = dm.matmul(s.shape_grad, dm.swap_last2(p))
    return -s.volumes[:, None, None] * npt


def elastic_force(mesh: TetMeshModel, q):
    """f_e = -dW/dq as a flat (m,) vector; zero at rest."""
    s = mesh.scratch()
    x = q.reshape(-1, 3)
    return _scatter(mesh, _element_forces(mesh, s, x[mesh.tets]))


def element_kinematics(mesh: TetMeshModel, q):
    """Per element at real q: (G = F^{-T}, ln J, R = N G^T (n_e, 4, 3)),
    R[a,c] = N[a,:].G[c,:]; shared by the stiffness and damping-dq blocks."""
    s = mesh.scratch()
    x = np.asarray(q, float).reshape(-1, 3)
    f = _deformation_gradient(s.rest_inv, x[mesh.tets])
    g = np.swapaxes(np.linalg.inv(f), -1, -2)
    logj = np.log(np.linalg.det(f))
    r = s.shape_grad @ np.swapaxes(g, -1, -2)
    return g, logj, r


def _element_stiffness(mesh, kin):
    """Element blocks (n_e, 12, 12) of K = -df/dq via the analytic dP/dF,
    from the :func:`element_kinematics` ``kin`` at q.

    With N the shape gradients, G = F^{-T} and R = N G^T:
      K[(a,c),(b,e)] = vol * ( mu d_ce (N N^T)[a,b]
                               + (mu - lam ln J) R[a,e] R[b,c]
                               + lam R[a,c] R[b,e] ).
    """
    s = mesh.scratch()
    _, logj, r = kin
    n = s.shape_grad
    nnt = n @ np.swapaxes(n, -1, -2)                # (n_e, 4, 4)
    w = lambda a: a[:, None, None, None, None]
    eye3 = np.eye(3)[None, None, :, None, :]        # delta_ce
    k = (w(mesh.mu) * nnt[:, :, None, :, None] * eye3
         + w(mesh.mu - mesh.lam * logj)
         * r[:, :, None, None, :] * np.swapaxes(r, 1, 2)[:, None, :, :, None]
         + w(mesh.lam) * r[:, :, :, None, None] * r[:, None, None, :, :])
    k *= w(s.volumes)
    return k.reshape(len(mesh.tets), 12, 12)


def _element_stiffness_product(mesh, s, x_elem, w_elem):
    """K_e(x) w_e per element, (n_e, 4, 3); generic over Dual inputs.

    Directional derivative of the first Piola stress:
      dP = mu dF + (mu - lam ln J) G dF^T G + lam tr(F^{-1} dF) G,  G = F^{-T}.
    """
    mu, lam = mesh.mu, mesh.lam
    f = _deformation_gradient(s.rest_inv, x_elem)
    df = _deformation_gradient(s.rest_inv, w_elem)
    j = dm.det3(f)
    finv = dm.inv3(f)
    g = dm.swap_last2(finv)
    logj = dm.log(j)
    trace = (finv * dm.swap_last2(df)).sum(axis=(-2, -1))
    dp = (mu[:, None, None] * df
          + (mu - lam * logj)[:, None, None]
          * dm.matmul(dm.matmul(g, dm.swap_last2(df)), g)
          + (lam * trace)[:, None, None] * g)
    out = dm.matmul(s.shape_grad, dm.swap_last2(dp))
    return s.volumes[:, None, None] * out


def _scatter(mesh, per_elem):
    """Sum per-element corner vectors (n_e, 4, 3) into a flat (m,) vector."""
    out = dm.zeros((mesh.n_verts, 3), like=per_elem)
    dm.scatter_add(out, mesh.tets, per_elem)
    return out.reshape(-1)


def damping_force(mesh: TetMeshModel, q, v):
    """Rayleigh damping  f_d = -(alpha M + beta K(q)) v  (generic); beta is
    per element, so it scales each element's product before the scatter."""
    fd = -(mesh.alpha * (mesh.mass_dofs * v))
    if np.any(mesh.beta > 0.0):
        x, vv = q.reshape(-1, 3), v.reshape(-1, 3)
        kv = _element_stiffness_product(mesh, mesh.scratch(), x[mesh.tets],
                                        vv[mesh.tets])
        fd = fd - _scatter(mesh, mesh.beta[:, None, None] * kv)
    return fd


def damping_q_blocks(mesh: TetMeshModel, kin, v) -> np.ndarray:
    """Element blocks (n_e, 12, 12) of d(beta K_e(q) v_e)/dq_e, closed form,
    from the :func:`element_kinematics` ``kin`` at q.

    The q-derivative of the ``dP`` in :func:`_element_stiffness_product`.
    With A = dF(v), G = F^{-T}, R = N G^T, S = N (G A^T G)^T,
    t = <G, A> and c = mu - lam ln J:
      D[(a,i),(b,j)] = beta vol ( -lam (S[a,i] R[b,j] + R[a,i] S[b,j])
                                  - c (S[a,j] R[b,i] + R[a,j] S[b,i])
                                  - lam t R[a,j] R[b,i] ).
    The damping force contribution is the negative of these blocks.
    """
    s = mesh.scratch()
    g, logj, r = kin
    v_elem = np.asarray(v, float).reshape(-1, 3)[mesh.tets]
    a = _deformation_gradient(s.rest_inv, v_elem)
    gt = np.swapaxes(g, -1, -2)
    sv = s.shape_grad @ (gt @ a @ gt)               # S = N (G A^T G)^T
    t = (g * a).sum(axis=(-2, -1))
    scale = mesh.beta * s.volumes
    lam = (scale * mesh.lam)[:, None, None]
    c = (scale * (mesh.mu - mesh.lam * logj))[:, None, None]
    rt = np.swapaxes(r, 1, 2)                       # R[b,i] at (i, b)
    st = np.swapaxes(sv, 1, 2)
    # Terms in (a, i, b, j): S_ai R_bj + R_ai S_bj, then the index-swapped
    # S_aj R_bi and R_aj (c S_bi + lam t R_bi).
    d = -(lam * sv)[:, :, :, None, None] * r[:, None, None, :, :]
    d -= (lam * r)[:, :, :, None, None] * sv[:, None, None, :, :]
    d -= (c * sv)[:, :, None, None, :] * rt[:, None, :, :, None]
    d -= r[:, :, None, None, :] * (c * st + lam * t[:, None, None] * rt
                                   )[:, None, :, :, None]
    return d.reshape(len(mesh.tets), 12, 12)
