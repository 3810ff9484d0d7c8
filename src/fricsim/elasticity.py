"""Neo-Hookean elasticity and Rayleigh damping for tetrahedral meshes.

Energy density per element (Lame mu, lambda; J = det F):

    psi(F) = mu/2 (tr(F^T F) - 3) - mu ln J + lambda/2 (ln J)^2

which is zero with zero slope at F = I and rotation invariant.  Inverted
elements (J <= 0) evaluate to +inf so the line search rejects such states.

F is linear in the positions, so each mesh owns one sparse gradient
operator D (9 n_e x 3 n_v, ``ElasticScratch.grad``, built once) with
vec F = D q and A = dF(v) = D v, and the corner forces of per-element
stresses P are -D^T vec(vol P).  Every kernel takes G = F^{-T} and J from
the cofactor columns of F (``_kinematics``).  The residual's elastic and
Rayleigh-stiffness forces are one pass, ``element_forces``, generic over
ndarray-vs-Dual input, so the same code path produces values and
Jacobian-vector products.  The Jacobian blocks are closed form and take one
``element_kinematics`` evaluation, made once per assembly.  With the
flattened element rows r = vec(N G^T) and s = vec(N (G A^T G)^T) (N the
shape gradients), O = r r^T, X = s r^T + r s^T and the index swap
swap(Y)[(a,i),(b,j)] = Y[(a,j),(b,i)], they are (n_e, 12, 12) outer
products:

  * the stiffness blocks K_e = -df_e/dq_e (``_element_stiffness``)
      K = vol (lam O + swap((mu - lam ln J) O)) + mu vol (N N^T kron I_3);
  * the damping blocks d(beta K_e v_e)/dq_e (``damping_q_blocks``)
      Q = -beta vol (lam X + swap((mu - lam ln J) X + lam <G, A> O)).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import dual as dm
from .mesh import TetMeshModel


class ElasticScratch:
    """Per-element volumes and shape gradients and the mesh's gradient
    operator, built at the mesh's first kernel call (cached)."""

    def __init__(self, mesh: TetMeshModel):
        x = mesh.rest_positions[mesh.tets]
        edges = np.swapaxes(x[:, 1:] - x[:, :1], -1, -2)   # columns x_k - x0
        rest_inv = np.linalg.inv(edges)                    # Bm
        self.volumes = mesh.rest_volumes
        # Shape gradients N (n_e, 4, 3): dF[i, j]/dx[a, c] = delta_ic N[a, j].
        n_e = len(x)
        n = np.empty((n_e, 4, 3))
        n[:, 1:, :] = rest_inv
        n[:, 0, :] = -rest_inv.sum(axis=1)
        self.shape_grad = n
        # D (9 n_e, 3 n_v), vec F = D q: row 9e + 3c + j holds N[e, a, j] at
        # column 3 tets[e, a] + c, four entries a = 0..3 per row.
        cols = 3 * mesh.tets[:, None, None, :] + np.arange(3)[:, None, None]
        vals = np.swapaxes(n, 1, 2)[:, None]
        shape = (n_e, 3, 3, 4)
        self.grad = sp.csr_matrix(
            (np.broadcast_to(vals, shape).ravel(),
             np.broadcast_to(cols, shape).ravel().astype(np.int32),
             np.arange(0, 36 * n_e + 1, 4, dtype=np.int32)),
            shape=(9 * n_e, mesh.n_dofs))
        # D^T for the corner forces, kept: D.T builds a matrix on every call
        self.grad_t = self.grad.T.tocsr()

    @cached_property
    def nnt(self) -> np.ndarray:
        """N N^T (n_e, 4, 4), built at the first assembly."""
        return self.shape_grad @ np.swapaxes(self.shape_grad, -1, -2)

    def gradient(self, q):
        """Per-element F = D q (n_e, 3, 3) of flat q; generic, and for a
        velocity v the same product is A = dF(v)."""
        return dm.matmul(self.grad, q).reshape(-1, 3, 3)


def _kinematics(f):
    """(G = F^{-T}, J) per element F; generic.  G is taken from the cofactor
    columns of F = [f0, f1, f2]: G = [f1 x f2, f2 x f0, f0 x f1] / J with
    J = f0 . (f1 x f2)."""
    f0, f1, f2 = f[..., 0], f[..., 1], f[..., 2]
    c0 = dm.cross_last(f1, f2)
    j = dm.dot_last(f0, c0)
    g = dm.stack_last([c0, dm.cross_last(f2, f0), dm.cross_last(f0, f1)])
    return g / j[:, None, None], j


def elastic_energy(mesh: TetMeshModel, q):
    """Total elastic energy (J); +inf when any element is inverted."""
    s = mesh.scratch()
    if not np.all(np.isfinite(dm.value(q))):
        raise ValueError("non-finite positions passed to elastic_energy")
    f = s.gradient(q)
    j = dm.det3(f)
    if np.any(dm.value(j) <= 0.0):
        return np.inf
    tr_c = (f * f).sum(axis=(-2, -1))
    logj = dm.log(j)
    psi = 0.5 * mesh.mu * (tr_c - 3.0) - mesh.mu * logj \
        + 0.5 * mesh.lam * logj ** 2
    return dm.asum(s.volumes * psi)


def element_forces(mesh: TetMeshModel, q, v, elastic: bool, damping: bool):
    """Elastic and/or Rayleigh damping force as a flat (m,) vector, in one
    element pass; generic over Dual q/v.

    Each element's stress is [elastic] P + [damping] beta dP, with
      P  = mu F + (lam ln J - mu) G,
      dP = mu A + (mu - lam ln J) G A^T G + lam <G, A> G,
    F = D q, G = F^{-T} and A = D v; dP is the directional derivative of P,
    so its corner forces are K_e v_e.  The corner forces are
    -D^T vec(vol stress), and damping adds -alpha M v.
    """
    stiff = damping and bool(np.any(mesh.beta > 0.0))
    out = -(mesh.alpha * (mesh.mass_dofs * v)) if damping else 0.0 * q
    if not (elastic or stiff):
        return out
    s = mesh.scratch()
    f = s.gradient(q)
    g, j = _kinematics(f)
    logj = dm.log(j)[:, None, None]
    mu, lam = mesh.mu[:, None, None], mesh.lam[:, None, None]
    stress = mu * f + (lam * logj - mu) * g if elastic else 0.0
    if stiff:
        a = s.gradient(v)
        trace = (g * a).sum(axis=(-2, -1))[:, None, None]
        dp = (mu * a + (mu - lam * logj)
              * dm.matmul(dm.matmul(g, dm.swap_last2(a)), g)
              + lam * trace * g)
        stress = stress + mesh.beta[:, None, None] * dp
    weighted = s.volumes[:, None, None] * stress
    return out - dm.matmul(s.grad_t, weighted.ravel())


def elastic_force(mesh: TetMeshModel, q):
    """f_e = -dW/dq as a flat (m,) vector; zero at rest."""
    return element_forces(mesh, q, None, elastic=True, damping=False)


def damping_force(mesh: TetMeshModel, q, v):
    """Rayleigh damping  f_d = -(alpha M + beta K(q)) v  (generic); beta is
    per element, so it scales each element's stress before D^T."""
    return element_forces(mesh, q, v, elastic=False, damping=True)


def element_kinematics(mesh: TetMeshModel, q):
    """Per element at real q: (G = F^{-T}, ln J, r), with r (n_e, 12) the
    flattened R = N G^T, r[3a + c] = R[a,c] = N[a,:].G[c,:]; shared by the
    stiffness and damping-dq blocks."""
    s = mesh.scratch()
    g, j = _kinematics(s.gradient(np.asarray(q, float)))
    r = s.shape_grad @ np.swapaxes(g, -1, -2)
    return g, np.log(j), r.reshape(len(g), 12)


def _outer(r, out=None):
    """O = r r^T per element, (n_e, 12, 12)."""
    return np.einsum("ni,nj->nij", r, r, out=out)


def _add_swap(out, y):
    """out += swap(y) in place, for (n_e, 12, 12) blocks, where
    swap(Y)[(a,i),(b,j)] = Y[(a,j),(b,i)] (a reshaped, transposed view)."""
    n = len(y)
    view = out.reshape(n, 4, 3, 4, 3)
    view += y.reshape(n, 4, 3, 4, 3).transpose(0, 1, 4, 3, 2)


def _element_stiffness(mesh, kin):
    """Element blocks (n_e, 12, 12) of K = -df/dq via the analytic dP/dF,
    from the :func:`element_kinematics` ``kin`` at q.

    With N the shape gradients, G = F^{-T} and R = N G^T:
      K[(a,c),(b,e)] = vol * ( mu d_ce (N N^T)[a,b]
                               + (mu - lam ln J) R[a,e] R[b,c]
                               + lam R[a,c] R[b,e] ),
    i.e. vol (lam O + swap((mu - lam ln J) O)) plus mu vol N N^T on the
    three (c, c) diagonals, with O = r r^T.
    """
    s = mesh.scratch()
    _, logj, r = kin
    vol = s.volumes[:, None, None]
    o = _outer(r)
    k = (vol * mesh.lam[:, None, None]) * o
    o *= vol * (mesh.mu - mesh.lam * logj)[:, None, None]
    _add_swap(k, o)
    mu_nnt = (s.volumes * mesh.mu)[:, None, None] * s.nnt
    for c in range(3):
        k[:, c::3, c::3] += mu_nnt
    return k


def damping_q_blocks(mesh: TetMeshModel, kin, v) -> np.ndarray:
    """Element blocks (n_e, 12, 12) of d(beta K_e(q) v_e)/dq_e, closed form,
    from the :func:`element_kinematics` ``kin`` at q.

    The q-derivative of the ``beta dP`` in :func:`element_forces`.
    With A = dF(v), G = F^{-T}, R = N G^T, S = N (G A^T G)^T,
    t = <G, A> and c = mu - lam ln J:
      Q[(a,i),(b,j)] = beta vol ( -lam (S[a,i] R[b,j] + R[a,i] S[b,j])
                                  - c (S[a,j] R[b,i] + R[a,j] S[b,i])
                                  - lam t R[a,j] R[b,i] ),
    i.e. -beta vol (lam X + swap(c X + lam t O)) with O = r r^T and X the
    rank-2 product [s r] [r s]^T = s r^T + r s^T.  The damping force
    contribution is the negative of these blocks.
    """
    s = mesh.scratch()
    g, logj, r = kin
    a = s.gradient(np.asarray(v, float))
    gt = np.swapaxes(g, -1, -2)
    sv = (s.shape_grad @ (gt @ a @ gt)).reshape(len(g), 12)
    t = (g * a).sum(axis=(-2, -1))
    scale = -(mesh.beta * s.volumes)
    lam = (scale * mesh.lam)[:, None, None]
    c = (scale * (mesh.mu - mesh.lam * logj))[:, None, None]
    x = np.stack([sv, r], axis=-1) @ np.stack([r, sv], axis=1)
    d = lam * x
    x *= c
    _add_swap(d, x)
    o = _outer(r, out=x)  # into X's buffer: two (n_e, 12, 12) arrays live
    o *= lam * t[:, None, None]
    _add_swap(d, o)
    return d
