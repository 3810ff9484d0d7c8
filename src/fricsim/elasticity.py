"""Neo-Hookean elasticity and Rayleigh damping for tetrahedral meshes.

Energy density per element (Lame mu, lambda; J = det F):

    psi(F) = mu/2 (tr(F^T F) - 3) - mu ln J + lambda/2 (ln J)^2

which is zero with zero slope at F = I and rotation invariant.  Inverted
elements (J <= 0) evaluate to +inf so the line search rejects such states.

F is linear in the positions, so each mesh owns one sparse gradient
operator D (9 n_e x 3 n_v, ``ElasticScratch.grad``, built once) with
vec F = D q and A = dF(v) = D v, and the corner forces of per-element
stresses P are -D^T vec(vol P).  D's rows are component-major: row
(3c + j) n_e + e is F_e[c, j], so D q is, with no copy, (3, 3, n_e)
columns, one contiguous row of n_e values per component, and every element
kernel works on that layout, with per-element scalars broadcast along its
last axis.  The shape gradients N are kept as (4, 3, n_e) columns too.
J and G = F^{-T} are arithmetic on the rows of F's cofactors
(``_kinematics``), and the contractions G A^T G, <G, A> and N G^T are
einsums over the component axes.  The residual's elastic and
Rayleigh-stiffness forces are one pass, ``element_forces``, generic over
ndarray-vs-Dual input, so the same code path produces values and
Jacobian-vector products.  The Jacobian's element blocks are closed form,
from one ``element_kinematics`` evaluation per assembly and one kernel,
``element_blocks``.  With N the shape gradients, A = dF(v), the flattened
element rows r = vec(N G^T) and s = vec(N (G A^T G)^T), t = <G, A>,
c = mu - lam ln J, O = r r^T, X = s r^T + r s^T and the index swap
swap(Y)[(a,i),(b,j)] = Y[(a,j),(b,i)], the stiffness blocks
K_e = -df_e/dq_e and the damping-dq blocks Q_e = d(beta K_e v_e)/dq_e enter
c_q df/dq + c_v df/dv as

    w K + c_q Q = vol [lam Y + swap(c Y - c_q beta lam t O)]
                  + w mu vol (N N^T kron I_3),
    Y = w O - c_q beta X,   w = c_q + c_v beta,

where both bracketed terms are batched (12 x 2)(2 x 12) products of the
columns [r, s].  s and t are the only per-element quantities that depend
on v; ``damping_q_blocks`` makes them, and only where some element has
beta > 0.  Elsewhere the products take the one column r.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import dual as dm
from .mesh import TetMeshModel


# Flat indices into a (3, 3) F of the four factors of its cofactors,
# cof[i, j] = F[i+1, j+1] F[i+2, j+2] - F[i+1, j+2] F[i+2, j+1] (mod 3).
_COFACTOR = np.array([3 * ((i + di) % 3) + (j + dj) % 3
                      for di, dj in ((1, 1), (2, 2), (1, 2), (2, 1))
                      for i in range(3) for j in range(3)])
# the same factors of the cofactors' first column alone, (4, 3)
_COFACTOR_COLUMN0 = _COFACTOR.reshape(4, 3, 3)[:, :, 0]


class ElasticScratch:
    """Per-element volumes, shape gradients N ((4, 3, n_e) columns) and
    N N^T and the mesh's gradient operator, built at the mesh's first
    kernel call (cached)."""

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
        self.shape_grad = np.ascontiguousarray(n.transpose(1, 2, 0))  # columns
        # D (9 n_e, 3 n_v), vec F = D q: row (3c + j) n_e + e holds N[e, a, j]
        # at column 3 tets[e, a] + c, four entries a = 0..3 per row.
        cols = 3 * mesh.tets + np.arange(3)[:, None, None, None]
        vals = n.transpose(2, 0, 1)[None]
        shape = (3, 3, n_e, 4)
        self.grad = sp.csr_matrix(
            (np.broadcast_to(vals, shape).ravel(),
             np.broadcast_to(cols, shape).ravel().astype(np.int32),
             np.arange(0, 36 * n_e + 1, 4, dtype=np.int32)),
            shape=(9 * n_e, mesh.n_dofs))
        # D^T for the corner forces, kept: D.T builds a matrix on every call
        self.grad_t = self.grad.T.tocsr()
        self.nnt = n @ np.swapaxes(n, -1, -2)  # N N^T (n_e, 4, 4)

    def gradient(self, q):
        """Per-element F = D q as (3, 3, n_e) columns of flat q; generic,
        and for a velocity v the same product is A = dF(v)."""
        return dm.matmul(self.grad, q).reshape(3, 3, -1)


def _kinematics(f):
    """(G = F^{-T}, J) of (3, 3, n_e) columns F; generic.  G is F's
    cofactor matrix over J."""
    c = f.reshape(9, -1)[_COFACTOR].reshape(4, 3, 3, -1)
    cof = c[0] * c[1] - c[2] * c[3]
    j = _det(f, cof[:, 0])
    return cof / j, j


def _det(f, cof0):
    """J = det F of (3, 3, n_e) columns F and the first column cof0 of its
    cofactors: their dot; generic."""
    return dm.einsum("ie,ie->e", f[:, 0], cof0)


def _gatg(g, a):
    """G A^T G of (3, 3, n_e) columns; generic."""
    return dm.einsum("ije,kje,kle->ile", g, a, g)


def _rows(n, m):
    """(n_e, 12) rows, the flattened N M^T, of (4, 3, n_e) columns N and
    (3, 3, n_e) columns M; einsum keeps its operands' memory order, so the
    rows are made contiguous after."""
    return np.ascontiguousarray(np.einsum("aje,cje->eac", n, m)
                                .reshape(-1, 12))


def elastic_energy(mesh: TetMeshModel, q):
    """Total elastic energy (J); +inf when any element is inverted."""
    s = mesh.scratch()
    if not np.all(np.isfinite(dm.value(q))):
        raise ValueError("non-finite positions passed to elastic_energy")
    f = s.gradient(q)
    c = f.reshape(9, -1)[_COFACTOR_COLUMN0]   # (4, 3, n_e)
    j = _det(f, c[0] * c[1] - c[2] * c[3])
    if np.any(dm.value(j) <= 0.0):
        return np.inf
    tr_c = dm.einsum("ije,ije->e", f, f)
    logj = dm.log(j)
    psi = 0.5 * mesh.mu * (tr_c - 3.0) - mesh.mu * logj \
        + 0.5 * mesh.lam * logj ** 2
    return (s.volumes * psi).sum()


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
    logj = dm.log(j)
    mu, lam = mesh.mu, mesh.lam
    stress = mu * f + (lam * logj - mu) * g if elastic else 0.0
    if stiff:
        a = s.gradient(v)
        trace = dm.einsum("ije,ije->e", g, a)
        dp = (mu * a + (mu - lam * logj) * _gatg(g, a)
              + (lam * trace) * g)
        stress = stress + mesh.beta * dp
    return out - dm.matmul(s.grad_t, (s.volumes * stress).ravel())


def elastic_force(mesh: TetMeshModel, q):
    """f_e = -dW/dq as a flat (m,) vector; zero at rest."""
    return element_forces(mesh, q, None, elastic=True, damping=False)


def damping_force(mesh: TetMeshModel, q, v):
    """Rayleigh damping  f_d = -(alpha M + beta K(q)) v  (generic); beta is
    per element, so it scales each element's stress before D^T."""
    return element_forces(mesh, q, v, elastic=False, damping=True)


def element_kinematics(mesh: TetMeshModel, q):
    """Per element at real q: (G = F^{-T} as (3, 3, n_e) columns, ln J, r),
    with r (n_e, 12) the flattened R = N G^T, r[3a + c] = R[a,c] =
    N[a,:].G[c,:]; shared by :func:`damping_q_blocks` and
    :func:`element_blocks`."""
    s = mesh.scratch()
    g, j = _kinematics(s.gradient(np.asarray(q, float)))
    return g, np.log(j), _rows(s.shape_grad, g)


def damping_q_blocks(mesh: TetMeshModel, kin, v):
    """The damping-dq blocks d(beta K_e(q) v_e)/dq_e in factored form
    (s, t), from the :func:`element_kinematics` ``kin`` at q: with
    A = dF(v) and G = F^{-T}, s (n_e, 12) is the flattened
    S = N (G A^T G)^T and t (n_e,) is <G, A>.  They are the only
    per-element quantities of the blocks that depend on v;
    :func:`element_blocks` takes them as ``damp``."""
    s = mesh.scratch()
    g = kin[0]
    a = s.gradient(np.asarray(v, float))
    return _rows(s.shape_grad, _gatg(g, a)), np.einsum("ije,ije->e", g, a)


def element_blocks(mesh: TetMeshModel, kin, c_q: float, c_v: float,
                   damp=None) -> np.ndarray:
    """Element blocks (n_e, 12, 12) of w K + c_q Q, w = c_q + c_v beta, by
    the identity in the module docstring, from the
    :func:`element_kinematics` ``kin`` at q and the
    :func:`damping_q_blocks` ``damp`` = (s, t) at v.  Without ``damp`` Q is
    left out and the products take the one column r.  K and Q are
      K = vol (lam O + swap(c O)) + mu vol (N N^T kron I_3),
      Q = -beta vol (lam X + swap(c X + lam t O)).
    """
    s = mesh.scratch()
    _, logj, r = kin
    w = (c_q + c_v * mesh.beta)[:, None]
    lam = (s.volumes * mesh.lam)[:, None]
    c = (s.volumes * (mesh.mu - mesh.lam * logj))[:, None]
    if damp is None:  # Y = w O; einsum's outer beats a one-column matmul
        k = np.einsum("ni,nj->nij", r, (lam * w) * r)
        swapped = np.einsum("ni,nj->nij", r, (c * w) * r)
    else:
        sv, t = damp
        b = (c_q * mesh.beta)[:, None]
        cols = np.stack([r, sv], axis=-1)
        y = np.stack([w * r - b * sv, -b * r], axis=1)  # Y = cols @ y
        z = c[:, None] * y  # c Y - c_q beta lam t O = cols @ z
        z[:, 0] -= (b * lam * t[:, None]) * r
        k = cols @ (lam[:, None] * y)
        swapped = cols @ z
    n = len(r)
    view = k.reshape(n, 4, 3, 4, 3)  # k += swap(swapped)
    view += swapped.reshape(n, 4, 3, 4, 3).transpose(0, 1, 4, 3, 2)
    mu_nnt = (w * (s.volumes * mesh.mu)[:, None])[:, :, None] * s.nnt
    for i in range(3):
        k[:, i::3, i::3] += mu_nnt
    return k
