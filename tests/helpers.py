"""Shared test helpers: element block indices, df/dq and df/dv from the
weighted assembly, the force's terms and their Jacobians from their own
kernels, the volume formulas the region tables replaced, bitwise
equality of real parts and tangents, one obstacle's
geometry queries, obstacle frame counts, linear force models and bare
nonlinear problems."""

from collections import Counter

import numpy as np
import scipy.sparse as sp

from fricsim import dual as dm
from fricsim.contact import ObstacleTable, RigidMotion
from fricsim.elasticity import (damping_force, damping_q_blocks,
                                elastic_force, element_blocks,
                                element_kinematics)
from fricsim.forces import CsrPattern
from fricsim.friction import contact_friction_blocks, contact_friction_forces
from fricsim.volume import (enclosed_volume, volume_force,
                            volume_hessian_blocks, volume_hessian_pairs,
                            volume_law)


def element_block_indices(mesh):
    """(rows, cols) of the (n_e, 12, 12) element blocks' entries, flat,
    with the 12 element dofs vertex-major."""
    dofs = (3 * mesh.tets[:, :, None] + np.arange(3)).reshape(-1, 12)
    return (np.repeat(dofs, 12, axis=1).ravel(),
            np.tile(dofs, (1, 12)).ravel())


def split_jacobians(model, q, v, t, contact):
    """(df/dq, df/dv, rank1 list of df/dq) as CSR matrices on the model's
    pattern, from its weighted assembly with weights (1, 0) and (0, 1)."""
    pat = model.pattern()
    data_q, rank1 = model.jacobians(q, v, t, contact, 1.0, 0.0)
    data_v, _ = model.jacobians(q, v, t, contact, 0.0, 1.0)
    return pat.matrix(data_q), pat.matrix(data_v), rank1


def term_forces(model, q, v, t, contact):
    """The six terms of ``model.force`` (name -> (m,) force), each from its
    own kernel; generic over Dual q/v."""
    mesh = model.mesh
    f_c = f_f = 0.0 * q
    if contact.cset.size:
        f_c, f_f = contact_friction_forces(contact.cset, q, v, t,
                                           model.penalty,
                                           anchor=contact.lagged)
    f_v = 0.0 * q
    for vp in model.volume_penalties:
        f_v = f_v + volume_force(q, vp)
    return {"elastic": elastic_force(mesh, q),
            "damping": damping_force(mesh, q, v),
            "gravity": np.tile(model.gravity, mesh.n_verts) * mesh.mass_dofs,
            "contact": f_c, "friction": f_f, "volume": f_v}


def _pair_blocks(vi, vj):
    """(rows, cols) of the 3x3 blocks of vertex pairs (vi, vj)."""
    shape = (len(vi), 3, 3)
    return (np.broadcast_to(3 * vi[:, None, None] + np.arange(3)[:, None],
                            shape),
            np.broadcast_to(3 * vj[:, None, None] + np.arange(3), shape))


def term_jacobians(model, q, v, t, contact):
    """(df/dq, df/dv) of each term of ``model.force`` (name -> pair of
    dense arrays) at real (q, v), from its own kernel's blocks assembled
    through ``scipy.sparse.coo_matrix`` (duplicates summed).  The volume
    df/dq includes its dense rank-1 part -W'' g g^T."""
    mesh = model.mesh
    m = mesh.n_dofs

    def dense(*trips):
        out = np.zeros((m, m))
        for rows, cols, vals in trips:
            out += sp.coo_matrix((np.ravel(vals), (np.ravel(rows),
                                                   np.ravel(cols))),
                                 shape=(m, m)).toarray()
        return out

    kin = element_kinematics(mesh, q)
    kblocks = element_blocks(mesh, kin, 1.0, 0.0)
    qblocks = element_blocks(mesh, kin, 1.0, 0.0,
                             damping_q_blocks(mesh, kin, v)) - kblocks
    elem = element_block_indices(mesh)
    diag = np.arange(m)
    terms = {
        "elastic": (dense((*elem, -kblocks)), dense()),
        "damping": (dense((*elem, -qblocks)),
                    dense((diag, diag, -mesh.alpha * mesh.mass_dofs),
                          (*elem, -kblocks * mesh.beta[:, None, None]))),
        "gravity": (dense(), dense()),
        "contact": (dense(), dense()), "friction": (dense(), dense())}
    cset = contact.cset
    if cset.size:
        pairs = _pair_blocks(cset.vertex, cset.vertex)
        dq, dv = (contact_friction_blocks(cset, q, v, t, model.penalty,
                                          *weights, anchor=contact.lagged)
                  for weights in ((1.0, 0.0), (0.0, 1.0)))
        terms["contact"] = (dense((*pairs, dq[:, :3])), dense())
        terms["friction"] = (dense((*pairs, dq[:, 3:])),
                             dense((*pairs, dv[:, 3:])))
    vol = dense()
    for vp in model.volume_penalties:
        volume, g = enclosed_volume(vp.region, q)
        _, w1, w2 = volume_law(volume, vp)
        pairs = _pair_blocks(*volume_hessian_pairs(vp.region))
        vol += dense((*pairs, -w1 * volume_hessian_blocks(vp.region, q)))
        vol -= w2 * np.outer(g, g)
    terms["volume"] = (vol, dense())
    return terms


def reference_enclosed_volume(region, q):
    """(V, dV/dq) from per-triangle cross products, the formula the
    region tables replaced; generic over Dual q."""
    tris = np.asarray(region, int)
    x = q.reshape(-1, 3)
    p1, p2, p3 = x[tris[:, 0]], x[tris[:, 1]], x[tris[:, 2]]
    c23 = dm.cross_last(p2, p3)
    v = dm.dot_last(p1, c23).sum() / 6.0
    corners = dm.concat([c23, dm.cross_last(p3, p1), dm.cross_last(p1, p2)])
    grad = dm.spread(tris.T.ravel(), corners / 6.0, len(x))
    return v, grad.reshape(-1)


def reference_volume_hessian_blocks(region, q):
    """(6 n_t, 3, 3) d2V/dq2 blocks as -skew / skew of each third corner,
    the formula the region tables replaced."""
    tris = np.asarray(region, int)
    x = np.asarray(q, float).reshape(-1, 3)
    pa, pb, pc = x[tris[:, 0]], x[tris[:, 1]], x[tris[:, 2]]

    def skew(v):
        k = np.zeros((len(v), 3, 3))
        k[:, 0, 1], k[:, 0, 2] = -v[:, 2], v[:, 1]
        k[:, 1, 0], k[:, 1, 2] = v[:, 2], -v[:, 0]
        k[:, 2, 0], k[:, 2, 1] = -v[:, 1], v[:, 0]
        return k / 6.0

    kc, ka, kb = skew(pc), skew(pa), skew(pb)
    return np.concatenate([-kc, kc, -ka, ka, -kb, kb])


def bits_equal(got, want):
    """Bitwise equality of real parts and of tangents."""
    return (np.array_equal(dm.value(got), dm.value(want))
            and np.array_equal(dm.tangent(got), dm.tangent(want)))


def gap_normal(obstacle, x, t):
    """(gap (k,), unit normal (k, 3)) of the positions x (k, 3) against one
    obstacle, through a table of it alone."""
    return ObstacleTable([obstacle]).gap_normal(np.zeros(len(x), int), x, t)


def gap(obstacle, x, t):
    return gap_normal(obstacle, x, t)[0]


def surface_velocity(obstacle, x, t):
    """Velocity (k, 3) of one obstacle's material points at x (k, 3)."""
    return ObstacleTable([obstacle]).velocity(np.zeros(len(x), int), x, t)


def count_frames(monkeypatch):
    """Obstacle frame evaluations so far, per obstacle: a function of a
    list of obstacles, counting each obstacle's ``RigidMotion.frame``
    calls; the obstacles need distinct motions."""
    calls = Counter()
    frame = RigidMotion.frame

    def counted(self, t):
        calls[id(self)] += 1
        return frame(self, t)

    monkeypatch.setattr(RigidMotion, "frame", counted)

    def per_obstacle(obstacles):
        motions = [id(o.motion) for o in obstacles]
        assert len(set(motions)) == len(motions)
        return [calls[m] for m in motions]

    return per_obstacle


class LinearForceModel:
    """f(q, v) = Aq q + Av v + c over a diagonal mass; no contact."""

    def __init__(self, mass, a_q=None, a_v=None, const=None):
        self.mass_dofs = np.asarray(mass, float)
        n = self.mass_dofs.size
        self.a_q = np.zeros((n, n)) if a_q is None else np.asarray(a_q, float)
        self.a_v = np.zeros((n, n)) if a_v is None else np.asarray(a_v, float)
        self.const = np.zeros(n) if const is None else np.asarray(const, float)
        self.gravity = np.zeros(3)
        self.fixed_mask = np.zeros(n, bool)
        self.fixed_velocity = np.zeros(n)
        k = n // 3
        idx = np.arange(k)
        self._pattern = CsrPattern(k, [(np.repeat(idx, k), np.tile(idx, k))])
        # slots of the dense matrix entries, row-major
        self._slots = (self._pattern.slots[0].reshape(k, k, 3, 3)
                       .transpose(0, 2, 1, 3).ravel())

    def force(self, q, v, t, contact):
        return dm.matmul(self.a_q, q) + dm.matmul(self.a_v, v) + self.const

    def pattern(self):
        """Dense n x n pattern."""
        return self._pattern

    def jacobians(self, q, v, t, contact, c_q, c_v):
        dfdx = c_q * self.a_q + c_v * self.a_v
        return self._pattern.scatter(self._slots, dfdx.ravel()), []


class BareProblem:
    """Adapter exposing the solver-facing protocol for a plain residual."""

    def __init__(self, residual_fn, jac_fn=None, abs_tol=1e-14):
        self._residual = residual_fn
        self._jac = jac_fn
        self._abs_tol = abs_tol

    def residual(self, v):
        return self._residual(v)

    def jacobian(self, v):
        if self._jac is not None:
            return sp.csr_matrix(self._jac(np.asarray(v, float))), []
        n = np.size(v)
        cols = [dm.jvp(self._residual, np.asarray(v, float), e)
                for e in np.eye(n)]
        return sp.csr_matrix(np.stack(cols, axis=1)), []

    def jvp(self, v, p):
        return dm.jvp(self._residual, np.asarray(v, float), p)

    def default_abs_tol(self):
        return self._abs_tol
