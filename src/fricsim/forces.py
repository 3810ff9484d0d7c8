"""Aggregate force model: f = f_e + f_d + f_c + f_f + f_v + f_g.

One ForceModel owns the (merged) mesh, obstacles, penalty/friction/volume
parameters and Dirichlet constraints, and provides

  * ``force`` — generic total force, evaluable with Dual q/v for JVPs,
    with part selection (used by the mis-split TR diagnostic) and lagged
    friction anchoring;
  * ``jacobians`` — assembled sparse (df/dq, df/dv) plus exact rank-1
    volume terms, kept separate because they are dense; the solvers apply
    them without forming them (Woodbury on the LU factor, or a matvec).
    The elastic K, the damping-dq blocks and the volume Hessian are closed
    form; only the contact and friction blocks are ``dual.jacobian_blocks``
    of the per-item kernels the force uses, so no obstacle curvature is
    coded here.

Contact candidate sets are frozen per step (built by the stepping loop) and
evaluated live inside a solve.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import dual as dm
from .contact import (ContactSet, PenaltyParams, contact_blocks,
                      contact_force, gap_matrix, gaps)
from .elasticity import _element_stiffness, damping_force, damping_q_blocks, \
    elastic_force
from .friction import (LaggedFrictionCache, contact_friction_blocks,
                       friction_force)
from .mesh import TetMeshModel
from .volume import (_d2wdv2, _dwdv, enclosed_volume, volume_force,
                     volume_hessian_blocks)

ALL_PARTS = frozenset({"elastic", "damping", "gravity", "contact", "friction",
                       "volume"})
NON_CONTACT_PARTS = ALL_PARTS - {"contact", "friction"}


@dataclass
class Rank1:
    """Low-rank Jacobian correction  scale * outer(u, w)  (never stored dense)."""

    scale: float
    u: np.ndarray
    w: np.ndarray

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.scale * self.u * float(self.w @ p)


@dataclass
class ContactState:
    """Per-step frozen contact candidates plus optional lagged anchors."""

    cset: ContactSet
    lagged: LaggedFrictionCache | None = None


class ForceModel:
    def __init__(self, mesh: TetMeshModel, obstacles=(),
                 penalty: PenaltyParams | None = None,
                 gravity=(0.0, -9.8, 0.0),
                 volume_penalties=(),
                 friction_mode: str = "implicit",
                 frozen_basis: bool = False,
                 fixed_vertices=(), fixed_velocity=(0.0, 0.0, 0.0)):
        self.mesh = mesh
        self.obstacles = list(obstacles)
        self.penalty = penalty
        self.gravity = np.asarray(gravity, float)
        # own copies: the measured rest volume is run state, not scene config
        self.volume_penalties = [copy.copy(vp) for vp in volume_penalties]
        for vp in self.volume_penalties:
            if vp.rest_volume is None:
                v0, _ = enclosed_volume(vp.region, mesh.rest_q())
                vp.rest_volume = float(v0)
        self.friction_mode = friction_mode
        self.frozen_basis = frozen_basis
        self.gravity_force = (mesh.vertex_mass[:, None]
                              * self.gravity[None, :]).reshape(-1)
        self.fixed_mask = np.zeros(mesh.n_dofs, dtype=bool)
        fixed_vertices = np.asarray(list(fixed_vertices), int)
        if fixed_vertices.size:
            dofs = (3 * fixed_vertices[:, None] + np.arange(3)).ravel()
            self.fixed_mask[dofs] = True
        self.fixed_velocity = np.tile(np.asarray(fixed_velocity, float),
                                      mesh.n_verts)

    @property
    def mass_dofs(self) -> np.ndarray:
        return self.mesh.mass_dofs

    # -- contact management ---------------------------------------------------
    def build_contact_state(self, q, v, t: float, h: float,
                            extra_candidates=None) -> ContactState:
        """Freeze the candidate set from start-of-step positions.

        The activation distance is 1.5*delta plus a per-vertex sweep margin
        h*(|v| + obstacle speed), so vertices cannot cross the penalty support
        undetected within one step.  ``extra_candidates`` is an (n, 2) array
        of (vertex, obstacle) pairs unioned in by the kappa-retry loop.
        """
        if self.penalty is None:  # no contact law, so no candidates
            return ContactState(cset=gaps([], q, t, None, activation=0.0))
        surf = self.mesh.surface_vertices
        vv = np.asarray(v, float).reshape(-1, 3)
        speed = np.linalg.norm(vv[surf], axis=1)
        obs_speed = max((np.linalg.norm(o.motion.linear_velocity(t))
                         for o in self.obstacles), default=0.0)
        margin = h * (speed + obs_speed)
        cset = gaps(self.obstacles, q, t, self.penalty, candidate_vertices=surf,
                    activation=1.5 * self.penalty.delta + margin,
                    extra=extra_candidates)
        state = ContactState(cset=cset)
        if self.friction_mode == "lagged" and cset.size:
            state.lagged = LaggedFrictionCache.build(
                cset, self.obstacles, q, t, self.penalty)
        return state

    def rebuild_lagged(self, state: ContactState, q_anchor, t: float):
        """Refresh lagged anchors from newer positions (fixed-point iteration)."""
        if state.cset.size:
            state.lagged = LaggedFrictionCache.build(
                state.cset, self.obstacles, q_anchor, t, self.penalty)

    def penetration(self, q, t: float):
        """(deepest gap, (n, 2) penetrating (vertex, obstacle) pairs) over
        every surface vertex and obstacle; the deepest gap is inf without
        obstacles."""
        x = np.asarray(q, float).reshape(-1, 3)
        surf = self.mesh.surface_vertices
        g = gap_matrix(self.obstacles, x[surf], t)
        obstacle, vertex = np.nonzero(g < 0.0)
        return (float(g.min(initial=np.inf)),
                np.stack([surf[vertex], obstacle], axis=1))

    # -- forces ----------------------------------------------------------------
    def force(self, q, v, t: float, contact: ContactState,
              parts: frozenset = ALL_PARTS):
        """Total generalized force (m,), generic over Dual q/v."""
        total = 0.0 * q + 0.0 * v  # promotes to Dual if either input is
        if "elastic" in parts:
            total = total + elastic_force(self.mesh, q)
        if "damping" in parts:
            total = total + damping_force(self.mesh, q, v)
        if "gravity" in parts:
            total = total + self.gravity_force
        if self.penalty is not None and contact.cset.size:
            if "contact" in parts:
                total = total + contact_force(contact.cset, self.obstacles,
                                              q, t, self.penalty)
            if "friction" in parts:
                lagged = self.friction_mode == "lagged"
                total = total + friction_force(
                    contact.cset, self.obstacles, q, v, t, self.penalty,
                    frozen_basis=self.frozen_basis,
                    cache=contact.lagged if lagged else None)
        if "volume" in parts:
            for vp in self.volume_penalties:
                total = total + volume_force(vp.region, q, vp, strict=False)
        return total

    # -- assembled jacobians -----------------------------------------------------
    def jacobians(self, q, v, t: float, contact: ContactState,
                  parts: frozenset = ALL_PARTS):
        """(df/dq, df/dv, rank1 list) assembled sparse at real (q, v)."""
        q = np.asarray(q, float)
        v = np.asarray(v, float)
        m = self.mesh.n_dofs
        rows_q, cols_q, vals_q = [], [], []
        rows_v, cols_v, vals_v = [], [], []
        rank1: list[Rank1] = []
        s = self.mesh.scratch()
        has_beta = bool(np.any(self.mesh.beta > 0.0))

        kblocks = None
        if "elastic" in parts or ("damping" in parts and has_beta):
            kblocks = _element_stiffness(self.mesh, s, q)
        if "elastic" in parts:
            rows_q.append(s.block_rows)
            cols_q.append(s.block_cols)
            vals_q.append(-kblocks.ravel())
        if "damping" in parts:
            rows_v.append(np.arange(m))
            cols_v.append(np.arange(m))
            vals_v.append(-self.mesh.alpha * self.mesh.mass_dofs)
            if has_beta:
                rows_v.append(s.block_rows)
                cols_v.append(s.block_cols)
                vals_v.append(-(kblocks * self.mesh.beta[:, None, None]).ravel())
                dblocks = damping_q_blocks(self.mesh, q, v)
                rows_q.append(s.block_rows)
                cols_q.append(s.block_cols)
                vals_q.append(-dblocks.ravel())

        cset = contact.cset
        if self.penalty is not None and cset.size:
            br, bc = _vertex_block_indices(cset.vertex)
            if "contact" in parts:
                blocks = contact_blocks(cset, self.obstacles, q, t,
                                        self.penalty)
                rows_q.append(br)
                cols_q.append(bc)
                vals_q.append(blocks.ravel())
            if "friction" in parts:
                dfdq, dfdv = contact_friction_blocks(
                    cset, self.obstacles, q, v, t, self.penalty,
                    mode=self.friction_mode, cache=contact.lagged,
                    frozen_basis=self.frozen_basis)
                rows_v.append(br)
                cols_v.append(bc)
                vals_v.append(dfdv.ravel())
                if self.friction_mode != "lagged" and not self.frozen_basis:
                    rows_q.append(br)
                    cols_q.append(bc)
                    vals_q.append(dfdq.ravel())

        if "volume" in parts:
            for vp in self.volume_penalties:
                vvol, g = enclosed_volume(vp.region, q)
                w1 = float(_dwdv(vvol, vp, vp.rest_volume))
                w2 = _d2wdv2(float(vvol), vp, vp.rest_volume)
                hr, hc, hv = volume_hessian_blocks(vp.region, q)
                rows_q.append(hr)
                cols_q.append(hc)
                vals_q.append(-w1 * hv)
                rank1.append(Rank1(scale=-w2, u=g, w=g))

        dfdq = _to_csr(rows_q, cols_q, vals_q, m)
        dfdv = _to_csr(rows_v, cols_v, vals_v, m)
        return dfdq, dfdv, rank1

    # -- constraints --------------------------------------------------------------
    def apply_velocity_constraints(self, r, v):
        """Replace fixed-dof rows of a residual with v - v_prescribed."""
        if not self.fixed_mask.any():
            return r
        return dm.where(self.fixed_mask, v - self.fixed_velocity, r)

    def constrain_matrix(self, mat: sp.csr_matrix) -> sp.csr_matrix:
        """Zero fixed rows and put 1 on their diagonal."""
        if not self.fixed_mask.any():
            return mat
        free = (~self.fixed_mask).astype(float)
        proj = sp.diags(free)
        eye_fixed = sp.diags(self.fixed_mask.astype(float))
        return (proj @ mat + eye_fixed).tocsr()

    def constrain_rank1(self, rank1):
        """Zero fixed rows of low-rank corrections."""
        if not self.fixed_mask.any():
            return rank1
        out = []
        for r in rank1:
            u = r.u.copy()
            u[self.fixed_mask] = 0.0
            out.append(Rank1(scale=r.scale, u=u, w=r.w))
        return out


def _vertex_block_indices(vertex):
    """(rows, cols) for per-vertex 3x3 blocks in flat dof numbering."""
    base = 3 * vertex
    r = (base[:, None, None] + np.arange(3)[None, :, None])
    c = (base[:, None, None] + np.arange(3)[None, None, :])
    shape = (len(vertex), 3, 3)
    return (np.broadcast_to(r, shape).ravel(),
            np.broadcast_to(c, shape).ravel())


def _to_csr(rows, cols, vals, m):
    if not rows:
        return sp.csr_matrix((m, m))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m)).tocsr()
