"""Aggregate force model: f = f_e + f_d + f_c + f_f + f_v + f_g.

One ForceModel owns the (merged) mesh, an obstacle table and the penalty,
friction and volume parameters.  It holds the fixed-dof mask and prescribed
velocities as plain data (``fixed_mask``, ``fixed_velocity``), which the
stage applies (:class:`integrators.StageProblem`), and provides

  * ``force`` — generic total force, evaluable with Dual q/v for JVPs,
    with lagged friction anchoring;
  * ``jacobians`` — the sparse c_q df/dq + c_v df/dv, as ``data`` on one
    fixed CSR pattern per model (:class:`CsrPattern`, built at the first
    assembly), plus the exact rank-1 volume terms of c_q df/dq, kept
    separate because they are dense; the solvers apply them without
    forming them (Woodbury on the LU factor, or a matvec).  Each part is
    one ``np.bincount`` scatter of its weighted blocks: the elements'
    closed-form (c_q + c_v beta) K + c_q Q (Q the damping-dq blocks) from
    one kernel (``elasticity.element_blocks``), the
    contacts' stage-weighted contact and friction blocks from one
    ``dual.jacobian_blocks`` pass over every contact of the
    contact-and-friction kernel the force uses, with three seeds per
    contact along the stage direction (c_q e_i, c_v e_i)
    (``friction.contact_friction_blocks``), so no obstacle curvature is
    coded here, and each volume region's closed-form Hessian.

Contact candidate sets are frozen per step (built by the stepping loop) and
evaluated live inside a solve.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .contact import ContactSet, ObstacleTable, PenaltyParams, gaps, snapshot
from .elasticity import (damping_q_blocks, element_blocks, element_forces,
                         element_kinematics)
from .friction import contact_friction_blocks, contact_friction_forces
from .mesh import TetMeshModel
from .solvers import BandLayout
from .volume import (enclosed_volume, volume_force, volume_hessian_blocks,
                     volume_hessian_pairs, volume_law)

@dataclass
class Rank1:
    """Low-rank Jacobian correction  scale * outer(u, w)  (never stored dense)."""

    scale: float
    u: np.ndarray
    w: np.ndarray

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.scale * self.u * float(self.w @ p)


class CsrPattern:
    """Fixed, sorted CSR sparsity of an m x m matrix (m = 3 n) made of 3x3
    blocks over vertex pairs: the diagonal blocks plus the union of the
    (vi, vj) vertex-pair pieces it is built from.

    ``slots[i]`` has piece i's shape plus (3, 3) and holds the position in
    ``data`` of each entry of each of its blocks; ``vertex`` (n, 9) holds
    the slots of each vertex's own block, ``diag`` the diagonal slots and
    ``rows`` the row of every slot.  Matrices on the pattern share its
    ``indices`` and ``indptr`` and differ only in ``data``; ``band`` is the
    pattern's banded-LU layout (:class:`solvers.BandLayout`), built here
    once and carried by every :meth:`matrix`.
    """

    def __init__(self, n: int, pieces):
        diag = np.arange(n)
        vi = np.concatenate([diag] + [np.ravel(a) for a, _ in pieces])
        vj = np.concatenate([diag] + [np.ravel(b) for _, b in pieces])
        keys, block = np.unique(vi * n + vj, return_inverse=True)
        bi, bj = np.divmod(keys, n)
        start = np.searchsorted(bi, np.arange(n + 1))
        # Row 3i + c holds the blocks of block row i, three columns each, so
        # entry (c, e) of block k sits at 9 start_i + 3 c deg_i + 3 rank_k + e.
        first = 9 * start[bi] + 3 * (np.arange(keys.size) - start[bi])
        stride = 3 * np.diff(start)[bi]
        three = np.arange(3)

        def entries(k):
            k = k[..., None, None]
            return first[k] + stride[k] * three[:, None] + three

        self.m = 3 * n
        self.nnz = 9 * keys.size
        every = entries(np.arange(keys.size))
        self.rows = np.empty(self.nnz, int)
        self.rows[every] = 3 * bi[:, None, None] + three[:, None]
        self.indices = np.empty(self.nnz, np.int32)
        self.indices[every] = 3 * bj[:, None, None] + three
        self.indptr = np.searchsorted(self.rows,
                                      np.arange(self.m + 1)).astype(np.int32)
        ends = np.cumsum([n] + [np.size(a) for a, _ in pieces])
        own, *blocks = np.split(block, ends[:-1])
        self.vertex = entries(own).reshape(n, 9)
        self.diag = self.vertex[:, [0, 4, 8]].ravel()
        self.slots = [entries(b.reshape(np.shape(a)))
                      for b, (a, _) in zip(blocks, pieces)]
        self.band = BandLayout(self.indptr, self.indices, self.m)

    def scatter(self, slots, weights) -> np.ndarray:
        """``data`` with the weights summed into their slots (both flat)."""
        return np.bincount(slots, weights, minlength=self.nnz)

    def matrix(self, data) -> sp.csr_matrix:
        """The CSR matrix with ``data`` on the pattern, carrying ``band``."""
        mat = sp.csr_matrix((data, self.indices, self.indptr),
                            shape=(self.m, self.m))
        mat.band = self.band
        return mat


@dataclass
class ContactState:
    """Per-step frozen contact candidates plus the lagged friction anchor."""

    cset: ContactSet
    lagged: ContactSet | None = None

    @classmethod
    def empty(cls, table: ObstacleTable) -> ContactState:
        """A state with no pairs, so contact and friction add nothing."""
        none = np.zeros(0, int)
        return cls(cset=ContactSet(
            vertex=none, obstacle=none, x=np.zeros((0, 3)), d=np.zeros(0),
            lam=np.zeros(0), n=np.zeros((0, 3)), table=table))


class ForceModel:
    def __init__(self, mesh: TetMeshModel, obstacles=(),
                 penalty: PenaltyParams | None = None,
                 gravity=(0.0, -9.8, 0.0),
                 volume_penalties=(),
                 friction_mode: str = "implicit",
                 fixed_vertices=(), fixed_velocity=(0.0, 0.0, 0.0)):
        self.mesh = mesh
        self.table = ObstacleTable(obstacles)  # owns the frame memo
        self.penalty = penalty
        self.gravity = np.asarray(gravity, float)
        # own copies: the measured rest volume is run state, not scene config
        self.volume_penalties = [copy.copy(vp) for vp in volume_penalties]
        for vp in self.volume_penalties:
            if vp.rest_volume is None:
                v0, _ = enclosed_volume(vp.tables(), mesh.rest_q())
                vp.rest_volume = float(v0)
        self.friction_mode = friction_mode
        self.gravity_force = (mesh.vertex_mass[:, None]
                              * self.gravity[None, :]).reshape(-1)
        self.fixed_mask = np.zeros(mesh.n_dofs, dtype=bool)
        fixed_vertices = np.asarray(list(fixed_vertices), int)
        if fixed_vertices.size:
            dofs = (3 * fixed_vertices[:, None] + np.arange(3)).ravel()
            self.fixed_mask[dofs] = True
        # one (3,) velocity for every vertex, or an (n_verts, 3) array
        self.fixed_velocity = np.broadcast_to(
            np.asarray(fixed_velocity, float), (mesh.n_verts, 3)).flatten()
        self.mass_dofs = mesh.mass_dofs
        self._pattern = None

    # -- contact management ---------------------------------------------------
    def build_contact_state(self, q, v, t: float, h: float,
                            extra_candidates=None) -> ContactState:
        """Freeze the candidate set, which is also the lagged friction
        anchor, of a step of length h that starts at (q, v, t).

        The surface vertices are scanned with the sweep margin of
        :func:`contact.gaps`.  ``extra_candidates`` is an (n, 2) array of
        (vertex, obstacle) pairs unioned in by the kappa-retry loop.
        """
        if self.penalty is None:  # no contact law, so no candidates
            return ContactState.empty(self.table)
        cset = gaps(self.table, q, t, self.penalty,
                    candidate_vertices=self.mesh.surface_vertices,
                    extra=extra_candidates, v=v, h=h)
        return ContactState(
            cset=cset, lagged=cset if self.friction_mode == "lagged" else None)

    def rebuild_lagged(self, state: ContactState, q, t: float):
        """A copy of ``state`` with its anchor re-snapshotted at (q, t)."""
        return replace(state, lagged=snapshot(
            self.table, state.cset.vertex, state.cset.obstacle, q, t,
            self.penalty))

    # -- forces ----------------------------------------------------------------
    def force(self, q, v, t: float, contact: ContactState):
        """Total generalized force (m,), generic over Dual q/v."""
        total = element_forces(self.mesh, q, v, True, True)
        total = total + self.gravity_force
        if contact.cset.size:
            f_c, f_f = contact_friction_forces(
                contact.cset, q, v, t, self.penalty, anchor=contact.lagged)
            total = total + f_c
            total = total + f_f
        for vp in self.volume_penalties:
            total = total + volume_force(q, vp)
        return total

    # -- assembled jacobians -----------------------------------------------------
    def pattern(self) -> CsrPattern:
        """The Jacobians' fixed CSR pattern, built at the first call.

        Its pieces are the vertex pairs of the element blocks and of each
        volume region's triangle blocks; the contact and friction blocks
        use its ``vertex`` table.  The piece slots are kept flat in the
        order of the blocks they receive: the (n_e, 12, 12) element blocks
        and the (6 n_t, 3, 3) volume Hessian blocks.
        """
        if self._pattern is None:
            mesh = self.mesh
            n_e = len(mesh.tets)
            pair = np.broadcast_to(mesh.tets[:, :, None], (n_e, 4, 4))
            pat = CsrPattern(mesh.n_verts,
                             [(pair, np.swapaxes(pair, 1, 2))]
                             + [volume_hessian_pairs(vp.region)
                                for vp in self.volume_penalties])
            elem, *regions = pat.slots
            pat.slots = [elem.transpose(0, 1, 3, 2, 4).ravel(),
                         *(r.ravel() for r in regions)]
            self._pattern = pat
        return self._pattern

    def jacobians(self, q, v, t: float, contact: ContactState, c_q: float,
                  c_v: float):
        """(data, rank1 list) at real (q, v): ``data`` holds
        c_q df/dq + c_v df/dv on :meth:`pattern`, and the rank-1 volume
        terms are those of df/dq scaled by c_q."""
        q = np.asarray(q, float)
        v = np.asarray(v, float)
        pat = self.pattern()
        elem, *regions = pat.slots
        data = np.zeros(pat.nnz)
        rank1: list[Rank1] = []
        mesh = self.mesh

        kin = element_kinematics(mesh, q)
        damp = (damping_q_blocks(mesh, kin, v)
                if np.any(mesh.beta > 0.0) else None)
        blocks = element_blocks(mesh, kin, c_q, c_v, damp)
        data -= pat.scatter(elem, blocks.ravel())
        data[pat.diag] -= c_v * mesh.alpha * mesh.mass_dofs

        cset = contact.cset
        if cset.size:
            cf = contact_friction_blocks(cset, q, v, t, self.penalty, c_q,
                                         c_v, anchor=contact.lagged)
            data += pat.scatter(pat.vertex[cset.vertex].ravel(),
                                (cf[:, :3] + cf[:, 3:]).ravel())

        for vp, slots in zip(self.volume_penalties, regions):
            vvol, g = enclosed_volume(vp.tables(), q)
            _, w1, w2 = volume_law(vvol, vp)
            hv = volume_hessian_blocks(vp.tables(), q)
            data -= pat.scatter(slots, (c_q * w1) * hv.ravel())
            rank1.append(Rank1(scale=-c_q * w2, u=g, w=g))

        return data, rank1
