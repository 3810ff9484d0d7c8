"""Smoothed Coulomb and Stribeck friction, implicit and lagged.

Per contact with relative tangential velocity v_t (2-vector) and normal force
magnitude lambda, the friction force is

    f = -c(|v_t|, lambda) * v_t / |v_t|,
    c(v, lambda) = (mu_d + (mu_s - mu_d) g(v / v_s)) s(v; eps) lambda + mu_v v,

with the pre-sliding transition s(v) = 2v/eps - v^2/eps^2 (v < eps, else 1)
and the compact Stribeck bump g(x) = (2x+1)(x-1)^2 (x < 1, else 0).  Both are
C^1 at their seams, making the force C^1 in velocity; c(v)/v is bounded as
v -> 0, so the 0/0 is removed by a guarded norm without changing values.

The kernel uses the tangent-plane projector (I - n n^T), which equals the
sliding-basis form -T H(T^T v) c for any orthonormal tangent pair and has no
reference-axis degeneracy.  Fully implicit evaluation takes the contact
geometry at the live (end-of-step) positions; lagged evaluation takes lambda,
the normal and the obstacle velocity at the positions of an anchor set (see
``ForceModel.rebuild_lagged``) while the velocity stays implicit.

One kernel gives the contact and the friction force of every contact from
one gathered evaluation: it gathers each contact's gap, normal, surface
velocity and friction coefficients from the rows of its obstacle in the
set's :class:`contact.ObstacleTable`.  When the table records that every
friction row is plain Coulomb (mu_s = mu_d, mu_v = 0), the kernel takes
c = mu_d s(v; eps) lambda, the same values bit for bit, since the Stribeck
and viscous terms would add exact zeros.  The residual calls the kernel
once; :func:`contact_friction_blocks` makes one ``dual.jacobian_blocks``
pass of it over all contacts for the stage's c_q d/dq + c_v d/dv.  Since
the stage moves q and v together (q = q_ref + c v), three seeds per contact
suffice: seed i moves the contact's position by c_q e_i and its velocity by
c_v e_i, and gives column i of the contact and friction blocks at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dual as dm
from .contact import ContactSet, ObstacleTable, PenaltyParams, penalty_lambda

__all__ = [
    "FrictionParams", "smooth_s", "stribeck_g", "friction_magnitude_c",
    "contact_friction_forces", "contact_friction_blocks",
]


@dataclass(frozen=True)
class FrictionParams:
    """Dynamic/static/viscous coefficients plus smoothing tolerances."""

    mu_d: float                 # dynamic coefficient
    mu_s: float | None = None   # static coefficient (defaults to mu_d)
    mu_v: float = 0.0           # viscous coefficient (N s/m)
    epsilon: float = 1e-4       # sliding-velocity tolerance (m/s)
    v_s: float | None = None    # Stribeck velocity (defaults to 10*epsilon)

    def __post_init__(self):
        object.__setattr__(self, "mu_s",
                           self.mu_d if self.mu_s is None else self.mu_s)
        object.__setattr__(self, "v_s",
                           10.0 * self.epsilon if self.v_s is None else self.v_s)
        if not (self.mu_s >= self.mu_d >= 0.0):
            raise ValueError("need mu_s >= mu_d >= 0")
        if self.mu_v < 0.0:
            raise ValueError("mu_v must be nonnegative")
        if self.epsilon <= 0.0 or self.v_s <= 0.0:
            raise ValueError("epsilon and v_s must be positive")
        if self.v_s < self.epsilon:
            warnings.warn(
                "Stribeck velocity below the sliding tolerance lowers the "
                "effective static friction", stacklevel=2)


class _Coeffs(NamedTuple):
    """The :class:`FrictionParams` coefficients as per-contact arrays, in
    the column order of ``ObstacleTable.friction``."""

    mu_d: np.ndarray
    mu_s: np.ndarray
    mu_v: np.ndarray
    epsilon: np.ndarray
    v_s: np.ndarray


def smooth_s(v, epsilon: float):
    """Pre-sliding transition: 2v/eps - v^2/eps^2 for v < eps, else 1.

    C^1 at v = eps, monotone nondecreasing on [0, inf).  The else branch is
    the constant 1, so a NaN or +inf v (which fails v < eps) gives 1, not
    NaN; the caller's other terms in v carry the non-finite value."""
    return dm.where(v < epsilon, (2.0 / epsilon) * v - v ** 2 / epsilon ** 2,
                    1.0)


def stribeck_g(x):
    """Compact decay bump: (2x+1)(x-1)^2 for x < 1, else 0; g(0)=1, C^1 at 1.

    The else branch is the constant 0, so a NaN or +inf x gives 0, not
    NaN."""
    return dm.where(x < 1.0, (2.0 * x + 1.0) * (x - 1.0) ** 2, 0.0)


def friction_magnitude_c(v, lam, params: FrictionParams):
    """Stribeck-plus-viscous force magnitude c(v, lambda) (N); v >= 0."""
    mu_eff = params.mu_d + (params.mu_s - params.mu_d) \
        * stribeck_g(v / params.v_s)
    return mu_eff * smooth_s(v, params.epsilon) * lam + params.mu_v * v


def _contact_friction_local(x, v, obstacle, *anchor, table: ObstacleTable,
                            t: float, penalty: PenaltyParams):
    """Per-contact (contact force, friction force), (k, 3) each, of the
    positions x and velocities v (k, 3) of contacts against the table's
    obstacles ``obstacle`` (k,), with their obstacles' friction rows.

    Friction takes its (lambda, normal, obstacle surface velocity) from the
    constant arrays ``anchor`` when given, else from the live geometry at
    x.  Generic over Dual x and v.
    """
    d, normal = table.gap_normal(obstacle, x, t)
    lam = penalty_lambda(d, penalty.delta, penalty.kappa)
    lam_f, n_f, w_f = anchor or (lam, normal, table.velocity(obstacle, x, t))
    rel = v - w_f
    vt = rel - dm.dot_last(rel, n_f)[..., None] * n_f
    speed = dm.norm_last(vt)
    coeffs = _Coeffs(*table.friction[obstacle].T)
    if table.coulomb:
        c = coeffs.mu_d * smooth_s(speed, coeffs.epsilon) * lam_f
    else:
        c = friction_magnitude_c(speed, lam_f, coeffs)
    ratio = c / speed
    return lam[..., None] * normal, -ratio[..., None] * vt


def _lagged_anchor(t: float, anchor: ContactSet | None):
    """The (lambda, normal, w) lagged friction takes in place of the live
    geometry: the anchor's snapshot, with w at its positions, if any."""
    if anchor is None:
        return ()
    return anchor.lam, anchor.n, anchor.table.velocity(anchor.obstacle,
                                                       anchor.x, t)


def contact_friction_forces(cset: ContactSet, q, v, t: float,
                            penalty: PenaltyParams,
                            anchor: ContactSet | None = None):
    """(contact force, friction force), each (m,), of the frozen set from one
    gathered geometry evaluation over all its contacts.

    The friction force is -T(q) H(T^T v) c with lambda(q).  With a lagged
    ``anchor`` set, its T and lambda come from the anchor's snapshot and
    only the velocity is live.  Generic over Dual q/v.
    """
    x = q.reshape(-1, 3)
    vv = v.reshape(-1, 3)
    local = _contact_friction_local(
        x[cset.vertex], vv[cset.vertex], cset.obstacle,
        *_lagged_anchor(t, anchor), table=cset.table, t=t, penalty=penalty)
    both = dm.spread(cset.vertex, dm.concat(local, axis=-1), len(x))
    return both[:, :3].reshape(-1), both[:, 3:].reshape(-1)


def contact_friction_blocks(cset: ContactSet, q, v, t: float,
                            penalty: PenaltyParams, c_q: float, c_v: float,
                            anchor: ContactSet | None = None) -> np.ndarray:
    """Per-contact stage-weighted Jacobian blocks (k, 6, 3),
    c_q d/dq + c_v d/dv of the contact and friction forces with respect to
    the contact vertex's (q, v).

    Rows 0-2 are the contact force and rows 3-5 the friction force, so
    their sum is the contact's block of the stage Jacobian.  Weights (1, 0)
    give the dq blocks (the friction rows exactly zero when lagged, whose
    anchor is constant) and (0, 1) the dv blocks (the contact rows zero).
    All come from one ``dual.jacobian_blocks`` pass, with three seeds per
    contact, of the kernel the residual uses: seed i moves the contact's
    position by c_q e_i and its velocity by c_v e_i.  So assembled products
    match the dual JVP to machine precision.  Each contact touches exactly
    one vertex in this obstacle-only setting, so the blocks are diagonal in
    the contact index.
    """
    x = np.asarray(q, float).reshape(-1, 3)[cset.vertex]
    vv = np.asarray(v, float).reshape(-1, 3)[cset.vertex]

    def kernel(y, at_x, at_v, *per_item):
        return dm.concat(_contact_friction_local(
            at_x + c_q * y, at_v + c_v * y, *per_item, table=cset.table,
            t=t, penalty=penalty), axis=-1)

    # seeded at y = 0, so the kernel is evaluated at (x, v)
    return dm.jacobian_blocks(kernel, np.zeros_like(x), x, vv, cset.obstacle,
                              *_lagged_anchor(t, anchor))
