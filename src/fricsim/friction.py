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
set's :class:`contact.ObstacleTable`.  The residual calls it once;
:func:`contact_friction_blocks` makes one ``dual.jacobian_blocks`` pass of it
over all contacts, seeding each contact's 6 (q, v) directions, for the
contact dq, friction dq and friction dv blocks together.
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

    C^1 at v = eps, monotone nondecreasing on [0, inf)."""
    return dm.where(v < epsilon, (2.0 / epsilon) * v - v ** 2 / epsilon ** 2,
                    1.0 + 0.0 * v)


def stribeck_g(x):
    """Compact decay bump: (2x+1)(x-1)^2 for x < 1, else 0; g(0)=1, C^1 at 1."""
    return dm.where(x < 1.0, (2.0 * x + 1.0) * (x - 1.0) ** 2, 0.0 * x)


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
    ratio = friction_magnitude_c(speed, lam_f, coeffs) / speed
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
    fc, ff = _contact_friction_local(
        x[cset.vertex], vv[cset.vertex], cset.obstacle,
        *_lagged_anchor(t, anchor), table=cset.table, t=t, penalty=penalty)
    return (dm.spread(cset.vertex, fc, len(x)).reshape(-1),
            dm.spread(cset.vertex, ff, len(x)).reshape(-1))


def contact_friction_blocks(cset: ContactSet, q, v, t: float,
                            penalty: PenaltyParams,
                            anchor: ContactSet | None = None) -> np.ndarray:
    """Per-contact Jacobian blocks (k, 6, 6) of the contact and friction
    forces with respect to the contact vertex's (q, v).

    Rows 0-2 are the contact force and rows 3-5 the friction force; columns
    0-2 are q and 3-5 are v.  So ``[:, :3, :3]`` is the contact dq block,
    ``[:, 3:, :3]`` the friction dq block (exactly zero when lagged, whose
    anchor is constant) and ``[:, 3:, 3:]`` the friction dv block;
    ``[:, :3, 3:]`` is zero.  All come from one ``dual.jacobian_blocks``
    pass over every contact of the kernel the residual uses, so assembled
    products match the dual JVP to machine precision.  Each contact touches
    exactly one vertex in this obstacle-only setting, so the blocks are
    diagonal in the contact index.
    """
    x = np.asarray(q, float).reshape(-1, 3)[cset.vertex]
    vv = np.asarray(v, float).reshape(-1, 3)[cset.vertex]

    def kernel(y, *per_item):
        return dm.concat(_contact_friction_local(
            y[:, :3], y[:, 3:], *per_item, table=cset.table, t=t,
            penalty=penalty), axis=-1)

    return dm.jacobian_blocks(kernel, np.concatenate([x, vv], axis=1),
                              cset.obstacle, *_lagged_anchor(t, anchor))
