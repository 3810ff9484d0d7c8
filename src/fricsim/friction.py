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
geometry at the live (end-of-step) positions; lagged evaluation takes it from
cached start-of-step geometry while the velocity stays implicit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .contact import ContactSet, PenaltyParams, penalty_lambda

__all__ = [
    "FrictionParams", "smooth_s", "stribeck_g", "friction_magnitude_c",
    "friction_force", "contact_friction_blocks",
    "LaggedFrictionCache",
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


_NO_FRICTION = FrictionParams(mu_d=0.0)


def _params(obs) -> FrictionParams:
    return obs.friction if obs.friction is not None else _NO_FRICTION


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


def _geometry(obs, x, t: float, penalty: PenaltyParams):
    """Live (lambda, normal, surface velocity) at positions x; generic."""
    d, normal = obs.gap_normal(x, t)
    return (penalty_lambda(d, penalty.delta, penalty.kappa), normal,
            obs.surface_velocity(x, t))


def _contact_friction_local(v, lam, normal, w, params: FrictionParams):
    """Per-contact friction forces (k, 3) from vertex velocities v, normal
    force magnitudes lam, unit normals and obstacle surface velocities w."""
    rel = v - w
    vt = rel - dm.dot_last(rel, normal)[..., None] * normal
    speed = dm.norm_last(vt)
    ratio = friction_magnitude_c(speed, lam, params) / speed
    return -ratio[..., None] * vt


@dataclass
class LaggedFrictionCache:
    """Start-of-step contact geometry for the lagged friction evaluation."""

    cset: ContactSet
    x0: np.ndarray          # (k, 3) anchor positions
    lam0: np.ndarray        # (k,)
    n0: np.ndarray          # (k, 3)

    @classmethod
    def build(cls, cset: ContactSet, obstacles, q0, t0: float,
              penalty: PenaltyParams) -> "LaggedFrictionCache":
        x = np.asarray(q0, float).reshape(-1, 3)
        k = cset.size
        lam0 = np.zeros(k)
        n0 = np.zeros((k, 3))
        x0 = x[cset.vertex]
        for oi, members in cset.groups():
            d, n = obstacles[oi].gap_normal(x0[members], t0)
            lam0[members] = penalty_lambda(d, penalty.delta, penalty.kappa)
            n0[members] = n
        return cls(cset=cset, x0=x0, lam0=lam0, n0=n0)


def _anchor(cache: LaggedFrictionCache | None, members, obs, x, t: float,
            penalty: PenaltyParams):
    """(lambda, normal, w) of one obstacle's contacts: the cached
    start-of-step values when lagged, else live at their positions x."""
    if cache is None:
        return _geometry(obs, x, t, penalty)
    return (cache.lam0[members], cache.n0[members],
            obs.surface_velocity(cache.x0[members], t))


def friction_force(cset: ContactSet, obstacles, q, v, t: float,
                   penalty: PenaltyParams, frozen_basis: bool = False,
                   cache: LaggedFrictionCache | None = None):
    """Total friction force (m,): -T(q) H(T^T v) c with lambda(q).

    With a lagged ``cache``, T and lambda come from the cached start-of-step
    state and only the velocity is live (q is not read).  ``frozen_basis``
    detaches the positional dependence (geometry evaluated at value(q)),
    giving the cheaper Jacobian variant's force a matching dual oracle.
    Generic over Dual q/v.
    """
    x = q.reshape(-1, 3)
    vv = v.reshape(-1, 3)
    out = dm.zeros(vv.shape, like=v)
    for oi, members in cset.groups():
        obs = obstacles[oi]
        idx = cset.vertex[members]
        xi = dm.value(x[idx]) if frozen_basis else x[idx]
        f = _contact_friction_local(
            vv[idx], *_anchor(cache, members, obs, xi, t, penalty),
            _params(obs))
        out = dm.scatter_add(out, idx, f)
    return out.reshape(-1)


def contact_friction_blocks(cset: ContactSet, obstacles, q, v, t: float,
                            penalty: PenaltyParams, mode: str = "implicit",
                            cache: LaggedFrictionCache | None = None,
                            frozen_basis: bool = False):
    """Per-contact 3x3 Jacobian blocks (dfdq, dfdv) of the friction force.

    Each is one ``dual.jacobian_blocks`` pass over the kernel the residual
    uses, so assembled products match the dual JVP to machine precision.
    dfdq is zero when lagged or ``frozen_basis``.  Each contact touches
    exactly one vertex in this obstacle-only setting, so the blocks are
    diagonal in the contact index.
    """
    k = cset.size
    dfdq = np.zeros((k, 3, 3))
    dfdv = np.zeros((k, 3, 3))
    x = np.asarray(q, float).reshape(-1, 3)
    vv = np.asarray(v, float).reshape(-1, 3)
    lagged = cache if mode == "lagged" else None
    for oi, members in cset.groups():
        obs = obstacles[oi]
        params = _params(obs)
        idx = cset.vertex[members]
        dfdv[members] = dm.jacobian_blocks(
            lambda vd, *anchor: _contact_friction_local(vd, *anchor, params),
            vv[idx], *_anchor(lagged, members, obs, x[idx], t, penalty))
        if lagged is None and not frozen_basis:
            dfdq[members] = dm.jacobian_blocks(
                lambda xd, vm: _contact_friction_local(
                    vm, *_geometry(obs, xd, t, penalty), params),
                x[idx], vv[idx])
    return dfdq, dfdv
