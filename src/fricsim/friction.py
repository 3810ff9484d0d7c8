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
    "friction_force", "friction_force_lagged", "contact_friction_blocks",
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


def _col(a):
    """Append a trailing axis to a (k,) array, Dual-aware."""
    if dm.is_dual(a):
        return dm.Dual(a.re[..., None], a.eps[..., None])
    return np.asarray(a)[..., None]


def _contact_friction_local(x, v, obs, params: FrictionParams, t: float,
                            penalty: PenaltyParams, lam=None, normal=None,
                            w=None):
    """Per-contact friction forces (k, 3) from vertex positions/velocities.

    When lam/normal/w are given they are treated as constants (lagged or
    frozen-basis evaluation); otherwise they come from the live geometry.
    """
    if normal is None or lam is None:
        d, n = obs.gap_normal(x, t)
        if lam is None:
            lam = penalty_lambda(d, penalty.delta, penalty.kappa)
        if normal is None:
            normal = n
    if w is None:
        w = obs.surface_velocity(x, t)
    rel = v - w
    vt = rel - _col(dm.dot_last(rel, normal)) * normal
    speed = dm.norm_last(vt)
    ratio = friction_magnitude_c(speed, lam, params) / speed
    return -_col(ratio) * vt


def _scatter_groups(n_verts: int, contribs):
    """Sum (idx, (k,3) force) contributions into a flat (m,) vector."""
    template = next((f for _, f in contribs if dm.is_dual(f)), None)
    out = dm.zeros((n_verts, 3),
                   like=template if template is not None else np.zeros(1))
    for idx, f in contribs:
        dm.scatter_add(out, idx, f)
    return out.reshape(-1)


def friction_force(cset: ContactSet, obstacles, q, v, t: float,
                   penalty: PenaltyParams, frozen_basis: bool = False):
    """Total friction force (m,): -T(q) H(T^T v) c with lambda(q).

    ``frozen_basis`` detaches the positional dependence (geometry evaluated at
    value(q)), giving the cheaper Jacobian variant's force a matching dual
    oracle.
    """
    x = q.reshape(-1, 3)
    vv = v.reshape(-1, 3)
    contribs = []
    for oi, members in cset.groups():
        obs = obstacles[oi]
        idx = cset.vertex[members]
        xi = dm.value(x[idx]) if frozen_basis else x[idx]
        f = _contact_friction_local(xi, vv[idx], obs, _params(obs), t,
                                    penalty)
        contribs.append((idx, f))
    if not contribs:
        return 0.0 * v
    return _scatter_groups(x.shape[0], contribs)


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


def friction_force_lagged(cache: LaggedFrictionCache, obstacles, v, t: float,
                          penalty: PenaltyParams):
    """Friction with T, lambda anchored at the cached start-of-step state;
    only the velocity is live (generic over Dual v)."""
    cset = cache.cset
    vv = v.reshape(-1, 3)
    n_verts = vv.shape[0]
    contribs = []
    for oi, members in cset.groups():
        obs = obstacles[oi]
        idx = cset.vertex[members]
        f = _contact_friction_local(
            cache.x0[members], vv[idx], obs, _params(obs), t, penalty,
            lam=cache.lam0[members], normal=cache.n0[members],
            w=obs.surface_velocity(cache.x0[members], t))
        contribs.append((idx, f))
    if not contribs:
        return 0.0 * v
    return _scatter_groups(n_verts, contribs)


def contact_friction_blocks(cset: ContactSet, obstacles, q, v, t: float,
                            penalty: PenaltyParams, mode: str = "implicit",
                            cache: LaggedFrictionCache | None = None,
                            frozen_basis: bool = False):
    """Per-contact 3x3 Jacobian blocks (dfdq, dfdv) of the friction force.

    Obtained by 3+3 per-contact dual evaluations of the same kernel used in
    the residual, so assembled products match the matrix-free JVP to machine
    precision.  Each contact touches exactly one vertex in this obstacle-only
    setting, so the blocks are diagonal in the contact index.
    """
    k = cset.size
    dfdq = np.zeros((k, 3, 3))
    dfdv = np.zeros((k, 3, 3))
    x = np.asarray(q, float).reshape(-1, 3)
    vv = np.asarray(v, float).reshape(-1, 3)
    for oi, members in cset.groups():
        obs = obstacles[oi]
        params = _params(obs)
        idx = cset.vertex[members]
        if mode == "lagged":
            xm = cache.x0[members]
            lam = cache.lam0[members]
            nrm = cache.n0[members]
            w = obs.surface_velocity(xm, t)
        else:
            xm = x[idx]
            lam = nrm = w = None
        vm = vv[idx]
        for j in range(3):
            seed = np.zeros((1, 3))
            seed[0, j] = 1.0
            vd = dm.Dual(vm, np.broadcast_to(seed, vm.shape))
            f = _contact_friction_local(xm, vd, obs, params, t, penalty,
                                        lam=lam, normal=nrm, w=w)
            dfdv[members, :, j] = f.eps
            if mode == "implicit" and not frozen_basis:
                xd = dm.Dual(xm, np.broadcast_to(seed, xm.shape))
                fq = _contact_friction_local(xd, vm, obs, params, t, penalty)
                dfdq[members, :, j] = fq.eps
    return dfdq, dfdv
